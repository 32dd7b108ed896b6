"""The forked helper that runs the second half of a wide design's starts."""

import math
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import quantlink.quantizer as quantizer_module
from quantlink.quantizer import DesignConfig, design_channel_optimized, design_lloyd_max, uniform_bsc

ROOT = Path(__file__).resolve().parents[1]
needs_helper = pytest.mark.skipif(not quantizer_module._helper_can_run(), reason="one CPU or no fork here")


def _cell(q):
    return q.thresholds.tobytes(), q.region_codewords.tobytes(), q.levels.tobytes(), q.normalized_distortion


def _designs(b):
    """Lloyd-Max, then two targets with and without a warm start, each design with its trace."""
    cfg = DesignConfig()
    trace = []
    lm = quantizer_module._best_of_restarts(
        b, np.zeros(b), quantizer_module._quantile_levels(b), ("design-lm", cfg.seed, b), cfg, None, trace
    )
    out = [(_cell(lm), np.array(trace).tobytes())]
    warm = np.repeat(design_lloyd_max(b - 1).levels, 2)
    for eps in (1e-3, 3e-2):
        for extra in (None, [warm]):
            trace = []
            q = design_channel_optimized(b, uniform_bsc(b, eps), extra_init_levels=extra, trace=trace)
            out.append((_cell(q), np.array(trace).tobytes()))
    return out


def _helper():
    return quantizer_module._HELPERS.get(os.getpid())


def _alive(helper) -> bool:
    """Whether this process's helper still runs (one that has ended is reaped here)."""
    return os.waitpid(helper.pid, os.WNOHANG) == (0, 0)


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _discard():
    if _helper() is not None:
        _helper().discard()


@pytest.fixture
def own_helper():
    """No helper before the test, and none after it: one forked under the test's patches dies with them."""
    _discard()
    yield
    _discard()


@pytest.mark.parametrize("b", range(5, 9))
def test_a_split_design_equals_the_design_in_process(b, own_helper, monkeypatch):
    split = _designs(b)
    if quantizer_module._helper_can_run():
        # from b = 6 on the second halves ran there; b = 5 runs in process
        assert (_helper() is not None and _alive(_helper())) == (b >= 6)
    monkeypatch.setattr(quantizer_module, "_helper_can_run", lambda: False)
    assert _designs(b) == split


def test_the_split_returns_each_starts_best_in_start_order():
    # the design keeps the first of equal distortions, so the order of the
    # starts decides a tie
    b = 6
    base = design_lloyd_max(b).levels
    inits = np.array([base + 0.01 * k * np.sin(np.arange(base.size) + k) for k in range(7)])
    trans = quantizer_module._transition_matrix(uniform_bsc(b, 0.01))
    cfg = DesignConfig(max_iters=30)
    split, whole = [], []
    got = quantizer_module._alternate_split(inits, trans, cfg, split)
    want = quantizer_module._alternate(inits, trans, cfg, whole)
    assert [(t.tobytes(), c.tobytes(), lv.tobytes(), d) for t, c, lv, d in got] == [
        (t.tobytes(), c.tobytes(), lv.tobytes(), d) for t, c, lv, d in want
    ]
    assert split == whole


def test_a_narrow_design_runs_in_process(own_helper):
    design_channel_optimized(5, uniform_bsc(5, 0.01))
    assert _helper() is None


def test_no_helper_beside_another_thread(own_helper):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert not quantizer_module._helper_can_run()
        design_channel_optimized(6, uniform_bsc(6, 0.01))
        assert _helper() is None
    finally:
        release.set()
        other.join(5.0)
    assert not other.is_alive()


@needs_helper
def test_the_helper_ends_with_its_process():
    # an exit hook registered before the import runs after the module's:
    # by then the process has reaped its helper
    code = (
        "import atexit, os\n"
        "def waited():\n"
        "    try:\n"
        "        os.waitpid(pid, os.WNOHANG)\n"
        "    except ChildProcessError:\n"
        "        print('reaped')\n"
        "atexit.register(waited)\n"
        "from quantlink import quantizer\n"
        "quantizer.design_channel_optimized(6, quantizer.uniform_bsc(6, 0.01))\n"
        "pid = quantizer._HELPERS[os.getpid()].pid\n"
        "print(pid)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    pid, reaped = done.stdout.split()
    assert reaped == "reaped"
    pid = int(pid)
    deadline = time.monotonic() + 2.0
    while _running(pid):
        assert time.monotonic() < deadline, f"helper {pid} outlived its process by 2 s"
        time.sleep(0.01)


@needs_helper
def test_a_forked_childs_exit_leaves_the_helper():
    # a child that exits through the interpreter runs the exit hooks it
    # inherited, which stop only a helper of its own
    code = (
        "import os, sys\n"
        "from quantlink import quantizer\n"
        "quantizer.design_channel_optimized(6, quantizer.uniform_bsc(6, 0.01))\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    sys.exit(0)\n"
        "os.waitpid(pid, 0)\n"
        "print(os.waitpid(quantizer._HELPERS[os.getpid()].pid, os.WNOHANG) == (0, 0))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


@needs_helper
def test_a_forked_child_designs_with_a_helper_of_its_own():
    flips = uniform_bsc(6, 0.01)
    want = _cell(design_channel_optimized(6, flips))
    parent_helper = _helper()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child reports and leaves at once, running none of pytest's exit code
        try:
            os.close(read)
            same = _cell(design_channel_optimized(6, flips)) == want
            own = _helper() is not None and _helper().pid != parent_helper.pid
            os.write(write, repr((same, own and _alive(_helper()))).encode())
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        report = fh.read()
    os.waitpid(pid, 0)
    assert report == b"(True, True)"
    # the child's exit leaves the parent's helper to the parent
    assert _helper() is parent_helper and _alive(parent_helper)
    assert _cell(design_channel_optimized(6, flips)) == want


@needs_helper
def test_a_design_after_the_helper_was_killed_returns_the_same_cell():
    flips = uniform_bsc(6, 0.02)
    want = _cell(design_channel_optimized(6, flips))
    killed = _helper()
    os.kill(killed.pid, signal.SIGKILL)
    os.waitpid(killed.pid, 0)
    assert _cell(design_channel_optimized(6, flips)) == want  # its half ran in process
    assert _helper() is None
    assert _cell(design_channel_optimized(6, flips)) == want  # on a new helper
    assert _helper() is not killed and _alive(_helper())


def _in_helper(monkeypatch, act):
    """Patch _alternate so that it calls act() in a helper forked under the patch, and nowhere else."""
    main, alternate = os.getpid(), quantizer_module._alternate

    def patched(*args):
        if os.getpid() != main:
            act()
        return alternate(*args)

    monkeypatch.setattr(quantizer_module, "_alternate", patched)


@needs_helper
def test_a_helper_that_dies_mid_design_leaves_its_half_to_the_process(own_helper, monkeypatch):
    flips = uniform_bsc(6, 0.03)
    want = _cell(design_channel_optimized(6, flips))
    _helper().discard()
    _in_helper(monkeypatch, lambda: os._exit(1))
    trace = []
    assert _cell(design_channel_optimized(6, flips, trace=trace)) == want
    assert _helper() is None
    monkeypatch.undo()
    want_trace = []
    design_channel_optimized(6, flips, trace=want_trace)
    assert trace == want_trace


@needs_helper
def test_an_error_in_the_helper_is_raised_by_the_design(own_helper, monkeypatch):
    def fail():
        raise ArithmeticError("in the helper")

    _in_helper(monkeypatch, fail)
    with pytest.raises(ArithmeticError, match="in the helper"):
        design_channel_optimized(6, uniform_bsc(6, 0.01))
    assert _alive(_helper())  # it reported the error and serves on


@needs_helper
def test_an_interrupt_between_send_and_receive_discards_the_helper(monkeypatch):
    flips = uniform_bsc(6, 0.04)
    want = _cell(design_channel_optimized(6, flips))
    sent = _helper()
    alternate = quantizer_module._alternate

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(quantizer_module, "_alternate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        design_channel_optimized(6, flips)
    monkeypatch.setattr(quantizer_module, "_alternate", alternate)
    # its reply to the interrupted design cannot answer the next one
    assert _helper() is None and not _running(sent.pid)
    assert _cell(design_channel_optimized(6, flips)) == want


def _design_in_worker(conn):
    q = design_channel_optimized(6, uniform_bsc(6, 0.01))
    conn.send((_cell(q), quantizer_module._HELPERS.get(os.getpid()) is None))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork here")
def test_a_daemonic_worker_designs_in_process(monkeypatch):
    # a pool's worker is a daemon, which multiprocessing forbids children
    import multiprocessing

    context = multiprocessing.get_context("fork")
    read, write = context.Pipe(duplex=False)
    worker = context.Process(target=_design_in_worker, args=(write,), daemon=True)
    worker.start()
    write.close()
    got, no_helper = read.recv()
    worker.join(10.0)
    assert worker.exitcode == 0
    assert no_helper
    monkeypatch.setattr(quantizer_module, "_helper_can_run", lambda: False)
    assert got == _cell(design_channel_optimized(6, uniform_bsc(6, 0.01)))


def test_a_cgroup_quota_below_two_cpus_keeps_the_design_in_process(own_helper, monkeypatch):
    monkeypatch.setattr(quantizer_module, "_cgroup_cpus", lambda: 1.5)
    assert not quantizer_module._helper_can_run()
    design_channel_optimized(6, uniform_bsc(6, 0.01))
    assert _helper() is None


def _write(folder: Path, **files):
    folder.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (folder / name.replace("_", ".", 1)).write_text(text)


@pytest.mark.parametrize(
    "proc, files, cpus",
    [
        # cgroup v2: the least quota over the cgroup and its ancestors
        ("0::/a/b\n", {"a/b": {"cpu_max": "max 100000\n"}, "a": {"cpu_max": "150000 100000\n"}}, 1.5),
        ("0::/a/b\n", {"a/b": {"cpu_max": "400000 100000\n"}, "": {"cpu_max": "200000 100000\n"}}, 2.0),
        ("0::/\n", {"": {"cpu_max": "max 100000\n"}}, math.inf),
        ("0::/\n", {}, math.inf),  # no cpu.max: no quota
        # cgroup v1, the cpu controller mounted under <mount>/cpu
        (
            "4:memory:/m\n1:cpu,cpuacct:/c\n",
            {"cpu/c": {"cpu_cfs_quota_us": "50000\n", "cpu_cfs_period_us": "100000\n"}},
            0.5,
        ),
        ("1:cpu:/\n", {"cpu": {"cpu_cfs_quota_us": "-1\n", "cpu_cfs_period_us": "100000\n"}}, math.inf),
    ],
    ids=["v2-parent", "v2-root", "v2-max", "v2-no-file", "v1-quota", "v1-none"],
)
def test_cgroup_cpus_reads_the_least_quota(tmp_path, proc, files, cpus):
    (tmp_path / "cgroup").write_text(proc)
    for folder, contents in files.items():
        _write(tmp_path / "fs" / folder, **contents)
    (tmp_path / "fs").mkdir(exist_ok=True)
    assert quantizer_module._cgroup_cpus.__wrapped__(str(tmp_path / "cgroup"), str(tmp_path / "fs")) == cpus


def test_cgroup_cpus_without_a_cgroup_file_sets_no_limit(tmp_path):
    assert quantizer_module._cgroup_cpus.__wrapped__(str(tmp_path / "none"), str(tmp_path)) == math.inf
