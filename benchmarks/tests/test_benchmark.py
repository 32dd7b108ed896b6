"""Tests for the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import END, NAME, PARENT, START, Tracer, install, self_times  # noqa: E402

TINY = workloads.Sizes(
    b_max=3,
    design_pairs=2,
    block_reps=1,
    latents=(64, 256),
    link_calls=1,
    link_latents=128,
    frames_per_realization=4,
)
DETERMINISTIC = {
    "design-grid": ("columns", "epsilons", "design_gain_db"),
    "plan-blocks": ("mean_t_sym",),
    "link-frames": ("distortion_ratio", "mean_t_sym"),
}
COUNTERS = ("allocator.loading.steps", "allocator.refine.rounds", "simulator.bits_sent") + tuple(
    f"quantizer.iters.b{b}" for b in range(1, 4)
)


def _wrapped_attributes():
    """Every quantlink function or method still carrying a benchmark wrapper."""
    found = []
    mods = [m for n, m in sys.modules.items() if n.startswith("quantlink.")]
    owners = mods + [sys.modules["quantlink.library"].QuantizerLibrary]
    for owner in owners:
        for attr, value in vars(owner).items():
            if getattr(value, "benchmark_wrapper", False):
                found.append(f"{owner.__name__}.{attr}")
    return found


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_records_layers_and_restores_wrappers(name, tmp_path):
    tracer = Tracer()
    res = workloads.run_pass(name, 3, tmp_path, TINY, tracer=tracer)
    names = {s[NAME] for s in tracer.spans}
    expected = {
        "design-grid": {"library.build", "quantizer.design.b3", "gaussian.interval_moments"},
        "plan-blocks": {"allocator.optimize_plan", "allocator.loading", "library.digest"},
        "link-frames": {"simulator.run_trial", "channel.transmit", "modem.demodulate"},
    }[name]
    assert expected <= names
    assert "library.load" in names or name == "design-grid"
    assert res.failed == 0 and res.attempted >= 1
    assert _wrapped_attributes() == []


def test_installer_restores_every_original():
    ql = workloads.fresh_import()
    inst = install(Tracer(), ql)
    saved = list(inst._saved)
    assert saved and all(getattr(owner, attr) is not fn for owner, attr, fn in saved)
    inst.restore()
    assert all(getattr(owner, attr) is fn for owner, attr, fn in saved)
    assert _wrapped_attributes() == []


def test_untraced_wrappers_record_nothing_outside_an_operation():
    ql = workloads.fresh_import()
    tracer = Tracer()
    inst = install(tracer, ql)
    try:
        ql["gaussian"].interval_moments([0.0], [1.0])
        ql["quantizer"].interval_moments([0.0], [1.0])
        assert tracer.spans == []
        with tracer.op("probe"):
            ql["quantizer"].interval_moments([0.0], [1.0])
        assert [s[NAME] for s in tracer.spans] == ["bench.probe", "gaussian.interval_moments"]
    finally:
        inst.restore()


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("b.child", 6.0, 7.0, 2),
        _span("overlap", 20.0, 30.0, -1),
        _span("x", 21.0, 25.0, 4),
        _span("y", 23.0, 27.0, 4),  # overlaps x: the union 21..27 counts once
        _span("z", 29.0, 32.0, 4),  # runs past its parent: only 29..30 counts
    ]
    got = self_times(spans)
    assert got == pytest.approx([3.0, 3.0, 3.0, 1.0, 3.0, 4.0, 4.0, 3.0])
    # self times of one tree add up to its root's duration
    assert sum(got[:4]) == pytest.approx(spans[0][END] - spans[0][START])


def test_tracer_nests_spans_and_assigns_op_ids():
    tracer = Tracer()
    with tracer.op("block"):
        a = tracer.enter("outer")
        b = tracer.enter("inner")
        tracer.exit(b)
        tracer.exit(a)
    with tracer.op("block"):
        pass
    parents = [s[PARENT] for s in tracer.spans]
    ops = [s[4] for s in tracer.spans]
    assert parents == [-1, 0, 1, -1]
    assert ops == [0, 0, 0, 1]
    assert all(s[END] >= s[START] for s in tracer.spans)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_deterministic_outputs_repeat_for_a_seed(name, tmp_path):
    runs = []
    for _ in range(2):
        tracer = Tracer()
        res = workloads.run_pass(name, 5, tmp_path, TINY, tracer=tracer)
        runs.append((res, {k: tracer.counters.get(k, 0.0) for k in COUNTERS}))
    (a, ca), (b, cb) = runs
    for key in DETERMINISTIC[name]:
        assert a.report[key] == b.report[key], key
    assert ca == cb
    assert a.ops == b.ops and a.attempted == b.attempted


def test_a_different_seed_changes_the_inputs(tmp_path):
    assert workloads.design_columns(1, 5) != workloads.design_columns(2, 5)
    assert workloads.experiment_seed(1, 0) != workloads.experiment_seed(2, 0)
    ql = workloads.fresh_import()
    one, two = (workloads.setup_plan(ql, seed, TINY, tmp_path)["sources"] for seed in (1, 2))
    assert all((a.variances != b.variances).any() for a, b in zip(one, two))


def test_reference_probe_samples_during_the_work_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)

    def busy():
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            sum(range(1000))
        return "done"

    probe = workloads.ReferenceProbe()
    result, ref = probe.run(busy)
    assert result == "done"
    assert len(probe.samples) >= 2 + 3  # before, after, and ticks during
    assert ref == pytest.approx(sum(probe.samples) / len(probe.samples))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_timed_pass_gives_every_item_a_cost(tmp_path):
    res = workloads.run_pass("link-frames", 0, tmp_path, TINY, seconds=0.01)
    assert res.rounds == workloads.MIN_ROUNDS
    assert len(res.best_cost) == len(res.best_s) == 3 * TINY.link_calls
    assert all(0 < c < math.inf for c in res.best_cost + res.setup_cost)
    assert len(res.setup_cost) == workloads.SETUP_REPEATS
    assert res.attempted == res.rounds * res.ops


def test_design_columns_take_one_target_from_each_pair():
    for seed in range(20):
        cols = workloads.design_columns(seed, 5)
        assert sorted(c // 2 for c in cols) == [0, 1, 2, 3, 4]


def test_an_injected_bad_plan_is_counted_as_failed(tmp_path, monkeypatch):
    real_import = workloads.fresh_import
    bad_blocks = {1, 4}
    calls = []

    def corrupting_import():
        ql = real_import()
        optimize = ql["allocator"].optimize_plan

        def bad_optimize(*args, **kwargs):
            plan = optimize(*args, **kwargs)
            if len(calls) in bad_blocks:
                plan.powers = plan.powers * 2.0  # over the power budget
            calls.append(1)
            return plan

        ql["allocator"].optimize_plan = bad_optimize
        return ql

    monkeypatch.setattr(workloads, "fresh_import", corrupting_import)
    res = workloads.run_pass("plan-blocks", 0, tmp_path, TINY)
    assert res.attempted == 12 * TINY.block_reps
    assert res.failed == len(bad_blocks)
    assert any("power" in f for f in res.failures)


def test_check_plan_flags_a_missed_distortion_bound():
    ql = workloads.fresh_import()
    lib = workloads.load_fixture(ql)
    sim, chan = ql["simulator"], ql["channel"]
    stats = sim.draw_stats(sim.SyntheticSourceConfig(n_latents=64), ql["library"].sigma_max(lib),
                           workloads._rng(0, 9))
    realization = chan.realize_channel(chan.parse_profile_ref("tdl-c"), 512, 30e3, seed=0)
    p_tot = 512 * 10.0
    plan = ql["allocator"].optimize_plan(lib, stats, realization, p_tot)
    assert workloads.check_plan(ql, plan, lib, stats, p_tot) == []
    plan.bits = plan.bits.copy()
    worst = int(stats.variances.argmax())
    plan.bits[worst] = 1
    failures = workloads.check_plan(ql, plan, lib, stats, p_tot)
    assert any("distortion" in f for f in failures)


def test_main_exits_nonzero_when_a_check_fails(monkeypatch, capsys):
    def failing_pass(*args, **kwargs):
        return workloads.PassResult(
            setup_s=[0.1], setup_cost=[300.0], best_s=[0.2], best_cost=[600.0], attempted=1, failed=1, failures=["injected"]
        )

    monkeypatch.setattr(workloads, "run_pass", failing_pass)
    assert run.main(["--workload", "plan-blocks", "--seed", "0", "--seconds", "1"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": false' in last and '"failed": 1' in last


def test_fixture_digest_mismatch_refuses_to_run(tmp_path, monkeypatch):
    wrong = tmp_path / "digest"
    wrong.write_text("0" * 64 + "  default_library.json\n", encoding="utf-8")
    monkeypatch.setattr(workloads, "FIXTURE_SHA256", wrong)
    with pytest.raises(workloads.FixtureError):
        workloads.load_fixture(workloads.fresh_import())


def test_without_the_source_tree_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "plan-blocks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
