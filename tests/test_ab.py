import functools
import importlib.util
import json
import re
import shutil
from pathlib import Path
from types import SimpleNamespace

import pytest

from quantlink import cli, simulator

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab.py"


def _tool():
    spec = importlib.util.spec_from_file_location("ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(workload, parent, change, *extra):
    return _tool().main(["--workload", workload, "--parent", str(parent), "--change", str(change), *extra])


def _copy(tmp_path, module, old, new):
    """A copy of this checkout's sources, README and benchmarks, with `old` replaced by `new` in `module`."""
    other = tmp_path / "other"
    ignore = shutil.ignore_patterns("__pycache__", "tests")
    shutil.copytree(ROOT / "src", other / "src", ignore=ignore)
    shutil.copytree(ROOT / "benchmarks", other / "benchmarks", ignore=ignore)
    shutil.copy2(ROOT / "README.md", other)
    path = other / "src" / "quantlink" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    return other


@pytest.fixture
def small_design(monkeypatch):
    """The design workload at two columns of depths 1..2, so a round builds in well under a second."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import workloads

    monkeypatch.setattr(workloads, "Sizes", functools.partial(workloads.Sizes, b_max=2, design_pairs=2))


def test_sweep_runs_this_checkout_as_both_sides(capsys):
    assert _run("sweep", ROOT, ROOT, "--rounds", "1", "--trials", "2") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 6
    assert [line.split(":")[0] for line in out[:4]] == ["round 0 parent", "round 0 change", "parent", "change"]
    assert all(line.endswith(" s") for line in out[:4])
    assert out[4].startswith("change faster in ") and out[4].endswith("/1 rounds")
    assert out[5] == "sweep bytes the same on both sides in every round"


@pytest.mark.parametrize(
    "edit",
    [
        {},  # the README's block, every value a default
        {  # every value off its default, so a key the tool dropped or misread shows
            "source": {"n_latents": 16, "seed": 2},
            "profile": "tdl-c",
            "snr_db": [7.0],
            "trials": 3,
            "frames_per_realization": 2,
            "n_sc": 64,
            "spacing_hz": 15000.0,
            "delta": 0.3,
            "seed": 5,
        },
    ],
)
def test_sweep_builds_the_config_that_simulate_builds(edit, tmp_path, monkeypatch, capsys):
    # the tool maps the README's `simulate` config itself (`profile` sets
    # profile_ref, `library` and `source` are read apart), so check it against the CLI's
    ab = _tool()
    doc = {**ab.readme_config(ROOT), **edit}
    readme = f"`simulate` expects a JSON config:\n\n```json\n{json.dumps(doc, indent=2)}\n```\n"
    (tmp_path / "README.md").write_text(readme, encoding="utf-8")
    args = SimpleNamespace(change=tmp_path, trials=doc["trials"])
    side = ab.sweep_side({"simulator": simulator}, SimpleNamespace(load_fixture=lambda ql: None), args)

    seen = []
    monkeypatch.setattr(cli.sim, "run_experiment", lambda cfg, lib, keep_trials: seen.append(cfg) or [])
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**doc, "library": str(ROOT / "benchmarks" / "default_library.json")}))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 0
    (cfg,) = seen
    assert side["cfg"].digest() == cfg.digest()
    assert side["cfg"].profile_ref == doc["profile"]


def test_sweep_exits_1_when_the_reports_differ(tmp_path, capsys):
    # a copy whose version string differs writes another version column
    other = _copy(tmp_path, "_version.py", "__version__ = ", '__version__ = "0.0.0"  # ')
    assert _run("sweep", ROOT, other, "--rounds", "1", "--trials", "1") == 1
    assert "round 0 change: bytes differ from the parent's in report.csv" in capsys.readouterr().err


def test_plan_runs_this_checkout_as_both_sides(capsys):
    assert _run("plan", ROOT, ROOT, "--rounds", "2", "--seed", "3") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 11
    assert [line.split(":")[0] for line in out[:6]] == [
        "round 0 parent", "round 0 change", "round 1 change", "round 1 parent", "parent", "change"
    ]
    assert all(line.endswith(" us on fresh channels") for line in out[:4])
    assert out[6].startswith("change faster in ") and out[6].endswith("/2 rounds")
    # the plans on fresh copies of the channels, timed apart
    assert [line.split(":")[0] for line in out[7:9]] == ["parent on fresh channels", "change on fresh channels"]
    assert all(" median " in line and " quartiles " in line for line in out[4:6] + out[7:9])
    assert out[9].startswith("change faster on fresh channels in ") and out[9].endswith("/2 rounds")
    assert out[10] == "plan bytes the same on both sides in every round"


def test_plan_exits_1_when_a_plan_differs(tmp_path, capsys):
    # a copy whose selection sends one OFDM symbol more pads every plan with dummies
    t_sym = "math.ceil(b_lat[best] / r_sym[best])"
    other = _copy(tmp_path, "allocator.py", t_sym, t_sym + " + 1")
    assert _run("plan", ROOT, other, "--rounds", "1", "--seed", "3") == 1
    err = capsys.readouterr().err
    assert err.startswith("round 0 change: bytes differ from the parent's in block 0 own, ")
    assert "block 47 fresh" in err


def test_design_runs_this_checkout_as_both_sides(small_design, capsys):
    assert _run("design", ROOT, ROOT, "--rounds", "1", "--seed", "3") == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 12
    assert [line.split(":")[0] for line in out[:4]] == ["round 0 parent", "round 0 change", "parent", "change"]
    # each round shows its total, its median column, which op_ms_p50 reads,
    # and this process's CPU time, which a helper process's work is not in
    assert all(
        re.fullmatch(r"round 0 \w+: \d+\.\d{3} s, \d+\.\d ms median column, \d+\.\d{3} s main-process CPU", line)
        for line in out[:2]
    )
    assert out[4].startswith("change faster in ") and out[4].endswith("/1 rounds")
    assert [line.split(":")[0] for line in out[5:7]] == ["parent median column", "change median column"]
    assert all(" median " in line and line.endswith(" ms") for line in out[5:7])
    assert out[7].startswith("change faster median column in ") and out[7].endswith("/1 rounds")
    assert [line.split(":")[0] for line in out[8:10]] == ["parent main-process CPU", "change main-process CPU"]
    assert all(" median " in line and line.endswith(" s") for line in out[8:10])
    assert out[10].startswith("change faster main-process CPU in ") and out[10].endswith("/1 rounds")
    assert out[11] == "design bytes the same on both sides in every round"


def test_design_round_gives_the_total_and_the_median_column(monkeypatch):
    # three columns that take 0.5, 0.125 and 0.25 s on a fake clock, and 0.25,
    # 0.0625 and 0.125 s of this process's CPU
    clock = iter([0.0, 0.5, 1.0, 1.125, 2.0, 2.25])
    cpu = iter([0.0, 0.25, 1.0, 1.0625, 2.0, 2.125])
    library = SimpleNamespace(build_library=lambda b_max, grid: grid[0], serialize_library=str)
    ab = _tool()
    monkeypatch.setattr(ab.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(ab.time, "process_time", lambda: next(cpu))
    side = {"ql": {"library": library}, "b_max": 8, "columns": [(0, 0.001), (3, 0.01), (9, 0.05)]}
    figures, texts = ab.design_round(side)
    assert figures == [0.875, 0.25, 0.4375]
    assert texts == {"column 0": "0.001", "column 3": "0.01", "column 9": "0.05"}


def test_design_exits_1_when_a_column_differs(small_design, tmp_path, capsys):
    # a copy whose default design seed differs writes another design record, whatever the cells
    other = _copy(tmp_path, "quantizer.py", "    seed: int = 0\n", "    seed: int = 1\n")
    assert _run("design", ROOT, other, "--rounds", "1", "--seed", "3") == 1
    # seed 3 draws targets 1 and 2 of the first two pairs
    assert "round 0 change: bytes differ from the parent's in column 1, column 2" in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["sweep", "plan", "design"])
def test_rounds_below_1_exit_2(workload, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(workload, ROOT, ROOT, "--rounds", "0")
    assert exc.value.code == 2
    assert "--rounds must be at least 1" in capsys.readouterr().err


def test_an_unknown_workload_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        _run("frames", ROOT, ROOT)
    assert exc.value.code == 2
    assert "invalid choice: 'frames'" in capsys.readouterr().err
