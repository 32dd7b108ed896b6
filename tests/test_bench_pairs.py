import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_run(side, seed):
    """A run's record as run_once returns it: the change is faster by its wall clock, not by its metrics."""
    faster = side == "change"
    wall_ms = (1.0 if faster else 1.5) + 0.01 * seed
    return {
        "exit_code": 0,
        "correct": True,
        "attempted": 48,
        "failed": 0,
        "metrics": {"setup_s": 0.05, "peak_rss_mb": 40.0, "op_ms_p50": 0.02 + 0.001 * seed, "ops_per_s": 50.0},
        "run": {
            "wall_op_ms_p50": wall_ms,
            "wall_ops_per_s": 1e3 / wall_ms,
            "wall_setup_s": 0.05 + (0.001 if faster else 0.0),
        },
    }


def test_wall_figures_are_summarized_apart_and_summary_keeps_its_form(tmp_path, monkeypatch):
    tool = _tool()
    monkeypatch.setattr(tool, "run_once", lambda tree, workload, seed, seconds: _fake_run(tree.name, seed))
    out = tmp_path / "bench.json"
    seeds = [str(s) for s in range(1, 7)]
    assert tool.main(["--parent", str(ROOT), "--change", str(ROOT), "--workload", "plan-blocks",
                      "--seeds", *seeds, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    # summary holds the end-to-end metrics alone, as before
    assert doc["summary"] == json.loads(json.dumps(tool.summarize(doc["pairs"], directions)))
    assert set(doc["summary"]) == set(directions)
    assert doc["summary"]["op_ms_p50"]["change_wins"] == 0
    wall = doc["wall_summary"]
    assert set(wall) == {"wall_op_ms_p50", "wall_ops_per_s", "wall_setup_s"}
    assert wall["wall_op_ms_p50"]["change_wins"] == wall["wall_ops_per_s"]["change_wins"] == 6
    assert wall["wall_setup_s"]["change_wins"] == 0 and wall["wall_setup_s"]["better"] == "lower"
    assert wall["wall_op_ms_p50"]["parent"]["median"] == pytest.approx(1.535)
    assert wall["wall_op_ms_p50"]["change"]["median"] == pytest.approx(1.035)
    assert wall["wall_op_ms_p50"]["pairs"] == 6


def test_wall_summary_needs_two_described_pairs():
    tool = _tool()
    pairs = [{side: _fake_run(side, seed) for side in ("parent", "change")} for seed in (1, 2, 3)]
    pairs[0]["parent"]["run"] = None
    assert tool.wall_summary(pairs)["wall_op_ms_p50"]["pairs"] == 2
    pairs[1]["change"]["run"] = None
    assert tool.wall_summary(pairs) is None
