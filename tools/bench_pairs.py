#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two source trees and summarize them.

Each pair runs `benchmarks/run.py` once in the parent tree and once in the
change tree, on the same seed. The parent goes first on even pairs and second
on odd ones, so a slow phase of a shared host hits both sides alike. Every
run, each side's median and quartiles of every end-to-end metric, and the
number of pairs the change wins per metric go to BENCH_<workload>.json, under
`summary`. The same figures of the run block's wall-clock timings
(wall_op_ms_p50, wall_ops_per_s, wall_setup_s) go under `wall_summary`, so a
pair whose metric moved with its probe pass alone, and not with the wall
clock, can be told from a real change.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload design-grid --seeds 101 102 103 --seconds 24

A metric's direction ("better": "lower" or "higher") and its bound come from
the change tree's BENCHMARK.json. Both trees must hold `benchmarks/run.py`
and `src/quantlink`; the script only reads them. It copies each tree's
`src/`, `benchmarks/` and `BENCHMARK.json` the same way into a fresh
temporary directory, `<tmp>/parent` and `<tmp>/change` (paths of equal
length), and runs the benchmark there, so where a tree lives cannot tell the
two sides apart. The copies' paths go into the JSON, relative to $TMPDIR;
the copies are deleted at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

COPIED = ("src", "benchmarks", "BENCHMARK.json")
# the run block's wall-clock figures and their directions
WALL = {"wall_op_ms_p50": "lower", "wall_ops_per_s": "higher", "wall_setup_s": "lower"}


def fresh_copy(tree: Path, dest: Path) -> Path:
    """Copy what the benchmark reads from `tree` into the new directory `dest`."""
    dest.mkdir()
    for name in COPIED:
        source = tree / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
        else:
            shutil.copy2(source, dest / name)
    return dest


def shown(path: Path) -> str:
    """A copy's path, with the host's temporary-files directory written $TMPDIR."""
    return str(Path("$TMPDIR") / path.relative_to(tempfile.gettempdir()))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`; its description and its result line."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit(f"benchmark could not run in {tree}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    described = [json.loads(x) for x in lines[:-1] if x.startswith('{"run"')]
    return {
        "exit_code": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "run": described[0]["run"] if described else None,
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], directions: dict[str, str], block: str = "metrics") -> dict:
    """Per figure of each run's `block`: each side's quartiles, the change's wins and its median gain."""
    out = {}
    for name, better in directions.items():
        parent = [p["parent"][block][name] for p in pairs]
        change = [p["change"][block][name] for p in pairs]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        side = {"parent": quartiles(parent), "change": quartiles(change)}
        gain = sign * (side["change"]["median"] - side["parent"]["median"])
        iqr = side["parent"]["q3"] - side["parent"]["q1"]
        out[name] = {
            "better": better,
            **side,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_gain": gain,
            "median_gain_over_parent_iqr": gain / iqr if iqr else None,
            "relative_change": (side["change"]["median"] - side["parent"]["median"]) / side["parent"]["median"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--parent-label", default="parent", help="recorded as is, e.g. a commit id")
    parser.add_argument("--change-label", default="change", help="recorded as is, e.g. a commit id")
    parser.add_argument("--out", type=Path, default=None, help="default: BENCH_<workload>.json")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two pairs")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # "parent" and "change" have the same length, so the copies' paths do too
        trees = {side: fresh_copy(getattr(args, side), Path(tmp) / side) for side in ("parent", "change")}
        pairs = run_pairs(trees, args)
    doc = {
        "workload": args.workload,
        "command": f"benchmarks/run.py --workload {args.workload} --seed <seed> "
                   f"--seconds {args.seconds:g} --trace 0",
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "labels": {"parent": args.parent_label, "change": args.change_label},
        "copies": {side: shown(path) for side, path in trees.items()},
        "bounds": bounds,
        "failed_operations": {side: sum(p[side]["failed"] for p in pairs) for side in trees},
        "summary": summarize(pairs, directions),
        "wall_summary": wall_summary(pairs),
        "pairs": pairs,
    }
    out = args.out or Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, s in {**doc["summary"], **(doc["wall_summary"] or {})}.items():
        print(f"{name}: parent {s['parent']['median']:.4g} -> change {s['change']['median']:.4g} "
              f"({s['relative_change']:+.1%}), change wins {s['change_wins']}/{s['pairs']}")
    return 0


def wall_summary(pairs: list[dict]) -> dict | None:
    """summarize() of the run block's wall figures, over the pairs whose two runs both printed one; None if under two."""
    described = [p for p in pairs if p["parent"]["run"] and p["change"]["run"]]
    return summarize(described, WALL, "run") if len(described) >= 2 else None


def run_pairs(trees: dict[str, Path], args) -> list[dict]:
    """One pair per seed, the side that goes first alternating."""
    pairs = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"pair": i, "seed": seed, "order": list(order)}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed, args.seconds)
            metrics = {k: round(v, 4) for k, v in pair[side]["metrics"].items()}
            print(f"pair {i} seed {seed} {side}: {metrics}", file=sys.stderr, flush=True)
        pairs.append(pair)
    return pairs


if __name__ == "__main__":
    sys.exit(main())
