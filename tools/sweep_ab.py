#!/usr/bin/env python3
"""Time run_experiment on the README sweep for two source trees in one process.

Each tree's `src/quantlink` is imported as a package of its own
(`quantlink_parent`, `quantlink_change`), and each loads its own
`benchmarks/default_library.json`. A round runs the sweep once per side; the
side that goes first alternates from round to round, so a slow phase of a
shared host hits both alike. Only the `run_experiment` call is timed.

    python3 tools/sweep_ab.py --parent ../parent --change . --rounds 10

The config is the `simulate` JSON block of the change tree's README.md, with
`trials` set by --trials (default 200, the README's). The script prints every
run, each side's median and quartiles, and the rounds the change wins. It
exits 1 when a run's `report.csv` text differs from the parent's first one,
and 0 otherwise. It only reads the two trees.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def load_package(tree: Path, name: str) -> dict:
    """Import tree/src/quantlink as the package `name`; its modules by short name ("simulator", ...)."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    root = tree / "src" / "quantlink"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {key[len(name) + 1:]: module for key, module in sys.modules.items() if key.startswith(name + ".")}


def readme_config(tree: Path) -> dict:
    """The `simulate` config block of tree/README.md."""
    text = (tree / "README.md").read_text(encoding="utf-8")
    block = re.search(r"`simulate` expects a JSON config:\s*```json\n(.*?)```", text, re.S)
    return json.loads(block.group(1))


def experiment(simulator, doc: dict):
    """The ExperimentConfig of a `simulate` config document, as `simulate` builds it."""
    settings = {k: v for k, v in doc.items() if k not in ("library", "source", "profile")}
    if "profile" in doc:
        settings["profile_ref"] = doc["profile"]
    return simulator.ExperimentConfig(source=simulator.SyntheticSourceConfig(**doc.get("source", {})), **settings)


def run_once(side: dict) -> tuple[float, str]:
    """Seconds of one run_experiment call, and its report.csv text."""
    simulator = side["simulator"]
    gc.collect()
    start = time.perf_counter()
    reports = simulator.run_experiment(side["cfg"], side["lib"])
    seconds = time.perf_counter() - start
    return seconds, simulator.report_rows_to_csv(reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--trials", type=int, default=200)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    doc = {**readme_config(args.change), "trials": args.trials}
    sides = {}
    for name in SIDES:
        tree = getattr(args, name)
        ql = load_package(tree, f"quantlink_{name}")
        lib = ql["library"].load_library(tree / "benchmarks" / "default_library.json")
        sides[name] = {**ql, "lib": lib, "cfg": experiment(ql["simulator"], doc)}

    seconds = {name: [] for name in SIDES}
    reference = None  # the parent's first report.csv: round 0 runs the parent first
    for r in range(args.rounds):
        for name in SIDES if r % 2 == 0 else SIDES[::-1]:
            s, text = run_once(sides[name])
            seconds[name].append(s)
            reference = text if reference is None else reference
            if text != reference:
                print(f"round {r} {name}: report.csv differs from the parent's", file=sys.stderr)
                return 1
            print(f"round {r} {name}: {s:.4f} s", flush=True)
    for name in SIDES:
        q1, median, q3 = np.percentile(seconds[name], [25, 50, 75])
        print(f"{name}: median {median:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s")
    wins = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    print(f"change faster in {wins}/{args.rounds} rounds; report.csv the same on both sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())
