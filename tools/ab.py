#!/usr/bin/env python3
"""Time one workload on two source trees in one process, and check that both give the same bytes.

    python3 tools/ab.py --workload sweep --parent ../parent --change . --rounds 10 --trials 200
    python3 tools/ab.py --workload plan --parent ../parent --change . --seed 7 --rounds 12
    python3 tools/ab.py --workload design --parent ../parent --change . --seed 3 --rounds 4

Each tree's `src/quantlink` is imported as a package of its own
(`quantlink_parent`, `quantlink_change`), and each side builds its items
with its own modules from the change tree's inputs, its
`benchmarks/workloads.py` and its library fixture:

  sweep   the `simulate` config of README.md, with `trials` set by --trials
          (default 200, the README's); a round times one run_experiment
          call, and its bytes are the report.csv text
  plan    the 48 plan-blocks blocks of --seed (setup_plan, plan_batch), each
          planned once before the rounds, so each source's and channel's
          rating is kept as after a benchmark run's first round; a round
          plans every block on its own channel, then on a fresh
          dataclasses.replace copy of it made before the timing starts,
          which has to be rated again; its figures are the median
          optimize_plan call of each kind, its bytes every serialize_plan text
  design  the design-grid columns of --seed (setup_design, design_batch); a
          round times build_library(b_max, [grid[qi]]) for every column; its
          figures are the round's total and its median column (what the
          benchmark's op_ms_p50 reads), its bytes each column's
          serialize_library text

A round runs once per side: the parent first on even rounds, the change
first on odd ones, so a slow phase of a shared host hits both alike. The
script prints every round, then for each figure each side's median and
quartiles and the rounds the change wins. It exits 1 when a side's bytes
differ from the parent's in round 0, naming the round, the side and the
items, and 0 otherwise. It only reads the two trees.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import json
import re
import statistics
import sys
import tempfile
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


def sweep_side(ql: dict, workloads, args) -> dict:
    """The ExperimentConfig of the README's `simulate` config, as `simulate` builds it, and the fixture."""
    simulator, doc = ql["simulator"], {**readme_config(args.change), "trials": args.trials}
    settings = {k: v for k, v in doc.items() if k not in ("library", "source", "profile")}
    if "profile" in doc:
        settings["profile_ref"] = doc["profile"]
    cfg = simulator.ExperimentConfig(source=simulator.SyntheticSourceConfig(**doc.get("source", {})), **settings)
    return {"ql": ql, "lib": workloads.load_fixture(ql), "cfg": cfg}


def sweep_round(side: dict) -> tuple[list, dict]:
    simulator = side["ql"]["simulator"]
    start = time.perf_counter()
    reports = simulator.run_experiment(side["cfg"], side["lib"])
    seconds = time.perf_counter() - start
    return [seconds], {"report.csv": simulator.report_rows_to_csv(reports)}


def plan_side(ql: dict, workloads, args) -> dict:
    sizes = workloads.Sizes()
    state = workloads.setup_plan(ql, args.seed, sizes, None)
    blocks = workloads.plan_batch(ql, state, sizes)
    for stats, realization, p_tot in blocks:  # the untimed first plans keep every rating
        ql["allocator"].optimize_plan(state["lib"], stats, realization, p_tot)
    return {"ql": ql, "lib": state["lib"], "blocks": blocks}


def plan_round(side: dict) -> tuple[list, dict]:
    allocator = side["ql"]["allocator"]
    figures, texts = [], {}
    for kind in ("own", "fresh"):
        blocks = [(s, dataclasses.replace(ch) if kind == "fresh" else ch, p) for s, ch, p in side["blocks"]]
        seconds, plans = [], []
        gc.collect()
        for stats, realization, p_tot in blocks:
            start = time.perf_counter()
            plans.append(allocator.optimize_plan(side["lib"], stats, realization, p_tot))
            seconds.append(time.perf_counter() - start)
        figures.append(statistics.median(seconds))
        texts.update({f"block {k} {kind}": allocator.serialize_plan(plan) for k, plan in enumerate(plans)})
    return figures, texts


def design_side(ql: dict, workloads, args) -> dict:
    sizes = workloads.Sizes()
    # setup_design only makes sure its output directory exists; nothing is written there
    state = workloads.setup_design(ql, args.seed, sizes, Path(tempfile.gettempdir()))
    columns = [(qi, state["grid"][qi]) for qi in workloads.design_batch(ql, state, sizes)]
    return {"ql": ql, "b_max": sizes.b_max, "columns": columns}


def design_round(side: dict) -> tuple[list, dict]:
    library = side["ql"]["library"]
    seconds, texts = [], {}
    for qi, eps in side["columns"]:
        start = time.perf_counter()
        lib = library.build_library(side["b_max"], [eps])
        seconds.append(time.perf_counter() - start)
        texts[f"column {qi}"] = library.serialize_library(lib)
    return [sum(seconds), statistics.median(seconds)], texts


# per workload: how a side is built, how one round runs (its figures and its
# bytes per item), and each figure's (label, unit, scale, decimals)
WORKLOADS = {
    "sweep": (sweep_side, sweep_round, [("", "s", 1.0, 4)]),
    "plan": (plan_side, plan_round, [("", "us", 1e6, 1), (" on fresh channels", "us", 1e6, 1)]),
    "design": (design_side, design_round, [("", "s", 1.0, 3), (" median column", "ms", 1e3, 1)]),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7, help="the benchmark seed of the plan and design items")
    parser.add_argument("--trials", type=int, default=200, help="the sweep's trials per SNR point")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sys.path.insert(0, str(args.change / "benchmarks"))
    import workloads

    build, run, figures = WORKLOADS[args.workload]
    sides = {name: build(load_package(getattr(args, name), f"quantlink_{name}"), workloads, args) for name in SIDES}
    seconds = {name: [] for name in SIDES}  # per side, one list of figures per round
    reference = None  # the parent's bytes of round 0, which it runs first
    for r in range(args.rounds):
        for name in SIDES if r % 2 == 0 else SIDES[::-1]:
            gc.collect()
            got, texts = run(sides[name])
            reference = texts if reference is None else reference
            differ = [item for item in reference if texts.get(item) != reference[item]]
            if differ:
                print(f"round {r} {name}: bytes differ from the parent's in {', '.join(differ)}", file=sys.stderr)
                return 1
            seconds[name].append(got)
            shown = [f"{v * scale:.{d}f} {unit}{label}" for v, (label, unit, scale, d) in zip(got, figures)]
            print(f"round {r} {name}: {', '.join(shown)}", flush=True)
    for f, (label, unit, scale, d) in enumerate(figures):
        per_side = {name: [got[f] for got in seconds[name]] for name in SIDES}
        for name in SIDES:
            q1, median, q3 = np.percentile(per_side[name], [25, 50, 75]) * scale
            print(f"{name}{label}: median {median:.{d}f} {unit}, quartiles {q1:.{d}f} .. {q3:.{d}f} {unit}")
        wins = sum(c < p for p, c in zip(per_side["parent"], per_side["change"]))
        print(f"change faster{label} in {wins}/{args.rounds} rounds")
    print(f"{args.workload} bytes the same on both sides in every round")
    return 0


if __name__ == "__main__":
    sys.exit(main())
