#!/usr/bin/env python3
"""Time optimize_plan on the plan-blocks blocks for two source trees in one process.

Each tree's `src/quantlink` is imported as a package of its own
(`quantlink_parent`, `quantlink_change`, by `sweep_ab.load_package`), and
each side builds the 48 blocks of one `plan-blocks` seed with its own
modules, as `benchmarks/workloads.py` of the change tree builds them: the
fixture library, the two sources and one channel per block. A round plans
every block once per side; the side that goes first alternates from round
to round, so a slow phase of a shared host hits both alike. A round's figure
is the median wall time of one `optimize_plan` call over its blocks. Round 0
is not timed: it leaves each source's rating kept, as a benchmark
run's first round does.

    python3 tools/plan_ab.py --parent ../parent --change . --seed 7 --rounds 12

The script prints every round, each side's median and quartiles, and the
rounds the change wins. It exits 1 when a plan's `serialize_plan` text
differs from the parent's plan of the same block, and 0 otherwise. It only
reads the two trees. A parent tree whose `channel.tdl_c_profile` reads its
data as the package `quantlink` finds it only with that tree's `src` on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from sweep_ab import SIDES, load_package  # noqa: E402


def side_state(workloads, tree: Path, name: str, seed: int) -> dict:
    """The side's modules and the plan-blocks state and blocks of `seed`, built with them."""
    ql = load_package(tree, f"quantlink_{name}")
    sizes = workloads.Sizes()
    state = workloads.setup_plan(ql, seed, sizes, None)
    return {"ql": ql, "lib": state["lib"], "blocks": workloads.plan_batch(ql, state, sizes)}


def run_round(side: dict) -> tuple[float, list[str]]:
    """The median seconds of one optimize_plan call over the blocks, and every plan's text."""
    allocator = side["ql"]["allocator"]
    seconds, plans = [], []
    gc.collect()
    for stats, realization, p_tot in side["blocks"]:
        start = time.perf_counter()
        plan = allocator.optimize_plan(side["lib"], stats, realization, p_tot)
        seconds.append(time.perf_counter() - start)
        plans.append(plan)
    return statistics.median(seconds), [allocator.serialize_plan(plan) for plan in plans]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="source tree of the change")
    parser.add_argument("--seed", type=int, default=7, help="the plan-blocks seed of the blocks")
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sys.path.insert(0, str(args.change / "benchmarks"))
    import workloads

    sides = {name: side_state(workloads, getattr(args, name), name, args.seed) for name in SIDES}
    seconds = {name: [] for name in SIDES}
    reference = None  # the parent's plans: round 0 runs the parent first
    for r in range(args.rounds + 1):  # round 0 is untimed
        for name in SIDES if r % 2 == 0 else SIDES[::-1]:
            s, texts = run_round(sides[name])
            reference = texts if reference is None else reference
            differ = [k for k, (a, b) in enumerate(zip(reference, texts)) if a != b]
            if differ:
                print(f"round {r} {name}: the plans of blocks {differ} differ from the parent's", file=sys.stderr)
                return 1
            if r:
                seconds[name].append(s)
                print(f"round {r} {name}: {s * 1e6:.1f} us per plan", flush=True)
    for name in SIDES:
        q1, median, q3 = np.percentile(seconds[name], [25, 50, 75]) * 1e6
        print(f"{name}: median {median:.1f} us, quartiles {q1:.1f} .. {q3:.1f} us")
    wins = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    print(f"change faster in {wins}/{args.rounds} rounds; plans the same on both sides")
    return 0


if __name__ == "__main__":
    sys.exit(main())
