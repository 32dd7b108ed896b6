#!/usr/bin/env python3
"""Time optimize_plan on the plan-blocks blocks for two source trees in one process.

Each tree's `src/quantlink` is imported as a package of its own
(`quantlink_parent`, `quantlink_change`, by `sweep_ab.load_package`), and
each side builds the 48 blocks of one `plan-blocks` seed with its own
modules, as `benchmarks/workloads.py` of the change tree builds them: the
fixture library, the two sources and one channel per block. A round plans
every block twice per side: once on the block's own channel, and once on a
fresh `dataclasses.replace` copy of it, made before the timing starts. The
side that goes first alternates from round to round, so a slow phase of a
shared host hits both alike. A round's figure is the median wall time of
one `optimize_plan` call over its blocks, one figure per kind of channel.
Round 0 is not timed: it leaves each source's rating and each channel's
rating kept, as a benchmark run's first round does. So the own channels
time plans that read what is kept of both, and the fresh copies time plans
whose channel has to be rated again.

    python3 tools/plan_ab.py --parent ../parent --change . --seed 7 --rounds 12

The script prints every round, then each side's median and quartiles and
the rounds the change wins, first on the own channels and then on the
fresh ones. It exits 1 when a plan's `serialize_plan` text, on either kind
of channel, differs from the parent's plan of the same block, and 0
otherwise. It only
reads the two trees. A parent tree whose `channel.tdl_c_profile` reads its
data as the package `quantlink` finds it only with that tree's `src` on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import dataclasses
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


def run_round(side: dict, fresh: bool) -> tuple[float, list[str]]:
    """The median seconds of one optimize_plan call over the blocks, and every plan's text.

    With `fresh`, each block is planned on a new copy of its channel, which no plan has rated.
    """
    allocator = side["ql"]["allocator"]
    blocks = [(s, dataclasses.replace(ch) if fresh else ch, p) for s, ch, p in side["blocks"]]
    seconds, plans = [], []
    gc.collect()
    for stats, realization, p_tot in blocks:
        start = time.perf_counter()
        plan = allocator.optimize_plan(side["lib"], stats, realization, p_tot)
        seconds.append(time.perf_counter() - start)
        plans.append(plan)
    return statistics.median(seconds), [allocator.serialize_plan(plan) for plan in plans]


def summary(seconds: dict, rounds: int, label: str) -> list[str]:
    """Each side's median and quartiles in microseconds, and the rounds the change wins."""
    lines = []
    for name in SIDES:
        q1, median, q3 = np.percentile(seconds[name], [25, 50, 75]) * 1e6
        lines.append(f"{name}{label}: median {median:.1f} us, quartiles {q1:.1f} .. {q3:.1f} us")
    wins = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
    return lines + [f"change faster{label} in {wins}/{rounds} rounds"]


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
    seconds = {fresh: {name: [] for name in SIDES} for fresh in (False, True)}
    reference = None  # the parent's plans: round 0 runs the parent first
    for r in range(args.rounds + 1):  # round 0 is untimed
        for name in SIDES if r % 2 == 0 else SIDES[::-1]:
            for fresh in (False, True):
                s, texts = run_round(sides[name], fresh)
                reference = texts if reference is None else reference
                differ = [k for k, (a, b) in enumerate(zip(reference, texts)) if a != b]
                if differ:
                    kind = "fresh" if fresh else "own"
                    print(f"round {r} {name}: the plans of blocks {differ} on {kind} channels "
                          "differ from the parent's", file=sys.stderr)
                    return 1
                if r:
                    seconds[fresh][name].append(s)
            if r:
                own_s, fresh_s = seconds[False][name][-1] * 1e6, seconds[True][name][-1] * 1e6
                print(f"round {r} {name}: {own_s:.1f} us per plan, {fresh_s:.1f} us on fresh channels", flush=True)
    print("\n".join(summary(seconds[False], args.rounds, "")))
    print("\n".join(summary(seconds[True], args.rounds, " on fresh channels")))
    print("plans the same on both sides and both kinds of channel")
    return 0


if __name__ == "__main__":
    sys.exit(main())
