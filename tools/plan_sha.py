#!/usr/bin/env python3
"""Print the sha256 of the 720 plans that the plan-blocks blocks of seeds 1-5 give.

For each seed 1..5, the `plan-blocks` workload's 48 blocks (its fixture
library, sources and channels, built by `benchmarks/workloads.py`) are
planned by `optimize_plan` at the block's budget times 0.02, 1 and 30. The
`serialize_plan` documents go into one sha256 in (seed, budget, block)
order. A change that keeps every plan byte keeps this value.

    python3 tools/plan_sha.py

Reads `benchmarks/` and writes nothing. It imports quantlink from `src/`
when no other copy is importable.
"""

from __future__ import annotations

import hashlib
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5)
BUDGET_SCALES = (0.02, 1.0, 30.0)


def plan_sha() -> str:
    """The sha256 of the 720 serialize_plan documents, as hex."""
    for path in (ROOT / "src", ROOT / "benchmarks"):
        if str(path) not in sys.path:
            sys.path.append(str(path))
    import workloads

    # the modules already imported, so a caller's classes stay the same objects
    ql = {name: importlib.import_module(f"quantlink.{name}") for name in workloads.MODULES}
    allocator = ql["allocator"]
    sizes = workloads.Sizes()
    h = hashlib.sha256()
    for seed in SEEDS:
        state = workloads.setup_plan(ql, seed, sizes, None)
        blocks = workloads.plan_batch(ql, state, sizes)
        for scale in BUDGET_SCALES:
            for stats, realization, p_tot in blocks:
                plan = allocator.optimize_plan(state["lib"], stats, realization, p_tot * scale)
                h.update(allocator.serialize_plan(plan).encode("utf-8"))
    return h.hexdigest()


if __name__ == "__main__":
    print(plan_sha())
