import importlib.util
from pathlib import Path

from quantlink import allocator

TOOL = Path(__file__).resolve().parents[1] / "tools" / "plan_sha.py"

# sha256 over the 720 serialize_plan documents of the plan-blocks blocks of
# seeds 1-5 at budget x0.02, x1 and x30, in (seed, budget, block) order. Each
# seed's 144 plans run on its two sources, so all but the first plan on a
# source read the rating that plan kept, and most read a kept refinement. A
# deliberate change to plan bytes updates this constant and says why in
# CHANGES.md
PLAN_BLOCKS_SHA256 = "a157f2c7032f418ba1a2687dca567e0cc500e487f866eb9a326b7984858e1028"


def _plan_sha():
    spec = importlib.util.spec_from_file_location("plan_sha", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.plan_sha()


def test_plan_blocks_plans_are_pinned():
    assert _plan_sha() == PLAN_BLOCKS_SHA256


def test_plan_blocks_plans_on_fresh_sources_are_pinned(monkeypatch):
    # every plan on a new copy of its source, which keeps nothing: what plans
    # keep on their sources never changes a plan
    plan = allocator.optimize_plan

    def on_a_fresh_source(lib, stats, *args, **kwargs):
        fresh = allocator.LatentStats(stats.means.copy(), stats.variances.copy())
        return plan(lib, fresh, *args, **kwargs)

    monkeypatch.setattr(allocator, "optimize_plan", on_a_fresh_source)
    assert _plan_sha() == PLAN_BLOCKS_SHA256
