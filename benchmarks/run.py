#!/usr/bin/env python3
"""Benchmark for quantlink: quantizer design, per-block planning and the Monte Carlo link.

Run from the repository root:

    python3 benchmarks/run.py --workload plan-blocks --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones, timed against a reference kernel (see workloads.run_pass); with
--trace 1 the run repeats one round of the workload twice, untraced and then
traced, and the metrics are the per-layer ones (the traced pass's spans are
written to .bench_out/). The lines before it describe the run: seed, inputs
drawn, BLAS threads, wall-clock figures and the workload's own named figures.

Exit codes: 0 when every output check passed, 1 when any failed, 2 when the
benchmark cannot run (no quantlink source tree, fixture digest mismatch, bad
arguments).
"""

from __future__ import annotations

import os

# numpy's BLAS pool is the only threading in a run; pin it before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms_p50": "ms",
    "ops_per_s": "1/s",
}
# The reference kernel's time on an idle core of the 2-core sandbox the
# baselines come from. It turns costs (time / reference time) into
# reference-scaled ms; see README "Timing on a shared host".
REFERENCE_MS = 0.30
# what one operation is, per workload
OP_UNIT = {"design-grid": "library column", "plan-blocks": "plan", "link-frames": "frame"}
NOT_MEASURED = {"cli": "argument parsing and file writing only"}


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be queried."""
    import numpy as np

    pattern = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def end_to_end(res) -> dict:
    """Gated metrics. Item times enter as costs in reference-kernel units times REFERENCE_MS."""
    values = {
        "setup_s": statistics.median(res.setup_cost) * REFERENCE_MS / 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": statistics.median(res.best_cost) * REFERENCE_MS / res.ops_per_item,
        "ops_per_s": res.ops / (sum(res.best_cost) * REFERENCE_MS / 1e3),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def raw_figures(res) -> dict:
    """The timing figures from plain wall-clock times, for the run line."""
    return {
        "wall_setup_s": statistics.median(res.setup_s),
        "wall_op_ms_p50": statistics.median(res.best_s) * 1e3 / res.ops_per_item,
        "wall_ops_per_s": res.ops / sum(res.best_s),
        "reference_ms": res.reference_s * 1e3,
    }


# deterministic quality figures of the run line, repeated among the per-layer metrics
QUALITY = (
    ("quantizer.design_gain_db", "design_gain_db", "dB"),
    ("allocator.mean_t_sym", "mean_t_sym", "symbols"),
    ("simulator.distortion_ratio", "distortion_ratio", "ratio"),
)


def per_layer(plain, traced, tracer) -> dict:
    from tracing import layer_metrics

    m = layer_metrics(tracer, traced.ops, loads=len(traced.setup_s))
    for key, report_key, unit in QUALITY:
        m[key] = (traced.report.get(report_key, 0.0), unit)
    m["trace.untraced_wall_s"] = (plain.work_s, "s")
    m["trace.traced_wall_s"] = (traced.work_s, "s")
    m["trace.overhead_s"] = (traced.work_s - plain.work_s, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OP_UNIT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quantlink" / "__init__.py").is_file():
        print(f"error: no quantlink source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    try:
        if args.trace:
            plain = workloads.run_pass(args.workload, args.seed, out_dir)
            tracer = Tracer()
            res = workloads.run_pass(args.workload, args.seed, out_dir, tracer=tracer)
            metrics = per_layer(plain, res, tracer)
            tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json.gz")
        else:
            res = workloads.run_pass(args.workload, args.seed, out_dir, seconds=args.seconds)
            metrics = end_to_end(res)
    except workloads.FixtureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "operation": OP_UNIT[args.workload],
        "ops_per_round": res.ops,
        "rounds": res.rounds,
        "blas_threads": blas_threads(),
        "closed_loop": "one caller, operations back to back",
        "not_measured": NOT_MEASURED,
        **res.report,
        **raw_figures(res),
    }
    print(json.dumps({"run": info}, sort_keys=True))
    for failure in res.failures[:20]:
        print(f"check failed: {failure}")
    print(
        json.dumps(
            {
                "correct": res.failed == 0,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": metrics,
            },
            sort_keys=True,
        )
    )
    return 0 if res.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
