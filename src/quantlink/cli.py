"""Command-line front end.

Subcommands:
  build-library     design the quantizer grid, write the library file and a
                    per-cell distortion CSV
  design-quantizer  design one quantizer and print it as JSON
  allocate          build a transmission plan for a channel realization
  simulate          run a Monte Carlo sweep from an experiment config
  ber-check         modem/channel Monte Carlo against the analytic BER model

Every command is deterministic given --seed, which is echoed into all outputs
along with the tool version and input digests. Exit codes: 0 success (for
`simulate`, additionally no distortion-target violations), 1 violations or
check failures, 2 bad arguments/config/paths, 3 infeasible allocation (no BER
target gives a positive symbol rate; `allocate` and `simulate` only). main
alone turns an error into its exit code and one `error: ...` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from ._checks import check_count, check_positive_finite, is_finite
from ._version import __version__
from . import channel as chan
from . import library as liblib
from . import modem
from . import simulator as sim
from .allocator import (
    InfeasibleTargetError,
    LatentStats,
    NoFeasibleRateError,
    optimize_plan,
    serialize_plan,
    validate_plan,
)
from .quantizer import DesignConfig, design_channel_optimized, uniform_bsc
from .rng import stream_rng

# ber-check passes when every point's |BER - target| / target is at most this
_BER_CHECK_TOLERANCE = 0.1


def cmd_build_library(args) -> int:
    cfg = DesignConfig(seed=args.seed)
    # no --eps values: the default grid
    grid = sorted(args.eps) if args.eps else None
    lib = liblib.build_library(args.b_max, grid, cfg)
    out_dir = args.out
    out_dir.mkdir(parents=True, exist_ok=True)
    lib_path = out_dir / "library.json"
    liblib.save_library(lib, lib_path)
    csv_path = out_dir / "distortions.csv"
    lines = ["b,eps_index,eps,active_count,lloyd_max_distortion,optimized_distortion"]
    from .quantizer import analytic_distortion, design_lloyd_max

    for qi, eps in enumerate(lib.epsilons):
        for b in range(1, lib.b_max + 1):
            lm = analytic_distortion(design_lloyd_max(b, cfg), uniform_bsc(b, float(eps)))
            cell = lib.quantizer(b, qi)
            lines.append(
                f"{b},{qi},{float(eps)!r},{cell.active_count},{lm!r},{cell.normalized_distortion!r}"
            )
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        json.dumps(
            {
                "library": str(lib_path),
                "distortion_table": str(csv_path),
                "cells": len(lib.cells),
                "warnings": lib.warnings,
                "digest": lib.digest(),
                "seed": args.seed,
                "version": __version__,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_design_quantizer(args) -> int:
    cfg = DesignConfig(seed=args.seed)
    flips = (
        uniform_bsc(args.bits, args.eps[0])
        if len(args.eps) == 1
        else np.asarray([float(e) for e in args.eps])
    )
    q = design_channel_optimized(args.bits, flips, cfg)
    print(
        json.dumps(
            {
                "bit_depth": q.bit_depth,
                "flips": [float(f) for f in q.designed_for],
                "thresholds": [float(t) for t in q.thresholds],
                "levels": [float(v) for v in q.levels],
                "region_codewords": [int(c) for c in q.region_codewords],
                "active_count": q.active_count,
                "distortion": q.normalized_distortion,
                "seed": args.seed,
                "version": __version__,
            },
            sort_keys=True,
        )
    )
    return 0


def _load_stats(args, src, lib) -> LatentStats:
    """The --stats file, or else the synthetic source src drawn for lib."""
    if args.stats is not None:
        with open(args.stats, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"stats file {args.stats}: the top level must be a JSON object")
        for key in ("means", "variances"):
            if key not in doc:
                raise ValueError(f"stats file {args.stats}: no {key!r} key")
        return LatentStats(np.asarray(doc["means"]), np.asarray(doc["variances"]))
    return sim.draw_source(src, lib, args.seed)


def cmd_allocate(args) -> int:
    # every input is checked before the library loads
    check_positive_finite("delta", args.delta)
    # judged in Hz, where a finite spacing in kHz can still overflow to inf
    spacing_hz = args.spacing_khz * 1e3
    if not is_finite(spacing_hz) or spacing_hz <= 0:
        raise ValueError(
            f"spacing_khz must be a positive finite number, got {args.spacing_khz!r} ({spacing_hz!r} Hz)"
        )
    check_count("n_sc", args.n_sc)
    p_tot = chan.power_budget(args.n_sc, args.snr_db)
    profile = chan.parse_profile_ref(args.profile)
    src = None if args.stats is not None else sim.SyntheticSourceConfig(args.n_latents, args.source_seed)
    lib = liblib.load_library(args.library)
    stats = _load_stats(args, src, lib)
    realization = chan.realize_channel(
        profile, args.n_sc, spacing_hz, seed=args.channel_seed
    )
    plan = optimize_plan(lib, stats, realization, p_tot, args.delta, seed=args.seed)
    if args.check:
        # a plan that fails its check is not written
        try:
            validate_plan(plan, lib, stats, p_tot, args.delta)
        except ValueError as exc:
            print(f"error: plan check failed: {exc}", file=sys.stderr)
            return 1
    if args.out is not None:
        args.out.write_text(serialize_plan(plan), encoding="utf-8")
    print(
        json.dumps(
            {
                "epsilon_star": plan.epsilon_star,
                "t_sym": plan.t_sym,
                "total_bits": plan.b_lat,
                "bits_per_symbol": plan.r_sym,
                "dummy_bits": plan.dummy_bits,
                "power_used_fraction": float(plan.powers.sum() / p_tot),
                "checked": bool(args.check),
                "seed": args.seed,
                "version": __version__,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_simulate(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("the top level must be a JSON object")
        # the config's keys are ExperimentConfig's fields, which give the
        # defaults, except that `profile` sets profile_ref and `library` and
        # `source` are read apart
        fields = {f.name for f in dataclasses.fields(sim.ExperimentConfig)} - {"source", "profile_ref"}
        unknown = sorted(set(doc) - fields - {"library", "source", "profile"})
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        settings = {key: doc[key] for key in fields & set(doc)}
        if "profile" in doc:
            settings["profile_ref"] = doc["profile"]
        cfg = sim.ExperimentConfig(source=sim.SyntheticSourceConfig(**doc.get("source", {})), **settings)
        # a missing or malformed profile file is refused before the library loads
        chan.parse_profile_ref(cfg.profile_ref)
        lib = liblib.load_library(doc["library"])
    except (OSError, KeyError, TypeError, ValueError, liblib.LibraryFormatError) as exc:
        print(f"error: bad experiment config: {exc}", file=sys.stderr)
        return 2
    reports = sim.run_experiment(cfg, lib, keep_trials=args.detail)
    csv_text = sim.report_rows_to_csv(reports)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / "report.csv").write_text(csv_text, encoding="utf-8")
    if args.detail:
        detail = {
            "version": __version__,
            "seed": cfg.seed,
            "config_digest": cfg.digest(),
            "points": [
                {
                    "snr_db": r.snr_db,
                    "mean_distortion_per_element": [float(v) for v in r.mean_distortion_per_element],
                    "per_element_target": [float(v) for v in r.per_element_target],
                    "trials": r.trial_details,
                }
                for r in reports
            ],
        }
        (args.out_dir / "report.json").write_text(
            json.dumps(detail, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(csv_text, end="")
    return 0 if all(r.violation_rate == 0.0 for r in reports) else 1


def cmd_ber_check(args) -> int:
    # a count below 1 would still measure one symbol, and no target would
    # print a bare header and pass
    check_count("--bits-per-point", args.bits_per_point)
    if args.library is not None:
        lib = liblib.load_library(args.library)
        targets = [float(e) for e in lib.epsilons]
    else:
        targets = [float(e) for e in args.eps]
    if not targets:
        raise ValueError("no BER target to check; give --eps values or --library")
    # every target is checked (snr_threshold refuses a bad one) before the
    # first point is measured
    points = [(m, eps, modem.snr_threshold(m, eps)) for m in modem.QAM_BITS for eps in targets]
    lines = ["m,target_ber,gamma_th,empirical_ber,rel_error,bits,seed,version"]
    worst = 0.0
    for m, eps, gamma in points:
        rng = stream_rng("ber-check", args.seed, m, repr(eps))
        ber = sim.measure_link_ber(m, gamma, args.bits_per_point, rng)
        rel = abs(ber - eps) / eps
        worst = max(worst, rel)
        lines.append(
            f"{m},{eps!r},{gamma!r},{ber!r},{rel!r},{args.bits_per_point},{args.seed},{__version__}"
        )
    print("\n".join(lines))
    return 0 if worst <= _BER_CHECK_TOLERANCE else 1


def build_parser() -> argparse.ArgumentParser:
    from pathlib import Path

    parser = argparse.ArgumentParser(prog="quantlink", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-library", help="design the quantizer grid and save it")
    p.add_argument("--out", type=Path, default=Path("artifacts"))
    p.add_argument("--b-max", type=int, default=liblib.DEFAULT_B_MAX)
    p.add_argument("--eps", type=float, nargs="*", default=None)
    p.add_argument("--seed", type=int, default=DesignConfig.seed)
    p.set_defaults(func=cmd_build_library)

    p = sub.add_parser("design-quantizer", help="design one quantizer, print JSON")
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--eps", type=float, nargs="+", required=True)
    p.add_argument("--seed", type=int, default=DesignConfig.seed)
    p.set_defaults(func=cmd_design_quantizer)

    p = sub.add_parser("allocate", help="build a transmission plan")
    p.add_argument("--library", type=Path, required=True)
    p.add_argument("--stats", type=Path, default=None)
    p.add_argument("--n-latents", type=int, default=sim.SyntheticSourceConfig.n_latents)
    p.add_argument("--source-seed", type=int, default=sim.SyntheticSourceConfig.seed)
    p.add_argument("--profile", type=str, default=sim.ExperimentConfig.profile_ref)
    p.add_argument("--channel-seed", type=int, default=0)
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--n-sc", type=int, default=chan.DEFAULT_N_SC)
    p.add_argument("--spacing-khz", type=float, default=chan.DEFAULT_SPACING_HZ / 1e3)
    p.add_argument("--delta", type=float, default=liblib.DEFAULT_DELTA)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--check", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("simulate", help="run a Monte Carlo sweep")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, default=Path("artifacts"))
    p.add_argument("--detail", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ber-check", help="Monte Carlo vs the analytic BER model")
    p.add_argument("--library", type=Path, default=None)
    p.add_argument("--eps", type=float, nargs="*", default=(0.001, 0.01, 0.05))
    p.add_argument("--bits-per-point", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ber_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad arguments; keep that convention
        return int(exc.code or 0)
    # the one table from an error to its exit code (1 is a command's own verdict)
    try:
        return args.func(args)
    except (NoFeasibleRateError, InfeasibleTargetError, liblib.LibraryFormatError, ValueError, OSError) as exc:
        hint = " (variances must be clamped to sigma_max^2)" if isinstance(exc, InfeasibleTargetError) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 3 if isinstance(exc, NoFeasibleRateError) else 2


if __name__ == "__main__":
    raise SystemExit(main())
