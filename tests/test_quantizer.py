import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sst

from quantlink.quantizer import (
    DesignConfig,
    analytic_distortion,
    bsc_corrupt,
    bsc_transition_matrix,
    dequantize,
    design_channel_optimized,
    design_lloyd_max,
    optimal_levels,
    optimal_regions,
    quantize,
    uniform_bsc,
)
from quantlink.rng import stream_rng

ONE_BIT_LM_D = 0.3633802276324186  # 1 - 2/pi
HALF_NORMAL_MEAN = 0.7978845608028654  # sqrt(2/pi)

FAST = DesignConfig(restarts=4, seed=7)


def one_bit_closed_form(eps: float) -> float:
    return 1.0 - (1.0 - 2.0 * eps) ** 2 * (2.0 / np.pi)


# ---------------------------------------------------------------------------
# transition probabilities
# ---------------------------------------------------------------------------


def test_transition_prob_examples():
    assert bsc_transition_matrix([0.0, 0.0])[0b01, 0b01] == 1.0
    assert bsc_transition_matrix([0.1, 0.1])[0b00, 0b11] == pytest.approx(0.01, abs=1e-15)
    # bits 2 and 3 differ: (1-0.05) * 0.1 * 0.2
    assert bsc_transition_matrix([0.05, 0.1, 0.2])[0b010, 0b001] == pytest.approx(0.019, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=0.5, allow_nan=False), min_size=1, max_size=8)
)
def test_transition_rows_sum_to_one(flips):
    m = bsc_transition_matrix(flips)
    assert np.max(np.abs(m.sum(axis=1) - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# analytic distortion
# ---------------------------------------------------------------------------


def _one_bit_quantizer(eps: float):
    shrink = (1.0 - 2.0 * eps) * HALF_NORMAL_MEAN
    from quantlink.quantizer import ScalarQuantizer

    return ScalarQuantizer(
        bit_depth=1,
        thresholds=np.array([0.0]),
        levels=np.array([-shrink, shrink]),
        region_codewords=np.array([0, 1]),
        designed_for=uniform_bsc(1, eps),
        normalized_distortion=one_bit_closed_form(eps),
    )


def test_analytic_distortion_one_bit():
    q = _one_bit_quantizer(0.0)
    assert analytic_distortion(q, [0.0]) == pytest.approx(ONE_BIT_LM_D, abs=1e-12)
    q = _one_bit_quantizer(0.05)
    assert analytic_distortion(q, [0.05]) == pytest.approx(one_bit_closed_form(0.05), abs=1e-12)


def test_all_zero_levels_gives_source_variance():
    from quantlink.quantizer import ScalarQuantizer

    q = ScalarQuantizer(
        bit_depth=2,
        thresholds=np.array([-0.5, 0.0, 0.5]),
        levels=np.zeros(4),
        region_codewords=np.array([0, 1, 2, 3]),
        designed_for=uniform_bsc(2, 0.1),
        normalized_distortion=1.0,
    )
    assert analytic_distortion(q, [0.3, 0.1]) == pytest.approx(1.0, abs=1e-12)


def test_noiseless_distortion_equals_per_region_second_moments():
    q = design_lloyd_max(3, FAST)
    from quantlink.gaussian import interval_moments

    lo = np.concatenate(([-np.inf], q.thresholds))
    hi = np.concatenate((q.thresholds, [np.inf]))
    mass, m1, m2 = interval_moments(lo, hi)
    levels = q.levels[q.region_codewords]
    direct = float(np.sum(m2 - 2 * levels * m1 + levels**2 * mass))
    assert analytic_distortion(q, np.zeros(3)) == pytest.approx(direct, abs=1e-10)


# ---------------------------------------------------------------------------
# region update
# ---------------------------------------------------------------------------


def test_optimal_regions_noiseless_midpoint():
    thresholds, codewords = optimal_regions([-0.8, 0.8], [0.0])
    assert thresholds == pytest.approx([0.0], abs=1e-15)
    assert list(codewords) == [0, 1]


def test_optimal_regions_duplicate_centroid_tie():
    # identical levels give identical (a, b); the lower codeword survives
    thresholds, codewords = optimal_regions([0.3, 0.3], [0.0])
    assert thresholds.size == 0
    assert list(codewords) == [0]


def test_optimal_regions_useless_channel_single_region():
    thresholds, codewords = optimal_regions([-0.7, 0.7], [0.5])
    assert thresholds.size == 0
    assert len(codewords) == 1


def test_converged_design_drops_useless_codewords_and_matches_scan():
    # at a heavily degraded channel some codewords end up never sent
    for b in (3, 4):
        q = design_channel_optimized(b, uniform_bsc(b, 0.25), DesignConfig(restarts=6, seed=3))
        assert q.active_count < (1 << b)
        # dense-scan oracle: assign each point to its min conditional distortion codeword
        trans = bsc_transition_matrix(q.designed_for)
        a = trans @ q.levels
        b2 = trans @ np.square(q.levels)
        y = np.linspace(-8, 8, 80001)
        chosen = np.argmin(y[:, None] * (-2.0 * a[None, :]) + b2[None, :], axis=1)
        assert set(np.unique(chosen)) == set(q.region_codewords.tolist())


# ---------------------------------------------------------------------------
# level update
# ---------------------------------------------------------------------------


def test_optimal_levels_half_normal():
    levels = optimal_levels([0.0], [0, 1], [0.0])
    assert levels == pytest.approx([-HALF_NORMAL_MEAN, HALF_NORMAL_MEAN], abs=1e-12)


def test_optimal_levels_shrink_with_flips():
    levels = optimal_levels([0.0], [0, 1], [0.05])
    assert levels == pytest.approx(
        [-0.9 * HALF_NORMAL_MEAN, 0.9 * HALF_NORMAL_MEAN], abs=1e-12
    )


def test_optimal_levels_useless_channel_all_zero():
    levels = optimal_levels([0.0], [0, 1], [0.5])
    assert levels == pytest.approx([0.0, 0.0], abs=1e-15)


def test_optimal_levels_unreceivable_codeword_gets_prior_mean():
    # noiseless channel, only codeword 1 of 2 bits is ever sent
    levels = optimal_levels([], [1], [0.0, 0.0])
    assert levels[1] == pytest.approx(0.0, abs=1e-15)
    assert levels[0] == 0.0 and levels[2] == 0.0 and levels[3] == 0.0


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------


def test_design_one_bit_closed_forms():
    for eps in (0.0, 0.001, 0.01, 0.05):
        q = design_channel_optimized(1, [eps], FAST)
        assert q.normalized_distortion == pytest.approx(one_bit_closed_form(eps), abs=1e-9)
        shrink = (1.0 - 2.0 * eps) * HALF_NORMAL_MEAN
        assert np.sort(q.levels) == pytest.approx([-shrink, shrink], abs=1e-7)


def test_design_useless_channel_distortion_one():
    for b in (1, 2, 3):
        q = design_channel_optimized(b, uniform_bsc(b, 0.5), FAST)
        assert q.normalized_distortion == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(q.levels) < 1e-12)


def test_design_lloyd_max_values():
    q1 = design_lloyd_max(1, FAST)
    assert q1.normalized_distortion == pytest.approx(ONE_BIT_LM_D, abs=1e-10)
    assert np.sort(q1.levels) == pytest.approx([-HALF_NORMAL_MEAN, HALF_NORMAL_MEAN], abs=1e-8)
    q2 = design_lloyd_max(2, FAST)
    # grid-restricted dynamic program gives 0.11748239; free thresholds do
    # marginally better and classical tables round to 0.1175
    assert q2.normalized_distortion == pytest.approx(0.1175, abs=1e-4)
    assert q2.normalized_distortion <= 0.11748239071161247 + 1e-9


def test_design_lloyd_max_against_grid_dp_oracle():
    # DP over a fine threshold grid: partition (-inf, inf) into 4 segments,
    # each paying its optimal-centroid truncated second moment
    edges = np.concatenate(([-np.inf], np.linspace(-6, 6, 1201), [np.inf]))
    cmass = sst.norm.cdf(edges)
    cm1 = -sst.norm.pdf(edges)
    fin = np.where(np.isfinite(edges), edges, 0.0)
    cm2 = sst.norm.cdf(edges) - fin * sst.norm.pdf(edges)
    idx = np.arange(edges.size)
    mass = cmass[None, :] - cmass[:, None]
    a = cm1[None, :] - cm1[:, None]
    b = cm2[None, :] - cm2[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        cost = np.where(mass > 1e-300, b - a * a / np.maximum(mass, 1e-300), 0.0)
    cost[idx[:, None] > idx[None, :]] = np.inf
    best = cost[0, :].copy()
    for _ in range(3):
        best = np.min(best[:, None] + cost, axis=0)
    dp = float(best[-1])
    q2 = design_lloyd_max(2, FAST)
    assert q2.normalized_distortion <= dp + 1e-12
    assert q2.normalized_distortion == pytest.approx(dp, abs=2e-4)


def test_design_lloyd_max_monotone_in_depth():
    d = [design_lloyd_max(b, FAST).normalized_distortion for b in range(1, 7)]
    assert np.all(np.diff(d) < 0)


def test_design_dominates_lloyd_max_under_channel():
    for b in (1, 2, 3, 4):
        for eps in (0.001, 0.01, 0.05, 0.1):
            lm = design_lloyd_max(b, FAST)
            co = design_channel_optimized(b, uniform_bsc(b, eps), FAST)
            assert (
                co.normalized_distortion
                <= analytic_distortion(lm, uniform_bsc(b, eps)) + 1e-12
            )


def test_design_best_so_far_retention():
    trace: list[float] = []
    q = design_channel_optimized(3, uniform_bsc(3, 0.05), FAST, trace=trace)
    assert trace
    assert q.normalized_distortion <= min(trace) + 1e-15


def test_design_cached_distortion_consistent():
    q = design_channel_optimized(4, uniform_bsc(4, 0.02), FAST)
    assert analytic_distortion(q, q.designed_for) == pytest.approx(
        q.normalized_distortion, abs=1e-10
    )


def test_design_rejects_bad_depth():
    with pytest.raises(ValueError):
        design_channel_optimized(0, [0.1], FAST)
    with pytest.raises(ValueError):
        design_channel_optimized(2, [0.1], FAST)  # length mismatch


# ---------------------------------------------------------------------------
# quantize / dequantize
# ---------------------------------------------------------------------------


def test_quantize_threshold_tie_goes_left():
    q = _one_bit_quantizer(0.0)
    assert quantize(0.0, 0.0, 1.0, q) == 0  # exactly on the threshold
    assert quantize(1e-12, 0.0, 1.0, q) == 1
    assert quantize(3.0, 3.0, 2.0, q) == 0  # normalized sample sits on the threshold


def test_quantize_affine_invariance():
    q = design_channel_optimized(3, uniform_bsc(3, 0.01), FAST)
    rng = stream_rng("affine", 1)
    y = rng.standard_normal(1000)
    mu, sigma = -1.7, 2.4
    assert np.array_equal(quantize(mu + sigma * y, mu, sigma, q), quantize(y, 0.0, 1.0, q))


def test_quantize_region_staircase_monotone():
    q = design_channel_optimized(4, uniform_bsc(4, 0.02), FAST)
    inverse = {int(c): i for i, c in enumerate(q.region_codewords)}
    y = np.sort(stream_rng("scan", 2).uniform(-5, 5, 4000))
    regions = [inverse[int(c)] for c in quantize(y, 0.0, 1.0, q)]
    assert np.all(np.diff(regions) >= 0)


def test_dequantize_affine_property():
    q = design_channel_optimized(2, uniform_bsc(2, 0.03), FAST)
    for cw in range(4):
        assert dequantize(cw, 1.5, 2.0, q) == pytest.approx(
            2.0 * dequantize(cw, 0.0, 1.0, q) + 1.5, abs=1e-12
        )


def test_round_trip_noiseless_at_level_point():
    q = design_lloyd_max(3, FAST)
    for i, cw in enumerate(q.region_codewords):
        y = float(q.levels[cw])
        assert dequantize(quantize(y, 0.0, 1.0, q), 0.0, 1.0, q) == pytest.approx(y, abs=1e-12)


def test_monte_carlo_matches_analytic_distortion():
    rng = stream_rng("mc", 3)
    q = design_channel_optimized(3, uniform_bsc(3, 0.03), FAST)
    n = 400_000
    y = rng.standard_normal(n)
    rx = bsc_corrupt(quantize(y, 0.0, 1.0, q), q.designed_for, rng)
    err = np.square(y - dequantize(rx, 0.0, 1.0, q))
    z = (err.mean() - q.normalized_distortion) / (err.std(ddof=1) / np.sqrt(n))
    assert abs(z) < 3.0


def test_scaling_law_monte_carlo():
    q = design_channel_optimized(2, uniform_bsc(2, 0.02), FAST)
    rng = stream_rng("scale", 4)
    n = 300_000
    for mu, sigma in ((0.0, 1.0), (2.0, 0.5), (-1.0, 3.0)):
        y = mu + sigma * rng.standard_normal(n)
        rx = bsc_corrupt(quantize(y, mu, sigma, q), q.designed_for, rng)
        err = np.square(y - dequantize(rx, mu, sigma, q))
        se = err.std(ddof=1) / np.sqrt(n)
        assert abs(err.mean() - sigma**2 * q.normalized_distortion) < 3.0 * se


def test_quantize_rejects_nonpositive_std():
    q = _one_bit_quantizer(0.0)
    with pytest.raises(ValueError):
        quantize(0.1, 0.0, 0.0, q)
    with pytest.raises(ValueError):
        dequantize(0, 0.0, -1.0, q)
