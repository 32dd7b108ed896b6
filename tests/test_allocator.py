import itertools
import math

import numpy as np
import pytest

from quantlink.allocator import (
    AllocationPlan,
    LatentStats,
    NoFeasibleRateError,
    OperatingPoint,
    allocate_power_modulation,
    build_bit_mapping,
    minimum_bit_allocation,
    optimize_plan,
    refine_bit_allocation,
    select_ber_target,
    serialize_plan,
    target_distortion,
    validate_plan,
)
from quantlink.channel import ChannelRealization, exponential_pdp, realize_channel
from quantlink.library import sigma_max
from quantlink.rng import stream_rng


def _gamma_steps(lib, qi):
    return np.concatenate(([0.0], lib.gamma_thresholds[:, qi]))


def test_target_distortion_values():
    assert target_distortion(0.0) == 0.0
    assert target_distortion(1.0) == 0.5
    assert target_distortion(3.0) == 0.75
    assert np.array_equal(target_distortion(np.array([0.0, 1.0, 3.0])), [0.0, 0.5, 0.75])
    with pytest.raises(ValueError):
        target_distortion(-0.1)
    with pytest.raises(ValueError):
        target_distortion(np.array([1.0, -0.1]))


# ---------------------------------------------------------------------------
# minimum bit allocation
# ---------------------------------------------------------------------------


def test_min_alloc_all_negligible(small_lib):
    stats = LatentStats(np.zeros(5), np.full(5, 0.2))
    bits, total = minimum_bit_allocation(small_lib, stats, 0, 0.4)
    assert np.all(bits == 0) and total == 0


def test_min_alloc_unit_variance_one_bit(small_lib):
    stats = LatentStats(np.zeros(1), np.ones(1))
    bits, total = minimum_bit_allocation(small_lib, stats, 1, 0.4)  # eps = 0.05
    assert list(bits) == [1] and total == 1


def test_min_alloc_permutation_equivariant(small_lib):
    rng = stream_rng("perm", 0)
    v = rng.uniform(0, sigma_max(small_lib) ** 2, size=64)
    stats = LatentStats(np.zeros(64), v)
    bits, _ = minimum_bit_allocation(small_lib, stats, 0, 0.4)
    perm = rng.permutation(64)
    bits_p, _ = minimum_bit_allocation(small_lib, LatentStats(np.zeros(64), v[perm]), 0, 0.4)
    assert np.array_equal(bits_p, bits[perm])


# ---------------------------------------------------------------------------
# greedy power/modulation loading
# ---------------------------------------------------------------------------


def test_loading_budget_below_cheapest_increment(small_lib):
    g = _gamma_steps(small_lib, 0)
    ch = ChannelRealization(np.array([1.0 + 0j, 0.5 + 0j]), 1.0, 30e3, 0)
    m, p, r = allocate_power_modulation(ch, g[1] * 0.99, g)
    assert r == 0 and np.all(m == 0) and np.all(p == 0)


def test_loading_symmetric_tie_both_qpsk(small_lib):
    g = _gamma_steps(small_lib, 1)
    ch = ChannelRealization(np.array([1.0 + 0j, 1.0 + 0j]), 1.0, 30e3, 0)
    m, p, r = allocate_power_modulation(ch, 2.0 * g[1], g)
    assert list(m) == [2, 2] and r == 4
    assert p.sum() == pytest.approx(2 * g[1], rel=1e-12)


def test_loading_caps_at_highest_order(small_lib):
    g = _gamma_steps(small_lib, 1)
    ch = ChannelRealization(np.array([1.0 + 0j]), 1.0, 30e3, 0)
    m, p, r = allocate_power_modulation(ch, g[-1] * 100, g)
    assert list(m) == [8] and r == 8
    assert p[0] == pytest.approx(g[-1], rel=1e-12)


def test_loading_power_formula(small_lib):
    g = _gamma_steps(small_lib, 0)
    gains = np.array([1.2 - 0.4j, 0.3 + 0.9j, 2.0 + 0j])
    ch = ChannelRealization(gains, 1.7, 30e3, 0)
    m, p, _ = allocate_power_modulation(ch, 200.0, g)
    for k in range(3):
        expect = g[m[k] // 2] * 1.7 / abs(gains[k]) ** 2
        assert p[k] == pytest.approx(expect, rel=1e-12)


def test_loading_monotone_in_budget(small_lib):
    g = _gamma_steps(small_lib, 1)
    rng = stream_rng("mono", 3)
    gains = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / np.sqrt(2)
    ch = ChannelRealization(gains, 1.0, 30e3, 0)
    prev = 0
    for budget in np.linspace(1.0, 3000.0, 40):
        _, _, r = allocate_power_modulation(ch, float(budget), g)
        assert r >= prev
        prev = r


def _exhaustive_rate(gains, p_tot, gamma_steps):
    inv = 1.0 / np.abs(gains) ** 2
    best = 0
    for combo in itertools.product(range(5), repeat=gains.size):
        cost = sum(gamma_steps[s] * inv[k] for k, s in enumerate(combo))
        if cost <= p_tot:
            best = max(best, 2 * sum(combo))
    return best


def test_loading_matches_exhaustive_on_small_instances(small_lib):
    rng = stream_rng("p2", 0)
    for trial in range(60):
        n_sc = int(rng.integers(2, 7))
        gains = (rng.standard_normal(n_sc) + 1j * rng.standard_normal(n_sc)) / np.sqrt(2)
        gains[np.abs(gains) < 1e-3] = 0.5
        ch = ChannelRealization(gains, 1.0, 30e3, 0)
        qi = int(rng.integers(0, small_lib.epsilons.size))
        g = _gamma_steps(small_lib, qi)
        p_tot = float(rng.uniform(0.5, 60) * n_sc)
        _, _, r = allocate_power_modulation(ch, p_tot, g)
        assert r == _exhaustive_rate(gains, p_tot, g)


# ---------------------------------------------------------------------------
# target selection
# ---------------------------------------------------------------------------


def _point(qi, b_lat, r_sym):
    return OperatingPoint(qi, np.zeros(0, dtype=np.int64), b_lat, np.zeros(0, dtype=np.int64), np.zeros(0), r_sym)


def test_select_single_feasible():
    assert select_ber_target([_point(0, 100, 0), _point(1, 100, 50)]) == (1, 2)


def test_select_ratio_and_ceiling():
    got = select_ber_target([_point(0, 100, 40), _point(1, 120, 60)])
    assert got == (1, 2)  # 2.0 < 2.5


def test_select_tie_prefers_smaller_target():
    assert select_ber_target([_point(0, 100, 50), _point(1, 100, 50)])[0] == 0
    # list order must not matter
    assert select_ber_target([_point(1, 100, 50), _point(0, 100, 50)])[0] == 0


def test_select_zero_bits_empty_marker():
    assert select_ber_target([_point(0, 0, 0), _point(1, 0, 10)]) == (0, 0)


def test_select_all_infeasible_raises():
    with pytest.raises(NoFeasibleRateError):
        select_ber_target([_point(0, 5, 0), _point(1, 5, 0)])


# ---------------------------------------------------------------------------
# bit refinement
# ---------------------------------------------------------------------------


def test_refine_zero_residual_unchanged(small_lib):
    stats = LatentStats(np.zeros(3), np.array([1.0, 2.0, 3.0]))
    bits, total = minimum_bit_allocation(small_lib, stats, 0, 0.4)
    refined, dummy = refine_bit_allocation(small_lib, stats, bits, 0, total)
    assert np.array_equal(refined, bits) and dummy == 0


def test_refine_single_bit_goes_to_largest_gain(small_lib):
    col = small_lib.distortion_column(0)
    variances = np.array([2.0, 1.0])
    stats = LatentStats(np.zeros(2), variances)
    bits, total = minimum_bit_allocation(small_lib, stats, 0, 0.4)
    gains = [variances[i] * (col[bits[i] - 1] - col[bits[i]]) for i in range(2)]
    refined, dummy = refine_bit_allocation(small_lib, stats, bits, 0, total + 1)
    assert dummy == 0
    winner = int(np.argmax(gains))
    assert refined[winner] == bits[winner] + 1
    assert refined[1 - winner] == bits[1 - winner]


def test_refine_keeps_zero_bit_elements_at_zero(small_lib):
    stats = LatentStats(np.zeros(2), np.array([0.1, 1.0]))
    bits, total = minimum_bit_allocation(small_lib, stats, 0, 0.4)
    refined, dummy = refine_bit_allocation(small_lib, stats, bits, 0, total + 4)
    assert refined[0] == 0
    assert refined[1] == bits[1] + 4 or refined[1] == small_lib.b_max


def test_refine_saturation_produces_dummies(small_lib):
    stats = LatentStats(np.zeros(1), np.array([1.0]))
    bits, total = minimum_bit_allocation(small_lib, stats, 0, 0.4)
    headroom = small_lib.b_max - int(bits[0])
    refined, dummy = refine_bit_allocation(small_lib, stats, bits, 0, total + headroom + 5)
    assert refined[0] == small_lib.b_max
    assert dummy == 5


def _brute_force_refinement(lib, variances, bits, qi, residual):
    col = np.concatenate(([1.0], lib.distortion_column(qi)))
    eligible = np.flatnonzero((bits >= 1) & (bits < lib.b_max))
    headroom = int(np.sum(lib.b_max - bits[eligible]))
    spend = min(residual, headroom)
    best = None
    for grant in itertools.product(range(lib.b_max + 1), repeat=eligible.size):
        if sum(grant) != spend:
            continue
        cand = bits.copy()
        cand[eligible] += np.array(grant, dtype=np.int64)
        if np.any(cand > lib.b_max):
            continue
        val = float(variances @ col[cand])
        if best is None or val < best:
            best = val
    return best if best is not None else float(variances @ col[bits])


def test_refine_matches_brute_force(small_lib):
    rng = stream_rng("p3", 1)
    col = np.concatenate(([1.0], small_lib.distortion_column(0)))
    for trial in range(60):
        n = int(rng.integers(2, 7))
        variances = np.exp(rng.uniform(np.log(0.05), np.log(sigma_max(small_lib) ** 2), n))
        stats = LatentStats(np.zeros(n), variances)
        qi = int(rng.integers(0, small_lib.epsilons.size))
        if not small_lib.column_is_convex(qi):
            continue
        bits, total = minimum_bit_allocation(small_lib, stats, qi, 0.4)
        residual = int(rng.integers(0, 7))
        refined, dummy = refine_bit_allocation(small_lib, stats, bits, qi, total + residual)
        colq = np.concatenate(([1.0], small_lib.distortion_column(qi)))
        got = float(variances @ colq[refined])
        want = _brute_force_refinement(small_lib, variances, bits, qi, residual)
        assert got == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# bit mapping
# ---------------------------------------------------------------------------


def test_mapping_single_qpsk_subcarrier():
    mapping = build_bit_mapping(np.array([0, 2, 0]), 1)
    assert mapping.total_bits == 2
    assert list(mapping.subcarrier) == [1, 1]
    assert list(mapping.position) == [0, 1]
    assert list(mapping.symbol) == [0, 0]


def test_mapping_is_bijection():
    m = np.array([2, 0, 4, 8, 0, 6])
    mapping = build_bit_mapping(m, 3)
    assert mapping.total_bits == 3 * int(m.sum())
    triples = set(zip(mapping.symbol.tolist(), mapping.subcarrier.tolist(), mapping.position.tolist()))
    assert len(triples) == mapping.total_bits
    for t, k, pos in triples:
        assert 0 <= t < 3 and m[k] > 0 and 0 <= pos < m[k]


# ---------------------------------------------------------------------------
# full plan
# ---------------------------------------------------------------------------


def _random_setup(lib, rng, n=48, n_sc=24, snr_db=10.0):
    smax2 = sigma_max(lib) ** 2
    variances = np.exp(rng.uniform(np.log(1e-3), np.log(smax2), size=n))
    stats = LatentStats(rng.uniform(-1, 1, size=n), variances)
    ch = realize_channel(exponential_pdp(300.0), n_sc, 30e3, seed=int(rng.integers(1 << 30)))
    p_tot = n_sc * 10 ** (snr_db / 10.0)
    return stats, ch, p_tot


def test_plan_empty_source(small_lib):
    stats = LatentStats(np.ones(6), np.full(6, 0.3))
    ch = realize_channel(exponential_pdp(300.0), 16, 30e3, seed=1)
    plan = optimize_plan(small_lib, stats, ch, 100.0)
    assert plan.is_empty and plan.t_sym == 0 and plan.b_lat == 0
    assert plan.dummy_bits == 0 and plan.mapping.total_bits == 0
    validate_plan(plan, small_lib, stats, 100.0)


def test_plan_invariants_on_random_instances(small_lib):
    rng = stream_rng("plan-sweep", 0)
    for _ in range(50):
        stats, ch, p_tot = _random_setup(small_lib, rng, snr_db=float(rng.uniform(0, 18)))
        plan = optimize_plan(small_lib, stats, ch, p_tot)
        validate_plan(plan, small_lib, stats, p_tot)
        assert plan.b_lat + plan.dummy_bits == plan.t_sym * plan.r_sym


def test_plan_deterministic_bytes(small_lib):
    rng = stream_rng("plan-det", 0)
    stats, ch, p_tot = _random_setup(small_lib, rng)
    a = serialize_plan(optimize_plan(small_lib, stats, ch, p_tot, seed=3))
    b = serialize_plan(optimize_plan(small_lib, stats, ch, p_tot, seed=3))
    assert a == b


def test_plan_refinement_never_decreases_bits(small_lib):
    rng = stream_rng("plan-ref", 0)
    stats, ch, p_tot = _random_setup(small_lib, rng)
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    floor_bits, _ = minimum_bit_allocation(small_lib, stats, plan.eps_index, 0.4)
    assert np.all(plan.bits >= floor_bits)


def test_plan_infeasible_when_power_hopeless(small_lib):
    stats = LatentStats(np.zeros(4), np.full(4, 1.0))
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=2)
    with pytest.raises(NoFeasibleRateError):
        optimize_plan(small_lib, stats, ch, 1e-9)


def test_validate_plan_catches_power_violation(small_lib):
    rng = stream_rng("plan-bad", 0)
    stats, ch, p_tot = _random_setup(small_lib, rng)
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    plan.powers = plan.powers * 4.0
    with pytest.raises(ValueError, match="power"):
        validate_plan(plan, small_lib, stats, p_tot)


def test_validate_plan_catches_bit_shortfall(small_lib):
    rng = stream_rng("plan-bad2", 0)
    stats, ch, p_tot = _random_setup(small_lib, rng)
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    if plan.is_empty:
        pytest.skip("degenerate draw")
    bad = plan.bits.copy()
    nz = np.flatnonzero(bad > 1)
    if nz.size == 0:
        pytest.skip("no refinable element")
    bad[nz[0]] -= 1
    plan.bits = bad
    with pytest.raises(ValueError):
        validate_plan(plan, small_lib, stats, p_tot)
