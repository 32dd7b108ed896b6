import contextlib
import dataclasses
import hashlib
import importlib
import itertools
import math
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantlink import allocator
from quantlink.allocator import (
    AllocationPlan,
    InfeasibleTargetError,
    LatentStats,
    NoFeasibleRateError,
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
from quantlink.library import gamma_increments_convex, load_library, sigma_max
from quantlink.modem import QAM_BITS, snr_threshold
from quantlink.rng import stream_rng
from quantlink.simulator import SyntheticSourceConfig, draw_stats

FIXTURE_LIBRARY = Path(__file__).resolve().parents[1] / "benchmarks" / "default_library.json"

# sha256 over the serialize_plan documents of the default library's plans for
# a 4096-latent log-uniform source on one exp-pdp(300) realization at 5, 10
# and 15 dB; a deliberate change to plan bytes updates this constant and says
# why in CHANGES.md
DEFAULT_PLANS_SHA256 = "e407c89860e832602c4d258f672ab012560d2e2327d1e77bdb4834bb99cd49c0"


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
    for nan in (float("nan"), np.array([1.0, np.nan])):  # NaN is not >= 0
        with pytest.raises(ValueError):
            target_distortion(nan)


# ---------------------------------------------------------------------------
# minimum bit allocation
# ---------------------------------------------------------------------------


def test_latent_stats_rejects_bad_variances():
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            LatentStats(np.zeros(2), np.array([1.0, bad]))


def test_latent_stats_rejects_non_finite_means():
    # a NaN mean used to plan, and every trial on it reported NaN errors
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="means must be finite"):
            LatentStats(np.array([bad, 0.0]), np.ones(2))


@pytest.mark.parametrize("field", ["means", "variances"])
@pytest.mark.parametrize("bad", [["0", "1"], [False, True], [1.0, None], [1 + 0j, 1.0]])
def test_latent_stats_refuses_entries_that_are_not_ints_or_floats(field, bad):
    # np.asarray(..., dtype=float64) would turn "0" and True into numbers
    values = {"means": [0.0, 0.0], "variances": [1.0, 2.0], field: bad}
    with pytest.raises(ValueError, match=f"{field} must hold only ints and floats"):
        LatentStats(np.asarray(values["means"]), np.asarray(values["variances"]))


def test_latent_stats_takes_ints_as_floats():
    stats = LatentStats(np.array([0, -1]), np.array([2, 0], dtype=np.uint8))
    assert stats.means.dtype == stats.variances.dtype == np.float64
    assert stats.variances.tolist() == [2.0, 0.0]


def test_latent_stats_are_frozen_with_read_only_copies(small_lib):
    means, variances = np.zeros(3), np.array([0.5, 1.0, 2.0])
    stats = LatentStats(means, variances)
    variances[0] = 3.0  # the caller's arrays stay writable and their own
    assert means.flags.writeable and stats.variances[0] == 0.5
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=1)
    optimize_plan(small_lib, stats, ch, 80.0)
    assert stats in allocator._RATINGS
    # an edit in place would leave the kept rating and the digest stale
    with pytest.raises(ValueError, match="read-only"):
        stats.variances[:] = stats.variances * 0.7
    for name in ("means", "variances"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(stats, name, getattr(stats, name) * 0.7)
    assert dataclasses.replace(stats) not in allocator._RATINGS


def test_stats_digest_is_computed_once_per_object(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return hashlib.sha256(*args)

    monkeypatch.setattr(allocator, "hashlib", SimpleNamespace(sha256=counting))
    stats = LatentStats(np.arange(3.0), np.array([0.5, 1.0, 2.0]))
    want = hashlib.sha256(stats.means.tobytes() + stats.variances.tobytes()).hexdigest()
    assert stats.digest() == want
    assert stats.digest() == want
    assert len(calls) == 1

    # derived stats start without the cached digest
    scaled = dataclasses.replace(stats, variances=2.0 * stats.variances)
    assert scaled.digest() == hashlib.sha256(
        scaled.means.tobytes() + scaled.variances.tobytes()
    ).hexdigest()
    assert scaled.digest() != want
    assert len(calls) == 2


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


def _min_bits(lib, eps_index, variances):
    stats = LatentStats(np.zeros(len(variances)), np.asarray(variances, dtype=float))
    bits, total = minimum_bit_allocation(lib, stats, eps_index, 0.4)
    assert total == bits.sum()
    return bits


def test_min_alloc_examples(small_lib):
    smax2 = sigma_max(small_lib) ** 2
    last = small_lib.epsilons.size - 1
    assert _min_bits(small_lib, last, [smax2 * 0.999])[0] == small_lib.b_max
    with pytest.raises(InfeasibleTargetError, match="element 1:"):
        _min_bits(small_lib, last, [1.0, smax2 * 1.5])
    # on a column that rises again, the first fitting depth, not a later one
    rising = np.array([0.125, 0.0625, 0.5, 0.25, 0.0625])
    lib = SimpleNamespace(b_max=rising.size, distortion_column=lambda qi: rising)
    assert _min_bits(lib, 0, [3.0, 15.0]).tolist() == [1, 2]


def test_min_alloc_matches_scalar(small_lib):
    rng = stream_rng("bits", 0)
    v = rng.uniform(0.0, sigma_max(small_lib) ** 2, size=300)
    got = _min_bits(small_lib, 0, v)
    col = small_lib.distortion_column(0)
    for i, s2 in enumerate(v):
        expected = 0
        if s2 >= 0.4:
            expected = next(b for b in range(1, small_lib.b_max + 1) if col[b - 1] <= 1.0 / (s2 + 1.0))
        assert got[i] == expected


@settings(max_examples=200, deadline=None)
@given(
    col=st.lists(st.sampled_from([0.5, 0.25, 0.125, 0.0625]), min_size=1, max_size=6),
    monotone=st.booleans(),
    data=st.data(),
)
def test_min_alloc_matches_first_fitting_depth(col, monotone, data):
    # dyadic columns with repeats; bounds 1 / (v + 1) land exactly on column values
    col = np.array(sorted(col, reverse=True) if monotone else col)
    lib = SimpleNamespace(b_max=col.size, distortion_column=lambda qi: col)
    variances = st.sampled_from([0.0, 0.3, 1.0, 3.0, 7.0, 15.0, 20.0])
    v = np.array(data.draw(st.lists(variances, min_size=1, max_size=12)))
    want = []
    for s2 in v:
        fits = [b for b in range(1, col.size + 1) if col[b - 1] <= 1.0 / (s2 + 1.0)]
        want.append(0 if s2 < 0.4 else (fits[0] if fits else None))
    if None in want:
        with pytest.raises(InfeasibleTargetError, match=f"element {want.index(None)}:"):
            _min_bits(lib, 0, v)
    else:
        got = _min_bits(lib, 0, v)
        assert got.dtype == np.int64 and got.tolist() == want


# ---------------------------------------------------------------------------
# greedy power/modulation loading
# ---------------------------------------------------------------------------


def test_loading_budget_below_cheapest_increment(small_lib):
    g = _gamma_steps(small_lib, 0)
    ch = ChannelRealization(np.array([1.0 + 0j, 0.5 + 0j]), 1.0, 0)
    m, p, r = allocate_power_modulation(ch, g[1] * 0.99, g)
    assert r == 0 and np.all(m == 0) and np.all(p == 0)


def test_loading_symmetric_tie_both_qpsk(small_lib):
    g = _gamma_steps(small_lib, 1)
    ch = ChannelRealization(np.array([1.0 + 0j, 1.0 + 0j]), 1.0, 0)
    m, p, r = allocate_power_modulation(ch, 2.0 * g[1], g)
    assert list(m) == [2, 2] and r == 4
    assert p.sum() == pytest.approx(2 * g[1], rel=1e-12)


def test_loading_caps_at_highest_order(small_lib):
    g = _gamma_steps(small_lib, 1)
    ch = ChannelRealization(np.array([1.0 + 0j]), 1.0, 0)
    m, p, r = allocate_power_modulation(ch, g[-1] * 100, g)
    assert list(m) == [8] and r == 8
    assert p[0] == pytest.approx(g[-1], rel=1e-12)


def test_loading_power_formula(small_lib):
    g = _gamma_steps(small_lib, 0)
    gains = np.array([1.2 - 0.4j, 0.3 + 0.9j, 2.0 + 0j])
    ch = ChannelRealization(gains, 1.7, 0)
    m, p, _ = allocate_power_modulation(ch, 200.0, g)
    for k in range(3):
        expect = g[m[k] // 2] * 1.7 / abs(gains[k]) ** 2
        assert p[k] == pytest.approx(expect, rel=1e-12)


def test_loading_monotone_in_budget(small_lib):
    g = _gamma_steps(small_lib, 1)
    rng = stream_rng("mono", 3)
    gains = (rng.standard_normal(16) + 1j * rng.standard_normal(16)) / np.sqrt(2)
    ch = ChannelRealization(gains, 1.0, 0)
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
        ch = ChannelRealization(gains, 1.0, 0)
        qi = int(rng.integers(0, small_lib.epsilons.size))
        g = _gamma_steps(small_lib, qi)
        p_tot = float(rng.uniform(0.5, 60) * n_sc)
        _, _, r = allocate_power_modulation(ch, p_tot, g)
        assert r == _exhaustive_rate(gains, p_tot, g)


def test_loading_rejects_gamma_steps_not_strictly_increasing():
    # a repeated threshold makes a zero increment, and 0 * inf is NaN on a
    # zero-gain subcarrier
    ch = ChannelRealization(np.array([0.0 + 0j, 1.0 + 0j, 0.5 + 0j]), 1.0, 0)
    with pytest.raises(ValueError, match="strictly increasing"):
        allocate_power_modulation(ch, 100.0, np.array([0.0, 0.0, 1.0, 3.0, 6.0]))


def test_loading_reads_gamma_steps_as_one_vector(small_lib):
    g = _gamma_steps(small_lib, 1)
    ch = ChannelRealization(np.array([1.0 + 0j, 0.5 + 0j, 0.25 + 0j]), 1.0, 0)
    _assert_same_loading(allocate_power_modulation(ch, 50.0, g.tolist()), allocate_power_modulation(ch, 50.0, g))
    # a (5, 1) column used to end in a numpy broadcast error, a short list
    # in an AttributeError
    for bad in (g[:, None], g[:4].tolist(), np.append(g, 2 * g[-1]), g[1:], 5.0):
        with pytest.raises(ValueError, match=re.escape("gamma_steps must be [0, gamma(QPSK)")):
            allocate_power_modulation(ch, 50.0, bad)


def test_loading_on_a_rated_channel_refuses_what_an_unrated_one_does(small_lib):
    # a row of the kept record skips the row checks; any other input is checked
    stats, ch, p_tot = _random_setup(small_lib, stream_rng("rated-refusals", 0), snr_db=15.0)
    optimize_plan(small_lib, stats, ch, p_tot)
    assert allocator._LOADINGS[ch].p_tot == p_tot
    g = _gamma_steps(small_lib, 1)
    shrinking = np.array([0.0, g[1], 1.5 * g[1], g[3], g[4]])  # a second step half the first
    bad_rows = [
        ("never shrink", shrinking),
        ("strictly increasing", np.array([0.0, g[1], g[1], g[3], g[4]])),
        ("strictly increasing", g[::-1] - g[-1]),
        (re.escape("gamma_steps must be [0, gamma(QPSK)"), g[:4]),
        (re.escape("gamma_steps must be [0, gamma(QPSK)"), g[None, :]),
        (re.escape("gamma_steps must be [0, gamma(QPSK)"), np.append(g, 2 * g[-1])),
        (re.escape("gamma_steps must be [0, gamma(QPSK)"), g + 1.0),
    ]
    for unrated in (False, True):
        on = dataclasses.replace(ch) if unrated else ch
        for message, bad in bad_rows:
            for row in (bad, bad.tolist()):
                with pytest.raises(ValueError, match=message):
                    allocate_power_modulation(on, p_tot, row)
        for budget in (np.nan, 0.0, -p_tot):
            with pytest.raises(ValueError, match="p_tot must be positive"):
                allocate_power_modulation(on, budget, g)
    # a library row as a list or another dtype is checked and loads as the row does
    want = allocate_power_modulation(dataclasses.replace(ch), p_tot, g)
    for row in (g, g.tolist(), g.astype(np.longdouble), tuple(g)):
        _assert_same_loading(allocate_power_modulation(ch, p_tot, row), want)


def test_loading_grants_the_first_ties_at_the_last_cost_taken():
    # six costs of 1 and a budget for two: the greedy raises subcarrier 0
    # twice, as ties go to the lower subcarrier, then to the lower step
    g = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
    ch = ChannelRealization(np.ones(3, dtype=np.complex128), 1.0, 0)
    for budget, want in ((2.0, [4, 0, 0]), (3.0, [4, 2, 0]), (6.0, [4, 4, 4])):
        got = allocate_power_modulation(ch, budget, g)
        _assert_same_loading(got, _looped_loading(ch, budget, g))
        assert got[0].tolist() == want


def _looped_loading(ch, p_tot, gamma_steps):
    """allocate_power_modulation by its definition: one cheapest increment at a time."""
    inv_gain = ch.noise_var / np.square(np.abs(ch.gains))
    increments = np.diff(gamma_steps)
    steps = np.zeros(ch.n_sc, dtype=np.int64)
    delta_p = increments[0] * inv_gain
    used = 0.0
    while True:
        k = int(np.argmin(delta_p))  # ties go to the lowest subcarrier
        cost = delta_p[k]
        if not np.isfinite(cost) or used + cost > p_tot:
            break
        used += cost
        steps[k] += 1
        delta_p[k] = increments[steps[k]] * inv_gain[k] if steps[k] < increments.size else np.inf
    modulations = steps * 2
    powers = np.where(steps > 0, gamma_steps[steps] * inv_gain, 0.0)
    return modulations, powers, int(modulations.sum())


def _assert_same_loading(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])  # bit for bit: no tolerance
    assert got[2] == want[2]


# dyadic steps keep every increment and its difference exact, so the steps
# pass the exact never-shrink test; equal picks make ties inside a
# subcarrier's step sequence
_DYADIC_INCREMENTS = st.lists(
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]), min_size=4, max_size=4
).map(sorted)
# repeated magnitudes make ties across subcarriers; 0 is a dead subcarrier
_GAIN_MAGNITUDES = st.sampled_from([0.0, 0.25, 0.5, 0.8, 1.0, 1.3])


@settings(max_examples=200, deadline=None)
@given(
    mags=st.lists(_GAIN_MAGNITUDES, min_size=1, max_size=12),
    increments=_DYADIC_INCREMENTS,
    noise_var=st.sampled_from([1.0, 0.7]),
    budget=st.one_of(
        st.floats(min_value=1e-3, max_value=2e3, allow_nan=False),
        st.integers(min_value=0, max_value=48),  # index of a cumulative-sum boundary
    ),
)
def test_sorted_loading_equals_greedy_loop(mags, increments, noise_var, budget):
    gamma_steps = np.concatenate(([0.0], np.cumsum(increments)))
    assert gamma_increments_convex(gamma_steps)
    ch = ChannelRealization(np.array(mags, dtype=np.complex128), noise_var, 0)
    if isinstance(budget, int):
        with np.errstate(divide="ignore"):
            inv_gain = noise_var / np.square(np.abs(ch.gains))
        cost = np.sort((np.diff(gamma_steps)[None, :] * inv_gain[:, None]).ravel())
        spent = np.cumsum(cost[np.isfinite(cost)])
        budget = float(spent[min(budget, spent.size - 1)]) if spent.size else 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        _assert_same_loading(
            allocate_power_modulation(ch, budget, gamma_steps), _looped_loading(ch, budget, gamma_steps)
        )


def test_sorted_loading_equals_greedy_loop_on_library_rows(small_lib):
    rng = stream_rng("sorted-loading", 0)
    for _ in range(40):
        n_sc = int(rng.integers(1, 64))
        gains = (rng.standard_normal(n_sc) + 1j * rng.standard_normal(n_sc)) / np.sqrt(2)
        ch = ChannelRealization(gains, 1.0, 0)
        g = _gamma_steps(small_lib, int(rng.integers(small_lib.epsilons.size)))
        assert gamma_increments_convex(g)
        p_tot = float(rng.uniform(0.1, 80.0) * n_sc)
        _assert_same_loading(allocate_power_modulation(ch, p_tot, g), _looped_loading(ch, p_tot, g))


@pytest.mark.parametrize(
    "row, message",
    [
        ([np.nan, 1.0, 2.0, 3.0, 4.0], "must be \\[0, gamma"),
        ([-np.inf, 1.0, 2.0, 3.0, 4.0], "must be \\[0, gamma"),
        ([0.0, np.nan, 2.0, 3.0, 4.0], "strictly increasing"),
        ([0.0, 1.0, 2.0, 3.0, np.nan], "strictly increasing"),
        ([0.0, 1.0, np.inf, np.inf, np.inf], "strictly increasing"),  # inf - inf is NaN
        ([0.0, -1e308, 1e308, 1.5e308, 1.7e308], "strictly increasing"),  # an increment overflows
        ([0.0, 1.0, 3.0, 4.0, np.inf], "never shrink"),
        ([0.0, 1e308, 1.5e308, 1.7e308, 1.75e308], "never shrink"),
        ([0.0, 1.0, 2.0, 3.0, np.inf], None),  # an infinite last step is never taken
    ],
)
def test_loading_checks_nan_and_inf_steps_in_order_and_silently(row, message):
    ch = ChannelRealization(np.array([1.0 + 0j, 0.5 + 0j, 0j]), 1.0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if message is None:
            modulations, powers, r = allocate_power_modulation(ch, 1e6, np.array(row))
            assert modulations.tolist() == [6, 6, 0] and r == 12 and np.isfinite(powers).all()
        else:
            with pytest.raises(ValueError, match=message):
                allocate_power_modulation(ch, 1e6, np.array(row))


def test_loading_rejects_shrinking_increments():
    # increments (1, 0.5, 1.5, 3): the sorted prefix would grant both cheap
    # second steps where the greedy must first buy a first step, so such a
    # vector is refused rather than loaded
    g = np.array([0.0, 1.0, 1.5, 3.0, 6.0])
    assert not gamma_increments_convex(g)
    ch = ChannelRealization(np.array([1.0 + 0j, np.sqrt(1 / 0.9) + 0j]), 1.0, 0)
    assert list(_looped_loading(ch, 1.0, g)[0]) == [0, 2]
    with pytest.raises(ValueError, match="never shrink"):
        allocate_power_modulation(ch, 1.0, g)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0, np.inf]), max_size=30),
    data=st.data(),
)
def test_smallest_equals_stable_argsort_prefix(values, data):
    # few distinct values make large tie groups at the cut
    values = np.array(values)
    k = data.draw(st.integers(0, values.size + 2))
    got = allocator._smallest(values, k)
    want = np.sort(np.argsort(values, kind="stable")[:k])
    assert np.array_equal(got, want)
    if 0 < k <= values.size:
        assert np.array_equal(allocator._smallest(values, k, np.sort(values)[k - 1]), want)


def _affordable_by_mask(ordered, p_tot):
    """The fitting prefix as the first cost that is infinite or whose running sum exceeds p_tot."""
    fits = np.isfinite(ordered) & (np.cumsum(ordered, axis=-1) <= p_tot)
    return np.where(fits.all(axis=-1), fits.shape[-1], fits.argmin(axis=-1))


# few distinct costs make ties; 1e308 makes a finite cost whose running sum overflows
_COSTS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, 1e308, np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 4),
    width=st.integers(1, 12),
    data=st.data(),
)
def test_affordable_equals_the_mask_rule(rows, width, data):
    costs = data.draw(st.lists(_COSTS, min_size=rows * width, max_size=rows * width))
    ordered = np.sort(np.array(costs).reshape(rows, width), axis=1)  # NaN sorts last
    with np.errstate(invalid="ignore", over="ignore"):
        sums = np.cumsum(ordered, axis=1)
    # the planner refuses a NaN budget before rating, so budgets sit at the other sums
    at = float(data.draw(st.sampled_from([*sums[~np.isnan(sums)], 1.0])))
    budget = data.draw(st.sampled_from([
        at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf), np.inf,
        data.draw(st.floats(min_value=1e-3, max_value=20.0)),
    ]))
    with np.errstate(invalid="ignore", over="ignore"):
        want = _affordable_by_mask(ordered, budget)
        assert np.array_equal(allocator._affordable(ordered, budget), want)
        for r in range(rows):  # a single row, as the loading passes it
            assert allocator._affordable(ordered[r], budget) == want[r]


def _stub_library(increments):
    """What _rate_targets reads of a library, with any step table: one target per row."""
    increments = np.array(increments, dtype=np.float64)
    steps = np.concatenate((np.zeros((increments.shape[0], 1)), np.cumsum(increments, axis=1)), axis=1)
    return SimpleNamespace(
        step_table=lambda: (steps, np.diff(steps, axis=1)),
        digest=lambda: "stub",
        distortion_table=lambda: np.full((steps.shape[0], 1), 0.5),  # serves variance 1 at depth 1
    )


def _loading_bytes(loading):
    """A loading's three outputs, the arrays as dtype and bytes."""
    modulations, powers, bits = loading
    return modulations.dtype.str, modulations.tobytes(), powers.dtype.str, powers.tobytes(), type(bits), bits


@contextlib.contextmanager
def _prefix_calls():
    """The list of the _prefixes calls made inside the block, one argument tuple per call."""
    calls, prefixes = [], allocator._prefixes

    def counting(*args):
        calls.append(args)
        return prefixes(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(allocator, "_prefixes", counting)
        yield calls


def _assert_rating_loads_every_target(lib, ch, budget):
    stats = LatentStats(np.zeros(1), np.ones(1))
    with np.errstate(divide="ignore", invalid="ignore"):
        _, r_sym = allocator._rate_targets(lib, stats, ch, budget, 0.4)
        assert ch in allocator._LOADINGS
        unrated = dataclasses.replace(ch)  # the same channel, with no record of the rating
        for qi, steps in enumerate(lib.step_table()[0]):
            rated = allocate_power_modulation(ch, budget, steps)
            assert r_sym[qi] == rated[2], (qi, budget)
            want = _loading_bytes(allocate_power_modulation(unrated, budget, steps))
            assert _loading_bytes(rated) == want
            # the row's loading is kept now: a later call returns copies of it
            rated[0][:], rated[1][:] = 2, 1.0
            with _prefix_calls() as computed:
                assert _loading_bytes(allocate_power_modulation(ch, budget, steps)) == want
            assert computed == []
        # a rating on other stats at this budget and step table reads r_sym
        with _prefix_calls() as computed:
            again = allocator._rate_targets(lib, LatentStats(np.zeros(2), np.ones(2)), ch, budget, 0.4)[1]
        assert computed == [] and again.tolist() == r_sym.tolist()
        # another step table searches again, and its record replaces this one
        other = _stub_library(2.0 * lib.step_table()[1])
        with _prefix_calls() as computed:
            doubled = allocator._rate_targets(other, stats, ch, budget, 0.4)[1]
            assert allocator._rate_targets(lib, stats, ch, budget, 0.4)[1].tolist() == r_sym.tolist()
        assert len(computed) == 2
        assert doubled.tolist() == allocator._rate_targets(other, stats, unrated, budget, 0.4)[1].tolist()


# rows in any order, so the last target is not always the cheapest
_STEP_TABLES = st.lists(_DYADIC_INCREMENTS, min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(
    rows=_STEP_TABLES,
    mags=st.lists(_GAIN_MAGNITUDES, min_size=1, max_size=16),
    noise_var=st.sampled_from([1.0, 0.7]),
    data=st.data(),
)
def test_rating_counts_what_the_loading_grants(rows, mags, noise_var, data):
    lib = _stub_library(rows)
    ch = ChannelRealization(np.array(mags, dtype=np.complex128), noise_var, 0)
    # a budget on a running sum of some target's sorted costs, or next to it
    qi = data.draw(st.integers(0, len(rows) - 1))
    with np.errstate(divide="ignore"):
        inv_gain = noise_var / np.square(np.abs(ch.gains))
    cost = np.sort((lib.step_table()[1][qi][None, :] * inv_gain[:, None]).ravel())
    sums = np.cumsum(cost[np.isfinite(cost)])
    at = float(data.draw(st.sampled_from(sums.tolist()))) if sums.size else 1.0
    budget = data.draw(st.sampled_from([
        at, float(np.nextafter(at, 0.0)), float(np.nextafter(at, np.inf)), np.inf,
        data.draw(st.floats(min_value=1e-3, max_value=2e3)),
    ]))
    _assert_rating_loads_every_target(lib, ch, budget)


def test_rating_reads_the_record_of_an_equal_step_table_and_not_of_a_changed_one(small_lib):
    stats, ch, p_tot = _random_setup(small_lib, stream_rng("equal-steps", 0), snr_db=15.0)
    r_sym = allocator._rate_targets(small_lib, stats, ch, p_tot, 0.4)[1]
    # a derived library has its own step table array, with equal rows
    twin = dataclasses.replace(small_lib)
    assert twin.step_table()[0] is not small_lib.step_table()[0]
    with _prefix_calls() as computed:
        assert allocator._rate_targets(twin, stats, ch, p_tot, 0.4)[1].tolist() == r_sym.tolist()
    assert computed == []
    # the record keeps a copy of a writable table, so an edit to it is a new table
    lib, stats = _stub_library(small_lib.step_table()[1]), LatentStats(np.zeros(1), np.ones(1))
    ch = dataclasses.replace(ch)
    allocator._rate_targets(lib, stats, ch, p_tot, 0.4)
    lib.step_table()[0][:, 1:] *= 2.0
    with _prefix_calls() as computed:
        got = allocator._rate_targets(lib, stats, ch, p_tot, 0.4)[1]
    assert len(computed) == 1
    assert got.tolist() == allocator._rate_targets(lib, stats, dataclasses.replace(ch), p_tot, 0.4)[1].tolist()


def test_rating_redoes_a_row_whose_prefix_fills_the_loosest_targets_width(monkeypatch):
    # the last target costs the most, so the first one's prefix runs past the
    # last one's and its row is sorted and summed again in full
    lib = _stub_library([[0.25, 0.5, 0.5, 1.0], [1.0, 2.0, 4.0, 4.0]])
    rng = stream_rng("rating-redo", 0)
    ch = ChannelRealization(rng.standard_normal(32) + 1j * rng.standard_normal(32), 1.0, 0)
    stats = LatentStats(np.zeros(1), np.ones(1))
    shapes, affordable = [], allocator._affordable

    def recording(ordered, p_tot):
        shapes.append(ordered.shape)
        return affordable(ordered, p_tot)

    monkeypatch.setattr(allocator, "_affordable", recording)
    for budget in (0.5, 5.0, 40.0, 400.0):
        shapes.clear()
        allocator._rate_targets(lib, stats, ch, budget, 0.4)
        # the loosest row, the head of the other row, the other row in full
        assert len(shapes) == 3 and shapes[0] == shapes[2] == (128,) and shapes[1][0] == 1
        _assert_rating_loads_every_target(lib, ch, budget)


def test_a_loading_reads_the_rating_only_for_the_call_it_rated(small_lib):
    stats, drawn, p_tot = _random_setup(small_lib, stream_rng("loading-record", 0), snr_db=15.0)
    own = drawn.gains.copy()
    steps = small_lib.step_table()[0]

    def planned():
        ch = ChannelRealization(own, drawn.noise_var, drawn.seed)
        row = steps[optimize_plan(small_lib, stats, ch, p_tot).eps_index]
        with _prefix_calls() as computed:
            kept = _loading_bytes(allocate_power_modulation(ch, p_tot, row))
        assert computed == []  # the plan's own call reads the rating's record
        return ch, row, kept

    ch, row, kept = planned()
    assert kept == _loading_bytes(allocate_power_modulation(dataclasses.replace(ch), p_tot, row))
    # the gains are a read-only copy, and the caller's array stays its own
    with pytest.raises(ValueError, match="read-only"):
        ch.gains[0] = 1.0
    own[0] += 1.0
    assert ch.gains[0] == drawn.gains[0]
    own[0] = drawn.gains[0]

    # r_sym follows the channel, budget and step table alone: a re-plan on
    # the rated channel, on these stats or new ones, searches no prefix and
    # gives the bytes of a plan on an unrated copy of the channel
    for source in (stats, LatentStats(stats.means, 0.5 * stats.variances)):
        with _prefix_calls() as computed:
            got = serialize_plan(optimize_plan(small_lib, source, ch, p_tot))
        assert computed == []
        assert got == serialize_plan(optimize_plan(small_lib, source, dataclasses.replace(ch), p_tot))
    # the arrays a kept loading is returned in are the caller's own
    want = serialize_plan(optimize_plan(small_lib, stats, dataclasses.replace(ch), p_tot))
    modulations, powers, _ = allocate_power_modulation(ch, p_tot, row)
    modulations[:], powers[:] = 8, 0.0
    assert _loading_bytes(allocate_power_modulation(ch, p_tot, row)) == kept
    assert serialize_plan(optimize_plan(small_lib, stats, ch, p_tot)) == want
    # another budget, or a library with another step table (its one target
    # is small_lib's second), rates the channel again
    epsilons, gamma = small_lib.epsilons[1:], small_lib.gamma_thresholds[:, 1:]
    cells = {(b, 0): small_lib.cells[(b, 1)] for b in range(1, small_lib.b_max + 1)}
    second = dataclasses.replace(small_lib, epsilons=epsilons, cells=cells, gamma_thresholds=gamma)
    for lib, budget in ((small_lib, 2.0 * p_tot), (second, p_tot)):
        with _prefix_calls() as computed:
            got = serialize_plan(optimize_plan(lib, stats, ch, budget))
        assert len(computed) == 1, budget
        assert got == serialize_plan(optimize_plan(lib, stats, dataclasses.replace(ch), budget))

    def another_budget(ch, row):
        return ch, 2.0 * p_tot, row

    def another_row(ch, row):
        assert (2.0 * row).tolist() not in steps.tolist()
        return ch, p_tot, 2.0 * row

    for change in (another_budget, another_row):
        ch, p, r = change(*planned()[:2])
        record = allocator._LOADINGS[ch]
        with _prefix_calls() as computed:
            got = _loading_bytes(allocate_power_modulation(ch, p, r))
        assert len(computed) == 1, change.__name__  # computed, not read
        assert allocator._LOADINGS[ch] is record, change.__name__  # the call's own record is not kept
        assert got == _loading_bytes(allocate_power_modulation(dataclasses.replace(ch), p, r)), change.__name__
        assert got != kept, change.__name__  # the record's answer would be wrong here

    # the record cannot outlive the noise_var or gains it was made for: a
    # planned realization's noise_var and gains can be neither assigned nor
    # written in place
    ch = planned()[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ch.noise_var *= 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ch.gains = 0.5 * ch.gains
    with pytest.raises(ValueError, match="read-only"):
        ch.gains *= 0.5


# ---------------------------------------------------------------------------
# target selection
# ---------------------------------------------------------------------------


def test_select_single_feasible():
    assert select_ber_target([100, 100], [0, 50]) == (1, 2)


def test_select_ratio_and_ceiling():
    got = select_ber_target([100, 120], [40, 60])
    assert got == (1, 2)  # 2.0 < 2.5


def test_select_tie_prefers_smaller_target():
    assert select_ber_target([100, 100], [50, 50])[0] == 0
    # past an infeasible first target, the tie still goes to the smaller one
    assert select_ber_target([100, 100, 100], [0, 50, 50])[0] == 1


def test_select_zero_bits_empty_marker():
    assert select_ber_target([0, 0], [0, 10]) == (0, 0)


def test_select_all_infeasible_raises():
    with pytest.raises(NoFeasibleRateError):
        select_ber_target([5, 5], [0, 0])


@pytest.mark.parametrize(
    "b_lat, r_sym",
    [
        ([2.5, 3], [2, 2]),  # used to truncate 2.5 to 2
        ([-1, 4], [2, 2]),  # used to return (0, 0), nothing to send
        ([2, 3], [2, -2]),
        ([True, 3], [2, 2]),
        (np.array([2.0, 3.0]), np.array([2, 2])),
        ([np.int64(2), 3], [2, 2]),
    ],
)
def test_select_refuses_counts_that_are_not_ints_at_least_zero(b_lat, r_sym):
    with pytest.raises(ValueError, match="must hold only ints >= 0"):
        select_ber_target(b_lat, r_sym)


def test_select_takes_int_arrays_and_lists_alike():
    b_lat, r_sym = np.array([100, 120, 90], dtype=np.int64), np.array([40, 60, 0], dtype=np.int64)
    assert select_ber_target(b_lat, r_sym) == select_ber_target([100, 120, 90], [40, 60, 0]) == (1, 2)
    for b_lat, r_sym in (([], []), ([1, 2], [1]), (5, 2), ([[2, 3]], [[2, 2]])):
        with pytest.raises(ValueError, match="one \\(b_lat, r_sym\\) pair per target"):
            select_ber_target(b_lat, r_sym)


@pytest.mark.parametrize(
    "b_lat, r_sym",
    [
        (np.array([True, True]), np.array([2, 2])),
        (np.array([2, 3]), np.array([True, False])),
        (np.array([2.0, 3.0]), np.array([2, 2])),
        (np.array([2, 3]), np.array([2.0, 2.0])),
        (np.array([2, "3"], dtype=object), np.array([2, 2])),
        (np.array([2, 3]), np.array([2, 2.5], dtype=object)),
        (np.array([-1, 4]), np.array([2, 2])),
        (np.array([2, 3], dtype=np.int8), np.array([2, -2], dtype=np.int8)),
    ],
)
def test_select_refuses_bool_float_object_and_negative_int_arrays(b_lat, r_sym):
    # an int array is checked by its dtype and one minimum, any other array entry by entry
    with pytest.raises(ValueError, match="must hold only ints >= 0"):
        select_ber_target(b_lat, r_sym)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
def test_select_takes_int_and_uint_arrays_of_any_width(dtype):
    b_lat, r_sym = np.array([100, 120, 90], dtype=dtype), np.array([40, 60, 0], dtype=dtype)
    assert select_ber_target(b_lat, r_sym) == select_ber_target([100, 120, 90], [40, 60, 0]) == (1, 2)
    assert select_ber_target(np.zeros(2, dtype=dtype), np.zeros(2, dtype=dtype)) == (0, 0)


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


@pytest.mark.parametrize(
    "bits, capacity, message",
    [
        # these used to refine to [3, 9, 0, 5], [2, 4, -3, 4], [2, 3, 2, 4]
        # (1.7 truncated to 1), [3, 4, 0, 4] and [3, 6, 2]
        ([1, 9, 0, 2], 17, "bit depth outside 0..8"),
        ([1, 1, -3, 2], 7, "bit depth outside 0..8"),
        ([1.7, 1, 2, 2], 11, "bit depths must be ints, got array kind 'f'"),
        ([True, True, False, True], 11, "bit depths must be ints, got array kind 'b'"),
        ([1, 1, 2], 11, "need one bit depth per element"),
        # 8.5 used to raise a TypeError from np.partition, True to count as
        # 1; a numpy int is not a plain int under the same rules
        ([1, 1, 2, 2], 8.5, "capacity must be an int, got 8.5"),
        ([0, 0, 0, 0], True, "capacity must be an int, got True"),
        ([1, 1, 2, 2], np.int64(11), "capacity must be an int"),
    ],
)
def test_refine_refuses_depths_and_capacities_it_cannot_refine(bits, capacity, message):
    lib = load_library(FIXTURE_LIBRARY)
    stats = LatentStats(np.zeros(4), np.array([0.5, 2.0, 0.05, 3.0]))
    with pytest.raises(ValueError, match=re.escape(message)):
        refine_bit_allocation(lib, stats, bits, 3, capacity)


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
        if not np.all(np.diff(small_lib.distortion_column(qi), 2) >= -1e-12):
            continue
        bits, total = minimum_bit_allocation(small_lib, stats, qi, 0.4)
        residual = int(rng.integers(0, 7))
        refined, dummy = refine_bit_allocation(small_lib, stats, bits, qi, total + residual)
        colq = np.concatenate(([1.0], small_lib.distortion_column(qi)))
        got = float(variances @ colq[refined])
        want = _brute_force_refinement(small_lib, variances, bits, qi, residual)
        assert got == pytest.approx(want, abs=1e-12)


def _column_lib(col):
    """Stand-in library with one distortion column (D(1), ..., D(b_max))."""
    col = np.asarray(col, dtype=np.float64)
    return SimpleNamespace(b_max=col.size, distortion_column=lambda qi: col)


def _looped_refinement(lib, variances, bits, residual, qi=0):
    """refine_bit_allocation by its definition: one bit per round to the largest gain."""
    col = np.concatenate(([1.0], lib.distortion_column(qi)))
    bits = np.array(bits, dtype=np.int64)
    eligible = (bits >= 1) & (bits < lib.b_max)
    while residual > 0 and eligible.any():
        gain = np.where(eligible, variances * (col[bits] - col[np.minimum(bits + 1, lib.b_max)]), -np.inf)
        i = int(np.argmax(gain))  # ties go to the lowest index
        bits[i] += 1
        residual -= 1
        eligible[i] = bits[i] < lib.b_max
    return bits, residual


# dyadic decrements in any order, so the column need be neither convex nor
# monotone (zero and negative decrements); repeats make exact ties, and the
# 2^-44 offsets near ties that stay exact in the column's sums
_DECREMENTS = st.sampled_from(
    [1 / 4, 1 / 8, 1 / 8 + 2.0**-44, 1 / 8 - 2.0**-44, 1 / 16, 1 / 64, 0.0, -1 / 32, -1 / 64]
)
# repeated variances make ties across elements, 1 + 2^-44 near ties
_REFINE_VARIANCES = st.sampled_from([0.0, 0.5, 1.0, 1.0 + 2.0**-44, 2.0, 3.0, 7.5])


@settings(max_examples=400, deadline=None)
@given(decrements=st.lists(_DECREMENTS, min_size=1, max_size=8), data=st.data())
def test_top_k_refinement_equals_greedy_loop(decrements, data):
    col = 1.0 - np.cumsum(decrements)
    b_max = col.size
    lib = _column_lib(col)
    n = data.draw(st.integers(1, 10))
    variances = np.array(data.draw(st.lists(_REFINE_VARIANCES, min_size=n, max_size=n)))
    bits = np.array(data.draw(st.lists(st.integers(0, b_max), min_size=n, max_size=n)), dtype=np.int64)
    headroom = int(np.sum(np.where(bits >= 1, b_max - bits, 0)))
    residual = data.draw(st.integers(0, headroom + 5))  # past the headroom leaves dummies
    stats = LatentStats(np.zeros(n), variances)
    got_bits, got_dummy = refine_bit_allocation(lib, stats, bits, 0, int(bits.sum()) + residual)
    want_bits, want_dummy = _looped_refinement(lib, variances, bits, residual)
    assert np.array_equal(got_bits, want_bits)
    assert got_dummy == want_dummy


def test_top_k_refinement_equals_greedy_loop_on_library_columns(small_lib):
    rng = stream_rng("top-k-refine", 0)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        variances = np.exp(rng.uniform(np.log(0.05), np.log(sigma_max(small_lib) ** 2), n))
        stats = LatentStats(np.zeros(n), variances)
        qi = int(rng.integers(small_lib.epsilons.size))
        bits, total = minimum_bit_allocation(small_lib, stats, qi, 0.4)
        residual = int(rng.integers(0, 3 * n))
        want = _looped_refinement(small_lib, variances, bits, residual, qi)
        got = refine_bit_allocation(small_lib, stats, bits, qi, total + residual)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]


def _lib_with_column(lib, col):
    cells = dict(lib.cells)
    for b, d in enumerate(col, start=1):
        cells[(b, 0)] = dataclasses.replace(cells[(b, 0)], normalized_distortion=d)
    return dataclasses.replace(lib, cells=cells)


@pytest.mark.parametrize(
    "col, variances, want",
    [
        # the second bit is worth more than the first: ranking plain gains
        # would split the two bits, the greedy (and its running-minimum keys)
        # gives both to the element with the larger first gain
        ((0.6, 0.5, 0.0), (1.0, 1.2), [1, 3]),
        # non-convex by 2^-44 only, which the build audit's 1e-12 convexity
        # tolerance admits; the tie on the first bit goes to element 0, whose second bit
        # then beats element 1's first
        ((0.5, 0.375, 0.25 - 2.0**-44), (1.0, 1.0), [3, 1]),
    ],
)
def test_nonconvex_column_takes_the_closed_form(small_lib, col, variances, want):
    lib = _lib_with_column(small_lib, col)
    stats = LatentStats(np.zeros(2), np.array(variances))
    bits = np.array([1, 1])
    refined, dummy = refine_bit_allocation(lib, stats, bits, 0, 4)
    assert list(refined) == want and dummy == 0
    assert np.array_equal(refined, _looped_refinement(lib, stats.variances, bits, 2)[0])


# ---------------------------------------------------------------------------
# bit mapping
# ---------------------------------------------------------------------------


def test_mapping_single_qpsk_subcarrier():
    symbol, subcarrier, position = build_bit_mapping(np.array([0, 2, 0]), 1)
    assert list(symbol) == [0, 0]
    assert list(subcarrier) == [1, 1]
    assert list(position) == [0, 1]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from((0, 2, 4, 6, 8)), max_size=40), st.integers(1, 3))
def test_mapping_positions_count_up_per_subcarrier(modulations, t_sym):
    _, _, position = build_bit_mapping(np.array(modulations, dtype=np.int64), t_sym)
    per_symbol = [pos for m in modulations for pos in range(m)]
    assert position.dtype == np.int64
    assert position.tolist() == per_symbol * t_sym


def test_mapping_is_bijection():
    m = np.array([2, 0, 4, 8, 0, 6])
    symbol, subcarrier, position = build_bit_mapping(m, 3)
    assert symbol.size == 3 * int(m.sum())
    triples = set(zip(symbol.tolist(), subcarrier.tolist(), position.tolist()))
    assert len(triples) == symbol.size
    for t, k, pos in triples:
        assert 0 <= t < 3 and m[k] > 0 and 0 <= pos < m[k]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from((0, 2, 4, 6, 8)), max_size=40), st.integers(0, 3))
def test_mapping_is_a_symbol_major_bijection_onto_active_slots(modulations, t_sym):
    m = np.array(modulations, dtype=np.int64)
    symbol, subcarrier, position = build_bit_mapping(m, t_sym)
    assert all(a.dtype == np.int64 for a in (symbol, subcarrier, position))
    assert symbol.size == subcarrier.size == position.size == t_sym * int(m.sum())
    # symbol-major, subcarriers ascending within a symbol, MSB first within a subcarrier
    want = [(t, k, pos) for t in range(t_sym) for k in range(m.size) for pos in range(m[k])]
    triples = list(zip(symbol.tolist(), subcarrier.tolist(), position.tolist()))
    assert triples == want
    # no bit on a silent subcarrier, every position inside its order, no slot twice
    assert np.all(m[subcarrier] > 0)
    assert np.all((position >= 0) & (position < m[subcarrier]))
    assert len(set(triples)) == len(triples)


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
    assert plan.dummy_bits == 0
    assert [a.size for a in build_bit_mapping(plan.modulations, plan.t_sym)] == [0, 0, 0]
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


def test_default_plan_bytes_are_pinned(default_lib):
    stats = draw_stats(SyntheticSourceConfig(n_latents=4096), sigma_max(default_lib), stream_rng("source", 0, 0))
    ch = realize_channel(exponential_pdp(300.0), 512, 30e3, seed=0)
    h = hashlib.sha256()
    for snr_db in (5.0, 10.0, 15.0):
        plan = optimize_plan(default_lib, stats, ch, 512 * 10.0 ** (snr_db / 10.0))
        h.update(serialize_plan(plan).encode("utf-8"))
    assert h.hexdigest() == DEFAULT_PLANS_SHA256


def test_plan_with_an_exactly_zero_gain_warns_nothing_and_keeps_its_bytes():
    # the zero gain's inverse gain is inf: it never takes a step, and its
    # power is 0 without a 0 * inf; the sha is the plan made before, when the
    # rating and the loading warned
    lib = load_library(FIXTURE_LIBRARY)
    stats = LatentStats(np.zeros(6), np.array([0.5, 2.0, 0.05, 3.0, 1.0, 0.7]))
    ch = ChannelRealization([1, 0, 0.5j], 1.0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = optimize_plan(lib, stats, ch, 30.0, seed=1)
        modulations, powers, _ = allocate_power_modulation(ch, 30.0, _gamma_steps(lib, plan.eps_index))
    assert plan.modulations.tolist() == modulations.tolist() == [4, 0, 2]
    assert plan.powers.tobytes() == powers.tobytes() and powers[1] == 0.0
    digest = hashlib.sha256(serialize_plan(plan).encode("utf-8")).hexdigest()
    assert digest == "d079135fa7f63cadb9eb87ff7bc8d3542e22edd0ed6a0840df5b46fbfe6bd392"


def test_plan_infeasible_when_power_hopeless(small_lib):
    stats = LatentStats(np.zeros(4), np.full(4, 1.0))
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=2)
    with pytest.raises(NoFeasibleRateError):
        optimize_plan(small_lib, stats, ch, 1e-9)


def test_validate_plan_catches_power_violation(small_lib):
    rng = stream_rng("plan-bad", 0)
    stats, ch, p_tot = _random_setup(small_lib, rng)
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    with pytest.raises(ValueError, match="power"):  # a NaN budget bounds nothing
        validate_plan(plan, small_lib, stats, float("nan"))
    with pytest.raises(ValueError, match="power"):
        validate_plan(dataclasses.replace(plan, powers=plan.powers * 4.0), small_lib, stats, p_tot)


def test_plan_arrays_are_read_only(small_lib):
    stats, ch, p_tot = _random_setup(small_lib, stream_rng("plan-read-only", 0))
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    for name in ("bits", "modulations", "powers"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(plan, name)[0] = 1
    # identity-keyed, so a kept frame layout is never another plan's
    assert plan != dataclasses.replace(plan)


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
    with pytest.raises(ValueError):
        validate_plan(dataclasses.replace(plan, bits=bad), small_lib, stats, p_tot)


def test_validate_plan_rejects_out_of_range_bit_depths(small_lib):
    rng = stream_rng("plan-bad3", 0)
    stats, ch, p_tot = _random_setup(small_lib, rng)
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    i = int(np.flatnonzero(stats.variances >= 0.4)[0])
    for depth in (-1, small_lib.b_max + 1):
        bits = plan.bits.copy()
        bits[i] = depth
        # keep the grid accounting exact
        bad = dataclasses.replace(plan, bits=bits, dummy_bits=plan.dummy_bits + int(plan.bits[i]) - depth)
        with pytest.raises(ValueError, match="bit depth outside"):
            validate_plan(bad, small_lib, stats, p_tot)


@pytest.mark.parametrize("order", [-2, 1, 3, 5, 7, 10])
def test_validate_plan_rejects_modulation_orders_off_the_qam_set(small_lib, order):
    stats, ch, p_tot = _random_setup(small_lib, stream_rng("plan-bad5", 0))
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    i = int(np.flatnonzero(plan.modulations)[0])
    modulations = plan.modulations.copy()
    modulations[i] = order
    # keep the grid accounting exact
    dummy_bits = plan.dummy_bits + plan.t_sym * (order - int(plan.modulations[i]))
    bad = dataclasses.replace(plan, modulations=modulations, dummy_bits=dummy_bits)
    with pytest.raises(ValueError, match="modulation order outside"):
        validate_plan(bad, small_lib, stats, p_tot)


@pytest.mark.parametrize("field", ["modulations", "powers"])
@pytest.mark.parametrize("change", ["one short", "one more"])
def test_validate_plan_rejects_modulations_and_powers_of_different_lengths(small_lib, field, change):
    stats, ch, p_tot = _random_setup(small_lib, stream_rng("plan-bad6", 0), snr_db=0.0)
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    # drop or add a silent subcarrier's entry, which moves no total
    silent = np.flatnonzero(plan.modulations == 0)
    assert silent.size and not plan.powers[silent].any()
    values = getattr(plan, field)
    changed = np.delete(values, silent[0]) if change == "one short" else np.append(values, 0)
    bad = dataclasses.replace(plan, **{field: changed})
    with pytest.raises(ValueError, match="one modulation order and one power per subcarrier"):
        validate_plan(bad, small_lib, stats, p_tot)


@pytest.mark.parametrize(
    "change, message",
    [
        # each keeps the bit accounting exact, so that check alone passes it:
        # run_trial sends nothing on the first and raises a TypeError on the
        # floats and the bool; a numpy int is not a plain int, as for capacity
        ({"t_sym": 0, "dummy_bits": -1060}, "dummy_bits must be an int >= 0, got -1060"),
        ({"t_sym": 1.0}, "t_sym must be an int >= 0, got 1.0"),
        ({"t_sym": True}, "t_sym must be an int >= 0, got True"),
        ({"t_sym": np.int64(1)}, "t_sym must be an int >= 0"),
        ({"dummy_bits": 0.0}, "dummy_bits must be an int >= 0, got 0.0"),
    ],
    ids=["no-symbols", "float-symbols", "bool-symbols", "numpy-symbols", "float-dummies"],
)
def test_validate_plan_refuses_symbol_and_dummy_counts_that_are_not_ints(change, message):
    lib = load_library(FIXTURE_LIBRARY)
    stats = draw_stats(SyntheticSourceConfig(n_latents=512), sigma_max(lib), stream_rng("source", 0, 0))
    plan = optimize_plan(lib, stats, realize_channel(exponential_pdp(300.0), 512, 30e3, seed=0), 5120.0)
    assert (plan.t_sym, plan.b_lat, plan.dummy_bits) == (1, 1060, 0)
    validate_plan(plan, lib, stats, 5120.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        validate_plan(dataclasses.replace(plan, **change), lib, stats, 5120.0)


@pytest.mark.parametrize("power", [-1e-3, np.nan, np.inf])
def test_validate_plan_rejects_bad_powers(small_lib, power):
    rng = stream_rng("plan-bad4", 0)
    stats, ch, p_tot = _random_setup(small_lib, rng)
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    powers = plan.powers.copy()
    powers[int(np.argmin(plan.powers))] = power
    bad = dataclasses.replace(plan, powers=powers)
    with pytest.raises(ValueError, match="powers must be finite and nonnegative"):
        validate_plan(bad, small_lib, stats, p_tot)


# ---------------------------------------------------------------------------
# one-pass planning against one full solve per target
# ---------------------------------------------------------------------------


def _looped_plan(lib, stats, ch, p_tot, delta=0.4, seed=0):
    """optimize_plan as a full bit-depth and loading solve for every target."""
    points = []
    for qi in range(lib.epsilons.size):
        bits, b_lat = minimum_bit_allocation(lib, stats, qi, delta)
        modulations, powers, r_sym = allocate_power_modulation(ch, p_tot, _gamma_steps(lib, qi))
        points.append((bits, b_lat, modulations, powers, r_sym))
    if all(p[1] == 0 for p in points):
        eps_index, t_sym = 0, 0
    else:
        eps_index, best_ratio = None, math.inf
        for qi, (_, b_lat, _, _, r_sym) in enumerate(points):
            if r_sym > 0 and b_lat / r_sym < best_ratio:
                eps_index, best_ratio = qi, b_lat / r_sym
        if eps_index is None:
            raise NoFeasibleRateError(
                "no BER target achieves a positive symbol rate under the power budget"
            )
        t_sym = math.ceil(best_ratio)
    digests = {"library": lib.digest(), "stats": stats.digest(), "channel_seed": ch.seed}
    silent = np.zeros(ch.n_sc, dtype=np.int64)
    if t_sym == 0:
        bits, modulations, powers, dummy = np.zeros(stats.n, dtype=np.int64), silent, np.zeros(ch.n_sc), 0
    else:
        bits, b_lat, modulations, powers, r_sym = points[eps_index]
        dummy = t_sym * r_sym - b_lat
        if dummy > 0:
            bits, dummy = refine_bit_allocation(lib, stats, bits, eps_index, t_sym * r_sym)
    return AllocationPlan(
        eps_index=eps_index,
        epsilon_star=float(lib.epsilons[eps_index]),
        bits=bits,
        modulations=modulations,
        powers=powers,
        t_sym=t_sym,
        dummy_bits=int(dummy),
        seed=seed,
        digests=digests,
    )


def _outcome(plan_fn, *args, **kwargs):
    """serialize_plan bytes of the plan, or the type and message of what was raised."""
    try:
        return serialize_plan(plan_fn(*args, **kwargs))
    except (ValueError, InfeasibleTargetError, NoFeasibleRateError) as exc:
        return type(exc), str(exc)


def _assert_same_plans(lib, cases):
    for stats, ch, p_tot in cases:
        for scale in (0.02, 1.0, 30.0):
            want = _outcome(_looped_plan, lib, stats, ch, p_tot * scale, seed=5)
            assert _outcome(optimize_plan, lib, stats, ch, p_tot * scale, seed=5) == want


def _plan_cases(lib, label, count, n=48, n_sc=24):
    rng = stream_rng("one-pass", label)
    return [_random_setup(lib, rng, n=n, n_sc=n_sc, snr_db=float(rng.uniform(-5, 25))) for _ in range(count)]


def test_one_pass_plan_equals_per_target_solves_on_default_library(default_lib):
    _assert_same_plans(default_lib, _plan_cases(default_lib, 0, 6, n=512, n_sc=128))


def test_one_pass_plan_equals_per_target_solves_on_small_library(small_lib):
    _assert_same_plans(small_lib, _plan_cases(small_lib, 1, 30))


def test_one_pass_plan_equals_per_target_solves_on_non_monotone_column(small_lib):
    # D(2) > D(1): depths and refinement take their running-minimum closed forms
    lib = _lib_with_column(small_lib, (0.3, 0.35, 0.05))
    assert np.any(np.diff(lib.distortion_column(0)) > 0)
    _assert_same_plans(lib, _plan_cases(lib, 2, 30))


def test_no_plan_on_shrinking_gamma_steps(small_lib):
    # the thresholds of a target in [0.34476, 0.453) meet it, but their steps
    # shrink; no library holds such a column, so no plan can be rated on one
    grid = np.array([0.01, 0.35])
    gamma = np.array([[snr_threshold(m, e) for e in grid] for m in QAM_BITS])
    assert list(gamma_increments_convex(np.vstack((np.zeros(2), gamma)))) == [True, False]
    with pytest.raises(ValueError, match="shrink at target 0.35"):
        dataclasses.replace(small_lib, epsilons=grid, gamma_thresholds=gamma)


def _straddling_variance(lib):
    """A variance feasible at every target but the largest."""
    worst = lib.distortion_column(lib.epsilons.size - 1)[lib.b_max - 1]
    second = max(lib.distortion_column(qi)[lib.b_max - 1] for qi in range(lib.epsilons.size - 1))
    assert second < worst
    return 0.5 * ((1.0 / worst - 1.0) + (1.0 / second - 1.0))


@pytest.mark.parametrize("delta", [float("nan"), -0.4, float("inf"), -float("inf")])
def test_plans_refuse_a_delta_that_is_not_finite_and_nonnegative(small_lib, delta):
    # variances >= nan is all False: a NaN delta used to plan nothing
    # (t_sym 0, no bits) and validate_plan accepted that plan
    stats = LatentStats(np.zeros(3), np.array([0.2, 1.0, 2.0]))
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=2)
    match = f"delta must be a finite number >= 0, got {delta!r}"
    with pytest.raises(ValueError, match=re.escape(match)):
        optimize_plan(small_lib, stats, ch, 100.0, delta)
    plan = optimize_plan(small_lib, stats, ch, 100.0)
    with pytest.raises(ValueError, match=re.escape(match)):
        validate_plan(plan, small_lib, stats, 100.0, delta)
    # delta = 0 sends every element
    plan = optimize_plan(small_lib, stats, ch, 100.0, 0.0)
    validate_plan(plan, small_lib, stats, 100.0, 0.0)
    assert np.all(plan.bits > 0)


@pytest.mark.parametrize("p_tot", [100.0, 0.0, -1.0, 1e-9])
@pytest.mark.parametrize("infeasible", [None, "largest", "all", "nothing to send"])
def test_one_pass_plan_raises_what_per_target_solves_raise(small_lib, p_tot, infeasible):
    variances = np.array([0.2, 1.0, 2.0])
    if infeasible == "nothing to send":
        variances[:] = 0.2
    elif infeasible == "largest":
        variances[1] = _straddling_variance(small_lib)
    elif infeasible == "all":
        variances[1] = 1e6
    stats = LatentStats(np.zeros(3), variances)
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=2)
    want = _outcome(_looped_plan, small_lib, stats, ch, p_tot)
    assert _outcome(optimize_plan, small_lib, stats, ch, p_tot) == want
    if infeasible is None and p_tot == 1e-9:
        assert want[0] is NoFeasibleRateError
    elif infeasible == "largest" and p_tot > 0:
        assert want[0] is InfeasibleTargetError
    elif infeasible != "all" and p_tot <= 0:
        assert want == (ValueError, "p_tot must be positive")
    elif infeasible == "nothing to send":
        assert isinstance(want, str)


def test_optimize_plan_calls_each_stage_once(small_lib, monkeypatch):
    # the benchmark's layer figures wrap these module attributes; the bit
    # placement is derived where it is used, so planning never builds it
    stages = (
        "minimum_bit_allocation",
        "allocate_power_modulation",
        "select_ber_target",
        "refine_bit_allocation",
        "build_bit_mapping",
    )
    calls = {name: 0 for name in stages}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in stages:
        monkeypatch.setattr(allocator, name, counting(name, getattr(allocator, name)))
    rng = stream_rng("stage-calls", 0)
    stats, ch, p_tot = _random_setup(small_lib, rng, snr_db=15.0)
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    assert not plan.is_empty and plan.dummy_bits >= 0
    assert plan.b_lat > minimum_bit_allocation(small_lib, stats, plan.eps_index)[1]  # refined
    assert calls == {name: int(name != "build_bit_mapping") for name in stages}


# ---------------------------------------------------------------------------
# the rating a plan keeps on its stats
# ---------------------------------------------------------------------------


def _fresh(stats):
    """The same source as a new object, which has no kept rating."""
    return LatentStats(stats.means.copy(), stats.variances.copy())


@pytest.mark.parametrize("p_tot", [100.0, 0.0, -1.0, 1e-9])
@pytest.mark.parametrize("infeasible", [None, "largest", "all", "nothing to send"])
def test_plans_on_a_known_source_raise_and_plan_as_on_a_fresh_one(small_lib, p_tot, infeasible):
    variances = np.array([0.2, 1.0, 2.0])
    if infeasible == "nothing to send":
        variances[:] = 0.2
    elif infeasible == "largest":
        variances[1] = _straddling_variance(small_lib)
    elif infeasible == "all":
        variances[1] = 1e6
    stats = LatentStats(np.zeros(3), variances)
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=2)
    # a plan that completes keeps the rating; one that raises keeps nothing
    first = _outcome(optimize_plan, small_lib, stats, ch, 100.0)
    assert (stats in allocator._RATINGS) == isinstance(first, str)
    for _ in range(2):
        want = _outcome(optimize_plan, small_lib, _fresh(stats), ch, p_tot)
        assert _outcome(optimize_plan, small_lib, stats, ch, p_tot) == want


def test_a_second_plan_on_a_known_source_solves_no_depths(small_lib, monkeypatch):
    rng = stream_rng("kept-rating", 0)
    stats, ch, p_tot = _random_setup(small_lib, rng, snr_db=15.0)
    # other channels; target 1 wins up to 20 dB here, target 0 above
    blocks = [(ch, p_tot)] * 2 + [
        (realize_channel(exponential_pdp(300.0), 24, 30e3, seed=int(rng.integers(1 << 30))),
         24 * 10 ** (snr_db / 10.0))
        for snr_db in (0.0, 10.0, 30.0, 40.0)
    ]
    want = [serialize_plan(optimize_plan(small_lib, _fresh(stats), c, p)) for c, p in blocks]
    calls = []
    solve = allocator.minimum_bit_allocation

    def counting(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    monkeypatch.setattr(allocator, "minimum_bit_allocation", counting)
    got = []
    for c, p in blocks:
        got.append(serialize_plan(optimize_plan(small_lib, stats, c, p)))
        if len(got) == 2:
            assert calls == [1]  # the second plan on the source solves nothing
    assert got == want
    assert calls == [1, 0]  # depths are solved only for a target that has not won before


def _exact_fit_setup(lib):
    """Four one-bit elements on one subcarrier that affords 16-QAM at every target.

    b_lat = r_sym = 4 at both targets, so t_sym = 1 fills the grid and no bit is
    refined.
    """
    stats = LatentStats(np.zeros(4), np.full(4, 0.5))
    ch = ChannelRealization(np.array([1.0 + 0j]), 1.0, 0)
    p_tot = 0.5 * (lib.gamma_thresholds[1].max() + lib.gamma_thresholds[2].min())
    return stats, ch, p_tot


def test_plans_never_share_bits_with_the_kept_rating(small_lib):
    refined = _random_setup(small_lib, stream_rng("kept-bits", 0), snr_db=15.0)
    for stats, ch, p_tot in (refined, _exact_fit_setup(small_lib)):
        want = serialize_plan(optimize_plan(small_lib, _fresh(stats), ch, p_tot))
        for _ in range(3):
            plan = optimize_plan(small_lib, stats, ch, p_tot)
            assert serialize_plan(plan) == want
            with pytest.raises(ValueError, match="read-only"):
                plan.bits[:] = 99  # so the next plan on the source stays as it was
    exact = optimize_plan(small_lib, *_exact_fit_setup(small_lib))
    assert exact.t_sym == 1 and exact.dummy_bits == 0 and exact.bits.tolist() == [1] * 4


def test_kept_rating_follows_the_library_and_delta(small_lib):
    stats, ch, p_tot = _random_setup(small_lib, stream_rng("kept-key", 0), snr_db=15.0)
    other = _lib_with_column(small_lib, (0.3, 0.35, 0.05))
    assert other.digest() != small_lib.digest()
    for lib, delta in ((small_lib, 0.4), (other, 0.4), (small_lib, 0.1), (small_lib, 0.4), (other, 0.1)):
        want = _outcome(optimize_plan, lib, _fresh(stats), ch, p_tot, delta)
        assert _outcome(optimize_plan, lib, stats, ch, p_tot, delta) == want
        assert allocator._RATINGS[stats].key == (lib.digest(), delta)
    # derived stats start without the rating
    assert dataclasses.replace(stats, variances=stats.variances) not in allocator._RATINGS


# ---------------------------------------------------------------------------
# the refinement a plan keeps with the rating
# ---------------------------------------------------------------------------


def _residual(lib, stats, plan):
    """The capacity a plan's refinement had to spend: t_sym * r_sym minus the minimum bits."""
    return plan.t_sym * plan.r_sym - minimum_bit_allocation(lib, stats, plan.eps_index)[1]


# on the small library, sigma_max^2 is about 3.75 and delta 0.4: 0.1 sends no
# bits, and 1 + 2^-44 is a near tie with 1
_KEPT_VARIANCES = st.sampled_from([0.1, 0.5, 1.0, 1.0 + 2.0**-44, 2.0, 3.0, 3.7])
# one to three subcarriers at 15-35 dB always afford QPSK, and up to 24 bits
# per symbol can run past the source's headroom (at most 2 bits per sent element)
_KEPT_CHANNELS = st.lists(
    st.tuples(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=1, max_size=3), st.floats(15.0, 35.0)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(variances=st.lists(_KEPT_VARIANCES, min_size=4, max_size=32), channels=_KEPT_CHANNELS, data=st.data())
def test_plans_on_one_source_follow_any_residual_order(small_lib, variances, channels, data):
    # the blocks come back in any order, so the residuals rise, fall, repeat,
    # hit 0 and run past saturation
    blocks = [
        (ChannelRealization(np.array(gains, dtype=np.complex128), 1.0, k), len(gains) * 10.0 ** (snr / 10.0))
        for k, (gains, snr) in enumerate(channels)
    ]
    order = data.draw(st.lists(st.integers(0, len(blocks) - 1), min_size=2, max_size=12))
    stats = LatentStats(np.zeros(len(variances)), np.array(variances))
    for k in order:
        ch, p_tot = blocks[k]
        plan = optimize_plan(small_lib, stats, ch, p_tot)
        assert serialize_plan(plan) == serialize_plan(optimize_plan(small_lib, _fresh(stats), ch, p_tot))
        with pytest.raises(ValueError, match="read-only"):
            plan.bits[:] = 99  # so the next plan on the source stays as it was


def test_a_plan_refines_only_past_the_largest_residual_refined(small_lib, monkeypatch):
    rng = stream_rng("kept-order", 0)
    n = 200
    stats = LatentStats(np.zeros(n), np.exp(rng.uniform(np.log(0.5), np.log(sigma_max(small_lib) ** 2), n)))
    blocks = [
        (realize_channel(exponential_pdp(300.0), 24, 30e3, seed=k), 24 * 10.0 ** (snr_db / 10.0))
        for k, snr_db in enumerate(rng.uniform(0.0, 10.0, 30))
    ]
    plans = [optimize_plan(small_lib, _fresh(stats), ch, p) for ch, p in blocks]
    # the blocks that refine target 1, none of them to saturation
    blocks, plans = zip(*[(b, plan) for b, plan in zip(blocks, plans) if plan.eps_index == 1])
    assert len(blocks) > 20 and not any(plan.dummy_bits for plan in plans)
    by_residual = sorted(range(len(blocks)), key=lambda k: _residual(small_lib, stats, plans[k]))
    residuals = [_residual(small_lib, stats, plans[k]) for k in by_residual]
    middle = len(blocks) // 2
    assert residuals[0] < residuals[middle] < residuals[-1]

    calls = []
    refine = allocator.refine_bit_allocation

    def counting(*args, **kwargs):
        calls.append(args[4] - int(np.sum(args[2])))
        return refine(*args, **kwargs)

    monkeypatch.setattr(allocator, "refine_bit_allocation", counting)
    # R, then every residual up to R in falling order, then the largest, then all
    sequence = [middle] + list(range(middle, -1, -1)) + [len(blocks) - 1] + list(range(len(blocks)))
    for i in sequence:
        k = by_residual[i]
        plan = optimize_plan(small_lib, stats, *blocks[k])
        assert serialize_plan(plan) == serialize_plan(plans[k])
        with pytest.raises(ValueError, match="read-only"):
            plan.bits[:] = 0
    assert calls == [residuals[middle], residuals[-1]]


def test_a_saturated_refinement_covers_every_residual(small_lib, monkeypatch):
    rng = stream_rng("kept-saturated", 0)
    n = 24
    stats = LatentStats(np.zeros(n), np.exp(rng.uniform(np.log(0.5), np.log(sigma_max(small_lib) ** 2), n)))
    blocks = [
        (realize_channel(exponential_pdp(300.0), 24, 30e3, seed=k), 24 * 10.0 ** (snr_db / 10.0))
        for k, snr_db in enumerate(rng.uniform(0.0, 15.0, 30))
    ]
    plans = [optimize_plan(small_lib, _fresh(stats), ch, p) for ch, p in blocks]
    assert {plan.eps_index for plan in plans} == {1}
    by_residual = sorted(range(len(blocks)), key=lambda k: _residual(small_lib, stats, plans[k]))
    residuals = [_residual(small_lib, stats, plans[k]) for k in by_residual]
    # the first block whose refinement saturates, with more above it
    first = next(i for i, k in enumerate(by_residual) if plans[k].dummy_bits)
    assert 0 < residuals[first - 1] < residuals[first] < residuals[-1]

    calls = []
    refine = allocator.refine_bit_allocation

    def counting(*args, **kwargs):
        calls.append(args[4] - int(np.sum(args[2])))
        return refine(*args, **kwargs)

    monkeypatch.setattr(allocator, "refine_bit_allocation", counting)
    # a refinement short of saturation, the smallest that saturates, then every
    # block from the largest residual down
    sequence = [first - 1, first] + list(range(len(blocks) - 1, -1, -1))
    for i in sequence:
        k = by_residual[i]
        plan = optimize_plan(small_lib, stats, *blocks[k])
        assert serialize_plan(plan) == serialize_plan(plans[k])
        with pytest.raises(ValueError, match="read-only"):
            plan.bits[:] = 0
    assert calls == [residuals[first - 1], residuals[first]]


def test_a_refinement_that_meets_the_headroom_exactly_covers_every_residual(small_lib, monkeypatch):
    # a residual equal to the headroom (what the depths can still grow) makes
    # every grant with no dummy bit, so that refinement saturates as one with
    # dummies does, and a larger residual refines nothing anew
    rng = stream_rng("kept-exact", 4)
    n = 40
    stats = LatentStats(np.zeros(n), np.exp(rng.uniform(np.log(0.5), np.log(sigma_max(small_lib) ** 2), n)))
    blocks = [
        (realize_channel(exponential_pdp(300.0), 24, 30e3, seed=k), 24 * 10.0 ** (snr_db / 10.0))
        for k, snr_db in enumerate(rng.uniform(0.0, 15.0, 30))
    ]
    plans = [optimize_plan(small_lib, _fresh(stats), ch, p) for ch, p in blocks]
    depths = minimum_bit_allocation(small_lib, stats, 1)[0]
    headroom = int((small_lib.b_max - depths[depths > 0]).sum())
    on_target = [k for k, plan in enumerate(plans) if plan.eps_index == 1]
    exact = [k for k in on_target if _residual(small_lib, stats, plans[k]) == headroom]
    above = [k for k in on_target if _residual(small_lib, stats, plans[k]) > headroom]
    assert exact and above and plans[exact[0]].dummy_bits == 0

    calls = []
    refine = allocator.refine_bit_allocation

    def counting(*args, **kwargs):
        calls.append(args[4] - int(np.sum(args[2])))
        return refine(*args, **kwargs)

    monkeypatch.setattr(allocator, "refine_bit_allocation", counting)
    for k in exact[:1] + above:
        plan = optimize_plan(small_lib, stats, *blocks[k])
        assert serialize_plan(plan) == serialize_plan(plans[k])
    assert calls == [headroom]


# ---------------------------------------------------------------------------
# the choice a plan keeps on the channel's record
# ---------------------------------------------------------------------------

_STAGES = ("minimum_bit_allocation", "allocate_power_modulation", "select_ber_target", "refine_bit_allocation")


def _count_stages(monkeypatch):
    """Count the calls of every planner stage through its module attribute."""
    calls = dict.fromkeys(_STAGES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in _STAGES:
        monkeypatch.setattr(allocator, name, counting(name, getattr(allocator, name)))
    return calls


def test_a_repeat_plan_keeps_the_bytes_of_the_first_and_of_a_fresh_one(monkeypatch):
    monkeypatch.syspath_prepend(str(FIXTURE_LIBRARY.parent))
    import workloads

    ql = {name: importlib.import_module(f"quantlink.{name}") for name in workloads.MODULES}
    state = workloads.setup_plan(ql, 1, workloads.Sizes(), None)
    blocks = workloads.plan_batch(ql, state, workloads.Sizes())
    lib = state["lib"]
    assert len(blocks) == 48
    for scale in (0.02, 1.0, 30.0):
        first = [serialize_plan(optimize_plan(lib, s, ch, p * scale)) for s, ch, p in blocks]
        with pytest.MonkeyPatch.context() as counted:
            calls = _count_stages(counted)
            # every block again, after the sources' ratings have served all the others
            second = [serialize_plan(optimize_plan(lib, s, ch, p * scale)) for s, ch, p in blocks]
        assert calls == {**dict.fromkeys(_STAGES, 0), "allocate_power_modulation": len(blocks)}
        fresh = [
            serialize_plan(optimize_plan(lib, _fresh(s), dataclasses.replace(ch), p * scale)) for s, ch, p in blocks
        ]
        assert second == first == fresh, scale


def test_a_repeat_plan_runs_only_the_loading(small_lib, monkeypatch):
    stats, ch, p_tot = _random_setup(small_lib, stream_rng("repeat-stages", 0), snr_db=15.0)
    want = serialize_plan(optimize_plan(small_lib, stats, ch, p_tot))
    calls = _count_stages(monkeypatch)
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    assert serialize_plan(plan) == want and plan.dummy_bits >= 0
    assert calls == {**dict.fromkeys(_STAGES, 0), "allocate_power_modulation": 1}


def test_the_kept_choice_follows_the_rating_and_the_budget(small_lib, monkeypatch):
    stats, ch, p_tot = _random_setup(small_lib, stream_rng("repeat-key", 0), snr_db=15.0)
    optimize_plan(small_lib, stats, ch, p_tot)
    calls = _count_stages(monkeypatch)
    # (delta, budget) of each plan, and whether it repeats the one before
    steps = (
        (0.4, p_tot, True),
        (0.1, p_tot, False),  # another delta rates the stats anew
        (0.1, p_tot, True),
        (0.4, p_tot, False),  # and so does the first delta again
        (0.4, 2 * p_tot, False),  # another budget rates the channel anew
        (0.4, 2 * p_tot, True),
        (0.4, p_tot, False),
    )
    for delta, budget, repeat in steps:
        before = calls["select_ber_target"]
        got = serialize_plan(optimize_plan(small_lib, stats, ch, budget, delta))
        assert got == serialize_plan(optimize_plan(small_lib, _fresh(stats), dataclasses.replace(ch), budget, delta))
        assert calls["select_ber_target"] - before == 2 - repeat, (delta, budget)  # the fresh plan selects too


def test_a_repeat_plans_bits_are_its_own(small_lib):
    stats, ch, p_tot = _random_setup(small_lib, stream_rng("repeat-bits", 0), snr_db=15.0)
    first = optimize_plan(small_lib, stats, ch, p_tot)
    repeat = optimize_plan(small_lib, stats, ch, p_tot)
    kept = allocator._LOADINGS[ch].choice[4]
    assert kept.dtype == np.uint8 and not kept.flags.writeable
    assert repeat.bits.dtype == np.int64 and repeat.bits.tolist() == first.bits.tolist() == kept.tolist()
    assert not np.shares_memory(repeat.bits, first.bits) and not np.shares_memory(repeat.bits, kept)
    assert not np.shares_memory(first.bits, kept)


def test_a_zero_bit_plan_repeats_from_the_record_too(small_lib, monkeypatch):
    # every variance below delta: nothing to send, yet the record keeps the choice
    stats = LatentStats(np.ones(6), np.full(6, 0.3))
    ch = realize_channel(exponential_pdp(300.0), 16, 30e3, seed=3)
    first = optimize_plan(small_lib, stats, ch, 100.0)
    assert first.is_empty
    calls = _count_stages(monkeypatch)
    second = optimize_plan(small_lib, stats, ch, 100.0)
    assert calls == dict.fromkeys(_STAGES, 0)
    assert serialize_plan(second) == serialize_plan(first)
    assert second.bits.dtype == np.int64 and not np.shares_memory(second.bits, first.bits)
