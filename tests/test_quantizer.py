import dataclasses
import operator
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sst

import quantlink.quantizer as quantizer_module
from quantlink.quantizer import (
    DesignConfig,
    ScalarQuantizer,
    _certified_cuts,
    _expected_distortion,
    _hull_index,
    _line_coefficients,
    _optimal_levels,
    _optimal_regions,
    _pairwise_regions,
    _region_moments,
    _vertex_index,
    analytic_distortion,
    bsc_corrupt,
    bsc_transition_matrix,
    dequantize,
    design_channel_optimized,
    design_lloyd_max,
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


def _per_bit_product(flips):
    """The transition matrix as b full passes, one per bit, MSB first: the reference."""
    flips = np.asarray(flips, dtype=np.float64)
    b = flips.size
    codes = np.arange(1 << b)
    diff = codes[:, None] ^ codes[None, :]
    out = np.ones((1 << b, 1 << b))
    for j in range(b):
        bit = (diff >> (b - 1 - j)) & 1
        out *= np.where(bit == 1, flips[j], 1.0 - flips[j])
    return out


@pytest.mark.parametrize("b", range(1, 11))
def test_transition_matrix_is_the_per_bit_product_bit_for_bit(b):
    rng = np.random.default_rng(1900 + b)
    cases = [
        rng.uniform(0.0, 0.5, b),
        rng.uniform(0.0, 1e-3, b),
        np.full(b, 0.0),
        np.full(b, 0.5),
        rng.choice([0.0, 0.5, 0.1, 1.0 / 3.0], b),
    ]
    for flips in cases:
        got = bsc_transition_matrix(flips)
        assert got.shape == (1 << b, 1 << b) and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), _per_bit_product(flips).view(np.int64))


def test_transition_matrix_refuses_a_deep_vector_before_building_it(monkeypatch):
    # the cap is lowered so that a check made after the build would cost a
    # 2^11 x 2^11 matrix (32 MB), not the 512 MB of 2^13 x 2^13
    monkeypatch.setattr(quantizer_module, "MAX_BIT_DEPTH", 10)
    flips = np.full(11, 0.1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="bit depth 11 exceeds supported maximum 10"):
            bsc_transition_matrix(flips)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# analytic distortion
# ---------------------------------------------------------------------------


def _one_bit_quantizer(eps: float):
    shrink = (1.0 - 2.0 * eps) * HALF_NORMAL_MEAN
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
# construction checks
# ---------------------------------------------------------------------------


def _two_bit_fields(**changed):
    fields = dict(
        bit_depth=2,
        thresholds=np.array([-0.5, 0.0, 0.5]),
        levels=np.array([-1.0, -0.25, 0.25, 1.0]),
        region_codewords=np.array([0, 1, 3, 2]),
        designed_for=uniform_bsc(2, 0.01),
        normalized_distortion=0.1,
    )
    fields.update(changed)
    return fields


@pytest.mark.parametrize(
    "field, bad, message",
    [
        ("levels", np.zeros(3), "levels must be a finite vector with one entry per codeword"),
        ("levels", np.zeros((4, 1)), "levels must be a finite vector with one entry per codeword"),
        ("levels", np.array([0.0, np.nan, 0.0, 0.0]), "levels must be a finite vector with one entry per codeword"),
        ("levels", np.array([0.0, 0.0, -np.inf, 0.0]), "levels must be a finite vector with one entry per codeword"),
        ("thresholds", np.array([-0.5, 0.5]), "need exactly one more region than thresholds"),
        ("region_codewords", np.array([0, 1, 3, 2, 0]), "need exactly one more region than thresholds"),
        ("thresholds", np.array([-0.5, 0.5, 0.0]), "thresholds must be strictly increasing"),
        ("thresholds", np.array([-0.5, 0.0, 0.0]), "thresholds must be strictly increasing"),
        ("thresholds", np.array([-0.5, np.nan, 0.5]), "thresholds must be strictly increasing"),
        ("thresholds", np.array([-0.5, np.inf, np.inf]), "thresholds must be strictly increasing"),
        ("region_codewords", np.array([0, 1, 3, 1]), "region codewords must be distinct"),
        ("region_codewords", np.array([0, 1, 3, -1]), "region codeword out of range"),
        ("region_codewords", np.array([4, 1, 3, 2]), "region codeword out of range"),
        ("designed_for", np.array([]), "flip vector must be a nonempty 1-D sequence"),
        ("designed_for", np.array([0.01, 0.6]), "flip probabilities must lie in [0, 0.5]"),
        ("designed_for", np.array([-0.01, 0.1]), "flip probabilities must lie in [0, 0.5]"),
        ("designed_for", np.array([0.01, np.nan]), "flip probabilities must lie in [0, 0.5]"),
        ("designed_for", np.array([0.01, np.inf]), "flip probabilities must lie in [0, 0.5]"),
        ("designed_for", np.array([0.01]), "designed_for length must equal bit_depth"),
    ],
)
def test_validate_rejects_each_broken_field(field, bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ScalarQuantizer(**_two_bit_fields(**{field: bad}))


def test_validate_refuses_region_codewords_that_are_not_ints():
    # float codewords used to pass, and quantize then sent float words
    codewords = np.array([0.0, 1.0, 3.0, 2.0])
    with pytest.raises(ValueError, match="region codewords must be ints"):
        ScalarQuantizer(**_two_bit_fields(region_codewords=codewords))
    for ints in (codewords.astype(np.int32), codewords.astype(np.uint8)):
        q = ScalarQuantizer(**_two_bit_fields(region_codewords=ints))
        assert q.region_codewords.dtype == ints.dtype


def test_validate_checks_in_a_fixed_order():
    # every field broken: fixing them one at a time moves to the next message
    broken = dict(
        levels=np.array([np.nan, 0.0, 0.0, 0.0]),
        thresholds=np.array([0.5, 0.0, 0.5]),  # and too many for the codewords below
        region_codewords=np.array([5, 5, -1, 5, 5]),
        designed_for=np.array([0.7, 0.7, 0.7]),
    )
    messages = [
        "levels must be a finite vector",
        "need exactly one more region than thresholds",
        "thresholds must be strictly increasing",
        "region codewords must be distinct",
        "region codeword out of range",
        "flip probabilities must lie in [0, 0.5]",
        "designed_for length must equal bit_depth",
    ]
    fixes = [
        {"levels": np.zeros(4)},
        {"thresholds": np.array([0.5, 0.0, 0.5, 1.0])},
        {"thresholds": np.array([-1.0, -0.5, 0.0, 0.5])},
        {"region_codewords": np.array([5, 4, -1, 6, 7])},
        {"bit_depth": 3, "levels": np.zeros(8), "region_codewords": np.array([5, 4, 0, 6, 7])},
        {"designed_for": np.array([0.1, 0.2])},
        {"designed_for": np.array([0.1, 0.2, 0.0])},
    ]
    fields = _two_bit_fields(**broken)
    for message, fix in zip(messages, fixes):
        with pytest.raises(ValueError, match=re.escape(message)):
            ScalarQuantizer(**fields)
        fields.update(fix)
    ScalarQuantizer(**fields)


def test_validate_accepts_edge_cases():
    for changed in (
        {},
        {"thresholds": np.array([]), "region_codewords": np.array([2])},
        {"thresholds": np.array([-np.inf, 0.0, np.inf])},
        {"thresholds": np.array([0.0, np.nextafter(0.0, 1.0), 1e300])},
        {"designed_for": np.array([0.0, 0.5])},
        {"bit_depth": 1, "levels": np.array([-1.0, 1.0]), "thresholds": np.array([0.0]),
         "region_codewords": np.array([1, 0]), "designed_for": np.array([0.5])},
    ):
        ScalarQuantizer(**_two_bit_fields(**changed))


def test_quantizer_is_frozen_and_keeps_read_only_copies():
    # a reassigned or edited cell would leave a library's distortion table stale
    fields = _two_bit_fields()
    q = ScalarQuantizer(**fields)
    for f in dataclasses.fields(q):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(q, f.name, getattr(q, f.name))
    for name in ("thresholds", "levels", "region_codewords", "designed_for"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(q, name)[0] = 0
        assert fields[name].flags.writeable  # the caller's arrays stay its own
        fields[name][0] = 7
        assert getattr(q, name)[0] != 7


def test_a_cached_lloyd_max_design_cannot_be_edited():
    # the cache hands every caller one object, which seeds every later
    # channel-optimized design at that depth and config
    cfg = DesignConfig(restarts=3, seed=35)
    flips = uniform_bsc(3, 0.02)
    before = design_channel_optimized(3, flips, cfg)
    lm = design_lloyd_max(3, cfg)
    with pytest.raises(ValueError, match="read-only"):
        lm.levels[0] += 0.01
    with pytest.raises(dataclasses.FrozenInstanceError):
        lm.levels = lm.levels + 0.01
    assert design_lloyd_max(3, cfg) is lm
    after = design_channel_optimized(3, flips, cfg)
    assert after.normalized_distortion == before.normalized_distortion
    assert np.array_equal(after.levels, before.levels)


# ---------------------------------------------------------------------------
# region update
# ---------------------------------------------------------------------------


def _index(warm, shape):
    """_optimal_regions' index of one candidate hull per row; None if a row has none (None or empty)."""
    if any(hull is None or not hull.size for hull in warm):
        return None
    return _hull_index(warm, shape)


def _regions(a, b2, warm=None):
    """One row's region update: (thresholds, codewords)."""
    return _optimal_regions(a[None], b2[None], _index([warm], (1, a.size)))[0]


def regions_for_levels(levels, flips):
    """Regions for fixed levels under the flip channel."""
    levels = np.asarray(levels, dtype=np.float64)
    return _regions(*_line_coefficients(levels, bsc_transition_matrix(flips)))


def test_optimal_regions_noiseless_midpoint():
    thresholds, codewords = regions_for_levels([-0.8, 0.8], [0.0])
    assert thresholds == pytest.approx([0.0], abs=1e-15)
    assert list(codewords) == [0, 1]


def test_optimal_regions_duplicate_centroid_tie():
    # identical levels give identical (a, b); the lower codeword survives
    thresholds, codewords = regions_for_levels([0.3, 0.3], [0.0])
    assert thresholds.size == 0
    assert list(codewords) == [0]


def test_optimal_regions_useless_channel_single_region():
    thresholds, codewords = regions_for_levels([-0.7, 0.7], [0.5])
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


def _region_lines(b: int, kind: str, seed: int, eps):
    """Lines (a, b) of a region update, from designer-like levels or degenerate on purpose.

    levels:     random levels through a flip channel (noiseless, useless or in between)
    repeated:   the split warm start of the previous bit depth, np.repeat(levels, 2)
    ties:       some slopes set equal to, or one ulp off, another line's slope
    concurrent: a hull with one more line through some of its vertices, on the
                vertex up to rounding or an ulp below it, and the rest well above
    """
    n = 1 << b
    rng = stream_rng("envelope-lines", seed)
    if kind == "concurrent":
        # each extra line through a vertex makes three cuts within a few ulps
        m = max(2, n // 2)
        slopes = np.sort(rng.normal(0.0, 1.0, m))
        vertices = np.sort(rng.normal(0.0, 1.0, m - 1))
        offsets = np.concatenate(([0.0], np.cumsum(2.0 * np.diff(slopes) * vertices)))
        cuts = np.diff(offsets) / (2.0 * np.diff(slopes))
        at = rng.choice(m - 1, size=min(m - 1, n - m), replace=False)
        extra = rng.uniform(slopes[:-1], slopes[1:])[at]
        through = offsets[at] - 2.0 * slopes[at] * cuts[at] + 2.0 * extra * cuts[at]
        through = np.where(rng.random(at.size) < 0.5, through, np.nextafter(through, -np.inf))
        above = rng.uniform(slopes[0], slopes[-1], n - m - at.size)
        lifted = np.max(offsets) + 1.0 + 4.0 * np.max(np.abs(slopes)) * (1.0 + np.max(np.abs(cuts)))
        perm = rng.permutation(n)
        a = np.concatenate((slopes, extra, above))
        b2 = np.concatenate((offsets, through, np.full(above.size, lifted)))
        return a[perm], b2[perm]
    levels = rng.normal(0.0, 1.5, n)
    if kind == "repeated" and b > 1:
        levels = np.repeat(np.sort(levels[: n // 2]), 2)
    if eps is None:
        eps = 10.0 ** rng.uniform(-6.0, np.log10(0.4))
    a, b2 = _line_coefficients(levels, bsc_transition_matrix(uniform_bsc(b, eps)))
    if kind == "ties":
        for _ in range(int(rng.integers(1, 4))):
            i, j = rng.integers(n, size=2)
            a[j] = a[i] if rng.random() < 0.5 else np.nextafter(a[i], rng.choice([-np.inf, np.inf]))
            if rng.random() < 0.5:
                b2[j] = b2[i]
    return a, b2


region_lines = st.builds(
    _region_lines,
    b=st.integers(min_value=1, max_value=8),
    kind=st.sampled_from(("levels", "repeated", "ties", "concurrent")),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    eps=st.sampled_from((0.0, 0.5, None)),  # None: log-uniform in [1e-6, 0.4]
)


def _hex_lines(slopes, offsets):
    return np.array(slopes), np.array([float.fromhex(x) for x in offsets])


def _warm_candidate(kind, a, hull, seed):
    """A candidate hull for _optimal_regions: the true `hull`, or a wrong one.

    stale:       the hull of other lines with as many codewords
    drop-first:  the hull without its first line (drop-last: its last)
    unsorted:    two neighbouring hull lines swapped
    extra:       the hull with one off-hull line inserted by slope
    """
    rng = stream_rng("warm-candidate", seed)
    if kind == "stale":
        return _pairwise_regions(*_region_lines(a.size.bit_length() - 1, "levels", seed, None))[1]
    if kind == "drop-first":
        return hull[1:]
    if kind == "drop-last":
        return hull[:-1]
    if kind == "unsorted" and hull.size > 1:
        i = int(rng.integers(hull.size - 1))
        return np.concatenate((hull[:i], hull[i + 1 : i + 2], hull[i : i + 1], hull[i + 2 :]))
    off = np.setdiff1d(np.arange(a.size), hull)
    if kind == "extra" and off.size:
        j = rng.choice(off)
        return np.insert(hull, np.searchsorted(a[hull], a[j]), j)
    return hull


def _spy(name):
    return mock.patch.object(quantizer_module, name, wraps=getattr(quantizer_module, name))


warm_kinds = st.sampled_from((None, "hull", "stale", "drop-first", "drop-last", "unsorted", "extra"))


@settings(max_examples=300, deadline=None)
@given(region_lines, warm_kinds, st.integers(min_value=0, max_value=2**32 - 1))
# three lines through one vertex up to rounding, where the adjacent-pair cut
# is not the pairwise minimum (found by a random search over such clusters):
# the middle line on the hull with an interval a few ulps wide ...
@example(_hex_lines(
    [-1.15, -0.11, 0.37, 0.3],
    ["0x0.0p+0", "0x1.8a0902de00d1bp-1", "0x1.1ff2e48e8a71ep+0", "0x1.4p+3"],
), None, 0)
# ... or above the envelope by a few ulps
@example(_hex_lines(
    [-0.53, 0.05, 0.43, -0.39],
    ["0x0.0p+0", "0x1.ab9f559b3d07dp-1", "0x1.61e4f765fd8aep+0", "0x1.4p+3"],
), None, 0)
# a cut that overflows: the pairwise code drops the second line
@example((np.array([0.0, 1e-300]), np.array([0.0, 1e10])), None, 0)
@example((np.array([0.0, 1e-300]), np.array([0.0, 1e10])), "extra", 0)
def test_envelope_regions_equal_pairwise_bit_for_bit(lines, warm_kind, seed):
    a, b2 = lines
    with np.errstate(over="ignore"):  # the overflow example
        want_thresholds, want_codewords = _pairwise_regions(a, b2)
        warm = None if warm_kind is None else _warm_candidate(warm_kind, a, want_codewords, seed)
        with _spy("_stack_hull") as stack, _spy("_pairwise_regions") as pairwise:
            thresholds, codewords = _regions(a, b2, warm)
    assert thresholds.dtype == want_thresholds.dtype
    assert thresholds.tobytes() == want_thresholds.tobytes()
    assert codewords.dtype == want_codewords.dtype
    assert codewords.tobytes() == want_codewords.tobytes()
    if warm is not None and not np.array_equal(warm, want_codewords):
        # a wrong candidate is rejected, and the update starts over
        assert stack.called or pairwise.called


def test_converged_design_iteration_takes_the_warm_path():
    # a converged design's regions are the hull of its own levels' lines
    for b, eps in ((3, 0.01), (5, 0.05), (6, 0.02)):
        q = design_channel_optimized(b, uniform_bsc(b, eps), FAST)
        a, b2 = _line_coefficients(q.levels, bsc_transition_matrix(q.designed_for))
        with _spy("_stack_hull") as stack, _spy("_pairwise_regions") as pairwise:
            thresholds, codewords = _regions(a, b2, q.region_codewords)
        assert not stack.called and not pairwise.called
        want_thresholds, want_codewords = _pairwise_regions(a, b2)
        assert thresholds.tobytes() == want_thresholds.tobytes()
        assert codewords.tobytes() == want_codewords.tobytes() == q.region_codewords.tobytes()


def test_exact_slope_tie_keeps_the_stack_pass():
    # the losers of an exact slope tie drop out before the stack pass
    cases = 0
    for b in (3, 5, 8):
        for seed in range(40):
            a, b2 = _region_lines(b, "ties", seed, None)
            sa = np.sort(a)
            gap = np.diff(sa)
            near = (gap != 0.0) & ~(gap > 4.0 * 2.0**-53 * (np.abs(sa[:-1]) + np.abs(sa[1:])))
            if not np.any(gap == 0.0) or np.any(near):
                continue
            cases += 1
            with _spy("_pairwise_regions") as pairwise:
                thresholds, codewords = _regions(a, b2)
            assert not pairwise.called
            want_thresholds, want_codewords = _pairwise_regions(a, b2)
            assert thresholds.tobytes() == want_thresholds.tobytes()
            assert codewords.tobytes() == want_codewords.tobytes()
    assert cases >= 30


def test_near_tie_takes_the_pairwise_fallback(monkeypatch):
    calls = []

    def counting(a, b2):
        calls.append(a)
        return _pairwise_regions(a, b2)

    monkeypatch.setattr(quantizer_module, "_pairwise_regions", counting)
    regions_for_levels([-1.0, -0.25, 0.25, 1.0], [0.0, 0.0])
    assert not calls
    # the two leftmost slopes are one ulp apart; every vertex is well
    # separated (cuts about -5, -0.5 and 0.5), so only the tie margin declines
    a = np.array([-1.0, np.nextafter(-1.0, 0.0), 0.0, 1.0])
    b2 = np.array([0.0, -10.0 * 2.0**-53, -1.0, 0.0])
    thresholds, codewords = _regions(a, b2)
    assert len(calls) == 1
    want_thresholds, want_codewords = _pairwise_regions(a, b2)
    assert thresholds.tobytes() == want_thresholds.tobytes()
    assert codewords.tolist() == want_codewords.tolist() == [0, 1, 2, 3]


@pytest.mark.parametrize("b", [1, 2, 3, 5, 8])
def test_batched_certificate_equals_one_row_calls(b):
    # rows with exact and near slope ties, lines through a vertex and plain
    # designer lines, each with its true hull or a wrong candidate; the hulls
    # are ragged, so the batch pads them
    kinds = ("levels", "repeated", "ties", "concurrent")
    candidates = ("hull", "stale", "drop-first", "drop-last", "unsorted", "extra")
    a, b2, hulls = [], [], []
    for i in range(24):
        lines = _region_lines(b, kinds[i % 4], 1000 * b + i, None)
        hull = _pairwise_regions(*lines)[1]
        a.append(lines[0])
        b2.append(lines[1])
        hulls.append(_warm_candidate(candidates[i % 6], lines[0], hull, i))
    a, b2 = np.array(a), np.array(b2)
    # the stack pass's mask leaves out the losers of exact slope ties
    rest = stream_rng("certificate-rest", b).random(a.shape) < 0.8
    for r, hull in enumerate(hulls):
        rest[r, hull] = False
    accepted = 0
    for mask in (None, rest):
        ok, cut = _certified_cuts(a, b2, _hull_index(hulls, a.shape, mask))
        for r, hull in enumerate(hulls):
            one = None if mask is None else mask[r : r + 1]
            ok_r, cut_r = _certified_cuts(a[r : r + 1], b2[r : r + 1], _hull_index([hull], (1, a.shape[1]), one))
            assert ok[r] == ok_r[0]
            if ok_r[0]:
                assert cut[r, : hull.size - 1].tobytes() == cut_r[0].tobytes()
        accepted += int(ok.sum())
    assert 0 < accepted < 2 * len(hulls)


@st.composite
def vertex_batches(draw):
    """(a, hulls): m rows of n lines, and per row a ragged hull of lines with distinct slopes, in increasing slope.

    Slopes come from a few exact values (so that off-hull lines tie hull
    lines exactly, -0.0 against 0.0 too) or from an interval.
    """
    m, n = draw(st.integers(1, 5)), draw(st.integers(2, 12))
    slope = st.one_of(st.sampled_from((-1.0, -0.0, 0.0, 0.5, 1.0)), st.floats(-2.0, 2.0))
    a = np.array([[draw(slope) for _ in range(n)] for _ in range(m)])
    hulls = []
    for r in range(m):
        by_slope = {}  # -0.0 and 0.0 are one key: one slope
        for j in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)):
            by_slope.setdefault(a[r, j], j)
        hulls.append(np.array(sorted(by_slope.values(), key=lambda j: a[r, j])))
    return a, hulls


@settings(max_examples=300, deadline=None)
@given(vertex_batches())
@example((np.array([[-0.0, 0.0, 1.0, -1.0]]), [np.array([0, 2])]))
@example((np.array([[0.0, -0.0, 0.5, 0.5], [1.0, -1.0, -0.0, 2.0]]), [np.array([1, 2]), np.array([1])]))
def test_vertex_index_equals_the_complex_key_search(batch):
    # the reference: one searchsorted over keys row + i slope, which sort by
    # row and then by slope (-0.0 == 0.0 in either form)
    a, hulls = batch
    _, row, flat, _, rest = _hull_index(hulls, a.shape)
    ah = a.take(flat)
    want = np.searchsorted((row + 1j * ah).ravel(), (row + 1j * a).ravel()).reshape(a.shape) - 1
    got = _vertex_index(ah, a)
    assert got.dtype == np.intp
    assert got[rest].tolist() == want[rest].tolist()


def test_pairwise_fallback_of_one_row_leaves_the_others(monkeypatch):
    # row 2 has two slopes one ulp apart (as in the test above), so neither
    # its warm hull nor its stack pass is certified
    near = (
        np.array([-1.0, np.nextafter(-1.0, 0.0), 0.0, 1.0]),
        np.array([0.0, -10.0 * 2.0**-53, -1.0, 0.0]),
    )
    lines = [_region_lines(2, kind, seed, None) for kind, seed in (("levels", 1), ("repeated", 2))]
    lines += [near] + [_region_lines(2, kind, seed, None) for kind, seed in (("concurrent", 8), ("levels", 4))]
    a = np.array([x for x, _ in lines])
    b2 = np.array([y for _, y in lines])
    want = [_pairwise_regions(x, y) for x, y in lines]
    calls = []

    def counting(a, b2):
        calls.append(a.copy())
        return _pairwise_regions(a, b2)

    monkeypatch.setattr(quantizer_module, "_pairwise_regions", counting)
    for warm in ([w[1] for w in want], [None] * len(lines)):
        calls.clear()
        got = _optimal_regions(a, b2, _index(warm, a.shape))
        assert len(calls) == 1 and calls[0].tobytes() == a[2].tobytes()
        for r, (thresholds, codewords) in enumerate(got):
            alone = _regions(a[r], b2[r], warm[r])
            assert thresholds.tobytes() == alone[0].tobytes() == want[r][0].tobytes()
            assert codewords.tobytes() == alone[1].tobytes() == want[r][1].tobytes()


# ---------------------------------------------------------------------------
# level update
# ---------------------------------------------------------------------------


def levels_for_regions(thresholds, region_codewords, flips):
    """MMSE levels for fixed regions under the flip channel."""
    moments = _region_moments(np.asarray(thresholds, dtype=np.float64))
    trans = bsc_transition_matrix(flips)
    return _optimal_levels(moments, np.asarray(region_codewords), trans, len(trans))


def test_optimal_levels_half_normal():
    levels = levels_for_regions([0.0], [0, 1], [0.0])
    assert levels == pytest.approx([-HALF_NORMAL_MEAN, HALF_NORMAL_MEAN], abs=1e-12)


def test_optimal_levels_shrink_with_flips():
    levels = levels_for_regions([0.0], [0, 1], [0.05])
    assert levels == pytest.approx(
        [-0.9 * HALF_NORMAL_MEAN, 0.9 * HALF_NORMAL_MEAN], abs=1e-12
    )


def test_optimal_levels_useless_channel_all_zero():
    levels = levels_for_regions([0.0], [0, 1], [0.5])
    assert levels == pytest.approx([0.0, 0.0], abs=1e-15)


def test_optimal_levels_unreceivable_codeword_gets_prior_mean():
    # noiseless channel, only codeword 1 of 2 bits is ever sent
    levels = levels_for_regions([], [1], [0.0, 0.0])
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


def _reference_alternate(init_levels, trans, cfg, trace):
    """One start's alternation, run to its end on its own."""
    levels = np.array(init_levels, dtype=np.float64)
    a, b2 = _line_coefficients(levels, trans)
    best = None
    prev = np.inf
    codewords = None
    for _ in range(cfg.max_iters):
        thresholds, codewords = _regions(a, b2, codewords)
        moments = _region_moments(thresholds)
        levels = _optimal_levels(moments, codewords, trans, len(trans))
        a, b2 = _line_coefficients(levels, trans)
        dist = _expected_distortion(moments, codewords, a, b2)
        trace.append(dist)
        if best is None or dist < best[3]:
            best = (thresholds, codewords, levels, dist)
        if np.isfinite(prev) and abs(prev - dist) <= cfg.rel_tol * max(abs(dist), 1e-300):
            break
        prev = dist
    return best


def _reference_best_of_restarts(bit_depth, flips, base, stream_key, cfg, extra_init_levels, trace):
    """_best_of_restarts as a loop over the starts, one after another."""
    inits = [base]
    scale = 0.3 / (1 << bit_depth)
    for r in range(1, cfg.restarts):
        rng = stream_rng(*stream_key, r)
        inits.append(base + rng.normal(0.0, scale, size=base.shape))
    inits.extend(np.asarray(x, dtype=np.float64) for x in extra_init_levels or ())
    trans = bsc_transition_matrix(flips)
    best = None
    lengths = []
    for init in inits:
        before = len(trace)
        cand = _reference_alternate(init, trans, cfg, trace)
        lengths.append(len(trace) - before)
        if best is None or cand[3] < best[3]:
            best = cand
    return best, lengths


@pytest.mark.parametrize("b", range(1, 9))
def test_lockstep_design_equals_per_start_loop(b):
    base = design_lloyd_max(b, FAST).levels
    split = np.repeat(design_lloyd_max(b - 1, FAST).levels, 2) if b > 1 else np.array([-0.4, 0.9])
    # the per-start reference is slow at 2^7 and 2^8 codewords: fewer
    # iterations there, and a looser tolerance, so that starts still leave apart
    deep = b >= 7
    configs = (
        DesignConfig(restarts=1, max_iters=12 if deep else 60, seed=b),
        DesignConfig(restarts=3, max_iters=12, seed=2),  # some starts stop at the cap
        DesignConfig(restarts=10, max_iters=25, seed=3, rel_tol=1e-5 if deep else 1e-9),
    )
    mixed = 0
    for eps in (0.001, 0.02, 0.1):
        flips = uniform_bsc(b, eps)
        for cfg in configs:
            for warm in (None, [split, base[::-1]]):
                key = ("lockstep-reference", cfg.seed, b)
                want_trace: list[float] = []
                want, lengths = _reference_best_of_restarts(b, flips, base, key, cfg, warm, want_trace)
                trace: list[float] = []
                q = quantizer_module._best_of_restarts(b, flips, base, key, cfg, warm, trace)
                assert np.array(trace).tobytes() == np.array(want_trace).tobytes()
                assert q.thresholds.tobytes() == want[0].tobytes()
                assert q.region_codewords.tobytes() == want[1].tobytes()
                assert q.levels.tobytes() == want[2].tobytes()
                assert q.normalized_distortion == want[3]
                mixed += len(set(lengths)) > 1
    # starts that leave the lockstep at different iterations
    assert mixed > 0


@pytest.mark.parametrize("b", range(1, 9))
def test_lockstep_noiseless_design_equals_per_start_loop(b):
    # zero flips skip the identity matrix's products, which the reference
    # still takes through BLAS; one start holds a -0.0 level, which the BLAS
    # sum turns into +0.0 in a
    n = 1 << b
    base = quantizer_module._quantile_levels(b)
    signed_zero = base.copy()
    signed_zero[n // 2] = -0.0
    a = _line_coefficients(signed_zero, None)[0]
    assert a.tobytes() == (np.eye(n) @ signed_zero).tobytes() and not np.signbit(a[n // 2])
    cfg = DesignConfig(restarts=4, max_iters=40 if b <= 6 else 15, seed=b)
    flips = np.zeros(b)
    key = ("lockstep-noiseless", cfg.seed, b)
    want_trace: list[float] = []
    want, _ = _reference_best_of_restarts(b, flips, base, key, cfg, [signed_zero], want_trace)
    trace: list[float] = []
    with _spy("_transition_matrix") as matrix:
        q = quantizer_module._best_of_restarts(b, flips, base, key, cfg, [signed_zero], trace)
    assert not matrix.called
    assert np.array(trace).tobytes() == np.array(want_trace).tobytes()
    assert q.thresholds.tobytes() == want[0].tobytes()
    assert q.region_codewords.tobytes() == want[1].tobytes()
    assert q.levels.tobytes() == want[2].tobytes()
    assert q.normalized_distortion == want[3]


def test_lockstep_keeps_its_hull_index_and_certifies_the_stack_pass_at_once(monkeypatch):
    hull_index = quantizer_module._hull_index
    certified_cuts = quantizer_module._certified_cuts
    optimal_regions = quantizer_module._optimal_regions
    alternate = quantizer_module._alternate
    # per region update: [rows, index, certificate calls, regions returned];
    # None where a design's alternation starts
    builds, updates = [], []

    def spy_index(hulls, shape, rest=None):
        builds.append(hull_index(hulls, shape, rest))
        return builds[-1]

    def spy_cuts(a, b2, index):
        # a stack-pass certificate is the one on an index other than the update's own
        updates[-1][2].append((len(index[0]), index is not updates[-1][1]))
        return certified_cuts(a, b2, index)

    def spy_regions(a, b2, index):
        updates.append([a.shape[0], index, [], None])
        updates[-1][3] = optimal_regions(a, b2, index)
        return updates[-1][3]

    def spy_alternate(*args):
        updates.append(None)
        return alternate(*args)

    monkeypatch.setattr(quantizer_module, "_hull_index", spy_index)
    monkeypatch.setattr(quantizer_module, "_certified_cuts", spy_cuts)
    monkeypatch.setattr(quantizer_module, "_optimal_regions", spy_regions)
    monkeypatch.setattr(quantizer_module, "_alternate", spy_alternate)
    cfg = DesignConfig(restarts=6, seed=11)
    for eps in (0.005, 0.05):
        quantizer_module._best_of_restarts(5, uniform_bsc(5, eps), design_lloyd_max(5, FAST).levels, ("spy",), cfg)
    designs = kept = stacked = 0
    last = None
    for update in updates:
        if update is None:
            designs += 1
            last = None
            continue
        rows, index, calls, regions = update
        stack = [n for n, masked in calls if masked]
        assert len(stack) <= 1  # every stack-pass candidate in one certificate
        stacked += len(stack)
        if last is None:  # a design's first update: every start takes the stack pass
            assert index is None and stack == [rows]
        else:
            # the previous update's codewords of the starts still live, in order
            assert index is not None and len(index[0]) == rows
            previous = iter([codewords for _, codewords in last[3]])
            assert all(any(hull is codewords for codewords in previous) for hull in index[0])
            last_hulls = [] if last[1] is None else last[1][0]
            if len(index[0]) == len(last_hulls) and all(map(operator.is_, index[0], last_hulls)):
                assert index is last[1]  # the same hulls keep their index
                kept += 1
            else:
                assert any(index is built for built in builds)
        last = update
    assert designs >= 2 and kept > 0 and stacked > 2


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


def test_design_config_rejects_bad_rel_tol():
    for bad in (np.inf, np.nan, True, 0.0, -1e-9, "1e-9"):
        with pytest.raises(ValueError, match="rel_tol"):
            DesignConfig(rel_tol=bad)
    assert DesignConfig(rel_tol=1e-6).rel_tol == 1e-6


def test_design_config_rejects_non_int_counts():
    for bad in ({"restarts": 3.0}, {"restarts": True}, {"max_iters": 200.0}, {"seed": 1.5}):
        with pytest.raises(ValueError, match="must be an int"):
            DesignConfig(**bad)
    assert DesignConfig(restarts=3, max_iters=5, seed=0).restarts == 3


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


@pytest.mark.parametrize(
    "words, b, message",
    [
        ([300, -1, 5], 8, "codeword out of range for 8-bit words"),
        ([300], 2, "codeword out of range for 2-bit words"),
        ([0, -1], 2, "codeword out of range"),
        ([1.0, 2.0], 2, "codewords must be ints, got array kind 'f'"),
        ([True, False], 2, "codewords must be ints, got array kind 'b'"),
    ],
)
def test_bsc_corrupt_refuses_words_that_are_not_b_bit_ints(words, b, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        bsc_corrupt(np.array(words), uniform_bsc(b, 0.5), stream_rng("bsc-words", b))


def test_quantize_rejects_nonpositive_std():
    q = _one_bit_quantizer(0.0)
    with pytest.raises(ValueError):
        quantize(0.1, 0.0, 0.0, q)
    with pytest.raises(ValueError):
        dequantize(0, 0.0, -1.0, q)
    # a (frames, n) batch with one std per column, as the trial chain sends, fails on any column
    for std in (np.array([1.0, 0.0]), np.array([1.0, np.nan])):
        with pytest.raises(ValueError, match="std must be positive"):
            quantize(np.zeros((3, 2)), 0.0, std, q)
        with pytest.raises(ValueError, match="std must be positive"):
            dequantize(np.zeros((3, 2), dtype=np.intp), 0.0, std, q)


def test_dequantize_rejects_codewords_out_of_range():
    q = _one_bit_quantizer(0.0)
    for bad in ([[0, 1], [2, 0]], [[0, -1]]):
        with pytest.raises(ValueError, match="codeword out of range"):
            dequantize(np.array(bad), 0.0, 1.0, q)
    assert dequantize(np.zeros((0, 2), dtype=np.intp), 0.0, 1.0, q).shape == (0, 2)

