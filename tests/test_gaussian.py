import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as sst

from quantlink.gaussian import (
    interval_moments,
    inv_q_function,
    inv_std_normal_cdf,
    q_function,
    std_normal_cdf,
    std_normal_pdf,
)


def test_pdf_values():
    assert std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)
    assert std_normal_pdf(1.0) == pytest.approx(0.24197072451914337, abs=1e-12)
    assert std_normal_pdf(np.inf) == 0.0
    assert std_normal_pdf(-np.inf) == 0.0


def test_cdf_values():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(-np.inf) == 0.0
    assert std_normal_cdf(np.inf) == 1.0
    assert std_normal_cdf(1.6449) == pytest.approx(0.95, abs=1e-4)
    x = np.linspace(-10, 10, 2001)
    assert np.all(np.diff(std_normal_cdf(x)) >= 0)


def test_cdf_matches_scipy_to_1e12():
    x = np.linspace(-8, 8, 1601)
    assert np.max(np.abs(std_normal_cdf(x) - sst.norm.cdf(x))) < 1e-12


def test_q_function():
    assert q_function(0.0) == 0.5
    x = np.linspace(0, 8, 801)
    q = q_function(x)
    assert np.all(np.diff(q) < 0)


def test_inv_q_function():
    assert inv_q_function(0.5) == 0.0
    assert inv_q_function(0.05) == pytest.approx(1.64485, abs=1e-4)
    for x in np.linspace(0.0, 8.0, 33):
        assert inv_q_function(q_function(x)) == pytest.approx(x, abs=1e-9)
    for bad in (0.0, -0.1, 0.5000001, 1.0):
        with pytest.raises(ValueError):
            inv_q_function(bad)


def test_inv_std_normal_cdf_round_trip():
    for u in (1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6):
        assert std_normal_cdf(inv_std_normal_cdf(u)) == pytest.approx(u, abs=1e-9)


def _scalar_inv_q(p: float) -> float:
    """The bisection of one probability, as inv_q_function ran it on scalars."""
    if p == 0.5:
        return 0.0
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if q_function(mid) > p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, lo):
            break
    return 0.5 * (lo + hi)


def test_array_inverse_is_the_scalar_bisection_on_every_quantile_start():
    # the quantile starts (i + 0.5) / 2^b of the Lloyd-Max designs: each
    # element of one array bisection is the scalar bisection of that element
    for b in range(1, 13):
        n = 1 << b
        u = (np.arange(n) + 0.5) / n
        lower = u[: n // 2]
        want = np.array([_scalar_inv_q(p) for p in lower.tolist()])
        assert inv_q_function(lower).tobytes() == want.tobytes()
        # the upper half is 1 - u of the lower half exactly, mirrored
        x = inv_std_normal_cdf(u)
        assert x.tobytes() == np.concatenate((-want, want[::-1])).tobytes()
    assert inv_q_function(np.array([0.5, 0.25, 0.5])).tobytes() == np.array(
        [0.0, _scalar_inv_q(0.25), 0.0]
    ).tobytes()
    assert inv_q_function(np.array([[0.5]])).shape == (1, 1)
    assert inv_std_normal_cdf(np.array([0.5])).tobytes() == np.array([0.0]).tobytes()  # not -0.0
    with pytest.raises(ValueError, match="inv_q_function requires p in"):
        inv_q_function(np.array([0.25, 0.0]))
    with pytest.raises(ValueError, match="inv_std_normal_cdf requires u in"):
        inv_std_normal_cdf(np.array([0.25, 1.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=0.5, exclude_min=True), min_size=1, max_size=6))
def test_array_inverse_is_the_scalar_bisection_elementwise(ps):
    want = np.array([_scalar_inv_q(p) for p in ps])
    assert inv_q_function(np.array(ps)).tobytes() == want.tobytes()
    assert all(inv_q_function(p) == w for p, w in zip(ps, want.tolist()))


def test_truncated_moments_examples():
    assert interval_moments(-np.inf, np.inf) == pytest.approx((1.0, 0.0, 1.0), abs=1e-14)
    mass, m1, m2 = interval_moments(0.0, np.inf)
    assert (mass, m1, m2) == pytest.approx((0.5, 0.3989422804014327, 0.5), abs=1e-12)
    # frozen from an adaptive-quadrature oracle
    mass, m1, m2 = interval_moments(-1.0, 1.0)
    assert mass == pytest.approx(0.682689492137086, abs=1e-12)
    assert m1 == pytest.approx(0.0, abs=1e-15)
    assert m2 == pytest.approx(0.19874804309879923, abs=1e-12)


def test_truncated_moments_against_quadrature():
    rng = np.random.default_rng(2024)
    phi = sst.norm.pdf
    for _ in range(1000):
        a, b = np.sort(rng.uniform(-10, 10, size=2))
        if b - a < 1e-9:
            continue
        mass, m1, m2 = interval_moments(a, b)
        assert mass == pytest.approx(integrate.quad(phi, a, b)[0], abs=1e-8)
        assert m1 == pytest.approx(integrate.quad(lambda y: y * phi(y), a, b)[0], abs=1e-8)
        assert m2 == pytest.approx(integrate.quad(lambda y: y * y * phi(y), a, b)[0], abs=1e-8)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-12, max_value=12, allow_nan=False), min_size=0, max_size=12
    )
)
def test_partition_moments_sum(thresholds):
    cuts = np.unique(np.asarray(thresholds, dtype=float))
    lo = np.concatenate(([-np.inf], cuts))
    hi = np.concatenate((cuts, [np.inf]))
    mass, _, m2 = interval_moments(lo, hi)
    assert float(np.sum(mass)) == pytest.approx(1.0, abs=1e-12)
    assert float(np.sum(m2)) == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-12, max_value=12, allow_nan=False), min_size=0, max_size=12
    ),
    st.floats(min_value=-1, max_value=1, allow_nan=False),
)
def test_vector_moments_equal_scalar_calls_bit_for_bit(thresholds, offset):
    # adjacent intervals share their edge evaluations; any other intervals
    # take the general path; both must equal one call per interval exactly
    cuts = np.sort(np.asarray(thresholds + [-0.0, 0.0], dtype=float))
    partition = (np.concatenate(([-np.inf], cuts)), np.concatenate((cuts, [np.inf])))
    shifted = (partition[0] + offset, partition[1])
    for lo, hi in (partition, shifted):
        got = interval_moments(lo, hi)
        for i in range(lo.size):
            want = interval_moments(float(lo[i]), float(hi[i]))
            for g, w in zip(got, want):
                assert g[i].tobytes() == np.float64(w).tobytes()


def test_squared_error_integral_identity():
    # int (y - R)^2 phi over (a, b] == m2 - 2 R m1 + R^2 mass
    rng = np.random.default_rng(5)
    phi = sst.norm.pdf
    for _ in range(25):
        a, b = np.sort(rng.uniform(-4, 4, size=2))
        if b - a < 1e-6:
            continue
        r = rng.uniform(-2, 2)
        mass, m1, m2 = interval_moments(a, b)
        direct = integrate.quad(lambda y: (y - r) ** 2 * phi(y), a, b)[0]
        assert m2 - 2 * r * m1 + r * r * mass == pytest.approx(direct, abs=1e-10)
