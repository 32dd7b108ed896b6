"""Standard-normal utilities: density, distribution, Q-function, truncated moments.

Everything downstream (quantizer design, BER thresholds, distortion targets)
reduces to evaluations of the unit Gaussian pdf/cdf and of zeroth/first/second
moments over intervals, so those live here with explicit extended-real
handling: interval endpoints may be -inf or +inf and never need special-casing
at call sites.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "std_normal_pdf",
    "std_normal_cdf",
    "inv_std_normal_cdf",
    "q_function",
    "inv_q_function",
    "interval_moments",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _erfc(x: np.ndarray) -> np.ndarray:
    # math.erfc is a correctly-rounded libm routine; absolute error is far below
    # the 1e-12 this library needs for 8-bit distortion comparisons.
    out = np.fromiter(map(math.erfc, x.ravel().tolist()), dtype=np.float64, count=x.size)
    return out.reshape(x.shape)


def std_normal_pdf(x):
    """phi(x) = exp(-x^2/2) / sqrt(2 pi), elementwise; phi(+-inf) = 0."""
    x = np.asarray(x, dtype=np.float64)
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(x))


def std_normal_cdf(x):
    """Phi(x) = P[N(0,1) <= x] = Q(-x), through erfc for tail accuracy."""
    return q_function(-np.asarray(x, dtype=np.float64))


def q_function(x):
    """Gaussian tail probability Q(x) = 1 - Phi(x) = 0.5 erfc(x / sqrt(2))."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * _erfc(x / _SQRT2)


def inv_q_function(p):
    """Inverse of q_function for p in (0, 0.5], elementwise; returns x >= 0.

    Each element runs its own bisection on [0, 40], stopping when its bracket
    is within 1e-15 relative (at most 200 halvings), and p = 0.5 gives 0.0;
    round trips with q_function to well under 1e-9 over x in [0, 8].
    """
    p = np.asarray(p, dtype=np.float64)
    if not ((p > 0.0) & (p <= 0.5)).all():
        raise ValueError(f"inv_q_function requires p in (0, 0.5], got {p}")
    flat = p.ravel()
    lo = np.zeros(flat.shape)
    hi = np.full(flat.shape, 40.0)
    live = np.flatnonzero(flat != 0.5)
    for _ in range(200):
        if not live.size:
            break
        low, high = lo[live], hi[live]
        mid = 0.5 * (low + high)
        above = q_function(mid) > flat[live]
        low = np.where(above, mid, low)
        high = np.where(above, high, mid)
        lo[live], hi[live] = low, high
        live = live[high - low > 1e-15 * np.maximum(1.0, low)]
    return np.where(flat == 0.5, 0.0, 0.5 * (lo + hi)).reshape(p.shape)


def inv_std_normal_cdf(u):
    """Phi^{-1}(u) for u in (0, 1), elementwise, via the Q-function inverse."""
    u = np.asarray(u, dtype=np.float64)
    if not ((u > 0.0) & (u < 1.0)).all():
        raise ValueError(f"inv_std_normal_cdf requires u in (0, 1), got {u}")
    x = inv_q_function(np.where(u > 0.5, 1.0 - u, u))
    return np.where(u < 0.5, -x, x)


def interval_moments(lo, hi):
    """Vectorized moments of the unit Gaussian over (lo, hi].

    Returns (mass, m1, m2) with
        mass = Phi(hi) - Phi(lo)
        m1   = integral of y phi(y)   = phi(lo) - phi(hi)
        m2   = integral of y^2 phi(y) = mass + lo phi(lo) - hi phi(hi)
    where endpoint terms x*phi(x) vanish for infinite x. The squared-error
    integral about a level R follows as m2 - 2 R m1 + R^2 mass.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if lo.ndim == hi.ndim == 1 and lo.size == hi.size > 0 and np.array_equal(lo[1:], hi[:-1]):
        # adjacent intervals: evaluate each shared edge once. Every output is
        # the same expression of the same values as in the general branch
        # (an edge of -0.0 against 0.0 only flips the sign of a zero x phi(x)
        # term, which adding the mass, never -0.0, absorbs)
        phi, cdf, t = _edge_terms(np.concatenate((lo[:1], hi)))
        phi_lo, phi_hi, t_lo, t_hi = phi[:-1], phi[1:], t[:-1], t[1:]
        mass = cdf[1:] - cdf[:-1]
    else:
        phi_lo, cdf_lo, t_lo = _edge_terms(lo)
        phi_hi, cdf_hi, t_hi = _edge_terms(hi)
        mass = cdf_hi - cdf_lo
    m1 = phi_lo - phi_hi
    m2 = mass + t_lo - t_hi
    return mass, m1, m2


def _edge_terms(x: np.ndarray):
    """phi(x), Phi(x) and x phi(x) at interval endpoints."""
    phi = std_normal_pdf(x)
    # endpoint terms x*phi(x) vanish at +-inf; mask first to avoid inf*0
    return phi, std_normal_cdf(x), np.where(np.isfinite(x), x, 0.0) * phi
