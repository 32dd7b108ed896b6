"""Gray-labeled square QAM with a closed-form BER model and its SNR inversion.

Constellations are axis-separable: an m-bit word splits into an I half and a
Q half (I first, most significant bit first), each half is a reflected-binary
Gray label of a PAM coordinate, and the whole constellation is scaled to unit
average symbol energy. Demodulation is a per-axis nearest-level hard decision,
with boundary ties going to the lower PAM level: both axes of the input, seen
as one (..., 2) float array, count the decision bounds at or above them, so
level k = L-1 - #(x <= bound) equals searchsorted(bounds, x, side="left")
for every float (NaN goes to the top level), and one gather through the
L x L Gray word table turns the two levels into the word.

The analytic bit error rate for symbol SNR gamma is the standard two-term
Gray-QAM approximation

    (4/m) (1 - 1/sqrt(M)) Q(sqrt(3 gamma / (M-1)))
  + (4/m) (1 - 2/sqrt(M)) Q(3 sqrt(3 gamma / (M-1))),    M = 2^m,

which is strictly decreasing in gamma, so the SNR needed to hit a BER target
is found by bisection.

That model is the BER averaged over a word's m bits. The bit positions are not
equally reliable, though, and ber_by_position gives each one's exact BER
(K. Cho and D. Yoon, "On the general BER expression of one- and
two-dimensional amplitude modulations", IEEE Trans. Commun., 2002). Noise is
independent per axis, so position j of either axis errs with the probability
that the axis decision lands on a PAM level whose Gray label differs from the
sent one in bit j. With adjacent levels 2 s apart and per-axis noise
deviation sigma, level k2 at distance d = |k2 - k| >= 1 from the sent k is
decided with probability Q((2d - 1) r) - Q((2d + 1) r), r = s / sigma =
sqrt(3 gamma / (M - 1)), where the second term is absent when k2 is an end
level. Averaged over the L equiprobable sent levels, position j's BER is
sum_i w[j, i] Q((2i + 1) r) with integer weights w over L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import q_function

__all__ = [
    "QAM_BITS",
    "Constellation",
    "constellation",
    "modulate",
    "demodulate",
    "ber_approx",
    "ber_by_position",
    "snr_threshold",
    "SNR_THRESHOLD_TOL",
]

QAM_BITS = (2, 4, 6, 8)  # QPSK through 256-QAM; 0 marks an inactive subcarrier


def _gray_encode(k: np.ndarray) -> np.ndarray:
    return k ^ (k >> 1)


def _gray_decode(g: np.ndarray) -> np.ndarray:
    out = np.array(g, copy=True)
    shift = 1
    while np.any(out >> shift):
        out = out ^ (g >> shift)
        shift += 1
    return out


@dataclass(frozen=True)
class Constellation:
    """Unit-energy square QAM table indexed by bit word; every array is read-only."""

    m: int
    points: np.ndarray  # complex, points[word] is the symbol for that word
    axis_levels: np.ndarray  # per-axis PAM coordinates by level index
    axis_bounds: np.ndarray  # decision boundaries between adjacent levels
    level_words: np.ndarray  # level_words[k_i * L + k_q]: the word at PAM levels (k_i, k_q)
    position_weights: np.ndarray  # [j, i]: w[j, i] / L, multiplying Q((2i + 1) r) in position j's BER


def _build(m: int) -> Constellation:
    half = m // 2
    levels_per_axis = 1 << half
    # odd-integer PAM grid, scaled so the mean squared symbol magnitude is 1
    scale = 1.0 / np.sqrt(2.0 * (levels_per_axis**2 - 1) / 3.0)
    k = np.arange(levels_per_axis)
    coords = (2.0 * k - (levels_per_axis - 1)) * scale
    bounds = 0.5 * (coords[:-1] + coords[1:])
    words = np.arange(1 << m)
    gi = words >> half
    gq = words & (levels_per_axis - 1)
    ki = _gray_decode(gi)
    kq = _gray_decode(gq)
    points = coords[ki] + 1j * coords[kq]
    gray = _gray_encode(k)
    level_words = ((gray[:, None] << half) | gray).ravel()
    sent, got = np.nonzero(k[:, None] != k)  # every (sent, decided) pair of distinct levels
    d = np.abs(got - sent)
    # bit j (MSB first) of the two levels' Gray labels differs
    label = _gray_encode(sent) ^ _gray_encode(got)
    differs = (label[None, :] >> (half - 1 - np.arange(half))[:, None]) & 1  # [j, pair]
    inner = (got > 0) & (got < levels_per_axis - 1)  # a decision region bounded on both sides
    rows = np.arange(half)[:, None]
    weights = np.zeros((half, levels_per_axis))  # weights[j, i] multiplies Q((2i + 1) r)
    np.add.at(weights, (rows, d - 1), differs)
    np.add.at(weights, (rows, d[inner]), -differs[:, inner])
    table = Constellation(m, points, coords, bounds, level_words, weights / levels_per_axis)
    for arr in (points, coords, bounds, level_words, table.position_weights):
        arr.setflags(write=False)
    return table


_TABLES: dict[int, Constellation] = {}


def constellation(m: int) -> Constellation:
    if m not in QAM_BITS:
        raise ValueError(f"modulation order must be one of {QAM_BITS}, got {m}")
    if m not in _TABLES:
        _TABLES[m] = _build(m)
    return _TABLES[m]


def modulate(word, m: int):
    """Map m-bit words (ints) to constellation symbols; a word outside [0, 2^m) raises ValueError."""
    table = constellation(m)
    w = np.asarray(word)
    if w.size and (w.min() < 0 or w.max() >= (1 << m)):
        raise ValueError(f"word out of range for {m}-bit constellation")
    return np.take(table.points, w)


def demodulate(symbol, m: int):
    """Nearest-level hard decision back to m-bit words."""
    table = constellation(m)
    axes = np.asarray(symbol, dtype=np.complex128)[..., None].view(np.float64)
    k = np.full(axes.shape, table.axis_bounds.size, dtype=np.uint8)
    # one bool buffer, subtracted through its uint8 view, so no pass casts
    below = np.empty(axes.shape, dtype=np.bool_)
    for bound in table.axis_bounds.tolist():
        k -= np.less_equal(axes, bound, out=below).view(np.uint8)
    # k_i * L + k_q is at most 255 (L = 16 at m = 8), so it stays uint8
    return np.take(table.level_words, k[..., 0] * np.uint8(table.axis_levels.size) + k[..., 1])


def ber_approx(m: int, gamma):
    """Analytic Gray-QAM bit error rate at symbol SNR gamma, elementwise."""
    if m not in QAM_BITS:
        raise ValueError(f"modulation order must be one of {QAM_BITS}, got {m}")
    g = np.asarray(gamma, dtype=np.float64)
    if np.any(g < 0):
        raise ValueError("gamma must be nonnegative")
    big_m = 1 << m
    root = np.sqrt(3.0 * g / (big_m - 1))
    return (4.0 / m) * (
        (1.0 - 1.0 / np.sqrt(big_m)) * q_function(root)
        + (1.0 - 2.0 / np.sqrt(big_m)) * q_function(3.0 * root)
    )


def ber_by_position(m: int, gamma):
    """Exact Gray-QAM bit error rate of each bit position at symbol SNR gamma.

    Returns an array of shape np.shape(gamma) + (m,), position 0 the most
    significant bit of the word as modulate reads it: positions 0..m/2-1
    label the I axis and m/2..m-1 the Q axis, each MSB first, so the two
    halves are equal. Their mean is the exact BER that ber_approx
    approximates (see the module docstring).
    """
    table = constellation(m)
    g = np.asarray(gamma, dtype=np.float64)
    if np.any(g < 0):
        raise ValueError("gamma must be nonnegative")
    root = np.sqrt(3.0 * g / ((1 << m) - 1))
    tails = q_function(root[..., None] * (2.0 * np.arange(table.axis_levels.size) + 1.0))
    axis = tails @ table.position_weights.T
    return np.concatenate((axis, axis), axis=-1)


_BRACKET = (1e-6, 1e6)
SNR_THRESHOLD_TOL = 1e-10  # largest |ber_approx(m, snr_threshold(m, t)) - t|


def snr_threshold(m: int, target_ber: float) -> float:
    """Symbol SNR at which `m`-bit QAM hits `target_ber`, by bisection.

    Returns the first bisection midpoint, a Python float, with
    |ber_approx(m, gamma) - target_ber| <= SNR_THRESHOLD_TOL, and raises
    ArithmeticError if 200 halvings find none. A target at or below that
    tolerance raises ValueError: every gamma far enough up the bracket would
    pass, so the answer would mean nothing.
    """
    if not 0.0 < target_ber < 0.5:
        raise ValueError(f"target BER must be in (0, 0.5), got {target_ber}")
    if not target_ber > SNR_THRESHOLD_TOL:
        raise ValueError(f"target BER {target_ber} must exceed the tolerance {SNR_THRESHOLD_TOL}")
    lo, hi = _BRACKET
    if not ber_approx(m, lo) > target_ber > ber_approx(m, hi):
        raise ValueError(
            f"target BER {target_ber} not bracketed by gamma in [{lo}, {hi}] for m={m}"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = ber_approx(m, mid)
        if abs(val - target_ber) <= SNR_THRESHOLD_TOL:
            return mid
        if val > target_ber:
            lo = mid
        else:
            hi = mid
    raise ArithmeticError(f"200 halvings did not reach |ber - target| <= {SNR_THRESHOLD_TOL}")
