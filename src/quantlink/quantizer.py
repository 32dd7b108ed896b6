"""Scalar quantizers for a unit Gaussian source sent over binary symmetric channels.

The designer alternates two closed-form updates until the expected end-to-end
squared error stops changing:

  * region update: for fixed reconstruction levels, each sendable codeword l
    owns the set of y where it minimizes the conditional expected distortion
    E[(y - yhat)^2 | sent l]. Since that expectation is y^2 - 2 y a_l + b_l
    with a_l = sum_q P(q|l) R_q and b_l = sum_q P(q|l) R_q^2, the quadratic
    terms cancel pairwise and each region is an interval of the lower envelope
    of lines. Codewords whose interval is empty are dropped from the send side
    for that iteration (they stay receivable and may reactivate later).

  * level update: for fixed regions, each receivable codeword q gets the MMSE
    estimate of y given q, a ratio of flip-weighted truncated Gaussian moments.

Both updates are individually optimal, but the design still records the best
iterate seen and returns that, and runs from several initializations: the
noiseless (Lloyd-Max) solution, jittered copies of it, and any caller-supplied
warm starts.

Codewords are plain ints in [0, 2^b); bit j of a codeword (1-indexed, as seen
by the per-bit flip vector) is the j-th most significant of its b bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import interval_moments, inv_std_normal_cdf
from .rng import stream_rng

__all__ = [
    "DesignConfig",
    "ScalarQuantizer",
    "uniform_bsc",
    "as_bsc_vector",
    "bsc_transition_matrix",
    "bsc_corrupt",
    "analytic_distortion",
    "optimal_regions",
    "optimal_levels",
    "design_channel_optimized",
    "design_lloyd_max",
    "quantize",
    "dequantize",
]

MAX_BIT_DEPTH = 12  # transition matrices are dense (2^b)^2 arrays


def as_bsc_vector(flips) -> np.ndarray:
    """Validate a per-bit flip-probability vector (entries in [0, 0.5])."""
    arr = np.atleast_1d(np.asarray(flips, dtype=np.float64))
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("flip vector must be a nonempty 1-D sequence")
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 0.5):
        raise ValueError(f"flip probabilities must lie in [0, 0.5], got {arr}")
    return arr


def uniform_bsc(bit_depth: int, eps: float) -> np.ndarray:
    """Flip vector with the same probability on every bit of a codeword."""
    if bit_depth < 1:
        raise ValueError("bit_depth must be >= 1")
    return as_bsc_vector(np.full(bit_depth, float(eps)))


def bsc_transition_matrix(flips) -> np.ndarray:
    """Matrix M[sent, received] of codeword transition probabilities.

    Each row sums to 1: the channel flips bit j independently with
    probability flips[j].
    """
    flips = as_bsc_vector(flips)
    b = flips.shape[0]
    if b > MAX_BIT_DEPTH:
        raise ValueError(f"bit depth {b} exceeds supported maximum {MAX_BIT_DEPTH}")
    codes = np.arange(1 << b)
    diff = codes[:, None] ^ codes[None, :]
    out = np.ones(((1 << b), (1 << b)))
    for j in range(b):
        bit = (diff >> (b - 1 - j)) & 1
        out *= np.where(bit == 1, flips[j], 1.0 - flips[j])
    return out


def bsc_corrupt(words: np.ndarray, flips, rng: np.random.Generator) -> np.ndarray:
    """Sample the bit-flip channel on an array of codeword ints."""
    flips = as_bsc_vector(flips)
    b = flips.shape[0]
    words = np.asarray(words)
    out = words.copy()
    for j in range(b):
        mask = rng.random(words.shape) < flips[j]
        out = out ^ (mask.astype(words.dtype) << (b - 1 - j))
    return out


@dataclass
class ScalarQuantizer:
    """A designed quantizer for the unit Gaussian source.

    thresholds:      strictly increasing region boundaries, length L - 1
    levels:          reconstruction level per receivable codeword, length 2^bit_depth
    region_codewords: codeword sent for each region, left to right, length L
    designed_for:    per-bit flip probabilities assumed at design time
    normalized_distortion: expected squared error on the unit Gaussian under
                     designed_for (cached from the design)
    """

    bit_depth: int
    thresholds: np.ndarray
    levels: np.ndarray
    region_codewords: np.ndarray
    designed_for: np.ndarray
    normalized_distortion: float

    @property
    def active_count(self) -> int:
        return int(self.region_codewords.shape[0])

    def validate(self) -> None:
        n = 1 << self.bit_depth
        if self.levels.shape != (n,) or not np.all(np.isfinite(self.levels)):
            raise ValueError("levels must be a finite vector with one entry per codeword")
        if self.region_codewords.shape[0] != self.thresholds.shape[0] + 1:
            raise ValueError("need exactly one more region than thresholds")
        if self.thresholds.size and not np.all(np.diff(self.thresholds) > 0):
            raise ValueError("thresholds must be strictly increasing")
        if len(set(self.region_codewords.tolist())) != self.region_codewords.shape[0]:
            raise ValueError("region codewords must be distinct")
        if np.any(self.region_codewords < 0) or np.any(self.region_codewords >= n):
            raise ValueError("region codeword out of range")
        as_bsc_vector(self.designed_for)
        if self.designed_for.shape[0] != self.bit_depth:
            raise ValueError("designed_for length must equal bit_depth")


def _region_edges(thresholds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo = np.concatenate(([-np.inf], thresholds))
    hi = np.concatenate((thresholds, [np.inf]))
    return lo, hi


def _expected_distortion(thresholds, region_codewords, levels, trans) -> float:
    lo, hi = _region_edges(thresholds)
    mass, m1, m2 = interval_moments(lo, hi)
    a = trans @ levels
    b2 = trans @ np.square(levels)
    return float(np.sum(m2) - 2.0 * (m1 @ a[region_codewords]) + mass @ b2[region_codewords])


def analytic_distortion(q: ScalarQuantizer, flips) -> float:
    """Closed-form expected squared error of `q` on the unit Gaussian over `flips`.

    Sums, over regions and receivable codewords, the flip probability times
    the truncated second moment about the received level.
    """
    flips = as_bsc_vector(flips)
    if flips.shape[0] != q.bit_depth:
        raise ValueError("flip vector length must equal quantizer bit depth")
    return _expected_distortion(
        q.thresholds, q.region_codewords, q.levels, bsc_transition_matrix(flips)
    )


def _optimal_regions(levels: np.ndarray, trans: np.ndarray):
    """Lower-envelope regions for fixed levels; returns (thresholds, codewords)."""
    n = levels.shape[0]
    a = trans @ levels
    b2 = trans @ np.square(levels)
    da = a[None, :] - a[:, None]  # [candidate l, rival j]
    db = b2[None, :] - b2[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = db / (2.0 * da)
    idx = np.arange(n)
    same = da == 0.0
    # exact (a, b) ties resolve toward the lower codeword index
    dominated = same & ((db < 0.0) | ((db == 0.0) & (idx[None, :] < idx[:, None])))
    lo = np.max(np.where(da < 0.0, cut, -np.inf), axis=1)
    hi = np.min(np.where(da > 0.0, cut, np.inf), axis=1)
    active = ~dominated.any(axis=1) & (lo < hi)
    order = np.flatnonzero(active)
    order = order[np.argsort(a[order], kind="stable")]
    return hi[order][:-1], order


def optimal_regions(levels, flips):
    """Distortion-minimizing partition for fixed levels under the flip channel.

    Returns (thresholds, region_codewords); codewords with empty regions are
    excluded. Adjacent regions meet at the equal-conditional-distortion point.
    """
    levels = np.asarray(levels, dtype=np.float64)
    flips = as_bsc_vector(flips)
    if levels.shape[0] != (1 << flips.shape[0]):
        raise ValueError("need one level per receivable codeword")
    if not np.all(np.isfinite(levels)):
        raise ValueError("levels must be finite")
    return _optimal_regions(levels, bsc_transition_matrix(flips))


def _optimal_levels(thresholds, region_codewords, trans) -> np.ndarray:
    lo, hi = _region_edges(thresholds)
    mass, m1, _ = interval_moments(lo, hi)
    p = trans[region_codewords, :]  # [region, received]
    num = p.T @ m1
    den = p.T @ mass
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0.0)
    return out


def optimal_levels(thresholds, region_codewords, flips) -> np.ndarray:
    """MMSE reconstruction level for every receivable codeword.

    A codeword that cannot be received (zero posterior mass, only possible on
    a noiseless channel) gets level 0, the prior mean.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.size and not np.all(np.diff(thresholds) > 0):
        raise ValueError("thresholds must be strictly increasing")
    region_codewords = np.asarray(region_codewords, dtype=np.int64)
    return _optimal_levels(thresholds, region_codewords, bsc_transition_matrix(flips))


@dataclass(frozen=True)
class DesignConfig:
    """Alternation controls: restart count, iteration cap, stop tolerance, RNG seed."""

    restarts: int = 10
    max_iters: int = 200
    rel_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")


def _alternate(init_levels, trans, cfg: DesignConfig, trace):
    levels = np.array(init_levels, dtype=np.float64)
    best = None
    prev = np.inf
    for _ in range(cfg.max_iters):
        thresholds, codewords = _optimal_regions(levels, trans)
        levels = _optimal_levels(thresholds, codewords, trans)
        dist = _expected_distortion(thresholds, codewords, levels, trans)
        if trace is not None:
            trace.append(dist)
        if best is None or dist < best[3]:
            best = (thresholds.copy(), codewords.copy(), levels.copy(), dist)
        if np.isfinite(prev) and abs(prev - dist) <= cfg.rel_tol * max(abs(dist), 1e-300):
            break
        prev = dist
    return best


def _quantile_levels(bit_depth: int) -> np.ndarray:
    n = 1 << bit_depth
    return np.array([inv_std_normal_cdf((i + 0.5) / n) for i in range(n)])


def _validate_bit_depth(bit_depth: int) -> None:
    if not 1 <= bit_depth <= MAX_BIT_DEPTH:
        raise ValueError(f"bit depth must be in [1, {MAX_BIT_DEPTH}], got {bit_depth}")


def _best_of_restarts(
    bit_depth: int, flips: np.ndarray, base: np.ndarray, stream_key: tuple, cfg: DesignConfig,
    extra_init_levels=None, trace: list | None = None,
) -> ScalarQuantizer:
    """Alternate from `base`, its jittered copies and any warm starts; keep the best.

    Restart r >= 1 adds zero-mean noise of scale 0.3 / 2^b to `base`, drawn
    from the stream (*stream_key, r).
    """
    inits = [base]
    scale = 0.3 / (1 << bit_depth)
    for r in range(1, cfg.restarts):
        rng = stream_rng(*stream_key, r)
        inits.append(base + rng.normal(0.0, scale, size=base.shape))
    for extra in () if extra_init_levels is None else extra_init_levels:
        extra = np.asarray(extra, dtype=np.float64)
        if extra.shape != base.shape:
            raise ValueError("warm-start levels need one entry per codeword")
        inits.append(extra)
    trans = bsc_transition_matrix(flips)
    best = None
    for init in inits:
        cand = _alternate(init, trans, cfg, trace)
        if best is None or cand[3] < best[3]:
            best = cand
    q = ScalarQuantizer(
        bit_depth=bit_depth,
        thresholds=best[0],
        levels=best[2],
        region_codewords=best[1],
        designed_for=flips.copy(),
        normalized_distortion=best[3],
    )
    q.validate()
    return q


_LM_CACHE: dict[tuple[int, DesignConfig], ScalarQuantizer] = {}


def design_lloyd_max(bit_depth: int, cfg: DesignConfig = DesignConfig()) -> ScalarQuantizer:
    """Classical noiseless-channel quantizer: midpoint thresholds, centroid levels.

    This is the flip-free specialization of the alternation, started from
    quantile-spaced levels plus jittered restarts.
    """
    _validate_bit_depth(bit_depth)
    key = (bit_depth, cfg)
    if key not in _LM_CACHE:
        _LM_CACHE[key] = _best_of_restarts(
            bit_depth, np.zeros(bit_depth), _quantile_levels(bit_depth),
            ("design-lm", cfg.seed, bit_depth), cfg,
        )
    return _LM_CACHE[key]


def design_channel_optimized(
    bit_depth: int,
    flips,
    cfg: DesignConfig = DesignConfig(),
    *,
    extra_init_levels=None,
    trace: list | None = None,
) -> ScalarQuantizer:
    """Best-of-restarts channel-aware quantizer for the unit Gaussian.

    Restart 0 starts from the noiseless solution (which also guarantees the
    result is no worse than Lloyd-Max evaluated under the same channel);
    further restarts jitter its levels with zero-mean noise of scale
    0.3 / 2^b on deterministic per-restart streams. `extra_init_levels` adds
    caller warm starts, e.g. the split levels of the previous bit depth when
    building a library column. If `trace` is a list, every iterate's
    distortion is appended to it across all restarts.
    """
    _validate_bit_depth(bit_depth)
    flips = as_bsc_vector(flips)
    if flips.shape[0] != bit_depth:
        raise ValueError("flip vector length must equal bit depth")
    lm = design_lloyd_max(bit_depth, cfg)
    fingerprint = flips.tobytes().hex()
    return _best_of_restarts(
        bit_depth, flips, lm.levels, ("design-cosq", cfg.seed, bit_depth, fingerprint), cfg,
        extra_init_levels, trace,
    )


def quantize(y, mean: float, std: float, q: ScalarQuantizer):
    """Map samples to sent codewords through the affine-normalized quantizer.

    Regions are half-open on the right, so a sample exactly on a threshold
    falls in the region to its left. Scalar in, scalar out; arrays vectorize,
    and mean/std may be per-sample arrays.
    """
    if not np.all(np.asarray(std) > 0):
        raise ValueError("std must be positive")
    ybar = (np.asarray(y, dtype=np.float64) - mean) / std
    idx = np.searchsorted(q.thresholds, ybar, side="left")
    out = q.region_codewords[idx]
    return out if np.ndim(y) else int(out)


def dequantize(codeword, mean: float, std: float, q: ScalarQuantizer):
    """Reconstruction for received codewords: std * level + mean (per-sample arrays allowed)."""
    if not np.all(np.asarray(std) > 0):
        raise ValueError("std must be positive")
    cw = np.asarray(codeword)
    if np.any(cw < 0) or np.any(cw >= (1 << q.bit_depth)):
        raise ValueError("codeword out of range for quantizer bit depth")
    out = q.levels[cw] * std + mean
    return out if np.ndim(codeword) else float(out)
