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
    The result must be bit-identical to the O(n^2) pairwise cuts, whose
    threshold is a minimum over all rivals that rounding can move by an ulp,
    so a candidate envelope is accepted only with a certificate (slopes
    apart, vertices apart, every other line clear of the envelope, with
    margins from the 3u rounding bound of a cut). The first candidate is the
    previous iteration's regions, checked with a few vector operations; in
    the default library build it holds for 95.4 % of the 120 582 updates.
    Next comes one stack pass over the lines sorted by slope (the convex hull
    trick), with the losers of exact slope ties left out, since they can
    never set a threshold: 4.6 %, among them every start's first update.
    Where that fails too, 0.06 % of the updates (72), nearly all on a near
    slope tie, the pairwise code runs instead.

  * level update: for fixed regions, each receivable codeword q gets the MMSE
    estimate of y given q, a ratio of flip-weighted truncated Gaussian moments.

Both updates are individually optimal, but the design still records the best
iterate seen and returns that, and runs from several starts: the noiseless
(Lloyd-Max) solution, jittered copies of it, and any caller-supplied warm
starts. The starts of one design run in lockstep, each with its own levels,
regions and stop rule, and a start leaves when it stops. One lockstep
iteration takes:

  * one region certificate over every live start's previous regions, as a
    batch padded to the widest hull. The padded index is kept while those
    regions stay the same arrays, and the stack-pass candidates of the
    starts that fail it share one more certificate. A certificate finds each
    line's vertex with one searchsorted per row (_vertex_index) and reduces
    its checks once per family: one all() over the hull pairs, one over the
    other lines;
  * one moments pass over every live start's regions, back to back;
  * per start, the level update, on the same operands as a start run alone;
  * one stacked product np.matmul(trans, X[..., None]) for every live
    start's (a, b) pair, X its levels and their squares. numpy runs it as
    one matrix-vector product (gemv) per row, the call a start alone makes
    on the same operands, so it rounds the same;
  * per start, the distortion.

The design is thus bit for bit the one the starts would give one after
another. On the noiseless channel (Lloyd-Max) the transition matrix is the
identity, and no product is taken: a is the levels plus 0.0 (which turns a
-0.0 into +0.0, as the BLAS sum does), b their squares, and each level the
ratio of its region's moments.

The level update and the expected distortion share the moments, and the
distortion and the next region update share (a, b).

A design of at least _SPLIT_CODEWORDS (64) codewords, b >= 6, runs on two
CPUs: this process runs the first half of its starts in lockstep, and a
helper process, forked at the first such design, runs the second half with
the same _alternate and sends back each start's best iterate and, when
traced, its distortions. From b = 6 on, per-start work dominates, so the
halves take about 60 to 70 % of the time for 10 to 30 % more CPU in all; at
b = 5 and below, each half pays the lockstep's per-iteration work in full,
and a split saves nothing (see _SPLIT_CODEWORDS, measured on an idle 2-core
host). Since a start's iterates are those of a run on its own, and the
halves are joined in start order, the best-of-restarts choice and the trace
are those of one process, bit for bit. The helper runs only where this
process may use two CPUs (by its affinity and any cgroup CPU quota), runs
one thread, can fork and is not a daemonic multiprocessing worker;
elsewhere, or while another thread's design holds it, a design runs every
start itself. A CPU that other work keeps busy is not seen, and there the
split costs its extra CPU for no gain. A process forked later starts a
helper of its own, and a process stops its helper at exit. If the helper
dies, the design runs its half in this process; if the helper raises, the
design raises the same exception.

Codewords are plain ints in [0, 2^b); bit j of a codeword (1-indexed, as seen
by the per-bit flip vector) is the j-th most significant of its b bits.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import math
import operator
import os
import signal
import sys
import threading
from dataclasses import dataclass

import numpy as np

from ._checks import check_count, check_int, check_positive_finite
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
    if not ((arr >= 0.0) & (arr <= 0.5)).all():  # NaN fails too
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
    probability flips[j]. Independent flips make M the Kronecker product of
    the 2 x 2 blocks [[1 - p_j, p_j], [p_j, 1 - p_j]], bit 1 (the MSB)
    outermost. It is built as a left fold from [[1.0]], each step taking the
    Kronecker product with the next bit's block, so every entry is
    ((g_1 * g_2) * g_3) ... * g_b, where g_j is p_j if the two codewords
    differ in bit j and 1 - p_j if not. Those are the factors of the
    per-bit product 1.0 * g_1 * g_2 ... * g_b, multiplied in the same order
    (1.0 * g_1 is g_1 exactly), so the fold gives that product bit for bit
    in about 4/3 of one pass over the final matrix. A depth above
    MAX_BIT_DEPTH is refused before any matrix is built.
    """
    return _transition_matrix(as_bsc_vector(flips))


def _transition_matrix(flips: np.ndarray) -> np.ndarray:
    """bsc_transition_matrix of a flip vector that as_bsc_vector has checked."""
    if flips.shape[0] > MAX_BIT_DEPTH:
        raise ValueError(f"bit depth {flips.shape[0]} exceeds supported maximum {MAX_BIT_DEPTH}")
    out = np.ones((1, 1))
    for p in flips.tolist():
        # new[i, r, j, c] = out[i, j] * g, g = p where bits r and c differ:
        # one long strided pass per block entry, where a broadcast product
        # would loop over the length-2 axes, about 5 times slower at b = 8
        new = np.empty((len(out), 2, len(out), 2))
        for r, c in ((0, 0), (0, 1), (1, 0), (1, 1)):
            np.multiply(out, p if r != c else 1.0 - p, out=new[:, r, :, c])
        out = new.reshape(2 * len(out), -1)
    return out


def bsc_corrupt(words: np.ndarray, flips, rng: np.random.Generator) -> np.ndarray:
    """Sample the bit-flip channel on an array of codeword ints.

    Every word must be an int in [0, 2^b), b the length of the flip vector;
    anything else raises ValueError before any draw.
    """
    flips = as_bsc_vector(flips)
    b = flips.shape[0]
    words = np.asarray(words)
    if words.dtype.kind not in "iu":
        raise ValueError(f"codewords must be ints, got array kind {words.dtype.kind!r}")
    if words.size and (words.min() < 0 or words.max() >= (1 << b)):
        raise ValueError(f"codeword out of range for {b}-bit words")
    out = words.copy()
    for j in range(b):
        mask = rng.random(words.shape) < flips[j]
        out = out ^ (mask.astype(words.dtype) << (b - 1 - j))
    return out


@dataclass(frozen=True)
class ScalarQuantizer:
    """A designed quantizer for the unit Gaussian source.

    thresholds:      strictly increasing region boundaries, length L - 1
    levels:          reconstruction level per receivable codeword, length 2^bit_depth
    region_codewords: codeword sent for each region, left to right, length L
    designed_for:    per-bit flip probabilities assumed at design time
    normalized_distortion: expected squared error on the unit Gaussian under
                     designed_for (cached from the design)

    The quantizer is frozen and keeps read-only copies of its arrays, so a
    cell shared by a library, its distortion table and design_lloyd_max's
    cache stays what it was made as. Construction raises ValueError unless
    the levels are finite, one per codeword; there is one more region than
    thresholds; the thresholds strictly increase; the region codewords are
    an int array of distinct b-bit words; and designed_for is a flip vector
    of length bit_depth (checked in that order). The distortion is not
    checked.
    """

    bit_depth: int
    thresholds: np.ndarray
    levels: np.ndarray
    region_codewords: np.ndarray
    designed_for: np.ndarray
    normalized_distortion: float

    def __post_init__(self):
        for name in ("thresholds", "levels", "region_codewords", "designed_for"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = 1 << self.bit_depth
        if self.levels.shape != (n,) or not np.isfinite(self.levels).all():
            raise ValueError("levels must be a finite vector with one entry per codeword")
        t, cw = self.thresholds, self.region_codewords
        if cw.shape[0] != t.shape[0] + 1:
            raise ValueError("need exactly one more region than thresholds")
        if not (t[..., 1:] > t[..., :-1]).all():
            raise ValueError("thresholds must be strictly increasing")
        if cw.dtype.kind not in "iu":  # quantize would send float codewords
            raise ValueError(f"region codewords must be ints, got array kind {cw.dtype.kind!r}")
        s = np.sort(cw)
        if (s[1:] == s[:-1]).any():
            raise ValueError("region codewords must be distinct")
        if s[0] < 0 or s[-1] >= n:
            raise ValueError("region codeword out of range")
        as_bsc_vector(self.designed_for)
        if self.designed_for.shape[0] != self.bit_depth:
            raise ValueError("designed_for length must equal bit_depth")

    @property
    def active_count(self) -> int:
        return int(self.region_codewords.shape[0])


_LEFT_EDGE = np.array([-np.inf])
_RIGHT_EDGE = np.array([np.inf])


def _region_moments(thresholds: np.ndarray):
    """(mass, m1, m2) of the unit Gaussian over each region, left to right: over the edges [-inf, thresholds, inf]."""
    edges = np.concatenate((_LEFT_EDGE, thresholds, _RIGHT_EDGE))
    return interval_moments(edges[:-1], edges[1:])


def _line_coefficients(levels: np.ndarray, trans: np.ndarray | None):
    """(a, b) with E[(y - yhat)^2 | sent l] = y^2 - 2 a_l y + b_l, per row of levels; trans None: identity."""
    if trans is None:
        return levels + 0.0, np.square(levels)
    ab = np.matmul(trans, np.array((levels, np.square(levels)))[..., None])[..., 0]
    return ab[0], ab[1]


def _expected_distortion(moments, region_codewords, a, b2) -> float:
    mass, m1, m2 = moments
    return float(m2.sum() - 2.0 * (m1 @ a.take(region_codewords)) + mass @ b2.take(region_codewords))


def analytic_distortion(q: ScalarQuantizer, flips) -> float:
    """Closed-form expected squared error of `q` on the unit Gaussian over `flips`.

    Sums, over regions and receivable codewords, the flip probability times
    the truncated second moment about the received level.
    """
    flips = as_bsc_vector(flips)
    if flips.shape[0] != q.bit_depth:
        raise ValueError("flip vector length must equal quantizer bit depth")
    return _analytic_distortion(q, flips)


def _analytic_distortion(q: ScalarQuantizer, flips: np.ndarray) -> float:
    """analytic_distortion over flips already checked, as a vector of q.bit_depth entries."""
    a, b2 = _line_coefficients(q.levels, _transition_matrix(flips))
    return _expected_distortion(_region_moments(q.thresholds), q.region_codewords, a, b2)


def _pairwise_regions(a: np.ndarray, b2: np.ndarray):
    """Regions from all (2^b)^2 pairwise cuts; returns (thresholds, codewords).

    The reference the envelope in _optimal_regions is certified against, and
    its fallback.
    """
    n = a.shape[0]
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


_UNIT_ROUNDOFF = 2.0**-53
_TIE_MARGIN = 4.0 * _UNIT_ROUNDOFF
_CUT_MARGIN = 16.0 * _UNIT_ROUNDOFF
_SMALLEST_NORMAL = float(np.finfo(np.float64).tiny)


def _optimal_regions(a: np.ndarray, b2: np.ndarray, index) -> list:
    """Lower envelope of the lines -2 a_l y + b_l, row by row; returns [(thresholds, codewords)].

    a, b2: (m, n), one row per region update; index: the _hull_index of one
    warm hull per row, or None for none. Each row's envelope is a candidate
    hull h_0..h_k (line indices by increasing slope) with cuts
    T_i = (b_j - b_l) / (2 (a_j - a_l)) for l = h_i, j = h_{i+1}. The result
    must equal _pairwise_regions bit for bit, whose threshold i is the
    minimum over every rival j of the same formula, so a candidate is
    accepted only with a certificate (_certified_cuts), which reads the
    candidates of its rows in one form, their _hull_index. Three candidates
    are tried in turn:

      * warm: the caller's hull, the previous iteration's region codewords of
        the same design run. The designer mostly keeps its codeword set from
        one iteration to the next, so this path usually answers, with no
        sort and no Python loop; one certificate, on the kept index, serves
        all the rows;
      * for each row without a warm hull or whose hull fails: the stack
        pass over its lines sorted by a (the convex hull trick), O(n) after
        an O(n log n) sort, with the losers of exact slope ties left out;
        one certificate serves all these rows, on an index built for them
        with _hull_index and the mask of each row's tie winners off its hull;
      * _pairwise_regions, whose tie rules hold by construction.

    Exact slope ties: the pairwise rule makes every line of a tie group but
    one inactive (the winner has the lowest b, then the lowest index). A
    loser never moves another line's threshold either: its cut with any line
    l has the same denominator fl(2 fl(a_w - a_l)) as the winner's, and its
    numerator fl(b_j - b_l) is no smaller, since rounding is monotone. So it
    is never strictly below the winner's cut where the pairwise code takes a
    minimum, nor above it where it takes a maximum. The stack pass therefore
    runs over the winners only, and the losers need no further check.

    Bound: each cut is three roundings away from the exact crossing of the
    two stored lines (two subtractions and a division; the doubling is
    exact), so it lies within 3u / (1 - 3u) relative of it, u = 2^-53,
    as long as it neither overflows nor underflows. If the exact crossing of
    l and any other rival lies further than about 6u |T_i| right of the
    exact vertex t_i, the rounded cut cannot fall below T_i, and the pairwise
    minimum is T_i. The checks, with margins of 16u (the 3u bound, the
    rounding of the check itself, and slack):

      * hull slopes increasing by more than 4u relative, so a near tie on
        the hull falls back, and every other line's slope strictly between
        a(h_0) and a(h_k), so h_0 and h_k hold the outer regions and no other
        line ties with them. Lines off the hull need no slope margin: the
        gap check below covers a near or exact tie with the hull;
      * every cut T_i finite, and zero or a normal float;
      * hull vertices separated: beta_{i+1} (T_{i+1} - T_i) > 16u (|T_i| +
        |T_{i+1}|) (beta_i + beta_{i+1}), beta_i = a(h_{i+1}) - a(h_i). The
        hull line h_{i+2} crosses h_i at t_i + (t_{i+1} - t_i) beta_{i+1} /
        (beta_i + beta_{i+1}), and no later hull line crosses it closer;
      * every other line j clear of the envelope at the vertex t_v its slope
        falls into (a(h_v) < a_j <= a(h_{v+1}), where j - envelope is least):
        gap > 16u (max_{i <= v} beta_i |T_i| + |b_j - b(h_v)| + 2 |a_j -
        a(h_v)| |T_v|). Then j crosses every hull line left of it far enough
        from the vertex, and its own pairwise interval is empty. A line tied
        exactly with h_{v+1} passes only if it lies clearly above it, as a
        loser of the tie.
    """
    out = [None] * a.shape[0]
    if index is not None:
        _accept(out, range(len(out)), index[0], _certified_cuts(a, b2, index))
    rows = [r for r, regions in enumerate(out) if regions is None]
    if rows:
        hulls, rest = zip(*[_stack_candidate(a[r], b2[r]) for r in rows])
        index = _hull_index(hulls, (len(rows), a.shape[1]), np.array(rest))
        _accept(out, rows, hulls, _certified_cuts(a.take(rows, axis=0), b2.take(rows, axis=0), index))
        for r in rows:
            if out[r] is None:
                out[r] = _pairwise_regions(a[r], b2[r])
    return out


def _accept(out: list, rows, hulls, certified) -> None:
    """out[rows[i]] = (thresholds, hulls[i]) for every row i that `certified` (ok, cut) passes."""
    ok, cut = certified
    for i in np.flatnonzero(ok).tolist():
        out[rows[i]] = cut[i, : hulls[i].size - 1], hulls[i]


def _stack_candidate(a: np.ndarray, b2: np.ndarray):
    """One row's stack-pass hull, and the mask of the other lines that can be active."""
    by_a = np.argsort(a, kind="stable")
    slopes = a.take(by_a)
    if not np.all(np.diff(slopes) > 0.0):
        # exact ties: keep each group's winner, by lowest b and then index
        by_a = np.lexsort((b2, a))
        by_a = by_a[np.concatenate(([True], np.diff(a.take(by_a)) != 0.0))]
        slopes = a.take(by_a)
    hull = by_a[_stack_hull(slopes.tolist(), b2.take(by_a).tolist())]
    rest = np.zeros(a.size, dtype=bool)
    rest[by_a] = True
    rest[hull] = False
    return hull, rest


def _stack_hull(slopes: list[float], offsets: list[float]) -> list[int]:
    """Positions of the lower-envelope lines among lines of strictly increasing slope.

    The top of the stack is popped while the new line cuts it at or left of
    the top's own left cut.
    """
    hull = [0]
    cuts: list[float] = []
    for j in range(1, len(slopes)):
        a_j, b_j = slopes[j], offsets[j]
        while True:
            top = hull[-1]
            x = (b_j - offsets[top]) / (2.0 * (a_j - slopes[top]))
            if cuts and x <= cuts[-1]:
                hull.pop()
                cuts.pop()
            else:
                break
        hull.append(j)
        cuts.append(x)
    return hull


def _hull_index(hulls, shape: tuple, rest: np.ndarray | None = None) -> tuple:
    """Ragged hulls padded to the widest with copies of their last line, as indices into (m, n) lines.

    Returns (hulls, row, flat, pair, rest): the hull arrays as a tuple,
    np.arange(m)[:, None], the (m, width) indices into the lines' ravel(),
    the mask of real (unpadded) neighbour pairs, and the mask of the other
    lines that can be active (by default every line off the hull).
    """
    m, n = shape
    size = np.array([hull.size for hull in hulls])
    width = int(size.max())
    row = np.arange(m)[:, None]
    pad = np.minimum(np.arange(width), size[:, None] - 1) + (np.cumsum(size) - size)[:, None]
    flat = np.concatenate(hulls).take(pad) + row * n
    if rest is None:
        rest = np.ones(m * n, dtype=bool)
        rest[flat] = False
        rest = rest.reshape(shape)
    pair = np.arange(width - 1) < size[:, None] - 1
    return tuple(hulls), row, flat, pair, rest


def _certified_cuts(a: np.ndarray, b2: np.ndarray, index: tuple):
    """Cuts between neighbouring hull lines, row by row, and whether they are the pairwise thresholds.

    a, b2: (m, n) lines, one row per region update; index: the _hull_index
    of one candidate envelope per row, meant in increasing slope, with its
    mask of the other lines that can be active. Returns (ok, cut): row r is
    certified iff ok[r] (see _optimal_regions for the checks), and then its
    thresholds are cut[r, :hulls[r].size - 1], hulls = index[0].

    The padded pairs are masked out, so every row is checked on its own
    lines only, with the same operations on the same operands as alone.
    """
    _, row, flat, pair, rest = index
    width = flat.shape[1]
    ah = a.take(flat)
    bh = b2.take(flat)
    beta = ah[:, 1:] - ah[:, :-1]
    lines = (a > ah[:, :1]) & (a < ah[:, -1:])
    # a padded pair divides 0 by 0; its cut is never read
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cut = (bh[:, 1:] - bh[:, :-1]) / (2.0 * beta)
        abs_cut = np.abs(cut)
        pairs = (beta > _TIE_MARGIN * (np.abs(ah[:, :-1]) + np.abs(ah[:, 1:]))) & np.isfinite(cut)
        pairs &= (abs_cut >= _SMALLEST_NORMAL) | (cut == 0.0)
        # separation of vertices i and i + 1 is checked with pair i + 1
        pairs[:, 1:] &= (
            beta[:, 1:] * (cut[:, 1:] - cut[:, :-1])
            > _CUT_MARGIN * (abs_cut[:, :-1] + abs_cut[:, 1:]) * (beta[:, :-1] + beta[:, 1:])
        )
        ok = (~pair | pairs).all(axis=1)
        if width > 1 and rest.any():
            # v: the flat index in ah of each line's vertex (v - row in cut).
            # A lookup off the row's pairs, clipped, comes only from a row
            # that already failed or from a line outside `rest`.
            v = _vertex_index(ah, a)
            vc = v - row
            cut_v = cut.take(vc, mode="clip")
            abs_cut_v = abs_cut.take(vc, mode="clip")
            da = a - ah.take(v, mode="clip")
            db = b2 - bh.take(v, mode="clip")
            gap = db - 2.0 * da * cut_v
            reach = np.maximum.accumulate(beta * abs_cut, axis=1).take(vc, mode="clip")
            lines &= gap > _CUT_MARGIN * (reach + np.abs(db) + 2.0 * np.abs(da) * abs_cut_v)
    ok &= (~rest | lines).all(axis=1)
    return ok, cut


def _vertex_index(ah: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Flat index in ah (m, width) of each line's vertex in a (m, n): per row, the last hull slope below its own.

    One search per row, offset by the row's base index: in a row whose hull
    slopes increase, line j's vertex is the hull line h_v with a(h_v) <
    a_j <= a(h_{v+1}). Within the row, v is -1 where a_j <= a(h_0) and
    width - 1 where a_j exceeds the last slope; only lines outside the slope
    range get either.
    """
    m, width = ah.shape
    v = np.empty(a.shape, dtype=np.intp)
    for r in range(m):
        v[r] = ah[r].searchsorted(a[r])
    v += np.arange(-1, m * width - 1, width)[:, None]
    return v


def _optimal_levels(moments, region_codewords, trans, n: int) -> np.ndarray:
    """MMSE reconstruction level for each of the n receivable codewords.

    A codeword that cannot be received (zero posterior mass, only possible on
    a noiseless channel) gets level 0, the prior mean. trans None is the
    identity, whose products put each region's moments on its codeword.
    """
    mass, m1, _ = moments
    if trans is None:
        num = np.zeros(n)
        den = np.zeros(n)
        num[region_codewords] = m1
        den[region_codewords] = mass
    else:
        p = trans.take(region_codewords, axis=0)  # [region, received]
        num = p.T @ m1
        den = p.T @ mass
    out = np.zeros(n)
    np.divide(num, den, out=out, where=den > 0.0)
    return out


@dataclass(frozen=True)
class DesignConfig:
    """Alternation controls: restart count, iteration cap, stop tolerance, RNG seed."""

    restarts: int = 10
    max_iters: int = 200
    rel_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        # a float or bool count would be carried into the library file and
        # fail (or re-serialize differently) only at the next design
        check_count("restarts", self.restarts)
        check_count("max_iters", self.max_iters)
        check_int("seed", self.seed)
        # an infinite tolerance would stop every design after two iterations
        check_positive_finite("rel_tol", self.rel_tol)


def _alternate(inits: np.ndarray, trans, cfg: DesignConfig, trace) -> list:
    """Alternate from every row of `inits` in lockstep; returns each start's best iterate.

    A start leaves the live set when it meets the stop rule or reaches
    max_iters, and its iterates are exactly those of a run on its own: one
    region update serves the live starts, whose levels stay a row apart.
    A list `trace` receives every start's distortions, start after start
    (they are kept only then). trans None is the noiseless channel. The
    live starts' previous region
    codewords are their candidate hulls, kept only in their _hull_index
    (none on the first pass), which is rebuilt only when a hull changed or
    a start left.
    """
    starts, n = inits.shape
    a, b2 = _line_coefficients(inits, trans)  # rows: the live starts
    best = [None] * starts
    prev = [np.inf] * starts
    dists = None if trace is None else [[] for _ in range(starts)]
    live = list(range(starts))
    index = None
    for _ in range(cfg.max_iters):
        regions = _optimal_regions(a, b2, index)
        # One moments pass covers every live start: their edge vectors [-inf,
        # thresholds, inf] back to back are adjacent intervals, with a junk
        # interval (inf, -inf] between two starts.
        edges = np.concatenate([e for t, _ in regions for e in (_LEFT_EDGE, t, _RIGHT_EDGE)])
        mass, m1, m2 = interval_moments(edges[:-1], edges[1:])
        moments = []
        lo = 0
        for _, codewords in regions:
            hi = lo + codewords.size
            moments.append((mass[lo:hi], m1[lo:hi], m2[lo:hi]))
            lo = hi + 1
        levels = [_optimal_levels(mo, codewords, trans, n) for mo, (_, codewords) in zip(moments, regions)]
        a, b2 = _line_coefficients(np.array(levels), trans)
        keep = []
        for i, r in enumerate(live):
            thresholds, codewords = regions[i]
            dist = _expected_distortion(moments[i], codewords, a[i], b2[i])
            if dists is not None:
                dists[r].append(dist)
            if best[r] is None or dist < best[r][3]:
                # fresh arrays every iteration, never written to
                best[r] = (thresholds, codewords, levels[i], dist)
            if math.isfinite(prev[r]) and abs(prev[r] - dist) <= cfg.rel_tol * max(abs(dist), 1e-300):
                continue
            prev[r] = dist
            keep.append(i)
        if not keep:
            break
        if len(keep) < len(live):
            live = [live[i] for i in keep]
            a, b2 = a[keep], b2[keep]
        warm = [regions[i][1] for i in keep]
        if index is None or len(warm) != len(index[0]) or not all(map(operator.is_, warm, index[0])):
            index = _hull_index(warm, a.shape)
    if dists is not None:
        for d in dists:
            trace.extend(d)
    return best


# A design with at least this many codewords (b >= 6) sends half its starts
# to the helper. One cell's design, split against in process, alternating,
# 18 runs per b at eps 1e-4, 1e-3 and 1e-2 (median wall; main process plus
# helper CPU), on an idle 2-core host: b = 5, 65.9 against 63.2 ms (split
# faster in 9 of 18) for 108 against 63 ms of CPU; b = 6, 71.3 against
# 102.9 ms; b = 7, 89.4 against 125.1 ms; b = 8, 177.6 against 290.5 ms
# (split faster in 15, 18 and 18 of 18). Each half pays the lockstep's
# per-iteration work in full, which at b = 5 is as large as the per-start work.
_SPLIT_CODEWORDS = 64

# Per process id, the helper it started (None once one failed to start), so
# that a process forked after it starts its own. The lock is held from a
# design's first use of the helper to its reply; a design that finds it taken
# runs every start itself.
_HELPERS: dict[int, _Helper | None] = {}
_HELPER_LOCK = threading.Lock()


def _helper_can_run() -> bool:
    """Whether a forked helper can run beside this process.

    It needs two CPUs that this process may use (its affinity and any cgroup
    CPU quota; a CPU that is busy with other work is not seen), fork, and one
    thread here: a fork copies only the calling thread, so a lock another
    thread holds would stay held in the helper. A daemonic multiprocessing
    worker, one of a pool that already shares out the CPUs, runs in process.
    """
    if not hasattr(os, "sched_getaffinity") or min(len(os.sched_getaffinity(0)), _cgroup_cpus()) < 2:
        return False
    if threading.active_count() != 1:
        return False
    multiprocessing = sys.modules.get("multiprocessing")  # a worker has imported it
    return multiprocessing is None or not multiprocessing.current_process().daemon


@functools.cache
def _cgroup_cpus(proc: str = "/proc/self/cgroup", mount: str = "/sys/fs/cgroup") -> float:
    """The CPUs that the cgroup CPU quotas leave this process: the least over its cgroups and their ancestors.

    cgroup v2 reads "<quota> <period>" from cpu.max ("max" for none), v1
    cpu.cfs_quota_us (-1 for none) and cpu.cfs_period_us under <mount>/cpu.
    inf when no quota is set or none can be read.
    """
    cpus = math.inf
    try:
        with open(proc) as fh:
            entries = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return cpus
    for _, controllers, path in entries:
        if controllers == "":
            root, names = mount, ("cpu.max",)
        elif "cpu" in controllers.split(","):
            root, names = os.path.join(mount, "cpu"), ("cpu.cfs_quota_us", "cpu.cfs_period_us")
        else:
            continue
        folder = root + path.rstrip("/")
        while True:
            try:
                words = []
                for name in names:
                    with open(os.path.join(folder, name)) as fh:
                        words += fh.read().split()
                quota, period = words
                if quota not in ("max", "-1"):
                    cpus = min(cpus, int(quota) / int(period))
            except (OSError, ValueError):  # no such file, or not of this form
                pass
            if len(folder) <= len(root):
                break
            folder = os.path.dirname(folder)
    return cpus


class _Helper:
    """A forked process that runs _alternate on each batch of starts it receives (see _serve)."""

    def __init__(self):
        from multiprocessing.connection import Pipe  # here, so that no import of this module pays for it

        self.conn, helper_end = Pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the helper: never returns to the caller
            try:
                self.conn.close()
                _serve(helper_end)
            finally:
                os._exit(0)
        helper_end.close()

    def discard(self) -> None:
        """Stop the helper and wait for it; the next split in this process starts a new one."""
        _HELPERS.pop(os.getpid(), None)
        self.conn.close()
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGTERM)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(self.pid, 0)


@atexit.register
def _discard_own_helper() -> None:
    """At exit, stop this process's helper, not one that the process it was forked from started."""
    helper = _HELPERS.get(os.getpid())
    if helper is not None:
        helper.discard()


def _serve(conn) -> None:
    """The helper's loop: reply to each (inits, trans, cfg fields, traced) with (error, best, trace).

    The config comes as its fields, so that a class pickled by reference
    cannot resolve to another import of this module.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is for the main process to handle
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # discard() ends it, whatever the main process set
    while True:
        try:
            inits, trans, fields, traced = conn.recv()
        except EOFError:  # the main process has closed its end or exited
            return
        trace = [] if traced else None
        try:
            reply = None, _alternate(inits, trans, DesignConfig(**fields), trace), trace
        except Exception as exc:  # noqa: BLE001 - the main process re-raises it
            reply = exc, None, None
        try:
            conn.send(reply)
        except OSError:  # the main process has gone
            return


def _alternate_split(inits: np.ndarray, trans, cfg: DesignConfig, trace) -> list:
    """_alternate over every row of `inits`; from _SPLIT_CODEWORDS codewords on, the helper runs the second half.

    The halves are joined in start order, so the best iterates and the trace
    are those of one _alternate call over every start.
    """
    starts, n = inits.shape
    cut = (starts + 1) // 2
    if n < _SPLIT_CODEWORDS or cut == starts or not _helper_can_run() or not _HELPER_LOCK.acquire(blocking=False):
        return _alternate(inits, trans, cfg, trace)
    try:
        pid = os.getpid()
        if pid not in _HELPERS:
            try:
                _HELPERS[pid] = _Helper()
            except OSError:  # no process to fork: run in this one from now on
                _HELPERS[pid] = None
        helper = _HELPERS[pid]
        if helper is not None:
            try:
                helper.conn.send((inits[cut:], trans, vars(cfg), trace is not None))
            except OSError:  # the helper has died
                helper.discard()
                helper = None
        if helper is None:
            return _alternate(inits, trans, cfg, trace)
        try:
            first = _alternate(inits[:cut], trans, cfg, trace)
            try:
                error, second, dists = helper.conn.recv()
            except (EOFError, OSError):  # the helper has died: run its half here
                helper.discard()
                return first + _alternate(inits[cut:], trans, cfg, trace)
        except BaseException:
            helper.discard()  # else its pending reply would answer the next design
            raise
        if error is not None:
            raise error
        if trace is not None:
            trace.extend(dists)
        return first + second
    finally:
        _HELPER_LOCK.release()


def _quantile_levels(bit_depth: int) -> np.ndarray:
    n = 1 << bit_depth
    return inv_std_normal_cdf((np.arange(n) + 0.5) / n)


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
    trans = _transition_matrix(flips) if flips.any() else None  # None: the identity
    best = None
    for cand in _alternate_split(np.array(inits), trans, cfg, trace):
        if best is None or cand[3] < best[3]:
            best = cand
    return ScalarQuantizer(
        bit_depth=bit_depth,
        thresholds=best[0],
        levels=best[2],
        region_codewords=best[1],
        designed_for=flips,
        normalized_distortion=best[3],
    )


# every caller gets the same frozen quantizer, whose arrays are read-only
_LM_CACHE: dict[tuple[int, DesignConfig], ScalarQuantizer] = {}


def design_lloyd_max(bit_depth: int, cfg: DesignConfig = DesignConfig()) -> ScalarQuantizer:
    """Classical noiseless-channel quantizer: midpoint thresholds, centroid levels.

    This is the flip-free specialization of the alternation, started from
    quantile-spaced levels (Phi^-1 of (i + 0.5) / 2^b, all in one array
    bisection) plus jittered restarts. Its channel is the identity, so the
    alternation takes no matrix products (see the module docstring).
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
    falls in the region to its left. It works elementwise, and mean/std may
    be per-sample arrays broadcast against y (the trial chain passes a
    (frames, n) batch with one mean and std per column). Every std must be
    positive.
    """
    if not (np.asarray(std) > 0).all():
        raise ValueError("std must be positive")
    u = (np.asarray(y, dtype=np.float64) - mean) / std
    return q.region_codewords[np.searchsorted(q.thresholds, u, side="left")]


def dequantize(codeword, mean: float, std: float, q: ScalarQuantizer):
    """Reconstruction for received codewords: level * std + mean.

    It works elementwise, and mean/std may be per-sample arrays broadcast
    against the codewords, as in quantize. Every std must be positive and
    every codeword a b-bit word.
    """
    if not (np.asarray(std) > 0).all():
        raise ValueError("std must be positive")
    cw = np.asarray(codeword)
    if cw.size and (cw.min() < 0 or cw.max() >= (1 << q.bit_depth)):
        raise ValueError("codeword out of range for quantizer bit depth")
    return np.take(q.levels, cw) * std + mean
