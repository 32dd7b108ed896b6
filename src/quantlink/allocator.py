"""Cross-layer allocation: bit depths, BER target, modulation and power.

A plan runs in three steps.

  * Rate every BER target on the library grid. For target q, b_lat[q] is the
    total of the per-element minimum bit depths: each element gets the
    smallest depth whose distortion meets its bound 1/(sigma^2 + 1), and
    variances below the negligibility threshold get zero bits. r_sym[q] is
    the bits per OFDM symbol of greedy loading: from silence, the subcarrier
    with the cheapest power increment for one modulation step (QPSK -> 16 ->
    64 -> 256-QAM) is raised until the next increment no longer fits the
    budget. Each subcarrier's power hits the BER target exactly given its
    gain, so the per-bit flip probability matches the quantizer design point.

  * Select the target minimizing b_lat / r_sym (ties to the smaller target);
    the symbol count is the ceiling of that ratio. Only this target's depths,
    modulations and powers are built, by the per-target functions
    (minimum_bit_allocation, allocate_power_modulation) that define b_lat and
    r_sym. b_lat and the depths depend only on the source, the library and
    the negligibility threshold, so they are kept per source (see
    optimize_plan).

  * Grant leftover symbol capacity bit by bit to the element with the largest
    marginal weighted-distortion reduction, and pad what is left once every
    element saturates with pseudo-random dummy bits. Only the residual
    t_sym * r_sym - b_lat in [0, r_sym) depends on the channel, so one record
    is kept per source and winning target: its depths, the grant order of
    its largest refinement so far and how far the depths can grow (see
    _refined_bits).

The greedy loops have closed forms. The first depth whose distortion meets a
bound is the first whose running minimum min(D(1..b)) does, and that never
rises, so on any column a minimum depth is 1 + #{b : min(D(1..b)) > bound}:
one searchsorted per target, and b_lat[q] one searchsorted of column q's
running minimum into the sorted bounds.
Refinement grants the `residual` largest keys sigma_i^2 min(dec[b_i..b]),
ties in (element, depth) order (see refine_bit_allocation); key and tie order
rank the candidates totally, so the grants at residual r are the first r of
the grants at any R >= r.

Loading takes the longest prefix of the sorted power increments whose running
sum (accumulated in the loop's order, so bit for bit the same) fits the
budget. The SNR-threshold steps of every library's step table never shrink
under an exact float test, so the greedy is exactly optimal and its order is
the sorted order of all (subcarrier, step) costs, ties by subcarrier, then
step (Hughes-Hartogs loading is one ascending sort of its increments;
J. Campello, "Practical bit loading for DMT", ICC 1999). A target's costs
are four runs inc[s] * sorted(noise_var/|h|^2), one per step and each
sorted. Equal costs leave the running sums alike, so r_sym needs only the
sorted values, and one prefix search (_prefixes) sorts and sums each row
only as far as the loosest target's prefix reaches. r_sym follows the
channel, the budget and the step table alone, not the source, so the rating
keeps per channel a record of every target's prefix length and last cost
with the inverse gains (_LoadingRecord). A later rating at that budget and
step table, on any source, reads r_sym there and searches nothing. A
loading takes one path: it finds its row in the kept record (a library row,
checked when the library was made), or else checks the row with the
library's own test (gamma_increments_convex) and makes a one-row record of
its own with the same search. It places the row once, as the prefix's count
of smallest (subcarrier, step) costs, ties in that order (_smallest), and
returns copies of what the record keeps. What a plan chooses (the target,
t_sym, the dummy count and the refined bits) follows the source's rating and
the channel's record alone, so every plan is built from the choice the record
keeps. The first plan of a rating on a record makes it (the selection, the
winner's depths and its refinement), a zero-bit one included, in place of
the last. Every plan then reads its target, t_sym, dummy count and bits
there, and runs the loading when t_sym > 0.

Where each bit goes is not stored in a plan: build_bit_mapping derives the
placement from modulations and t_sym, for the digest and the frame layout
alike, and a property test shows it a bijection onto the active bit slots.
"""

from __future__ import annotations

import hashlib
import json
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._checks import check_int, check_nonnegative_finite, is_int
from ._version import __version__
from .channel import ChannelRealization
from .library import DEFAULT_DELTA, QuantizerLibrary, gamma_increments_convex
from .modem import QAM_BITS
from .rng import stream_seed

__all__ = [
    "InfeasibleTargetError",
    "NoFeasibleRateError",
    "LatentStats",
    "AllocationPlan",
    "target_distortion",
    "minimum_bit_allocation",
    "allocate_power_modulation",
    "select_ber_target",
    "refine_bit_allocation",
    "build_bit_mapping",
    "optimize_plan",
    "validate_plan",
    "serialize_plan",
]

POWER_SLACK = 1e-9


class InfeasibleTargetError(Exception):
    """No bit depth in the library meets an element's distortion bound."""


class NoFeasibleRateError(Exception):
    """No BER target on the grid supports a positive per-symbol rate."""


@dataclass(frozen=True, eq=False)
class LatentStats:
    """Per-element Gaussian parameters driving allocation and synthesis.

    means and variances are equal-length 1-D vectors of ints or floats, kept
    as read-only float64 copies: finite means, finite nonnegative variances.
    A string or bool entry is refused, not converted. The stats are frozen
    and their digest is taken on construction, so what optimize_plan keeps
    per stats object (see _SourceRating) stays true of them;
    dataclasses.replace makes new stats.
    """

    means: np.ndarray
    variances: np.ndarray
    _digest: str = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("means", "variances"):
            kind = np.asarray(getattr(self, name)).dtype.kind
            if kind not in "iuf":
                raise ValueError(f"{name} must hold only ints and floats, got array kind {kind!r}")
            object.__setattr__(self, name, np.array(getattr(self, name), dtype=np.float64))
            getattr(self, name).setflags(write=False)
        if self.means.shape != self.variances.shape or self.means.ndim != 1:
            raise ValueError("means and variances must be 1-D vectors of equal length")
        if not np.all(np.isfinite(self.means)):
            raise ValueError("means must be finite")
        if not np.all(np.isfinite(self.variances) & (self.variances >= 0)):
            raise ValueError("variances must be finite and nonnegative")
        object.__setattr__(self, "_digest", hashlib.sha256(np.append(self.means, self.variances)).hexdigest())

    @property
    def n(self) -> int:
        return int(self.means.size)

    def digest(self) -> str:
        return self._digest


class _SourceRating:
    """What every plan of one source on one library and delta shares.

    infeasible is the first target with an element that no depth serves (None
    if none) and b_lat every target's minimum bit total. winners[q] is one
    record per target that has won a plan, (depths, order, headroom): the
    minimum_bit_allocation depths, the grant order of the largest refinement
    made so far, and the number of bits the depths can still grow; see
    _refined_bits. Every array is read-only. key is the (library digest,
    delta) it was made for. Only a plan that completes keeps its rating, so a
    kept rating has no infeasible target; kept says whether one has, so the
    rating is stored once. A plain class: a dataclass costs each import
    about 0.6 ms to generate its methods.
    """

    __slots__ = ("infeasible", "b_lat", "winners", "key", "kept")

    def __init__(self, infeasible: int | None, b_lat: np.ndarray, key: tuple):
        self.infeasible = infeasible
        self.b_lat = b_lat
        self.winners: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        self.key = key
        self.kept = False


# what the planner keeps per input object, keyed by identity (the inputs are
# frozen, so an entry stays true of its key): the source's last rating
# (optimize_plan) and the channel's last loading record (_rate_targets); an
# entry goes with its key
_RATINGS: weakref.WeakKeyDictionary[LatentStats, _SourceRating] = weakref.WeakKeyDictionary()
_LOADINGS: weakref.WeakKeyDictionary[ChannelRealization, _LoadingRecord] = weakref.WeakKeyDictionary()


def target_distortion(sigma2):
    """Element distortion target sigma^2 / (sigma^2 + 1), elementwise.

    A negative or NaN sigma^2 raises ValueError.
    """
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if not (sigma2 >= 0).all():  # NaN fails too
        raise ValueError("sigma2 must be nonnegative")
    return sigma2 / (sigma2 + 1.0)


def minimum_bit_allocation(
    lib: QuantizerLibrary, stats: LatentStats, eps_index: int, delta: float = DEFAULT_DELTA
) -> tuple[np.ndarray, int]:
    """Per-element minimum bit depths at target eps_index, and their total.

    An element's depth is the smallest b with D(1; b, eps) <= 1/(sigma^2 + 1)
    (on any column, see the module docstring); variances below `delta` are
    negligible and get zero bits. Raises InfeasibleTargetError for the first
    element that no depth serves.
    """
    floor = np.minimum.accumulate(lib.distortion_column(eps_index))
    bound = 1.0 / (stats.variances + 1.0)
    # an infeasible element gets depth b_max + 1 here
    bits = floor.size + 1 - np.searchsorted(floor[::-1], bound, "right").astype(np.int64)
    bits[stats.variances < delta] = 0
    bad = np.flatnonzero(bits > floor.size)
    if bad.size:
        i = int(bad[0])
        raise InfeasibleTargetError(
            f"element {i}: no bit depth <= {lib.b_max} reaches distortion "
            f"{bound[i]:.6g} (sigma2 = {stats.variances[i]:.6g}, eps index {eps_index})"
        )
    return bits, int(bits.sum())


def allocate_power_modulation(
    channel: ChannelRealization, p_tot: float, gamma_steps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Greedy modulation/power loading of one OFDM symbol.

    gamma_steps is a vector [0, gamma(QPSK), ..., gamma(256-QAM)] of SNR
    thresholds, strictly increasing, with steps that never shrink (as each
    library's step_table() row); other input raises ValueError. Returns
    (modulations, powers, bits/symbol).

    The loading is a row of a _LoadingRecord: of the channel's kept record
    when _rate_targets has rated the channel at this budget and gamma_steps
    is a float64 array equal to a row of its step table, else of a one-row
    record made for this call alone and not kept. A row of the kept record
    came from a library's step table, which passed these checks when the
    library was made, so only a row the kept record lacks is checked here,
    by the library's test of its steps (gamma_increments_convex). Either
    record places the row once, by the one tie-ordered selection
    (_LoadingRecord.place), and the call returns copies of the placed
    arrays, so they are always the caller's own.
    """
    if not p_tot > 0:
        raise ValueError("p_tot must be positive")
    record = _LOADINGS.get(channel)
    q = None if record is None else record.row(p_tot, gamma_steps)
    if q is None:  # a one-row record of this call's own, not kept
        record, q = _LoadingRecord(channel, p_tot, *_checked_steps(gamma_steps)), 0
    if q not in record.placed:
        record.place(q)
    modulations, powers, bits = record.placed[q]
    return modulations.copy(), powers.copy(), bits


def _checked_steps(gamma_steps) -> tuple[np.ndarray, np.ndarray]:
    """One step row as a (1, 5) table and its (1, 4) increments; ValueError unless a library could hold it."""
    gamma_steps = np.asarray(gamma_steps, dtype=np.float64)
    if gamma_steps.shape != (len(QAM_BITS) + 1,) or gamma_steps[0] != 0.0:
        raise ValueError("gamma_steps must be [0, gamma(QPSK), ..., gamma(256-QAM)]")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN, which fails both tests
        increments = np.diff(gamma_steps)
        if not np.all(increments > 0):
            raise ValueError("gamma_steps must be strictly increasing")
        if not gamma_increments_convex(gamma_steps):
            raise ValueError("gamma_steps increments must never shrink")
    return gamma_steps[None, :], increments[None, :]


class _LoadingRecord:
    """The loading's prefix search on one channel at one budget, and the loadings placed from it.

    p_tot is the budget, steps the (rows, 5) step table searched and
    increments its (rows, 4) increments, both read-only; index maps each
    row, as a tuple, to its first index. The constructor computes the
    inverse gains (inv_gain) and each row's prefix: taken[q] and kth[q] are
    how many of row q's sorted costs fit the budget and the last one of them
    (see _prefixes), and r_sym = 2 * taken their bits per OFDM symbol (each
    step adds 2 bits). placed[q] is row q's loading (modulations, powers,
    bits/symbol) once place() has placed it. Every array is read-only.

    _rate_targets keeps the record of the library's step table per channel:
    a rating at this p_tot and this step table (the same array, or equal
    rows), on any source or library, reads r_sym here, and a
    rating at another budget or step table replaces the record.
    allocate_power_modulation places a row of the kept record once, or of a
    one-row record of its own at any other budget or step row.

    choice is what the last rating planned on the kept record chose, or
    None: (rating, eps_index, t_sym, dummy bits, refined bits), the rating
    being the source's _SourceRating it was made from and the bits a
    read-only uint8 row (no depth exceeds MAX_BIT_DEPTH). A zero-bit plan
    keeps one too, with t_sym = 0 and a row of zeros. Every plan follows
    from its rating and this record alone, so optimize_plan builds each plan
    from the choice of its rating object (see there).
    """

    __slots__ = ("p_tot", "steps", "increments", "index", "inv_gain", "taken", "kth", "r_sym", "placed", "choice")

    def __init__(self, channel: ChannelRealization, p_tot: float, steps: np.ndarray, increments: np.ndarray):
        # keep no array that can change; a library's tables are read-only already
        steps, increments = (a.copy() if a.flags.writeable else a for a in (steps, increments))
        self.p_tot, self.steps, self.increments = p_tot, steps, increments
        self.index: dict[tuple, int] = {}
        for q, row in enumerate(steps.tolist()):
            self.index.setdefault(tuple(row), q)
        self.inv_gain = _inverse_gains(channel)
        self.taken, self.kth = _prefixes(increments, np.sort(self.inv_gain), p_tot)
        self.r_sym = 2 * self.taken
        self.placed: dict[int, tuple[np.ndarray, np.ndarray, int]] = {}
        self.choice: tuple[_SourceRating, int, int, int, np.ndarray] | None = None
        for arr in (self.steps, self.increments, self.inv_gain, self.taken, self.kth, self.r_sym):
            arr.setflags(write=False)

    def rated(self, p_tot: float, steps: np.ndarray) -> bool:
        """Whether this record searched the step table `steps` at p_tot: the same array, or equal rows."""
        return self.p_tot == p_tot and (self.steps is steps or np.array_equal(self.steps, steps))

    def row(self, p_tot: float, gamma_steps) -> int | None:
        """The index of gamma_steps, a float64 (5,) array, if this record rated it at p_tot, else None."""
        row = isinstance(gamma_steps, np.ndarray) and gamma_steps.dtype == np.float64
        row = row and gamma_steps.shape == (len(QAM_BITS) + 1,) and self.p_tot == p_tot
        return self.index.get(tuple(gamma_steps.tolist())) if row else None

    def place(self, q: int) -> None:
        """Place row q's steps from its prefix and keep the loading, read-only, in placed[q].

        The loading grants the taken[q] smallest of the (subcarrier, step)
        costs, ties in that order: every cost below kth[q], then the first
        costs equal to it (_smallest).
        """
        inv_gain, increments = self.inv_gain, self.increments[q]
        cost = (inv_gain[:, None] * increments).ravel()  # subcarrier-major, the greedy's tie order
        steps = np.bincount(_smallest(cost, self.taken[q], self.kth[q]) // increments.size, minlength=inv_gain.size)
        modulations = steps * 2
        # silent subcarriers carry zero power even when their gain is exactly zero
        powers = np.multiply(self.steps[q][steps], inv_gain, out=np.zeros(inv_gain.size), where=steps > 0)
        modulations.setflags(write=False)
        powers.setflags(write=False)
        self.placed[q] = (modulations, powers, int(modulations.sum()))


def _inverse_gains(channel: ChannelRealization) -> np.ndarray:
    """noise_var / |h|^2 per subcarrier; inf, with no warning, where |h|^2 is 0.

    noise_var > 0, so a zero power divides to inf. Division is monotone, so
    sorting the quotients gives the same floats as dividing by the powers
    sorted the other way.
    """
    with np.errstate(divide="ignore"):
        return channel.noise_var / np.square(np.abs(channel.gains))


def _prefixes(increments: np.ndarray, ascending: np.ndarray, p_tot: float) -> tuple[np.ndarray, np.ndarray]:
    """The loading's prefix per row of increments: (taken, kth).

    Row q's costs are the products increments[q, s] * ascending, four
    presorted runs (one per step). taken[q] counts the longest prefix of
    their sorted order whose running sum fits p_tot, and kth[q] is the cost
    at that count, its taken[q]-th smallest (any value where taken[q] is 0).
    The last (loosest) row has the smallest steps on the default grid, so the
    longest prefix: it is sorted and summed in full, and every other row only
    one cost past that prefix. A row whose prefix fills that width (one that
    ends inside it is exact) is sorted and summed again in full. A single
    row, as the loading passes it, takes the same steps: it is sorted and
    summed once, and the other rows' partition and sort find none.
    """
    cost = (increments[:, :, None] * ascending).reshape(increments.shape[0], -1)
    cost[-1].sort()
    taken = np.full(cost.shape[0], _affordable(cost[-1], p_tot))
    width = min(int(taken[-1]) + 1, cost.shape[1])
    cost[:-1].partition(width - 1, axis=1)
    head = cost[:-1, :width]  # the width smallest costs of every other row
    head.sort(axis=1)
    taken[:-1] = _affordable(head, p_tot)
    if width < cost.shape[1]:
        for q in np.flatnonzero(taken == width):
            cost[q].sort()
            taken[q] = _affordable(cost[q], p_tot)
    return taken, cost[np.arange(taken.size), np.maximum(taken, 1) - 1]


def _affordable(ordered: np.ndarray, p_tot: float) -> np.ndarray:
    """Length of the longest prefix of ascending costs whose running sum fits p_tot.

    Taken along the last axis, so a table of sorted rows gives one length per row.
    The costs are nonnegative (NaN sorts last), so the running sums never fall
    and the fitting prefix is the sums' searchsorted count. An infinite cost
    never fits, not even an infinite budget.
    """
    sums = np.cumsum(ordered, axis=-1).reshape(-1, ordered.shape[-1])
    taken = [row.searchsorted(p_tot, "right") for row in sums]  # the method skips np's dispatch
    if p_tot == np.inf:
        taken = np.minimum(taken, [row.searchsorted(np.inf) for row in ordered.reshape(sums.shape)])
    return np.reshape(taken, ordered.shape[:-1])


def _smallest(values: np.ndarray, k: int, kth: float | None = None) -> np.ndarray:
    """Indices of the k smallest values, ties to the lower index, in index order.

    The same set as np.argsort(values, kind="stable")[:k] for NaN-free values:
    every value below the k-th smallest, then the first indices of the tie
    group at it. kth, when given, is that k-th smallest value.
    """
    if k <= 0:
        return np.zeros(0, dtype=np.intp)
    if k >= values.size:
        return np.arange(values.size)
    if kth is None:
        kth = np.partition(values, k - 1)[k - 1]
    below = values < kth
    ties = np.flatnonzero(values == kth)[: k - np.count_nonzero(below)]
    below[ties] = True
    return np.flatnonzero(below)


def select_ber_target(b_lat, r_sym) -> tuple[int, int]:
    """Pick the grid target minimizing required-bits / bits-per-symbol.

    b_lat[q] and r_sym[q] are target q's minimum bit total and bits per OFDM
    symbol, ints >= 0 (a numpy int array or a sequence of Python ints);
    anything else raises ValueError. Returns (eps_index, t_sym). A zero-bit
    source short-circuits to the smallest target with t_sym = 0 (nothing to
    send). Ties in the ratio go to the smaller target.
    """
    if np.ndim(b_lat) != 1 or np.ndim(r_sym) != 1 or not len(b_lat) == len(r_sym) > 0:
        raise ValueError("need one (b_lat, r_sym) pair per target")
    b_lat, r_sym = _counts("b_lat", b_lat), _counts("r_sym", r_sym)
    if not any(b_lat):
        return 0, 0
    if not any(r_sym):
        raise NoFeasibleRateError(
            "no BER target achieves a positive symbol rate under the power budget"
        )
    ratio = [b / r if r else math.inf for b, r in zip(b_lat, r_sym)]
    best = ratio.index(min(ratio))  # the first minimum: ties go to the smaller target
    return best, math.ceil(b_lat[best] / r_sym[best])


def _counts(name: str, values) -> list:
    """values, a nonempty sequence, as a list of ints >= 0 (not bools), else ValueError."""
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    if not all(is_int(v) and v >= 0 for v in values):
        raise ValueError(f"{name} must hold only ints >= 0, got {values!r}")
    return values


def refine_bit_allocation(
    lib: QuantizerLibrary,
    stats: LatentStats,
    bits: np.ndarray,
    eps_index: int,
    capacity: int,
) -> tuple[np.ndarray, int]:
    """Spend residual symbol capacity on the largest marginal distortion reductions.

    Defined as the greedy that grants one bit per round to the element
    maximizing sigma_i^2 (D(b_i) - D(b_i + 1)), ties to the lowest index.
    Elements already at b_max, and elements held at zero bits by the
    negligible-variance relaxation, never grow. Returns (refined bits, dummy
    bit count).

    The greedy merges one gain sequence per element, g_i(b) = sigma_i^2 dec[b]
    for b = b_i..b_max - 1, taking the largest head each round. Key each gain
    by its sequence's running minimum k_i(b) = min(g_i(b_i..b)). The greedy
    takes gains in nonincreasing key order: the head h it takes has the
    largest value, so k(h) = min(k(pred h), g(h)) is at least every other
    head's key, which is at most that head's value and at most the key of h's
    predecessor, the largest key when it was taken. When the keys reach k,
    every head keyed k has value exactly k (where its running minimum first
    hit k) and every other head a smaller one, so the lowest such element wins
    and keeps winning through its gains keyed k before the next one starts.
    So the greedy grants the `residual` largest keys, ties in (element, depth)
    order, on any column. As sigma_i^2 >= 0 and rounding is monotone,
    k_i(b) = sigma_i^2 min(dec[b_i..b]) exactly.

    Raises ValueError for bits that are not one int depth in 0..b_max per
    element, a capacity that is not an int, or a capacity below the bit
    total.
    """
    bits = np.asarray(bits)
    if bits.dtype.kind not in "iu":
        raise ValueError(f"bit depths must be ints, got array kind {bits.dtype.kind!r}")
    bits = bits.astype(np.int64, copy=False)
    if bits.shape != stats.variances.shape:
        raise ValueError("need one bit depth per element")
    if bits.size and (bits.min() < 0 or bits.max() > lib.b_max):
        raise ValueError(f"bit depth outside 0..{lib.b_max}")
    check_int("capacity", capacity)
    residual = capacity - int(bits.sum())
    if residual < 0:
        raise ValueError("capacity below the current bit total")
    key = _key_table(lib, eps_index)
    elements = np.flatnonzero((bits >= 1) & (bits < lib.b_max))
    if 0 < residual < elements.size:
        # at least `residual` keys (first gains) reach t, the residual-th
        # largest first gain, so no key below t is granted; keys fall with
        # depth, so an element whose first gain is below t gets no bit
        first = stats.variances[elements] * key.diagonal()[bits[elements]]  # key[b, b] = dec[b]
        cut = elements.size - residual
        elements = elements[first >= np.partition(first, cut)[cut]]
    start = bits[elements]
    row, gain = _candidates(key, stats.variances, elements, start, lib.b_max - start)
    granted = row[_smallest(-gain, residual)]  # the residual largest keys
    return bits + np.bincount(granted, minlength=bits.size), residual - granted.size


def _candidates(
    key: np.ndarray, variances: np.ndarray, elements: np.ndarray, start: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The counts[j] bits that grow elements[j] from depth start[j]: each one's element and key.

    A bit growing element i from depth b has key sigma_i^2 key[start, b] (see
    refine_bit_allocation); the bits come in (element, depth) order, the
    greedy's tie order.
    """
    row = np.repeat(elements, counts)
    first = np.repeat(start, counts)
    depth = first + np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return row, variances[row] * key[first, depth]


def _key_table(lib: QuantizerLibrary, eps_index: int) -> np.ndarray:
    """The refinement's keys at target eps_index: key[s, b] = min(dec[s..b]) for s <= b.

    dec[b] = D(b) - D(b + 1) is the gain of growing from depth b (D(0) = 1),
    and the bit that grows element i from depth b, on its way up from depth
    s, has key sigma_i^2 key[s, b] (see refine_bit_allocation). Entries
    below the diagonal are inf.
    """
    col = np.concatenate(([1.0], lib.distortion_column(eps_index)))  # col[b] = D(1; b)
    dec = col[:-1] - col[1:]
    depth = np.arange(lib.b_max)
    return np.minimum.accumulate(np.where(depth >= depth[:, None], dec, np.inf), axis=1)


def build_bit_mapping(
    modulations: np.ndarray, t_sym: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where each bit of the stream goes: (symbol, subcarrier, position) arrays.

    Bit k of the t_sym * sum(modulations) stream bits (payload, then pad) lands
    on bit position[k] (0 the most significant) of subcarrier[k] in OFDM
    symbol symbol[k]. Bits fill the grid symbol-major: all active subcarriers
    of symbol 0 in ascending order, each taking its modulation order of
    consecutive bits, then symbol 1, and so on. The arrays are int64.
    """
    modulations = np.asarray(modulations, dtype=np.int64)
    active = np.flatnonzero(modulations > 0)
    counts = modulations[active]
    sc_once = np.repeat(active, counts)
    # bit position within each active subcarrier: 0..m-1, subcarrier after subcarrier
    pos_once = np.arange(sc_once.size) - np.repeat(np.cumsum(counts) - counts, counts)
    symbol = np.repeat(np.arange(t_sym, dtype=np.int64), sc_once.size)
    return symbol, np.tile(sc_once, t_sym), np.tile(pos_once, t_sym)


@dataclass(eq=False)
class AllocationPlan:
    """Everything the transmitter and receiver need for one coherence block.

    The bit placement is not stored: build_bit_mapping derives it from
    modulations and t_sym. digests holds the library and stats digests and
    the channel seed the plan was made for; run_trial refuses a plan whose
    digests differ from what it is run with, or that lacks one. bits,
    modulations and powers are made read-only on construction. run_trial
    keeps each plan's frame layout, keyed by the plan, so do not reassign a
    field of a plan that has run: derive a changed plan with
    dataclasses.replace. The fields stay assignable until the benchmark's
    tests, which reassign them, move to dataclasses.replace.
    """

    eps_index: int
    epsilon_star: float
    bits: np.ndarray
    modulations: np.ndarray
    powers: np.ndarray
    t_sym: int
    dummy_bits: int
    seed: int
    digests: dict

    def __post_init__(self):
        for arr in (self.bits, self.modulations, self.powers):
            arr.setflags(write=False)

    @property
    def b_lat(self) -> int:
        return int(self.bits.sum())

    @property
    def r_sym(self) -> int:
        return int(self.modulations.sum())

    @property
    def is_empty(self) -> bool:
        return self.t_sym == 0


def optimize_plan(
    lib: QuantizerLibrary,
    stats: LatentStats,
    channel: ChannelRealization,
    p_tot: float,
    delta: float = DEFAULT_DELTA,
    seed: int = 0,
) -> AllocationPlan:
    """Full allocation pass: rate every target, select, solve the winner, refine.

    Raises ValueError for a delta that is not a finite number >= 0 (a NaN
    one would count every element negligible and plan nothing), then what
    _rate_targets raises. Each stage runs at most once, through the module
    attribute that names it, so a tracer that wraps those attributes times
    each stage. A zero-bit source (t_sym = 0) gets the smallest target and
    zero bits, modulations and powers; no stage after the selection runs.

    The source's share of the work is kept per stats object, for this
    library and delta: every target's b_lat, and one record per winning
    target of its depths, refinement order and headroom (see _SourceRating).
    A later plan on them calls minimum_bit_allocation only for a target that
    has not won before, and refine_bit_allocation only for a residual that
    the kept record does not cover (see _refined_bits). The channel's share,
    every target's r_sym and the winner's loading, is kept per realization
    for one budget and step table (see _LoadingRecord), with the choice of
    the last rating planned on it. Every plan is built from the record's
    choice. When the choice is not of this rating (the same object), the
    plan makes one first, in place of the last: select_ber_target, then for
    t_sym > 0 the winner's depths and its refinement at t_sym * r_sym; a
    zero-bit choice keeps a row of zeros. The plan then takes the choice's
    target, t_sym, dummy count and bits, and calls
    allocate_power_modulation when t_sym > 0, else has zero modulations and
    powers. A plan's arrays are always its own.
    """
    check_nonnegative_finite("delta", delta)
    rating, r_sym = _rate_targets(lib, stats, channel, p_tot, delta)
    record = _LOADINGS[channel]
    if record.choice is None or record.choice[0] is not rating:  # this rating's first plan on the record
        eps_index, t_sym = select_ber_target(rating.b_lat, r_sym)
        kept_bits, dummy = np.zeros(stats.n, dtype=np.uint8), 0
        if t_sym > 0:
            if eps_index not in rating.winners:
                depths = minimum_bit_allocation(lib, stats, eps_index, delta)[0]
                depths.setflags(write=False)
                headroom = int((lib.b_max - depths[depths > 0]).sum())  # elements at zero bits never grow
                rating.winners[eps_index] = (depths, np.zeros(0, dtype=np.intp), headroom)
            refined, dummy = _refined_bits(lib, stats, rating, eps_index, t_sym * int(r_sym[eps_index]))
            kept_bits = refined.astype(np.uint8)
        kept_bits.setflags(write=False)
        record.choice = (rating, eps_index, t_sym, dummy, kept_bits)
    _, eps_index, t_sym, dummy, kept_bits = record.choice
    if t_sym > 0:
        modulations, powers, _ = allocate_power_modulation(channel, p_tot, lib.step_table()[0][eps_index])
    else:
        modulations, powers = np.zeros(channel.n_sc, dtype=np.int64), np.zeros(channel.n_sc)

    digests = {"library": lib.digest(), "stats": stats.digest(), "channel_seed": channel.seed}
    if not rating.kept:  # the plan completes: keep the rating it made
        _RATINGS[stats], rating.kept = rating, True
    return AllocationPlan(
        eps_index=eps_index,
        epsilon_star=float(lib.epsilons[eps_index]),
        bits=kept_bits.astype(np.int64),
        modulations=modulations,
        powers=powers,
        t_sym=t_sym,
        dummy_bits=int(dummy),
        seed=seed,
        digests=digests,
    )


def _refined_bits(
    lib: QuantizerLibrary, stats: LatentStats, rating: _SourceRating, eps_index: int, capacity: int
) -> tuple[np.ndarray, int]:
    """The winner's refined bits at `capacity`, as a new array, and their dummy count.

    The greedy grants bits in one order, fixed by the source, the library
    column and the depths: its refinement at residual r = capacity - b_lat
    is the first r grants, or all `headroom` of them and r - headroom
    dummies when r is larger. The winner's record keeps that order as far as
    its largest refinement went, so it covers every r up to the order's
    length, and every r once the order holds every grant. A covered residual
    is the depths plus one bincount of the order's first r elements; any
    other calls refine_bit_allocation and keeps its grant order in the
    record.
    """
    depths, order, headroom = rating.winners[eps_index]
    residual = capacity - int(rating.b_lat[eps_index])
    if residual <= order.size or order.size == headroom:
        granted = order[:residual]
        return depths + np.bincount(granted, minlength=depths.size), residual - granted.size
    bits, dummy = refine_bit_allocation(lib, stats, depths, eps_index, capacity)
    order = _grant_order(lib, stats, eps_index, depths, bits)
    order.setflags(write=False)
    rating.winners[eps_index] = (depths, order, headroom)
    return bits, dummy


def _grant_order(
    lib: QuantizerLibrary, stats: LatentStats, eps_index: int, depths: np.ndarray, refined: np.ndarray
) -> np.ndarray:
    """The element of each bit that grew depths into refined, in the greedy's grant order."""
    elements = np.flatnonzero(refined - depths)
    start = depths[elements]
    key = _key_table(lib, eps_index)
    row, gain = _candidates(key, stats.variances, elements, start, refined[elements] - start)
    return row[np.argsort(-gain, kind="stable")]


def _rate_targets(
    lib: QuantizerLibrary,
    stats: LatentStats,
    channel: ChannelRealization,
    p_tot: float,
    delta: float,
) -> tuple[_SourceRating, np.ndarray]:
    """The source's rating (with b_lat of every grid target) and r_sym of every target.

    Both are what the per-target functions give, r_sym[q] on the library's
    step table row q. The rating is the one kept for the stats when it was
    made for this library and delta, else a new one (_rate_source). r_sym
    is read from the channel's _LoadingRecord when that was made at this
    p_tot for the same step table (the library's own array, or equal rows),
    whatever the source; else it is
    computed and a new record of the loading's prefix of every target is
    kept for the channel, which the winner's allocate_power_modulation reads
    in place of its own. r_sym is that record's read-only row, made once.
    Raises what the per-target calls in order (per target, the depths before
    the loading) would raise first: the InfeasibleTargetError of target 0 if
    it has an infeasible element, else ValueError("p_tot must be positive")
    for a budget that is not positive (the loading's first check, so NaN
    too), else the InfeasibleTargetError of the first target with an
    infeasible element, each raised by minimum_bit_allocation on that target.
    """
    rating = _RATINGS.get(stats)
    if rating is None or rating.key != (lib.digest(), delta):
        rating = _rate_source(lib, stats, delta)
    if rating.infeasible is not None and (rating.infeasible == 0 or p_tot > 0):
        minimum_bit_allocation(lib, stats, rating.infeasible, delta)
    if not p_tot > 0:
        raise ValueError("p_tot must be positive")

    steps, increments = lib.step_table()
    kept = _LOADINGS.get(channel)
    if kept is None or not kept.rated(p_tot, steps):
        kept = _LOADINGS[channel] = _LoadingRecord(channel, p_tot, steps, increments)
    return rating, kept.r_sym


def _rate_source(lib: QuantizerLibrary, stats: LatentStats, delta: float) -> _SourceRating:
    """A new rating of the source: its first infeasible target and every target's b_lat."""
    floor = np.minimum.accumulate(lib.distortion_table(), axis=1)  # [target, b - 1]
    checked = stats.variances >= delta
    bounds = np.sort(1.0 / (stats.variances[checked] + 1.0))
    # an element is infeasible when its bound lies below every depth's distortion
    infeasible = np.flatnonzero(np.searchsorted(bounds, floor[:, -1], "left") > 0)
    # depth - 1 counts the running minima above the bound (see minimum_bit_allocation)
    b_lat = bounds.size + np.searchsorted(bounds, floor, "left").sum(axis=1)
    b_lat.setflags(write=False)
    return _SourceRating(int(infeasible[0]) if infeasible.size else None, b_lat, (lib.digest(), delta))


def validate_plan(
    plan: AllocationPlan,
    lib: QuantizerLibrary,
    stats: LatentStats,
    p_tot: float,
    delta: float = DEFAULT_DELTA,
) -> None:
    """Check every structural invariant of the plan's fields; raises ValueError on violation.

    A delta that is not a finite number >= 0 is refused first, then a t_sym
    or dummy_bits that is not an int >= 0 (a bool, a float or a numpy int is
    not one here): such a plan can fill the grid's bit accounting, yet
    run_trial sends nothing (t_sym 0 with negative dummies) or raises a
    TypeError. Then every subcarrier needs one modulation order in
    (0, *QAM_BITS) and one finite power >= 0, the powers must sum within the
    budget (never within a NaN one), and the bits plus the dummies must fill
    the t_sym x r_sym grid exactly.

    The bit placement is not a field: build_bit_mapping derives it, and a
    property test of that function shows it a bijection onto the active bit
    slots.
    """
    check_nonnegative_finite("delta", delta)
    for name in ("t_sym", "dummy_bits"):
        value = getattr(plan, name)
        if not is_int(value) or value < 0:
            raise ValueError(f"{name} must be an int >= 0, got {value!r}")
    if plan.modulations.shape != plan.powers.shape:
        raise ValueError("need one modulation order and one power per subcarrier")
    if not np.isin(plan.modulations, (0, *QAM_BITS)).all():
        raise ValueError(f"modulation order outside {(0, *QAM_BITS)}")
    if not np.all(np.isfinite(plan.powers) & (plan.powers >= 0)):
        raise ValueError("powers must be finite and nonnegative")
    if not plan.powers.sum() <= p_tot + POWER_SLACK:  # a NaN budget fails too
        raise ValueError("total power exceeds the budget")
    if plan.b_lat + plan.dummy_bits != plan.t_sym * plan.r_sym:
        raise ValueError("bit accounting does not fill the resource grid exactly")
    if np.any((plan.bits < 0) | (plan.bits > lib.b_max)):
        raise ValueError(f"bit depth outside 0..{lib.b_max}")
    col = lib.distortion_column(plan.eps_index)
    checked = stats.variances >= delta
    bound = 1.0 / (stats.variances + 1.0)
    if np.any(checked & (plan.bits == 0)):
        raise ValueError("element above the negligibility threshold got zero bits")
    idx = np.flatnonzero(checked)
    if idx.size and np.any(col[plan.bits[idx] - 1] > bound[idx]):
        raise ValueError("distortion bound violated for a non-negligible element")
    if np.any((plan.bits > 0) & ~checked):
        raise ValueError("negligible-variance element was allocated bits")


def serialize_plan(plan: AllocationPlan) -> str:
    """Canonical JSON document for a plan (floats in hex).

    mapping_digest is derived from modulations and t_sym: the sha256 of
    build_bit_mapping's symbol, subcarrier and position arrays, in that
    order. diagnostics is always the empty object.
    """
    mapping = hashlib.sha256()
    for arr in build_bit_mapping(plan.modulations, plan.t_sym):
        mapping.update(arr.tobytes())
    doc = {
        "kind": "allocation-plan",
        "version": __version__,
        "eps_index": plan.eps_index,
        "epsilon_star": float(plan.epsilon_star).hex(),
        "bits": [int(b) for b in plan.bits],
        "modulations": [int(m) for m in plan.modulations],
        "powers": [float(p).hex() for p in plan.powers],
        "t_sym": plan.t_sym,
        "dummy_bits": plan.dummy_bits,
        "mapping_digest": mapping.hexdigest(),
        "seed": plan.seed,
        "digests": plan.digests,
        "diagnostics": {},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def plan_dummy_seed(plan: AllocationPlan) -> int:
    """Stream seed for the pad bits carried in otherwise unused bit slots."""
    return stream_seed("plan-dummy", plan.seed, plan.digests["channel_seed"])
