"""Cross-layer allocation: bit depths, BER target, modulation and power, bit mapping.

For each candidate BER target on the library grid, two independent solves run:

  * source side: each latent element gets the smallest bit depth whose library
    distortion meets its variance-derived bound 1/(sigma^2 + 1); variances
    below the negligibility threshold get zero bits.

  * channel side: greedy loading over one OFDM symbol. Starting from silence,
    the subcarrier with the cheapest power increment for one modulation step
    (QPSK -> 16 -> 64 -> 256-QAM) is raised until the next increment no longer
    fits the power budget. Power per subcarrier is pinned to hit the BER
    target exactly given its gain, so the per-bit flip probability matches the
    quantizer design point. Under a convex SNR-threshold table this greedy is
    exactly optimal.

The target minimizing required-bits / bits-per-symbol wins (ties to the
smaller target), the symbol count is the ceiling of that ratio, and leftover
symbol capacity is granted bit by bit to the element with the largest
marginal weighted-distortion reduction. Whatever capacity remains after every
element saturates is padded with pseudo-random dummy bits so the resource-grid
accounting stays exact.

Both greedy loops are merges of per-item cost sequences, one per subcarrier
(loading) or per element (refinement). When every sequence is monotone in the
direction the greedy consumes it, the greedy order is the sorted order of all
(item, step) costs, ties broken by item index and then step (Hughes-Hartogs
loading equals one ascending sort of its increments; J. Campello, "Practical
bit loading for DMT", ICC 1999). So:

  * loading sorts every power increment once and takes the longest prefix
    whose running sum (accumulated in the loop's order, so bit for bit the
    same) fits the budget, when the SNR-threshold increments are
    nondecreasing under an exact float test;
  * refinement takes the `residual` largest marginal gains in one sort, when
    the decrements D(b) - D(b + 1) are nonincreasing under an exact float
    test (not `column_is_convex`, whose tolerance admits columns where the
    sorted order and the greedy differ).

Where a check fails, the original one-step-at-a-time loop (`_greedy_loading`,
`_greedy_refinement`) runs instead; tests use those loops as the reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__
from .channel import ChannelRealization
from .library import DEFAULT_DELTA, QuantizerLibrary, gamma_increments_convex, min_bits_vector
from .modem import QAM_BITS
from .rng import stream_seed

__all__ = [
    "NoFeasibleRateError",
    "LatentStats",
    "OperatingPoint",
    "BitMapping",
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


class NoFeasibleRateError(Exception):
    """No BER target on the grid supports a positive per-symbol rate."""


@dataclass
class LatentStats:
    """Per-element Gaussian parameters driving allocation and synthesis.

    The object is immutable once its digest has been read: digest() hashes
    the means and variances on its first call and returns that hash from
    then on. Derive changed stats with dataclasses.replace, which starts
    without a cached digest.
    """

    means: np.ndarray
    variances: np.ndarray
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        if self.means.shape != self.variances.shape or self.means.ndim != 1:
            raise ValueError("means and variances must be 1-D vectors of equal length")
        if not np.all(np.isfinite(self.variances) & (self.variances >= 0)):
            raise ValueError("variances must be finite and nonnegative")

    @property
    def n(self) -> int:
        return int(self.means.size)

    def digest(self) -> str:
        if self._digest is None:
            h = hashlib.sha256()
            h.update(self.means.tobytes())
            h.update(self.variances.tobytes())
            self._digest = h.hexdigest()
        return self._digest


def target_distortion(sigma2):
    """Element distortion target sigma^2 / (sigma^2 + 1). Scalar or array."""
    sigma2 = np.asarray(sigma2, dtype=np.float64)
    if np.any(sigma2 < 0):
        raise ValueError("sigma2 must be nonnegative")
    out = sigma2 / (sigma2 + 1.0)
    return out if out.ndim else float(out)


@dataclass
class OperatingPoint:
    """Joint outcome of the two solves for one candidate BER target."""

    eps_index: int
    bits: np.ndarray
    b_lat: int
    modulations: np.ndarray
    powers: np.ndarray
    r_sym: int

    @property
    def feasible(self) -> bool:
        return self.r_sym > 0


def minimum_bit_allocation(
    lib: QuantizerLibrary, stats: LatentStats, eps_index: int, delta: float = DEFAULT_DELTA
) -> tuple[np.ndarray, int]:
    """Per-element minimum bit depths meeting the distortion bound; total bits."""
    bits = min_bits_vector(lib, eps_index, stats.variances, delta)
    return bits, int(bits.sum())


def allocate_power_modulation(
    channel: ChannelRealization, p_tot: float, gamma_steps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Greedy modulation/power loading of one OFDM symbol.

    gamma_steps[s] is the SNR threshold for modulation QAM_BITS[s-1], with
    gamma_steps[0] = 0 for silence, strictly increasing. Returns
    (modulations, powers, bits/symbol).
    """
    if not p_tot > 0:
        raise ValueError("p_tot must be positive")
    if gamma_steps.shape[0] != len(QAM_BITS) + 1 or gamma_steps[0] != 0.0:
        raise ValueError("gamma_steps must be [0, gamma(QPSK), ..., gamma(256-QAM)]")
    if not np.all(np.diff(gamma_steps) > 0):
        raise ValueError("gamma_steps must be strictly increasing")
    inv_gain = channel.noise_var / np.square(np.abs(channel.gains))
    increments = np.diff(gamma_steps)  # per modulation step
    if gamma_increments_convex(gamma_steps):
        cost = (increments[None, :] * inv_gain[:, None]).ravel()  # [subcarrier, step], row-major
        # the flat index already orders (subcarrier, step), so a stable sort on
        # cost is np.lexsort((step, subcarrier, cost))
        order = np.argsort(cost, kind="stable")
        cost = cost[order]
        fits = np.isfinite(cost) & (np.cumsum(cost) <= p_tot)
        taken = fits.size if fits.all() else int(fits.argmin())
        steps = np.bincount(order[:taken] // increments.size, minlength=channel.n_sc)
    else:
        steps = _greedy_loading(inv_gain, increments, p_tot)
    modulations = steps * 2
    # silent subcarriers carry zero power even when their gain is exactly zero
    powers = np.where(steps > 0, gamma_steps[steps] * inv_gain, 0.0)
    return modulations, powers, int(modulations.sum())


def _greedy_loading(inv_gain: np.ndarray, increments: np.ndarray, p_tot: float) -> np.ndarray:
    """Steps per subcarrier, one cheapest increment at a time (any increment table)."""
    steps = np.zeros(inv_gain.size, dtype=np.int64)
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
    return steps


def select_ber_target(points: list[OperatingPoint]) -> tuple[int, int]:
    """Pick the grid target minimizing required-bits / bits-per-symbol.

    Returns (eps_index, t_sym). A zero-bit source short-circuits to the
    smallest target with t_sym = 0 (nothing to send). Ties in the ratio go to
    the smaller target.
    """
    if not points:
        raise ValueError("no operating points")
    ordered = sorted(points, key=lambda p: p.eps_index)
    if all(p.b_lat == 0 for p in ordered):
        return ordered[0].eps_index, 0
    best = None
    best_ratio = math.inf
    for p in ordered:
        if not p.feasible:
            continue
        ratio = p.b_lat / p.r_sym
        if ratio < best_ratio:
            best, best_ratio = p, ratio
    if best is None:
        raise NoFeasibleRateError(
            "no BER target achieves a positive symbol rate under the power budget"
        )
    return best.eps_index, math.ceil(best.b_lat / best.r_sym)


def refine_bit_allocation(
    lib: QuantizerLibrary,
    stats: LatentStats,
    bits: np.ndarray,
    eps_index: int,
    capacity: int,
) -> tuple[np.ndarray, int]:
    """Spend residual symbol capacity on the largest marginal distortion reductions.

    One bit per round goes to the element maximizing
    sigma_i^2 (D(b_i) - D(b_i + 1)); ties break to the lowest index. Elements
    already at b_max, and elements held at zero bits by the negligible-variance
    relaxation, never grow. Returns (refined bits, dummy bit count).
    """
    bits = np.asarray(bits, dtype=np.int64).copy()
    residual = capacity - int(bits.sum())
    if residual < 0:
        raise ValueError("capacity below the current bit total")
    col = np.concatenate(([1.0], lib.distortion_column(eps_index)))  # col[b] = D(1; b)
    dec = col[:-1] - col[1:]  # dec[b] = D(b) - D(b + 1), the gain of growing from depth b
    if not np.all(np.diff(dec[1:]) <= 0):
        return _greedy_refinement(bits, stats.variances, col, lib.b_max, residual)
    elements = np.flatnonzero((bits >= 1) & (bits < lib.b_max))
    depth = np.arange(lib.b_max)
    # candidates in (element, depth) order, so a stable sort on -gain is
    # np.lexsort((depth, element, -gain))
    row, b = np.nonzero(depth[None, :] >= bits[elements, None])
    gain = stats.variances[elements[row]] * dec[b]
    granted = np.argsort(-gain, kind="stable")[:residual]
    bits += np.bincount(elements[row[granted]], minlength=bits.size)
    return bits, residual - granted.size


def _greedy_refinement(
    bits: np.ndarray, variances: np.ndarray, col: np.ndarray, b_max: int, residual: int
) -> tuple[np.ndarray, int]:
    """refine_bit_allocation one bit per round (any distortion column); edits bits."""
    eligible = (bits >= 1) & (bits < b_max)
    gain = np.where(eligible, variances * (col[bits] - col[np.minimum(bits + 1, b_max)]), -np.inf)
    while residual > 0:
        if not np.any(eligible):
            break
        i = int(np.argmax(gain))
        bits[i] += 1
        residual -= 1
        if bits[i] >= b_max:
            eligible[i] = False
            gain[i] = -np.inf
        else:
            gain[i] = variances[i] * (col[bits[i]] - col[bits[i] + 1])
    return bits, residual


@dataclass
class BitMapping:
    """Bijection from transmitted-bit index to (symbol, subcarrier, bit position).

    Bits fill the grid symbol-major: all active subcarriers of symbol 0 in
    ascending order (each contributing its modulation order of consecutive
    bits), then symbol 1, and so on.
    """

    symbol: np.ndarray
    subcarrier: np.ndarray
    position: np.ndarray

    @property
    def total_bits(self) -> int:
        return int(self.symbol.size)

    def digest(self) -> str:
        h = hashlib.sha256()
        for arr in (self.symbol, self.subcarrier, self.position):
            h.update(np.asarray(arr, dtype=np.int64).tobytes())
        return h.hexdigest()


def build_bit_mapping(modulations: np.ndarray, t_sym: int) -> BitMapping:
    modulations = np.asarray(modulations, dtype=np.int64)
    active = np.flatnonzero(modulations > 0)
    counts = modulations[active]
    sc_once = np.repeat(active, counts)
    # bit position within each active subcarrier: 0..m-1, subcarrier after subcarrier
    pos_once = np.arange(sc_once.size) - np.repeat(np.cumsum(counts) - counts, counts)
    r_sym = sc_once.size
    return BitMapping(
        symbol=np.repeat(np.arange(t_sym), r_sym),
        subcarrier=np.tile(sc_once, t_sym),
        position=np.tile(pos_once, t_sym),
    )


@dataclass
class AllocationPlan:
    """Everything the transmitter and receiver need for one coherence block.

    A plan is immutable once it has been run: the first run_trial call builds
    the plan's frame layout (bit-depth groups, bit-to-symbol gathers, pad
    bits) and every later frame reuses it. Derive a changed plan with
    dataclasses.replace, which starts without a layout.
    """

    eps_index: int
    epsilon_star: float
    bits: np.ndarray
    modulations: np.ndarray
    powers: np.ndarray
    t_sym: int
    dummy_bits: int
    mapping: BitMapping
    seed: int
    digests: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    # simulator._FrameLayout, filled by the plan's first run_trial call
    _frame_layout: object = field(default=None, init=False, repr=False, compare=False)

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
    """Full allocation pass: per-target solves, target selection, refinement, mapping."""
    q_count = lib.epsilons.size
    points: list[OperatingPoint] = []
    for qi in range(q_count):
        bits, b_lat = minimum_bit_allocation(lib, stats, qi, delta)
        gamma_steps = np.concatenate(([0.0], lib.gamma_thresholds[:, qi]))
        modulations, powers, r_sym = allocate_power_modulation(channel, p_tot, gamma_steps)
        points.append(OperatingPoint(qi, bits, b_lat, modulations, powers, r_sym))

    eps_index, t_sym = select_ber_target(points)
    chosen = points[eps_index]
    digests = {
        "library": lib.digest(),
        "stats": stats.digest(),
        "channel_seed": channel.seed,
    }
    if t_sym == 0:
        n_sc = channel.n_sc
        return AllocationPlan(
            eps_index=eps_index,
            epsilon_star=float(lib.epsilons[eps_index]),
            bits=np.zeros(stats.n, dtype=np.int64),
            modulations=np.zeros(n_sc, dtype=np.int64),
            powers=np.zeros(n_sc),
            t_sym=0,
            dummy_bits=0,
            mapping=build_bit_mapping(np.zeros(n_sc, dtype=np.int64), 0),
            seed=seed,
            digests=digests,
        )

    capacity = t_sym * chosen.r_sym
    bits, dummy = chosen.bits, capacity - chosen.b_lat
    if capacity > chosen.b_lat:
        bits, dummy = refine_bit_allocation(lib, stats, chosen.bits, eps_index, capacity)

    diagnostics = {}
    ceil_chosen = t_sym
    for p in points:
        if p.feasible and math.ceil(p.b_lat / p.r_sym) < ceil_chosen:
            diagnostics["smaller_ceiling_at_eps_index"] = p.eps_index
            break

    return AllocationPlan(
        eps_index=eps_index,
        epsilon_star=float(lib.epsilons[eps_index]),
        bits=bits,
        modulations=chosen.modulations,
        powers=chosen.powers,
        t_sym=t_sym,
        dummy_bits=int(dummy),
        mapping=build_bit_mapping(chosen.modulations, t_sym),
        seed=seed,
        digests=digests,
        diagnostics=diagnostics,
    )


def validate_plan(
    plan: AllocationPlan,
    lib: QuantizerLibrary,
    stats: LatentStats,
    p_tot: float,
    delta: float = DEFAULT_DELTA,
) -> None:
    """Check every structural plan invariant; raises ValueError on violation."""
    if plan.powers.sum() > p_tot + POWER_SLACK:
        raise ValueError("total power exceeds the budget")
    if plan.b_lat + plan.dummy_bits != plan.t_sym * plan.r_sym:
        raise ValueError("bit accounting does not fill the resource grid exactly")
    if plan.mapping.total_bits != plan.t_sym * plan.r_sym:
        raise ValueError("mapping length disagrees with grid capacity")
    if plan.mapping.total_bits:
        if np.any(plan.modulations[plan.mapping.subcarrier] == 0):
            raise ValueError("mapping touches a silent subcarrier")
        key = (
            plan.mapping.symbol * (plan.modulations.size * 16)
            + plan.mapping.subcarrier * 16
            + plan.mapping.position
        )
        if np.unique(key).size != key.size:
            raise ValueError("mapping is not a bijection onto resource-element bit slots")
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
    """Canonical JSON document for a plan (floats in hex, mapping as digest)."""
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
        "mapping_digest": plan.mapping.digest(),
        "seed": plan.seed,
        "digests": plan.digests,
        "diagnostics": plan.diagnostics,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def plan_dummy_seed(plan: AllocationPlan) -> int:
    """Stream seed for the pad bits carried in otherwise unused bit slots."""
    return stream_seed("plan-dummy", plan.seed, plan.digests.get("channel_seed", 0))
