"""End-to-end Monte Carlo harness over the full transmission chain.

A trial takes synthetic Gaussian latents through quantization, bit mapping,
QAM modulation, per-subcarrier fading plus noise, equalization, hard-decision
demodulation, inverse mapping and dequantization, and records per-element
squared errors alongside realized per-subcarrier bit error rates.

A plan serves every frame of its coherence block, so what depends on the plan
alone is built once, on the plan's first trial, and kept in this module,
keyed by the plan: the sent elements in bit-depth order (each depth a
slice), the payload bit -> (element, shift) map that expands codewords into
the bit stream, the pad bits, and the bit fields of the stream. The stream
is symbol-major (see allocator.build_bit_mapping): each subcarrier's word of
an OFDM symbol is m consecutive bits, and each codeword b consecutive bits.
So both directions pack a bit stream into bytes and read fixed fields out of
it, each through a window of at most 3 bytes (b <= 12 bits at a bit offset
<= 7): the sender reads the symbol words out of the packed payload and pad,
and the receiver expands the received words into a stream, packs it and
reads the codewords.
Nothing of the channel realization is kept; its gains and noise variance
are read on every call.

The frames of one coherence block share the plan and the realization, so
run_experiment sends them through run_trial together, as a (frames, n)
batch: each stage runs once per batch, covering every frame and OFDM symbol.
Apart from bit packing, the chain runs no stage of its own: it calls
quantizer.quantize and quantizer.dequantize once per bit depth (on that
depth's slice), and modem.modulate, channel.transmit_symbols,
channel.equalize and modem.demodulate once per active modulation order, each
through its module, so a tracer that wraps those functions times each stage.
A batch holds at most _BATCH_ENTRIES = 2^16 latents plus sent symbols (9
frames of 4096 latents sent in 5 OFDM symbols of 512 subcarriers): a whole
64-frame block would hold several MB more at once, and smaller batches give
back part of the speed. The batch, with one Generator per frame, is the
chain's only form; measure_link_ber sends its symbols as one-frame batches
through the same modulate, transmit, equalize and demodulate step. The bytes
equal a frame-by-frame loop: every stage is elementwise or exact integer
work, each frame's noise and samples come from its own Generator, which
fills only its frame's rows in the order a call on that frame alone would
draw (symbol by symbol), and the experiment adds each frame's squared errors
into its sums one frame at a time, in frame order.

An experiment fixes one source, which stands in for the per-element statistics
a learned codec would supply: zero means and variances log-uniform on
[VAR_LO, sigma_max^2], so every element is feasible at every BER target of the
library; each drawn latent is clipped to +-3 sigma. Whether an element counts
as negligible is decided by the experiment's delta alone. The experiment then
runs its trials in order: a trial draws its channel realization once, and
every SNR point in turn gets its transmission plan for that realization from
the allocator and sends its frames over it, so the same realizations serve
every SNR point (making symbol-count trends directly comparable). Every
random stream is derived from the experiment seed plus structured labels, so
adding trials or SNR points never perturbs existing ones.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass

import numpy as np

from ._checks import check_count, check_int, check_positive_finite, is_finite
from ._version import __version__
from . import channel as chan
from . import allocator, modem, quantizer
from .allocator import (
    AllocationPlan,
    LatentStats,
    NoFeasibleRateError,
    optimize_plan,
    plan_dummy_seed,
    target_distortion,
)
from .library import DEFAULT_DELTA, QuantizerLibrary, sigma_max
from .rng import standard_normal_rows, stream_rng

__all__ = [
    "SyntheticSourceConfig",
    "TrialResult",
    "ExperimentReport",
    "ExperimentConfig",
    "draw_stats",
    "draw_source",
    "sample_latents",
    "run_trial",
    "run_experiment",
    "measure_link_ber",
    "report_rows_to_csv",
]

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
# run_experiment sends a realization's frames through run_trial in batches of
# at most this many latents plus sent symbols (at least one frame per batch)
_BATCH_ENTRIES = 1 << 16
_LINK_BER_CHUNK = 1 << 19  # symbols measure_link_ber sends per transmit call
VAR_LO = 0.01  # smallest variance the synthetic source draws


@dataclass
class SyntheticSourceConfig:
    """Synthetic Gaussian latent source standing in for a learned codec.

    n_latents elements with zero means and variances log-uniform on
    [VAR_LO, sigma_max^2]; seed labels the source's random stream. Both fields
    must be ints (n_latents >= 1), so a bad value fails here, before a
    library is loaded.
    """

    n_latents: int = 512
    seed: int = 0

    def __post_init__(self):
        check_count("n_latents", self.n_latents)
        check_int("seed", self.seed)


def draw_stats(cfg: SyntheticSourceConfig, sigma_max_value: float, rng: np.random.Generator) -> LatentStats:
    """Draw zero means and log-uniform variances on [VAR_LO, sigma_max^2]."""
    cap = sigma_max_value**2
    variances = np.exp(rng.uniform(np.log(VAR_LO), np.log(cap), size=cfg.n_latents))
    return LatentStats(means=np.zeros(cfg.n_latents), variances=np.minimum(variances, cap))


def draw_source(cfg: SyntheticSourceConfig, lib: QuantizerLibrary, seed: int) -> LatentStats:
    """The stats of source cfg for lib, from the "source" stream of seed and cfg.seed."""
    return draw_stats(cfg, sigma_max(lib), stream_rng("source", seed, cfg.seed))


def sample_latents(stats: LatentStats, rng) -> np.ndarray:
    """A (frames, n) batch of latents y_i ~ N(mu_i, sigma_i^2), clipped to mu_i +- 3 sigma_i.

    rng is a sequence of Generators, one per frame; row f is drawn from
    rng[f] alone.
    """
    std = np.sqrt(stats.variances)
    y = stats.means + std * standard_normal_rows(rng, (len(rng), stats.n))
    return np.clip(y, stats.means - 3.0 * std, stats.means + 3.0 * std)


@dataclass
class TrialResult:
    per_element_sq_error: np.ndarray
    bits_sent: int
    realized_errors_per_subcarrier: np.ndarray
    realized_bits_per_subcarrier: np.ndarray


@dataclass(frozen=True)
class _FrameLayout:
    """The part of the trial chain that depends on the plan alone.

    order lists the sent elements grouped by bit depth (element order within
    a depth), and groups holds (bit depth, first, end) of each depth's slice
    of it, so a depth's quantizer runs on a slice. Codewords are held as
    `word`, the smallest unsigned type for the plan's deepest element (uint8
    up to b = 8). The stream is the payload followed by the plan's pad bits:
    payload bit k is bit shift[k] of the codeword at position owner[k] of
    order (element order, most significant bit first), and shift has type
    `word` too.

    Each codeword and each subcarrier's word of an OFDM symbol (a slot) is a
    run of consecutive stream bits, so both are fields of the stream packed
    into bytes. A field is read as (index, shift, mask): the 24-bit window of
    the packed bytes index, index + 1 and index + 2, shifted right by shift
    and masked; a b <= 12 bit field at a bit offset <= 7 fits the window.
    fields holds the codewords' fields in the order of order. The stream's
    slots are numbered in stream order; stream bit k is bit slot_shift[k] of
    slot slot_owner[k], so the received slot words expand to the received
    stream as the codewords expand to the payload. orders holds, per active
    modulation order m, (m, subcarriers, powers, slots, slot fields), where
    slots[t, k] numbers the slot of subcarrier k in OFDM symbol t. Nothing
    here depends on the latent stats, so quantize and dequantize check the
    sent elements' sigma > 0 on every call.
    """

    order: np.ndarray
    groups: tuple
    word: np.dtype
    owner: np.ndarray
    shift: np.ndarray
    pad: np.ndarray
    fields: tuple
    slot_owner: np.ndarray
    slot_shift: np.ndarray
    orders: tuple


# each run plan's frame layout, built by its first run_trial call; an entry goes with its plan
_LAYOUTS: weakref.WeakKeyDictionary[AllocationPlan, _FrameLayout] = weakref.WeakKeyDictionary()


def _field(start, width) -> tuple:
    """(index, shift, mask) of the bits [start, start + width) of a packed stream."""
    return start >> 3, (24 - (start & 7) - width).astype(np.uint8), np.uint32((1 << width) - 1)


def _bits(words: np.ndarray, owner: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Bit k of each row is bit shift[k] of words[:, owner[k]]."""
    return (np.take(words, owner, axis=1) >> shift) & 1


def _windows(bits: np.ndarray) -> np.ndarray:
    """Pack each row of bits into bytes and window them.

    Column i holds bytes i, i + 1 and i + 2 as one 24-bit number; bytes past
    the end read as zero.
    """
    packed = np.packbits(bits, axis=1)
    wide = np.zeros((packed.shape[0], packed.shape[1] + 2), dtype=np.uint32)
    wide[:, :-2] = packed
    return (wide[:, :-2] << 16) | (wide[:, 1:-1] << 8) | wide[:, 2:]


def _read(windows: np.ndarray, fields: tuple, dtype) -> np.ndarray:
    """The fields of each row of the packed stream whose windows are given."""
    index, shift, mask = fields
    return ((np.take(windows, index, axis=1) >> shift) & mask).astype(dtype)


def _build_frame_layout(plan: AllocationPlan) -> _FrameLayout:
    widths = plan.bits.astype(np.int64)
    sent = np.flatnonzero(widths > 0)
    counts = widths[sent]
    by_depth = np.argsort(counts, kind="stable")
    depths, first = np.unique(counts[by_depth], return_index=True)
    ends = np.append(first[1:], sent.size)
    groups = tuple((int(b), int(lo), int(hi)) for b, lo, hi in zip(depths, first, ends))
    place = np.empty_like(by_depth)
    place[by_depth] = np.arange(sent.size)
    starts = np.cumsum(counts) - counts
    owner = np.repeat(place, counts)
    word = np.min_scalar_type((1 << int(counts.max(initial=1))) - 1)
    # bit j of a w-bit word (MSB first) is the word shifted right by w - 1 - j
    shift = (np.repeat(starts + counts - 1, counts) - np.arange(owner.size)).astype(word)

    dummy_rng = np.random.Generator(np.random.PCG64(plan_dummy_seed(plan)))
    pad = dummy_rng.integers(0, 2, size=plan.dummy_bits).astype(np.uint8)

    # the module attribute, so a tracer that wraps it times the placement
    symbol, subcarrier, position = allocator.build_bit_mapping(plan.modulations, plan.t_sym)
    heads = np.flatnonzero(position == 0)  # each slot's first stream bit
    slot_owner = np.cumsum(position == 0) - 1
    slot_shift = (plan.modulations[subcarrier] - 1 - position).astype(np.uint8)
    slot_of = np.zeros((plan.t_sym, plan.modulations.size), dtype=np.int64)
    slot_of[symbol[heads], subcarrier[heads]] = np.arange(heads.size)
    orders = []
    for m in modem.QAM_BITS:
        sc = np.flatnonzero(plan.modulations == m)
        if sc.size:
            slots = slot_of[:, sc]
            orders.append((m, sc, plan.powers[sc], slots, _field(heads[slots], m)))
    fields = _field(starts[by_depth], counts[by_depth])
    return _FrameLayout(
        sent[by_depth], groups, word, owner, shift, pad, fields, slot_owner, slot_shift, tuple(orders)
    )


def run_trial(
    stats: LatentStats,
    y: np.ndarray,
    plan: AllocationPlan,
    lib: QuantizerLibrary,
    realization: chan.ChannelRealization,
    rng,
) -> TrialResult:
    """Send a (frames, n) batch of latent vectors through the full link under a fixed plan.

    rng is a sequence of Generators, one per frame; frame f's noise is drawn
    from rng[f] alone. per_element_sq_error is (frames, n), the realized
    counts are summed over the frames, and bits_sent is per frame. A plan
    whose library or stats digest or channel seed differs from lib, stats
    and realization, or is missing, is refused with ValueError.
    """
    rngs = list(rng)
    if y.ndim != 2 or y.shape[1:] != stats.means.shape:
        raise ValueError("sample batch shape must be (frames, n) with n of the stats")
    if len(rngs) != y.shape[0]:
        raise ValueError(f"need one Generator per frame, got {len(rngs)} for {y.shape[0]}")
    if plan.digests.get("library") != lib.digest():
        raise ValueError("plan was built for a different quantizer library")
    if plan.digests.get("stats") != stats.digest():
        raise ValueError("plan was built for different latent stats")
    if plan.digests.get("channel_seed") != realization.seed:
        raise ValueError("plan was built for a different channel realization")

    if plan.is_empty or plan.b_lat == 0:
        yhat, errors, bits = stats.means, np.zeros(realization.n_sc), np.zeros(realization.n_sc)
        bits_sent = 0
    else:
        yhat, errors, bits = _send_frames(stats, y, plan, lib, realization, rngs)
        bits_sent = plan.b_lat
    return TrialResult(np.square(y - yhat), bits_sent, errors, bits)


def _send_frames(stats, y, plan, lib, realization, rngs):
    """The chain for a (frames, n) batch of a plan that sends bits.

    Returns the reconstructions, then the bit errors and the bits sent per
    subcarrier, summed over the frames.
    """
    layout = _LAYOUTS.get(plan)
    if layout is None:
        layout = _LAYOUTS[plan] = _build_frame_layout(plan)

    frames, b_lat = y.shape[0], plan.b_lat
    err_per_sc = np.zeros(realization.n_sc)
    bits_per_sc = np.zeros(realization.n_sc)

    # the sent elements in depth order, each depth's quantizer on a slice
    order = layout.order
    y_sent = np.take(y, order, axis=1)
    mean, std = stats.means[order], np.sqrt(stats.variances[order])
    codewords = np.empty(y_sent.shape, dtype=layout.word)
    for b, lo, hi in layout.groups:
        q = lib.quantizer(b, plan.eps_index)
        codewords[:, lo:hi] = quantizer.quantize(y_sent[:, lo:hi], mean[lo:hi], std[lo:hi], q)
    stream = np.empty((frames, b_lat + layout.pad.size), dtype=np.uint8)
    stream[:, :b_lat] = _bits(codewords, layout.owner, layout.shift)
    stream[:, b_lat:] = layout.pad
    windows = _windows(stream)

    # one transmit per modulation order, covering every frame and OFDM symbol;
    # the received slot words are expanded back into a received stream
    rx_slots = np.empty((frames, layout.slot_owner[-1] + 1), dtype=np.uint8)  # a column per slot
    for m, sc, p, slots, fields in layout.orders:
        h = realization.gains[sc]
        words = _read(windows, fields, np.uint8)
        rx_words = _link(words, m, p, h, realization.noise_var, rngs).astype(np.uint8)
        rx_slots[:, slots] = rx_words
        err_per_sc[sc] += np.take(_POPCOUNT, words ^ rx_words).sum(axis=(0, 1))
        bits_per_sc[sc] += m * plan.t_sym * frames
    rx_windows = _windows(_bits(rx_slots, layout.slot_owner, layout.slot_shift))

    # received codewords in depth order, dequantized slice by slice
    rx_codewords = _read(rx_windows, layout.fields, layout.word)
    yhat = np.broadcast_to(stats.means, y.shape).copy()
    for b, lo, hi in layout.groups:
        q = lib.quantizer(b, plan.eps_index)
        yhat[:, order[lo:hi]] = quantizer.dequantize(rx_codewords[:, lo:hi], mean[lo:hi], std[lo:hi], q)
    return yhat, err_per_sc, bits_per_sc


def _link(words, m, p, h, noise_var, rngs):
    """Words of order m received through modulate, transmit, equalize and demodulate.

    Each stage is called through its module, so a tracer that wraps it times it.
    """
    r = chan.transmit_symbols(modem.modulate(words, m), p, h, noise_var, rngs)
    return modem.demodulate(chan.equalize(r, p, h), m)


@dataclass
class ExperimentConfig:
    """Sweep definition: source, channel profile, SNR grid, trial counts."""

    source: SyntheticSourceConfig
    profile_ref: str = "exp-pdp(300)"
    snr_db: tuple = (5.0, 10.0, 15.0)
    trials: int = 200
    frames_per_realization: int = 1
    n_sc: int = chan.DEFAULT_N_SC
    spacing_hz: float = chan.DEFAULT_SPACING_HZ
    delta: float = DEFAULT_DELTA
    seed: int = 0

    def __post_init__(self):
        # a zero count would report a NaN mean distortion and no violations,
        # a string would fail only after the library is loaded, and a string
        # seed would run under a different config digest; a profile that is
        # not a string would fail with a TypeError once the library is loaded
        for name in ("trials", "frames_per_realization", "n_sc"):
            check_count(name, getattr(self, name))
        check_int("seed", self.seed)
        if not isinstance(self.profile_ref, str):
            raise ValueError(f"profile_ref must be a string, got {self.profile_ref!r}")
        for name in ("spacing_hz", "delta"):
            check_positive_finite(name, getattr(self, name))
        finite = [is_finite(s) for s in self.snr_db]
        if not finite or not all(finite):
            raise ValueError(f"snr_db must be a nonempty list of finite numbers, got {self.snr_db!r}")
        # an SNR whose budget overflows or underflows would fail mid-sweep
        for snr in self.snr_db:
            chan.power_budget(self.n_sc, snr)

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.__dict__, default=lambda o: o.__dict__, sort_keys=True).encode()
        ).hexdigest()


@dataclass
class ExperimentReport:
    """Aggregates for one SNR point of a sweep."""

    snr_db: float
    trials: int
    frames: int
    mean_distortion_per_element: np.ndarray
    se_distortion_per_element: np.ndarray
    per_element_target: np.ndarray
    checked: np.ndarray  # elements with variance >= delta
    violation_rate: float
    mean_t_sym: float
    mean_eps_star: float
    channel_label: str
    config_digest: str
    seed: int
    trial_details: list


def run_experiment(
    cfg: ExperimentConfig, lib: QuantizerLibrary, keep_trials: bool = False
) -> list[ExperimentReport]:
    """Run the sweep; one report per SNR point, deterministic in cfg.seed.

    The loop is trial-major: each trial draws its realization once, then
    plans and sends every SNR point on it, in the order of cfg.snr_db. Each
    point's sums take its frames one at a time, in trial and frame order, and
    the reports are built once every trial has run. A NoFeasibleRateError
    from the planner is raised at the first trial where a point has no
    feasible rate, with that point, as in "at 5.0 dB: no BER target achieves
    ...", so the later trials of every point are not run.
    """
    profile = chan.parse_profile_ref(cfg.profile_ref)
    stats = draw_source(cfg.source, lib, cfg.seed)
    targets = target_distortion(stats.variances)
    checked = stats.variances >= cfg.delta
    budgets = [chan.power_budget(cfg.n_sc, snr) for snr in cfg.snr_db]
    sq_sum = np.zeros((len(budgets), stats.n))
    sq_sumsq = np.zeros((len(budgets), stats.n))
    t_syms = [[] for _ in budgets]
    eps_stars = [[] for _ in budgets]
    details = [[] for _ in budgets]
    for trial in range(cfg.trials):
        realization = chan.realize_channel(
            profile, cfg.n_sc, cfg.spacing_hz, seed=trial, rng=stream_rng("channel", cfg.seed, trial)
        )
        for si, (snr, p_tot) in enumerate(zip(cfg.snr_db, budgets)):
            try:
                plan = optimize_plan(lib, stats, realization, p_tot, cfg.delta, seed=cfg.seed)
            except NoFeasibleRateError as exc:
                raise NoFeasibleRateError(f"at {float(snr)} dB: {exc}") from exc
            t_syms[si].append(plan.t_sym)
            eps_stars[si].append(plan.epsilon_star)
            acc, acc2 = sq_sum[si], sq_sumsq[si]
            size = max(1, _BATCH_ENTRIES // (stats.n + plan.t_sym * cfg.n_sc))
            for first in range(0, cfg.frames_per_realization, size):
                frames = range(first, min(first + size, cfg.frames_per_realization))
                y = sample_latents(stats, [stream_rng("sample", cfg.seed, si, trial, f) for f in frames])
                noise = [stream_rng("noise", cfg.seed, si, trial, f) for f in frames]
                res = run_trial(stats, y, plan, lib, realization, noise)
                # frame by frame, in frame order, so the sums round as one frame at a time
                for frame, sq_error in zip(frames, res.per_element_sq_error):
                    acc += sq_error
                    acc2 += np.square(sq_error)
                    if keep_trials:
                        details[si].append(
                            {
                                "trial": trial,
                                "frame": frame,
                                "t_sym": plan.t_sym,
                                "eps_star": plan.epsilon_star,
                                "mean_sq_error": float(sq_error.mean()),
                            }
                        )
    count = cfg.trials * cfg.frames_per_realization
    mean = sq_sum / count
    var = np.maximum(sq_sumsq / count - np.square(mean), 0.0)
    se = np.sqrt(var / count)
    viol = checked & (mean > targets + 3.0 * se)
    return [
        ExperimentReport(
            snr_db=float(snr),
            trials=cfg.trials,
            frames=count,
            mean_distortion_per_element=mean[si],
            se_distortion_per_element=se[si],
            per_element_target=targets,
            checked=checked,
            violation_rate=float(viol[si].sum() / max(checked.sum(), 1)),
            mean_t_sym=float(np.mean(t_syms[si])),
            mean_eps_star=float(np.mean(eps_stars[si])),
            channel_label=profile.label,
            config_digest=cfg.digest(),
            seed=cfg.seed,
            trial_details=details[si],
        )
        for si, snr in enumerate(cfg.snr_db)
    ]


def measure_link_ber(m: int, gamma: float, n_bits: int, rng: np.random.Generator) -> float:
    """Empirical BER of Gray QAM through the transmit/equalize chain at SNR gamma.

    Uses unit channel gain and power `gamma` against unit-variance noise, which
    is exactly the per-subcarrier model after equalization. n_bits must be an
    int of at least 1; at least one symbol is sent. Each chunk of symbols is
    a one-frame batch through the trial chain's link step, its words and then
    its noise drawn from rng.
    """
    check_count("n_bits", n_bits)
    n_sym = max(n_bits // m, 1)
    errors = 0
    done = 0
    while done < n_sym:
        size = min(_LINK_BER_CHUNK, n_sym - done)
        words = rng.integers(0, 1 << m, size=(1, size))
        rx = _link(words, m, gamma, 1.0 + 0j, 1.0, [rng])
        errors += int(np.take(_POPCOUNT, words ^ rx).sum())
        done += size
    return errors / (n_sym * m)


_CSV_COLUMNS = (
    "snr_db",
    "trials",
    "frames",
    "n_elements",
    "n_checked",
    "violation_rate",
    "mean_t_sym",
    "mean_eps_star",
    "mean_distortion",
    "mean_target",
    "channel_label",
    "config_digest",
    "seed",
    "version",
)


def report_rows_to_csv(reports: list[ExperimentReport]) -> str:
    """One CSV row per SNR point; deterministic formatting."""
    lines = [",".join(_CSV_COLUMNS)]
    for r in reports:
        lines.append(
            ",".join(
                str(v)
                for v in (
                    repr(r.snr_db),
                    r.trials,
                    r.frames,
                    r.mean_distortion_per_element.size,
                    int(r.checked.sum()),
                    repr(r.violation_rate),
                    repr(r.mean_t_sym),
                    repr(r.mean_eps_star),
                    repr(float(r.mean_distortion_per_element.mean())),
                    repr(float(r.per_element_target.mean())),
                    r.channel_label,
                    r.config_digest,
                    r.seed,
                    __version__,
                )
            )
        )
    return "\n".join(lines) + "\n"
