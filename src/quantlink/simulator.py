"""End-to-end Monte Carlo harness over the full transmission chain.

A trial takes synthetic Gaussian latents through quantization, bit mapping,
QAM modulation, per-subcarrier fading plus noise, equalization, hard-decision
demodulation, inverse mapping and dequantization, and records per-element
squared errors alongside realized per-subcarrier bit error rates.

A plan serves every frame of its coherence block, so what depends on the plan
alone is built once, on the plan's first trial, and kept on the plan: the
bit-depth groups, the payload bit -> (element, shift) map that packs codewords
into the bit stream and unpacks received bits with one reduceat, the pad bits,
and per active modulation order the subcarriers, powers and a
(t_sym, subcarriers, m) gather of stream indices. Nothing of the channel
realization is kept; its gains and noise variance are read every frame. Each
frame then makes one transmit, equalize and demodulate call per active
modulation order, covering all OFDM symbols at once; the noise is drawn
symbol by symbol, so the result equals a symbol-by-symbol loop bit for bit.

An experiment fixes one source, which stands in for the per-element statistics
a learned codec would supply: zero means and variances log-uniform on
[VAR_LO, sigma_max^2], so every element is feasible at every BER target of the
library; each drawn latent is clipped to +-3 sigma. Whether an element counts
as negligible is decided by the experiment's delta alone. The experiment then
sweeps SNR points and channel realizations; each trial gets its transmission
plan from the allocator. Every random stream is derived from the experiment
seed plus structured labels, so adding trials or SNR points never perturbs
existing ones, and the same channel realizations are reused across SNR points
(making symbol-count trends directly comparable).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from . import channel as chan
from . import modem
from .allocator import (
    AllocationPlan,
    LatentStats,
    optimize_plan,
    plan_dummy_seed,
    target_distortion,
)
from .library import DEFAULT_DELTA, QuantizerLibrary, sigma_max
from .quantizer import _dequantize_core, _quantize_core
from .rng import stream_rng

__all__ = [
    "SyntheticSourceConfig",
    "TrialResult",
    "ExperimentReport",
    "ExperimentConfig",
    "draw_stats",
    "sample_latents",
    "run_trial",
    "run_experiment",
    "measure_link_ber",
    "report_rows_to_csv",
]

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
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
        if not _is_int(self.n_latents) or self.n_latents < 1:
            raise ValueError(f"n_latents must be an int >= 1, got {self.n_latents!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an int, got {self.seed!r}")


def draw_stats(cfg: SyntheticSourceConfig, sigma_max_value: float, rng: np.random.Generator) -> LatentStats:
    """Draw zero means and log-uniform variances on [VAR_LO, sigma_max^2]."""
    cap = sigma_max_value**2
    variances = np.exp(rng.uniform(np.log(VAR_LO), np.log(cap), size=cfg.n_latents))
    return LatentStats(means=np.zeros(cfg.n_latents), variances=np.minimum(variances, cap))


def sample_latents(stats: LatentStats, rng: np.random.Generator) -> np.ndarray:
    """One latent vector y_i ~ N(mu_i, sigma_i^2), clipped to mu_i +- 3 sigma_i."""
    std = np.sqrt(stats.variances)
    y = stats.means + std * rng.standard_normal(stats.n)
    return np.clip(y, stats.means - 3.0 * std, stats.means + 3.0 * std)


@dataclass
class TrialResult:
    per_element_sq_error: np.ndarray
    per_element_target: np.ndarray
    bits_sent: int
    t_sym: int
    realized_errors_per_subcarrier: np.ndarray
    realized_bits_per_subcarrier: np.ndarray
    seed: int

    @property
    def realized_ber_per_subcarrier(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self.realized_bits_per_subcarrier > 0,
                self.realized_errors_per_subcarrier / self.realized_bits_per_subcarrier,
                np.nan,
            )


@dataclass(frozen=True)
class _FrameLayout:
    """The part of the trial chain that depends on the plan alone.

    groups holds (bit depth, element indices, their ranks among the sent
    elements); payload bit k carries bit shift[k] of element owner[k]'s
    codeword, and starts[j] is the first payload bit of sent element j. The
    stream is the payload followed by the plan's pad bits. orders holds, per
    active modulation order m, (m, subcarriers, powers, gather), where
    gather[t, k, c] is the stream index of bit position c on subcarrier k of
    OFDM symbol t (most significant bit first). checked_stats is the digest
    of the stats whose sent elements were checked to have sigma > 0, the one
    input check the frame's quantizer calls skip; received words are b-bit by
    construction.
    """

    groups: tuple
    owner: np.ndarray
    shift: np.ndarray
    starts: np.ndarray
    pad: np.ndarray
    orders: tuple
    checked_stats: str | None = None


def _build_frame_layout(plan: AllocationPlan) -> _FrameLayout:
    widths = plan.bits.astype(np.int64)
    sent = np.flatnonzero(widths > 0)
    rank = np.cumsum(widths > 0) - 1
    groups = []
    for b in np.unique(widths[sent]):
        ids = np.flatnonzero(widths == b)
        groups.append((int(b), ids, rank[ids]))
    counts = widths[sent]
    starts = np.cumsum(counts) - counts
    owner = np.repeat(sent, counts)
    # bit j of a w-bit word (MSB first) is the word shifted right by w - 1 - j
    shift = np.repeat(starts + counts - 1, counts) - np.arange(owner.size)

    dummy_rng = np.random.Generator(np.random.PCG64(plan_dummy_seed(plan)))
    pad = dummy_rng.integers(0, 2, size=plan.dummy_bits)

    mapping = plan.mapping
    slots = np.zeros((plan.t_sym, plan.modulations.size, max(modem.QAM_BITS)), dtype=np.int64)
    slots[mapping.symbol, mapping.subcarrier, mapping.position] = np.arange(mapping.total_bits)
    orders = []
    for m in modem.QAM_BITS:
        sc = np.flatnonzero(plan.modulations == m)
        if sc.size:
            orders.append((m, sc, plan.powers[sc], slots[:, sc, :m]))
    return _FrameLayout(tuple(groups), owner, shift, starts, pad, tuple(orders))


def run_trial(
    stats: LatentStats,
    y: np.ndarray,
    plan: AllocationPlan,
    lib: QuantizerLibrary,
    realization: chan.ChannelRealization,
    rng: np.random.Generator,
    seed: int = 0,
) -> TrialResult:
    """Send one latent vector through the full link under a fixed plan."""
    if y.shape != stats.means.shape:
        raise ValueError("sample vector shape must match stats")
    if plan.digests.get("library") not in (None, lib.digest()):
        raise ValueError("plan was built for a different quantizer library")
    if plan.digests.get("stats") not in (None, stats.digest()):
        raise ValueError("plan was built for different latent stats")
    if plan.digests.get("channel_seed") not in (None, realization.seed):
        raise ValueError("plan was built for a different channel realization")

    targets = target_distortion(stats.variances)
    b_lat = plan.b_lat
    yhat = stats.means.copy()
    err_per_sc = np.zeros(realization.n_sc)
    bits_per_sc = np.zeros(realization.n_sc)

    if plan.is_empty or b_lat == 0:
        return TrialResult(
            per_element_sq_error=np.square(y - yhat),
            per_element_target=targets,
            bits_sent=0,
            t_sym=0,
            realized_errors_per_subcarrier=err_per_sc,
            realized_bits_per_subcarrier=bits_per_sc,
            seed=seed,
        )

    layout = plan._frame_layout
    if layout is None:
        layout = plan._frame_layout = _build_frame_layout(plan)
    if layout.checked_stats != stats.digest():
        if not np.all(stats.variances[plan.bits > 0] > 0):
            raise ValueError("std must be positive")
        layout = plan._frame_layout = replace(layout, checked_stats=stats.digest())

    # quantize elements sharing a bit depth together (same normalized quantizer)
    std = np.sqrt(stats.variances)
    codewords = np.zeros(stats.n, dtype=np.int64)
    for b, ids, _ in layout.groups:
        q = lib.quantizer(b, plan.eps_index)
        codewords[ids] = _quantize_core(y[ids], stats.means[ids], std[ids], q)
    stream = np.concatenate(((codewords[layout.owner] >> layout.shift) & 1, layout.pad))

    # one transmit per modulation order, covering every OFDM symbol at once
    rx_stream = np.zeros(stream.size, dtype=np.int64)
    for m, sc, p, gather in layout.orders:
        shifts = np.arange(m - 1, -1, -1)
        h = realization.gains[sc]
        words = stream[gather] @ (1 << shifts)
        s = modem.constellation(m).points[words]
        r = chan.transmit_symbols(s, p, h, realization.noise_var, rng)
        rx_words = modem.demodulate(chan.equalize(r, p, h), m)
        rx_stream[gather] = (rx_words[..., None] >> shifts) & 1
        err_per_sc[sc] += _POPCOUNT[words ^ rx_words].sum(axis=0)
        bits_per_sc[sc] += m * plan.t_sym

    rx_words = np.add.reduceat(rx_stream[:b_lat] << layout.shift, layout.starts)
    for b, ids, ranks in layout.groups:
        q = lib.quantizer(b, plan.eps_index)
        yhat[ids] = _dequantize_core(rx_words[ranks], stats.means[ids], std[ids], q)

    return TrialResult(
        per_element_sq_error=np.square(y - yhat),
        per_element_target=targets,
        bits_sent=b_lat,
        t_sym=plan.t_sym,
        realized_errors_per_subcarrier=err_per_sc,
        realized_bits_per_subcarrier=bits_per_sc,
        seed=seed,
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A finite real number; bools and strings are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_positive_finite(name: str, value) -> None:
    if not _is_finite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")


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
        # seed would run under a different config digest
        for name in ("trials", "frames_per_realization", "n_sc"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if not _is_int(self.seed):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        for name in ("spacing_hz", "delta"):
            _check_positive_finite(name, getattr(self, name))
        finite = [_is_finite(s) for s in self.snr_db]
        if not finite or not all(finite):
            raise ValueError(f"snr_db must be a nonempty list of finite numbers, got {self.snr_db!r}")

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
    trial_details: list = field(default_factory=list)


def run_experiment(
    cfg: ExperimentConfig, lib: QuantizerLibrary, keep_trials: bool = False
) -> list[ExperimentReport]:
    """Run the sweep; one report per SNR point, deterministic in cfg.seed."""
    profile = chan.parse_profile_ref(cfg.profile_ref)
    smax = sigma_max(lib)
    stats = draw_stats(cfg.source, smax, stream_rng("source", cfg.seed, cfg.source.seed))
    targets = target_distortion(stats.variances)
    checked = stats.variances >= cfg.delta
    digest = cfg.digest()

    reports = []
    for si, snr in enumerate(cfg.snr_db):
        p_tot = cfg.n_sc * 10.0 ** (snr / 10.0)
        sq_sum = np.zeros(stats.n)
        sq_sumsq = np.zeros(stats.n)
        t_syms = []
        eps_stars = []
        details = []
        count = 0
        for trial in range(cfg.trials):
            ch_seed = int(trial)
            realization = chan.realize_channel(
                profile,
                cfg.n_sc,
                cfg.spacing_hz,
                seed=ch_seed,
                rng=stream_rng("channel", cfg.seed, trial),
            )
            plan = optimize_plan(lib, stats, realization, p_tot, cfg.delta, seed=cfg.seed)
            t_syms.append(plan.t_sym)
            eps_stars.append(plan.epsilon_star)
            for frame in range(cfg.frames_per_realization):
                y = sample_latents(stats, stream_rng("sample", cfg.seed, si, trial, frame))
                res = run_trial(
                    stats,
                    y,
                    plan,
                    lib,
                    realization,
                    stream_rng("noise", cfg.seed, si, trial, frame),
                    seed=cfg.seed,
                )
                sq_sum += res.per_element_sq_error
                sq_sumsq += np.square(res.per_element_sq_error)
                count += 1
                if keep_trials:
                    details.append(
                        {
                            "trial": trial,
                            "frame": frame,
                            "t_sym": plan.t_sym,
                            "eps_star": plan.epsilon_star,
                            "mean_sq_error": float(res.per_element_sq_error.mean()),
                        }
                    )
        mean = sq_sum / count
        var = np.maximum(sq_sumsq / count - np.square(mean), 0.0)
        se = np.sqrt(var / count)
        viol = checked & (mean > targets + 3.0 * se)
        reports.append(
            ExperimentReport(
                snr_db=float(snr),
                trials=cfg.trials,
                frames=count,
                mean_distortion_per_element=mean,
                se_distortion_per_element=se,
                per_element_target=targets,
                checked=checked,
                violation_rate=float(viol.sum() / max(checked.sum(), 1)),
                mean_t_sym=float(np.mean(t_syms)),
                mean_eps_star=float(np.mean(eps_stars)),
                channel_label=profile.label,
                config_digest=digest,
                seed=cfg.seed,
                trial_details=details,
            )
        )
    return reports


def measure_link_ber(
    m: int, gamma: float, n_bits: int, rng: np.random.Generator, chunk: int = 1 << 19
) -> float:
    """Empirical BER of Gray QAM through the transmit/equalize chain at SNR gamma.

    Uses unit channel gain and power `gamma` against unit-variance noise, which
    is exactly the per-subcarrier model after equalization.
    """
    n_sym = max(n_bits // m, 1)
    errors = 0
    done = 0
    table = modem.constellation(m)
    while done < n_sym:
        size = min(chunk, n_sym - done)
        words = rng.integers(0, 1 << m, size=size)
        r = chan.transmit_symbols(table.points[words], gamma, 1.0 + 0j, 1.0, rng)
        rx = modem.demodulate(chan.equalize(r, gamma, 1.0 + 0j), m)
        errors += int(_POPCOUNT[np.asarray(words ^ rx)].sum())
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
