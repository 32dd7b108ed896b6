"""End-to-end Monte Carlo harness over the full transmission chain.

A trial takes synthetic Gaussian latents through quantization, bit mapping,
QAM modulation, per-subcarrier fading plus noise, equalization, hard-decision
demodulation, inverse mapping and dequantization, and records per-element
squared errors alongside realized per-subcarrier bit error rates.

An experiment fixes one source (its per-element means and variances), then
sweeps SNR points and channel realizations; each trial gets its transmission
plan from the allocator. Every random stream is derived from the experiment
seed plus structured labels, so adding trials or SNR points never perturbs
existing ones, and the same channel realizations are reused across SNR points
(making symbol-count trends directly comparable).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

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
from .quantizer import dequantize, quantize
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


@dataclass
class SyntheticSourceConfig:
    """Synthetic Gaussian latent source standing in for a learned codec.

    variance_law: 'log-uniform' (var_lo, var_hi), 'fixed' (fixed_variances),
    or 'heavy-tail' (Pareto-like spread capped by the library). An optional
    frac_negligible forces that fraction of elements below the negligibility
    threshold delta. mean_law: 'zero' or 'uniform' (mean_lo, mean_hi).
    """

    n_latents: int = 512
    variance_law: str = "log-uniform"
    var_lo: float = 0.01
    var_hi: float | None = None  # None means the library's sigma_max^2
    fixed_variances: tuple = ()
    frac_negligible: float | None = None
    delta: float = DEFAULT_DELTA
    mean_law: str = "zero"
    mean_lo: float = 0.0
    mean_hi: float = 0.0
    clip_3sigma: bool = True
    seed: int = 0


def draw_stats(cfg: SyntheticSourceConfig, sigma_max_value: float, rng: np.random.Generator) -> LatentStats:
    """Draw per-element (mean, variance) pairs; variances are capped at sigma_max^2."""
    n = cfg.n_latents
    cap = sigma_max_value**2
    hi = cap if cfg.var_hi is None else min(cfg.var_hi, cap)
    if cfg.variance_law == "fixed":
        variances = np.asarray(cfg.fixed_variances, dtype=np.float64)
        if variances.size != n:
            raise ValueError("fixed variance list length must equal n_latents")
        variances = np.minimum(variances, cap)
    elif cfg.variance_law == "log-uniform":
        if not 0 < cfg.var_lo < hi:
            raise ValueError("need 0 < var_lo < var_hi")
        variances = np.exp(rng.uniform(np.log(cfg.var_lo), np.log(hi), size=n))
    elif cfg.variance_law == "heavy-tail":
        variances = np.minimum(cfg.var_lo * (1.0 + rng.pareto(1.5, size=n)), hi)
    else:
        raise ValueError(f"unknown variance law {cfg.variance_law!r}")
    if cfg.frac_negligible is not None and cfg.variance_law != "fixed":
        k = int(round(cfg.frac_negligible * n))
        small = np.exp(rng.uniform(np.log(min(cfg.var_lo, cfg.delta * 0.999)), np.log(cfg.delta), size=k))
        variances[:k] = np.minimum(small, cfg.delta * (1 - 1e-12))
    if cfg.mean_law == "zero":
        means = np.zeros(n)
    elif cfg.mean_law == "uniform":
        means = rng.uniform(cfg.mean_lo, cfg.mean_hi, size=n)
    else:
        raise ValueError(f"unknown mean law {cfg.mean_law!r}")
    return LatentStats(means=means, variances=np.minimum(variances, cap))


def sample_latents(stats: LatentStats, clip_3sigma: bool, rng: np.random.Generator) -> np.ndarray:
    """One latent vector y_i ~ N(mu_i, sigma_i^2), optionally clipped to +-3 sigma."""
    std = np.sqrt(stats.variances)
    y = stats.means + std * rng.standard_normal(stats.n)
    if clip_3sigma:
        y = np.clip(y, stats.means - 3.0 * std, stats.means + 3.0 * std)
    return y


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


def _words_from_bits(bits: np.ndarray, owner_starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    words = np.zeros(owner_starts.size, dtype=np.int64)
    for j in range(int(widths.max(initial=0))):
        has = widths > j
        words[has] = (words[has] << 1) | bits[owner_starts[has] + j]
    return words


def _bits_from_words(words: np.ndarray, widths: np.ndarray, total: int, starts: np.ndarray) -> np.ndarray:
    out = np.zeros(total, dtype=np.int64)
    for j in range(int(widths.max(initial=0))):
        has = widths > j
        out[starts[has] + j] = (words[has] >> (widths[has] - 1 - j)) & 1
    return out


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
    if plan.digests.get("stats") not in (None, stats.digest()):
        raise ValueError("plan was built for different latent stats")
    if plan.digests.get("channel_seed") not in (None, realization.seed):
        raise ValueError("plan was built for a different channel realization")

    n = stats.n
    targets = target_distortion(stats.variances)
    bits = plan.bits
    widths = bits.astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(widths)))[:-1]
    b_lat = int(widths.sum())
    yhat = stats.means.copy()

    if plan.is_empty or b_lat == 0:
        return TrialResult(
            per_element_sq_error=np.square(y - yhat),
            per_element_target=targets,
            bits_sent=0,
            t_sym=0,
            realized_errors_per_subcarrier=np.zeros(realization.n_sc),
            realized_bits_per_subcarrier=np.zeros(realization.n_sc),
            seed=seed,
        )

    # quantize elements sharing a bit depth together (same normalized quantizer)
    std = np.sqrt(stats.variances)
    codewords = np.zeros(n, dtype=np.int64)
    for b in np.unique(widths[widths > 0]):
        sel = np.flatnonzero(widths == b)
        q = lib.quantizer(int(b), plan.eps_index)
        codewords[sel] = quantize(y[sel], stats.means[sel], std[sel], q)
    sent = widths > 0
    tx_bits = _bits_from_words(codewords[sent], widths[sent], b_lat, starts[sent])

    dummy_rng = np.random.Generator(np.random.PCG64(plan_dummy_seed(plan)))
    stream = np.concatenate((tx_bits, dummy_rng.integers(0, 2, size=plan.dummy_bits)))

    mapping = plan.mapping
    total = mapping.total_bits
    rx_stream = np.zeros(total, dtype=np.int64)
    err_per_sc = np.zeros(realization.n_sc)
    bits_per_sc = np.zeros(realization.n_sc)

    # per modulation order: gather bit indices per RE once, reuse each symbol
    sym_of_bit = mapping.symbol
    for m in modem.QAM_BITS:
        sc_m = np.flatnonzero(plan.modulations == m)
        if sc_m.size == 0:
            continue
        first_sym = sym_of_bit == 0
        gather = np.zeros((sc_m.size, m), dtype=np.int64)
        for col in range(m):
            pick = first_sym & np.isin(mapping.subcarrier, sc_m) & (mapping.position == col)
            gather[:, col] = np.flatnonzero(pick)
        h = realization.gains[sc_m]
        p = plan.powers[sc_m]
        table = modem.constellation(m)
        shifts = np.arange(m - 1, -1, -1)
        r_sym = total // plan.t_sym
        for t in range(plan.t_sym):
            g = gather + t * r_sym
            words = (stream[g] << shifts).sum(axis=1)
            s = table.points[words]
            r = chan.transmit_symbols(s, p, h, realization.noise_var, rng)
            rx_words = modem.demodulate(chan.equalize(r, p, h), m)
            for col in range(m):
                rx_stream[g[:, col]] = (rx_words >> (m - 1 - col)) & 1
            nerr = _POPCOUNT[np.asarray(words ^ rx_words)]
            err_per_sc[sc_m] += nerr
            bits_per_sc[sc_m] += m

    rx_payload = rx_stream[:b_lat]
    rx_words = _words_from_bits(rx_payload, starts[sent], widths[sent])
    sel = np.flatnonzero(sent)
    for b in np.unique(widths[sent]):
        grp = widths[sel] == b
        q = lib.quantizer(int(b), plan.eps_index)
        ids = sel[grp]
        yhat[ids] = dequantize(rx_words[grp], stats.means[ids], std[ids], q)

    return TrialResult(
        per_element_sq_error=np.square(y - yhat),
        per_element_target=targets,
        bits_sent=b_lat,
        t_sym=plan.t_sym,
        realized_errors_per_subcarrier=err_per_sc,
        realized_bits_per_subcarrier=bits_per_sc,
        seed=seed,
    )


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
                y = sample_latents(
                    stats, cfg.source.clip_3sigma, stream_rng("sample", cfg.seed, si, trial, frame)
                )
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
