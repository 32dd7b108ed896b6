"""Frequency-selective fading and the per-subcarrier transmit/receive chain.

The link is simulated directly in the frequency domain: under a cyclic prefix
longer than the delay spread and a coherence time beyond one frame, each
subcarrier sees a flat complex gain h_k, so an OFDM symbol is just a vector of
independent scalar channels

    r = sqrt(p) h s + v,    v ~ CN(0, noise_var),

equalized by r / (sqrt(p) h). Tap gains are circularly-symmetric complex
Gaussian with powers normalized to sum to one, which makes E|h_k|^2 = 1 on
every subcarrier.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from ._checks import check_count, check_positive_finite, is_finite
from .rng import standard_normal_rows, stream_rng

__all__ = [
    "TapProfile",
    "ChannelRealization",
    "exponential_pdp",
    "load_tap_profile",
    "tdl_c_profile",
    "parse_profile_ref",
    "realize_channel",
    "power_budget",
    "transmit_symbols",
    "equalize",
]

DEFAULT_N_SC = 512
DEFAULT_SPACING_HZ = 30e3
_EXP_PDP_TAPS = 13


@dataclass
class TapProfile:
    """Multipath power-delay profile; powers are normalized to sum to 1."""

    delays_s: np.ndarray
    powers: np.ndarray
    label: str

    def __post_init__(self):
        self.delays_s = np.asarray(self.delays_s, dtype=np.float64)
        self.powers = np.asarray(self.powers, dtype=np.float64)
        if self.delays_s.size == 0 or self.delays_s.shape != self.powers.shape:
            raise ValueError("profile needs matching, nonempty delay and power vectors")
        if np.any(self.delays_s < 0) or np.any(self.powers < 0):
            raise ValueError("delays and powers must be nonnegative")
        total = self.powers.sum()
        if not total > 0:
            raise ValueError("total tap power must be positive")
        self.powers = self.powers / total

    def rms_delay_spread_s(self) -> float:
        mean = float(self.powers @ self.delays_s)
        second = float(self.powers @ np.square(self.delays_s))
        return float(np.sqrt(max(second - mean**2, 0.0)))


def exponential_pdp(rms_ns: float) -> TapProfile:
    """Exponentially decaying profile with the exact requested RMS delay spread.

    _EXP_PDP_TAPS taps sit on a uniform grid spanning six decay constants;
    delays are then rescaled so the discrete RMS delay spread equals rms_ns
    exactly.
    """
    if not rms_ns > 0:
        raise ValueError("rms_ns must be positive")
    raw = np.linspace(0.0, 6.0 * rms_ns, _EXP_PDP_TAPS)
    powers = np.exp(-raw / rms_ns)
    prof = TapProfile(raw * 1e-9, powers, label="")
    actual = prof.rms_delay_spread_s()
    prof.delays_s = prof.delays_s * (rms_ns * 1e-9 / actual)
    prof.label = f"exp-pdp({rms_ns:g})"
    return prof


def load_tap_profile(path) -> TapProfile:
    """Read a {label, taps: [{delay_ns, power_db}]} JSON profile.

    Raises ValueError naming the file and the entry when the document is not
    an object with a taps list, or a tap is not an object with finite
    numbers delay_ns and power_db.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    taps = doc.get("taps") if isinstance(doc, dict) else None
    if not isinstance(taps, list):
        raise ValueError(f"profile file {path}: need a JSON object with a 'taps' list")
    for k, tap in enumerate(taps):
        if not isinstance(tap, dict):
            raise ValueError(f"profile file {path}: tap {k} is not an object, got {tap!r}")
        for key in ("delay_ns", "power_db"):
            value = tap.get(key)
            if not is_finite(value):
                raise ValueError(f"profile file {path}: tap {k} needs a finite number {key!r}, got {value!r}")
    delays = np.array([t["delay_ns"] for t in taps], dtype=np.float64) * 1e-9
    powers = 10.0 ** (np.array([t["power_db"] for t in taps], dtype=np.float64) / 10.0)
    return TapProfile(delays, powers, doc.get("label", "unnamed"))


def tdl_c_profile() -> TapProfile:
    """Bundled 3GPP TDL-C profile scaled to 300 ns RMS delay spread.

    The table is read from this package's own data, under whatever name the
    package was imported.
    """
    ref = importlib.resources.files(__package__).joinpath("data/tdl_c_300ns.json")
    with importlib.resources.as_file(ref) as path:
        return load_tap_profile(path)


_EXP_RE = re.compile(r"^exp-pdp\((?P<rms>[0-9.eE+-]+)\)$")


def parse_profile_ref(ref: str) -> TapProfile:
    """Resolve a profile reference: 'exp-pdp(RMS_NS)', 'tdl-c', or a file path."""
    m = _EXP_RE.match(ref)
    if m:
        return exponential_pdp(float(m.group("rms")))
    if ref == "tdl-c":
        return tdl_c_profile()
    return load_tap_profile(ref)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One coherence block: fixed per-subcarrier gains and the noise variance.

    seed labels the draw. A plan records it as its channel_seed, and
    run_trial refuses a realization whose seed differs from it. The
    realization is frozen and gains is a read-only copy of the vector given,
    so what a module keeps per realization (keyed by the object) stays true
    of it; dataclasses.replace makes a new one.
    """

    gains: np.ndarray
    noise_var: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "gains", np.array(self.gains, dtype=np.complex128))
        if self.gains.ndim != 1 or self.gains.size < 1:
            raise ValueError("gains must be a nonempty vector")
        if not np.all(np.isfinite(self.gains)):
            raise ValueError("gains must be finite")
        if not self.noise_var > 0:
            raise ValueError("noise_var must be positive")
        self.gains.setflags(write=False)

    @property
    def n_sc(self) -> int:
        return int(self.gains.size)


def realize_channel(
    profile: TapProfile,
    n_sc: int = DEFAULT_N_SC,
    spacing_hz: float = DEFAULT_SPACING_HZ,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> ChannelRealization:
    """Draw tap gains and evaluate the frequency response on every subcarrier; noise variance 1.

    n_sc must be an int >= 1 and spacing_hz a positive finite number.
    """
    check_count("n_sc", n_sc)
    check_positive_finite("spacing_hz", spacing_hz)
    if rng is None:
        rng = stream_rng("channel", seed)
    n_taps = profile.powers.size
    g = np.sqrt(profile.powers / 2.0) * (
        rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
    )
    freqs = np.arange(n_sc) * spacing_hz
    phase = np.exp(-2j * np.pi * np.outer(freqs, profile.delays_s))
    return ChannelRealization(phase @ g, 1.0, seed)


def power_budget(n_sc: int, snr_db: float) -> float:
    """Total power n_sc * 10^(snr_db / 10): a mean SNR of snr_db per subcarrier at unit noise.

    Raises ValueError unless the budget is a positive finite float, so an SNR
    that overflows (4000 dB), underflows to 0 (-4000 dB) or is NaN fails here
    rather than in the planner.
    """
    try:
        p_tot = n_sc * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        p_tot = math.inf
    if not (math.isfinite(p_tot) and p_tot > 0):
        raise ValueError(
            f"snr_db {snr_db!r} on {n_sc!r} subcarriers gives power budget {p_tot!r}, not a positive finite number"
        )
    return p_tot


def transmit_symbols(s, p, h, noise_var: float, rng):
    """Received samples sqrt(p) h s + CN(0, noise_var) noise for a batch of frames.

    s is (frames, ..., n), and rng a sequence of Generators, one per frame;
    p and h broadcast against s. Frame f's noise is drawn from rng[f] alone,
    row by row along the last axis, real row then imaginary row.
    """
    s = np.asarray(s, dtype=np.complex128)
    p = np.asarray(p, dtype=np.float64)
    if np.any(p < 0):
        raise ValueError("power must be nonnegative")
    z = standard_normal_rows(rng, s.shape[:-1] + (2,) + s.shape[-1:])
    z *= np.sqrt(noise_var / 2.0)
    # the scaled normals go straight into the two parts, with no complex noise array
    out = np.sqrt(p) * np.asarray(h, dtype=np.complex128) * s
    out.real += z[..., 0, :]
    out.imag += z[..., 1, :]
    return out


def equalize(r, p, h):
    """Zero-forcing equalization r / (sqrt(p) h); perfect channel knowledge."""
    p = np.asarray(p, dtype=np.float64)
    h = np.asarray(h, dtype=np.complex128)
    if np.any(p <= 0):
        raise ValueError("cannot equalize a subcarrier with zero power")
    if np.any(h == 0):
        raise ValueError("cannot equalize a zero channel gain")
    return np.asarray(r, dtype=np.complex128) / (np.sqrt(p) * h)
