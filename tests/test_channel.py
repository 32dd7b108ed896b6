import dataclasses
import hashlib
import importlib
import json
import math
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from quantlink import allocator, channel
from quantlink.allocator import LatentStats, optimize_plan
from quantlink.channel import (
    ChannelRealization,
    TapProfile,
    equalize,
    exponential_pdp,
    load_tap_profile,
    parse_profile_ref,
    power_budget,
    realize_channel,
    tdl_c_profile,
    transmit_symbols,
)
from quantlink.modem import ber_approx, constellation, demodulate, snr_threshold
from quantlink.rng import stream_rng


def test_power_budget_is_a_positive_finite_float():
    assert power_budget(512, 10.0) == 512 * 10.0 ** (10.0 / 10.0)
    assert power_budget(8, -60) == 8 * 10.0 ** (-60 / 10.0)
    # 4000 dB overflows (an OverflowError), -4000 dB rounds the budget to 0
    for snr_db in (4000, -4000, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="power budget"):
            power_budget(512, snr_db)


def test_profile_normalizes_powers():
    p = TapProfile(np.array([0.0, 1e-7]), np.array([2.0, 6.0]), "x")
    assert p.powers.sum() == pytest.approx(1.0, abs=1e-15)
    assert p.powers[1] == pytest.approx(0.75)


def test_profile_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        TapProfile(np.array([]), np.array([]), "x")
    with pytest.raises(ValueError):
        TapProfile(np.array([0.0]), np.array([-1.0]), "x")


def test_profile_rejects_non_finite_delays_and_powers():
    # a NaN delay used to surface only in realize_channel, as non-finite gains
    for delays, powers in (
        ([0.0, np.nan], [1.0, 1.0]),
        ([0.0, np.inf], [1.0, 1.0]),
        ([0.0, 1e-7], [1.0, np.nan]),
        ([0.0, 1e-7], [1.0, np.inf]),
    ):
        with pytest.raises(ValueError, match="delays and powers must be finite"):
            TapProfile(delays, powers, "x")


def test_profile_rejects_powers_whose_total_overflows():
    # the total used to overflow to inf and normalize every power to 0
    with pytest.raises(ValueError, match="total tap power overflows"):
        TapProfile([0.0, 1e-7], [1e308, 1e308], "x")
    p = TapProfile([0.0, 1e-7], [1e307, 3e307], "x")
    assert p.powers.tolist() == [0.25, 0.75]


def test_profile_is_frozen_and_keeps_read_only_copies():
    delays, powers = np.array([0.0, 1e-7]), np.array([2.0, 6.0])
    p = TapProfile(delays, powers, "x")
    for f in dataclasses.fields(p):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, f.name, getattr(p, f.name))
    for arr in (p.delays_s, p.powers):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    delays[1] = 1.0  # the caller's arrays stay its own
    assert powers.flags.writeable and p.delays_s[1] == 1e-7


def test_exponential_pdp_hits_requested_rms():
    for rms in (30.0, 100.0, 300.0):
        prof = exponential_pdp(rms)
        assert prof.rms_delay_spread_s() == pytest.approx(rms * 1e-9, rel=1e-12)


def test_exponential_pdp_refuses_an_rms_it_cannot_scale():
    # these used to end in an OverflowError, a ZeroDivisionError or numpy
    # warnings, or, at 1e-150, in a spread 3.6e-6 off the one asked for
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rms in (1e-320, 1e-160, 1e-150, 1e200, 1e300, 1e308, math.inf):
            with pytest.raises(ValueError, match="rms_ns .* is out of range"):
                exponential_pdp(rms)
        for rms in (3e-145, 2e162):  # the ends of the range still hit the spread
            assert exponential_pdp(rms).rms_delay_spread_s() == pytest.approx(rms * 1e-9, rel=1e-12)
    prof = exponential_pdp(300.0)  # the same bytes as before the range check
    digest = hashlib.sha256(prof.delays_s.tobytes() + prof.powers.tobytes()).hexdigest()
    assert digest == "2999c359b9748273efe0ebb4c1a1927251397d9ce401ceadfe855fb2db48115d"


def test_exponential_pdp_refuses_an_int_beyond_the_float_range():
    # its delays used to overflow before the range check
    for rms in (10**400, 2**1024):
        with pytest.raises(ValueError, match="rms_ns .* is out of range"):
            exponential_pdp(rms)
    with pytest.raises(ValueError, match="rms_ns must be positive"):
        exponential_pdp(-(10**400))
    prof = exponential_pdp(300.0)
    digest = hashlib.sha256(prof.delays_s.tobytes() + prof.powers.tobytes()).hexdigest()
    assert digest == "2999c359b9748273efe0ebb4c1a1927251397d9ce401ceadfe855fb2db48115d"


def test_tdl_c_profile_loads_and_scales():
    prof = tdl_c_profile()
    assert prof.powers.size == 24
    assert prof.powers.sum() == pytest.approx(1.0, abs=1e-12)
    # table is specified as normalized delays times 300 ns
    assert prof.rms_delay_spread_s() == pytest.approx(300e-9, rel=0.05)


def test_tdl_c_profile_reads_the_table_of_its_own_package(tmp_path, monkeypatch):
    # a copy of the package imported under another name (as tools/ab.py
    # imports each tree) reads its own table, not the one of `quantlink`
    copy = tmp_path / "quantlink_copy"
    shutil.copytree(Path(channel.__file__).parent, copy, ignore=shutil.ignore_patterns("__pycache__"))
    table = copy / "data" / "tdl_c_300ns.json"
    doc = json.loads(table.read_text(encoding="utf-8"))
    doc["taps"][1]["delay_ns"] = 123.25
    table.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        prof = importlib.import_module("quantlink_copy.channel").parse_profile_ref("tdl-c")
    finally:
        for key in [k for k in sys.modules if k == "quantlink_copy" or k.startswith("quantlink_copy.")]:
            del sys.modules[key]
    assert prof.delays_s[1] == 123.25 * 1e-9
    assert np.array_equal(np.delete(prof.delays_s, 1), np.delete(tdl_c_profile().delays_s, 1))


def test_parse_profile_ref(tmp_path):
    assert parse_profile_ref("exp-pdp(250)").label == "exp-pdp(250)"
    assert parse_profile_ref("tdl-c").label == "tdl-c-300ns"
    path = tmp_path / "prof.json"
    path.write_text(
        '{"label": "two-tap", "taps": [{"delay_ns": 0, "power_db": 0}, {"delay_ns": 100, "power_db": -3}]}'
    )
    prof = parse_profile_ref(str(path))
    assert prof.label == "two-tap"
    assert prof.delays_s[1] == pytest.approx(100e-9)


def flat_profile():
    """Single-tap (flat fading) profile."""
    return TapProfile(np.array([0.0]), np.array([1.0]), "flat")


def test_flat_profile_gives_constant_gain():
    ch = realize_channel(flat_profile(), n_sc=64, spacing_hz=30e3, seed=5)
    assert np.max(np.abs(np.abs(ch.gains) - np.abs(ch.gains[0]))) < 1e-14


def test_mean_gain_power_is_one():
    prof = exponential_pdp(300.0)
    acc = 0.0
    n_real = 10_000
    rng = stream_rng("gain-power")
    for _ in range(n_real):
        ch = realize_channel(prof, n_sc=8, spacing_hz=30e3, rng=rng)
        acc += np.mean(np.abs(ch.gains) ** 2)
    mean = acc / n_real
    # |h|^2 is Exp(1): std of the estimate ~ 1/sqrt(n_real * effective subcarriers)
    assert abs(mean - 1.0) < 3.0 / np.sqrt(n_real)


class _FixedDraws:
    """Stub generator: hands out queued standard_normal vectors."""

    def __init__(self, draws):
        self.draws = list(draws)

    def standard_normal(self, n):
        out = np.asarray(self.draws.pop(0), dtype=float)
        assert out.size == n
        return out


def test_two_path_closed_form_response_and_nulls():
    n_sc, spacing = 64, 30e3
    tau = 1.0 / (2.0 * spacing)  # half-wavelength at the first subcarrier
    prof = TapProfile(np.array([0.0, tau]), np.array([0.5, 0.5]), "two-path")
    stub = _FixedDraws([[np.sqrt(2.0), np.sqrt(2.0)], [0.0, 0.0]])
    ch = realize_channel(prof, n_sc=n_sc, spacing_hz=spacing, rng=stub)
    k = np.arange(n_sc)
    expect = 0.5 * np.sqrt(2.0) * (1.0 + np.exp(-2j * np.pi * k * spacing * tau))
    assert np.allclose(ch.gains, expect, atol=1e-12)
    assert np.max(np.abs(ch.gains[1::2])) < 1e-12  # nulls on every odd subcarrier


def test_transmit_noiseless_limit():
    rng = stream_rng("tx", 0)
    s = np.array([1 + 1j, -1 - 1j]) / np.sqrt(2)
    r = transmit_symbols(s[None], 4.0, 0.5j, 1e-30, [rng])
    assert np.allclose(r, 2.0 * 0.5j * s, atol=1e-12)


def test_transmit_zero_power_is_pure_noise():
    rng = stream_rng("tx0", 0)
    r = transmit_symbols(np.ones((1, 200_000)), 0.0, 1.0 + 0j, 2.0, [rng])
    assert abs(np.mean(np.abs(r) ** 2) - 2.0) < 0.02


def test_transmit_batches_symbols_row_by_row():
    # a frame of t symbols draws its noise exactly like t sequential one-symbol frames
    t, n = 5, 7
    s = np.exp(2j * np.pi * stream_rng("txb-s", 0).random((t, n)))
    p = np.linspace(0.5, 3.0, n)
    h = np.exp(1j * np.linspace(0.1, 2.0, n)) * np.linspace(0.2, 1.5, n)
    batched = transmit_symbols(s[None], p, h, 0.8, [stream_rng("txb", 1)])
    rng = stream_rng("txb", 1)
    rows = [transmit_symbols(s[None, k], p, h, 0.8, [rng]) for k in range(t)]
    assert batched.shape == (1, t, n)
    assert batched.tobytes() == np.concatenate(rows).tobytes()

    # a one-symbol frame: n real draws, then n imaginary draws
    rng = stream_rng("txb", 2)
    want = np.sqrt(p) * h * s[0] + np.sqrt(0.4) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    assert transmit_symbols(s[None, 0], p, h, 0.8, [stream_rng("txb", 2)]).tobytes() == want.tobytes()


def test_empirical_snr_matches_configured():
    rng = stream_rng("snr", 0)
    n = 1_000_000
    gamma, h, nv = 7.0, 0.8 - 0.6j, 1.3
    p = gamma * nv / abs(h) ** 2
    s = np.exp(2j * np.pi * rng.random(n))
    (r,) = transmit_symbols(s[None], p, h, nv, [rng])
    noise = r - np.sqrt(p) * h * s
    snr = p * abs(h) ** 2 / np.mean(np.abs(noise) ** 2)
    assert abs(snr - gamma) / gamma < 0.02


def test_equalize_round_trip_and_noise_scaling():
    rng = stream_rng("eq", 0)
    s = np.exp(2j * np.pi * rng.random(500_000))
    p, h, nv = 2.5, 0.3 + 1.1j, 0.7
    (r,) = transmit_symbols(s[None], p, h, nv, [rng])
    shat = equalize(r, p, h)
    resid = shat - s
    assert np.mean(np.abs(resid) ** 2) == pytest.approx(nv / (p * abs(h) ** 2), rel=0.02)
    clean = equalize(np.sqrt(p) * h * s, p, h)
    assert np.allclose(clean, s, atol=1e-12)


def test_equalize_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        equalize(np.array([1 + 0j]), 0.0, 1.0 + 0j)
    with pytest.raises(ValueError):
        equalize(np.array([1 + 0j]), 1.0, 0.0 + 0j)


def test_end_to_end_ber_ties_channel_to_modem():
    # at gamma_th(m, eps) the chain BER lands on eps
    rng = stream_rng("chain-ber", 1)
    for m, eps in ((2, 0.05), (4, 0.01)):
        gamma = snr_threshold(m, eps)
        h = 0.6 + 0.8j
        nv = 1.7
        p = gamma * nv / abs(h) ** 2
        n_sym = 2_000_000 // m
        words = rng.integers(0, 1 << m, size=n_sym)
        s = constellation(m).points[words]
        (r,) = transmit_symbols(s[None], p, h, nv, [rng])
        rx = demodulate(equalize(r, p, h), m)
        ber = np.sum([bin(int(x)).count("1") for x in np.bitwise_xor(words, rx)]) / (n_sym * m)
        assert ber == pytest.approx(ber_approx(m, gamma), rel=0.1)


def test_realization_validation():
    with pytest.raises(ValueError):
        ChannelRealization(np.array([1 + 0j]), 0.0, 0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            ChannelRealization(np.array([1 + 0j, bad]), 1.0, 0)
    # a float n_sc used to round up (2.5 gave 3 subcarriers) and True gave 1
    for bad in (0, -2, 2.5, True, "4"):
        with pytest.raises(ValueError, match="n_sc must be an int >= 1"):
            realize_channel(flat_profile(), n_sc=bad)
    # an infinite spacing used to pass and fail later as "gains must be finite"
    for bad in (0.0, -30e3, np.nan, np.inf, True, "30e3"):
        with pytest.raises(ValueError, match="spacing_hz must be a positive finite number"):
            realize_channel(flat_profile(), n_sc=4, spacing_hz=bad)


def test_a_realization_is_frozen_with_a_read_only_copy_of_its_gains(small_lib):
    gains = np.array([1.0 + 0j, 0.5j, 2.0])
    ch = ChannelRealization(gains, 1.0, 0)
    gains[0] = 0.0  # the caller's array stays writable and its own
    assert gains.flags.writeable and ch.gains[0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        ch.gains[0] = 0.0
    # a noise_var set to 0 after construction planned 256-QAM on every
    # subcarrier at a total power of 0, and -1 planned negative powers
    for name, value in (("noise_var", 0.0), ("noise_var", -1.0), ("gains", 0.5 * ch.gains), ("seed", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ch, name, value)
    with pytest.raises(ValueError, match="noise_var must be positive"):
        dataclasses.replace(ch, noise_var=0.0)
    optimize_plan(small_lib, LatentStats(np.zeros(4), np.ones(4)), ch, 30.0)
    assert ch in allocator._LOADINGS
    assert dataclasses.replace(ch) not in allocator._LOADINGS


def test_seeded_realizations_are_deterministic():
    prof = exponential_pdp(300.0)
    a = realize_channel(prof, n_sc=32, seed=11)
    b = realize_channel(prof, n_sc=32, seed=11)
    c = realize_channel(prof, n_sc=32, seed=12)
    assert np.array_equal(a.gains, b.gains)
    assert not np.array_equal(a.gains, c.gains)
