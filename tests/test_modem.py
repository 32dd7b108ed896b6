from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sst

from quantlink.channel import equalize, transmit_symbols
from quantlink.library import load_library
from quantlink.modem import (
    QAM_BITS,
    ber_approx,
    ber_by_position,
    constellation,
    demodulate,
    modulate,
    snr_threshold,
)
from quantlink.rng import stream_rng

FIXTURE_LIBRARY = Path(__file__).resolve().parents[1] / "benchmarks" / "default_library.json"


def test_unit_energy_exact():
    for m in QAM_BITS:
        pts = constellation(m).points
        assert np.mean(np.abs(pts) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_qpsk_points():
    pts = sorted(
        (round(p.real, 12), round(p.imag, 12)) for p in constellation(2).points
    )
    s = 1 / np.sqrt(2)
    expect = sorted(
        (round(a, 12), round(b, 12)) for a in (-s, s) for b in (-s, s)
    )
    assert pts == expect


def test_16qam_corner_energy():
    pts = constellation(4).points
    assert np.max(np.abs(pts) ** 2) == pytest.approx(9 / 5, abs=1e-12)


def test_all_zero_word_quadrant_fixed():
    for m in QAM_BITS:
        p = modulate(0, m)
        assert p.real < 0 and p.imag < 0


def test_round_trip_all_words():
    for m in QAM_BITS:
        words = np.arange(1 << m)
        assert np.array_equal(demodulate(modulate(words, m), m), words)


def test_demodulate_tie_goes_to_lower_level():
    table = constellation(4)
    boundary = table.axis_bounds[0]  # midpoint between the two lowest levels
    word = demodulate(complex(boundary, table.axis_levels[0]), 4)
    # decided I coordinate must be the lower of the two adjacent levels
    assert modulate(word, 4).real == pytest.approx(table.axis_levels[0], abs=1e-12)


def _searchsorted_demodulate(symbol, m):
    """The hard decision as a per-axis searchsorted with ties to the lower level."""
    table = constellation(m)
    s = np.asarray(symbol, dtype=np.complex128)
    ki = np.searchsorted(table.axis_bounds, s.real, side="left")
    kq = np.searchsorted(table.axis_bounds, s.imag, side="left")
    out = ((ki ^ (ki >> 1)) << (m // 2)) | (kq ^ (kq >> 1))
    return out if np.ndim(symbol) else int(out)


@pytest.mark.parametrize("m", QAM_BITS)
def test_demodulate_equals_searchsorted_on_every_edge(m):
    table = constellation(m)
    bounds = table.axis_bounds
    axis = np.concatenate(
        (
            bounds,
            np.nextafter(bounds, -np.inf),
            np.nextafter(bounds, np.inf),
            table.axis_levels,
            [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e300, -1e300],
        )
    )
    # every pair of axis values, NaN included in either part or both
    grid = np.empty((axis.size, axis.size), dtype=np.complex128)
    grid.real, grid.imag = np.meshgrid(axis, axis, indexing="ij")
    want = _searchsorted_demodulate(grid, m)
    got = demodulate(grid, m)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    # a strided view and a batch of random draws
    assert np.array_equal(demodulate(grid[1::3, ::2], m), want[1::3, ::2])
    draws = stream_rng("demod", m).standard_normal((3, 4, 50, 2)) @ np.array([1.0, 1j])
    assert np.array_equal(demodulate(draws, m), _searchsorted_demodulate(draws, m))

    # a scalar or 0-d input gives a 0-d word, a one-element array an array
    for i in range(0, axis.size, 7):
        for j in range(0, axis.size, 5):
            point = grid[i, j]
            for x in (point, complex(point), np.array(point)):
                got = demodulate(x, m)
                assert np.ndim(got) == 0 and got == want[i, j]
            assert np.array_equal(demodulate(grid[i, j : j + 1], m), want[i, j : j + 1])


def test_gray_adjacency():
    for m in QAM_BITS:
        table = constellation(m)
        n_axis = 1 << (m // 2)
        words = np.arange(1 << m)
        grid = {}
        for w in words:
            p = table.points[w]
            i = int(np.argmin(np.abs(table.axis_levels - p.real)))
            q = int(np.argmin(np.abs(table.axis_levels - p.imag)))
            grid[(i, q)] = int(w)
        for (i, q), w in grid.items():
            for di, dq in ((1, 0), (0, 1)):
                if (i + di, q + dq) in grid:
                    other = grid[(i + di, q + dq)]
                    assert bin(w ^ other).count("1") == 1


def test_modulate_rejects_inactive_order():
    with pytest.raises(ValueError):
        modulate(0, 0)
    with pytest.raises(ValueError):
        modulate(4, 2)


def test_modulate_checks_every_word():
    # the trial chain passes uint8 word batches; 255 is a 256-QAM word
    words = np.array([[0, 255], [17, 200]], dtype=np.uint8)
    assert np.array_equal(modulate(words, 8), constellation(8).points[words])
    assert modulate(np.array([], dtype=np.int64), 2).shape == (0,)
    for bad in ([0, -1], [[3], [4]]):
        with pytest.raises(ValueError, match="out of range"):
            modulate(np.array(bad), 2)


def test_ber_qpsk_reduces_to_q_function():
    from quantlink.gaussian import q_function

    for g in (0.0, 0.5, 2.0, 10.0, 30.0):
        assert ber_approx(2, g) == pytest.approx(q_function(np.sqrt(g)), abs=1e-15)
    assert ber_approx(2, 0.0) == 0.5


def test_ber_16qam_at_gamma_10():
    # independent oracle: scipy.stats.norm.sf
    oracle = float(
        (1 - 1 / 4) * sst.norm.sf(np.sqrt(2.0)) + (1 - 2 / 4) * sst.norm.sf(3 * np.sqrt(2.0))
    )
    assert ber_approx(4, 10.0) == pytest.approx(oracle, abs=1e-12)
    assert ber_approx(4, 10.0) == pytest.approx(0.05899, abs=1e-5)


def test_ber_strictly_decreasing():
    g = np.linspace(0.0, 400.0, 4001)
    for m in QAM_BITS:
        vals = ber_approx(m, g)
        assert np.all(np.diff(vals) < 0)


def test_snr_threshold_qpsk_closed_form():
    assert snr_threshold(2, 0.05) == pytest.approx(2.705543454095415, abs=1e-5)


def test_snr_threshold_limit_near_half():
    assert snr_threshold(2, 0.499) < 2e-5


def test_snr_threshold_fixed_point():
    from quantlink.library import default_epsilon_grid

    for m in QAM_BITS:
        for eps in default_epsilon_grid():
            g = snr_threshold(m, float(eps))
            assert abs(ber_approx(m, g) - eps) <= 1e-10


def test_snr_threshold_monotone_and_convex_in_order():
    from quantlink.library import default_epsilon_grid

    for eps in default_epsilon_grid():
        g = [snr_threshold(m, float(eps)) for m in QAM_BITS]
        assert np.all(np.diff(g) > 0)
        inc = np.diff(np.concatenate(([0.0], g)))
        assert np.all(np.diff(inc) > 0)


def test_snr_threshold_domain_errors():
    with pytest.raises(ValueError):
        snr_threshold(2, 0.0)
    with pytest.raises(ValueError):
        snr_threshold(2, 0.5)
    with pytest.raises(ValueError):
        snr_threshold(2, 0.4999999)  # above the value at the bracket floor


@pytest.mark.parametrize("target", [1e-10, 5e-11])
def test_snr_threshold_rejects_target_within_tolerance(target):
    # any gamma far enough up the bracket meets such a target to within tol:
    # every order used to return the first midpoint, 500000.0000005
    for m in QAM_BITS:
        with pytest.raises(ValueError, match="must exceed the tolerance"):
            snr_threshold(m, target)


def test_awgn_monte_carlo_against_model():
    from quantlink.simulator import measure_link_ber

    rng = stream_rng("modem-mc", 0)
    for m, gamma in ((2, 10.0), (4, 40.0), (6, 150.0), (8, 600.0)):
        expect = ber_approx(m, gamma)
        got = measure_link_ber(m, gamma, 1_000_000, rng)
        assert got == pytest.approx(expect, rel=0.1)


@pytest.mark.parametrize("m", QAM_BITS)
def test_ber_by_position_against_monte_carlo(m):
    # each position's flips through the link chain, at a BER of about 2 %
    gamma = snr_threshold(m, 0.02)
    n = 200_000
    rng = stream_rng("position-ber", m)
    words = rng.integers(0, 1 << m, size=n)
    (rx,) = transmit_symbols(modulate(words, m)[None], gamma, 1.0, 1.0, [rng])
    flips = words ^ demodulate(equalize(rx, gamma, 1.0), m)
    counts = np.array([np.count_nonzero((flips >> (m - 1 - j)) & 1) for j in range(m)])
    want = ber_by_position(m, gamma)
    se = np.sqrt(want * (1.0 - want) / n)
    assert np.all(np.abs(counts / n - want) <= 4.0 * se)


def test_ber_by_position_mean_is_the_model_at_every_fixture_threshold():
    lib = load_library(FIXTURE_LIBRARY)
    for row, m in enumerate(QAM_BITS):
        gamma = lib.gamma_thresholds[row]
        exact = ber_by_position(m, gamma)
        assert exact.shape == (gamma.size, m)
        assert np.array_equal(exact[:, : m // 2], exact[:, m // 2 :])  # the two axes
        assert np.all(np.abs(exact.mean(axis=1) / ber_approx(m, gamma) - 1.0) <= 1e-7)


def test_ber_by_position_multiples_of_the_target():
    # at each order's threshold for eps index 3, one axis's positions, MSB first
    lib = load_library(FIXTURE_LIBRARY)
    want = {2: [1.0], 4: [0.667, 1.333], 6: [0.429, 0.857, 1.714], 8: [0.267, 0.533, 1.067, 2.133]}
    for row, m in enumerate(QAM_BITS):
        multiples = ber_by_position(m, lib.gamma_thresholds[row, 3]) / lib.epsilons[3]
        assert multiples[: m // 2] == pytest.approx(want[m], abs=5e-4)


def test_ber_by_position_shapes_and_domain():
    assert ber_by_position(2, 0.0).tolist() == [0.5, 0.5]  # a coin flip per axis
    assert ber_by_position(8, np.ones((2, 3))).shape == (2, 3, 8)
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        ber_by_position(4, -1.0)
    with pytest.raises(ValueError, match="modulation order"):
        ber_by_position(3, 1.0)
