import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantlink import simulator
from quantlink.allocator import LatentStats, optimize_plan, validate_plan
from quantlink.channel import exponential_pdp, realize_channel
from quantlink.gaussian import q_function, std_normal_pdf
from quantlink.library import sigma_max
from quantlink.quantizer import dequantize, quantize
from quantlink.rng import stream_rng
from quantlink.simulator import (
    ExperimentConfig,
    SyntheticSourceConfig,
    draw_stats,
    report_rows_to_csv,
    run_experiment,
    run_trial,
    sample_latents,
)


def test_source_fields_are_n_latents_and_seed():
    # every other key is rejected; simulate's handling of them is in test_cli
    assert [f.name for f in dataclasses.fields(SyntheticSourceConfig)] == ["n_latents", "seed"]


def test_unknown_laws_rejected():
    # one law remains, so the law selectors are no longer fields
    for key, law in (("variance_law", "log-uniform"), ("mean_law", "zero")):
        with pytest.raises(TypeError, match=key):
            SyntheticSourceConfig(n_latents=4, **{key: law})


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 300),
    smax=st.floats(0.2, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_draw_stats_clamps_to_sigma_max(n, smax, seed):
    stats = draw_stats(SyntheticSourceConfig(n_latents=n), smax, stream_rng("s", seed))
    assert stats.n == n and np.all(stats.means == 0.0)
    assert np.all(stats.variances > 0) and np.all(stats.variances <= smax**2)


def test_sample_latents_moments():
    # clipping at +-3 sigma leaves variance sigma^2 (1 - 6 phi(3) + 16 Q(3))
    n = 2_000_000
    mus, sigma2s = np.array([1.0, -2.0]), np.array([0.5, 4.0])
    stats = LatentStats(np.repeat(mus, n), np.repeat(sigma2s, n))
    devs = sample_latents(stats, stream_rng("mom", 0)).reshape(2, n) - mus[:, None]
    clipped = sigma2s * (1.0 - 6.0 * std_normal_pdf(3.0) + 16.0 * q_function(3.0))
    for dev, var in zip(devs, clipped):
        assert abs(dev.var(ddof=1) - var) < 3 * var * np.sqrt(2.0 / n)
        assert abs(dev.mean()) < 3 * np.sqrt(var / n)


def test_sample_latents_clipping():
    stats = LatentStats(np.array([2.0, 5.0]), np.array([1.0, 0.0]))
    rng = stream_rng("clip", 0)
    ys = np.stack([sample_latents(stats, rng) for _ in range(20_000)])
    dev = np.abs(ys[:, 0] - 2.0)
    assert dev.max() <= 3.0 + 1e-12
    assert dev.max() == pytest.approx(3.0, abs=1e-6)  # the clip boundary is hit
    assert np.all(ys[:, 1] == 5.0)  # a degenerate element reproduces its mean


def _setup_plan(lib, n=40, n_sc=24, snr_db=12.0, seed=9):
    rng = stream_rng("setup", seed)
    smax2 = sigma_max(lib) ** 2
    variances = np.exp(rng.uniform(np.log(1e-3), np.log(smax2), size=n))
    stats = LatentStats(rng.uniform(-2, 2, size=n), variances)
    ch = realize_channel(exponential_pdp(300.0), n_sc, 30e3, seed=seed)
    p_tot = n_sc * 10 ** (snr_db / 10.0)
    plan = optimize_plan(lib, stats, ch, p_tot)
    validate_plan(plan, lib, stats, p_tot)
    return stats, ch, plan


def test_trial_noiseless_equals_pure_quantization(small_lib):
    stats, ch, plan = _setup_plan(small_lib)
    ch.noise_var = 1e-30
    y = sample_latents(stats, stream_rng("y", 1))
    res = run_trial(stats, y, plan, small_lib, ch, stream_rng("n", 1))
    assert res.realized_errors_per_subcarrier.sum() == 0
    expect = np.empty(stats.n)
    for i in range(stats.n):
        if plan.bits[i] == 0:
            expect[i] = (y[i] - stats.means[i]) ** 2
        else:
            q = small_lib.quantizer(int(plan.bits[i]), plan.eps_index)
            sd = float(np.sqrt(stats.variances[i]))
            cw = quantize(float(y[i]), float(stats.means[i]), sd, q)
            expect[i] = (y[i] - dequantize(cw, float(stats.means[i]), sd, q)) ** 2
    assert np.allclose(res.per_element_sq_error, expect, atol=1e-12)


def test_trial_noiseless_multi_symbol_round_trip(small_lib):
    # payload spanning several OFDM symbols must reassemble exactly
    rng = stream_rng("multi", 0)
    smax2 = sigma_max(small_lib) ** 2
    stats = LatentStats(
        np.zeros(96), np.exp(rng.uniform(np.log(0.5), np.log(smax2), size=96))
    )
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=44)
    p_tot = 8 * 10 ** 0.6
    plan = optimize_plan(small_lib, stats, ch, p_tot)
    assert plan.t_sym >= 3  # the point of this instance
    ch.noise_var = 1e-30
    y = sample_latents(stats, stream_rng("ym", 1))
    res = run_trial(stats, y, plan, small_lib, ch, stream_rng("nm", 1))
    assert res.realized_errors_per_subcarrier.sum() == 0
    assert res.t_sym == plan.t_sym
    for i in range(stats.n):
        if plan.bits[i] == 0:
            continue
        q = small_lib.quantizer(int(plan.bits[i]), plan.eps_index)
        sd = float(np.sqrt(stats.variances[i]))
        cw = quantize(float(y[i]), 0.0, sd, q)
        assert res.per_element_sq_error[i] == pytest.approx(
            (y[i] - dequantize(cw, 0.0, sd, q)) ** 2, abs=1e-12
        )


def test_trial_zero_bit_elements_reconstruct_mean(small_lib):
    stats = LatentStats(np.array([3.0, 0.0]), np.array([0.2, 2.0]))
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=3)
    plan = optimize_plan(small_lib, stats, ch, 8 * 10.0)
    y = sample_latents(stats, stream_rng("y", 2))
    res = run_trial(stats, y, plan, small_lib, ch, stream_rng("n", 2))
    assert res.per_element_sq_error[0] == pytest.approx((y[0] - 3.0) ** 2, abs=1e-12)


def test_trial_rejects_mismatched_channel(small_lib):
    stats, ch, plan = _setup_plan(small_lib)
    other = realize_channel(exponential_pdp(300.0), ch.n_sc, 30e3, seed=4321)
    y = sample_latents(stats, stream_rng("y", 3))
    with pytest.raises(ValueError, match="channel"):
        run_trial(stats, y, plan, small_lib, other, stream_rng("n", 3))


def test_trial_rejects_mismatched_library(small_lib):
    stats, ch, plan = _setup_plan(small_lib)
    cells = dict(small_lib.cells)
    cells[(1, 0)], cells[(1, 1)] = cells[(1, 1)], cells[(1, 0)]
    other = dataclasses.replace(small_lib, cells=cells)
    y = sample_latents(stats, stream_rng("y", 3))
    with pytest.raises(ValueError, match="library"):
        run_trial(stats, y, plan, other, ch, stream_rng("n", 3))


def test_frame_layout_is_built_once_per_plan(small_lib, monkeypatch):
    calls = []
    real = simulator._build_frame_layout

    def counting(plan):
        calls.append(plan)
        return real(plan)

    monkeypatch.setattr(simulator, "_build_frame_layout", counting)
    stats, ch, plan = _setup_plan(small_lib, n=64, n_sc=16, snr_db=6.0, seed=33)
    errors = 0.0
    for f in range(3):
        y = sample_latents(stats, stream_rng("yl", f))
        res = run_trial(stats, y, plan, small_lib, ch, stream_rng("nl", f))
        errors += res.realized_errors_per_subcarrier.sum()
    assert len(calls) == 1
    assert errors > 0

    # the layout holds nothing of the realization: the noise is read per frame
    ch.noise_var = 1e-30
    res = run_trial(stats, y, plan, small_lib, ch, stream_rng("nl", 3))
    assert res.realized_errors_per_subcarrier.sum() == 0
    assert len(calls) == 1

    # a derived plan starts without a layout
    derived = dataclasses.replace(plan, seed=plan.seed + 1)
    assert derived._frame_layout is None and plan._frame_layout is not None
    run_trial(stats, y, derived, small_lib, ch, stream_rng("nl", 4))
    assert len(calls) == 2 and calls[1] is derived


def test_trial_mean_error_matches_analytic(small_lib):
    stats, ch, plan = _setup_plan(small_lib, n=24, n_sc=16, snr_db=14.0, seed=21)
    col = np.concatenate(([1.0], small_lib.distortion_column(plan.eps_index)))
    acc = np.zeros(stats.n)
    acc2 = np.zeros(stats.n)
    n_frames = 400
    for f in range(n_frames):
        # the analytic distortion assumes an unclipped Gaussian
        y = stats.means + np.sqrt(stats.variances) * stream_rng("ya", f).standard_normal(stats.n)
        res = run_trial(stats, y, plan, small_lib, ch, stream_rng("na", f))
        acc += res.per_element_sq_error
        acc2 += res.per_element_sq_error**2
    mean = acc / n_frames
    se = np.sqrt(np.maximum(acc2 / n_frames - mean**2, 0) / n_frames)
    pred = stats.variances * col[plan.bits]
    sent = plan.bits > 0
    # BSC abstraction is approximate; allow 4 SE plus a 5% model margin
    assert np.all(mean[sent] <= pred[sent] * 1.05 + 4 * se[sent])
    assert np.all(mean[sent] >= pred[sent] * 0.95 - 4 * se[sent])


def test_trial_realized_ber_tracks_target(small_lib):
    # fixed channel, many frames, pooled per subcarrier
    stats, ch, plan = _setup_plan(small_lib, n=64, n_sc=16, snr_db=6.0, seed=33)
    errors = np.zeros(ch.n_sc)
    bits = np.zeros(ch.n_sc)
    for f in range(1200):
        y = sample_latents(stats, stream_rng("yb", f))
        res = run_trial(stats, y, plan, small_lib, ch, stream_rng("nb", f))
        errors += res.realized_errors_per_subcarrier
        bits += res.realized_bits_per_subcarrier
    active = bits > 0
    ber = errors[active] / bits[active]
    eps = plan.epsilon_star
    se = np.sqrt(eps * (1 - eps) / bits[active])
    assert np.all(np.abs(ber - eps) <= np.maximum(0.10 * eps, 4 * se))
    pooled = errors.sum() / bits.sum()
    assert pooled == pytest.approx(eps, rel=0.1)


def test_experiment_composition_and_determinism(small_lib):
    src = SyntheticSourceConfig(n_latents=24, seed=4)
    cfg = ExperimentConfig(
        source=src, profile_ref="exp-pdp(300)", snr_db=(8.0,), trials=1, n_sc=16, seed=17
    )
    reports = run_experiment(cfg, small_lib)
    assert len(reports) == 1
    # manual composition with the same derived streams
    stats = draw_stats(src, sigma_max(small_lib), stream_rng("source", 17, 4))
    ch = realize_channel(exponential_pdp(300.0), 16, 30e3, seed=0, rng=stream_rng("channel", 17, 0))
    plan = optimize_plan(small_lib, stats, ch, 16 * 10 ** 0.8, seed=17)
    y = sample_latents(stats, stream_rng("sample", 17, 0, 0, 0))
    res = run_trial(stats, y, plan, small_lib, ch, stream_rng("noise", 17, 0, 0, 0), seed=17)
    assert np.array_equal(reports[0].mean_distortion_per_element, res.per_element_sq_error)
    assert reports[0].mean_t_sym == plan.t_sym
    # byte determinism of the rendered report
    again = run_experiment(cfg, small_lib)
    assert report_rows_to_csv(again) == report_rows_to_csv(reports)


def test_experiment_row_count_scales_with_grid(small_lib):
    src = SyntheticSourceConfig(n_latents=12, seed=4)
    one = ExperimentConfig(source=src, snr_db=(8.0,), trials=2, n_sc=8, seed=1)
    two = ExperimentConfig(source=src, snr_db=(8.0, 14.0), trials=2, n_sc=8, seed=1)
    assert len(run_experiment(two, small_lib)) == 2 * len(run_experiment(one, small_lib))


def test_experiment_csv_shape(small_lib):
    src = SyntheticSourceConfig(n_latents=12, seed=4)
    cfg = ExperimentConfig(source=src, snr_db=(8.0, 14.0), trials=2, n_sc=8, seed=1)
    text = report_rows_to_csv(run_experiment(cfg, small_lib))
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("snr_db,trials,frames,")


_TRIAL_ARRAYS = (
    "per_element_sq_error",
    "per_element_target",
    "realized_errors_per_subcarrier",
    "realized_bits_per_subcarrier",
)

# sha256 over two consecutive frames of each TrialResult array (dtype string,
# then raw bytes), taken from a symbol-by-symbol trial chain, which the batched
# chain reproduces bit for bit. Keys: (n_latents, n_sc, snr_db, seed, var_hi); values: the
# plan's (t_sym, dummy_bits, modulation orders) and one digest per array.
_PINNED_TRIALS = {
    # several OFDM symbols and three modulation orders, no pad bits
    (200, 16, 10.0, 6, None): (
        (3, 0, (0, 2, 4, 6)),
        {
            "per_element_sq_error": "a5ff67990b794e25fc577ab17d823355ecd82fd67d8f82b4b4aa1771ae2d4f61",
            "per_element_target": "688c7676adc4bef668ee98ea912cd9ac2c0ff0696a370a80193b149b1ef27264",
            "realized_errors_per_subcarrier": "8091497862f2af258e01d0d735a41e9f699821e45eda12c54b7ca34ea106bc09",
            "realized_bits_per_subcarrier": "5a67badecc398a7b1440d8e30fbc3599aa6dffbfb2d809041f46b1e4748dceab",
        },
    ),
    # two symbols whose grid is topped up with pad bits
    (200, 16, 12.0, 0, None): (
        (2, 38, (6, 8)),
        {
            "per_element_sq_error": "de37d1ccef4d56c50545ffa78609547914c0eb8810208f8298c2161c69db805f",
            "per_element_target": "451a2863dce9f669b91027ca12e2b2e1f74d74e3cf33502e280eb62622fb5e9c",
            "realized_errors_per_subcarrier": "e7c42a130d7fc03c08d2e77019798484511a44ad026097f240835d159197a836",
            "realized_bits_per_subcarrier": "0ca8f29d111adaf8030ee6151ca8ed2a1a68cfdcbfcd85164468f9cbccbcbca7",
        },
    ),
    # a one-symbol plan
    (24, 16, 14.0, 21, None): (
        (1, 30, (0, 2, 4, 6)),
        {
            "per_element_sq_error": "8e2fe2c124468b5cd87a593dcf92cb8a7c6c861d49bdd49e8c19b88af4269875",
            "per_element_target": "219b7e34210eb3ba5aa67232777b57399b27829aafd3341a9c49dddc2e4c0b7b",
            "realized_errors_per_subcarrier": "2f608f45df9fc19f669b866f4b4bb2bd48f92ef94a4fb4d9771a2792ecfed8f1",
            "realized_bits_per_subcarrier": "0219962ad6991683acd99167bc64a956e3da82191ad65028731cf0a8092e06b5",
        },
    ),
    # every element negligible: the empty plan
    (8, 16, 10.0, 3, 0.3): (
        (0, 0, (0,)),
        {
            "per_element_sq_error": "77150726ef9849f755fd75a93e44e55c6ad4198c7c33e86a62afb78e26c81ca3",
            "per_element_target": "1c1211562f26e2818d078c29299b7e40b0f106c988573ec9f47294e95e94dd8d",
            "realized_errors_per_subcarrier": "ddf083fb3c895d1bc63dbc4a013ebde1e781f961acfcf930a67d1938da2d92e7",
            "realized_bits_per_subcarrier": "ddf083fb3c895d1bc63dbc4a013ebde1e781f961acfcf930a67d1938da2d92e7",
        },
    ),
}


def _pinned_trial_digests(lib, n, n_sc, snr_db, seed, var_hi):
    rng = stream_rng("pin", seed)
    hi = sigma_max(lib) ** 2 if var_hi is None else var_hi
    stats = LatentStats(
        rng.uniform(-1.0, 1.0, size=n), np.exp(rng.uniform(np.log(1e-3), np.log(hi), size=n))
    )
    ch = realize_channel(exponential_pdp(300.0), n_sc, 30e3, seed=seed)
    plan = optimize_plan(lib, stats, ch, n_sc * 10 ** (snr_db / 10.0), seed=seed)
    shape = (plan.t_sym, plan.dummy_bits, tuple(sorted(set(plan.modulations.tolist()))))
    hashes = {name: hashlib.sha256() for name in _TRIAL_ARRAYS}
    for frame in range(2):
        y = sample_latents(stats, stream_rng("pin-y", seed, frame))
        res = run_trial(stats, y, plan, lib, ch, stream_rng("pin-n", seed, frame), seed=seed)
        assert (res.bits_sent, res.t_sym, res.seed) == (plan.b_lat, plan.t_sym, seed)
        assert type(res.bits_sent) is int and type(res.t_sym) is int
        for name in _TRIAL_ARRAYS:
            arr = getattr(res, name)
            hashes[name].update(arr.dtype.str.encode() + arr.tobytes())
    return shape, {name: h.hexdigest() for name, h in hashes.items()}


@pytest.mark.parametrize("key", list(_PINNED_TRIALS))
def test_trial_outputs_are_pinned(small_lib, key):
    want_shape, want = _PINNED_TRIALS[key]
    shape, got = _pinned_trial_digests(small_lib, *key)
    assert shape == want_shape
    assert got == want


def test_trial_checks_sent_std_once_per_stats(small_lib):
    # with delta = 0 a zero-variance element is sent, and its quantizer has no scale
    stats = LatentStats(np.zeros(4), np.array([0.0, 1.0, 2.0, 3.0]))
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=5)
    plan = optimize_plan(small_lib, stats, ch, 8 * 100.0, delta=0.0)
    assert plan.bits[0] > 0
    y = sample_latents(stats, stream_rng("y", 5))
    with pytest.raises(ValueError, match="std must be positive"):
        run_trial(stats, y, plan, small_lib, ch, stream_rng("n", 5))

    # a plan without a stats digest is re-checked whenever the stats change
    good = LatentStats(np.zeros(4), np.array([0.5, 1.0, 2.0, 3.0]))
    loose = dataclasses.replace(plan, digests={})
    run_trial(good, y, loose, small_lib, ch, stream_rng("n", 6))
    assert loose._frame_layout.checked_stats == good.digest()
    with pytest.raises(ValueError, match="std must be positive"):
        run_trial(stats, y, loose, small_lib, ch, stream_rng("n", 7))
