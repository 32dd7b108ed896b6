import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantlink import allocator, channel, cli, modem, quantizer, simulator
from quantlink.allocator import (
    LatentStats,
    build_bit_mapping,
    optimize_plan,
    plan_dummy_seed,
    target_distortion,
    validate_plan,
)
from quantlink.channel import exponential_pdp, realize_channel
from quantlink.gaussian import q_function, std_normal_pdf
from quantlink.library import build_library, save_library, sigma_max
from quantlink.quantizer import DesignConfig, dequantize, quantize
from quantlink.rng import stream_rng
from quantlink.simulator import (
    ExperimentConfig,
    ExperimentReport,
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


def test_sweep_configs_are_frozen():
    # a count set after construction would skip its check: 0 trials report a NaN mean
    cfg = ExperimentConfig(source=SyntheticSourceConfig(n_latents=4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.trials = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.source.n_latents = 0
    assert cfg.trials == 200 and cfg.source.n_latents == 4
    with pytest.raises(ValueError, match="trials must be an int >= 1"):
        dataclasses.replace(cfg, trials=0)


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
    devs = sample_latents(stats, [stream_rng("mom", 0)]).reshape(2, n) - mus[:, None]
    clipped = sigma2s * (1.0 - 6.0 * std_normal_pdf(3.0) + 16.0 * q_function(3.0))
    for dev, var in zip(devs, clipped):
        assert abs(dev.var(ddof=1) - var) < 3 * var * np.sqrt(2.0 / n)
        assert abs(dev.mean()) < 3 * np.sqrt(var / n)


def test_sample_latents_clipping():
    stats = LatentStats(np.array([2.0, 5.0]), np.array([1.0, 0.0]))
    rng = stream_rng("clip", 0)
    ys = sample_latents(stats, [rng] * 20_000)  # one stream, row after row
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
    ch = dataclasses.replace(ch, noise_var=1e-30)
    y = sample_latents(stats, [stream_rng("y", 1)])[0]
    res = run_trial(stats, y[None], plan, small_lib, ch, [stream_rng("n", 1)])
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
    assert np.allclose(res.per_element_sq_error[0], expect, atol=1e-12)


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
    ch = dataclasses.replace(ch, noise_var=1e-30)
    y = sample_latents(stats, [stream_rng("ym", 1)])[0]
    res = run_trial(stats, y[None], plan, small_lib, ch, [stream_rng("nm", 1)])
    assert res.realized_errors_per_subcarrier.sum() == 0
    for i in range(stats.n):
        if plan.bits[i] == 0:
            continue
        q = small_lib.quantizer(int(plan.bits[i]), plan.eps_index)
        sd = float(np.sqrt(stats.variances[i]))
        cw = quantize(float(y[i]), 0.0, sd, q)
        assert res.per_element_sq_error[0, i] == pytest.approx(
            (y[i] - dequantize(cw, 0.0, sd, q)) ** 2, abs=1e-12
        )


def test_trial_zero_bit_elements_reconstruct_mean(small_lib):
    stats = LatentStats(np.array([3.0, 0.0]), np.array([0.2, 2.0]))
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=3)
    plan = optimize_plan(small_lib, stats, ch, 8 * 10.0)
    y = sample_latents(stats, [stream_rng("y", 2)])
    res = run_trial(stats, y, plan, small_lib, ch, [stream_rng("n", 2)])
    assert res.per_element_sq_error[0, 0] == pytest.approx((y[0, 0] - 3.0) ** 2, abs=1e-12)


def test_trial_rejects_mismatched_channel(small_lib):
    stats, ch, plan = _setup_plan(small_lib)
    other = realize_channel(exponential_pdp(300.0), ch.n_sc, 30e3, seed=4321)
    y = sample_latents(stats, [stream_rng("y", 3)])
    with pytest.raises(ValueError, match="channel"):
        run_trial(stats, y, plan, small_lib, other, [stream_rng("n", 3)])


def test_trial_rejects_mismatched_library(small_lib):
    stats, ch, plan = _setup_plan(small_lib)
    cells = dict(small_lib.cells)
    cells[(1, 0)] = dataclasses.replace(cells[(1, 0)], normalized_distortion=cells[(1, 1)].normalized_distortion)
    other = dataclasses.replace(small_lib, cells=cells)
    y = sample_latents(stats, [stream_rng("y", 3)])
    with pytest.raises(ValueError, match="library"):
        run_trial(stats, y, plan, other, ch, [stream_rng("n", 3)])


def test_frame_layout_is_built_once_per_plan(small_lib, monkeypatch):
    calls = []
    placements = []
    real = simulator._build_frame_layout
    place = allocator.build_bit_mapping

    def counting(plan):
        calls.append(plan)
        return real(plan)

    def counting_placement(modulations, t_sym):
        placements.append(t_sym)
        return place(modulations, t_sym)

    monkeypatch.setattr(simulator, "_build_frame_layout", counting)
    # the layout reads the placement through the allocator module, which a tracer wraps
    monkeypatch.setattr(allocator, "build_bit_mapping", counting_placement)
    stats, ch, plan = _setup_plan(small_lib, n=64, n_sc=16, snr_db=6.0, seed=33)
    errors = 0.0
    for f in range(3):
        y = sample_latents(stats, [stream_rng("yl", f)])
        res = run_trial(stats, y, plan, small_lib, ch, [stream_rng("nl", f)])
        errors += res.realized_errors_per_subcarrier.sum()
    assert len(calls) == 1 and placements == [plan.t_sym]
    assert errors > 0

    # the layout holds nothing of the realization: the noise is read per frame
    ch = dataclasses.replace(ch, noise_var=1e-30)
    res = run_trial(stats, y, plan, small_lib, ch, [stream_rng("nl", 3)])
    assert res.realized_errors_per_subcarrier.sum() == 0
    assert len(calls) == 1

    # a derived plan starts without a layout
    derived = dataclasses.replace(plan, seed=plan.seed + 1)
    assert derived not in simulator._LAYOUTS and plan in simulator._LAYOUTS
    run_trial(stats, y, derived, small_lib, ch, [stream_rng("nl", 4)])
    assert len(calls) == 2 and calls[1] is derived
    assert len(placements) == 2


def test_trial_mean_error_matches_analytic(small_lib):
    stats, ch, plan = _setup_plan(small_lib, n=24, n_sc=16, snr_db=14.0, seed=21)
    col = np.concatenate(([1.0], small_lib.distortion_column(plan.eps_index)))
    acc = np.zeros(stats.n)
    acc2 = np.zeros(stats.n)
    n_frames = 400
    for f in range(n_frames):
        # the analytic distortion assumes an unclipped Gaussian
        y = stats.means + np.sqrt(stats.variances) * stream_rng("ya", f).standard_normal(stats.n)
        (sq_error,) = run_trial(stats, y[None], plan, small_lib, ch, [stream_rng("na", f)]).per_element_sq_error
        acc += sq_error
        acc2 += sq_error**2
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
        y = sample_latents(stats, [stream_rng("yb", f)])
        res = run_trial(stats, y, plan, small_lib, ch, [stream_rng("nb", f)])
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
    y = sample_latents(stats, [stream_rng("sample", 17, 0, 0, 0)])
    res = run_trial(stats, y, plan, small_lib, ch, [stream_rng("noise", 17, 0, 0, 0)])
    assert np.array_equal(reports[0].mean_distortion_per_element, res.per_element_sq_error[0])
    assert reports[0].mean_t_sym == plan.t_sym
    # byte determinism of the rendered report
    again = run_experiment(cfg, small_lib)
    assert report_rows_to_csv(again) == report_rows_to_csv(reports)


def test_experiment_row_count_scales_with_grid(small_lib):
    src = SyntheticSourceConfig(n_latents=12, seed=4)
    one = ExperimentConfig(source=src, snr_db=(8.0,), trials=2, n_sc=8, seed=1)
    two = ExperimentConfig(source=src, snr_db=(8.0, 14.0), trials=2, n_sc=8, seed=1)
    assert len(run_experiment(two, small_lib)) == 2 * len(run_experiment(one, small_lib))


def test_experiment_names_the_snr_point_without_a_rate(small_lib, monkeypatch):
    # trial 0 plans at 8 dB, then fails at -60 dB: the sweep stops at the
    # first trial where a point has no rate, and the error says which point
    plans = []
    real = simulator.optimize_plan
    monkeypatch.setattr(simulator, "optimize_plan", lambda *a, **k: plans.append(a[3]) or real(*a, **k))
    src = SyntheticSourceConfig(n_latents=12, seed=4)
    cfg = ExperimentConfig(source=src, snr_db=(8.0, -60.0, 14.0), trials=3, n_sc=8, seed=1)
    with pytest.raises(allocator.NoFeasibleRateError, match=r"^at -60\.0 dB: no BER target achieves "):
        run_experiment(cfg, small_lib)
    assert plans == [channel.power_budget(8, 8.0), channel.power_budget(8, -60.0)]


def test_experiment_draws_each_realization_once(small_lib, monkeypatch):
    # every SNR point of a trial plans and sends on the one realization drawn for it
    drawn, used = [], []
    draw, plan, trial = channel.realize_channel, simulator.optimize_plan, simulator.run_trial
    monkeypatch.setattr(channel, "realize_channel", lambda *a, **k: drawn.append(draw(*a, **k)) or drawn[-1])
    monkeypatch.setattr(
        simulator, "optimize_plan", lambda *a, **k: used.append(("plan", len(drawn), a[2])) or plan(*a, **k)
    )
    monkeypatch.setattr(
        simulator, "run_trial", lambda *a, **k: used.append(("send", len(drawn), a[4])) or trial(*a, **k)
    )
    src = SyntheticSourceConfig(n_latents=12, seed=4)
    cfg = ExperimentConfig(source=src, snr_db=(6.0, 10.0, 14.0), trials=3, n_sc=8, seed=1)
    run_experiment(cfg, small_lib)
    assert len(drawn) == 3
    want = [(step, n) for n in (1, 2, 3) for _ in cfg.snr_db for step in ("plan", "send")]
    assert [(step, n) for step, n, _ in used] == want
    assert all(realization is drawn[n - 1] for _, n, realization in used)


def test_experiment_csv_shape(small_lib):
    src = SyntheticSourceConfig(n_latents=12, seed=4)
    cfg = ExperimentConfig(source=src, snr_db=(8.0, 14.0), trials=2, n_sc=8, seed=1)
    text = report_rows_to_csv(run_experiment(cfg, small_lib))
    lines = text.strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("snr_db,trials,frames,")


_TRIAL_ARRAYS = (
    "per_element_sq_error",
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
            "realized_errors_per_subcarrier": "8091497862f2af258e01d0d735a41e9f699821e45eda12c54b7ca34ea106bc09",
            "realized_bits_per_subcarrier": "5a67badecc398a7b1440d8e30fbc3599aa6dffbfb2d809041f46b1e4748dceab",
        },
    ),
    # two symbols whose grid is topped up with pad bits
    (200, 16, 12.0, 0, None): (
        (2, 38, (6, 8)),
        {
            "per_element_sq_error": "de37d1ccef4d56c50545ffa78609547914c0eb8810208f8298c2161c69db805f",
            "realized_errors_per_subcarrier": "e7c42a130d7fc03c08d2e77019798484511a44ad026097f240835d159197a836",
            "realized_bits_per_subcarrier": "0ca8f29d111adaf8030ee6151ca8ed2a1a68cfdcbfcd85164468f9cbccbcbca7",
        },
    ),
    # a one-symbol plan
    (24, 16, 14.0, 21, None): (
        (1, 30, (0, 2, 4, 6)),
        {
            "per_element_sq_error": "8e2fe2c124468b5cd87a593dcf92cb8a7c6c861d49bdd49e8c19b88af4269875",
            "realized_errors_per_subcarrier": "2f608f45df9fc19f669b866f4b4bb2bd48f92ef94a4fb4d9771a2792ecfed8f1",
            "realized_bits_per_subcarrier": "0219962ad6991683acd99167bc64a956e3da82191ad65028731cf0a8092e06b5",
        },
    ),
    # every element negligible: the empty plan
    (8, 16, 10.0, 3, 0.3): (
        (0, 0, (0,)),
        {
            "per_element_sq_error": "77150726ef9849f755fd75a93e44e55c6ad4198c7c33e86a62afb78e26c81ca3",
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
        y = sample_latents(stats, [stream_rng("pin-y", seed, frame)])
        res = run_trial(stats, y, plan, lib, ch, [stream_rng("pin-n", seed, frame)])
        assert res.bits_sent == plan.b_lat and type(res.bits_sent) is int
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


def test_trial_checks_sent_std(small_lib):
    # with delta = 0 a zero-variance element is sent, and its quantizer has no scale
    stats = LatentStats(np.zeros(4), np.array([0.0, 1.0, 2.0, 3.0]))
    ch = realize_channel(exponential_pdp(300.0), 8, 30e3, seed=5)
    plan = optimize_plan(small_lib, stats, ch, 8 * 100.0, delta=0.0)
    assert plan.bits[0] > 0
    y = sample_latents(stats, [stream_rng("y", 5)])
    with pytest.raises(ValueError, match="std must be positive"):
        run_trial(stats, y, plan, small_lib, ch, [stream_rng("n", 5)])

    # a plan without its digests is refused, whatever it is run with
    with pytest.raises(ValueError, match="plan was built for a different"):
        run_trial(stats, y, dataclasses.replace(plan, digests={}), small_lib, ch, [stream_rng("n", 6)])


# ---------------------------------------------------------------------------
# The per-frame chain that the batched one replaced, kept as the reference:
# one latent vector and one Generator per call, and one call per frame.
# ---------------------------------------------------------------------------


def _reference_sample(stats, rng):
    std = np.sqrt(stats.variances)
    y = stats.means + std * rng.standard_normal(stats.n)
    return np.clip(y, stats.means - 3.0 * std, stats.means + 3.0 * std)


def _reference_transmit(s, p, h, noise_var, rng):
    z = rng.standard_normal(s.shape[:-1] + (2,) + s.shape[-1:])
    noise = np.sqrt(noise_var / 2.0) * (z[..., 0, :] + 1j * z[..., 1, :])
    return np.sqrt(p) * h * s + noise


def _reference_layout(plan):
    """Per-depth element indices and ranks, the payload bit map and the pad bits."""
    widths = plan.bits.astype(np.int64)
    sent = np.flatnonzero(widths > 0)
    rank = np.cumsum(widths > 0) - 1
    groups = [(int(b), np.flatnonzero(widths == b), rank[widths == b]) for b in np.unique(widths[sent])]
    counts = widths[sent]
    starts = np.cumsum(counts) - counts
    owner = np.repeat(sent, counts)
    shift = np.repeat(starts + counts - 1, counts) - np.arange(owner.size)
    pad = np.random.Generator(np.random.PCG64(plan_dummy_seed(plan))).integers(0, 2, size=plan.dummy_bits)
    return groups, owner, shift, starts, pad


def _reference_trial(stats, y, plan, lib, realization, rng):
    b_lat = plan.b_lat
    yhat = stats.means.copy()
    err_per_sc = np.zeros(realization.n_sc)
    bits_per_sc = np.zeros(realization.n_sc)
    if plan.is_empty or b_lat == 0:
        return simulator.TrialResult(np.square(y - yhat), 0, err_per_sc, bits_per_sc)

    groups, owner, shift, starts, pad = _reference_layout(plan)
    std = np.sqrt(stats.variances)
    codewords = np.zeros(stats.n, dtype=np.int64)
    for b, ids, _ in groups:
        q = lib.quantizer(b, plan.eps_index)
        codewords[ids] = quantize(y[ids], stats.means[ids], std[ids], q)
    stream = np.concatenate(((codewords[owner] >> shift) & 1, pad))

    symbol, subcarrier, position = build_bit_mapping(plan.modulations, plan.t_sym)
    slots = np.zeros((plan.t_sym, plan.modulations.size, 8), dtype=np.int64)
    slots[symbol, subcarrier, position] = np.arange(symbol.size)
    rx_stream = np.zeros(stream.size, dtype=np.int64)
    for m in modem.QAM_BITS:
        sc = np.flatnonzero(plan.modulations == m)
        if not sc.size:
            continue
        p, gather = plan.powers[sc], slots[:, sc, :m]
        shifts = np.arange(m - 1, -1, -1)
        h = realization.gains[sc]
        words = stream[gather] @ (1 << shifts)
        s = modem.constellation(m).points[words]
        r = _reference_transmit(s, p, h, realization.noise_var, rng)
        rx_words = modem.demodulate(channel.equalize(r, p, h), m)
        rx_stream[gather] = (rx_words[..., None] >> shifts) & 1
        err_per_sc[sc] += simulator._POPCOUNT[words ^ rx_words].sum(axis=0)
        bits_per_sc[sc] += m * plan.t_sym

    rx_words = np.add.reduceat(rx_stream[:b_lat] << shift, starts)
    for b, ids, ranks in groups:
        q = lib.quantizer(b, plan.eps_index)
        yhat[ids] = dequantize(rx_words[ranks], stats.means[ids], std[ids], q)
    return simulator.TrialResult(np.square(y - yhat), b_lat, err_per_sc, bits_per_sc)


def _reference_experiment(cfg, lib, keep_trials=False):
    profile = channel.parse_profile_ref(cfg.profile_ref)
    stats = draw_stats(cfg.source, sigma_max(lib), stream_rng("source", cfg.seed, cfg.source.seed))
    targets = target_distortion(stats.variances)
    checked = stats.variances >= cfg.delta
    reports = []
    for si, snr in enumerate(cfg.snr_db):
        p_tot = cfg.n_sc * 10.0 ** (snr / 10.0)
        sq_sum = np.zeros(stats.n)
        sq_sumsq = np.zeros(stats.n)
        t_syms, eps_stars, details, count = [], [], [], 0
        for trial in range(cfg.trials):
            realization = channel.realize_channel(
                profile, cfg.n_sc, cfg.spacing_hz, seed=trial, rng=stream_rng("channel", cfg.seed, trial)
            )
            plan = optimize_plan(lib, stats, realization, p_tot, cfg.delta, seed=cfg.seed)
            t_syms.append(plan.t_sym)
            eps_stars.append(plan.epsilon_star)
            for frame in range(cfg.frames_per_realization):
                y = _reference_sample(stats, stream_rng("sample", cfg.seed, si, trial, frame))
                res = _reference_trial(
                    stats, y, plan, lib, realization, stream_rng("noise", cfg.seed, si, trial, frame)
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
                config_digest=cfg.digest(),
                seed=cfg.seed,
                trial_details=details,
            )
        )
    return reports


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def eight_bit_lib():
    """One target up to b = 8, the deepest codeword that fits a byte."""
    return build_library(8, [0.01], DesignConfig(restarts=1, max_iters=4))


@pytest.fixture(scope="module")
def nine_bit_lib():
    """One target up to b = 9, so codewords outgrow a byte."""
    return build_library(9, [0.01], DesignConfig(restarts=1, max_iters=4))


# (library fixture, n, n_sc, snr_db, seed, variance cap or None for sigma_max^2)
_BATCH_CASES = {
    "three-orders-multi-symbol": ("small_lib", 200, 16, 10.0, 6, None),
    "pad-bits": ("small_lib", 200, 16, 12.0, 0, None),
    "one-symbol": ("small_lib", 24, 16, 14.0, 21, None),
    "empty-plan": ("small_lib", 8, 16, 10.0, 3, 0.3),
    "eight-bit-256qam": ("eight_bit_lib", 200, 16, 25.0, 2, None),
    "nine-bit-words": ("nine_bit_lib", 200, 16, 30.0, 5, None),
}


def _batch_case(request, key):
    lib_name, n, n_sc, snr_db, seed, var_hi = _BATCH_CASES[key]
    lib = request.getfixturevalue(lib_name)
    rng = stream_rng("batch", seed)
    hi = sigma_max(lib) ** 2 if var_hi is None else var_hi
    stats = LatentStats(
        rng.uniform(-1.0, 1.0, size=n), np.exp(rng.uniform(np.log(1e-3), np.log(hi), size=n))
    )
    ch = realize_channel(exponential_pdp(300.0), n_sc, 30e3, seed=seed)
    plan = optimize_plan(lib, stats, ch, n_sc * 10 ** (snr_db / 10.0), seed=seed)
    return lib, stats, ch, plan


@pytest.mark.parametrize("frames", [1, 5])
@pytest.mark.parametrize("key", list(_BATCH_CASES))
def test_batched_trial_equals_one_frame_reference(request, key, frames):
    lib, stats, ch, plan = _batch_case(request, key)
    if key in ("eight-bit-256qam", "nine-bit-words"):
        assert plan.bits.max() == lib.b_max and plan.t_sym > 1 and 8 in plan.modulations
    y = np.stack([_reference_sample(stats, stream_rng("by", key, f)) for f in range(frames)])
    res = run_trial(stats, y, plan, lib, ch, [stream_rng("bn", key, f) for f in range(frames)])
    assert res.per_element_sq_error.shape == (frames, stats.n)
    refs = [_reference_trial(stats, y[f], plan, lib, ch, stream_rng("bn", key, f)) for f in range(frames)]
    for row, ref in zip(res.per_element_sq_error, refs):
        assert _same_bytes(row, ref.per_element_sq_error)
    # the realized counts are integers, so their sum over frames is exact
    for name in ("realized_errors_per_subcarrier", "realized_bits_per_subcarrier"):
        assert _same_bytes(getattr(res, name), sum(getattr(r, name) for r in refs))
    assert res.bits_sent == refs[0].bits_sent


def test_batched_quantizer_sends_threshold_ties_low(small_lib):
    # a latent exactly on a threshold belongs to the lower region, as in quantize()
    stats = LatentStats(np.zeros(24), np.ones(24))
    ch = realize_channel(exponential_pdp(300.0), 16, 30e3, seed=3)
    plan = optimize_plan(small_lib, stats, ch, 16 * 10**1.4)
    y = np.zeros((2, 24))
    for i in np.flatnonzero(plan.bits):
        thresholds = small_lib.quantizer(int(plan.bits[i]), plan.eps_index).thresholds
        y[:, i] = thresholds[(i + np.arange(2)) % thresholds.size]
    assert np.count_nonzero(y) > 12
    res = run_trial(stats, y, plan, small_lib, ch, [stream_rng("tie", f) for f in range(2)])
    for f in range(2):
        ref = _reference_trial(stats, y[f], plan, small_lib, ch, stream_rng("tie", f))
        assert _same_bytes(res.per_element_sq_error[f], ref.per_element_sq_error)


def test_batched_trial_rejects_a_wrong_generator_count(small_lib):
    stats, ch, plan = _setup_plan(small_lib)
    y = sample_latents(stats, [stream_rng("y", f) for f in range(3)])
    with pytest.raises(ValueError, match="one Generator per frame"):
        run_trial(stats, y, plan, small_lib, ch, [stream_rng("n", f) for f in range(2)])
    with pytest.raises(ValueError, match="shape"):
        run_trial(stats, y[:, :-1], plan, small_lib, ch, [stream_rng("n", f) for f in range(3)])


@pytest.mark.parametrize("frames", [1, 9])
def test_trial_calls_each_stage_once_per_batch(request, monkeypatch, frames):
    # a tracer times the chain's stages by wrapping these module attributes
    stages = ((quantizer, "quantize"), (quantizer, "dequantize"), (modem, "modulate"))
    calls = {name: [] for _, name in stages}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append((np.shape(args[0]), args[-1]))  # the quantizer, or the order
            return fn(*args, **kwargs)

        return wrapper

    for module, name in stages:
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    lib, stats, ch, plan = _batch_case(request, "three-orders-multi-symbol")
    y = sample_latents(stats, [stream_rng("stage-y", f) for f in range(frames)])
    run_trial(stats, y, plan, lib, ch, [stream_rng("stage-n", f) for f in range(frames)])
    depths = sorted(set(plan.bits[plan.bits > 0].tolist()))
    orders = sorted(set(plan.modulations[plan.modulations > 0].tolist()))
    assert len(depths) > 1 and len(orders) > 1
    for name in ("quantize", "dequantize"):
        assert [q.bit_depth for _, q in calls[name]] == depths
        # one call covers every frame and every element of its depth
        assert [shape for shape, _ in calls[name]] == [(frames, np.sum(plan.bits == b)) for b in depths]
    assert [m for _, m in calls["modulate"]] == orders
    assert [shape for shape, _ in calls["modulate"]] == [
        (frames, plan.t_sym, np.sum(plan.modulations == m)) for m in orders
    ]


@pytest.mark.parametrize("length", [1, 7, 8, 12, 13, 16, 23, 24, 41])
def test_packed_field_reads_equal_bit_by_bit(length):
    # every field of width 1..12 at every start, so every bit offset 0..7 and
    # the fields that end in the stream's last byte (or on its last bit)
    bits = stream_rng("fields", length).integers(0, 2, size=(3, length)).astype(np.uint8)
    starts, widths = map(np.array, zip(*[(a, w) for a in range(length) for w in range(1, 13) if a + w <= length]))
    got = simulator._read(simulator._windows(bits), simulator._field(starts, widths), np.uint16)
    # and the fields read expand back to their bits, MSB first, as the payload does
    owner = np.repeat(np.arange(widths.size), widths)
    shift = np.concatenate([np.arange(w - 1, -1, -1) for w in widths]).astype(np.uint8)
    for row, fields, expanded in zip(bits, got, simulator._bits(got, owner, shift)):
        want = [int("".join(map(str, row[a : a + w])), 2) for a, w in zip(starts, widths)]
        assert fields.tolist() == want
        assert "".join(map(str, expanded)) == "".join(format(v, f"0{w}b") for v, w in zip(want, widths))
    if length >= 20:
        assert {(a % 8, w) for a, w in zip(starts, widths)} == {(o, w) for o in range(8) for w in range(1, 13)}
        assert any(a + w == length and w == 12 for a, w in zip(starts, widths))


def test_transmit_rows_equal_per_row_calls():
    rng = stream_rng("tx", 0)
    s = rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5))
    p, h = rng.uniform(0.5, 2.0, size=5), rng.standard_normal(5) + 1j
    got = channel.transmit_symbols(s, p, h, 0.7, [stream_rng("txn", f) for f in range(4)])
    for f in range(4):
        assert _same_bytes(got[f], _reference_transmit(s[f], p, h, 0.7, stream_rng("txn", f)))
    with pytest.raises(ValueError, match="one Generator per row"):
        channel.transmit_symbols(s, p, h, 0.7, [stream_rng("txn", f) for f in range(3)])


def test_sample_rows_equal_per_row_calls():
    stats = LatentStats(np.linspace(-1.0, 1.0, 50), np.geomspace(0.01, 9.0, 50))
    got = sample_latents(stats, [stream_rng("sl", f) for f in range(6)])
    assert got.shape == (6, 50)
    for f in range(6):
        assert _same_bytes(got[f], _reference_sample(stats, stream_rng("sl", f)))


def _assert_reports_equal(got, want):
    assert report_rows_to_csv(got) == report_rows_to_csv(want)
    for a, b in zip(got, want, strict=True):
        for f in dataclasses.fields(ExperimentReport):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert _same_bytes(x, y), f.name
            else:
                assert x == y, f.name


@pytest.mark.parametrize(
    "frames, entries",
    [(1, None), (3, None), (64, None), (13, 150)],
    ids=["1-frame", "3-frames", "64-frames", "short-last-batch"],
)
def test_experiment_equals_per_frame_reference(small_lib, monkeypatch, frames, entries):
    if entries is not None:
        monkeypatch.setattr(simulator, "_BATCH_ENTRIES", entries)
    rows = []
    real = simulator.run_trial
    monkeypatch.setattr(simulator, "run_trial", lambda *a, **k: rows.append(len(a[1])) or real(*a, **k))
    cfg = ExperimentConfig(
        source=SyntheticSourceConfig(n_latents=24, seed=4),
        snr_db=(6.0, 14.0),
        trials=2,
        frames_per_realization=frames,
        n_sc=16,
        seed=17,
    )
    got = run_experiment(cfg, small_lib, keep_trials=True)
    _assert_reports_equal(got, _reference_experiment(cfg, small_lib, keep_trials=True))
    assert [d["frame"] for d in got[0].trial_details] == list(range(frames)) * 2
    assert sum(rows) == 2 * 2 * frames
    if entries is not None:
        # some realization's frames split into full batches and a shorter last one
        assert len(set(rows)) > 1 and len(rows) > 4


def test_simulate_output_equals_per_frame_reference(small_lib, tmp_path, monkeypatch, capsys):
    lib_path = tmp_path / "lib.json"
    save_library(small_lib, lib_path)
    cfg = {"library": str(lib_path), "source": {"n_latents": 16, "seed": 2}, "snr_db": [8.0, 12.0],
           "trials": 3, "frames_per_realization": 5, "n_sc": 8, "seed": 9}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = []
    for experiment in (run_experiment, _reference_experiment):
        monkeypatch.setattr(cli.sim, "run_experiment", experiment)
        out_dir = tmp_path / experiment.__name__
        code = cli.main(["simulate", "--config", str(cfg_path), "--out-dir", str(out_dir), "--detail"])
        assert code in (0, 1)
        outputs.append(((out_dir / "report.csv").read_bytes(), (out_dir / "report.json").read_bytes()))
    capsys.readouterr()
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("entries", [1 << 16, 10])
def test_experiment_batches_stay_within_the_bound(small_lib, monkeypatch, entries):
    monkeypatch.setattr(simulator, "_BATCH_ENTRIES", entries)
    calls = []
    real = simulator.run_trial

    def recording(stats, y, plan, lib, realization, rng):
        calls.append((y.shape, plan.t_sym, realization.n_sc))
        return real(stats, y, plan, lib, realization, rng)

    monkeypatch.setattr(simulator, "run_trial", recording)
    cfg = ExperimentConfig(
        source=SyntheticSourceConfig(n_latents=2048, seed=1),
        snr_db=(10.0,),
        trials=2,
        frames_per_realization=64,
        n_sc=64,
        seed=3,
    )
    run_experiment(cfg, small_lib)
    assert sum(shape[0] for shape, _, _ in calls) == 2 * 64
    for (frames, n), t_sym, n_sc in calls:
        assert frames == 1 or frames * (n + t_sym * n_sc) <= entries
    if entries == 10:
        assert all(shape[0] == 1 for shape, _, _ in calls)
    else:
        assert 2 < len(calls) < 2 * 64  # batched, and cut into more than one batch per realization


def test_measure_link_ber_rejects_fewer_than_one_bit():
    for n_bits in (0, -5, 2.5, True):
        with pytest.raises(ValueError, match="n_bits"):
            simulator.measure_link_ber(2, 10.0, n_bits, stream_rng("ber", 0))
