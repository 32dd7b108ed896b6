import hashlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from quantlink import channel, cli, simulator
from quantlink.cli import main
from quantlink.quantizer import DesignConfig

README = Path(__file__).resolve().parents[1] / "README.md"
FIXTURE_LIBRARY = Path(__file__).resolve().parents[1] / "benchmarks" / "default_library.json"


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def no_library_load(monkeypatch):
    """Fail the test if a command loads its library before checking its input."""

    def refuse(path):
        raise AssertionError(f"library {path} loaded before the input was checked")

    monkeypatch.setattr(cli.liblib, "load_library", refuse)


@pytest.fixture(scope="module")
def tiny_lib_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("lib")
    code = main(
        [
            "build-library",
            "--out", str(out),
            "--b-max", "2",
            "--eps", "0.01", "0.05",
            "--seed", "9",
        ]
    )
    assert code == 0
    return out


def test_build_library_outputs(tiny_lib_dir):
    lib_path = tiny_lib_dir / "library.json"
    csv_path = tiny_lib_dir / "distortions.csv"
    assert lib_path.exists() and csv_path.exists()
    rows = csv_path.read_text().strip().split("\n")
    assert rows[0].startswith("b,eps_index,eps,")
    assert len(rows) == 1 + 2 * 2


def test_build_library_writes_each_rows_target_as_a_plain_float(tiny_lib_dir):
    # the eps field used to be the repr of a numpy scalar: np.float64(0.01)
    rows = [row.split(",") for row in (tiny_lib_dir / "distortions.csv").read_text().splitlines()[1:]]
    assert [(int(r[1]), float(r[2])) for r in rows] == [(0, 0.01), (0, 0.01), (1, 0.05), (1, 0.05)]
    assert all(float(r[4]) > 0 and float(r[5]) > 0 for r in rows)


def test_build_library_writes_the_fixed_design_settings(tiny_lib_dir):
    # only --seed is settable; the rest of the design block is DesignConfig's defaults
    doc = json.loads((tiny_lib_dir / "library.json").read_text())
    assert doc["design"] == {"restarts": 10, "max_iters": 200, "rel_tol": (1e-9).hex(), "seed": 9}


def test_build_library_deterministic(tiny_lib_dir, tmp_path, capsys):
    code, _, _ = _run(
        capsys,
        "build-library", "--out", str(tmp_path),
        "--b-max", "2", "--eps", "0.01", "0.05", "--seed", "9",
    )
    assert code == 0
    a = hashlib.sha256((tiny_lib_dir / "library.json").read_bytes()).hexdigest()
    b = hashlib.sha256((tmp_path / "library.json").read_bytes()).hexdigest()
    assert a == b


def test_build_library_single_cell_value(tmp_path, capsys):
    code, out, _ = _run(
        capsys,
        "build-library", "--out", str(tmp_path),
        "--b-max", "1", "--eps", "0.05", "--seed", "1",
    )
    assert code == 0
    row = (tmp_path / "distortions.csv").read_text().strip().split("\n")[1]
    d = float(row.split(",")[-1])
    assert d == pytest.approx(0.4843, abs=1e-4)


def test_build_library_unwritable_path(capsys):
    code, _, err = _run(
        capsys,
        "build-library", "--out", "/proc/definitely/not/writable",
        "--b-max", "1", "--eps", "0.05", "--seed", "1",
    )
    assert code == 2
    assert "error" in err.lower()


def test_design_quantizer_json(capsys):
    code, out, _ = _run(capsys, "design-quantizer", "--bits", "1", "--eps", "0.05")
    assert code == 0
    doc = json.loads(out)
    assert doc["bit_depth"] == 1
    assert doc["distortion"] == pytest.approx(0.484338, abs=1e-5)
    assert sorted(np.round(doc["levels"], 5)) == [-0.7181, 0.7181]


def test_design_quantizer_bad_depth(capsys):
    code, _, err = _run(capsys, "design-quantizer", "--bits", "0", "--eps", "0.05")
    assert code == 2


def test_allocate_and_check(tiny_lib_dir, tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    code, out, _ = _run(
        capsys,
        "allocate",
        "--library", str(tiny_lib_dir / "library.json"),
        "--n-latents", "32",
        "--n-sc", "16",
        "--snr-db", "10",
        "--channel-seed", "5",
        "--out", str(plan_path),
        "--check",
        "--seed", "2",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["checked"] is True
    assert summary["power_used_fraction"] <= 1.0 + 1e-9
    doc = json.loads(plan_path.read_text())
    assert doc["kind"] == "allocation-plan"
    assert doc["t_sym"] >= 1


def test_allocate_failed_check_exit_1_and_no_plan(tiny_lib_dir, tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("total power exceeds the budget")

    monkeypatch.setattr(cli, "validate_plan", failing)
    plan_path = tmp_path / "plan.json"
    code, out, err = _run(
        capsys,
        "allocate",
        "--library", str(tiny_lib_dir / "library.json"),
        "--n-latents", "32", "--n-sc", "16", "--snr-db", "10",
        "--channel-seed", "5", "--out", str(plan_path), "--check",
    )
    assert code == 1
    assert err.startswith("error:") and "total power exceeds the budget" in err
    assert out == "" and not plan_path.exists()


def test_allocate_deterministic(tiny_lib_dir, tmp_path, capsys):
    paths = []
    for name in ("a.json", "b.json"):
        p = tmp_path / name
        code, _, _ = _run(
            capsys,
            "allocate",
            "--library", str(tiny_lib_dir / "library.json"),
            "--n-latents", "32", "--n-sc", "16", "--snr-db", "10",
            "--channel-seed", "5", "--out", str(p), "--seed", "2",
        )
        assert code == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]


def test_allocate_zero_variance_source_empty_plan(tiny_lib_dir, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({"means": [0.0] * 4, "variances": [0.1] * 4}))
    code, out, _ = _run(
        capsys,
        "allocate",
        "--library", str(tiny_lib_dir / "library.json"),
        "--stats", str(stats),
        "--n-sc", "16", "--snr-db", "10", "--channel-seed", "5",
    )
    assert code == 0
    assert json.loads(out)["t_sym"] == 0


def test_allocate_oversized_variance_exit_2(tiny_lib_dir, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({"means": [0.0], "variances": [1e9]}))
    code, _, err = _run(
        capsys,
        "allocate",
        "--library", str(tiny_lib_dir / "library.json"),
        "--stats", str(stats),
        "--n-sc", "16", "--snr-db", "10", "--channel-seed", "5",
    )
    assert code == 2
    assert "sigma_max" in err


def test_allocate_malformed_stats_exit_2(tiny_lib_dir, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    # a top level that is not an object must be a bad-input exit, not a crash;
    # a NaN mean used to exit 0 with a plan whose every trial reports NaN
    for doc in ({"means": [0.0]}, [], {"means": [float("nan"), 0.0], "variances": [1.0, 1.0]}):
        stats.write_text(json.dumps(doc))
        code, _, err = _run(
            capsys,
            "allocate",
            "--library", str(tiny_lib_dir / "library.json"),
            "--stats", str(stats),
            "--n-sc", "16", "--snr-db", "10", "--channel-seed", "5",
        )
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"means": ["0", "0"], "variances": ["2.5", "1"]}, "means"),
        ({"means": [0.0, 0.0], "variances": ["2.5", "1"]}, "variances"),
        ({"means": [False, False], "variances": [True, True]}, "means"),
        ({"means": [0, 0], "variances": [True, True]}, "variances"),
    ],
)
def test_allocate_refuses_stats_that_are_not_numbers(doc, field, tiny_lib_dir, tmp_path, capsys):
    # strings and bools used to be converted to floats, planned and exit 0
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps(doc))
    code, out, err = _run(
        capsys,
        "allocate",
        "--library", str(tiny_lib_dir / "library.json"),
        "--stats", str(stats),
        "--n-sc", "16", "--snr-db", "10", "--channel-seed", "5",
    )
    assert code == 2 and out == ""
    assert f"error: {field} must hold only ints and floats" in err


def test_allocate_infeasible_exit_3(tiny_lib_dir, tmp_path, capsys):
    code, _, err = _run(
        capsys,
        "allocate",
        "--library", str(tiny_lib_dir / "library.json"),
        "--n-latents", "8", "--n-sc", "8", "--snr-db", "-60",
        "--channel-seed", "5",
    )
    assert code == 3
    assert "rate" in err.lower()


@pytest.mark.parametrize("delta", ["nan", "inf", "0", "-0.4"])
def test_allocate_rejects_bad_delta_before_loading(delta, no_library_load, capsys):
    # a NaN delta would count every element as negligible and plan nothing
    code, out, err = _run(capsys, "allocate", "--library", "lib.json", f"--delta={delta}")
    assert code == 2 and out == ""
    assert "delta must be a positive finite number" in err


@pytest.mark.parametrize("spacing", ["0", "-1", "nan", "inf"])
def test_allocate_rejects_bad_spacing_before_loading(spacing, no_library_load, capsys):
    # 0 and nan used to exit 2 only after the library loaded, and inf to fail
    # there with "gains must be finite" after a numpy RuntimeWarning
    code, out, err = _run(capsys, "allocate", "--library", "lib.json", f"--spacing-khz={spacing}")
    assert code == 2 and out == ""
    assert f"spacing_khz must be a positive finite number, got {float(spacing)!r}" in err


def test_allocate_rejects_a_spacing_that_overflows_in_hz(no_library_load, capsys, recwarn):
    # 1e306 kHz is finite but inf Hz: it used to load the library, warn from
    # numpy and exit 2 with "gains must be finite"
    code, out, err = _run(capsys, "allocate", "--library", "lib.json", "--spacing-khz", "1e306")
    assert code == 2 and out == ""
    assert "spacing_khz must be a positive finite number, got 1e+306 (inf Hz)" in err
    assert not recwarn.list


@pytest.mark.parametrize("n_sc", ["0", "-3"])
def test_allocate_rejects_bad_n_sc_before_loading(n_sc, no_library_load, capsys):
    # used to exit 2 only after the power budget came out 0, blaming the SNR
    code, out, err = _run(capsys, "allocate", "--library", "lib.json", f"--n-sc={n_sc}")
    assert code == 2 and out == ""
    assert f"n_sc must be an int >= 1, got {n_sc}" in err and "snr_db" not in err


@pytest.mark.parametrize("snr_db", ["4000", "-4000", "nan", "inf", "-inf"])
def test_allocate_rejects_bad_snr_before_loading(snr_db, no_library_load, capsys):
    # 4000 dB used to exit 1 with an OverflowError traceback, and -4000 or nan
    # to exit 2 with "p_tot must be positive" after the library had loaded
    code, out, err = _run(capsys, "allocate", "--library", "lib.json", f"--snr-db={snr_db}")
    assert code == 2 and out == ""
    assert "snr_db" in err and "power budget" in err and "Traceback" not in err


def test_build_library_rejects_b_max_before_designing(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a cell was designed before b_max was checked")

    monkeypatch.setattr(cli.liblib, "design_channel_optimized", refuse)
    code, out, err = _run(capsys, "build-library", "--out", str(tmp_path / "lib"), "--b-max", "13")
    assert code == 2 and out == ""
    assert "b_max must be in [1, 12]" in err
    assert not (tmp_path / "lib").exists()


def test_allocate_rejects_zero_latents(no_library_load, capsys):
    # used to exit 2 only after the library loaded, or with "cannot read library file"
    code, out, err = _run(capsys, "allocate", "--library", "/nonexistent/lib.json", "--n-latents", "0")
    assert code == 2 and out == ""
    assert "n_latents must be an int >= 1, got 0" in err


@pytest.mark.parametrize(
    "profile, message",
    [
        ("exp-pdp(0)", "rms_ns must be positive"),
        ("/nonexistent/tdl.json", "No such file"),
        # a profile file's document, which used to end in a KeyError or TypeError traceback
        ({}, "need a JSON object with a 'taps' list"),
        ([1], "need a JSON object with a 'taps' list"),
        ({"taps": [{"delay_ns": 0}]}, "tap 0 needs a finite number 'power_db', got None"),
        ({"taps": [{"delay_ns": 0, "power_db": 0}, 1]}, "tap 1 is not an object, got 1"),
        ({"taps": [{"delay_ns": "0", "power_db": 0}]}, "tap 0 needs a finite number 'delay_ns', got '0'"),
        # an RMS whose delays' squares overflow or underflow used to end in an
        # OverflowError or ZeroDivisionError traceback with exit 1 (a failed
        # check), or in numpy warnings before the profile's own error
        ("exp-pdp(1e300)", "rms_ns 1e+300 is out of range"),
        ("exp-pdp(1e-320)", "rms_ns 1e-320 is out of range"),
        ("exp-pdp(1e400)", "rms_ns inf is out of range"),
    ],
)
def test_allocate_rejects_a_bad_profile_before_loading(profile, message, no_library_load, tmp_path, capsys):
    # used to load the library and the stats first
    if not isinstance(profile, str):
        profile = _json_file(tmp_path / "profile.json", profile)
        message = f"profile file {profile}: {message}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "allocate", "--library", "lib.json", "--profile", profile)
    assert code == 2 and out == ""
    assert message in err and err.startswith("error: ") and err.count("\n") == 1


def test_parser_defaults_come_from_the_configs():
    parser = cli.build_parser()
    for argv in (["build-library"], ["design-quantizer", "--bits", "2", "--eps", "0.01"]):
        assert parser.parse_args(argv).seed == DesignConfig().seed
    args = parser.parse_args(["allocate", "--library", "lib.json"])
    source = simulator.SyntheticSourceConfig()
    assert args.spacing_khz * 1e3 == channel.DEFAULT_SPACING_HZ
    assert args.profile == simulator.ExperimentConfig(source=source).profile_ref
    assert (args.n_latents, args.source_seed) == (source.n_latents, source.seed)


def test_simulate_smoke_and_determinism(tiny_lib_dir, tmp_path, capsys):
    cfg = {
        "library": str(tiny_lib_dir / "library.json"),
        "source": {"n_latents": 8, "seed": 3},
        "profile": "exp-pdp(300)",
        "snr_db": [8.0, 12.0],
        "trials": 10,
        "n_sc": 8,
        "seed": 21,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, text_a, _ = _run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(out_a), "--detail")
    assert code == 0
    assert (out_a / "report.csv").exists() and (out_a / "report.json").exists()
    code, text_b, _ = _run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(out_b), "--detail")
    assert code == 0
    assert (out_a / "report.csv").read_bytes() == (out_b / "report.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_simulate_bad_config_exit_2(tiny_lib_dir, tmp_path, capsys):
    cfg_path = tmp_path / "broken.json"
    for text in ("{not json", "[]"):
        cfg_path.write_text(text)
        code, _, err = _run(capsys, "simulate", "--config", str(cfg_path))
        assert code == 2
        assert "bad experiment config" in err
    # a count below 1 would report a NaN mean and no violations, an empty SNR
    # list a header-only CSV, a string count or delta would crash mid-run, and
    # a string seed would run under another config digest
    base = {"library": str(tiny_lib_dir / "library.json"), "source": {"n_latents": 8}, "n_sc": 8, "trials": 1}
    out_dir = tmp_path / "out"
    for edit in (
        {"trials": 0},
        {"trials": -1},
        {"trials": "200"},
        {"trials": 2.0},
        {"trials": True},
        {"frames_per_realization": 0},
        {"snr_db": []},
        {"snr_db": 10},
        {"snr_db": [10.0, float("nan")]},
        {"snr_db": [float("inf")]},
        {"snr_db": [4000]},
        {"snr_db": [10, -4000]},
        {"delta": "0.4"},
        {"delta": 0.0},
        {"delta": -0.4},
        {"delta": float("nan")},
        {"n_sc": 0},
        {"n_sc": 8.0},
        {"n_sc": "8"},
        {"spacing_hz": 0},
        {"spacing_hz": "30e3"},
        {"spacing_hz": float("inf")},
        {"seed": "0"},
        {"seed": 1.5},
        {"seed": True},
    ):
        cfg_path.write_text(json.dumps({**base, **edit}))
        code, _, err = _run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(out_dir))
        assert code == 2, edit
        assert "bad experiment config" in err and next(iter(edit)) in err
        assert not out_dir.exists()


@pytest.mark.parametrize("key", ["spacing_hz", "delta"])
def test_simulate_refuses_an_int_beyond_the_float_range(key, no_library_load, tmp_path, capsys):
    # a 401-digit spacing used to end in an OverflowError traceback
    cfg_path = _json_file(tmp_path / "exp.json", {"library": "lib.json", "trials": 1, key: 10**400})
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "simulate", "--config", cfg_path, "--out-dir", str(out_dir))
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad experiment config: {key} must be") and err.count("\n") == 1
    assert not out_dir.exists()


def test_simulate_rejects_misspelled_key(tiny_lib_dir, tmp_path, capsys):
    # profile_ref is the field's name, but the config calls it profile
    for key in ("trails", "profile_ref"):
        cfg = {"library": str(tiny_lib_dir / "library.json"), "source": {"n_latents": 8}, key: 1, "n_sc": 8}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code, _, err = _run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(out_dir))
        assert code == 2
        assert "bad experiment config" in err and key in err
        assert not out_dir.exists()


@pytest.mark.parametrize(
    "profile, message",
    [
        ("/nonexistent/tdl.json", "No such file"),
        ({}, "need a JSON object with a 'taps' list"),
        ({"taps": [{"delay_ns": 0}]}, "tap 0 needs a finite number 'power_db', got None"),
    ],
)
def test_simulate_rejects_a_bad_profile_before_loading(profile, message, no_library_load, tmp_path, capsys):
    # a missing profile file used to load the whole library first and then
    # fail without the config prefix
    if not isinstance(profile, str):
        profile = _json_file(tmp_path / "profile.json", profile)
    cfg_path = _json_file(tmp_path / "exp.json", {"library": "lib.json", "profile": profile, "trials": 1})
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "simulate", "--config", cfg_path, "--out-dir", str(out_dir))
    assert code == 2 and out == ""
    assert err.startswith("error: bad experiment config: ") and message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("label", ["TDL, 300 ns", "two\nlines", "carriage\rreturn", 'say "tdl"', 7, None])
def test_a_profile_label_that_would_break_report_csv_exits_2_before_loading(label, no_library_load, tmp_path, capsys):
    # the label goes into report.csv unquoted: a comma added a field, a line
    # break split the row, and a number loaded as an int
    profile = _json_file(tmp_path / "profile.json", {"label": label, "taps": [{"delay_ns": 0, "power_db": 0}]})
    message = f"profile file {profile}: label must be a string without ',', '\"', CR or LF, got {label!r}"
    code, out, err = _run(capsys, "allocate", "--library", "lib.json", "--profile", profile)
    assert code == 2 and out == "" and message in err
    cfg_path = _json_file(tmp_path / "exp.json", {"library": "lib.json", "profile": profile, "trials": 1})
    code, out, err = _run(capsys, "simulate", "--config", cfg_path, "--out-dir", str(tmp_path / "out"))
    assert code == 2 and out == "" and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "source",
    [{key: value} for key, value in (
        ("variance_law", "fixed"), ("var_lo", 0.01), ("var_hi", 4.0), ("fixed_variances", [1.0]),
        ("frac_negligible", 0.2), ("delta", 0.4), ("mean_law", "uniform"), ("mean_lo", -1.0),
        ("mean_hi", 1.0), ("clip_3sigma", False),
    )]
    + [{"n_latents": v} for v in (0, -1, "512", True, 1.5)]
    + [{"seed": v} for v in ("0", True, 1.5)],
)
def test_simulate_rejects_bad_source_before_loading(source, no_library_load, tmp_path, capsys):
    # n_latents 0 used to report a NaN row and "512" to crash after the library was loaded
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"library": "lib.json", "source": source, "trials": 1}))
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(out_dir))
    assert code == 2 and out == ""
    assert "bad experiment config" in err and next(iter(source)) in err
    assert not out_dir.exists()


def _readme_config():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"`simulate` expects a JSON config:\s*```json\n(.*?)```", text, re.S)
    return json.loads(block.group(1))


def test_readme_default_sweep_is_pinned(tmp_path, capsys):
    # the README's sweep (512 latents, exp-pdp(300), 5/10/15 dB, 200 trials,
    # seed 0) on the benchmark's library fixture, byte for byte
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({**_readme_config(), "library": str(FIXTURE_LIBRARY)}))
    out_dir = tmp_path / "sweep"
    code, _, err = _run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(out_dir), "--detail")
    assert code == 0, err
    names = ("report.csv", "report.json")
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}
    assert digests == {
        "report.csv": "2ca7031b02c9b01a423fc2a616f9279a2c54bbf8e917e24f55f3ecbd035a6b5e",
        "report.json": "c551f77ef18d5e60045bd0195da474560f014bb403b733484a6ab631fe9f2b4e",
    }


def test_readme_simulate_config_loads(tiny_lib_dir, tmp_path, capsys, monkeypatch):
    # the README's config block is a valid config, so docs and keys cannot drift apart
    doc = _readme_config()
    doc["library"] = str(tiny_lib_dir / "library.json")
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    seen = []
    monkeypatch.setattr(cli.sim, "run_experiment", lambda cfg, lib, keep_trials: seen.append(cfg) or [])
    code, _, err = _run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"))
    assert code == 0, err
    (cfg,) = seen
    assert cfg.source == simulator.SyntheticSourceConfig(**doc["source"])
    assert cfg.profile_ref == doc["profile"]
    for key in ("n_sc", "spacing_hz", "trials", "seed"):
        assert getattr(cfg, key) == doc[key]
    assert list(cfg.snr_db) == doc["snr_db"]


def test_ber_check_smoke(tiny_lib_dir, capsys):
    code, out, _ = _run(
        capsys,
        "ber-check",
        "--library", str(tiny_lib_dir / "library.json"),
        "--bits-per-point", "200000",
        "--seed", "4",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("m,target_ber,gamma_th,")
    assert len(lines) == 1 + 4 * 2  # four orders x two grid targets
    # the hard decisions of 200 000 bits per point, pinned: the measured BER of
    # each (order, target) is an exact count, so any change to a decision shows
    assert [line.split(",")[3] for line in lines[1:]] == [
        "0.01019", "0.05017",  # QPSK at 0.01 and 0.05
        "0.010305", "0.05006",  # 16-QAM
        "0.01034510345103451", "0.04917549175491755",  # 64-QAM
        "0.01005", "0.05005",  # 256-QAM
    ]


@pytest.fixture
def no_measurement(monkeypatch):
    """Fail the test if ber-check measures a point before checking its input."""

    def refuse(*args, **kwargs):
        raise AssertionError("a BER point was measured before the input was checked")

    monkeypatch.setattr(cli.sim, "measure_link_ber", refuse)


def test_ber_check_rejects_an_empty_target_list(no_measurement, capsys):
    # used to print a bare header and exit 0 without checking anything
    code, out, err = _run(capsys, "ber-check", "--eps", "--bits-per-point", "1000")
    assert code == 2 and out == ""
    assert "no BER target" in err


@pytest.mark.parametrize("targets", [["0.01", "0"], ["0.01", "0.02", "0.5"], ["0.01", "nan"]])
def test_ber_check_checks_every_target_before_measuring(targets, no_measurement, capsys):
    # a bad later target used to be refused only after the earlier points
    # were measured, about 1.3 s at 2e7 bits per point
    code, out, err = _run(capsys, "ber-check", "--eps", *targets, "--bits-per-point", "20000000")
    assert code == 2 and out == ""
    assert "target BER" in err


@pytest.mark.parametrize("bits", ["0", "-5"])
def test_ber_check_rejects_bit_counts_below_one(bits, no_measurement, no_library_load, capsys):
    # used to measure one symbol, write the count into the bits column and exit 1
    for extra in (("--eps", "0.01"), ("--library", "lib.json")):
        code, out, err = _run(capsys, "ber-check", "--bits-per-point", bits, *extra)
        assert code == 2 and out == ""
        assert "--bits-per-point" in err


@pytest.mark.parametrize("library", [0, 3, None, 1.5, ["lib.json"]])
def test_simulate_rejects_a_library_that_is_not_a_path(library, tmp_path, capsys):
    # an int used to be opened as a file descriptor: 0 read stdin and blocked on a terminal
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"library": library, "source": {"n_latents": 8}, "trials": 1, "n_sc": 8}))
    out_dir = tmp_path / "out"
    code, out, err = _run(capsys, "simulate", "--config", str(cfg_path), "--out-dir", str(out_dir))
    assert code == 2 and out == ""
    assert "bad experiment config" in err and "library path" in err
    assert not out_dir.exists()


def _json_file(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def _a_file(path):
    """A regular file where a command expects a directory."""
    path.write_text("")
    return str(path)


# each subcommand's failing inputs: argv from (tiny library path, a scratch
# directory), the exit code the cli docstring documents, and a piece of the
# one error line
_FAILING_INPUTS = {
    "build-library: --out is a file": (
        lambda lib, tmp: ["build-library", "--out", _a_file(tmp / "f"), "--b-max", "1", "--eps", "0.05"],
        2, "File exists",
    ),
    "build-library: b_max above 12": (
        lambda lib, tmp: ["build-library", "--out", str(tmp / "lib"), "--b-max", "13"], 2, "b_max must be in",
    ),
    "design-quantizer: zero bits": (
        lambda lib, tmp: ["design-quantizer", "--bits", "0", "--eps", "0.05"], 2, "bit_depth must be >= 1",
    ),
    "allocate: no library file": (
        lambda lib, tmp: ["allocate", "--library", str(tmp / "none.json")], 2, "cannot read library file",
    ),
    "allocate: stats without variances": (
        lambda lib, tmp: ["allocate", "--library", lib, "--stats", _json_file(tmp / "s.json", {"means": [0.0]})],
        2, "no 'variances' key",
    ),
    "allocate: variance above sigma_max^2": (
        lambda lib, tmp: [
            "allocate", "--library", lib, "--n-sc", "16",
            "--stats", _json_file(tmp / "s.json", {"means": [0.0], "variances": [1e9]}),
        ],
        2, "(variances must be clamped to sigma_max^2)",
    ),
    "allocate: no rate at -60 dB": (
        lambda lib, tmp: ["allocate", "--library", lib, "--n-latents", "8", "--n-sc", "8", "--snr-db", "-60"],
        3, "no BER target achieves a positive symbol rate",
    ),
    "allocate: --out under a file": (
        lambda lib, tmp: ["allocate", "--library", lib, "--n-latents", "8", "--n-sc", "8", "--out",
                          str(Path(_a_file(tmp / "f")) / "plan.json")],
        2, "Not a directory",
    ),
    "allocate: profile file without taps": (
        lambda lib, tmp: ["allocate", "--library", lib, "--profile", _json_file(tmp / "p.json", {})],
        2, "need a JSON object with a 'taps' list",
    ),
    "simulate: config not JSON": (
        lambda lib, tmp: ["simulate", "--config", _a_file(tmp / "c.json")], 2, "bad experiment config",
    ),
    "simulate: no rate at -40 dB": (
        lambda lib, tmp: [
            "simulate", "--out-dir", str(tmp / "out"), "--config",
            _json_file(tmp / "c.json", {
                **_readme_config(), "library": str(FIXTURE_LIBRARY),
                "source": {"n_latents": 64, "seed": 0}, "snr_db": [-40.0],
            }),
        ],
        3, "at -40.0 dB: no BER target achieves a positive symbol rate",
    ),
    "simulate: profile not a string": (
        lambda lib, tmp: [
            "simulate", "--out-dir", str(tmp / "out"), "--config",
            _json_file(tmp / "c.json", {"library": lib, "profile": 5}),
        ],
        2, "profile_ref must be a string, got 5",
    ),
    "simulate: no profile file": (
        lambda lib, tmp: [
            "simulate", "--out-dir", str(tmp / "out"), "--config",
            _json_file(tmp / "c.json", {"library": lib, "profile": str(tmp / "none.json"), "trials": 1}),
        ],
        2, "bad experiment config: [Errno 2] No such file or directory",
    ),
    "simulate: profile file without taps": (
        lambda lib, tmp: [
            "simulate", "--out-dir", str(tmp / "out"), "--config",
            _json_file(tmp / "c.json", {"library": lib, "profile": _json_file(tmp / "p.json", {}), "trials": 1}),
        ],
        2, "bad experiment config: profile file",
    ),
    "simulate: --out-dir is a file": (
        lambda lib, tmp: [
            "simulate", "--out-dir", _a_file(tmp / "f"), "--config",
            _json_file(tmp / "c.json", {"library": lib, "source": {"n_latents": 8}, "trials": 1, "n_sc": 8}),
        ],
        2, "File exists",
    ),
    "ber-check: no library file": (
        lambda lib, tmp: ["ber-check", "--library", str(tmp / "none.json")], 2, "cannot read library file",
    ),
    "ber-check: no target": (lambda lib, tmp: ["ber-check", "--eps"], 2, "no BER target to check"),
}


@pytest.mark.parametrize("case", sorted(_FAILING_INPUTS))
def test_each_failing_input_exits_with_its_documented_code(case, tiny_lib_dir, tmp_path, capsys):
    # main alone maps an error to its exit code; simulate at -40 dB used to
    # end in a NoFeasibleRateError traceback
    argv, want, text = _FAILING_INPUTS[case]
    code, out, err = _run(capsys, *argv(str(tiny_lib_dir / "library.json"), tmp_path))
    assert code == want and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ") and text in line and "Traceback" not in err


def test_bad_subcommand_exit_2(capsys):
    assert main(["no-such-command"]) == 2


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "0.1.0"
