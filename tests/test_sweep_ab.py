import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "sweep_ab.py"


def _tool():
    spec = importlib.util.spec_from_file_location("sweep_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_ab_runs_this_checkout_as_both_sides(capsys):
    code = _tool().main(["--parent", str(ROOT), "--change", str(ROOT), "--rounds", "1", "--trials", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 5
    assert [line.split(":")[0] for line in out[:4]] == ["round 0 parent", "round 0 change", "parent", "change"]
    assert out[4].startswith("change faster in ") and out[4].endswith("/1 rounds; report.csv the same on both sides")


def test_sweep_ab_exits_1_when_the_reports_differ(tmp_path, capsys):
    # a copy whose version string differs writes another version column
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (other / "benchmarks").mkdir()
    shutil.copy2(ROOT / "benchmarks" / "default_library.json", other / "benchmarks")
    shutil.copy2(ROOT / "README.md", other)
    (other / "src" / "quantlink" / "_version.py").write_text('__version__ = "0.0.0"\n')
    code = _tool().main(["--parent", str(ROOT), "--change", str(other), "--rounds", "1", "--trials", "1"])
    assert code == 1
    assert "round 0 change: report.csv differs from the parent's" in capsys.readouterr().err
