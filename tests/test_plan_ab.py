import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "plan_ab.py"


def _tool():
    spec = importlib.util.spec_from_file_location("plan_ab", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plan_ab_runs_this_checkout_as_both_sides(capsys):
    code = _tool().main(["--parent", str(ROOT), "--change", str(ROOT), "--rounds", "1", "--seed", "3"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 9
    assert [line.split(":")[0] for line in out[:4]] == ["round 1 change", "round 1 parent", "parent", "change"]
    assert all(line.endswith(" us on fresh channels") for line in out[:2])
    assert out[4].startswith("change faster in ") and out[4].endswith("/1 rounds")
    # the plans on fresh copies of the channels, timed apart
    assert [line.split(":")[0] for line in out[5:7]] == ["parent on fresh channels", "change on fresh channels"]
    assert all(" median " in line and " quartiles " in line for line in out[2:4] + out[5:7])
    assert out[7].startswith("change faster on fresh channels in ") and out[7].endswith("/1 rounds")
    assert out[8] == "plans the same on both sides and both kinds of channel"


def test_plan_ab_exits_1_when_a_plan_differs(tmp_path, capsys):
    # a copy whose selection sends one OFDM symbol more pads every plan with dummies
    other = tmp_path / "other"
    shutil.copytree(ROOT / "src", other / "src", ignore=shutil.ignore_patterns("__pycache__"))
    allocator = other / "src" / "quantlink" / "allocator.py"
    text = allocator.read_text(encoding="utf-8")
    t_sym = "math.ceil(b_lat[best] / r_sym[best])"
    assert t_sym in text
    allocator.write_text(text.replace(t_sym, t_sym + " + 1"), encoding="utf-8")
    code = _tool().main(["--parent", str(ROOT), "--change", str(other), "--rounds", "1", "--seed", "3"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("round 0 change: the plans of blocks [") and "differ from the parent's" in err
