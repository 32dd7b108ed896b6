import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "settable_values.py"

MODULE = '''
import argparse
from dataclasses import dataclass, field

__all__ = ["f", "Cfg", "Plain", "LIMIT"]
LIMIT = 3


def f(x, y=1, *, z=2):  # 2
    return x


def _hidden(a=1):  # not exported
    return a


@dataclass
class Cfg:
    a: int  # required
    b: int = 1  # 1
    c: list = field(default_factory=list)  # 1
    d: int = field(default=0, init=False)  # not an init field

    def m(self, k, t=0.5):  # 1
        return k

    @staticmethod
    def s(u=1):  # 1
        return u

    def _p(self, q=1):  # private
        return q

    @property
    def n(self):
        return 1


class Plain:
    def __init__(self, u=3):  # 1
        self.u = u


def build_parser():
    p = argparse.ArgumentParser(prog="tool")
    p.add_argument("--version", action="version", version="1")
    p.add_argument("--verbose", action="store_true")  # 1, top level
    sub = p.add_subparsers()
    run = sub.add_parser("run")
    run.add_argument("path")  # positional: an input
    run.add_argument("--fast", action="store_true")  # 1
    run.add_argument("--n", type=int, default=1)  # 1
    sub.add_parser("show")
    return p
'''


def _tool():
    spec = importlib.util.spec_from_file_location("settable_values", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_settable_values_count_defaults_fields_methods_and_options(tmp_path, capsys):
    package = tmp_path / "settable_fixture_pkg"
    package.mkdir()
    # a re-export counts where it is defined, not again in the package
    (package / "__init__.py").write_text('from .mod import f\n__all__ = ["f"]\n')
    (package / "mod.py").write_text(MODULE)
    try:
        assert _tool().main([str(package)]) == 0
    finally:
        for name in [n for n in sys.modules if n.startswith("settable_fixture_pkg")]:
            del sys.modules[name]
    # mod.py: f 2, Cfg 2 + m 1 + s 1, Plain 1, options 1 + 2
    assert capsys.readouterr().out.split("\n") == [
        " 0 __init__.py",
        "10 mod.py",
        " 1 mod.py tool",
        " 2 mod.py run",
        "10 total",
        "",
    ]
    assert str(tmp_path) not in sys.path


# src/quantlink's table; a change that adds or removes a setting updates it
# and says so in CHANGES.md
QUANTLINK_VALUES = """\
 0 __init__.py
 0 _checks.py
 0 _version.py
 4 allocator.py
 4 channel.py
27 cli.py
 4 cli.py build-library
 3 cli.py design-quantizer
13 cli.py allocate
 3 cli.py simulate
 4 cli.py ber-check
 0 gaussian.py
 3 library.py
 0 modem.py
 8 quantizer.py
 0 rng.py
11 simulator.py
57 total
"""


def test_quantlink_settable_values_are_pinned(capsys):
    assert _tool().main([]) == 0
    assert capsys.readouterr().out == QUANTLINK_VALUES
