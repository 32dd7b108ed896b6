#!/usr/bin/env python3
"""Count the settable values of each module of a Python package, and their total.

A settable value is one a caller may set but need not:

  * a command-line option: an optional argument (other than --help and
    --version) of the parser that a module's build_parser() returns or of
    one of its subcommands, counted per subcommand;
  * a defaulted parameter of a public callable, that is of a function or
    class named in the module's __all__ and defined in that module. For a
    class these are the defaulted parameters of its constructor (for a
    dataclass, its init fields with a default or default factory) and of
    every public method defined in its body (a name without a leading
    underscore; properties are not methods here).

A required parameter or field is an input, not a setting, and a name that a
module re-exports from another counts only in the module that defines it.

    python3 tools/settable_values.py                 # src/quantlink
    python3 tools/settable_values.py path/to/package

Imports every module file directly under the package. Prints one
`<count> <module>` line per module, sorted by name, each followed by one
`<count> <module> <parser>` line per parser with options (a subcommand's
name, or the top-level parser's prog), then `<total> total`.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quantlink"


def _defaulted(fn) -> int:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):  # a builtin without a signature
        return 0
    return sum(p.default is not inspect.Parameter.empty for p in params)


def callable_values(module) -> int:
    """Defaulted parameters of the public callables `module` defines."""
    count = 0
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
            continue
        count += _defaulted(obj)
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
                if not attr.startswith("_") and inspect.isfunction(fn):
                    count += _defaulted(fn)
    return count


def cli_options(module) -> dict[str, int]:
    """Options per parser of the module's build_parser(), or {} without one."""
    build = getattr(module, "build_parser", None)
    if getattr(build, "__module__", None) != module.__name__:
        return {}
    out: dict[str, int] = {}
    pending = [(None, build())]
    while pending:
        name, parser = pending.pop(0)
        options = 0
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                pending.extend(action.choices.items())
            elif action.option_strings and not isinstance(action, (argparse._HelpAction, argparse._VersionAction)):
                options += 1
        if options:
            out[name or parser.prog] = options
    return out


def package_values(package: Path) -> dict[str, tuple[int, dict[str, int]]]:
    """(defaulted parameters, options per parser) per module file under `package`."""
    package = package.resolve()
    sys.path.insert(0, str(package.parent))
    try:
        out = {}
        for path in sorted(package.glob("*.py")):
            name = package.name if path.stem == "__init__" else f"{package.name}.{path.stem}"
            module = importlib.import_module(name)
            out[path.name] = (callable_values(module), cli_options(module))
        return out
    finally:
        sys.path.remove(str(package.parent))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", type=Path, nargs="?", default=DEFAULT_PACKAGE)
    args = parser.parse_args(argv)
    counts = package_values(args.package)
    totals = {name: params + sum(options.values()) for name, (params, options) in counts.items()}
    width = len(str(sum(totals.values())))
    for name, (params, options) in counts.items():
        print(f"{totals[name]:>{width}} {name}")
        for sub, count in options.items():
            print(f"{count:>{width}} {name} {sub}")
    print(f"{sum(totals.values()):>{width}} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
