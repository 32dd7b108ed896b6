#!/usr/bin/env python3
"""Count the code lines of each module of a Python package, and their total.

A code line holds at least one token that is not a comment. Blank lines,
comment lines and the lines of docstrings (the string that opens a module,
class or function body) do not count; a line that is part of any other
statement does, so a multi-line call counts every line it spans.

    python3 tools/code_lines.py                 # src/quantlink
    python3 tools/code_lines.py path/to/package

Prints one `<count> <module>` line per module, sorted by name, then
`<total> total`.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

DEFAULT_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quantlink"
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def package_lines(package: Path) -> dict[str, int]:
    """Code lines per module file directly under `package`, keyed by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", type=Path, nargs="?", default=DEFAULT_PACKAGE)
    args = parser.parse_args(argv)
    counts = package_lines(args.package)
    width = len(str(sum(counts.values())))
    for name, count in counts.items():
        print(f"{count:>{width}} {name}")
    print(f"{sum(counts.values()):>{width}} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
