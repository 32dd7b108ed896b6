import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = (
        '"""Module doc."""\n'
        "\n"
        "import os  # a trailing comment leaves a code line\n"
        "# a comment line\n"
        "class A:\n"
        "    '''One line.'''\n"
        "    def f(self, x):\n"
        '        """Two\n'
        '        lines."""\n'
        "        return os.path.join(\n"
        '            x, """not a docstring"""\n'
        "        )\n"
    )
    # import, class, def and the three lines of the return statement
    assert _tool().code_lines(source) == 6


def test_code_lines_total_is_the_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "b.py").write_text('"""Doc."""\nz = 3\n')
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["2 a.py", "1 b.py", "3 total", ""]
