"""``tools/code_lines.py`` counts the lines on which code starts."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment

# a comment line
class A:
    """Class docstring."""

    x = """an assigned string,
    not a docstring"""

    def f(self):
        """Function docstring."""
        return (1,
                2)
'''


def test_counts_code_lines_only():
    # import, class, x = ..., def, return (1, and 2).
    assert code_lines.code_lines(SOURCE) == 6


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     6  pkg/a.py",
        "     2  pkg/b.py",
        "     8  total",
    ]
