"""tools/sloc.py: the raw and code line counts of a package."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "sloc", Path(__file__).parents[1] / "tools" / "sloc.py"
)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

# 18 lines; code on 5, 8, 11 and 16 to 18: the assigned multi-line string
# is code, the three docstrings, the comments and the blank lines are not
FIXTURE = '''\
"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        # a comment inside

        text = """not a
docstring"""
        return text
'''


def test_counts_fixture(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert sloc.count(path) == (18, 6)


def test_main_totals_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert sloc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "raw", "code"], ["a.py", "18", "6"], ["b.py", "2", "1"], ["total", "20", "7"]]
