"""tools/code_lines.py counts code lines: not blank lines, comment lines or
docstrings, but every line of any other string."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = runpy.run_path(str(ROOT / "tools" / "code_lines.py"))  # writes no bytecode

SOURCE = '''"""A module docstring
on two lines."""

import os  # a comment after code


# a comment line
class A:
    """A class docstring."""

    def f(self):
        """A function docstring
        on two lines."""
        text = """not a docstring,
        so both lines count"""
        return text


def g(): """a docstring after code on its line"""; return os
'''


def test_code_lines_of_a_small_module():
    # import, class, def f, the two lines of text, return, def g
    assert TOOL["code_lines"](SOURCE) == 7


def test_code_lines_lists_every_module_and_their_total(capsys):
    package = ROOT / "src" / "intraport"
    assert TOOL["main"]([str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [name for name, _ in rows] == sorted(p.stem for p in package.glob("*.py")) + ["total"]
    counts = [int(count) for _, count in rows]
    assert all(counts) and counts[-1] == sum(counts[:-1])
