"""tools/loc.py on two small packages written for each test."""

from __future__ import annotations

from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parents[1] / "tools"

# Three code lines: the import, the def and the return.
KEPT = '''"""Module docstring."""

import os  # a trailing comment


def f():
    """A function docstring
    over two lines."""
    # a comment line

    return os.sep
'''
# Four more: the class line and the three lines of one statement.
GROWN = KEPT + '''

class C:
    """A class docstring."""

    y = (
        2
    )
'''


@pytest.fixture
def loc(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS_DIR))
    import loc

    return loc


def package(root: Path, modules: dict[str, str]) -> Path:
    root.mkdir()
    for name, source in modules.items():
        (root / name).write_text(source, encoding="utf-8")
    return root


def test_counts_code_lines_only(loc, tmp_path, capsys):
    head = package(tmp_path / "head", {"kept.py": GROWN, "new.py": "a = 1\nb = 2\n"})
    assert loc.main([str(head)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     7  kept.py",
        "     2  new.py",
        "     9  total",
    ]


def test_base_joins_modules_of_either_side_and_ends_with_the_net(loc, tmp_path, capsys):
    base = package(tmp_path / "base", {"gone.py": "x = 1\n", "kept.py": KEPT})
    head = package(tmp_path / "head", {"kept.py": GROWN, "new.py": "a = 1\nb = 2\n"})
    assert loc.main([str(head), "--base", str(base)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1 ->      0     -1  gone.py",
        "     3 ->      7     +4  kept.py",
        "     0 ->      2     +2  new.py",
        "     4 ->      9     +5  total",
    ]
