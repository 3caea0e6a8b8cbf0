"""Repository tools: the code-line counter in ``tools/count_code_lines.py``."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_code_lines", _PATH)
count_code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_code_lines)

_FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment-only line


class Shape:
    """Class docstring."""

    sides = 4


def area(
    side,
):
    """Function docstring
    over
    three lines."""
    label = """a multi-line string
    that is not a docstring"""
    return math.pow(side, 2), label
'''


def test_counts_only_code_lines():
    # import, class, sides, def + 2 signature lines, 2 string lines, return
    assert count_code_lines.count_code_lines(_FIXTURE) == 9


def test_empty_and_docstring_only_sources_count_zero():
    assert count_code_lines.count_code_lines("") == 0
    assert count_code_lines.count_code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_counts_and_total(tmp_path, capsys):
    first = tmp_path / "a.py"
    first.write_text(_FIXTURE)
    second = tmp_path / "b.py"
    second.write_text("x = 1\n")
    assert count_code_lines.main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"9 {first}",
        f"1 {second}",
        "10 total",
    ]
