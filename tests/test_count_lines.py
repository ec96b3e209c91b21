"""The line counter in ``tools/count_lines.py``: which lines count as code."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"
spec = importlib.util.spec_from_file_location("count_lines", TOOL)
count_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(count_lines)

SOURCE = '''"""A module docstring,
over two lines."""

# a comment
import os  # a comment after code


def f(a,
      b):
    """A function docstring."""
    x = """a string that is
not a docstring"""
    return (a +
            b)


class C:
    """A class docstring."""

    y = 1
'''
CODE_LINES = [5, 8, 9, 11, 12, 13, 14, 17, 20]


def test_code_lines_skip_docstrings_comments_and_blanks():
    assert count_lines.docstring_lines(count_lines.ast.parse(SOURCE)) == {1, 2, 10, 18}
    assert count_lines.count(SOURCE) == (20, len(CODE_LINES))


def test_each_file_then_the_total_per_path(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert count_lines.main([str(tmp_path / "pkg"), str(tmp_path / "pkg" / "b.py")]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     20       9  {tmp_path / 'pkg' / 'a.py'}",
        f"      2       1  {tmp_path / 'pkg' / 'b.py'}",
        f"     22      10  {tmp_path / 'pkg'} (total)",
        f"      2       1  {tmp_path / 'pkg' / 'b.py'}",
        f"      2       1  {tmp_path / 'pkg' / 'b.py'} (total)",
    ]


def test_default_paths_from_the_repository_root():
    out = subprocess.run([sys.executable, str(TOOL)], cwd=TOOL.parents[1], capture_output=True,
                         text=True, check=True).stdout
    totals = [line.rsplit("  ", 1)[1] for line in out.splitlines() if line.endswith("(total)")]
    assert totals == ["src/patcon (total)", "tools (total)", "tests (total)"]
