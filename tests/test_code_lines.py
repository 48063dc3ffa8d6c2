"""tools/code_lines.py counts code lines by ROADMAP's rule: not blank, not a
comment, not a module, class or function docstring."""

import os
import subprocess
import sys

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "code_lines.py")

# 9 code lines: the import, the class line, `n = (1,` and `2)`, the def
# line with its one-line docstring, the other def line, the string
# assignment's two lines and the return; the rest is docstrings, comments
# and blank lines
FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line


class Thing:
    """A class docstring."""

    # a comment line
    n = (1,
         2)

    def name(self): """A docstring on its def's line."""

    def text(self):
        """A function docstring
        over two lines."""
        s = """a string that is
        not a docstring"""
        return s
'''


def test_counts_code_lines_of_each_module_and_the_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("# only a comment\n\nx = 1\n")
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    done = subprocess.run([sys.executable, TOOL, str(tmp_path / "pkg")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        f"     9  {tmp_path / 'pkg' / 'a.py'}",
        f"     1  {tmp_path / 'pkg' / 'b.py'}",
        "    10  total"]
