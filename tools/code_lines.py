"""Count the code lines of Python modules.

A code line is a line that is not blank, not a comment and not part of a
module, class or function docstring. Prints one line per module, its count
and its path, then the total:

    python tools/code_lines.py src/osscl

Arguments are .py files or directories, searched recursively.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER)


def _docstring_starts(tree):
    """(line, column) of each docstring of tree's module, classes and
    functions."""
    starts = set()
    for node in ast.walk(tree):
        if not isinstance(node, _DOCUMENTED) or not node.body:
            continue
        first = node.body[0]
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source):
    """The number of code lines in Python source text: the lines that hold
    a token other than a comment or a docstring."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING
                                     and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def _modules(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs.sort()
                yield from (os.path.join(root, f) for f in sorted(files)
                            if f.endswith(".py"))
        else:
            yield path


def main(argv):
    if not argv:
        print("usage: python tools/code_lines.py PATH [PATH ...]",
              file=sys.stderr)
        return 2
    total = 0
    for path in _modules(argv):
        with open(path, encoding="utf-8") as f:
            n = code_lines(f.read())
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
