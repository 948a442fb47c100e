"""Count the code lines of Python source files.

A code line is a line that holds part of a token other than a comment and
is not part of a docstring (the string that opens a module, class or
function body).  Blank lines, comment lines and docstring lines do not
count; a line of code with a trailing comment does.

Usage::

    python scripts/code_lines.py src/heckehom

Each argument is a ``.py`` file or a directory searched for them; the
script prints the total over all of them.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _files(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for name in paths:
        path = Path(name)
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help=".py files or directories")
    args = parser.parse_args(argv)
    print(sum(code_lines(path.read_text(encoding="utf-8")) for path in _files(args.paths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
