"""Count the code lines of Python files: the lines that hold a token other than a comment, a
line break or an indent, and that are not part of a docstring.

    python tests/code_lines.py src/watertank/*.py

prints each file's count and their total. A token that spans lines, such as a string in
triple quotes, counts every line it spans; a docstring is the string that opens a module,
class or function body, and counts none.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths) -> None:
    total = 0
    for path in paths:
        n = code_lines(Path(path).read_text())
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
