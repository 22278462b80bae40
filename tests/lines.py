"""Code, docstring and total lines of each module of ``src/safelogrank``.

A docstring line is a line of a module, class or function docstring, found
with ``ast``.  A code line is any other line that holds a token by
``tokenize``, comments and blank lines left out; a token over several lines
counts each.  Total lines are every line of the file.  pytest does not
collect this file.  Run it from the repository root:

    python tests/lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "safelogrank"

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines |= set(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """Code, docstring and total lines of the module ``source``."""
    docstring = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code |= set(range(token.start[0], token.end[0] + 1))
    return len(code - docstring), len(docstring), len(source.splitlines())


def main() -> int:
    total = [0, 0, 0]
    print(f"{'module':<12} {'code':>6} {'doc':>6} {'total':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        total = [a + b for a, b in zip(total, counts)]
        print(f"{path.stem:<12} {counts[0]:>6} {counts[1]:>6} {counts[2]:>6}")
    print(f"{'all':<12} {total[0]:>6} {total[1]:>6} {total[2]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
