"""Statements of ``src/safelogrank`` that no tier-1 test executes.

Runs the tier-1 suite in this process under ``sys.settrace``, recording the
lines executed in the package's files only, and prints each statement none
of whose own lines ran, as ``path:line: text``.  A statement's own lines are
its span less the statements nested in it (a compound statement's are its
header's); statements that compile to no byte code, such as docstrings, are
skipped.  pytest does not collect this file.  Run it from the repository root:

    python tests/uncovered.py [pytest arguments]

Under the trace the suite takes about twice its usual wall time.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "safelogrank"


def _code_lines(code) -> set[int]:
    """The lines of ``code`` and of every code object nested in it that hold byte code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(tree: ast.AST):
    """Every statement of ``tree`` with its own lines."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        nested = [child for field in ("body", "orelse", "finalbody", "handlers", "cases")
                  for child in getattr(node, field, ()) if hasattr(child, "lineno")]
        end = min((c.lineno for c in nested), default=node.end_lineno + 1) - 1
        yield node, set(range(node.lineno, max(node.lineno, end) + 1))


def uncovered(executed: dict[str, set[int]]) -> list[str]:
    """``path:line: text`` of each package statement none of whose own
    lines is in ``executed`` (lines by file name)."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        compiled = _code_lines(compile(source, str(path), "exec"))
        ran = executed.get(str(path), set())
        missed = [node.lineno for node, own in _statements(ast.parse(source))
                  if own & compiled and not own & ran]
        for line in sorted(set(missed)):
            out.append(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    import pytest  # the test runner; the trace itself needs only the standard library

    package = str(PACKAGE) + "/"
    executed: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(package):
            return None
        executed.setdefault(name, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = uncovered(executed)
    print(f"\n{len(missed)} statements in src/safelogrank executed by no test:")
    print("\n".join(missed))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
