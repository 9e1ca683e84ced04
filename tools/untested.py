"""List the statements in ``src/cocite`` that the tier-1 tests never run.

Usage, from anywhere::

    python tools/untested.py [extra pytest arguments]

Runs ``pytest -m "not slow"`` over the repository in this process under a
``sys.settrace`` line trace restricted to ``src/cocite``, then prints each
statement (as ``ast`` parses it) that never ran, as ``path:line: source``,
followed by a count on stderr. It exits with pytest's status.

Only this process is traced: statements that run only in forked simulation
workers (``--workers`` above 1) or in subprocesses are listed as never run.
Uses the standard library only, since ``coverage`` is not a dependency.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cocite"


def trace_lines(seen: set[tuple[str, int]]):
    """A global trace function that adds (file, line) to ``seen`` for every
    line run in a file under ``PACKAGE``."""
    prefix = str(PACKAGE) + os.sep
    traced: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        keep = traced.get(name)
        if keep is None:
            keep = traced[name] = name.startswith(prefix)
        return local if keep else None

    return on_call


def statement_lines(node: ast.stmt) -> range:
    """The lines whose run means ``node`` ran: a compound statement's header,
    a simple statement's whole extent."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(node.lineno, max(body[0].lineno, node.lineno + 1))
    return range(node.lineno, node.end_lineno + 1)


def unrun(path: Path, ran: set[int]) -> list[ast.stmt]:
    """The statements of ``path`` none of whose lines ran. A docstring, a
    ``global`` and a ``nonlocal`` compile to no line of their own; a ``try``
    ran if its first statement did."""
    missed = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        lines = statement_lines(node.body[0] if isinstance(node, ast.Try) else node)
        if ran.isdisjoint(lines):
            missed.append(node)
    return sorted(missed, key=lambda node: node.lineno)


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    seen: set[tuple[str, int]] = set()
    tracer = trace_lines(seen)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-m", "not slow", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    count = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        ran = {line for name, line in seen if name == str(path)}
        source = path.read_text(encoding="utf-8").splitlines()
        for node in unrun(path, ran):
            print(f"{path.relative_to(ROOT)}:{node.lineno}: {source[node.lineno - 1].strip()}")
            count += 1
    print(f"{count} statements in {PACKAGE.relative_to(ROOT)} never ran", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
