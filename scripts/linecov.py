"""Statements of ``src/cstg/`` that the tier-1 suite never runs.

Runs the suite in this process under ``sys.settrace`` and prints one line
per statement that had no line event:

    <file> :: <enclosing function> :: <first line of the statement>

Statements come from ``ast`` (docstrings are not statements here), and an
entry names no line number, so an edit elsewhere in a file leaves the list
as it was.  A statement runs when any line of its own (its header, for a
compound statement) has a line event.  ``nonlocal``, ``global`` and a bare
annotation in a function emit none, so they are always listed.

    python scripts/linecov.py > scripts/linecov.expected   # write the list
    python scripts/linecov.py --check scripts/linecov.expected

With ``--check`` it exits 1 if a statement that did not run is missing from
the list, and names the list's entries that now run.  Either way it exits 1
if the suite fails.  pytest's own report goes to stderr.  Standard library
only, besides pytest; a traced run takes several times the untraced one.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import sys
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "cstg")


def statements(path: str):
    """(lines, scope, text) per statement of the file at ``path``, in source
    order: the lines whose event means it ran, the dotted names of its
    enclosing functions and classes, and its first line, stripped."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines = source.splitlines()

    def walk(body, scope):
        for idx, node in enumerate(body):
            if (idx == 0 and isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue  # a docstring
            inner = [b for b in ("body", "orelse", "finalbody") if getattr(node, b, None)]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            last = max(first, node.body[0].lineno - 1) if inner else node.end_lineno
            text = lines[node.lineno - 1].strip()
            yield range(first, last + 1), ".".join(scope) or "<module>", text
            named = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            for b in inner:
                yield from walk(getattr(node, b),
                                scope + [node.name] if named and b == "body" else scope)
            for handler in getattr(node, "handlers", ()):
                yield from walk(handler.body, scope)

    yield from walk(ast.parse(source, path).body, [])


def traced_suite(args) -> tuple[int, dict]:
    """pytest's exit code and the lines with a line event, per file."""
    import pytest

    seen = {os.path.join(PACKAGE, name): set() for name in os.listdir(PACKAGE)
            if name.endswith(".py")}

    def trace(frame, event, arg):
        hits = seen.get(frame.f_code.co_filename)
        if hits is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    sys.path.insert(0, os.path.dirname(PACKAGE))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="LIST", help="compare with a committed list")
    opts = parser.parse_args(argv)
    os.chdir(ROOT)
    if "cstg" in sys.modules:
        raise SystemExit("cstg is imported already: its module lines would not be seen")
    code, seen = traced_suite(["-q", "-p", "no:cacheprovider", "tests"])
    if code != 0:
        print(f"linecov: the suite failed (pytest exit {code})", file=sys.stderr)
        return 1
    missed = [f"{os.path.relpath(path, ROOT)} :: {scope} :: {text}"
              for path in sorted(seen)
              for lines, scope, text in statements(path)
              if not seen[path].intersection(lines)]
    if opts.check is None:
        print("\n".join(missed))
        return 0
    with open(opts.check, encoding="utf-8") as f:
        expected = Counter(line for line in f.read().splitlines() if line)
    new = Counter(missed) - expected
    for entry in expected - Counter(missed):
        print(f"linecov: runs now, so can leave the list: {entry}", file=sys.stderr)
    for entry in new.elements():
        print(f"linecov: no test runs this statement: {entry}")
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
