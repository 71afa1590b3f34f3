"""Print the lines of every module under ``src/devmux`` that the tier-1
suite never runs, as one JSON document.

    python tools/coverage.py [pytest arguments] > tools/coverage.json

Runs pytest in this process (by default on the tier-1 suite) under a
``sys.settrace`` tracer, also set with ``threading.settrace``, that records
the lines run in frames of modules under ``src/devmux``.  A module's
executable lines are the line numbers of its compiled code objects, as
``co_lines()`` gives them, leaving out the docstrings of the module, its
classes and its functions.  For each module (keyed by its path from the
repository root) it prints ``executable``, the number of those lines, and
``missed``, the sorted lines no test ran.  Code that a test runs in a
subprocess is not traced, so its lines count as missed.  pytest's own
output goes to standard error; the exit code is pytest's.

The traced run takes two to three times as long as an untraced one, so it
is not part of tier-1.  Standard library only, apart from pytest itself.
"""

import ast
import contextlib
import json
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "devmux")

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def executable_lines(path: str) -> set:
    """The lines of ``path`` that its code objects map to, docstrings
    left out."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines = set()
    codes = [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def trace_run(args) -> tuple:
    """Run pytest with ``args`` under the tracer; (exit code,
    ``{absolute path: lines run}``) for the modules under ``src/devmux``."""
    runs = {}
    by_filename = {}  # co_filename -> the set its lines go in, or None

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            ran = by_filename[filename]
        except KeyError:
            path = os.path.abspath(filename)
            ran = by_filename[filename] = (runs.setdefault(path, set())
                                           if path.startswith(PACKAGE + os.sep) else None)
        if ran is None:
            return None
        ran.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                ran.add(frame.f_lineno)
            return line
        return line

    import pytest
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), runs


def main(argv) -> int:
    os.chdir(ROOT)  # pytest reads its settings, src/ on the path among them, here
    code, runs = trace_run(argv or ["-q", "-p", "no:cacheprovider",
                                    "--continue-on-collection-errors"])
    report = {}
    for folder, _, files in sorted(os.walk(PACKAGE)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                lines = executable_lines(path)
                report[os.path.relpath(path, ROOT)] = {
                    "executable": len(lines),
                    "missed": sorted(lines - runs.get(path, set()))}
    json.dump(report, sys.stdout, indent=2)
    print()
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
