"""Print the size of every module under ``src/devmux`` as one JSON document.

    python tools/size.py

For each module (keyed by its path from the repository root) it gives
``lines``, the lines of the file as ``wc -l`` counts them, and
``statements``, the number of ``ast`` statement nodes at every depth,
leaving out docstrings: the string that opens a module, class or function
body.  A compound statement counts once, and so does each statement nested
in it.  Standard library only.
"""

import ast
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "devmux")

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count_statements(source: str) -> int:
    """The statements of ``source`` at every depth, docstrings left out."""
    statements = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            statements += 1
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            statements -= 1  # the docstring, a statement of its own
    return statements


def module_sizes() -> dict:
    """``{path: {"lines": n, "statements": m}}`` for every ``.py`` file
    under ``src/devmux``."""
    sizes = {}
    for folder, _, files in os.walk(PACKAGE):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    source = fh.read()
                sizes[os.path.relpath(path, ROOT)] = {
                    "lines": source.count("\n"),
                    "statements": count_statements(source)}
    return sizes


if __name__ == "__main__":
    json.dump(module_sizes(), sys.stdout, indent=2, sort_keys=True)
    print()
