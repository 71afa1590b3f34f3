"""The error taxonomy holds only errors the program can raise."""

import ast
import inspect
import os

from devmux import errors

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "devmux")


def _raised_names() -> set:
    """Every name that a ``raise`` statement in ``src/devmux`` raises,
    called or not: ``raise OutOfVram(...)`` and ``raise OutOfVram``."""
    names = set()
    for root, _, files in os.walk(SRC):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name):
                        names.add(exc.id)
    return names


def test_every_leaf_error_is_raised_somewhere():
    classes = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.DevmuxError)
               and cls.__module__ == errors.__name__]
    leaves = {cls.__name__ for cls in classes if not cls.__subclasses__()}
    assert {"OutOfVram", "McFault", "VerifyFail"} <= leaves
    assert leaves - _raised_names() == set()
