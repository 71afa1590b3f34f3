"""``tools/size.py``: the statement count that sizes the modules."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "size", os.path.join(ROOT, "tools", "size.py"))
size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size)

SOURCE = '''"""Module docstring: not counted."""
import os                      # 1


class Box:                     # 2
    """Class docstring: not counted."""
    SIZE = 4                   # 3

    def grow(self, n):         # 4
        """Method docstring: not counted."""
        "a later bare string is no docstring"   # 5
        for _ in range(n):     # 6
            if n:              # 7
                self.SIZE += 1 # 8
            else:
                pass           # 9
        return self.SIZE       # 10


def outer():                   # 11
    def inner():               # 12
        """Nested docstring: not counted."""
        return 1               # 13
    return inner               # 14
'''


def test_docstrings_are_left_out_and_nested_statements_counted():
    assert size.count_statements(SOURCE) == 14
    assert size.count_statements('"""Only a docstring."""\n') == 0
    assert size.count_statements("x = 1\n") == 1


def test_every_module_is_listed_with_its_lines():
    out = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "size.py")],
                         capture_output=True, text=True, check=True).stdout
    sizes = json.loads(out)
    assert "src/devmux/simdev.py" in sizes
    assert "src/devmux/bench/cli.py" in sizes
    with open(os.path.join(ROOT, "src", "devmux", "devcore.py"), "rb") as fh:
        assert sizes["src/devmux/devcore.py"]["lines"] == fh.read().count(b"\n")
