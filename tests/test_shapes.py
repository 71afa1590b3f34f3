"""The equivalence gate: every ledger row, digest, schedule, switch timing
and attack outcome that ``tools/shape_dump.py`` prints must stay
byte-identical to ``tests/golden/shapes.json``.  A change that means to
alter them regenerates the file and says so:

    PYTHONPATH=src python tools/shape_dump.py > tests/golden/shapes.json
"""

import difflib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "shapes.json")


def test_shape_dump_matches_the_golden_file():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    dump = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "shape_dump.py")],
                          cwd=ROOT, env=env, capture_output=True, check=True).stdout
    with open(GOLDEN, "rb") as f:
        golden = f.read()
    if dump != golden:
        diff = difflib.unified_diff(golden.decode().splitlines(),
                                    dump.decode().splitlines(),
                                    "golden", "shape_dump.py", lineterm="", n=2)
        raise AssertionError("shape dump differs from the golden file:\n"
                             + "\n".join(list(diff)[:40]))
