"""The benchmark's imports and hooks still fit the sources.

perfbench drives devmux from outside and patches its modules by name, so a
change under ``src/`` can break it without failing any other test.  Each
workload here builds both stacks under the span tracer, runs one step and
verifies it; nothing under ``perfbench/`` is changed.  The profiler in
``tools/profile_step.py`` builds the same stacks.
"""

import os
import re
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import harness  # noqa: E402
import spans  # noqa: E402
from devmux.bench import BenchConfig  # noqa: E402

MAX_SPANS = 10_000


@pytest.mark.parametrize("workload", ("matmul", "stream", "tenants"))
def test_one_traced_step_per_stack_verifies_and_accounts(workload):
    tracer = spans.Tracer(MAX_SPANS)
    digests = {}
    tracer.install()
    try:
        for driver in ("library", "legacy"):
            tracer.select(driver, "setup")
            stack = harness.Stack(workload, driver, BenchConfig())
            tracer.run_step(driver, "step", stack.step)
            tracer.select(driver, "verify")
            digests[driver] = stack.finalize()
    finally:
        tracer.uninstall()
    assert tracer.accounting_failures == 0
    assert digests["library"] == digests["legacy"]
    for driver in ("library", "legacy"):
        assert tracer.buckets[(driver, "step")]["calls.SimDevice.step"] > 0


def test_profile_step_prints_a_profile_of_one_step():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "profile_step.py"),
         "--workload", "matmul", "--driver", "library", "--steps", "1"],
        cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert lines[0].startswith("matmul library: 1 steps, ")
    assert "own ms/step" in lines[1]
    assert any("(step)" in line for line in lines[2:])


def test_profile_step_prints_a_profile_of_one_verify():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "profile_step.py"),
         "--workload", "stream", "--driver", "legacy", "--steps", "1",
         "--phase", "verify"],
        cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert re.fullmatch(r"stream legacy: first verify, \d+\.\d{3} ms \(cold\)",
                        lines[0])
    assert lines[1].startswith("stream legacy: 1 verifies, ")
    assert "own ms/verify" in lines[2]
    assert any("(finalize)" in line for line in lines[3:])
    # the frame is read back on every verify; the expected frame is built
    # once per salt, so the warm verifies here reuse the cold one's
    assert any("(scanout)" in line for line in lines[3:])


def test_profile_step_prints_a_profile_of_one_setup():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "profile_step.py"),
         "--workload", "tenants", "--driver", "library", "--steps", "1",
         "--phase", "setup"],
        cwd=root, capture_output=True, text=True, check=True).stdout
    lines = out.splitlines()
    assert re.fullmatch(r"tenants library: first setup, \d+\.\d{3} ms \(cold\)",
                        lines[0])
    assert lines[1].startswith("tenants library: 1 setups, ")
    assert "own ms/setup" in lines[2]
    assert any("(iommu_map_page)" in line for line in lines[3:])
    # a set-up phase builds stacks and runs none
    assert not any("(step)" in line for line in lines[3:])


def test_profile_step_stops_quietly_when_its_reader_goes():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, os.path.join(root, "tools", "profile_step.py"),
         "--workload", "tenants", "--driver", "library", "--steps", "1"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()  # as ``| head -0`` does
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""
