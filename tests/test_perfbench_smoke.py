"""The benchmark's imports and hooks still fit the sources.

perfbench drives devmux from outside and patches its modules by name, so a
change under ``src/`` can break it without failing any other test.  Each
workload here builds both stacks under the span tracer, runs one step and
verifies it; nothing under ``perfbench/`` is changed.
"""

import os
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
