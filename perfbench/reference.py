"""A fixed pure-Python loop that gauges how fast the host runs Python now.

The benchmark runs on shared machines whose speed changes by up to 1.8x
within seconds, in both wall and CPU time, because of load outside the
process.  Timing this loop around every step lets the benchmark report
host times at one nominal speed: a time measured while the loop took
``t_ref`` (the mean of its timings just before and just after) is reported
as ``time * NOMINAL_NS / t_ref``.  The loop uses the
operations the simulator spends its time on (struct unpacking, dict stores
and probes on tuple keys, integer arithmetic) and no devmux code, so a
change to devmux cannot change it.
"""

from __future__ import annotations

import gc
import struct
from time import perf_counter_ns

# The loop's time on an uncontended core of the machine the bounds were
# set on (Intel Xeon, 2 vCPUs, Python 3.11); reported times are scaled to it.
NOMINAL_NS = 750_000

_BLOB = bytes(range(256)) * 16


def _loop() -> int:
    words = struct.unpack_from("<1024I", _BLOB)
    table = {}
    h = 0xCBF29CE484222325
    for i, word in enumerate(words):
        h = ((h ^ word) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        table[(i & 63, word & 7)] = h
        if (i, 0) in table:
            h += 1
    return sum(words[i] * words[-i] for i in range(256)) + len(table) + h


def time_loop() -> int:
    """Run the loop twice; returns the wall time in ns.

    Garbage collection is held off meanwhile: a collection's cost depends
    on the benchmark's heap, not on how fast the host is.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        _loop()
        _loop()
        return perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
