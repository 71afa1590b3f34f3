"""Profile the benchmark's steady steps, its verify or its set-up, on one
driver stack.

    PYTHONPATH=src python tools/profile_step.py --workload {matmul,stream,tenants} \
        --driver {library,legacy} --steps N [--phase {step,verify,setup}]

Builds the stack that ``perfbench/run.py`` measures (``perfbench/harness.py``,
imported as is) and runs the launch step.  With ``--phase step`` (the
default) it times N steady steps without the profiler, then runs N more
under cProfile; with ``--phase verify`` it does the same with N calls of
``Stack.finalize()``, the read-back and host-oracle check that
``verify_s`` times; with ``--phase setup`` it does the same with N
constructions of a ``Stack``, the work that ``setup_s`` times, and builds
no stack beforehand.  It prints the milliseconds per call of both runs
and the functions with the most own time.  A verify or set-up phase first
times one cold call, on a line of its own.  A first verify also builds the
expected values and their digests, which are kept per shape (and per salt
for a frame) and shared by both stacks; the warm verifies that follow, at
an unchanged salt, skip the oracle and the hash.  On ``stream``, where
every step moves the salt on, the cold line is what a verify right after
a step costs, and the warm figure is the read-back and compare alone.  A
first set-up is the only one in the process that takes fresh pages from
the system, later ones reuse what the earlier ones freed; each set-up that
``setup_s`` samples runs in a process of its own, so it is a cold one.
cProfile adds a cost to every Python call, so the profiled figures overstate
call-heavy code: use them to find where the time goes, and
``perfbench/run.py`` to measure a change.
"""

import argparse
import cProfile
import os
import pstats
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from devmux.bench import BenchConfig  # noqa: E402
from harness import Stack  # noqa: E402

TOP = 15
PLURAL = {"step": "steps", "verify": "verifies", "setup": "setups"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("matmul", "stream", "tenants"))
    parser.add_argument("--driver", required=True, choices=("library", "legacy"))
    parser.add_argument("--steps", type=int, required=True)
    parser.add_argument("--phase", choices=("step", "verify", "setup"),
                        default="step")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.phase == "setup":
        def run():
            Stack(args.workload, args.driver, BenchConfig())
    else:
        stack = Stack(args.workload, args.driver, BenchConfig())
        stack.step()  # the launch: first bind and uploads
        run = stack.step if args.phase == "step" else stack.finalize
    if args.phase != "step":
        start = time.perf_counter()
        run()
        print(f"{args.workload} {args.driver}: first {args.phase}, "
              f"{(time.perf_counter() - start) * 1e3:.3f} ms (cold)")
    start = time.perf_counter()
    for _ in range(args.steps):
        run()
    plain_ms = (time.perf_counter() - start) * 1e3 / args.steps

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    for _ in range(args.steps):
        run()
    profiler.disable()
    profiled_ms = (time.perf_counter() - start) * 1e3 / args.steps

    stats = pstats.Stats(profiler).stats
    total = sum(tt for _, _, tt, _, _ in stats.values())
    per = args.phase
    print(f"{args.workload} {args.driver}: {args.steps} {PLURAL[per]}, "
          f"{plain_ms:.3f} ms per {per}, {profiled_ms:.3f} ms profiled")
    print(f"{'own ms/' + per:>13} {'share':>6} {'calls/' + per:>12} "
          f"{'cum ms/' + per:>13}  function")
    top = sorted(stats.items(), key=lambda item: -item[1][2])[:TOP]
    for (path, line, name), (_, calls, tt, ct, _) in top:
        where = f"{os.path.basename(path)}:{line}" if line else path
        print(f"{tt * 1e3 / args.steps:13.3f} {tt / total:6.1%} "
              f"{calls / args.steps:12.1f} {ct * 1e3 / args.steps:13.3f}  "
              f"{where}({name})")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``): stop quietly, and point
        # stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
