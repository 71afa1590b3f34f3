"""devmux benchmark: host speed and simulated cost of both driver stacks.

    python3 perfbench/run.py --workload {matmul,stream,tenants} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One process runs one workload on both
stacks (library driver + core, and the legacy driver), each closed loop
from this single thread: a step starts only after the previous one's
fences have retired.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` installs boundary spans (see spans.py) and prints the
per-layer split instead.  Every run checks every result; the last line of
standard output is one JSON object, and any failed check makes the exit
code 1.  See README.md for the metrics and what each one should move.

Host times are scaled to a nominal host speed (see reference.py); the
times as measured are printed too, as ``raw.*`` lines.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

from reference import NOMINAL_NS, time_loop

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")

# The measuring window is cut into slots.  Each slot starts with one set-up
# sample and VERIFY_PER_SLOT verify samples, then runs steady steps, so
# every kind of sample is spread over the whole window.
SLOTS = 12
VERIFY_PER_SLOT = 2
REF_STEPS = 3         # steady rows compared against run_workload
TRACED_EVERY = 2      # traced run: one traced step pair per this many pairs
MAX_SPANS = 200_000   # spans kept for writing; later ones are only counted
P90_MIN_SAMPLES = 100  # p90 needs at least 10 samples above it
GAUGE_LOOPS = 5       # reference-loop runs on each side of a set-up or verify
WARM_UP_LOOPS = 20    # reference-loop runs before the first gauge
PROBE_TIMEOUT_S = 60

HOST_UNITS = {"setup_s": "s", "library.cycles_per_s": "cycles/s",
              "library.step_ms_p50": "ms", "library.step_ms_p90": "ms",
              "legacy.cycles_per_s": "cycles/s", "legacy.step_ms_p50": "ms",
              "legacy.step_ms_p90": "ms", "verify_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("matmul", "stream", "tenants"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Checks:
    """Counts verifications; a failure is recorded, not raised."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def run(self, fn, what: str):
        """Run ``fn`` as one check; VerifyFail counts as a failure."""
        from devmux.errors import VerifyFail
        try:
            result = fn()
        except VerifyFail as exc:
            self.check(False, f"{what}: {exc}")
            return None
        self.check(True, what)
        return result


# -- host speed --------------------------------------------------------------

def warm_up():
    """Run the reference loop until the interpreter has specialised it."""
    for _ in range(WARM_UP_LOOPS):
        time_loop()


def gauge() -> float:
    """Scale factor to nominal host speed, from a few reference-loop runs."""
    return NOMINAL_NS / statistics.median(time_loop() for _ in range(GAUGE_LOOPS))


def gauged(fn):
    """Run ``fn``; returns (its result, seconds, scale to nominal speed)."""
    before = gauge()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, (before + gauge()) / 2


# -- the measured phases ---------------------------------------------------

def set_up(workload, order, config, tracer=None) -> dict:
    """Build both stacks, in ``order``, ready for their first step."""
    from harness import Stack
    stacks = {}
    for driver in order:
        if tracer is not None:
            tracer.select(driver, "setup")
        stacks[driver] = Stack(workload, driver, config)
    return stacks


def probe_setup(workload, order) -> tuple:
    """Time one set-up in a fresh process; returns (seconds, scale)."""
    done = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                           workload, ",".join(order)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["seconds"], result["scale"]


def launch(stacks, tracer=None) -> dict:
    """Run each stack's first step; returns its ledger row since build."""
    rows = {}
    for driver, stack in stacks.items():
        if tracer is None:
            stack.step()
        else:
            tracer.run_step(driver, "launch", stack.step)
        rows[driver] = stack.ledger.delta_since(stack.ledger_at_build)
    return rows


def steady(stacks, seconds, rng, tracer=None, at_slot=None) -> dict:
    """Alternate steady steps of both stacks, in random order, for ``seconds``.

    The reference loop is timed between consecutive steps; a step's scale
    to nominal speed comes from the loops just before and just after it.
    With a tracer, every ``TRACED_EVERY``-th pair of steps is traced.
    ``at_slot`` runs at the start of each of the ``SLOTS`` slots of the
    window.  Returns {driver: [(host ns, ledger row, traced, scale)]}.
    """
    order = list(stacks)
    samples = {driver: [] for driver in stacks}
    start = time.perf_counter()
    deadline = start + seconds
    slot = pair = 0
    loop_before = time_loop()
    while (now := time.perf_counter()) < deadline:
        if at_slot is not None and now >= start + slot * seconds / SLOTS:
            slot += 1
            at_slot()
            loop_before = time_loop()
        traced = tracer is not None and pair % TRACED_EVERY == 0
        pair += 1
        rng.shuffle(order)
        if traced:
            tracer.install()
        for driver in order:
            stack = stacks[driver]
            before = stack.ledger.snapshot()
            if traced:
                elapsed = tracer.run_step(driver, "step", stack.step)
            else:
                begin = time.perf_counter_ns()
                stack.step()
                elapsed = time.perf_counter_ns() - begin
            loop_after = time_loop()
            scale = 2 * NOMINAL_NS / (loop_before + loop_after)
            samples[driver].append((elapsed, stack.ledger.delta_since(before), traced, scale))
            loop_before = loop_after
        if traced:
            tracer.uninstall()
    return samples


def verify(stacks, checks, tracer=None) -> dict:
    """Finalize both stacks and compare them; returns {driver: digests}."""
    digests = {}
    for driver, stack in stacks.items():
        if tracer is not None:
            tracer.select(driver, "verify")
        digests[driver] = checks.run(stack.finalize, f"{driver} result vs host oracle")
    if all(digests.values()):
        checks.check(digests["library"] == digests["legacy"],
                     "library and legacy result digests agree")
    return digests


def reference_checks(workload, config, launch_rows, steady_rows, digests, checks):
    """Tie the externally driven runs to the repo's own runners."""
    from devmux.bench import run_schedule, run_workload
    from harness import TENANT_EPOCH, workload_specs
    if workload == "tenants":
        specs = workload_specs(workload, "library", iters=2)
        reports = checks.run(lambda: run_schedule(specs, TENANT_EPOCH, config),
                             "run_schedule result equals solo result")
        if reports is not None:
            checks.check([r.digests["result"] for r in reports] == digests["library"],
                         "run_schedule digests equal the benchmark's")
        return
    for driver, rows in steady_rows.items():
        n = min(REF_STEPS, len(rows))
        spec = workload_specs(workload, driver, iters=n + 1)[0]
        report = checks.run(lambda: run_workload(spec, config),
                            f"{driver} run_workload result vs host oracle")
        if report is None:
            continue
        checks.check(report.per_iteration[0] == launch_rows[driver],
                     f"{driver} launch row equals run_workload's first row")
        checks.check(report.per_iteration[1:] == rows[:n],
                     f"{driver} steady rows equal run_workload's")


# -- metrics ------------------------------------------------------------------

def host_times(setup_times, samples, verify_times) -> dict:
    """Host-time metrics from (seconds or ns, scale) samples."""
    metrics = {"setup_s": statistics.median(t * k for t, k in setup_times)}
    for driver in ("library", "legacy"):
        ms = [ns * k / 1e6 for ns, _, _, k in samples[driver]]
        cycles = sum(row["device_cycles"] for _, row, _, _ in samples[driver])
        metrics[f"{driver}.cycles_per_s"] = cycles / (sum(ms) / 1e3)
        metrics[f"{driver}.step_ms_p50"] = statistics.median(ms)
        metrics[f"{driver}.step_ms_p90"] = statistics.quantiles(ms, n=10)[8]
    metrics["verify_s"] = statistics.median(t * k for t, k in verify_times)
    return metrics


def end_to_end(setup_times, launch_rows, samples, verify_times, peak_rss_mib) -> dict:
    nominal = host_times(setup_times, samples, verify_times)
    metrics = {name: (value, HOST_UNITS[name]) for name, value in nominal.items()}
    metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
    for driver in ("library", "legacy"):
        rows = [row for _, row, _, _ in samples[driver]]
        metrics[f"{driver}.sim_per_step"] = (
            statistics.fmean(r["simulated_time"] for r in rows), "sim_units")
        metrics[f"{driver}.launch_sim"] = (launch_rows[driver]["simulated_time"], "sim_units")
    return metrics


def per_layer(tracer, samples) -> dict:
    from spans import ORACLES
    metrics = {}
    for driver in ("library", "legacy"):
        setup = tracer.buckets[(driver, "setup")]
        step = tracer.buckets[(driver, "step")]
        verify_b = tracer.buckets[(driver, "verify")]
        everywhere = sum((b for (d, _), b in tracer.buckets.items() if d == driver),
                         start=Counter())
        n = step["steps"]
        rows = [row for _, row, traced, _ in samples[driver] if traced]
        cycles = sum(r["device_cycles"] for r in rows)

        def per_step(key, scale=1.0):
            return step[key] / n / scale

        def ratio(num, den):
            return num / den if den else 0.0

        def add(name, value, unit, shared=True):
            metrics[f"{driver}.{name}" if shared else name] = (value, unit)

        def mean_us(bucket, name):
            return ratio(bucket["incl." + name], bucket["spans." + name]) / 1e3

        add("simdev.self_ms", per_step("self.simdev", 1e6), "ms")
        add("simdev.ns_per_cycle", ratio(step["self.simdev"], cycles), "ns/cycle")
        add("simdev.cycles", cycles / n, "cycles")
        add("simdev.cmd_words", per_step("simdev.cmd_words"), "words")
        add("simdev.iommu.translations", per_step("calls.IommuUnit.translate"), "count")
        add("simdev.iommu.tlb_miss_ratio",
            ratio(step["calls.PageTable.lookup"], step["calls.IommuUnit.translate"]),
            "ratio")
        add("simdev.cache.puts", per_step("calls.WriteBackCache.put"), "count")
        add("simdev.cache.evictions", per_step("simdev.cache.evictions"), "count")
        add("simdev.cache.drains", per_step("calls.WriteBackCache.drain"), "count")
        add("simdev.faults", per_step("calls.SimDevice._fault"), "count")

        add("platform.self_ms", per_step("self.platform", 1e6), "ms")
        add("platform.sysmem_bytes_written", per_step("platform.sysmem_bytes_written"), "bytes")
        add("platform.sysmem_bytes_read", per_step("platform.sysmem_bytes_read"), "bytes")
        for field, unit in (("crossings", "count"), ("bytes_copied", "bytes"),
                            ("instructions_validated", "words"), ("core_calls", "count")):
            add(f"platform.{field}", statistics.fmean(r[field] for r in rows), unit)

        alloc_calls = sum(v for k, v in setup.items()
                          if k.startswith(("calls.SlabPool.", "calls.FirstFitAllocator."))
                          and k.endswith((".alloc", ".free")))
        add("alloc.calls", alloc_calls, "count")
        add("alloc.self_ms", setup["self.alloc"] / 1e6, "ms")
        add("alloc.failures", setup["alloc.failures"], "count")

        add("bench.self_ms", per_step("self.bench", 1e6), "ms")
        add("bench.oracle_ms",
            sum(verify_b["incl." + name] for name in ORACLES) / 1e6, "ms")
        add("other.self_ms", per_step("self.other", 1e6), "ms")

        if driver == "library":
            devcore_calls = sum(v for k, v in step.items()
                                if k.startswith("calls.DeviceCore.")
                                and not k.startswith("calls.DeviceCore._"))
            add("devcore.calls", devcore_calls / n, "count", False)
            add("devcore.self_ms", per_step("self.devcore", 1e6), "ms", False)
            add("devcore.bind_us", mean_us(everywhere, "DeviceCore.bind_device_lib"), "us", False)
            add("devcore.revoke_us", mean_us(everywhere, "DeviceCore.revoke_device_lib"), "us", False)
            add("devcore.revoke_drain_cycles", per_step("cycles_under.devcore"), "cycles", False)
            add("devcore.map_calls", setup["calls.DeviceCore.iommu_map_page"], "count", False)
            add("devcore.tlb_flushes", per_step("calls.DeviceCore._flush_tlb"), "count", False)
            add("devcore.cache_flushes", per_step("calls.DeviceCore._flush_cache"), "count", False)
            add("devcore.errors", everywhere["errors.devcore"], "count", False)

            add("libdrv.self_ms", per_step("self.libdrv", 1e6), "ms", False)
            add("libdrv.submits", per_step("calls.LibraryDriver.submit"), "count", False)
            add("libdrv.submit_us", mean_us(step, "LibraryDriver.submit"), "us", False)
            add("libdrv.fence_polls", per_step("calls.LibraryDriver.fence_completed"), "count", False)
            add("libdrv.poll_hit_ratio",
                ratio(step["libdrv.fence_hits"], step["calls.LibraryDriver.fence_completed"]),
                "ratio", False)
            add("libdrv.pump_cycles", per_step("cycles_under.libdrv"), "cycles", False)
            add("libdrv.bytes_written", per_step("libdrv.bytes_written"), "bytes", False)
            add("libdrv.bytes_read", per_step("libdrv.bytes_read"), "bytes", False)
        else:
            add("legacydrv.self_ms", per_step("self.legacydrv", 1e6), "ms", False)
            add("legacydrv.submits", per_step("calls.LegacyDriver.legacy_submit"), "count", False)
            add("legacydrv.submit_us", mean_us(step, "LegacyDriver.legacy_submit"), "us", False)
            add("legacydrv.wait_rounds", per_step("legacydrv.wait_rounds"), "count", False)
            add("legacydrv.poll_hit_ratio",
                ratio(step["legacydrv.poll_hits"], step["legacydrv.polls"]), "ratio", False)
            add("legacydrv.bytes_written", per_step("legacydrv.bytes_written"), "bytes", False)
            add("legacydrv.bytes_read", per_step("legacydrv.bytes_read"), "bytes", False)

    def median_ns(traced):
        return sum(statistics.median(ns for ns, _, t, _ in runs if t == traced)
                   for runs in samples.values())
    metrics["trace.overhead_ratio"] = (median_ns(True) / median_ns(False), "ratio")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "devmux", "__init__.py")):
        print(f"perfbench: no devmux sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from devmux.bench import BenchConfig
    from spans import Tracer

    config = BenchConfig()
    rng = random.Random(args.seed)
    checks = Checks()
    order = ["library", "legacy"]
    tracer = Tracer(MAX_SPANS) if args.trace else None
    warm_up()

    rng.shuffle(order)
    if tracer:
        tracer.install()
    stacks = set_up(args.workload, order, config, tracer)
    launch_rows = launch(stacks, tracer)
    if tracer:
        tracer.uninstall()

    setup_times, verify_times = [], []  # (seconds, scale to nominal speed)
    digests = {}

    def sample_slot():
        rng.shuffle(order)
        setup_times.append(probe_setup(args.workload, order))
        for _ in range(VERIFY_PER_SLOT):
            result, elapsed, scale = gauged(lambda: verify(stacks, checks))
            digests.update(result)
            verify_times.append((elapsed, scale))

    samples = steady(stacks, args.seconds, rng, tracer,
                     at_slot=None if tracer else sample_slot)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.install()
        digests = verify(stacks, checks, tracer)
        tracer.uninstall()
    rows = {driver: [row for _, row, _, _ in runs] for driver, runs in samples.items()}
    reference_checks(args.workload, config, launch_rows, rows, digests, checks)

    for driver, runs in samples.items():
        traced = sum(t for _, _, t, _ in runs)
        print(f"{args.workload:8s} {driver}.steps{'':28s} {len(runs) - traced:9d} untraced "
              f"+ {traced} traced")
        if not tracer and len(runs) < P90_MIN_SAMPLES:
            print(f"warning: {len(runs)} {driver} steps leave fewer than 10 "
                  "samples above p90", file=sys.stderr)
    if tracer:
        checks.check(tracer.accounting_failures == 0,
                     "layer self times plus other equal each traced step's time")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl"),
                     {"workload": args.workload, "seed": args.seed})
        metrics = per_layer(tracer, samples)
    else:
        metrics = end_to_end(setup_times, launch_rows, samples, verify_times,
                             peak_rss_mib)
        metrics["pass_ratio"] = ((checks.attempted - checks.failed) / checks.attempted,
                                 "ratio")
        raw = host_times([(t, 1.0) for t, _ in setup_times],
                         {d: [(ns, row, t, 1.0) for ns, row, t, _ in runs]
                          for d, runs in samples.items()},
                         [(t, 1.0) for t, _ in verify_times])
        for name, value in raw.items():
            print(f"{args.workload:8s} raw.{name:32s} {value:16.6f} {HOST_UNITS[name]} "
                  "(as timed, not scaled to nominal speed)")

    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:36s} {value:16.6f} {unit}")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
