"""Span tracing at the module boundaries of devmux, installed from outside.

``Tracer.install()`` replaces every public function and method (and
``__init__``) of the traced modules with a wrapper; ``uninstall()`` puts the
originals back, so untraced runs execute unmodified code.  A call opens a
span only when it crosses into another layer (the caller's innermost open
span belongs to a different module, or there is none); calls within one
layer are only counted.  A layer's self time is its spans' time minus the
time of their child spans, so per step the self times of all layers plus
the time outside every span (``other``) add up to the step's wall time.

Counters are kept in buckets keyed by (stack, phase); the harness selects
the bucket before each phase or step.  Spans are kept in memory, up to a
cap, and written out by ``write()``.
"""

from __future__ import annotations

import json
import types
from collections import Counter
from time import perf_counter_ns

from devmux import alloc, devcore, legacydrv, libdrv, platform, simdev
from devmux.bench import schedule, workloads, world

LAYERS = ("simdev", "platform", "alloc", "devcore", "libdrv", "legacydrv", "bench")

MODULE_LAYERS = (
    (simdev, "simdev"), (platform, "platform"), (alloc, "alloc"),
    (devcore, "devcore"), (libdrv, "libdrv"), (legacydrv, "legacydrv"),
    (world, "bench"), (workloads, "bench"), (schedule, "bench"),
)

# Ledger arithmetic is how the harness reads simulated cost; not traced.
UNTRACED_CLASSES = frozenset({"CostLedger"})
# Private methods worth counting; they never open spans.
COUNTED_PRIVATE = frozenset({"SimDevice._fault", "DeviceCore._flush_tlb",
                             "DeviceCore._flush_cache"})
# Host oracles always get their own span, so their time can be reported.
ORACLES = frozenset({"matmul_oracle", "framebuffer_oracle", "fnv1a64"})
FORCED_SPANS = frozenset({"matmul_oracle", "framebuffer_oracle"})


# -- counting hooks: pre(tracer, args) -> state; post(tracer, args, result, state)

def _step_pre(tracer, args):
    regs = args[0].regs
    return regs[simdev.REG_RB_HEAD], regs[simdev.REG_RB_SIZE] * simdev.WORD


def _step_post(tracer, args, result, state):
    head, ring_bytes = state
    bucket = tracer.bucket
    if ring_bytes:
        advance = (args[0].regs[simdev.REG_RB_HEAD] - head) % ring_bytes
        bucket["simdev.cmd_words"] += advance // simdev.WORD
    caller = tracer.open[-1][0] if tracer.open else "other"
    bucket["cycles_under." + caller] += result.cycles_used


def _put_pre(tracer, args):
    cache, key = args[0], args[1]
    if key not in cache.pending and len(cache.pending) >= cache.capacity:
        tracer.bucket["simdev.cache.evictions"] += 1


def _adder(key, index, measure=lambda v: v):
    def pre(tracer, args):
        tracer.bucket[key] += measure(args[index])
    return pre


def _alloc_post(tracer, args, result, state):
    if result is None:
        tracer.bucket["alloc.failures"] += 1


def _free_post(tracer, args, result, state):
    if not result:
        tracer.bucket["alloc.failures"] += 1


def _fence_post(tracer, args, result, state):
    if result:
        tracer.bucket["libdrv.fence_hits"] += 1


def _crossings_pre(tracer, args):
    return args[0].platform.ledger.crossings


def _legacy_wait_post(tracer, args, result, state):
    rounds = args[0].platform.ledger.crossings - state
    bucket = tracer.bucket
    bucket["legacydrv.wait_rounds"] += rounds
    bucket["legacydrv.polls"] += rounds
    bucket["legacydrv.poll_hits"] += 1


def _fence_status_post(tracer, args, result, state):
    tracer.bucket["legacydrv.polls"] += 1
    if result:
        tracer.bucket["legacydrv.poll_hits"] += 1


HOOKS = {
    "SimDevice.step": (_step_pre, _step_post),
    "WriteBackCache.put": (_put_pre, None),
    "SystemMemory.write": (_adder("platform.sysmem_bytes_written", 3, len), None),
    "SystemMemory.read": (_adder("platform.sysmem_bytes_read", 3), None),
    "FirstFitAllocator.alloc": (None, _alloc_post),
    "SlabPool.alloc": (None, _alloc_post),
    "FirstFitAllocator.free": (None, _free_post),
    "SlabPool.free": (None, _free_post),
    "LibraryDriver.fence_completed": (None, _fence_post),
    "LibraryDriver.write_buffer": (_adder("libdrv.bytes_written", 3, len), None),
    "LibraryDriver.read_buffer": (_adder("libdrv.bytes_read", 3), None),
    "LegacyDriver.legacy_wait": (_crossings_pre, _legacy_wait_post),
    "LegacyDriver.legacy_fence_status": (None, _fence_status_post),
    "LegacyDriver.legacy_write": (_adder("legacydrv.bytes_written", 4, len), None),
    "LegacyDriver.legacy_read": (_adder("legacydrv.bytes_read", 4), None),
}


class Tracer:
    """Boundary spans and counters for one benchmark process."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.open = []            # [layer, span id, parent id, child ns]
        self.buckets = {}
        self.bucket = Counter()
        self.names = []
        self.spans = []           # (id, name, start, end, parent, step)
        self.spans_dropped = 0
        self.steps = []           # (step id, stack, phase, step ns, other ns)
        self.root_ns = 0
        self.accounting_failures = 0
        self._step_id = -1
        self._next_span = 0
        self._patches = []

    # -- phases and steps --------------------------------------------------

    def select(self, stack: str, phase: str) -> Counter:
        self.bucket = self.buckets.setdefault((stack, phase), Counter())
        return self.bucket

    def run_step(self, stack: str, phase: str, step) -> int:
        """Run ``step()`` traced; returns its wall time in ns.

        A step whose spans were left open, or whose layers' self times and
        ``other`` do not add up to its wall time, is counted in
        ``accounting_failures``.
        """
        bucket = self.select(stack, phase)
        self._step_id = len(self.steps)
        self_before = sum(bucket["self." + layer] for layer in LAYERS)
        root_before = self.root_ns
        start = perf_counter_ns()
        step()
        step_ns = perf_counter_ns() - start
        layers_ns = sum(bucket["self." + layer] for layer in LAYERS) - self_before
        other_ns = step_ns - (self.root_ns - root_before)
        self._step_id = -1
        if self.open or other_ns < 0 or layers_ns + other_ns != step_ns:
            self.accounting_failures += 1
            self.open.clear()
        bucket["self.other"] += other_ns
        bucket["steps"] += 1
        self.steps.append((len(self.steps), stack, phase, step_ns, other_ns))
        return step_ns

    # -- wrapping ----------------------------------------------------------

    def install(self):
        if not self._patches:
            self._patches = self._build_patches()
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in reversed(self._patches):
            setattr(owner, name, original)

    def _build_patches(self) -> list:
        patches = []
        wrapped = {}
        for module, layer in MODULE_LAYERS:
            for attr, obj in vars(module).items():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(obj, attr, layer)
                elif isinstance(obj, type) and attr not in UNTRACED_CLASSES:
                    for name, fn in vars(obj).items():
                        qual = f"{attr}.{name}"
                        if not isinstance(fn, types.FunctionType):
                            continue
                        if name.startswith("_") and name != "__init__" \
                                and qual not in COUNTED_PRIVATE:
                            continue
                        patches.append((obj, name, fn, self._wrap(fn, qual, layer)))
        # Functions imported by name elsewhere are patched in every namespace.
        for module, _ in MODULE_LAYERS:
            for attr, obj in vars(module).items():
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    patches.append((module, attr, obj, wrapped[obj]))
        return patches

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        calls_key = "calls." + name
        pre, post = HOOKS.get(name, (None, None))
        forced = name in FORCED_SPANS

        def wrapper(*args, **kwargs):
            tracer.bucket[calls_key] += 1
            state = pre(tracer, args) if pre else None
            opened = tracer.open
            if opened and opened[-1][0] == layer and not forced:
                result = fn(*args, **kwargs)
            else:
                result = tracer._span(fn, args, kwargs, name_id, name, layer)
            if post:
                post(tracer, args, result, state)
            return result

        return wrapper

    def _span(self, fn, args, kwargs, name_id, name, layer):
        opened = self.open
        span_id = self._next_span
        self._next_span += 1
        frame = [layer, span_id, opened[-1][1] if opened else -1, 0]
        opened.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.bucket["errors." + layer] += 1
            raise
        finally:
            end = perf_counter_ns()
            opened.pop()
            duration = end - start
            bucket = self.bucket
            bucket["self." + layer] += duration - frame[3]
            bucket["incl." + name] += duration
            bucket["spans." + name] += 1
            if opened:
                opened[-1][3] += duration
            else:
                self.root_ns += duration
            if len(self.spans) < self.max_spans:
                self.spans.append((span_id, name_id, start, end, frame[2],
                                   self._step_id))
            else:
                self.spans_dropped += 1

    # -- output ------------------------------------------------------------

    def write(self, path: str, meta: dict):
        """Write the spans as JSON lines: a header, then one span per line."""
        with open(path, "w") as out:
            header = dict(meta, names=self.names, spans_dropped=self.spans_dropped,
                          span_fields=["id", "name", "start_ns", "end_ns",
                                       "parent", "step"],
                          steps=[list(s) for s in self.steps])
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
