"""Benchmark workloads, each written once and run on either driver stack.

A workload is a Program with a fixed life cycle:

    prepare()   open the stack and create buffers (library: no device
                access yet, so it is legal before the first bind)
    start()     one-time uploads and mode setting (library: needs the bind)
    iterate()   run one full iteration, blocking until the device is done
    advance()   submit-or-poll step for cooperative scheduling (library only)
    finalize()  read results back, compare their bytes with the expected
                value, and return that value's digest

``Matmul`` and ``Graphics`` (vertex-array or display-list, by spec kind)
talk to the driver only through a small per-stack adapter: open, alloc,
write, read, compute (operands as (buffer, byte offset) pairs), show,
split, submit and wait.  Both build ``simdev.Compute`` instructions:
``_Library`` resolves operands to device addresses itself and cuts the
stream into ring-sized batches, which it records once at ``prepare``;
``_Legacy`` leaves the (buffer id, byte offset) pairs in place for the
kernel, which validates and patches them on every submit.
Only the library stack can be scheduled, so only its adapter offers the
non-blocking ``completed`` poll.  The instruction streams are the same on
both stacks, so results (and their digests) must match bit for bit.

Host-side words are built with bulk operations, not a per-word loop:
vertex-array frames are uploaded as the packed bytes of ``vertex_frame``,
``matmul_oracle`` dots whole rows with whole columns, and
``framebuffer_oracle`` doubles a packed frame in one shift.
``vertex_fill`` stays the readable per-index reference that
``vertex_frame`` must pack to.

An expected result and its digest are built once per shape (matmul size,
or frame size and salt) and shared by every program and both stacks: a
result that equals the expected bytes has the expected digest, so no
result is hashed.  The memos are small, as salts grow without limit.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from operator import mul

from ..devcore import DeviceCore
from ..errors import InvalError, VerifyFail
from ..libdrv import LibraryDriver
from ..pool import GTT, MAX_BATCH_WORDS, VRAM
from ..simdev import (CO_ADD, CO_DOT, INSTR_WORDS, MASK32, OP_COMPUTE, WORD,
                      Compute, fnv1a64)
from .config import BenchConfig, WorkloadSpec
from .report import RunReport
from .world import World, build_world

FB_WIDTH = 64
FB_HEIGHT = 48
FB_WORDS = FB_WIDTH * FB_HEIGHT
DISPLAY_MODE = (FB_WIDTH, FB_HEIGHT, 60)
GFX_BATCH_INSTRS = 32
VERTEX_WORDS_PER_SIZE = 64

MAX_COMPUTES_PER_SUBMIT = MAX_BATCH_WORDS // INSTR_WORDS[OP_COMPUTE]


def _pack(words) -> bytes:
    return struct.pack(f"<{len(words)}I", *words)


# --- host oracles ---------------------------------------------------------

def matmul_fill_a(n: int) -> list:
    return [(i * 131 + j * 7 + 3) & 0xFFFF for i in range(n) for j in range(n)]


def matmul_fill_b(n: int) -> list:
    return [(i * 201 + j * 13 + 5) & 0xFFFF for i in range(n) for j in range(n)]


def matmul_oracle(n: int, a: list, b: list) -> list:
    """Reference product with 32-bit wrap-around, row-major operands:
    each output word is one row of ``a`` dotted with one column of ``b``."""
    cols = [b[c::n] for c in range(n)]
    return [sum(map(mul, a[r:r + n], col)) & MASK32
            for r in range(0, n * n, n) for col in cols]


VERTEX_STRIDE = 2654435761


def vertex_fill(n_words: int, salt: int) -> list:
    """Word j is ``(j * VERTEX_STRIDE + salt * 97) & MASK32``."""
    start = salt * 97
    return [x & MASK32 for x in range(start, start + n_words * VERTEX_STRIDE,
                                      VERTEX_STRIDE)]


@lru_cache(maxsize=4)
def _vertex_lanes(n_words: int) -> int:
    """Word j of the salt-0 fill in the jth 64-bit lane of one integer."""
    return int.from_bytes(struct.pack(f"<{n_words}Q", *vertex_fill(n_words, 0)),
                          "little")


def vertex_frame(n_words: int, salt: int) -> bytes:
    """``_pack(vertex_fill(n_words, salt))``, built without a per-word loop.

    Word j is the low half of lane j of ``lanes + salt term``: both
    addends are below 2**32 in every lane, so no lane carries into the
    next, and four strided copies keep each lane's low four bytes.
    """
    term = ((salt * 97) & MASK32).to_bytes(8, "little") * n_words
    lanes = (_vertex_lanes(n_words) + int.from_bytes(term, "little")
             ).to_bytes(8 * n_words, "little")
    frame = bytearray(n_words * WORD)
    for k in range(WORD):
        frame[k::WORD] = lanes[k::8]
    return bytes(frame)


def framebuffer_oracle(vertices: bytes) -> bytes:
    """The graphics pass doubles every vertex word into the framebuffer.

    Takes the packed vertex words and returns the packed frame.  Each
    word's top bit is cleared first, so one shift of the whole frame
    doubles every word modulo 2**32 without carrying into the next.
    """
    n = len(vertices) // WORD
    low31 = int.from_bytes(b"\xff\xff\xff\x7f" * n, "little")
    doubled = (int.from_bytes(vertices, "little") & low31) << 1
    return doubled.to_bytes(n * WORD, "little") + bytes((FB_WORDS - n) * WORD)


def _digested(packed: bytes) -> tuple:
    return packed, f"{fnv1a64(packed):016x}"


@lru_cache(maxsize=4)
def _expected_product(n: int) -> tuple:
    """Matmul's packed product for size ``n`` and its result digest."""
    return _digested(_pack(matmul_oracle(n, matmul_fill_a(n), matmul_fill_b(n))))


@lru_cache(maxsize=4)
def _expected_frame(n_words: int, salt: int) -> tuple:
    """The packed frame a vertex frame of ``salt`` scans out, and its digest."""
    return _digested(framebuffer_oracle(vertex_frame(n_words, salt)))


def _transpose(mat: list, n: int) -> list:
    return [mat[r * n + c] for c in range(n) for r in range(n)]


def _chunked(items: list, size: int) -> list:
    return [items[i:i + size] for i in range(0, len(items), size)]


# --- per-stack adapters ---------------------------------------------------

class _Library:
    """A library driver of its own; the caller binds it."""

    needs_bind = True

    def __init__(self, world: World):
        self.world = world
        self.lib: LibraryDriver = None

    def open(self, name: str):
        self.lib = LibraryDriver(self.world.core, name,
                                 pool_pages=self.world.config.pool_pages)

    def alloc(self, size: int, placement: str) -> int:
        return self.lib.create_buffer(size, placement)

    def write(self, buf: int, offset: int, data: bytes):
        self.lib.write_buffer(buf, offset, data)

    def read(self, buf: int, offset: int, n: int) -> bytes:
        return self.lib.read_buffer(buf, offset, n)

    def compute(self, sub: int, dst, src1, src2, count: int) -> Compute:
        def addr(ref):
            buf, offset = ref
            return self.lib.buffers[buf].device_addr + offset
        return Compute(sub, addr(dst), addr(src1), addr(src2), count)

    def show(self, fb: int):
        self.lib.set_mode(0, DISPLAY_MODE)
        self.lib.present(fb)

    def split(self, instrs: list) -> list:
        return [self.lib.record(chunk)
                for chunk in _chunked(instrs, MAX_COMPUTES_PER_SUBMIT)]

    def submit(self, batch) -> int:
        return self.lib.submit(batch)

    def wait(self, seq: int):
        self.lib.wait_fence(seq)

    def completed(self, seq: int) -> bool:
        return self.lib.fence_completed(seq)


class _Legacy:
    """One client of the world's legacy driver."""

    needs_bind = False

    def __init__(self, world: World):
        self.drv = world.legacy
        self.client = None

    def open(self, name: str):
        self.client = self.drv.legacy_open(name)

    def alloc(self, size: int, placement: str) -> int:
        return self.drv.legacy_alloc(self.client, size, placement)

    def write(self, buf: int, offset: int, data: bytes):
        self.drv.legacy_write(self.client, buf, offset, data)

    def read(self, buf: int, offset: int, n: int) -> bytes:
        return self.drv.legacy_read(self.client, buf, offset, n)

    def compute(self, sub: int, dst, src1, src2, count: int) -> Compute:
        return Compute(sub, dst, src1, src2, count)

    def show(self, fb: int):
        self.drv.legacy_set_mode(self.client, 0, DISPLAY_MODE, fb=fb)

    def split(self, instrs: list) -> list:
        return [instrs]  # the kernel cuts the stream to fit its ring

    def submit(self, batch) -> int:
        return self.drv.legacy_submit(self.client, batch)

    def wait(self, seq: int):
        self.drv.legacy_wait(self.client, seq)


_STACKS = {"library": _Library, "legacy": _Legacy}


# --- programs -------------------------------------------------------------

class Program:
    """One workload instance bound to a world, on the stack its spec names.
    Each subclass supplies prepare(), start() and finalize()."""

    def __init__(self, world: World, spec: WorkloadSpec):
        self.world = world
        self.spec = spec
        self.stack = _STACKS[spec.driver](world)
        self.done = False
        self.started = False
        self._iter = 0
        self._batches: list = []
        self._await = 0
        self._batch_idx = 0

    @property
    def needs_bind(self) -> bool:
        return self.stack.needs_bind

    @property
    def lib_id(self) -> int:
        return self.stack.lib.lib_id

    def _before_iteration(self, index: int):
        pass

    def iterate(self):
        self._iter += 1
        self._before_iteration(self._iter)
        seq = 0
        for batch in self._batches:
            seq = self.stack.submit(batch)
        self.stack.wait(seq)
        if self._iter >= self.spec.iters:
            self.done = True

    def advance(self):
        """Non-blocking step: at most one submit, never a device wait."""
        if not self.needs_bind:
            raise InvalError("legacy programs cannot be scheduled")
        if self.done:
            return
        if self._await and not self.stack.completed(self._await):
            return
        if self._batch_idx == 0:
            if self._iter >= self.spec.iters:
                self.done = True
                return
            self._iter += 1
            self._before_iteration(self._iter)
        self._await = self.stack.submit(self._batches[self._batch_idx])
        self._batch_idx = (self._batch_idx + 1) % len(self._batches)


class Matmul(Program):
    """C = A x B with one DOT per output word; B is uploaded transposed."""

    def prepare(self):
        n = self.spec.size
        stack = self.stack
        stack.open(f"matmul-{id(self):x}")
        nbytes = n * n * WORD
        self.a_buf = stack.alloc(nbytes, VRAM)
        self.bt_buf = stack.alloc(nbytes, VRAM)
        self.c_buf = stack.alloc(nbytes, VRAM)
        instrs = [stack.compute(CO_DOT,
                                (self.c_buf, (r * n + c) * WORD),
                                (self.a_buf, r * n * WORD),
                                (self.bt_buf, c * n * WORD),
                                n)
                  for r in range(n) for c in range(n)]
        self._batches = stack.split(instrs)

    def start(self):
        n = self.spec.size
        self.stack.write(self.a_buf, 0, _pack(matmul_fill_a(n)))
        self.stack.write(self.bt_buf, 0, _pack(_transpose(matmul_fill_b(n), n)))
        self.started = True

    def finalize(self) -> dict:
        n = self.spec.size
        data = self.stack.read(self.c_buf, 0, n * n * WORD)
        want, digest = _expected_product(n)
        if data != want:
            raise VerifyFail(f"matmul n={n}: device result differs from host oracle")
        return {"result": digest}


class Graphics(Program):
    """Vertex buffer in the system pool, framebuffer in VRAM, one ADD pass
    per frame.  vertex-array uploads new vertices every frame; display-list
    uploads them once."""

    def prepare(self):
        n = self.spec.size
        if not 1 <= n <= FB_WORDS // VERTEX_WORDS_PER_SIZE:
            raise InvalError(f"graphics size {n} out of range")
        self.rewrite_vertices = self.spec.kind == "vertex-array"
        self.n_words = VERTEX_WORDS_PER_SIZE * n
        stack = self.stack
        stack.open(f"gfx-{id(self):x}")
        self.vb = stack.alloc(self.n_words * WORD, GTT)
        self.fb = stack.alloc(FB_WORDS * WORD, VRAM)
        count = self.n_words // GFX_BATCH_INSTRS
        instrs = [stack.compute(CO_ADD,
                                (self.fb, s * count * WORD),
                                (self.vb, s * count * WORD),
                                (self.vb, s * count * WORD),
                                count)
                  for s in range(GFX_BATCH_INSTRS)]
        self._batches = stack.split(instrs)
        self.last_salt = 0

    def start(self):
        self.stack.show(self.fb)
        if not self.rewrite_vertices:
            self.stack.write(self.vb, 0, vertex_frame(self.n_words, 0))
        self.started = True

    def _before_iteration(self, index: int):
        if self.rewrite_vertices:
            self.last_salt = index
            self.stack.write(self.vb, 0, vertex_frame(self.n_words, index))

    def finalize(self) -> dict:
        shot = self.world.device.scanout()
        if shot.faulted:
            raise VerifyFail("scanout faulted")
        want, digest = _expected_frame(self.n_words, self.last_salt)
        if shot.frame != want:
            raise VerifyFail("framebuffer differs from host oracle")
        return {"result": digest}


_PROGRAMS = {"matmul": Matmul, "vertex-array": Graphics, "display-list": Graphics}


def make_program(world: World, spec: WorkloadSpec) -> Program:
    return _PROGRAMS[spec.kind](world, spec)


# --- the runner -----------------------------------------------------------

def run_workload(spec: WorkloadSpec, config: BenchConfig = None) -> RunReport:
    """Run one workload to completion and report per-iteration costs.

    Setup (driver init, first bind, uploads) is folded into the first
    iteration's window, so iteration 1 carries the launch overhead and
    iterations 2+ measure the steady state.
    """
    config = config or BenchConfig()
    world = build_world(config, spec.driver, spec.iommu)
    program = make_program(world, spec)
    core: DeviceCore = world.core

    per_iteration = []
    for i in range(1, spec.iters + 1):
        before = world.ledger.snapshot()
        if i == 1:
            program.prepare()
            if program.needs_bind:
                core.bind_device_lib(program.lib_id)
            program.start()
        program.iterate()
        per_iteration.append(world.ledger.delta_since(before))

    digests = program.finalize()
    if program.needs_bind:
        core.revoke_device_lib(program.lib_id)
    return RunReport(spec=spec.as_dict(), per_iteration=per_iteration,
                     ledger=world.ledger.snapshot(), digests=digests)


def speedup(spec_kind: str, size: int, iters: int, config: BenchConfig = None) -> float:
    """Steady-state legacy/library time ratio for one workload shape."""
    times = {}
    for driver in ("library", "legacy"):
        spec = WorkloadSpec(kind=spec_kind, size=size, iters=iters, driver=driver)
        times[driver] = run_workload(spec, config).steady_mean
    return times["legacy"] / times["library"]

