"""The per-application library driver.

All resource management lives here, in the application's own trust domain:
buffer bookkeeping, range allocation over a pre-mapped page pool (see
``devmux.pool``), device addresses in every command, ring space, fence
tracking and recovery from a device fault.  The trusted core is involved
only through its narrow call API, and the hot path needs exactly one such
call per frame: the ring-tail write that triggers execution.  Fence
completion is observed by polling the status page, which is ordinary
application memory.  Nothing advances the device behind the scenes, so a
blocking wait that finds its fence pending runs the device until it is
idle, billed through ``CostLedger.run``, and polls once more; schedulers
that own all stepping drive the non-blocking ``fence_completed`` instead.

Because the ring is the library's own memory, a batch it submits again and
again is encoded once: ``record`` turns instructions into an immutable
``RecordedBatch`` of words, and ``submit`` copies those words into the
ring.  The legacy kernel cannot do the same: the application can change a
batch between submits, so the kernel copies, validates and patches every
one.
"""

from __future__ import annotations

from collections import deque

from devmux.errors import BadHandle, BatchTooBig, DeviceFault, InvalError
from devmux.platform import RUN_TO_IDLE
from devmux.pool import (MAX_BATCH_WORDS, MIN_POOL_PAGES, RING_REGISTERS,
                         RING_WORDS, SYS, VRAM, Buffer, PagePool, payload)
from devmux.simdev import (APERTURE_BASE, PAGE_SIZE, REG_FB_BASE, REG_RB_TAIL,
                           WORD, Copy, encode_batch)

POOL_PAGES_DEFAULT = 256


class RecordedBatch(tuple):
    """The words of a batch, encoded once by ``LibraryDriver.record``."""

    __slots__ = ()


class LibraryDriver:
    """One application's driver instance, bound to one core client id."""

    def __init__(self, core, app, *, pool_pages: int = POOL_PAGES_DEFAULT):
        if pool_pages < MIN_POOL_PAGES:
            raise InvalError(f"pool needs at least {MIN_POOL_PAGES} pages")
        self.core = core
        self.platform = core.platform

        # pages first: a refused library gives them back and keeps nothing
        vaddrs = self.platform.alloc_pages(app, pool_pages)
        try:
            self.lib_id, self.info = core.init_device_lib(app)
        except Exception:
            self.platform.free_pages(app, vaddrs)
            raise
        for i, vaddr in enumerate(vaddrs):
            core.iommu_map_page(self.lib_id, vaddr, APERTURE_BASE + i * PAGE_SIZE)
        self.pool = PagePool(
            self.platform.sysmem, [self.platform.resolve(app, v) for v in vaddrs],
            alloc_vram=lambda size: core.alloc_device_memory(self.lib_id, size),
            free_vram=lambda addr, size: core.release_device_memory(
                self.lib_id, addr, size),
            copy=self._copy)
        self.buffers = self.pool.buffers
        self._head_words = 0
        self._pending = deque()  # (fence seq, ring tail after the batch)
        self._device_ready = False
        self._faulted = False

    # -- fences ------------------------------------------------------------

    def fence_completed(self, seq: int) -> bool:
        """One poll of the status page; never blocks, never crosses.  A
        fault it raises is remembered, and cleared at the next submit."""
        try:
            completed = self.pool.poll()
        except DeviceFault:
            self._faulted = True
            raise
        while self._pending and self._pending[0][0] <= completed:
            self._head_words = self._pending.popleft()[1]
        return completed >= seq

    def wait_fence(self, seq: int):
        """Block until fence ``seq`` retires: poll, and if it is pending,
        run the device to idle and poll again."""
        if seq == 0 or self.fence_completed(seq):
            return
        self.platform.ledger.run(self.core.device, RUN_TO_IDLE)
        if not self.fence_completed(seq):  # raises the device's fault, if any
            raise InvalError(f"fence {seq} can never complete (device idle)")

    # -- submission -----------------------------------------------------------

    def _ensure_device_ready(self):
        """One-time ring/status programming; survives revoke via snapshot."""
        if self._device_ready:
            return
        for reg, value in RING_REGISTERS:
            self.core.access_register(self.lib_id, reg, value, True)
        self._device_ready = True

    def record(self, instrs) -> RecordedBatch:
        """Encode ``instrs`` once, for any number of submits; BatchTooBig
        if they do not fit one ring batch."""
        words = RecordedBatch(encode_batch(instrs))
        if len(words) > MAX_BATCH_WORDS:
            raise BatchTooBig(f"{len(words)} words exceed the "
                              f"{MAX_BATCH_WORDS}-word batch limit")
        return words

    def submit(self, batch) -> int:
        """Queue a batch followed by an interrupting fence; returns the seq.

        ``batch`` is a recorded batch or a list of instructions, which is
        recorded first.  Everything is written into lib-owned ring memory
        directly; the only boundary crossing is the tail-register write.
        """
        self._ensure_device_ready()
        if self._faulted:
            # Forget the fault's flags and the batches it consumed.  Unless a
            # revoke has reset the device since, the next fence reports it.
            self.pool.clear_flags()
            self._pending.clear()
            self._head_words = self.pool.tail
            self._faulted = False
        words = batch if type(batch) is RecordedBatch else self.record(batch)
        pool = self.pool
        while (pool.tail - self._head_words) % RING_WORDS + len(words) > MAX_BATCH_WORDS:
            self.wait_fence(self._pending[0][0])  # reclaim oldest batch
        seq = pool.queue(words)
        self._pending.append((seq, pool.tail))
        self.core.access_register(self.lib_id, REG_RB_TAIL, pool.tail * WORD, True)
        return seq

    def _copy(self, dst: int, src: int, n_words: int):
        self.wait_fence(self.submit([Copy(dst, src, n_words)]))

    # -- buffers ---------------------------------------------------------------

    def _buffer(self, handle: int) -> Buffer:
        buf = self.buffers.get(handle)
        if buf is None:
            raise BadHandle(f"no buffer {handle}")
        return buf

    def create_buffer(self, size: int, placement: str) -> int:
        return self.pool.create(size, placement)

    def destroy_buffer(self, handle: int):
        self.pool.release(self._buffer(handle))
        del self.buffers[handle]

    def write_buffer(self, handle: int, offset: int, data: bytes):
        self.pool.write_buffer(self._buffer(handle), offset, payload(data))

    def read_buffer(self, handle: int, offset: int, n: int) -> bytes:
        return self.pool.read_buffer(self._buffer(handle), offset, n)

    def move_buffer(self, handle: int, new_placement: str):
        """Change placement, preserving contents.

        On failure the buffer keeps its old placement and contents, and the
        new backing is given back.
        """
        buf = self._buffer(handle)
        if new_placement == buf.placement:
            return
        if buf.size % WORD and VRAM in (buf.placement, new_placement):
            raise InvalError("device-memory moves need word-sized buffers")
        new = self.pool.allocate(handle, buf.size, new_placement)
        try:
            if SYS in (buf.placement, new_placement):
                self.pool.write_buffer(new, 0, self.pool.read_buffer(buf, 0, buf.size))
            else:  # VRAM <-> GTT: both ends device-visible, one device-side copy
                self._copy(new.device_addr, buf.device_addr, buf.size // WORD)
        except Exception:
            self.pool.release(new)
            raise
        self.buffers[handle] = new
        self.pool.release(buf)

    # -- display ---------------------------------------------------------------

    def present(self, handle: int):
        buf = self._buffer(handle)
        if buf.device_addr is None:
            raise BadHandle(f"buffer {handle} has no device address")
        self.core.access_register(self.lib_id, REG_FB_BASE, buf.device_addr, True)

    def set_mode(self, display: int, mode):
        self.core.set_mode(self.lib_id, display, mode)
