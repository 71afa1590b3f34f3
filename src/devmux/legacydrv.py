"""Baseline monolithic driver: all management in the kernel.

Applications hold opaque buffer ids and call across the user/kernel boundary
for every operation; payloads and command streams are copied across that
boundary and every submitted instruction is software-validated (ownership,
bounds, no sensitive register targets) before being patched with real device
addresses and written into the kernel-owned ring.  This is the cost structure
the library driver removes, kept behaviorally identical so workload results
can be compared byte for byte.

Command streams are built from the Cs* instruction descriptions below, which
reference buffers as (id, byte offset) pairs; applications never see device
addresses.
"""

from __future__ import annotations

from devmux import simdev
from devmux.alloc import FirstFitAllocator
from devmux.errors import (BadHandle, InvalError, NotFoundError,
                           NotSupportedError, OutOfVram, PermError)
from devmux.pool import FIRST_FREE_PAGE, RING_REGISTERS, RING_WORDS, Buffer, PagePool
from devmux.simdev import (CO_ADD, CO_DOT, CO_MUL, DISPLAY_MODES, OP_COMPUTE,
                           OP_COPY, OP_NOP, OP_SET_REG, PAGE_SIZE, REG_FB_BASE,
                           REG_MC_SEG_BASE, REG_MC_SEG_LIMIT, REG_RB_TAIL,
                           SCRATCH_REGISTERS, WORD, Fence, PageTable, SimDevice,
                           set_translation_root)

LEGACY_API = ("legacy_open", "legacy_close", "legacy_alloc", "legacy_free",
              "legacy_write", "legacy_read", "legacy_map", "legacy_submit",
              "legacy_wait", "legacy_fence_status", "legacy_set_mode",
              "legacy_info")

KERNEL_TABLE_ID = 1
POOL_PAGES_DEFAULT = 64
STAGING_PAGE = FIRST_FREE_PAGE             # pool page index
SLAB_FIRST_PAGE = STAGING_PAGE + 1
WAIT_ROUND_CYCLES = 8192                   # device budget per wait syscall


# -- application-visible command stream ----------------------------------

class CsNop:
    __slots__ = ()


class CsSetReg:
    __slots__ = ("reg", "value")

    def __init__(self, reg: int, value: int):
        self.reg = reg
        self.value = value


class CsCompute:
    __slots__ = ("sub", "dst", "src1", "src2", "count")

    def __init__(self, sub: int, dst, src1, src2, count: int):
        self.sub = sub
        self.dst = dst      # (buffer id, byte offset)
        self.src1 = src1
        self.src2 = src2
        self.count = count


class CsCopy:
    __slots__ = ("dst", "src", "count")

    def __init__(self, dst, src, count: int):
        self.dst = dst
        self.src = src
        self.count = count


class LegacyDriver:
    """The whole driver, kernel-side; one instance owns the device."""

    def __init__(self, platform, device: SimDevice, *,
                 pool_pages: int = POOL_PAGES_DEFAULT):
        if pool_pages < SLAB_FIRST_PAGE + 1:
            raise InvalError(f"pool must exceed {SLAB_FIRST_PAGE} pages")
        self.platform = platform
        self.device = device
        simdev.bring_up(device)
        # the monolithic driver owns all of device memory: segment wide open
        device.mmio_write(REG_MC_SEG_BASE, 0)
        device.mmio_write(REG_MC_SEG_LIMIT, len(device.vram))

        self._table = PageTable()
        device.translation_tables[KERNEL_TABLE_ID] = self._table
        set_translation_root(device, KERNEL_TABLE_ID)

        vaddrs = platform.alloc_pages("legacy-kernel", pool_pages)
        frames = []
        for i, vaddr in enumerate(vaddrs):
            frame = platform.resolve("legacy-kernel", vaddr)
            self._table.map(i * PAGE_SIZE, frame, writable=True)
            platform.sysmem.pin(frame)
            frames.append(frame)
        for reg, value in RING_REGISTERS:
            device.mmio_write(reg, value)

        self._vram_alloc = FirstFitAllocator(len(device.vram))
        self.pool = PagePool(
            platform.sysmem, frames, SLAB_FIRST_PAGE,
            alloc_vram=self._alloc_vram,
            free_vram=lambda addr, size: self._vram_alloc.free(addr, size),
            staging=lambda: STAGING_PAGE * PAGE_SIZE, copy=self._copy)
        self.buffers = self.pool.buffers
        self.clients = {}
        self._next_client = 1
        self._next_seq = 1
        self._tail_words = 0
        self._inflight_seq = 0  # last seq written; 0 when known drained

    # -- kernel-side plumbing (no boundary crossings in here) ---------------

    def _charge(self, n_bytes: int = 0):
        self.platform.ledger.crossings += 1
        self.platform.ledger.bytes_copied += n_bytes

    def _step(self, budget: int) -> int:
        report = self.device.step(budget)
        self.platform.ledger.device_cycles += report.cycles_used
        return report.cycles_used

    def _drain(self):
        while not self.device.cp_idle:
            self._step(WAIT_ROUND_CYCLES)
        self._inflight_seq = 0

    def _push_ring(self, payload_words, drain: bool) -> int:
        """Write one fenced chunk into the ring and trigger it."""
        if self._inflight_seq:
            self._drain()  # reclaim the whole ring before reusing it
        seq = self._next_seq
        self._next_seq += 1
        words = list(payload_words) + Fence(seq).encode()
        self._tail_words = self.pool.write_ring(self._tail_words, words)
        self.device.mmio_write(REG_RB_TAIL, self._tail_words * WORD)
        self._inflight_seq = seq
        if drain:
            self._drain()
            self.pool.poll()  # raises if the chunk faulted
        return seq

    def _copy(self, dst: int, src: int, n_words: int):
        self._push_ring([OP_COPY, dst, src, n_words], drain=True)

    def _alloc_vram(self, size: int) -> int:
        addr = self._vram_alloc.alloc(size)
        if addr is None:
            raise OutOfVram(f"no device memory for {size} bytes")
        return addr

    def _client(self, client: int) -> int:
        if client not in self.clients:
            raise BadHandle(f"no client {client}")
        return client

    def _buffer(self, client: int, buffer_id: int) -> Buffer:
        buf = self.buffers.get(buffer_id)
        if buf is None:
            raise NotFoundError(f"no buffer {buffer_id}")
        if buf.owner != client:
            raise PermError(f"buffer {buffer_id} belongs to another client")
        return buf

    # -- the syscall surface ---------------------------------------------------

    def legacy_open(self, app) -> int:
        self._charge()
        client = self._next_client
        self._next_client += 1
        self.clients[client] = app
        return client

    def legacy_close(self, client: int):
        self._charge()
        self._client(client)
        for buffer_id in [b.handle for b in self.buffers.values() if b.owner == client]:
            self.pool.release(self.buffers.pop(buffer_id))
        del self.clients[client]

    def legacy_alloc(self, client: int, size: int, placement: str) -> int:
        self._charge()
        self._client(client)
        return self.pool.create(size, placement, owner=client)

    def legacy_free(self, client: int, buffer_id: int):
        self._charge()
        self._client(client)
        self.pool.release(self._buffer(client, buffer_id))
        del self.buffers[buffer_id]

    def legacy_write(self, client: int, buffer_id: int, offset: int, data: bytes):
        data = bytes(data)
        self._charge(len(data))
        self._client(client)
        self.pool.write_buffer(self._buffer(client, buffer_id), offset, data)

    def legacy_read(self, client: int, buffer_id: int, offset: int, n: int) -> bytes:
        self._charge(n)
        self._client(client)
        return self.pool.read_buffer(self._buffer(client, buffer_id), offset, n)

    def legacy_map(self, client: int, buffer_id: int):
        self._charge()
        self._client(client)
        self._buffer(client, buffer_id)
        raise NotSupportedError("this driver offers no user mappings")

    def _resolve_ref(self, client: int, ref, n_words: int) -> int:
        """Ownership + bounds + device-visibility check; returns the address."""
        buffer_id, offset = ref
        buf = self._buffer(client, buffer_id)
        if buf.device_addr is None:
            raise InvalError(f"buffer {buffer_id} is not device-visible")
        if offset % WORD:
            raise InvalError("operand offsets must be word-aligned")
        buf.check_range(offset, n_words * WORD)
        return buf.device_addr + offset

    def legacy_submit(self, client: int, batch) -> int:
        """Copy, validate, patch, and enqueue an application batch."""
        self._client(client)
        patched = []
        total_words = 0
        for instr in batch:
            if isinstance(instr, CsNop):
                words = [OP_NOP]
            elif isinstance(instr, CsSetReg):
                if instr.reg not in SCRATCH_REGISTERS:
                    raise InvalError(f"SET_REG target 0x{instr.reg:x} is sensitive")
                words = [OP_SET_REG, instr.reg, instr.value & 0xFFFFFFFF]
            elif isinstance(instr, CsCompute):
                if instr.sub not in (CO_ADD, CO_MUL, CO_DOT):
                    raise InvalError(f"unknown compute sub-op {instr.sub}")
                if instr.count < 0:
                    raise InvalError("negative count")
                dst_words = 1 if instr.sub == CO_DOT else instr.count
                words = [OP_COMPUTE, instr.sub,
                         self._resolve_ref(client, instr.dst, dst_words),
                         self._resolve_ref(client, instr.src1, instr.count),
                         self._resolve_ref(client, instr.src2, instr.count),
                         instr.count]
            elif isinstance(instr, CsCopy):
                if instr.count < 0:
                    raise InvalError("negative count")
                words = [OP_COPY,
                         self._resolve_ref(client, instr.dst, instr.count),
                         self._resolve_ref(client, instr.src, instr.count),
                         instr.count]
            else:
                raise InvalError(f"unknown instruction {type(instr).__name__}")
            patched.append(words)
            total_words += len(words)
        # one syscall: the whole stream crosses the boundary and is inspected
        self._charge(total_words * WORD)
        self.platform.ledger.instructions_validated += total_words
        chunk = []
        chunk_words = 0
        for words in patched:
            if chunk_words + len(words) + 4 > RING_WORDS - 1:
                self._push_ring([w for ws in chunk for w in ws], drain=True)
                chunk, chunk_words = [], 0
            chunk.append(words)
            chunk_words += len(words)
        seq = self._push_ring([w for ws in chunk for w in ws], drain=False)
        return seq

    def legacy_wait(self, client: int, seq: int):
        """Syscall-based completion wait: one crossing per poll round."""
        self._client(client)
        while True:
            self._charge()
            if self.pool.poll() >= seq:
                if self.device.cp_idle:
                    self._inflight_seq = 0
                return
            if self._step(WAIT_ROUND_CYCLES) == 0:
                if self.pool.poll() >= seq:
                    self._inflight_seq = 0
                    return
                raise InvalError(f"fence {seq} can never complete (device idle)")

    def legacy_fence_status(self, client: int, seq: int) -> bool:
        self._charge()
        self._client(client)
        return self.pool.poll() >= seq

    def legacy_set_mode(self, client: int, display: int, mode, fb: int | None = None):
        self._charge()
        self._client(client)
        if fb is not None:
            buf = self._buffer(client, fb)
            if buf.device_addr is None:
                raise InvalError(f"buffer {fb} cannot be scanned out")
        simdev.program_display(self.device, display, mode)
        if fb is not None:
            self.device.mmio_write(REG_FB_BASE, buf.device_addr)

    def legacy_info(self, client: int) -> dict:
        self._charge()
        self._client(client)
        return {"vram_total": len(self.device.vram),
                "displays": DISPLAY_MODES,
                "api": LEGACY_API}
