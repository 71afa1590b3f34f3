"""The page pool both driver stacks manage their memory in.

A pool is a run of pinned system pages mapped at consecutive aperture
addresses from the aperture base.  Pool layout (pages): page 0 is the
interrupt status page, pages 1-4 hold the 4096-word ring; a stack may
reserve further pages after those, and everything above feeds the slab
allocator that backs GTT buffers.

This module holds the mechanics the two stacks share: page-split host I/O
on the pool, the wrapping ring writer, the status page, buffer records with
their GTT and SYS backing, and the SYS/GTT/VRAM read/write dispatch with
its one-page VRAM staging loop.  What differs between the stacks is passed
in: where VRAM comes from, where the staging page lives, and how one device
COPY is submitted and waited for.  Nothing here bills the ledger; every
cost is billed by those callables and by the stack that owns the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
import struct

from devmux.alloc import SlabPool
from devmux.errors import DeviceFault, InvalError, OutOfPool, OutOfRange
from devmux.simdev import (APERTURE_BASE, FAULT_FLAGS, PAGE_SIZE,
                           REG_IH_PAGE_ADDR, REG_RB_BASE, REG_RB_SIZE, WORD)

VRAM = "VRAM"
GTT = "GTT"
SYS = "SYS"

RING_WORDS = 4096
RING_PAGES = RING_WORDS * WORD // PAGE_SIZE
RING_OFF = PAGE_SIZE                # pool offset of ring page 0
FIRST_FREE_PAGE = 1 + RING_PAGES    # first page after status page and ring

# (register, value) writes that point the device at a pool's ring and
# status page
RING_REGISTERS = ((REG_RB_BASE, APERTURE_BASE + RING_OFF),
                  (REG_RB_SIZE, RING_WORDS),
                  (REG_IH_PAGE_ADDR, APERTURE_BASE))


@dataclass
class Buffer:
    handle: int
    placement: str
    size: int
    device_addr: int | None = None  # VRAM window or aperture address
    pool_off: int | None = None     # GTT: offset into the pool
    host: bytearray | None = None   # SYS backing
    owner: object = None            # the client that allocated it, if shared

    def check_range(self, offset: int, n: int):
        if offset < 0 or n < 0 or offset + n > self.size:
            raise OutOfRange(f"[{offset}, {offset + n}) outside {self.size}-byte buffer")


class PagePool:
    """One stack's pool pages, its buffers and their placements.

    ``alloc_vram(size) -> addr`` and ``free_vram(addr, size)`` manage device
    memory; ``staging() -> pool offset`` names a one-page staging area in
    the pool; ``copy(dst, src, n_words)`` runs one device COPY to
    completion.
    """

    def __init__(self, sysmem, frames: list, slab_first_page: int, *,
                 alloc_vram, free_vram, staging, copy):
        self.sysmem = sysmem
        self.frames = frames
        self._slab_base = slab_first_page * PAGE_SIZE
        self._slab = SlabPool((len(frames) - slab_first_page) * PAGE_SIZE)
        self._alloc_vram = alloc_vram
        self._free_vram = free_vram
        self._staging = staging
        self._copy = copy
        self.buffers = {}
        self._next_handle = 1

    # -- host access to pool pages (the owner's own memory; costs nothing) --

    def write(self, pool_off: int, data: bytes):
        done = 0
        while done < len(data):
            page, off = divmod(pool_off + done, PAGE_SIZE)
            take = min(len(data) - done, PAGE_SIZE - off)
            self.sysmem.write(self.frames[page], off, data[done:done + take])
            done += take

    def read(self, pool_off: int, n: int) -> bytes:
        out = []
        done = 0
        while done < n:
            page, off = divmod(pool_off + done, PAGE_SIZE)
            take = min(n - done, PAGE_SIZE - off)
            out.append(self.sysmem.read(self.frames[page], off, take))
            done += take
        return b"".join(out)

    def write_ring(self, start_word: int, words) -> int:
        """Write ``words`` into the ring from ``start_word``, wrapping at its
        end; returns the ring position after them."""
        first = min(len(words), RING_WORDS - start_word)
        self.write(RING_OFF + start_word * WORD,
                   struct.pack(f"<{first}I", *words[:first]))
        if first < len(words):
            self.write(RING_OFF, struct.pack(f"<{len(words) - first}I", *words[first:]))
        return (start_word + len(words)) % RING_WORDS

    # -- the status page -----------------------------------------------------

    def read_status(self):
        """(last fence seq, irq count, pending flags) from the status page."""
        return struct.unpack("<QII", self.sysmem.read(self.frames[0], 0, 16))

    def poll(self) -> int:
        """The last retired fence seq; raises DeviceFault if the device
        reported a fault."""
        completed, _, flags = self.read_status()
        if flags & FAULT_FLAGS:
            raise DeviceFault(flags, "device reported a fault")
        return completed

    # -- buffers ---------------------------------------------------------------

    def create(self, size: int, placement: str, owner=None) -> int:
        if size <= 0:
            raise InvalError("size must be positive")
        buf = self.allocate(self._next_handle, size, placement, owner)
        self.buffers[buf.handle] = buf
        self._next_handle += 1
        return buf.handle

    def allocate(self, handle: int, size: int, placement: str, owner=None) -> Buffer:
        """A record for ``handle`` with fresh backing, not yet registered."""
        if placement == VRAM:
            return Buffer(handle, placement, size, self._alloc_vram(size), owner=owner)
        if placement == GTT:
            slab_off = self._slab.alloc(size)
            if slab_off is None:
                raise OutOfPool(f"no pool space for {size} bytes")
            pool_off = self._slab_base + slab_off
            return Buffer(handle, placement, size, APERTURE_BASE + pool_off,
                          pool_off, owner=owner)
        if placement == SYS:
            return Buffer(handle, placement, size, host=bytearray(size), owner=owner)
        raise InvalError(f"unknown placement {placement!r}")

    def release(self, buf: Buffer):
        """Give back the backing of ``buf``; the record itself is untouched."""
        if buf.placement == VRAM:
            self._free_vram(buf.device_addr, buf.size)
        elif buf.placement == GTT:
            self._slab.free(buf.pool_off - self._slab_base, buf.size)

    def write_buffer(self, buf: Buffer, offset: int, data: bytes):
        buf.check_range(offset, len(data))
        if buf.placement == SYS:
            buf.host[offset:offset + len(data)] = data
        elif buf.placement == GTT:
            self.write(buf.pool_off + offset, data)
        else:
            if offset % WORD or len(data) % WORD:
                raise InvalError("device-memory access must be word-aligned")
            self._vram_write(buf.device_addr + offset, data)

    def read_buffer(self, buf: Buffer, offset: int, n: int) -> bytes:
        buf.check_range(offset, n)
        if buf.placement == SYS:
            return bytes(buf.host[offset:offset + n])
        if buf.placement == GTT:
            return self.read(buf.pool_off + offset, n)
        if offset % WORD or n % WORD:
            raise InvalError("device-memory access must be word-aligned")
        return self._vram_read(buf.device_addr + offset, n)

    # -- VRAM through the staging page (device copies) --------------------------

    def _vram_write(self, device_addr: int, data: bytes):
        staging = self._staging()
        for done in range(0, len(data), PAGE_SIZE):
            chunk = data[done:done + PAGE_SIZE]
            self.write(staging, chunk)
            self._copy(device_addr + done, APERTURE_BASE + staging, len(chunk) // WORD)

    def _vram_read(self, device_addr: int, n: int) -> bytes:
        staging = self._staging()
        out = []
        for done in range(0, n, PAGE_SIZE):
            take = min(n - done, PAGE_SIZE)
            self._copy(APERTURE_BASE + staging, device_addr + done, take // WORD)
            out.append(self.read(staging, take))
        return b"".join(out)
