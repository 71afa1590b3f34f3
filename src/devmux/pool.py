"""The page pool both driver stacks manage their memory in.

A pool is a run of pinned system pages mapped at consecutive aperture
addresses from the aperture base.  Both stacks lay it out the same way
(pages): page 0 is the interrupt status page, pages 1-4 hold the 4096-word
ring, page 5 is the staging page that VRAM reads and writes pass through,
and pages 6 and up are the GTT region, which GTT buffers take from the
first-fit allocator that every other region uses.

This module holds the mechanics the two stacks share: the layout,
page-split host I/O on the pool, fence framing and the wrapping ring
writer, the status page, buffer records with their GTT and SYS backing, and
the SYS/GTT/VRAM read/write dispatch with its one-page staging loop.  What
differs between the stacks is passed in: where VRAM comes from, and how one
device COPY is submitted and waited for.  Ring space and the tail register
stay with each stack, which reclaims space by its own policy.  Nothing here
bills the ledger; every cost is billed by those callables and by the stack
that owns the pool.
"""

from __future__ import annotations

from dataclasses import dataclass
import struct

from devmux.alloc import FirstFitAllocator
from devmux.errors import (DeviceFault, InvalError, OutOfPool, OutOfRange,
                           OutOfVram)
from devmux.simdev import (APERTURE_BASE, FAULT_FLAGS, INSTR_WORDS, OP_FENCE,
                           PAGE_SIZE, REG_IH_PAGE_ADDR, REG_RB_BASE,
                           REG_RB_SIZE, WORD, Fence, _words)

VRAM = "VRAM"
GTT = "GTT"
SYS = "SYS"

RING_WORDS = 4096
RING_PAGES = RING_WORDS * WORD // PAGE_SIZE
RING_OFF = PAGE_SIZE                       # pool offset of ring page 0
STAGING_OFF = (1 + RING_PAGES) * PAGE_SIZE  # the page after the ring
GTT_FIRST_PAGE = 2 + RING_PAGES           # first page of the GTT region
GTT_OFF = GTT_FIRST_PAGE * PAGE_SIZE
MIN_POOL_PAGES = GTT_FIRST_PAGE + 1


def payload(data) -> bytes:
    """``data`` as bytes, or InvalError: ``bytes(8)`` would be 8 zeros."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise InvalError(f"payload must be bytes-like, got {type(data).__name__}")
    return bytes(data)


# The longest batch one queue() takes: it must fit the ring, which keeps one
# word free to tell full from empty, together with its trailing fence.
MAX_BATCH_WORDS = RING_WORDS - 1 - INSTR_WORDS[OP_FENCE]

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

    ``alloc_vram(size) -> addr`` (None when device memory is exhausted) and
    ``free_vram(addr, size)`` manage device memory; ``copy(dst, src,
    n_words)`` runs one device COPY to completion.
    ``tail`` is the ring position, in words, after the last queued batch.
    """

    def __init__(self, sysmem, frames: list, *, alloc_vram, free_vram, copy):
        self.sysmem = sysmem
        self.frames = frames
        self._gtt = FirstFitAllocator((len(frames) - GTT_FIRST_PAGE) * PAGE_SIZE)
        self._alloc_vram = alloc_vram
        self._free_vram = free_vram
        self._copy = copy
        self.buffers = {}
        self._next_handle = 1
        self.tail = 0
        self._next_seq = 1

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

    def queue(self, words) -> int:
        """Write a batch of at most MAX_BATCH_WORDS ``words`` and an
        interrupting fence into the ring at ``tail``, wrapping at its end,
        and advance ``tail`` past them; returns the fence's seq.  The caller
        has made room for them and writes the tail register."""
        seq = self._next_seq
        self._next_seq += 1
        fence = Fence(seq).encode()
        n = len(words) + len(fence)
        data = _words(n).pack(*words, *fence)
        split = (RING_WORDS - self.tail) * WORD
        self.write(RING_OFF + self.tail * WORD, data[:split])
        if split < len(data):
            self.write(RING_OFF, data[split:])
        self.tail = (self.tail + n) % RING_WORDS
        return seq

    # -- the status page -----------------------------------------------------

    def read_status(self):
        """(last fence seq, irq count, pending flags) from the status page."""
        return struct.unpack("<QII", self.sysmem.read(self.frames[0], 0, 16))

    def clear_flags(self):
        """Zero the pending-flags word of the status page."""
        self.sysmem.write(self.frames[0], 12, bytes(4))  # after seq and count

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
            addr = self._alloc_vram(size)
            if addr is None:
                raise OutOfVram(f"no device memory for {size} bytes")
            return Buffer(handle, placement, size, addr, owner=owner)
        if placement == GTT:
            gtt_off = self._gtt.alloc(size)
            if gtt_off is None:
                raise OutOfPool(f"no pool space for {size} bytes")
            pool_off = GTT_OFF + gtt_off
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
            self._gtt.free(buf.pool_off - GTT_OFF, buf.size)

    def clear(self, buf: Buffer):
        """Zero every byte of ``buf`` a client could have written; VRAM in
        whole words, which its allocation covers, through the staging page."""
        if buf.placement == GTT:
            self.write(buf.pool_off, bytes(buf.size))
        elif buf.placement == VRAM:
            self._vram_write(buf.device_addr, bytes(-(-buf.size // WORD) * WORD))

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
        for done in range(0, len(data), PAGE_SIZE):
            chunk = data[done:done + PAGE_SIZE]
            self.write(STAGING_OFF, chunk)
            self._copy(device_addr + done, APERTURE_BASE + STAGING_OFF, len(chunk) // WORD)

    def _vram_read(self, device_addr: int, n: int) -> bytes:
        out = []
        for done in range(0, n, PAGE_SIZE):
            take = min(n - done, PAGE_SIZE)
            self._copy(APERTURE_BASE + STAGING_OFF, device_addr + done, take // WORD)
            out.append(self.read(STAGING_OFF, take))
        return b"".join(out)
