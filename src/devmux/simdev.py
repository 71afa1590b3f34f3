"""Bit-exact model of a small DMA-capable accelerator.

The device exposes a word-granular MMIO register file, a ring-buffer command
processor with a five-opcode instruction set, a built-in two-level IOMMU with
a FIFO TLB, memory-controller segmentation for device-local memory, a FIFO
write-back cache, a checksum-gated firmware store, a polling interrupt status
page, and a display scanout block.  Everything is deterministic: identical
register writes and step budgets produce identical state.

Register map (word offsets).  M-class registers are safe to hand to an
untrusted caller; S-class registers control isolation and stay privileged.

    0x000  RB_BASE       M   ring buffer base (device address)
    0x004  RB_SIZE       M   ring size in 32-bit words, power of two >= 16
    0x008  RB_HEAD       M   read pointer, byte offset (read-only to libs)
    0x00C  RB_TAIL       M   write pointer, byte offset; writing arms the CP
    0x010  FB_BASE       M   scanout base (device address)
    0x014  IH_PAGE_ADDR  M   interrupt status page (device address, 0=unset)
    0x018  CACHE_FLUSH   M   write: drain the write-back cache
    0x01C  TLB_FLUSH     M   write: empty the active unit's TLB
    0x020  SCRATCH0..7   M   eight general scratch words (0x020-0x03C)
    0x100  MC_SEG_BASE   S   segment base added to every VRAM-window access
    0x104  MC_SEG_LIMIT  S   first out-of-bounds physical VRAM address
    0x108  IOMMU_ROOT    S   active unit's table id; write flushes its TLB
    0x10C  IOMMU_ENABLE  S   0 disables the active unit's translation
    0x120  CP_RESET      S   write: clear head/tail and in-flight state
    0x124  IRQ_ENABLE    S   gates fence interrupt delivery
    0x200  DISP_PLL      S   display clock (stand-in: refresh rate)
    0x204  DISP_TIMING_H S   horizontal size in pixels
    0x208  DISP_TIMING_V S   vertical size in pixels
    0x20C  DISP_ENABLE   S   scanout enable
    0x300  FW_ADDR       S   firmware load index (auto-increments on data)
    0x304  FW_DATA       S   firmware word write port
    0x308  FW_CTRL       S   write 1: verify checksum; reads 2 when ready

Instruction set (32-bit words, first word is the opcode):

    NOP                                    1 word   1 cycle
    SET_REG   reg, value                   3 words  1 cycle   SCRATCH only
    COMPUTE   sub, dst, src1, src2, count  6 words  1+count   sub: ADD/MUL/DOT
    COPY      dst, src, count_words        4 words  1+count
    FENCE     seq_lo, seq_hi, flags        4 words  4 cycles  flags bit0: IRQ

Device addresses decode through two windows: [0, 0x1000_0000) is device-local
memory behind the memory controller (physical = MC_SEG_BASE + address, faults
at MC_SEG_LIMIT), [0x8000_0000, 0xC000_0000) is the system aperture behind
the active IOMMU.  Anything else is MC_FAULT, and so is a run that starts in
the device-local window and ends past it.  Page table entries are 32-bit:
bit0 VALID, bit1 WRITABLE, bits 12-31 frame number; the walk splits the
aperture offset into a 10-bit level-1 index (bits 22-31), a 10-bit level-2
index (bits 12-21) and a 12-bit page offset.

The command processor is one loop, ``SimDevice.step``: it fetches an
instruction, pays its cycles from the budget and executes it in place, and
an instruction the budget cannot pay for stays in flight until the next
call.  The loop reads the ring size, RB_TAIL, MC_SEG_BASE and MC_SEG_LIMIT
once a call: nothing a call runs writes a register other than RB_HEAD and
the scratch registers, since SET_REG may target only scratch registers and
a fault, a FENCE and the status page move only RB_HEAD and the status
words.  Faults never have partial effects: an instruction either fully
executes or leaves all target memory untouched, and a fault consumes the
remainder of the batch.  Checks run in a fixed order: a COMPUTE checks its
sub-op, reads src1, then src2, then decodes its target, and a DOT of count 0
still writes one zero word; a FENCE whose status page is unset or does not
decode faults before it drains the cache, so its seq is never retired.  A
fetch while RB_HEAD or RB_TAIL is at or past the ring end (RB_SIZE * 4
bytes) is a command fault, checked before any ring word is read, so a ring
shrunk below either pointer faults its batch.

Instruction fetch reads through a fetch window: when RB_HEAD lies outside
it, the command processor reads the run from RB_HEAD to the nearest of the
batch end, the ring end and the end of RB_HEAD's device page in one read,
and later fetches slice their words out of it.  The window lives for one
``step()`` call at most, because the host rewrites the ring, the registers
and the page tables only between calls.  A device write that lands on its
physical words drops it, so self-modifying rings and a status page inside
the ring fetch what they wrote.  If reading the window faults, the fetch
reads the opcode word alone, so the fault fires at the same instruction and
address as a word-by-word fetch.  The words of an instruction that lie
past the window's end are read one at a time, word k from ring offset
(RB_HEAD + 4k) mod the ring size, as a word-by-word fetch reads them.
``_fetch`` is the only fetch path: ``step`` hands it RB_HEAD, RB_TAIL and
the ring size for every instruction.

Operand runs move as bytes, packed little-endian words, through helpers
that ``step`` defines once a call: ``read(da, count)`` returns a run's bytes
and span count, and ``write(da, data)`` queues bytes in the write-back
cache.  A word-aligned run that ends at or below ``local_hi`` (the lowest
of the window's end, the MC segment's and VRAM's, as a device address) is
device-local: it is read and written at MC_SEG_BASE + address without
building a span list; a read that misses the cache's address envelope is
a slice of VRAM, and a write drops an overlapping fetch window.  Every
other run, and every run that faults, goes through ``_decode_run``, which
raises the fault (a write through ``_write_run``), so the words, the
faults and the IOMMU's translations are the same either way.
The fetch window, FENCE, scanout and the status page always decode through
``_decode_run``, and ``_sync_status_page`` alone writes the status page,
once per event or FENCE.

COPY queues the bytes it reads as they are, and MUL and a lone DOT unpack
theirs and pack their results once.  ADD adds all lanes of its run at once
(SIMD within a register): it reads each operand's bytes as one
little-endian integer of 32-bit lanes and adds so that no lane carries into
the next, so every word is (x + y) mod 2**32, and writes the sum's bytes.
A COMPUTE whose src2 is its src1 reads the run once, and walks a split
run's pages again, so its FIFO TLB ends as two reads leave it.

DOT runs: a DOT that ``step`` fetches afresh from the fetch window (not one
in flight) runs together with the whole DOT instructions that follow it in
the window, as one instruction: ``step`` computes every product, queues the
results with one ``put_run``, bills the summed cycles and moves RB_HEAD
once.  A scan checks each DOT against the conditions below, computes
those that take no lane pass and records the others for the lane passes.
The runs of one ``step()`` call share an operand memo that reads each
distinct operand run (address and count) once, through ``operand``, and
stores at most DOT_MEMO_WORDS words a call.  A device-local write over its
words empties it, and so does a FENCE, whose status page may lie on them;
a fault ends the call's work.  A run takes a DOT only while all these
hold, and happens only with two DOTs or more; others run alone:

1. it is a COMPUTE DOT of count 1 or more (a DOT of count 0 writes a zero);
2. its target is the word after the previous DOT's, so the results are one
   run of words, and one ``put_run`` of them is one put per word in order;
3. its cycles fit the budget left, so the first DOT that does not fit is
   left to become in flight as before;
4. both operand runs and the target word are device-local, as ``read`` and
   ``write`` test them against ``local_hi``, so nothing in the run faults
   or translates;
5. neither operand run overlaps the targets of the run's earlier DOTs,
   whose results are not queued yet;
6. its target misses the fetch window's words, since a write there drops
   the window and changes what is fetched next.

A run computes its DOTs of count LANES to LANE_MAX_COUNT in lane passes
(SIMD within a register).  Its lane DOTs that follow one another and read
one src1 run with one count form a row, and each LANES of a row a chunk:
word k of their src2 runs is packed into one integer, a lane per DOT, so
``sum(map(mul, src1 words, columns))`` holds each DOT's sum in its lane,
and a lane's low word is its DOT's result.  A lane is
8 + ceil(count.bit_length() / 8) bytes: a sum is below count * 2**64, so
none carries into the next lane.  The rest of a row runs one DOT at a time.
The chunk width is fixed, as integers of many sizes would each keep
allocator memory of their own, and LANE_MAX_COUNT bounds the LANES operand
runs a pass holds.  The memo keeps a chunk's columns (count * LANES words)
only if it has the room; room only shrinks within a call, so every src2
run of the chunk had room and is in the memo too: what empties it drops
the columns.
"""

from __future__ import annotations

import mmap
import struct
from collections import deque
from functools import lru_cache
from itertools import groupby
from operator import itemgetter, mul

from devmux.errors import (CmdFault, HardwareFault, IommuFault, InvalError,
                           McFault, OutOfMemory, RegFault)

WORD = 4
PAGE_SIZE = 4096
MASK32 = 0xFFFFFFFF

VRAM_WINDOW_BASE = 0x0000_0000
VRAM_WINDOW_END = 0x1000_0000
APERTURE_BASE = 0x8000_0000
APERTURE_END = 0xC000_0000

# register offsets
REG_RB_BASE = 0x000
REG_RB_SIZE = 0x004
REG_RB_HEAD = 0x008
REG_RB_TAIL = 0x00C
REG_FB_BASE = 0x010
REG_IH_PAGE_ADDR = 0x014
REG_CACHE_FLUSH = 0x018
REG_TLB_FLUSH = 0x01C
REG_SCRATCH0 = 0x020  # .. 0x03C
REG_MC_SEG_BASE = 0x100
REG_MC_SEG_LIMIT = 0x104
REG_IOMMU_ROOT = 0x108
REG_IOMMU_ENABLE = 0x10C
REG_CP_RESET = 0x120
REG_IRQ_ENABLE = 0x124
REG_DISP_PLL = 0x200
REG_DISP_TIMING_H = 0x204
REG_DISP_TIMING_V = 0x208
REG_DISP_ENABLE = 0x20C
REG_FW_ADDR = 0x300
REG_FW_DATA = 0x304
REG_FW_CTRL = 0x308

SCRATCH_REGISTERS = tuple(REG_SCRATCH0 + 4 * i for i in range(8))

M_REGISTERS = (REG_RB_BASE, REG_RB_SIZE, REG_RB_HEAD, REG_RB_TAIL,
               REG_FB_BASE, REG_IH_PAGE_ADDR, REG_CACHE_FLUSH,
               REG_TLB_FLUSH) + SCRATCH_REGISTERS

S_REGISTERS = (REG_MC_SEG_BASE, REG_MC_SEG_LIMIT, REG_IOMMU_ROOT,
               REG_IOMMU_ENABLE, REG_CP_RESET, REG_IRQ_ENABLE,
               REG_DISP_PLL, REG_DISP_TIMING_H, REG_DISP_TIMING_V,
               REG_DISP_ENABLE, REG_FW_ADDR, REG_FW_DATA, REG_FW_CTRL)

ALL_REGISTERS = M_REGISTERS + S_REGISTERS

# interrupt status flags (pending_flags bits on the status page); a fault's
# bit is its class's own
FLAG_FENCE = 0x1
FLAG_CMD_FAULT = CmdFault.flag
FLAG_IOMMU_FAULT = IommuFault.flag
FLAG_MC_FAULT = McFault.flag
FAULT_FLAGS = FLAG_CMD_FAULT | FLAG_IOMMU_FAULT | FLAG_MC_FAULT

# opcodes
OP_NOP = 0x0
OP_SET_REG = 0x1
OP_COMPUTE = 0x2
OP_COPY = 0x3
OP_FENCE = 0x4

INSTR_WORDS = {OP_NOP: 1, OP_SET_REG: 3, OP_COMPUTE: 6, OP_COPY: 4, OP_FENCE: 4}

# COMPUTE sub-opcodes
CO_ADD = 0x0
CO_MUL = 0x1
CO_DOT = 0x2

FENCE_IRQ = 0x1  # FENCE flags bit0

# page table entry bits
PTE_VALID = 0x1
PTE_WRITABLE = 0x2
PTE_FRAME_SHIFT = 12

# firmware: arbitrary microcode image; FW_CTRL only reports READY when the
# loaded words sum to the expected checksum
FW_SIZE = 64
FIRMWARE_IMAGE = tuple((0xC0DE0000 + 0x101 * i) & MASK32 for i in range(16))
FW_CHECKSUM = sum(FIRMWARE_IMAGE) & MASK32
FW_CTRL_VERIFY = 1
FW_CTRL_READY = 2

VRAM_SIZE_DEFAULT = 16 << 20
TLB_ENTRIES_DEFAULT = 64
CACHE_WORDS = 1024
DOT_MEMO_WORDS = 4 * CACHE_WORDS  # operand words the DOT runs of one step() keep
LANES = 16  # DOTs of one src1 run that one lane pass of a DOT run computes
LANE_MAX_COUNT = CACHE_WORDS  # longest operand run a lane pass takes

# what the display hardware can actually drive: one head, two fixed modes
# (width, height, refresh); both driver stacks validate against this table
DISPLAY_MODES = (((64, 48, 60), (128, 96, 60)),)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data) -> int:
    """64-bit FNV-1a over a bytes-like object."""
    h = _FNV_OFFSET
    prime = _FNV_PRIME
    mask = 0xFFFFFFFFFFFFFFFF
    for b in bytes(data):
        h = ((h ^ b) * prime) & mask
    return h


def zeroed(n: int):
    """``n`` bytes of fixed-length writable memory, zero until written.

    An anonymous mapping: the kernel hands out a zero page when one is
    first written, so memory no workload uses costs neither set-up time nor
    resident memory.  It is private, so reading an untouched page (a
    ``device_digest`` reads all of VRAM) makes nothing resident either.  A
    size no address space can hold is OutOfMemory.
    """
    if n == 0:
        return bytearray()  # a zero-length mapping is EINVAL
    try:
        return mmap.mmap(-1, n, flags=mmap.MAP_PRIVATE)
    except (OSError, OverflowError) as exc:
        raise OutOfMemory(f"cannot reserve {n} bytes of memory: {exc}") from None


# -- instruction encoding ------------------------------------------------

class Nop:
    __slots__ = ()

    def encode(self):
        return [OP_NOP]


class SetReg:
    __slots__ = ("reg", "value")

    def __init__(self, reg: int, value: int):
        self.reg = reg
        self.value = value & MASK32

    def encode(self):
        return [OP_SET_REG, self.reg, self.value]


class Compute:
    __slots__ = ("sub", "dst", "src1", "src2", "count")

    def __init__(self, sub: int, dst: int, src1: int, src2: int, count: int):
        self.sub = sub
        self.dst = dst
        self.src1 = src1
        self.src2 = src2
        self.count = count

    def encode(self):
        return [OP_COMPUTE, self.sub, self.dst & MASK32, self.src1 & MASK32,
                self.src2 & MASK32, self.count & MASK32]


class Copy:
    __slots__ = ("dst", "src", "count")

    def __init__(self, dst: int, src: int, count: int):
        self.dst = dst
        self.src = src
        self.count = count

    def encode(self):
        return [OP_COPY, self.dst & MASK32, self.src & MASK32, self.count & MASK32]


class Fence:
    __slots__ = ("seq", "flags")

    def __init__(self, seq: int, flags: int = FENCE_IRQ):
        self.seq = seq
        self.flags = flags

    def encode(self):
        return [OP_FENCE, self.seq & MASK32, (self.seq >> 32) & MASK32, self.flags]


def encode_batch(instrs) -> list:
    words = []
    for instr in instrs:
        words.extend(instr.encode())
    return words


# -- translation ---------------------------------------------------------

class PageTable:
    """Two-level translation table with 32-bit entries.

    Level-1 entries name a level-2 table (frame field = index into ``l2s``);
    level-2 entries name a system memory frame.  Either level being !VALID
    makes the walk fault; writes through a !WRITABLE leaf fault.
    """

    ENTRIES = 1024

    def __init__(self):
        self.l1 = [0] * self.ENTRIES
        self.l2s = []

    @staticmethod
    def _split(off: int):
        return (off >> 22) & 0x3FF, (off >> 12) & 0x3FF

    def map(self, off: int, frame: int, writable: bool = True):
        assert not off % PAGE_SIZE, "every caller maps page-aligned offsets"
        i1, i2 = self._split(off)
        if not self.l1[i1] & PTE_VALID:
            self.l2s.append([0] * self.ENTRIES)
            self.l1[i1] = PTE_VALID | ((len(self.l2s) - 1) << PTE_FRAME_SHIFT)
        l2 = self.l2s[self.l1[i1] >> PTE_FRAME_SHIFT]
        assert not l2[i2] & PTE_VALID, "every caller maps unmapped pages"
        l2[i2] = (PTE_VALID | (PTE_WRITABLE if writable else 0)
                  | (frame << PTE_FRAME_SHIFT))

    def unmap(self, off: int):
        i1, i2 = self._split(off)
        assert self.l1[i1] & PTE_VALID, "every caller unmaps mapped pages"
        l2 = self.l2s[self.l1[i1] >> PTE_FRAME_SHIFT]
        assert l2[i2] & PTE_VALID, "every caller unmaps mapped pages"
        l2[i2] = 0

    def lookup(self, off: int):
        """Walk one page; returns (frame, writable) or raises IommuFault."""
        i1, i2 = self._split(off)
        e1 = self.l1[i1]
        if not e1 & PTE_VALID:
            raise IommuFault(f"level-1 entry invalid for offset 0x{off:x}")
        e2 = self.l2s[e1 >> PTE_FRAME_SHIFT][i2]
        if not e2 & PTE_VALID:
            raise IommuFault(f"level-2 entry invalid for offset 0x{off:x}")
        return e2 >> PTE_FRAME_SHIFT, bool(e2 & PTE_WRITABLE)


class IommuUnit:
    """Translation front-end: a root table id plus a FIFO TLB.  Changing
    the root empties the TLB."""

    def __init__(self, tables: dict, tlb_entries: int = TLB_ENTRIES_DEFAULT):
        self.tables = tables
        self.tlb_entries = tlb_entries
        self.root = 0
        self.enabled = True
        self.tlb = {}  # page number -> (frame, writable); insertion ordered

    def set_root(self, table_id: int):
        self.root = table_id
        self.tlb.clear()

    def tlb_flush(self):
        self.tlb.clear()

    def translate(self, off: int, is_write: bool):
        """Aperture offset -> (frame, page offset); faults raise IommuFault."""
        if not self.enabled:
            raise IommuFault("translation disabled")
        page = off >> 12
        hit = self.tlb.get(page)
        if hit is None:
            table = self.tables.get(self.root)
            if table is None:
                raise IommuFault(f"no table for root {self.root}")
            hit = table.lookup(off)
            if len(self.tlb) >= self.tlb_entries:
                self.tlb.pop(next(iter(self.tlb)))
            self.tlb[page] = hit
        frame, writable = hit
        if is_write and not writable:
            raise IommuFault(f"write to read-only page at offset 0x{off:x}")
        return frame, off & 0xFFF


# -- write-back cache -----------------------------------------------------

# physical address spaces: device-local memory and system memory
_SPACE_VRAM = 0
_SPACE_SYS = 1
_SPACES = 2
_NO_ADDR = 1 << 64  # above every byte address: the empty envelope's lo


@lru_cache(maxsize=256)
def _words(n: int) -> struct.Struct:
    """The layout of ``n`` little-endian words, built once per count."""
    return struct.Struct(f"<{n}I")


@lru_cache(maxsize=4)  # counts come from untrusted batches: keep few
def _lanes(count: int) -> struct.Struct:
    """The layout of a lane pass over DOTs of ``count`` words: it packs and
    reads the low word of each of LANES lanes, each wide enough for a sum
    of ``count`` products of two words, which is below count * 2**64."""
    width = 8 + (count.bit_length() + 7) // 8
    return struct.Struct("<" + f"I{width - WORD}x" * LANES)


@lru_cache(maxsize=4)  # counts come from untrusted batches: keep few
def _add_masks(n: int) -> tuple:
    """(low, top) for a SWAR add of ``n`` words read as one little-endian
    int: ``low`` holds 0x7FFFFFFF and ``top`` 0x80000000 in every lane."""
    top = int.from_bytes(b"\0\0\0\x80" * n, "little")
    return top - (top >> 31), top


class WriteBackCache:
    """Word-granular FIFO write-back cache over one backing per space.

    The cache behaves as a queue of words, oldest first.  Device reads
    observe pending words; the backing memory sees them only on ``drain()``
    or when a full cache evicts its oldest word to make room for a new one.
    Writing a word that is already pending updates it in place and keeps
    its place in the queue.

    Runs move as bytes, packed little-endian words.  ``put_run`` takes a run
    of consecutive words and does what one put per word, in run order,
    does: the queue, the evicted words and the backing end up the same.
    ``_runs`` holds the queue as ``[space, addr, bytearray]`` entries,
    oldest first, whose words are consecutive both in byte address and in
    queue order, and no word is in two entries; an eviction or a drain
    writes each entry's span back with one slice assignment.  ``read``
    returns bytes, the backing with pending bytes laid over it.

    ``lo[space]`` and ``hi[space]`` bound the byte addresses put in each
    space since the last drain (the envelope).  ``put_run`` widens it before
    queueing the run, so a run or a read that misses it meets no pending
    word, and such a read is a plain slice of the backing; ``drain()``
    empties it.
    """

    def __init__(self, capacity: int, backings):
        self.capacity = capacity
        self.backings = backings  # one zeroed() buffer per space
        self._runs = deque()  # [space, byte addr, bytearray], oldest first
        self.size = 0  # pending words
        self.lo = [_NO_ADDR] * _SPACES
        self.hi = [-1] * _SPACES

    def put_run(self, space: int, addr: int, data):
        """Queue ``data``, packed words, at consecutive byte addresses from
        ``addr``."""
        last = addr + len(data) - WORD
        lo = self.lo[space]
        hi = self.hi[space]
        if addr < lo:
            self.lo[space] = addr
        if last > hi:
            self.hi[space] = last
        if lo <= last and addr <= hi:
            # the run may meet pending words: one put per word
            for i in range(0, len(data), WORD):
                self._put_word(space, addr + i, data[i:i + WORD])
        else:
            self._append(space, addr, data)

    def _put_word(self, space: int, addr: int, word):
        """Update the 4 bytes at ``addr`` in place if they are pending, else
        queue them as a new word."""
        for s, a, run in self._runs:
            if s == space and a <= addr < a + len(run):
                run[addr - a:addr - a + WORD] = word
                return
        self._append(space, addr, word)

    def _append(self, space: int, addr: int, data):
        """Queue words none of which is pending at the tail, trimming the
        oldest words first to make room; a run longer than the cache goes
        in ``capacity`` words at a time."""
        n = len(data) // WORD
        capacity = self.capacity
        if n > capacity:
            for k in range(0, len(data), capacity * WORD):
                self._append(space, addr + k, data[k:k + capacity * WORD])
            return
        over = self.size + n - capacity
        if over > 0:
            self._trim(over)
        runs = self._runs
        self.size += n
        if runs:
            tail = runs[-1]
            if tail[0] == space and tail[1] + len(tail[2]) == addr:
                tail[2] += data
                return
        runs.append([space, addr, bytearray(data)])

    def _trim(self, k: int):
        """Evict the ``k`` oldest words (at most ``size``), writing back
        one slice per entry they cover."""
        runs = self._runs
        backings = self.backings
        self.size -= k
        k *= WORD
        while k:
            entry = runs[0]
            space, addr, data = entry
            n = len(data)
            if n <= k:
                runs.popleft()
                backings[space][addr:addr + n] = data
                k -= n
            else:
                backings[space][addr:addr + k] = data[:k]
                del data[:k]
                entry[1] = addr + k
                return

    def read(self, space: int, addr: int, n: int):
        """The ``n`` words at ``addr`` as bytes: the backing with pending
        bytes laid over it."""
        end = addr + n * WORD
        if addr > self.hi[space] or self.lo[space] >= end:
            return self.backings[space][addr:end]
        data = bytearray(self.backings[space][addr:end])
        for s, a, run in self._runs:
            if s == space and a < end and addr < a + len(run):
                i, j = (a - addr, 0) if a >= addr else (0, addr - a)
                k = min(end - addr - i, len(run) - j)
                data[i:i + k] = run[j:j + k]
        return data

    def drop(self, space: int, addr: int, n: int):
        """Forget the pending words among the ``n`` at ``addr``, splitting
        an entry that holds words on both sides of them."""
        end = addr + n * WORD
        if not (addr <= self.hi[space] and self.lo[space] < end):
            return
        kept = deque()
        for entry in self._runs:
            s, a, run = entry
            stop = a + len(run)
            if s != space or stop <= addr or end <= a:
                kept.append(entry)
                continue
            self.size -= (min(stop, end) - max(a, addr)) // WORD
            if a < addr:
                kept.append([s, a, run[:addr - a]])
            if end < stop:
                kept.append([s, end, run[end - a:]])
        self._runs = kept

    def drain(self):
        backings = self.backings
        for space, addr, data in self._runs:
            backings[space][addr:addr + len(data)] = data
        self._runs.clear()
        self.size = 0
        self.lo = [_NO_ADDR] * _SPACES
        self.hi = [-1] * _SPACES


# -- results ---------------------------------------------------------------

class ExecReport:
    """What one step() call did: the cycles it consumed."""

    __slots__ = ("cycles_used",)

    def __init__(self, cycles_used: int = 0):
        self.cycles_used = cycles_used


class ScanoutResult:
    __slots__ = ("frame", "faulted")  # frame: zeros if it faulted

    def __init__(self, frame: bytes, faulted: bool):
        self.frame = frame
        self.faulted = faulted

    @property
    def digest(self) -> int:
        """``fnv1a64`` of the frame, taken only when asked for."""
        return fnv1a64(self.frame)


# -- the device -------------------------------------------------------------

class SimDevice:
    """The accelerator.  ``sysmem`` is anything with a ``data`` attribute,
    a fixed-length writable buffer, zero until written, covering
    frame*4096+offset addressing (the DMA target), read once here.
    The command processor runs only while FW_CTRL reads READY."""

    def __init__(self, sysmem, *, vram_size: int = VRAM_SIZE_DEFAULT):
        self.regs = {off: 0 for off in ALL_REGISTERS}
        self.vram = zeroed(vram_size)
        self.translation_tables = {}
        self.iommu = IommuUnit(self.translation_tables)
        self.active_iommu = self.iommu
        # the bytes behind each physical space, indexed by _SPACE_*
        self._backings = (self.vram, sysmem.data)
        self.cache = WriteBackCache(CACHE_WORDS, self._backings)
        self.firmware = [0] * FW_SIZE
        self._inflight = None  # [opcode, words, cycles_left]
        # (ring lo, ring hi, words, space, phys lo, phys hi); byte offsets
        self._window = None
        # the status page: fence seq (low, high word), event count, flags
        self._status = [0, 0, 0, 0]

    # -- MMIO ---------------------------------------------------------

    def mmio_read(self, offset: int) -> int:
        if offset not in self.regs:
            raise RegFault(f"read of unknown register offset 0x{offset:x}")
        return self.regs[offset]

    def mmio_write(self, offset: int, value: int):
        if offset not in self.regs:
            raise RegFault(f"write to unknown register offset 0x{offset:x}")
        value &= MASK32
        if offset == REG_RB_SIZE:
            if value < 16 or value & (value - 1):
                raise RegFault(f"RB_SIZE must be a power of two >= 16 words, got {value}")
        elif offset == REG_RB_TAIL:
            if (self.regs[REG_FW_CTRL] != FW_CTRL_READY
                    or self.regs[REG_RB_SIZE] < 16):
                self._record_event(FLAG_CMD_FAULT)
                return
        elif offset == REG_FW_DATA:
            index = self.regs[REG_FW_ADDR]
            if index >= FW_SIZE:
                raise RegFault(f"firmware index {index} out of range")
            self.firmware[index] = value
            self.regs[REG_FW_ADDR] = index + 1
            self.regs[REG_FW_CTRL] = 0
            return
        elif offset == REG_FW_CTRL:
            ready = (value == FW_CTRL_VERIFY
                     and sum(self.firmware) & MASK32 == FW_CHECKSUM)
            self.regs[offset] = FW_CTRL_READY if ready else 0
            return
        self.regs[offset] = value
        if offset == REG_CP_RESET:
            self._cp_reset()
        elif offset == REG_TLB_FLUSH:
            self.active_iommu.tlb_flush()
        elif offset == REG_CACHE_FLUSH:
            self.cache.drain()
        elif offset == REG_IOMMU_ROOT:
            self.active_iommu.set_root(value)
        elif offset == REG_IOMMU_ENABLE:
            self.active_iommu.enabled = bool(value)
        elif offset == REG_IH_PAGE_ADDR:
            self._sync_status_page()  # reveal anything recorded while unset

    def restore_registers(self, values):
        """Privileged raw restore of M-class registers; no side effects."""
        for offset, value in values.items():
            if offset not in M_REGISTERS:
                raise RegFault(f"restore of non-M register 0x{offset:x}")
            self.regs[offset] = value & MASK32

    # -- address decode -------------------------------------------------

    def _decode_run(self, da: int, n_words: int, is_write: bool):
        """Decode ``n_words`` consecutive words at ``da`` into physical spans.

        Returns [(space, byte addr, word count), ...].  All translation
        happens here, so callers can decode every target before touching
        memory (whole-instruction atomicity).  A run that starts in the
        device-local window is one span that must end inside the window;
        an aperture run splits at page boundaries and may run on past the
        aperture's end into MC_FAULT.  ``n_words`` is at least 1.
        """
        if da % WORD:
            raise McFault(f"unaligned device address 0x{da:x}")
        if da + n_words * WORD <= VRAM_WINDOW_END:  # VRAM_WINDOW_BASE is 0
            loc = self.regs[REG_MC_SEG_BASE] + da
            end = loc + n_words * WORD
            if end > self.regs[REG_MC_SEG_LIMIT] or end > len(self.vram):
                raise McFault(f"VRAM access 0x{loc:x}..0x{end:x} outside segment")
            return [(_SPACE_VRAM, loc, n_words)]
        spans = []
        remaining = n_words
        cur = da
        while remaining > 0:
            if APERTURE_BASE <= cur < APERTURE_END:
                off = cur - APERTURE_BASE
                in_page = PAGE_SIZE - (off & (PAGE_SIZE - 1))
                take = min(remaining, in_page // WORD)
                frame, page_off = self.active_iommu.translate(off, is_write)
                spans.append((_SPACE_SYS, frame * PAGE_SIZE + page_off, take))
            else:  # outside both windows, or a device-local run past its end
                raise McFault(f"run at 0x{cur:x} does not fit a window")
            remaining -= take
            cur += take * WORD
        return spans

    # -- physical word access --------------------------------------------

    def _read_run(self, da: int, n_words: int) -> tuple:
        """The ``n_words`` words at ``da``."""
        spans = self._decode_run(da, n_words, False)
        return _words(n_words).unpack(b"".join([self.cache.read(*span) for span in spans]))

    def _write_run(self, da: int, data):
        """Queue ``data``, packed words, at ``da``, split across its spans."""
        spans = self._decode_run(da, len(data) // WORD, True)  # translate before any write
        k = 0
        for space, addr, count in spans:
            self._drop_window_over(space, addr, addr + (count - 1) * WORD)
            self.cache.put_run(space, addr, data[k:k + count * WORD])
            k += count * WORD

    # -- interrupt status -------------------------------------------------

    def _sync_status_page(self):
        """The status page's only writer: packs the words into the backing,
        dropping the fetch window and the cache's pending words over them.
        Best effort: an unset page, or one that faults, is written when next set."""
        if self.regs[REG_IH_PAGE_ADDR] == 0:
            return
        try:
            spans = self._decode_run(self.regs[REG_IH_PAGE_ADDR], 4, True)
        except HardwareFault:
            return
        k = 0
        for space, addr, count in spans:
            self._drop_window_over(space, addr, addr + (count - 1) * WORD)
            self.cache.drop(space, addr, count)
            _words(count).pack_into(self._backings[space], addr, *self._status[k:k + count])
            k += count

    def _record_event(self, flag: int):
        status = self._status
        status[2] = (status[2] + 1) & MASK32
        status[3] |= flag
        self._sync_status_page()

    # -- command processor -------------------------------------------------

    def _cp_reset(self):
        self.regs[REG_RB_HEAD] = 0
        self.regs[REG_RB_TAIL] = 0
        self._inflight = None
        self._status = [0, 0, 0, 0]

    @property
    def cp_idle(self) -> bool:
        return (self._inflight is None
                and self.regs[REG_RB_HEAD] == self.regs[REG_RB_TAIL])

    @property
    def pending_flags(self) -> int:
        """Accumulated event flags since the last CP reset."""
        return self._status[3]

    def _drop_window_over(self, space: int, first: int, last: int):
        """Drop the fetch window if bytes ``first..last`` of ``space``
        overlap its words."""
        window = self._window
        if (window is not None and window[3] == space
                and first <= window[5] and window[4] <= last):
            self._window = None

    def _fetch(self, head: int, tail: int, ring: int):
        """Decode the instruction at ``head``; returns its words.

        ``ring`` is the ring size in bytes.  The words come from the fetch
        window, which is read afresh when ``head`` lies outside it; if that
        read faults, there is no window and the opcode word is read alone.
        A head or tail at or past the ring end is a command fault, checked
        only on that rebuild: a window exists only once both checks passed,
        and nothing within a ``step()`` call changes RB_TAIL or RB_SIZE.
        Word k of the instruction past the window's end is read alone from
        ring offset (``head`` + 4k) mod the ring size, so the first word
        that faults is the one a word-by-word fetch faults on.
        """
        window = self._window
        if window is None or not window[0] <= head < window[1]:
            if tail >= ring:
                raise CmdFault(f"RB_TAIL 0x{tail:x} at or past the ring end")
            if head >= ring:
                raise CmdFault(f"RB_HEAD 0x{head:x} at or past the ring end")
            da = self.regs[REG_RB_BASE] + head
            n_bytes = min((tail - head) % ring, ring - head, PAGE_SIZE - da % PAGE_SIZE)
            try:
                (span,) = self._decode_run(da, (n_bytes + WORD - 1) // WORD, False)
            except HardwareFault:
                window = self._window = None
            else:
                space, addr, count = span
                fetched = _words(count).unpack(self.cache.read(space, addr, count))
                window = self._window = (head, head + count * WORD, fetched, space, addr,
                                         addr + (count - 1) * WORD)
        if window is None:
            fetched, i = self._read_run(self.regs[REG_RB_BASE] + head, 1), 0
        else:
            fetched, i = window[2], (head - window[0]) // WORD
        opcode = fetched[i]
        length = INSTR_WORDS.get(opcode)
        if length is None:
            raise CmdFault(f"unknown opcode 0x{opcode:x}")
        if (tail - head) % ring < length * WORD:  # not 0: the CP is not idle
            raise CmdFault("truncated instruction at end of batch")
        words = fetched[i:i + length]
        if len(words) < length:  # rare: the window ends inside it
            base = self.regs[REG_RB_BASE]
            for k in range(len(words), length):
                words += self._read_run(base + (head + k * WORD) % ring, 1)
        return words

    def _fault(self, fault: HardwareFault):
        # a fault consumes the rest of the batch; nothing partial survives
        self.regs[REG_RB_HEAD] = self.regs[REG_RB_TAIL]
        self._inflight = None
        self._record_event(fault.flag)

    def step(self, budget: int) -> ExecReport:
        """Run the CP for up to ``budget`` cycles; partial batches resume.

        The fetch window is dropped on entry, since the host may have
        rewritten the ring, the registers or the page tables since the last
        call; within the call it is rebuilt whenever RB_HEAD leaves it, and
        dropped when a device write lands on it or reading it faults.
        """
        self._window = None
        regs = self.regs
        # read once a call: no instruction writes a register but RB_HEAD
        # and the scratch registers
        ready = regs[REG_FW_CTRL] == FW_CTRL_READY
        ring = regs[REG_RB_SIZE] * WORD
        tail = regs[REG_RB_TAIL]
        seg_base = regs[REG_MC_SEG_BASE]
        # a word-aligned run at da is device-local if it ends at or below
        # local_hi: inside the window, the MC segment and VRAM
        local_hi = min(VRAM_WINDOW_END, regs[REG_MC_SEG_LIMIT] - seg_base,
                       len(self.vram) - seg_base)
        vram = self.vram
        cache = self.cache
        put_run = cache.put_run
        write_run = self._write_run

        # operand runs: a device-local run decodes here (see the module
        # docstring); every other run, and every fault, goes through
        # _decode_run (writes: _write_run)
        def read(da, count):
            """(the ``count`` words at ``da`` as bytes, their span count)"""
            if da % WORD or da + count * WORD > local_hi:
                spans = self._decode_run(da, count, False)
                if len(spans) == 1:
                    return cache.read(*spans[0]), 1
                return b"".join([cache.read(*span) for span in spans]), len(spans)
            return cache.read(_SPACE_VRAM, seg_base + da, count), 1

        # DOT-run operand memo, (address, count) -> words in [memo_lo, memo_hi)
        memo, room, memo_lo, memo_hi = {}, DOT_MEMO_WORDS, _NO_ADDR, -1

        def operand(da, count):
            """The ``count`` words of the device-local run at ``da``, which
            the memo misses; the memo keeps them while it has room."""
            nonlocal room, memo_lo, memo_hi
            loc, end = seg_base + da, da + count * WORD
            if loc > cache.hi[_SPACE_VRAM] or cache.lo[_SPACE_VRAM] >= seg_base + end:
                words = _words(count).unpack_from(vram, loc)
            else:
                words = _words(count).unpack(cache.read(_SPACE_VRAM, loc, count))
            if count <= room:
                memo[da, count] = words
                room -= count
                # not min() and max(): their calls cost tenants' steps 5%
                memo_lo = da if da < memo_lo else memo_lo
                memo_hi = end if end > memo_hi else memo_hi
            return words

        def write(da, data):
            n_bytes = len(data)
            if da % WORD or da + n_bytes > local_hi:
                write_run(da, data)
                return
            loc = seg_base + da
            window = self._window  # _drop_window_over, inline
            if (window is not None and window[3] == _SPACE_VRAM
                    and loc <= window[5] and window[4] <= loc + n_bytes - WORD):
                self._window = None
            if da < memo_hi and memo_lo < da + n_bytes:
                memo.clear()
            put_run(_SPACE_VRAM, loc, data)

        def dot_run(head, first, left):
            """Run the DOT at ``head``, whose target is ``first``, and the
            DOTs after it in the fetch window as one instruction, if at least
            two in a row meet the DOT-run conditions (see the module
            docstring); the cycles they cost, or 0."""
            nonlocal room
            window = self._window
            if window is None or first % WORD:
                return 0
            fetched = window[2]
            i = (head - window[0]) // WORD
            # DOTs of 24 bytes in the window and the batch, at 2 cycles or
            # more each, whose consecutive targets meet conditions 4 and 6
            n = min(window[1] - head, (tail - head) % ring, left * 12,
                    (local_hi - first) * 6) // 24
            if window[3] == _SPACE_VRAM and first <= window[5] - seg_base:
                n = min(n, (window[4] - seg_base - first) // WORD)
            if n < 2 or fetched[i + 5] + 3 > left:  # the first DOT, 2 cycles for a second
                return 0
            # the scan: a DOT that takes no lane pass is computed at once,
            # a lane DOT (src1, count, src2, result slot) waits for its row
            results, lane_dots, cycles, dst = [], [], 0, first
            for opcode, sub, d, s1, s2, count in zip(*[iter(fetched[i:i + 6 * n])] * 6):
                spent = cycles + 1 + count
                n_bytes = count * WORD
                if (opcode != OP_COMPUTE or sub != CO_DOT or not count or d != dst
                        or spent > left or s1 % WORD or s2 % WORD
                        or s1 + n_bytes > local_hi or s2 + n_bytes > local_hi
                        # the earlier targets, [first, dst), are not queued yet
                        or results and (s1 < dst and first < s1 + n_bytes
                                        or s2 < dst and first < s2 + n_bytes)):
                    break
                if LANES <= count <= LANE_MAX_COUNT:
                    lane_dots.append((s1, count, s2, len(results)))
                    results.append(0)
                else:  # the memo probes inline: operand() only on a miss
                    a = memo.get((s1, count)) or operand(s1, count)
                    b = memo.get((s2, count)) or operand(s2, count)
                    results.append(sum(map(mul, a, b)) & MASK32)
                cycles = spent
                dst += WORD
            if len(results) < 2:
                return 0
            # the lane passes: each row of lane DOTs that read one src1 run
            # with one count, LANES DOTs a pass and the rest one at a time
            for (s1, count), row in groupby(lane_dots, itemgetter(0, 1)) if lane_dots else ():
                a = memo.get((s1, count)) or operand(s1, count)
                row = list(row)
                full = len(row) - len(row) % LANES
                for k in range(0, full, LANES):
                    chunk = row[k:k + LANES]
                    addrs = tuple([dot[2] for dot in chunk])
                    layout = _lanes(count)
                    columns = memo.get((addrs, count))
                    if columns is None:  # word k of every run, one per lane
                        runs = [memo.get((s2, count)) or operand(s2, count) for s2 in addrs]
                        columns = [int.from_bytes(column, "little")
                                   for column in map(layout.pack, *runs)]
                        if count * LANES <= room:  # so the memo kept every run
                            memo[addrs, count] = columns
                            room -= count * LANES
                    lanes = sum(map(mul, a, columns)).to_bytes(layout.size, "little")
                    for dot, word in zip(chunk, layout.unpack(lanes)):
                        results[dot[3]] = word
                for _, _, s2, at in row[full:]:
                    b = memo.get((s2, count)) or operand(s2, count)
                    results[at] = sum(map(mul, a, b)) & MASK32
            if first < memo_hi and memo_lo < dst:
                memo.clear()
            put_run(_SPACE_VRAM, seg_base + first, _words(len(results)).pack(*results))
            regs[REG_RB_HEAD] = (head + len(results) * 6 * WORD) % ring
            return cycles

        used = 0
        while used < budget:
            if self._inflight is not None:
                opcode, words, cost = self._inflight
            else:
                head = regs[REG_RB_HEAD]
                if head == tail or not ready:
                    break
                try:
                    words = self._fetch(head, tail, ring)
                except HardwareFault as fault:
                    self._fault(fault)
                    continue
                opcode = words[0]
                if opcode == OP_COMPUTE:
                    if words[1] == CO_DOT:
                        cycles = dot_run(head, words[2], budget - used)
                        if cycles:
                            used += cycles
                            continue
                    cost = 1 + words[5]
                elif opcode == OP_COPY:
                    cost = 1 + words[3]
                else:
                    cost = 4 if opcode == OP_FENCE else 1
            if cost > budget - used:  # out of budget mid-instruction
                self._inflight = [opcode, words, cost - (budget - used)]
                used = budget
                break
            used += cost
            self._inflight = None
            try:
                if opcode == OP_COMPUTE:
                    sub, dst, src1, src2, count = words[1:]
                    if sub > CO_DOT:  # CO_ADD, CO_MUL, CO_DOT are 0, 1, 2
                        raise CmdFault(f"unknown COMPUTE sub-op 0x{sub:x}")
                    if count:
                        a, spans = read(src1, count)
                        b = a if src2 == src1 else read(src2, count)[0]
                        if src2 == src1 and spans > 1:  # walk the pages again for src2
                            self._decode_run(src2, count, False)
                        if sub == CO_ADD:
                            x = int.from_bytes(a, "little")
                            y = x if b is a else int.from_bytes(b, "little")
                            # every lane at once: the low 31 bits add without
                            # reaching the next lane, and the top bit is the
                            # operands' top bits XOR the carry into it
                            low, top = _add_masks(count)
                            z = ((x & low) + (y & low)) ^ ((x ^ y) & top)
                            write(dst, z.to_bytes(count * WORD, "little"))
                        else:
                            layout = _words(count)
                            a, b = layout.unpack(a), layout.unpack(b)
                            if sub == CO_DOT:
                                write(dst, (sum(map(mul, a, b)) & MASK32).to_bytes(WORD, "little"))
                            else:
                                write(dst, layout.pack(*[(x * y) & MASK32 for x, y in zip(a, b)]))
                    elif sub == CO_DOT:
                        write(dst, bytes(WORD))
                elif opcode == OP_COPY:
                    dst, src, count = words[1:]
                    if count:
                        write(dst, read(src, count)[0])
                elif opcode == OP_FENCE:
                    # decode the page before the drain: a fault changes nothing
                    ih = regs[REG_IH_PAGE_ADDR]
                    if ih == 0:
                        raise CmdFault("FENCE with no status page configured")
                    self._decode_run(ih, 4, True)
                    cache.drain()
                    self._status[:2] = words[1:3]
                    if words[3] & FENCE_IRQ and regs[REG_IRQ_ENABLE]:
                        self._record_event(FLAG_FENCE)
                    else:
                        self._sync_status_page()
                    memo.clear()
                elif opcode == OP_SET_REG:
                    reg, value = words[1:]
                    if reg not in SCRATCH_REGISTERS:
                        raise CmdFault(f"SET_REG may only target scratch registers, got 0x{reg:x}")
                    regs[reg] = value
            except HardwareFault as fault:
                self._fault(fault)
            else:
                regs[REG_RB_HEAD] = (regs[REG_RB_HEAD] + len(words) * WORD) % ring
        return ExecReport(used)

    # -- display -----------------------------------------------------------

    def scanout(self) -> ScanoutResult:
        """Read one frame from FB_BASE.  Observes flushed data only."""
        width = self.regs[REG_DISP_TIMING_H]
        height = self.regs[REG_DISP_TIMING_V]
        if not self.regs[REG_DISP_ENABLE] or width == 0 or height == 0:
            raise InvalError("display not enabled or no mode programmed")
        n = width * height
        try:
            spans = self._decode_run(self.regs[REG_FB_BASE], n, False)
            frame = b"".join(self._backings[space][addr:addr + count * WORD]
                             for space, addr, count in spans)
        except HardwareFault as fault:
            self._record_event(fault.flag)
            return ScanoutResult(bytes(n * WORD), True)
        return ScanoutResult(frame, False)

    # -- state digest --------------------------------------------------------

    def device_digest(self) -> int:
        """64-bit BLAKE2b over registers (offset order), device memory, and
        CP state."""
        import hashlib  # loads OpenSSL (3.5 MiB resident): import on use
        h = hashlib.blake2b(digest_size=8)
        h.update(b"".join(self.regs[off].to_bytes(4, "little")
                          for off in sorted(self.regs)))
        h.update(self.vram)
        if self._inflight is None:
            cp = [0]
        else:
            cp = [1, self._inflight[0], self._inflight[2] & MASK32] + [
                w & MASK32 for w in self._inflight[1]]
        cp += self._status
        h.update(b"".join(w.to_bytes(4, "little") for w in cp))
        return int.from_bytes(h.digest(), "little")


# -- bring-up ---------------------------------------------------------------

def install_firmware(device: SimDevice):
    device.mmio_write(REG_FW_ADDR, 0)
    for word in FIRMWARE_IMAGE:
        device.mmio_write(REG_FW_DATA, word)
    device.mmio_write(REG_FW_CTRL, FW_CTRL_VERIFY)
    return device.mmio_read(REG_FW_CTRL) == FW_CTRL_READY


def bring_up(device: SimDevice):
    """Common power-on sequence: firmware, interrupts, translation, clean CP."""
    if not install_firmware(device):
        raise RegFault("firmware checksum rejected")
    device.mmio_write(REG_IRQ_ENABLE, 1)
    device.mmio_write(REG_IOMMU_ENABLE, 1)
    device.mmio_write(REG_CP_RESET, 1)
    for off in (REG_DISP_PLL, REG_DISP_TIMING_H, REG_DISP_TIMING_V, REG_DISP_ENABLE):
        device.mmio_write(off, 0)


def check_mode(display: int, mode) -> tuple:
    """``mode`` as a (width, height, refresh) tuple, or InvalError unless
    ``display`` offers it in DISPLAY_MODES."""
    if type(display) is not int or not 0 <= display < len(DISPLAY_MODES):
        raise InvalError(f"no display {display!r}")
    if not (isinstance(mode, (tuple, list)) and len(mode) == 3
            and all(type(v) is int for v in mode)):
        raise InvalError(f"mode {mode!r} is not three ints")
    mode = tuple(mode)
    if mode not in DISPLAY_MODES[display]:
        raise InvalError(f"mode {mode} not offered")
    return mode


def program_display(device: SimDevice, display: int, mode):
    """Check ``mode`` with ``check_mode``, then program and enable it."""
    width, height, refresh = check_mode(display, mode)
    device.mmio_write(REG_DISP_PLL, refresh)
    device.mmio_write(REG_DISP_TIMING_H, width)
    device.mmio_write(REG_DISP_TIMING_V, height)
    device.mmio_write(REG_DISP_ENABLE, 1)
