"""Baseline monolithic driver: all management in the kernel.

Applications hold opaque buffer ids and call across the user/kernel boundary
for every operation; payloads and command streams are copied across that
boundary and every submitted instruction is software-validated (ownership,
bounds, no sensitive register targets) before being patched with real device
addresses and written into the kernel-owned ring.  This is the cost structure
the library driver removes, kept behaviorally identical so workload results
can be compared byte for byte.

Applications build command streams from the device's own instruction
classes (``simdev.Nop``, ``SetReg``, ``Compute`` and ``Copy``), with a
(buffer id, byte offset) pair in each address field.  The kernel checks
and encodes each instruction in one pass, writing the device address of
every pair in its place.  Nothing carries over from one submit to the
next: the application can change its batch between submits, so every
submit is checked again.  Applications never see device addresses, and
FENCE stays the kernel's own.
"""

from __future__ import annotations

from devmux import simdev
from devmux.alloc import FirstFitAllocator
from devmux.errors import BadHandle, InvalError, NotFoundError, PermError
from devmux.platform import RUN_TO_IDLE
from devmux.pool import (MAX_BATCH_WORDS, MIN_POOL_PAGES, RING_REGISTERS,
                         Buffer, PagePool, payload)
from devmux.simdev import (CO_ADD, CO_DOT, CO_MUL, DISPLAY_MODES, INSTR_WORDS,
                           MASK32, OP_COMPUTE, OP_COPY, OP_NOP, OP_SET_REG,
                           PAGE_SIZE, REG_DISP_ENABLE, REG_FB_BASE,
                           REG_IOMMU_ROOT, REG_MC_SEG_BASE, REG_MC_SEG_LIMIT,
                           REG_RB_TAIL, SCRATCH_REGISTERS, WORD, Compute, Copy,
                           Nop, PageTable, SetReg, SimDevice)

LEGACY_API = ("legacy_open", "legacy_close", "legacy_alloc", "legacy_free",
              "legacy_write", "legacy_read", "legacy_submit", "legacy_wait",
              "legacy_fence_status", "legacy_set_mode", "legacy_info")

KERNEL_TABLE_ID = 1
POOL_PAGES_DEFAULT = 64
WAIT_ROUND_CYCLES = 8192                   # device budget per wait syscall


class LegacyDriver:
    """The whole driver, kernel-side; one instance owns the device."""

    def __init__(self, platform, device: SimDevice, *,
                 pool_pages: int = POOL_PAGES_DEFAULT):
        if pool_pages < MIN_POOL_PAGES:
            raise InvalError(f"pool needs at least {MIN_POOL_PAGES} pages")
        self.platform = platform
        self.device = device
        simdev.bring_up(device)
        # the monolithic driver owns all of device memory: segment wide open
        device.mmio_write(REG_MC_SEG_BASE, 0)
        device.mmio_write(REG_MC_SEG_LIMIT, len(device.vram))

        self._table = PageTable()
        device.translation_tables[KERNEL_TABLE_ID] = self._table
        device.mmio_write(REG_IOMMU_ROOT, KERNEL_TABLE_ID)

        vaddrs = platform.alloc_pages("legacy-kernel", pool_pages)
        frames = []
        for i, vaddr in enumerate(vaddrs):
            frame = platform.resolve("legacy-kernel", vaddr)
            self._table.map(i * PAGE_SIZE, frame, writable=True)
            platform.sysmem.pin(frame)
            frames.append(frame)
        for reg, value in RING_REGISTERS:
            device.mmio_write(reg, value)

        vram = FirstFitAllocator(len(device.vram))
        self.pool = PagePool(platform.sysmem, frames, alloc_vram=vram.alloc,
                             free_vram=vram.free, copy=self._copy)
        self.buffers = self.pool.buffers
        self.clients = {}
        self._next_client = 1
        self._scanout = None  # the buffer the display reads, if any

    # -- kernel-side plumbing (no boundary crossings in here) ---------------

    def _charge(self, n_bytes: int = 0):
        self.platform.ledger.crossings += 1
        self.platform.ledger.bytes_copied += n_bytes

    def _drain(self):
        if not self.device.cp_idle:
            self.platform.ledger.run(self.device, RUN_TO_IDLE)

    def _push_ring(self, payload_words, drain: bool) -> int:
        """Write one fenced chunk into the ring and trigger it."""
        self._drain()  # reclaim the whole ring before reusing it
        seq = self.pool.queue(payload_words)
        self.device.mmio_write(REG_RB_TAIL, self.pool.tail * WORD)
        if drain:
            self._drain()
            self.pool.poll()  # raises if the chunk faulted
        return seq

    def _copy(self, dst: int, src: int, n_words: int):
        self._push_ring(Copy(dst, src, n_words).encode(), drain=True)

    def _client(self, client: int) -> int:
        """The caller's client id as a plain-int copy, which the syscall
        then checks and uses in its place, as ``_word`` does for numbers."""
        if type(client) is not int and isinstance(client, int):
            client = int.__index__(client)
        if type(client) is not int or client not in self.clients:
            raise BadHandle(f"no client {client!r}")
        return client

    def _release(self, buf: Buffer):
        """Free ``buf``.  Its pool space and VRAM go to the next client that
        allocates, so a queued batch that targets them runs first and they
        are cleared after it."""
        self._drain()
        if buf is self._scanout:  # never show the space's next owner
            self.device.mmio_write(REG_DISP_ENABLE, 0)
            self._scanout = None
        self.pool.clear(buf)
        self.pool.release(buf)
        del self.buffers[buf.handle]

    def _buffer(self, client: int, buffer_id: int) -> Buffer:
        buf = self.buffers.get(_word(buffer_id, "buffer id"))
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
        client = self._client(client)
        for buf in [b for b in self.buffers.values() if b.owner == client]:
            self._release(buf)
        del self.clients[client]

    def legacy_alloc(self, client: int, size: int, placement: str) -> int:
        self._charge()
        client = self._client(client)
        return self.pool.create(_word(size, "size"), placement, owner=client)

    def legacy_free(self, client: int, buffer_id: int):
        self._charge()
        client = self._client(client)
        self._release(self._buffer(client, buffer_id))

    def legacy_write(self, client: int, buffer_id: int, offset: int, data: bytes):
        data = payload(data)
        self._charge(len(data))
        client = self._client(client)
        self.pool.write_buffer(self._buffer(client, buffer_id),
                               _word(offset, "offset"), data)

    def legacy_read(self, client: int, buffer_id: int, offset: int, n: int) -> bytes:
        n = _word(n, "size")
        self._charge(n)
        client = self._client(client)
        return self.pool.read_buffer(self._buffer(client, buffer_id),
                                     _word(offset, "offset"), n)

    def _resolver(self, client: int):
        """``resolve(ref, n_bytes)`` for one submit: checks that ``ref`` is a
        (buffer id, byte offset) pair naming ``n_bytes`` of one of
        ``client``'s device-visible buffers, at a word-aligned offset, and
        returns the device address as an instruction word.

        A buffer id found owned and device-visible is remembered for the
        rest of this submit only: nothing changes ``self.buffers`` before
        the batch is queued, so a later operand naming the same buffer
        skips the lookup and the ownership and visibility checks.  The pair's shape, the
        alignment and the bounds are checked for every operand.  Both
        numbers are copied in as plain ints, as ``_word`` does, and only
        the copies are checked and used."""
        seen = {}

        def resolve(ref, n_bytes: int) -> int:
            if not (type(ref) is tuple and len(ref) == 2):
                raise InvalError(f"operand {ref!r} is not a (buffer id, byte offset) pair")
            buffer_id, offset = ref
            if type(buffer_id) is not int or type(offset) is not int:
                if not (isinstance(buffer_id, int) and isinstance(offset, int)):
                    raise InvalError(f"operand {ref!r} is not a (buffer id, byte offset) pair")
                buffer_id, offset = int.__index__(buffer_id), int.__index__(offset)
            buf = seen.get(buffer_id)
            if buf is None:
                buf = self._buffer(client, buffer_id)
                if buf.device_addr is None:
                    raise InvalError(f"buffer {buffer_id} is not device-visible")
                seen[buffer_id] = buf
            if offset % WORD:
                raise InvalError("operand offsets must be word-aligned")
            if offset < 0 or offset + n_bytes > buf.size:
                buf.check_range(offset, n_bytes)
            return (buf.device_addr + offset) & MASK32

        return resolve

    def legacy_submit(self, client: int, batch) -> int:
        """Copy an application batch in, check and encode it, and enqueue it.

        One pass checks each instruction and writes the kernel's words for
        it, with device addresses in place of buffer references; the words
        are those ``simdev.encode_batch`` gives for the patched
        instructions.  The whole batch is checked before its first chunk
        reaches the ring."""
        client = self._client(client)
        if not isinstance(batch, (list, tuple)):
            raise InvalError(f"batch must be a list of instructions, got {batch!r}")
        resolve = self._resolver(client)
        words = []
        for instr in batch:
            kind = type(instr)
            if kind is Compute:
                sub = _word(instr.sub, "compute sub-op")
                if sub not in (CO_ADD, CO_MUL, CO_DOT):
                    raise InvalError(f"unknown compute sub-op {sub!r}")
                count = _word(instr.count, "count")
                n_bytes = count * WORD
                words += (OP_COMPUTE, sub,
                          resolve(instr.dst, WORD if sub == CO_DOT else n_bytes),
                          resolve(instr.src1, n_bytes), resolve(instr.src2, n_bytes),
                          count & MASK32)
            elif kind is Copy:
                count = _word(instr.count, "count")
                n_bytes = count * WORD
                words += (OP_COPY, resolve(instr.dst, n_bytes),
                          resolve(instr.src, n_bytes), count & MASK32)
            elif kind is SetReg:
                reg = _word(instr.reg, "SET_REG target")
                if reg not in SCRATCH_REGISTERS:
                    raise InvalError(f"SET_REG target 0x{reg:x} is sensitive")
                words += (OP_SET_REG, reg, _word(instr.value, "SET_REG value") & MASK32)
            elif kind is Nop:
                words.append(OP_NOP)
            else:
                raise InvalError(f"unknown instruction {kind.__name__}")
        # one syscall: the whole stream crosses the boundary and is inspected
        self._charge(len(words) * WORD)
        self.platform.ledger.instructions_validated += len(words)
        # cut the stream into ring chunks at instruction boundaries
        start = 0
        while len(words) - start > MAX_BATCH_WORDS:
            end = start
            while end - start + INSTR_WORDS[words[end]] <= MAX_BATCH_WORDS:
                end += INSTR_WORDS[words[end]]
            self._push_ring(words[start:end], drain=True)
            start = end
        return self._push_ring(words[start:], drain=False)

    def legacy_wait(self, client: int, seq: int):
        """Syscall-based completion wait: one crossing per poll round."""
        client = self._client(client)
        seq = _word(seq, "fence seq")
        while True:
            self._charge()
            if self.pool.poll() >= seq:
                return
            if self.platform.ledger.run(self.device, WAIT_ROUND_CYCLES) == 0:
                self.pool.poll()  # raises the device's fault, if any
                raise InvalError(f"fence {seq} can never complete (device idle)")

    def legacy_fence_status(self, client: int, seq: int) -> bool:
        self._charge()
        client = self._client(client)
        return self.pool.poll() >= _word(seq, "fence seq")

    def legacy_set_mode(self, client: int, display: int, mode, fb=None):
        """Scan out ``fb`` in ``mode``.  ``fb`` is required: before any
        display register is written, it must be the caller's own,
        device-visible, and a whole frame long."""
        self._charge()
        client = self._client(client)
        width, height, _ = simdev.check_mode(display, mode)
        buf = self._buffer(client, fb)
        if buf.device_addr is None or buf.size < width * height * WORD:
            raise InvalError(f"buffer {fb} cannot hold a scanned-out frame")
        simdev.program_display(self.device, display, mode)
        self.device.mmio_write(REG_FB_BASE, buf.device_addr)
        self._scanout = buf

    def legacy_info(self, client: int) -> dict:
        self._charge()
        client = self._client(client)
        return {"vram_total": len(self.device.vram),
                "displays": DISPLAY_MODES,
                "api": LEGACY_API}


def _word(value, what: str) -> int:
    """A number from an application: an instruction field, a size, an
    offset, a buffer id or a fence sequence number.  Each one is an
    unsigned quantity, so anything but a non-negative int is refused.

    The kernel copies the number in once, as a plain int, and checks and
    uses only the copy: an int subclass can override its operators to pass
    a check as one number and be encoded as another, the Python form of a
    kernel double fetch."""
    if type(value) is int:
        if value >= 0:
            return value
    elif isinstance(value, int):
        return _word(int.__index__(value), what)
    raise InvalError(f"{what} must be a non-negative int, got {value!r}")
