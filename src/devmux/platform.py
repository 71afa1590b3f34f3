"""Host-side substrate: system memory, address spaces, and the cost model.

Nothing here is device-specific.  System memory is a flat array of 4 KiB
frames, a fixed-length writable buffer, zero until written (``zeroed``),
with per-frame ownership and pin counts; each owner's process-virtual
page addresses (the numbers a user library sees before any device
translation) are handed out bump-style from ``VADDR_BASE`` and never reused;
the CostLedger accumulates the abstract costs every higher layer reports.
"""

from __future__ import annotations

from devmux.errors import InvalError, OutOfMemory, PermError
from devmux.simdev import PAGE_SIZE, zeroed

# simulated cost weights (time units per event)
COST_CROSSING = 1000.0
COST_PER_BYTE = 0.25
COST_PER_VALIDATED = 2.0
COST_PER_CYCLE = 1.0
COST_PER_CORE_CALL = 10.0

SYSMEM_FRAMES_DEFAULT = 4096
VADDR_BASE = 0x1000_0000  # every owner's first page address
# a step budget far above any batch's cost: the device runs until idle
RUN_TO_IDLE = 1 << 62


class CostLedger:
    """Counts of everything the cost model charges for.

    crossings: protection-domain switches (user <-> kernel round trips)
    bytes_copied: payload bytes moved across a protection boundary
    instructions_validated: command words a trusted party inspected
    device_cycles: simulated device execution cycles
    core_calls: invocations of trusted-core entry points
    """

    FIELDS = ("crossings", "bytes_copied", "instructions_validated",
              "device_cycles", "core_calls")

    def __init__(self, *, crossing_cost: float = COST_CROSSING,
                 byte_cost: float = COST_PER_BYTE,
                 validated_cost: float = COST_PER_VALIDATED,
                 cycle_cost: float = COST_PER_CYCLE,
                 core_call_cost: float = COST_PER_CORE_CALL):
        self.crossings = 0
        self.bytes_copied = 0
        self.instructions_validated = 0
        self.device_cycles = 0
        self.core_calls = 0
        self.weights = (crossing_cost, byte_cost, validated_cost,
                        cycle_cost, core_call_cost)
        self._last_row = None  # what delta_since returned last

    def run(self, device, budget: int) -> int:
        """Step ``device`` for up to ``budget`` cycles and bill the cycles
        it used; the one place device time enters the ledger."""
        used = device.step(budget).cycles_used
        self.device_cycles += used
        return used

    def simulated_time(self) -> float:
        wc, wb, wv, wy, wk = self.weights
        return (self.crossings * wc + self.bytes_copied * wb
                + self.instructions_validated * wv
                + self.device_cycles * wy + self.core_calls * wk)

    def snapshot(self) -> dict:
        d = {f: getattr(self, f) for f in self.FIELDS}
        d["simulated_time"] = self.simulated_time()
        return d

    def delta_since(self, before: dict) -> dict:
        """Costs since ``before``, a ``snapshot()``.  A row equal to the last
        one returned is that same dict, so steady rows share one: never
        mutate a row."""
        now = self.snapshot()
        row = {k: now[k] - before[k] for k in now}
        if row != self._last_row:
            self._last_row = row
        return self._last_row


class SystemMemory:
    """Flat frame pool.  ``data`` is addressable as frame * 4096 + offset."""

    def __init__(self, frames: int):
        self.frames = frames
        self.data = zeroed(frames * PAGE_SIZE)
        self.owner = [None] * frames
        self.pins = [0] * frames

    def alloc_frames(self, n: int, owner) -> list:
        out = []
        for frame in range(self.frames):
            if self.owner[frame] is None:
                out.append(frame)
                if len(out) == n:
                    break
        if len(out) < n:
            raise OutOfMemory(f"wanted {n} frames, {len(out)} free")
        for frame in out:
            self.owner[frame] = owner
        return out

    def free_frames(self, frames, owner):
        """Free and zero ``frames``, or change nothing: PermError unless
        ``owner`` holds every frame and none is pinned."""
        for frame in frames:
            if self.owner[frame] != owner:
                raise PermError(f"frame {frame} not owned by {owner}")
            if self.pins[frame]:
                raise PermError(f"frame {frame} still pinned")
        for frame in frames:
            self.owner[frame] = None
            self.data[frame * PAGE_SIZE:(frame + 1) * PAGE_SIZE] = bytes(PAGE_SIZE)

    def pin(self, frame: int):
        self.pins[frame] += 1

    def unpin(self, frame: int):
        if self.pins[frame] <= 0:
            raise InvalError(f"frame {frame} not pinned")
        self.pins[frame] -= 1

    def read(self, frame: int, offset: int, n: int) -> bytes:
        base = frame * PAGE_SIZE + offset
        return bytes(self.data[base:base + n])

    def write(self, frame: int, offset: int, payload: bytes):
        base = frame * PAGE_SIZE + offset
        self.data[base:base + len(payload)] = payload


class Platform:
    """One simulated host: memory, per-process address spaces, one ledger.

    ``alloc_pages`` stands in for the mmap syscall, so it bills one crossing;
    frame bookkeeping afterwards is local.
    """

    def __init__(self, sysmem_frames: int = SYSMEM_FRAMES_DEFAULT,
                 ledger: CostLedger | None = None):
        self.sysmem = SystemMemory(sysmem_frames)
        self.ledger = ledger if ledger is not None else CostLedger()
        self._next_vaddr = {}  # owner -> its next page address
        self.page_map = {}  # (owner, vaddr) -> frame

    def alloc_pages(self, owner, n_pages: int) -> list:
        """Map ``n_pages`` fresh zeroed pages; returns their vaddrs.

        Bills the crossing before trying to allocate: the trip into the
        kernel happens whether or not memory is available.  A count that is
        not an int of at least 1 is InvalError and changes nothing else.
        """
        self.ledger.crossings += 1
        if type(n_pages) is not int or n_pages < 1:
            raise InvalError(f"cannot map {n_pages!r} pages")
        try:
            va = self._next_vaddr.get(owner, VADDR_BASE)
        except TypeError:  # before any frame is taken
            raise InvalError(f"owner {owner!r} cannot be hashed") from None
        frames = self.sysmem.alloc_frames(n_pages, owner)
        self._next_vaddr[owner] = va + n_pages * PAGE_SIZE
        out = []
        for i, frame in enumerate(frames):
            vaddr = va + i * PAGE_SIZE
            self.page_map[(owner, vaddr)] = frame
            out.append(vaddr)
        return out

    def free_pages(self, owner, vaddrs):
        """Unmap ``vaddrs`` and free their frames, or change nothing: each
        vaddr must be mapped for ``owner`` and named once, and its frame
        must pass ``SystemMemory.free_frames``'s checks."""
        self.ledger.crossings += 1
        vaddrs = list(vaddrs)
        if len(set(vaddrs)) < len(vaddrs):
            raise InvalError(f"a vaddr is named twice for {owner}")
        frames = [self.resolve(owner, vaddr) for vaddr in vaddrs]
        self.sysmem.free_frames(frames, owner)
        for vaddr in vaddrs:
            del self.page_map[(owner, vaddr)]

    def resolve(self, owner, vaddr: int) -> int:
        """Virtual page address -> frame (page-aligned lookups only)."""
        frame = self.page_map.get((owner, vaddr))
        if frame is None:
            raise InvalError(f"vaddr 0x{vaddr:x} not mapped for {owner}")
        return frame
