"""The trusted core: the only code that touches sensitive device state.

Everything an application library may do goes through the numbered entry
points below.  The core enforces isolation four ways: a register ACL that
admits only management registers, per-client translation tables it alone
edits, a private device-memory segment per client enforced by the memory
controller, and display mode setting kept entirely on this side.

Client-visible entry points (the whole attack surface):

    lib calls   init_device_lib, iommu_map_page, iommu_unmap_page,
                alloc_device_memory, release_device_memory,
                access_register, set_mode
    scheduler   bind_device_lib, revoke_device_lib

Constructing the core brings the device up, so a core is ready to serve
clients as soon as it exists.  Its build follows the device: a device
without dedicated memory gets a core without the two device-memory calls,
leaving seven entry points, and every client gets an empty segment, so any
device-local access is a memory-controller fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from devmux import simdev
from devmux.alloc import FirstFitAllocator
from devmux.errors import (BusyError, ExistsError, InvalError, NotBoundError,
                           NotFoundError, NotSupportedError, OutOfSegment,
                           OutOfVram, PermError)
from devmux.platform import RUN_TO_IDLE
from devmux.simdev import (APERTURE_BASE, APERTURE_END, DISPLAY_MODES,
                           M_REGISTERS, PAGE_SIZE, REG_CACHE_FLUSH,
                           REG_CP_RESET, REG_IOMMU_ROOT, REG_MC_SEG_BASE,
                           REG_MC_SEG_LIMIT, REG_RB_HEAD, REG_TLB_FLUSH,
                           PageTable, SimDevice)

LIB_CALLS = ("init_device_lib", "iommu_map_page", "iommu_unmap_page",
             "alloc_device_memory", "release_device_memory",
             "access_register", "set_mode")
DEVICE_MEMORY_CALLS = ("alloc_device_memory", "release_device_memory")
SCHEDULER_CALLS = ("bind_device_lib", "revoke_device_lib")

SEGMENT_BYTES_DEFAULT = 1 << 20

# register ACL: every management register, with RB_HEAD read-only.  By
# construction this cannot name a sensitive register.
ACL_READ = frozenset(M_REGISTERS)
ACL_WRITE = frozenset(off for off in M_REGISTERS if off != REG_RB_HEAD)


@dataclass(frozen=True)
class InfoPage:
    """Read-only per-client device description, identical for every client;
    the core hands out the object itself."""

    version: int
    vram_total: int
    segment_size: int  # bytes in each client's segment; 0 without device memory
    displays: tuple


class LibContext:
    """Everything the core tracks about one client library."""

    def __init__(self, owner, segment_base: int, segment_limit: int):
        self.owner = owner
        self.segment_base = segment_base
        self.segment_limit = segment_limit
        self.snapshot = {off: 0 for off in M_REGISTERS}
        self.table = PageTable()
        self.vaddr_map = {}  # vaddr -> (iaddr, frame)
        self.iaddr_map = {}  # iaddr -> vaddr
        self.segment_alloc = FirstFitAllocator(segment_limit - segment_base)


class DeviceCore:
    """Owns one device on behalf of many mutually distrusting clients.

    Construction is the device's power-on, billed as one core call:
    firmware load and verify, interrupts, translation, a clean CP.  The
    device-memory calls and segments exist exactly when the device has
    dedicated memory."""

    def __init__(self, platform, device: SimDevice, *,
                 segment_bytes: int = SEGMENT_BYTES_DEFAULT):
        if segment_bytes <= 0 or segment_bytes % PAGE_SIZE:
            raise InvalError("segment size must be a positive multiple of the page size")
        self.platform = platform
        self.device = device
        self.device_memory = len(device.vram) > 0
        self.segment_bytes = segment_bytes
        self.contexts = {}
        self.bound = None
        self._next_id = 1
        self.info = InfoPage(version=1, vram_total=len(device.vram),
                             segment_size=segment_bytes if self.device_memory else 0,
                             displays=DISPLAY_MODES)
        # audit counters; the flush ones exist to prove revocation hygiene
        self.tlb_flush_count = 0
        self.cache_flush_count = 0
        self.snapshot_count = 0
        self.restore_count = 0
        simdev.bring_up(device)
        self._free_segments = list(range(len(device.vram) // segment_bytes))
        self._charge_call()

    # -- surface inventory -------------------------------------------------

    def api_surface(self) -> tuple:
        lib = tuple(name for name in LIB_CALLS
                    if self.device_memory or name not in DEVICE_MEMORY_CALLS)
        return lib + SCHEDULER_CALLS

    # -- internals ---------------------------------------------------------

    def _charge_call(self):
        self.platform.ledger.core_calls += 1

    def _charge_crossing(self):
        self.platform.ledger.crossings += 1

    def _ctx(self, lib_id: int) -> LibContext:
        ctx = self.contexts.get(lib_id)
        if ctx is None:
            raise NotFoundError(f"no such lib {lib_id}")
        return ctx

    def _flush_tlb(self):
        self.device.mmio_write(REG_TLB_FLUSH, 1)
        self.tlb_flush_count += 1

    def _flush_cache(self):
        self.device.mmio_write(REG_CACHE_FLUSH, 1)
        self.cache_flush_count += 1

    # -- lib calls -----------------------------------------------------------

    def init_device_lib(self, app):
        self._charge_call()
        try:
            hash(app)  # the owner keys the platform's page map
        except TypeError:
            raise InvalError(f"owner {app!r} cannot be hashed") from None
        if not self.device_memory:
            base = limit = 0  # an empty segment: device-local access faults
        elif self._free_segments:
            base = self._free_segments.pop(0) * self.segment_bytes
            limit = base + self.segment_bytes
        else:
            raise OutOfVram("no device-memory segment free")
        lib_id = self._next_id
        self._next_id += 1
        ctx = LibContext(app, base, limit)
        self.contexts[lib_id] = ctx
        self.device.translation_tables[lib_id] = ctx.table
        return lib_id, self.info

    def iommu_map_page(self, lib_id: int, vaddr: int, iaddr: int):
        self._charge_call()
        self._charge_crossing()
        lib_id, vaddr, iaddr = _ints(lib_id, vaddr, iaddr)
        ctx = self._ctx(lib_id)
        if iaddr % PAGE_SIZE or not APERTURE_BASE <= iaddr < APERTURE_END:
            raise InvalError(f"bad aperture address 0x{iaddr:x}")
        frame = self.platform.page_map.get((ctx.owner, vaddr))
        if frame is None:
            raise PermError(f"page 0x{vaddr:x} not owned by {ctx.owner}")
        if iaddr in ctx.iaddr_map or vaddr in ctx.vaddr_map:
            raise ExistsError("page already mapped")
        ctx.table.map(iaddr - APERTURE_BASE, frame, writable=True)
        self.platform.sysmem.pin(frame)
        ctx.vaddr_map[vaddr] = (iaddr, frame)
        ctx.iaddr_map[iaddr] = vaddr

    def iommu_unmap_page(self, lib_id: int, vaddr: int):
        self._charge_call()
        self._charge_crossing()
        lib_id, vaddr = _ints(lib_id, vaddr)
        ctx = self._ctx(lib_id)
        entry = ctx.vaddr_map.get(vaddr)
        if entry is None:
            raise NotFoundError(f"vaddr 0x{vaddr:x} not mapped")
        iaddr, frame = entry
        ctx.table.unmap(iaddr - APERTURE_BASE)
        self.platform.sysmem.unpin(frame)
        del ctx.vaddr_map[vaddr]
        del ctx.iaddr_map[iaddr]
        if self.bound == lib_id:
            self._flush_tlb()  # the device may hold the dead translation

    def alloc_device_memory(self, lib_id: int, size: int) -> int:
        self._charge_call()
        lib_id, size = _ints(lib_id, size)
        if not self.device_memory:
            raise NotSupportedError("device has no dedicated memory")
        ctx = self._ctx(lib_id)
        if size <= 0:
            raise InvalError("size must be positive")
        off = ctx.segment_alloc.alloc(size)
        if off is None:
            raise OutOfSegment(f"no room for {size} bytes in segment")
        return off

    def release_device_memory(self, lib_id: int, addr: int, size: int):
        self._charge_call()
        lib_id, addr, size = _ints(lib_id, addr, size)
        if not self.device_memory:
            raise NotSupportedError("device has no dedicated memory")
        ctx = self._ctx(lib_id)
        if not ctx.segment_alloc.free(addr, size):
            raise InvalError(f"no allocation (0x{addr:x}, {size})")

    def access_register(self, lib_id: int, reg: int, value: int,
                        is_write: bool) -> int:
        self._charge_call()
        self._charge_crossing()
        lib_id, reg, value = _ints(lib_id, reg, value)
        if type(is_write) is not bool:  # a truthy "no" must not write
            raise InvalError(f"is_write {is_write!r} is not a bool")
        self._ctx(lib_id)
        if self.bound != lib_id:
            raise NotBoundError(f"lib {lib_id} not bound")
        acl = ACL_WRITE if is_write else ACL_READ
        if reg not in acl:
            raise PermError(f"register 0x{reg:x} not authorized")
        if is_write:
            self.device.mmio_write(reg, value)
            return value & 0xFFFFFFFF
        return self.device.mmio_read(reg)

    def set_mode(self, lib_id: int, display: int, mode):
        self._charge_call()
        (lib_id,) = _ints(lib_id)
        self._ctx(lib_id)
        if self.bound != lib_id:
            raise NotBoundError(f"lib {lib_id} not bound")
        simdev.program_display(self.device, display, mode)

    # -- scheduler calls -------------------------------------------------------

    def bind_device_lib(self, lib_id: int):
        self._charge_call()
        (lib_id,) = _ints(lib_id)
        ctx = self._ctx(lib_id)
        if self.bound is not None:
            raise BusyError(f"lib {self.bound} is bound")
        self.device.restore_registers(ctx.snapshot)
        self.restore_count += 1
        self.device.mmio_write(REG_MC_SEG_BASE, ctx.segment_base)
        self.device.mmio_write(REG_MC_SEG_LIMIT, ctx.segment_limit)
        self.device.mmio_write(REG_IOMMU_ROOT, lib_id)
        self._flush_tlb()
        self._flush_cache()
        self.bound = lib_id

    def revoke_device_lib(self, lib_id: int):
        self._charge_call()
        (lib_id,) = _ints(lib_id)
        ctx = self._ctx(lib_id)
        if self.bound != lib_id:
            raise NotBoundError(f"lib {lib_id} not bound")
        # block until ongoing execution finishes
        self.platform.ledger.run(self.device, RUN_TO_IDLE)
        ctx.snapshot = {off: self.device.mmio_read(off) for off in M_REGISTERS}
        self.snapshot_count += 1
        self.device.mmio_write(REG_CP_RESET, 1)
        self._flush_cache()
        self._flush_tlb()
        self.bound = None


def _ints(*values) -> tuple:
    """The scalar arguments of a call as plain ints, which the call checks
    and uses in their place.  A call with an argument that is not an int is
    refused before any state changes: a float or str would fail later, in a
    dict lookup, in arithmetic or in formatting an error message.  An int
    subclass is copied, since it can override its operators to pass a check
    as one number and act as another."""
    for value in values:
        if type(value) is not int:
            break
    else:
        return values  # all plain ints, the common case
    for value in values:
        if not isinstance(value, int):
            raise InvalError(f"argument {value!r} is not an int")
    return tuple(map(int.__index__, values))
