"""Core entry points: surface inventory, isolation bookkeeping, bind/revoke."""

import random

import pytest

from conftest import make_device, make_platform
from devmux.devcore import ACL_WRITE, LIB_CALLS, SCHEDULER_CALLS, DeviceCore
from devmux.errors import (BusyError, DeviceFault, ExistsError, InvalError,
                           IommuFault, NotBoundError, NotFoundError,
                           NotSupportedError, OutOfSegment, OutOfVram,
                           PermError)
from devmux.libdrv import LibraryDriver
from devmux.pool import GTT, VRAM
from devmux.simdev import (APERTURE_BASE, CO_ADD, DISPLAY_MODES, FLAG_MC_FAULT,
                           FW_CTRL_READY, PAGE_SIZE, REG_DISP_ENABLE,
                           REG_DISP_PLL, REG_DISP_TIMING_H, REG_DISP_TIMING_V,
                           REG_FW_CTRL, REG_MC_SEG_BASE, REG_RB_BASE,
                           REG_RB_HEAD, REG_RB_SIZE, REG_RB_TAIL, REG_SCRATCH0,
                           M_REGISTERS, Compute, Copy, Nop)


def test_api_surface_lists_nine_calls(lib_world):
    _, _, core = lib_world
    surface = core.api_surface()
    assert len(surface) == 9
    assert surface == LIB_CALLS + SCHEDULER_CALLS
    assert len(LIB_CALLS) == 7 and len(SCHEDULER_CALLS) == 2


def test_no_device_memory_build_exports_seven():
    platform = make_platform()
    core = DeviceCore(platform, make_device(platform, vram=0))
    surface = core.api_surface()
    assert len(surface) == 7
    assert "alloc_device_memory" not in surface
    assert "release_device_memory" not in surface
    lib_id, _ = core.init_device_lib("a")
    with pytest.raises(NotSupportedError):
        core.alloc_device_memory(lib_id, 4096)
    with pytest.raises(NotSupportedError):
        core.release_device_memory(lib_id, 0, 4096)


def test_no_device_memory_build_hosts_libraries_with_an_empty_segment():
    platform = make_platform(frames=512)
    device = make_device(platform, vram=0)
    core = DeviceCore(platform, device)
    libs = [LibraryDriver(core, f"app{i}", pool_pages=16) for i in range(6)]
    assert len(core.api_surface()) == 7
    lib = libs[0]
    assert (lib.info.vram_total, lib.info.segment_size) == (0, 0)
    core.bind_device_lib(lib.lib_id)
    src, dst = lib.create_buffer(64, GTT), lib.create_buffer(64, GTT)
    lib.write_buffer(src, 0, bytes(range(64)))
    s, d = (lib.buffers[h].device_addr for h in (src, dst))
    lib.wait_fence(lib.submit([Copy(d, s, 16)]))
    assert lib.read_buffer(dst, 0, 64) == bytes(range(64))
    with pytest.raises(DeviceFault) as exc:
        lib.wait_fence(lib.submit([Copy(0, s, 16)]))  # device-local window
    assert exc.value.flags & FLAG_MC_FAULT
    with pytest.raises(NotSupportedError):
        lib.create_buffer(64, VRAM)


def test_construction_loads_firmware_and_bills_one_core_call():
    platform = make_platform()
    device = make_device(platform)
    before = platform.ledger.snapshot()
    core = DeviceCore(platform, device, segment_bytes=1 << 20)
    assert device.mmio_read(REG_FW_CTRL) & FW_CTRL_READY
    delta = platform.ledger.delta_since(before)
    fields = platform.ledger.FIELDS
    assert {f: delta[f] for f in fields} == {**dict.fromkeys(fields, 0),
                                             "core_calls": 1}
    assert len(core.api_surface()) == 9
    assert core.init_device_lib("a")[0] == 1  # ready to serve at once


def test_refused_construction_leaves_the_device_off_and_bills_nothing():
    platform = make_platform()
    device = make_device(platform)
    before = platform.ledger.snapshot()
    with pytest.raises(InvalError):
        DeviceCore(platform, device, segment_bytes=100)
    assert device.mmio_read(REG_FW_CTRL) == 0
    assert platform.ledger.snapshot() == before


def test_info_page_roundtrip(lib_world):
    _, device, core = lib_world
    _, info = core.init_device_lib("a")
    assert info.vram_total == len(device.vram)
    assert info.segment_size == 1 << 20
    assert info.displays == DISPLAY_MODES


def test_segments_start_at_zero_and_never_overlap(lib_world):
    _, _, core = lib_world
    ids = [core.init_device_lib(f"app{i}")[0] for i in range(4)]
    spans = [(core.contexts[i].segment_base, core.contexts[i].segment_limit)
             for i in ids]
    assert spans[0] == (0, 1 << 20)
    spans.sort()
    for (b1, l1), (b2, l2) in zip(spans, spans[1:]):
        assert l1 <= b2
    # 4 MiB of VRAM and 1 MiB segments: the fifth client is refused
    with pytest.raises(OutOfVram):
        core.init_device_lib("late")


def test_map_rejects_foreign_and_duplicate_pages(lib_world):
    platform, _, core = lib_world
    lib_a = core.init_device_lib("a")[0]
    mine = platform.alloc_pages("a", 2)
    # vaddr spaces are per process, so b's third page has no (a, vaddr) entry
    theirs = platform.alloc_pages("b", 3)
    assert (("a", theirs[2]) not in platform.page_map
            and ("b", theirs[2]) in platform.page_map)
    core.iommu_map_page(lib_a, mine[0], APERTURE_BASE)
    with pytest.raises(PermError):
        core.iommu_map_page(lib_a, theirs[2], APERTURE_BASE + PAGE_SIZE)
    with pytest.raises(IommuFault):
        core.contexts[lib_a].table.lookup(PAGE_SIZE)  # no PTE was installed
    with pytest.raises(ExistsError):
        core.iommu_map_page(lib_a, mine[1], APERTURE_BASE)  # iaddr taken
    with pytest.raises(ExistsError):
        core.iommu_map_page(lib_a, mine[0], APERTURE_BASE + PAGE_SIZE)


def test_map_validates_aperture_address(lib_world):
    platform, _, core = lib_world
    lib = core.init_device_lib("a")[0]
    vaddr = platform.alloc_pages("a", 1)[0]
    with pytest.raises(InvalError):
        core.iommu_map_page(lib, vaddr, APERTURE_BASE + 5)  # unaligned
    with pytest.raises(InvalError):
        core.iommu_map_page(lib, vaddr, 0x1000)  # below the window


def test_unmap_clears_translation_and_pins(lib_world):
    platform, _, core = lib_world
    lib = core.init_device_lib("a")[0]
    vaddrs = platform.alloc_pages("a", 3)
    for i, vaddr in enumerate(vaddrs):
        core.iommu_map_page(lib, vaddr, APERTURE_BASE + i * PAGE_SIZE)
    table = core.contexts[lib].table
    assert table.lookup(0) is not None
    for vaddr in vaddrs:
        core.iommu_unmap_page(lib, vaddr)
    with pytest.raises(IommuFault):
        table.lookup(0)
    assert all(p == 0 for p in platform.sysmem.pins)  # exhaustive pin scan
    with pytest.raises(NotFoundError):
        core.iommu_unmap_page(lib, vaddrs[0])


def test_unmap_flushes_the_tlb_only_while_the_library_is_bound(lib_world):
    platform, _, core = lib_world
    libs = {}
    for app in ("a", "b"):
        lib = core.init_device_lib(app)[0]
        vaddrs = platform.alloc_pages(app, 2)
        for i, vaddr in enumerate(vaddrs):
            core.iommu_map_page(lib, vaddr, APERTURE_BASE + i * PAGE_SIZE)
        libs[app] = lib, vaddrs
    (a, a_pages), (b, b_pages) = libs["a"], libs["b"]
    core.bind_device_lib(a)
    flushes = core.tlb_flush_count
    core.iommu_unmap_page(a, a_pages[0])  # the device may cache a's entry
    assert core.tlb_flush_count == flushes + 1
    core.iommu_unmap_page(b, b_pages[0])  # b's table is not the live one
    assert core.tlb_flush_count == flushes + 1
    core.revoke_device_lib(a)
    flushes = core.tlb_flush_count
    core.iommu_unmap_page(a, a_pages[1])
    assert core.tlb_flush_count == flushes


def test_device_memory_allocations_stay_inside_the_segment(lib_world):
    _, _, core = lib_world
    lib = core.init_device_lib("a")[0]
    assert core.alloc_device_memory(lib, 4096) == 0  # first fit from empty
    rng = random.Random(5)
    segment = core.segment_bytes
    live = []
    for _ in range(300):
        if live and rng.random() < 0.4:
            addr, size = live.pop(rng.randrange(len(live)))
            core.release_device_memory(lib, addr, size)
        else:
            size = rng.randrange(1, 200_000)
            try:
                addr = core.alloc_device_memory(lib, size)
            except OutOfSegment:
                continue
            assert 0 <= addr and addr + size <= segment
            live.append((addr, size))
    with pytest.raises(OutOfSegment):
        core.alloc_device_memory(lib, segment + 1)
    with pytest.raises(InvalError):
        core.alloc_device_memory(lib, 0)
    with pytest.raises(InvalError):
        core.release_device_memory(lib, 0xDEAD000, 64)


def test_access_register_acl(lib_world):
    _, device, core = lib_world
    lib = core.init_device_lib("a")[0]
    with pytest.raises(NotBoundError):
        core.access_register(lib, REG_SCRATCH0, 1, True)
    core.bind_device_lib(lib)
    assert core.access_register(lib, REG_SCRATCH0, 0xBEEF, True) == 0xBEEF
    assert core.access_register(lib, REG_SCRATCH0, 0, False) == 0xBEEF
    assert core.access_register(lib, REG_RB_HEAD, 0, False) == 0
    with pytest.raises(PermError):
        core.access_register(lib, REG_RB_HEAD, 4, True)  # read-only
    with pytest.raises(PermError):
        core.access_register(lib, REG_MC_SEG_BASE, 0, True)  # sensitive
    with pytest.raises(PermError):
        core.access_register(lib, REG_DISP_PLL, 60, True)  # mode setting is kept in the core
    core.revoke_device_lib(lib)
    with pytest.raises(NotBoundError):
        core.access_register(lib, REG_SCRATCH0, 1, True)


def test_set_mode_programs_the_display(lib_world):
    _, device, core = lib_world
    lib = core.init_device_lib("a")[0]
    with pytest.raises(NotBoundError):
        core.set_mode(lib, 0, (64, 48, 60))
    core.bind_device_lib(lib)
    core.set_mode(lib, 0, (64, 48, 60))
    assert device.mmio_read(REG_DISP_ENABLE) == 1
    assert device.mmio_read(REG_DISP_TIMING_H) == 64
    assert device.mmio_read(REG_DISP_TIMING_V) == 48
    with pytest.raises(InvalError):
        core.set_mode(lib, 0, (640, 480, 60))  # not offered
    with pytest.raises(InvalError):
        core.set_mode(lib, 3, (64, 48, 60))  # no such display
    for bad in (5, (64.0, 48, 60), (64, 48)):  # not three ints
        with pytest.raises(InvalError):
            core.set_mode(lib, 0, bad)


def test_fresh_bind_presents_all_zero_management_registers(lib_world):
    from devmux.simdev import REG_CACHE_FLUSH, REG_TLB_FLUSH
    _, _, core = lib_world
    lib = core.init_device_lib("a")[0]
    core.bind_device_lib(lib)
    for reg in sorted(M_REGISTERS):
        if reg in (REG_CACHE_FLUSH, REG_TLB_FLUSH):
            continue  # write triggers; they latch the bind's own flush
        assert core.access_register(lib, reg, 0, False) == 0


def test_management_state_survives_a_foreign_tenancy(lib_world):
    _, device, core = lib_world
    a = core.init_device_lib("a")[0]
    b = core.init_device_lib("b")[0]
    core.bind_device_lib(a)
    core.access_register(a, REG_SCRATCH0, 0xAAAA, True)
    core.access_register(a, REG_RB_BASE, APERTURE_BASE, True)
    core.revoke_device_lib(a)
    core.bind_device_lib(b)
    assert core.access_register(b, REG_SCRATCH0, 0, False) == 0
    core.access_register(b, REG_SCRATCH0, 0xBBBB, True)
    core.revoke_device_lib(b)
    core.bind_device_lib(a)
    assert core.access_register(a, REG_SCRATCH0, 0, False) == 0xAAAA
    assert core.access_register(a, REG_RB_BASE, 0, False) == APERTURE_BASE


def test_bind_while_bound_is_refused(lib_world):
    _, _, core = lib_world
    a = core.init_device_lib("a")[0]
    b = core.init_device_lib("b")[0]
    core.bind_device_lib(a)
    with pytest.raises(BusyError):
        core.bind_device_lib(b)
    with pytest.raises(NotBoundError):
        core.revoke_device_lib(b)  # only the bound lib can be revoked


def test_revoke_waits_for_inflight_work(lib_world):
    platform, device, core = lib_world
    lib = LibraryDriver(core, "busy", pool_pages=8)
    core.bind_device_lib(lib.lib_id)
    buf = lib.create_buffer(8192, "VRAM")
    addr = lib.buffers[buf].device_addr
    lib.submit([Compute(CO_ADD, addr, addr, addr, 1000)])
    before = platform.ledger.device_cycles
    core.revoke_device_lib(lib.lib_id)
    assert device.cp_idle
    # COMPUTE costs 1 + count cycles, and the batch's fence 4
    assert platform.ledger.device_cycles - before == 1 + 1000 + 4


def test_revoke_survives_a_ring_shrunk_below_the_head(lib_world):
    _, _, core = lib_world
    a = LibraryDriver(core, "a", pool_pages=8)
    core.bind_device_lib(a.lib_id)
    a.wait_fence(a.submit([Nop()] * 20))  # with its fence: head at 96 bytes
    core.access_register(a.lib_id, REG_RB_SIZE, 16, True)
    core.access_register(a.lib_id, REG_RB_TAIL, 96 % 64, True)
    core.revoke_device_lib(a.lib_id)  # the drain faults the fetch
    assert core.bound is None
    b = LibraryDriver(core, "b", pool_pages=8)
    core.bind_device_lib(b.lib_id)
    buf = b.create_buffer(PAGE_SIZE, "VRAM")
    addr = b.buffers[buf].device_addr
    b.write_buffer(buf, 0, bytes([3, 0, 0, 0]))
    b.wait_fence(b.submit([Compute(CO_ADD, addr + 4, addr, addr, 1)]))
    assert b.read_buffer(buf, 4, 4) == bytes([6, 0, 0, 0])
    core.revoke_device_lib(b.lib_id)


def test_revoke_idle_snapshot_equals_registers(lib_world):
    _, device, core = lib_world
    lib = core.init_device_lib("a")[0]
    core.bind_device_lib(lib)
    core.access_register(lib, REG_SCRATCH0, 0x77, True)
    core.revoke_device_lib(lib)
    snap = core.contexts[lib].snapshot
    assert snap[REG_SCRATCH0] == 0x77
    assert set(snap) == set(M_REGISTERS)


def test_memory_management_is_legal_while_unbound(lib_world):
    platform, _, core = lib_world
    lib = core.init_device_lib("a")[0]  # never bound
    vaddr = platform.alloc_pages("a", 1)[0]
    core.iommu_map_page(lib, vaddr, APERTURE_BASE)
    addr = core.alloc_device_memory(lib, 4096)
    core.release_device_memory(lib, addr, 4096)
    core.iommu_unmap_page(lib, vaddr)


def test_every_bind_flushes_tlb_and_cache(lib_world):
    _, _, core = lib_world
    a = core.init_device_lib("a")[0]
    b = core.init_device_lib("b")[0]
    for lib in (a, b, a, b):
        tlb, cache = core.tlb_flush_count, core.cache_flush_count
        core.bind_device_lib(lib)
        assert core.tlb_flush_count == tlb + 1
        assert core.cache_flush_count == cache + 1
        core.revoke_device_lib(lib)


@pytest.mark.parametrize("call", [
    lambda core, lib, vaddr: core.init_device_lib(["a"]),
    lambda core, lib, vaddr: core.iommu_map_page(lib, vaddr, "x"),
    lambda core, lib, vaddr: core.iommu_map_page(lib, vaddr, APERTURE_BASE + 0.5),
    lambda core, lib, vaddr: core.iommu_unmap_page(lib, [1]),
    lambda core, lib, vaddr: core.access_register([1], REG_SCRATCH0, 1, True),
    lambda core, lib, vaddr: core.access_register(lib, [0], 1, True),
    lambda core, lib, vaddr: core.access_register(lib, REG_SCRATCH0, "1", True),
    lambda core, lib, vaddr: core.access_register(lib, REG_SCRATCH0, 1, "no"),
    lambda core, lib, vaddr: core.alloc_device_memory(lib, "64"),
    lambda core, lib, vaddr: core.release_device_memory(lib, "0", 64),
], ids=["init-list-owner", "map-str-iaddr", "map-float-iaddr", "unmap-list-vaddr",
        "register-list-lib", "register-list-reg", "register-str-value",
        "register-str-is-write",
        "alloc-str-size", "release-str-addr"])
def test_malformed_core_arguments_are_refused_before_any_change(lib_world, call):
    platform, device, core = lib_world
    lib = core.init_device_lib("a")[0]
    vaddrs = platform.alloc_pages("a", 2)
    core.iommu_map_page(lib, vaddrs[0], APERTURE_BASE)
    core.alloc_device_memory(lib, 4096)
    core.bind_device_lib(lib)
    ctx = core.contexts[lib]

    def state():
        return (dict(device.regs), dict(ctx.vaddr_map), dict(ctx.iaddr_map),
                dict(ctx.segment_alloc.live), list(ctx.table.l1),
                list(core._free_segments), dict(core.contexts))

    before = state()
    core_calls = platform.ledger.core_calls
    with pytest.raises(InvalError):
        call(core, lib, vaddrs[1])
    assert platform.ledger.core_calls - core_calls == 1  # billed as before
    assert state() == before
