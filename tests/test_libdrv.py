"""Library driver: pool setup, buffers, submission costs, display path."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_device, make_platform
from devmux.devcore import DeviceCore
from devmux.errors import (BadHandle, BatchTooBig, DeviceFault, InvalError,
                           OutOfMemory, OutOfPool, OutOfRange, OutOfSegment,
                           OutOfVram)
from devmux.libdrv import LibraryDriver
from devmux.pool import (GTT, MAX_BATCH_WORDS, MIN_POOL_PAGES, RING_WORDS,
                         SLAB_FIRST_PAGE, SYS, VRAM)
from devmux.simdev import (APERTURE_BASE, CO_ADD, CO_DOT, FAULT_FLAGS,
                           FLAG_CMD_FAULT, MASK32, PAGE_SIZE, REG_FB_BASE,
                           REG_MC_SEG_LIMIT, REG_MC_SEG_BASE, REG_RB_TAIL,
                           REG_SCRATCH0, WORD, Compute, Copy, Nop, SetReg,
                           SimDevice, fnv1a64)

POOL = 16


@pytest.fixture
def bound_lib(lib_world):
    platform, device, core = lib_world
    lib = LibraryDriver(core, "app", pool_pages=POOL)
    core.bind_device_lib(lib.lib_id)
    return platform, device, core, lib


def test_init_cost_is_one_crossing_per_pool_page_plus_one(lib_world):
    platform, _, core = lib_world
    ledger = platform.ledger
    crossings, calls = ledger.crossings, ledger.core_calls
    lib = LibraryDriver(core, "app", pool_pages=POOL)
    assert ledger.crossings - crossings == POOL + 1
    assert ledger.core_calls - calls == POOL + 1
    assert len(core.contexts[lib.lib_id].vaddr_map) == POOL
    for frame in lib.pool.frames:
        assert platform.sysmem.pins[frame] == 1


def test_pool_below_reserved_pages_is_rejected(lib_world):
    _, _, core = lib_world
    with pytest.raises(InvalError):
        LibraryDriver(core, "app", pool_pages=MIN_POOL_PAGES - 1)


def _four_segment_core(frames):
    platform = make_platform(frames=frames)
    core = DeviceCore(platform, make_device(platform, vram=4 << 20),
                      segment_bytes=1 << 20)
    return platform, core


def test_a_library_refused_for_memory_keeps_no_segment_and_no_context():
    _, core = _four_segment_core(frames=64)
    segments, tables = list(core._free_segments), dict(core.device.translation_tables)
    for i in range(4):
        with pytest.raises(OutOfMemory):
            LibraryDriver(core, f"big{i}", pool_pages=128)
    assert core._free_segments == segments and core.contexts == {}
    assert core.device.translation_tables == tables
    lib = LibraryDriver(core, "fits", pool_pages=8)
    core.bind_device_lib(lib.lib_id)
    lib.wait_fence(lib.submit([Nop()]))


def test_a_library_refused_for_vram_returns_its_frames():
    platform, core = _four_segment_core(frames=64)
    for i in range(4):
        LibraryDriver(core, f"app{i}", pool_pages=8)
    owners = list(platform.sysmem.owner)
    with pytest.raises(OutOfVram):
        LibraryDriver(core, "fifth", pool_pages=8)
    assert platform.sysmem.owner == owners
    assert len(core.contexts) == 4


def test_two_libraries_keep_private_apertures(lib_world):
    platform, _, core = lib_world
    a = LibraryDriver(core, "a", pool_pages=POOL)
    b = LibraryDriver(core, "b", pool_pages=POOL)
    assert not set(a.pool.frames) & set(b.pool.frames)
    # same aperture offsets, different tables, different frames
    fa, _ = core.contexts[a.lib_id].table.lookup(0)
    fb, _ = core.contexts[b.lib_id].table.lookup(0)
    assert fa == a.pool.frames[0] and fb == b.pool.frames[0] and fa != fb


def test_gtt_buffers_live_in_the_pool_window(bound_lib):
    _, _, _, lib = bound_lib
    h = lib.create_buffer(6000, GTT)
    buf = lib.buffers[h]
    assert buf.device_addr == APERTURE_BASE + buf.pool_off
    assert SLAB_FIRST_PAGE * PAGE_SIZE <= buf.pool_off
    assert buf.pool_off + buf.size <= POOL * PAGE_SIZE


def test_gtt_pool_exhaustion(bound_lib):
    _, _, _, lib = bound_lib
    with pytest.raises(OutOfPool):
        lib.create_buffer((POOL - SLAB_FIRST_PAGE) * PAGE_SIZE + 1, GTT)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 3 * PAGE_SIZE)),
                max_size=40))
def test_gtt_ranges_stay_disjoint_and_freed_space_comes_back_whole(ops):
    """Each op creates a GTT buffer of n bytes, or destroys live buffer
    n mod the live count."""
    platform = make_platform(frames=64)
    core = DeviceCore(platform, make_device(platform), segment_bytes=1 << 20)
    lib = LibraryDriver(core, "app", pool_pages=POOL)
    live = []
    for create, n in ops:
        if create:
            try:
                live.append(lib.create_buffer(n, GTT))
            except OutOfPool:
                pass
        elif live:
            lib.destroy_buffer(live.pop(n % len(live)))
        spans = sorted((buf.pool_off, buf.pool_off + buf.size)
                       for buf in lib.buffers.values())
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start, "live GTT buffers overlap"
        for start, end in spans:
            assert SLAB_FIRST_PAGE * PAGE_SIZE <= start and end <= POOL * PAGE_SIZE
    for handle in live:
        lib.destroy_buffer(handle)
    lib.create_buffer((POOL - SLAB_FIRST_PAGE) * PAGE_SIZE, GTT)


def test_vram_segment_exhaustion_and_address_reuse(bound_lib):
    _, _, core, lib = bound_lib
    whole = lib.create_buffer(core.segment_bytes, VRAM)
    assert lib.buffers[whole].device_addr == 0
    with pytest.raises(OutOfSegment):
        lib.create_buffer(WORD, VRAM)
    lib.destroy_buffer(whole)
    again = lib.create_buffer(4096, VRAM)
    assert lib.buffers[again].device_addr == 0  # first fit reuses the hole


def test_gtt_access_is_host_memory(bound_lib):
    platform, _, _, lib = bound_lib
    h = lib.create_buffer(8192, GTT)
    ledger = platform.ledger
    before = (ledger.bytes_copied, ledger.device_cycles, ledger.crossings)
    payload = bytes(range(256)) * 32
    lib.write_buffer(h, 0, payload)
    assert lib.read_buffer(h, 0, len(payload)) == payload
    assert (ledger.bytes_copied, ledger.device_cycles,
            ledger.crossings) == before


def test_write_buffer_refuses_a_payload_that_is_not_bytes_like(bound_lib):
    _, _, _, lib = bound_lib
    h = lib.create_buffer(64, GTT)
    lib.write_buffer(h, 0, b"\x11" * 8)
    for bad in (8, "ab"):
        with pytest.raises(InvalError):
            lib.write_buffer(h, 0, bad)
    assert lib.read_buffer(h, 0, 8) == b"\x11" * 8


def test_vram_round_trip_rides_the_device(bound_lib):
    platform, _, _, lib = bound_lib
    h = lib.create_buffer(8192, VRAM)
    ledger = platform.ledger
    before_bytes = ledger.bytes_copied
    before_cycles = ledger.device_cycles
    payload = struct.pack("<2048I", *((i * 2654435761) & MASK32
                                      for i in range(2048)))
    lib.write_buffer(h, 0, payload)
    assert lib.read_buffer(h, 0, len(payload)) == payload
    # staging DMA is device work, not a user/kernel copy
    assert ledger.bytes_copied == before_bytes
    assert ledger.device_cycles > before_cycles


def test_vram_staging_is_not_an_application_buffer(bound_lib):
    _, _, _, lib = bound_lib
    h = lib.create_buffer(64, VRAM)
    lib.write_buffer(h, 0, bytes(range(64)))
    assert sorted(lib.buffers) == [h]
    with pytest.raises(BadHandle):
        lib.destroy_buffer(2)
    lib.write_buffer(h, 0, b"\x5A" * 64)
    assert lib.read_buffer(h, 0, 64) == b"\x5A" * 64


def test_buffer_range_and_alignment_checks(bound_lib):
    _, _, _, lib = bound_lib
    g = lib.create_buffer(64, GTT)
    v = lib.create_buffer(64, VRAM)
    with pytest.raises(OutOfRange):
        lib.write_buffer(g, 60, b"12345")
    with pytest.raises(OutOfRange):
        lib.read_buffer(g, 0, 65)
    with pytest.raises(OutOfRange):
        lib.read_buffer(g, -1, 4)
    with pytest.raises(InvalError):
        lib.write_buffer(v, 2, b"1234")  # unaligned device access
    with pytest.raises(InvalError):
        lib.read_buffer(v, 0, 3)
    with pytest.raises(BadHandle):
        lib.read_buffer(999, 0, 4)


def test_move_preserves_contents_across_placements(bound_lib):
    _, _, _, lib = bound_lib
    h = lib.create_buffer(4096, GTT)
    payload = struct.pack("<1024I", *((7 * i + 11) & MASK32 for i in range(1024)))
    lib.write_buffer(h, 0, payload)
    lib.move_buffer(h, VRAM)
    assert lib.buffers[h].placement == VRAM
    lib.move_buffer(h, SYS)
    lib.move_buffer(h, GTT)
    assert lib.read_buffer(h, 0, 4096) == payload


def test_move_to_same_placement_is_free(bound_lib):
    platform, _, _, lib = bound_lib
    h = lib.create_buffer(4096, VRAM)
    before = platform.ledger.simulated_time()
    lib.move_buffer(h, VRAM)
    assert platform.ledger.simulated_time() == before


def test_failed_move_leaves_the_source_intact(bound_lib):
    _, _, core, lib = bound_lib
    hog = lib.create_buffer(core.segment_bytes, VRAM)
    h = lib.create_buffer(4096, GTT)
    lib.write_buffer(h, 0, b"\xAB" * 4096)
    with pytest.raises(OutOfSegment):
        lib.move_buffer(h, VRAM)
    assert lib.buffers[h].placement == GTT
    assert lib.read_buffer(h, 0, 4096) == b"\xAB" * 4096


def test_failed_device_copy_releases_the_new_backing(bound_lib):
    _, _, core, lib = bound_lib
    h = lib.create_buffer(4096, GTT)
    lib.write_buffer(h, 0, b"\xCD" * 4096)
    with pytest.raises(DeviceFault):
        lib.wait_fence(lib.submit([SetReg(REG_MC_SEG_BASE, 0)]))
    segment = core.contexts[lib.lib_id].segment_alloc
    live = dict(segment.live)
    with pytest.raises(DeviceFault):
        lib.move_buffer(h, VRAM)  # the copy reports the sticky fault
    assert segment.live == live
    assert lib.buffers[h].placement == GTT
    assert lib.read_buffer(h, 0, 4096) == b"\xCD" * 4096


def test_submit_costs_one_crossing_regardless_of_batch_size(bound_lib):
    platform, _, _, lib = bound_lib
    lib.wait_fence(lib.submit([Nop()]))  # absorbs one-time ring programming
    for k in (1, 10, 100):
        before = platform.ledger.crossings
        seq = lib.submit([Nop()] * k)
        assert platform.ledger.crossings - before == 1
        before_wait = platform.ledger.crossings
        lib.wait_fence(seq)
        assert platform.ledger.crossings == before_wait  # polling is free


def test_first_submit_also_programs_the_ring(bound_lib):
    platform, _, _, lib = bound_lib
    before = platform.ledger.crossings
    lib.submit([Nop()])
    # RB_BASE + RB_SIZE + IH_PAGE_ADDR + the tail write
    assert platform.ledger.crossings - before == 4


def test_fence_sequences_count_up_from_one(bound_lib):
    _, _, _, lib = bound_lib
    lib.wait_fence(0)  # vacuous wait never touches the device
    seqs = [lib.submit([Nop()]) for _ in range(3)]
    assert seqs == [1, 2, 3]
    lib.wait_fence(seqs[-1])
    assert lib.fence_completed(seqs[-1])


class _UnknownOpcode:
    def encode(self):
        return [0x7]


def test_wait_fence_raises_for_a_batch_that_faults_at_fetch(bound_lib):
    platform, _, _, lib = bound_lib
    lib.wait_fence(lib.submit([Nop()]))
    seq = lib.submit([_UnknownOpcode()])
    cycles = platform.ledger.device_cycles
    with pytest.raises(DeviceFault) as exc:
        lib.wait_fence(seq)
    assert exc.value.flags & FLAG_CMD_FAULT
    assert platform.ledger.device_cycles == cycles  # the fetch fault used none


def test_wait_fence_refuses_a_seq_never_queued(bound_lib):
    _, _, _, lib = bound_lib
    lib.wait_fence(lib.submit([Nop()]))
    with pytest.raises(InvalError):
        lib.wait_fence(99)


def test_a_blocking_wait_runs_the_device_to_idle_in_one_step(bound_lib,
                                                             monkeypatch):
    platform, _, _, lib = bound_lib
    lib.wait_fence(lib.submit([Nop()]))
    n = 5000  # the COPY and its fence cost 1 + n + 4 cycles
    addr = lib.buffers[lib.create_buffer(2 * n * WORD, GTT)].device_addr
    seq = lib.submit([Copy(addr + n * WORD, addr, n)])
    steps, step = [], SimDevice.step

    def counted_step(device, budget):
        report = step(device, budget)
        steps.append(report.cycles_used)
        return report

    monkeypatch.setattr(SimDevice, "step", counted_step)
    cycles = platform.ledger.device_cycles
    lib.wait_fence(seq)
    assert steps == [1 + n + 4]
    assert platform.ledger.device_cycles - cycles == 1 + n + 4


def _two_libraries():
    """(device, core, library A, library B) on one fresh device."""
    platform = make_platform(frames=1024)
    device = make_device(platform, vram=4 << 20)
    core = DeviceCore(platform, device, segment_bytes=1 << 20)
    return (device, core, LibraryDriver(core, "a", pool_pages=POOL),
            LibraryDriver(core, "b", pool_pages=POOL))


def _neighbour_turn(device, core, b):
    """Bind library B and run one COMPUTE; returns everything B observes."""
    core.bind_device_lib(b.lib_id)
    h = b.create_buffer(64, VRAM)
    b.write_buffer(h, 0, struct.pack("<8I", *range(1, 9)))
    addr = b.buffers[h].device_addr
    b.wait_fence(b.submit([Compute(CO_ADD, addr + 32, addr, addr, 8)]))
    ctx = core.contexts[b.lib_id]
    return (b.read_buffer(h, 0, 64), b.pool.read_status(),
            bytes(device.vram[ctx.segment_base:ctx.segment_limit]))


def _neighbour_after(tail_write: bool):
    """Library A, optionally setting its RB_TAIL to the ring end through
    the core, is revoked; then library B runs one COMPUTE.  Returns A's
    status flags and everything B can observe."""
    device, core, a, b = _two_libraries()
    core.bind_device_lib(a.lib_id)
    a.wait_fence(a.submit([Nop()]))
    if tail_write:
        core.access_register(a.lib_id, REG_RB_TAIL, RING_WORDS * WORD, True)
    core.revoke_device_lib(a.lib_id)  # runs the device to idle
    return (a.pool.read_status()[2], *_neighbour_turn(device, core, b))


def test_a_tail_past_the_ring_end_faults_its_library_only():
    flags, *seen = _neighbour_after(tail_write=True)
    assert flags & FLAG_CMD_FAULT
    clean_flags, *clean = _neighbour_after(tail_write=False)
    assert not clean_flags & FLAG_CMD_FAULT
    assert seen == clean
    assert clean[0][32:] == struct.pack("<8I", *range(2, 18, 2))


def test_privileged_setreg_faults_the_batch(bound_lib):
    _, device, core, lib = bound_lib
    limit_before = device.mmio_read(REG_MC_SEG_LIMIT)
    seq = lib.submit([SetReg(REG_MC_SEG_BASE, 0xDEAD)])
    with pytest.raises(DeviceFault) as exc:
        lib.wait_fence(seq)
    assert exc.value.flags & FLAG_CMD_FAULT
    assert device.mmio_read(REG_MC_SEG_BASE) == 0
    assert device.mmio_read(REG_MC_SEG_LIMIT) == limit_before


def test_a_faulted_library_runs_again_after_a_revoke_and_a_bind(bound_lib):
    _, _, core, lib = bound_lib
    with pytest.raises(DeviceFault):
        lib.wait_fence(lib.submit([SetReg(REG_MC_SEG_BASE, 0)]))
    core.revoke_device_lib(lib.lib_id)
    core.bind_device_lib(lib.lib_id)
    seq = lib.submit([Nop()])
    lib.wait_fence(seq)
    completed, _, flags = lib.pool.read_status()
    assert completed == seq and not flags & FAULT_FLAGS


def test_without_a_revoke_a_faulted_library_still_faults(bound_lib):
    _, _, _, lib = bound_lib
    with pytest.raises(DeviceFault):
        lib.wait_fence(lib.submit([SetReg(REG_MC_SEG_BASE, 0)]))
    for _ in range(2):
        seq = lib.submit([Nop()])
        with pytest.raises(DeviceFault) as exc:
            lib.wait_fence(seq)
        assert exc.value.flags & FLAG_CMD_FAULT
        # the new fence reported it, not the flags word the last one left
        assert lib.pool.read_status()[0] == seq


def _neighbour_of_a_recovery(fault: bool):
    """Library A runs a batch that faults (or a clean one) and is revoked;
    library B runs one COMPUTE and is revoked; A is bound again and runs a
    Nop.  Returns everything B observed, and its status page and segment
    at the end."""
    device, core, a, b = _two_libraries()
    core.bind_device_lib(a.lib_id)
    if fault:
        with pytest.raises(DeviceFault):
            a.wait_fence(a.submit([SetReg(REG_MC_SEG_BASE, 0)]))
    else:
        a.wait_fence(a.submit([SetReg(REG_SCRATCH0, 0)]))
    core.revoke_device_lib(a.lib_id)
    seen = _neighbour_turn(device, core, b)
    core.revoke_device_lib(b.lib_id)
    core.bind_device_lib(a.lib_id)
    a.wait_fence(a.submit([Nop()]))
    ctx = core.contexts[b.lib_id]
    return (seen, b.pool.read(0, 16),
            bytes(device.vram[ctx.segment_base:ctx.segment_limit]))


def test_a_recovering_library_leaves_its_neighbour_bit_identical():
    assert _neighbour_of_a_recovery(fault=True) == \
        _neighbour_of_a_recovery(fault=False)


def test_present_programs_fb_base(bound_lib):
    _, device, _, lib = bound_lib
    v = lib.create_buffer(4096, VRAM)
    lib.present(v)
    assert device.mmio_read(REG_FB_BASE) == lib.buffers[v].device_addr
    g = lib.create_buffer(4096, GTT)
    lib.present(g)
    assert device.mmio_read(REG_FB_BASE) == lib.buffers[g].device_addr
    s = lib.create_buffer(4096, SYS)
    with pytest.raises(BadHandle):
        lib.present(s)


def test_scanout_digest_matches_host_pixels(bound_lib):
    _, device, _, lib = bound_lib
    lib.set_mode(0, (64, 48, 60))
    words = [(i * 2654435761 + 5) & MASK32 for i in range(64 * 48)]
    fb = lib.create_buffer(64 * 48 * WORD, VRAM)
    lib.write_buffer(fb, 0, struct.pack(f"<{len(words)}I", *words))
    lib.present(fb)
    shot = device.scanout()
    assert not shot.faulted
    assert shot.digest == fnv1a64(struct.pack(f"<{len(words)}I", *words))


def test_oversized_batch_is_rejected_before_the_ring(bound_lib):
    _, _, _, lib = bound_lib
    with pytest.raises(BatchTooBig):
        lib.submit([Nop()] * (MAX_BATCH_WORDS + 1))
    with pytest.raises(BatchTooBig):
        lib.record([Nop()] * (MAX_BATCH_WORDS + 1))
    lib.wait_fence(lib.submit([Nop()] * MAX_BATCH_WORDS))  # largest legal
    lib.wait_fence(lib.submit(lib.record([Nop()] * MAX_BATCH_WORDS)))


def _accumulating_lib(n):
    """A bound library, a VRAM buffer ``acc`` of ``n`` words, and a batch
    that adds a fixed vector to ``acc`` and writes their dot product after
    it, so every submit of it changes the result."""
    platform = make_platform(frames=1024)
    core = DeviceCore(platform, make_device(platform, vram=4 << 20),
                      segment_bytes=1 << 20)
    lib = LibraryDriver(core, "app", pool_pages=POOL)
    core.bind_device_lib(lib.lib_id)
    vec, acc = lib.create_buffer(n * WORD, VRAM), lib.create_buffer((n + 1) * WORD, VRAM)
    lib.write_buffer(vec, 0, struct.pack(f"<{n}I", *range(1, n + 1)))
    v, a = lib.buffers[vec].device_addr, lib.buffers[acc].device_addr
    # 2 * 300 instructions: a batch of 3,600 words, so the ring wraps
    instrs = [Compute(CO_ADD, a, a, v, n), Compute(CO_DOT, a + n * WORD, a, v, n)] * 300
    return platform, lib, acc, instrs


def test_a_recorded_batch_submits_like_its_instruction_list():
    n, k = 8, 5
    runs = []
    for recorded in (False, True):
        platform, lib, acc, instrs = _accumulating_lib(n)
        batch = lib.record(instrs) if recorded else instrs
        rows = []
        for _ in range(k):
            before = platform.ledger.snapshot()
            seq = lib.submit(batch)
            lib.wait_fence(seq)
            result = lib.read_buffer(acc, 0, (n + 1) * WORD)
            rows.append((seq, platform.ledger.delta_since(before), fnv1a64(result)))
        runs.append(rows)
    assert runs[0] == runs[1]
    assert len({digest for _, _, digest in runs[0]}) == k


def test_a_recorded_batch_is_an_immutable_tuple_of_words(bound_lib):
    _, _, _, lib = bound_lib
    batch = lib.record([Nop(), SetReg(REG_SCRATCH0, 7)])
    assert isinstance(batch, tuple)
    assert batch == (0, 1, REG_SCRATCH0, 7)
    with pytest.raises(TypeError):
        batch[0] = 1


def test_ring_backpressure_recycles_consumed_space(bound_lib):
    platform, device, _, lib = bound_lib
    lib.wait_fence(lib.submit([Nop()]))
    before = platform.ledger.crossings
    last = 0
    for _ in range(5):
        last = lib.submit([Nop()] * 2000)  # 2004 words each; ring holds 4095
    lib.wait_fence(last)
    assert platform.ledger.crossings - before == 5
    assert device.cp_idle


def test_dma_copy_lands_in_the_destination_buffer(bound_lib):
    _, _, _, lib = bound_lib
    src = lib.create_buffer(4096, GTT)
    dst = lib.create_buffer(4096, GTT)
    payload = struct.pack("<1024I", *((i * 97 + 1) & MASK32 for i in range(1024)))
    lib.write_buffer(src, 0, payload)
    lib.wait_fence(lib.submit([Copy(lib.buffers[dst].device_addr,
                                    lib.buffers[src].device_addr, 1024)]))
    assert lib.read_buffer(dst, 0, 4096) == payload


def test_compute_results_visible_through_the_cache_drain(bound_lib):
    _, _, _, lib = bound_lib
    buf = lib.create_buffer(64, GTT)
    lib.write_buffer(buf, 0, struct.pack("<16I", *range(16)))
    addr = lib.buffers[buf].device_addr
    lib.wait_fence(lib.submit([Compute(CO_ADD, addr, addr, addr, 16)]))
    assert lib.read_buffer(buf, 0, 64) == struct.pack(
        "<16I", *((i + i) & MASK32 for i in range(16)))
