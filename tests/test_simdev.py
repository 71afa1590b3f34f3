"""Device-level tests: register file, command processor, translation,
cache, firmware gate, scanout, and digests."""

import itertools
import random
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (DATA_AT, RING_AT, RING_WORDS, STATUS_AT,
                      DecodeRunDevice, UnflushedRootIommu, boot_solo, make_device,
                      make_platform, pack, poke_words, push_batch,
                      read_status, unpack, vram_words)
from devmux import simdev
from devmux.errors import IommuFault, InvalError, OutOfMemory, RegFault
from devmux.simdev import (APERTURE_BASE, CACHE_WORDS, CO_ADD, CO_DOT, CO_MUL,
                           DOT_MEMO_WORDS, FAULT_FLAGS, FENCE_IRQ,
                           FLAG_CMD_FAULT, FLAG_FENCE, FLAG_IOMMU_FAULT,
                           FLAG_MC_FAULT, M_REGISTERS,
                           MASK32, OP_SET_REG, PAGE_SIZE, REG_CP_RESET,
                           REG_DISP_ENABLE, REG_DISP_TIMING_H,
                           REG_DISP_TIMING_V, REG_FB_BASE, REG_IH_PAGE_ADDR,
                           REG_IOMMU_ENABLE, REG_IOMMU_ROOT, REG_IRQ_ENABLE,
                           REG_MC_SEG_BASE, REG_MC_SEG_LIMIT, REG_RB_BASE,
                           REG_RB_HEAD, REG_RB_SIZE, REG_RB_TAIL, REG_SCRATCH0,
                           S_REGISTERS, SCRATCH_REGISTERS, VRAM_WINDOW_END,
                           WORD, Compute, Copy, Fence, IommuUnit, Nop,
                           PageTable, SetReg, SimDevice, WriteBackCache,
                           fnv1a64, zeroed)


# --- device and system memory ------------------------------------------------

@pytest.mark.parametrize("n", (2 * WORD, PAGE_SIZE, 3 * PAGE_SIZE + 2 * WORD))
def test_zeroed_memory_reads_as_zeros_until_written(n):
    mem = zeroed(n)
    assert len(mem) == n
    assert bytes(mem) == bytes(n)
    mem[0:WORD] = pack([0x01020304])
    struct.pack_into("<I", mem, n - WORD, 0xA5A5A5A5)
    assert struct.unpack_from("<I", mem, 0) == (0x01020304,)
    assert bytes(mem[n - WORD:]) == pack([0xA5A5A5A5])
    assert bytes(mem[WORD:n - WORD]) == bytes(n - 2 * WORD)


@pytest.mark.parametrize("at, payload", [
    (slice(0, 8), bytes(4)),                             # too short
    (slice(0, 8), bytes(12)),                            # too long
    (slice(PAGE_SIZE - 4, PAGE_SIZE + 4), bytes(8)),     # runs off the end
], ids=["short", "long", "past-end"])
def test_a_slice_write_of_the_wrong_length_is_refused(at, payload):
    mem = zeroed(PAGE_SIZE)
    with pytest.raises(IndexError):
        mem[at] = payload
    assert len(mem) == PAGE_SIZE
    assert bytes(mem) == bytes(PAGE_SIZE)


def test_zero_bytes_of_memory_is_an_empty_buffer():
    mem = zeroed(0)
    assert len(mem) == 0
    assert bytes(mem) == b""


@pytest.mark.parametrize("n", (1 << 60, 1 << 64))
def test_more_memory_than_any_address_space_is_out_of_memory(n):
    with pytest.raises(OutOfMemory):
        zeroed(n)


# --- register file ----------------------------------------------------------

def test_registers_reset_to_zero_and_unknown_offsets_fault():
    device = make_device(make_platform())
    assert device.mmio_read(REG_RB_BASE) == 0
    assert device.mmio_read(REG_SCRATCH0) == 0
    with pytest.raises(RegFault):
        device.mmio_read(0x5000)
    with pytest.raises(RegFault):
        device.mmio_write(0x044, 1)  # hole right after the scratch block


def test_rb_size_must_be_pow2_and_at_least_16():
    device = make_device(make_platform())
    for bad in (8, 24, 1000):
        with pytest.raises(RegFault):
            device.mmio_write(REG_RB_SIZE, bad)
    device.mmio_write(REG_RB_SIZE, 16)
    device.mmio_write(REG_RB_SIZE, 4096)


# --- command processor ------------------------------------------------------

def test_two_nop_batch_advances_head_to_8(solo):
    _, device = solo
    push_batch(device, [Nop(), Nop()])
    device.step(100)
    assert device.mmio_read(REG_RB_HEAD) == 8
    assert read_status(device)[1] == 0  # no interrupt counted


def test_cp_reset_discards_pending_batch(solo):
    _, device = solo
    push_batch(device, [Nop(), Nop()])
    device.mmio_write(REG_CP_RESET, 1)
    assert device.mmio_read(REG_RB_HEAD) == 0
    assert device.mmio_read(REG_RB_TAIL) == 0
    assert device.step(100).cycles_used == 0


def test_tail_write_before_firmware_load_flags_cmd_fault():
    device = make_device(make_platform())
    device.mmio_write(REG_MC_SEG_BASE, 0)
    device.mmio_write(REG_MC_SEG_LIMIT, len(device.vram))
    device.mmio_write(REG_IH_PAGE_ADDR, STATUS_AT)
    device.mmio_write(REG_RB_BASE, RING_AT)
    device.mmio_write(REG_RB_SIZE, 64)
    device.mmio_write(REG_RB_TAIL, 8)
    seq, irq, flags = read_status(device)
    assert flags & FLAG_CMD_FAULT
    assert irq == 1
    assert device.mmio_read(REG_RB_HEAD) == 0
    # after a proper firmware load the same trigger works
    simdev.install_firmware(device)
    push_batch(device, [Nop(), Nop()])
    device.step(100)
    assert device.mmio_read(REG_RB_HEAD) == 8


def test_firmware_checksum_gate_rejects_corrupt_image():
    device = make_device(make_platform())
    device.mmio_write(simdev.REG_FW_ADDR, 0)
    for i, w in enumerate(simdev.FIRMWARE_IMAGE):
        device.mmio_write(simdev.REG_FW_DATA, w + 1 if i == 3 else w)
    device.mmio_write(simdev.REG_FW_CTRL, simdev.FW_CTRL_VERIFY)
    assert not device.mmio_read(simdev.REG_FW_CTRL) & simdev.FW_CTRL_READY
    device.mmio_write(simdev.REG_FW_ADDR, 0)
    for w in simdev.FIRMWARE_IMAGE:
        device.mmio_write(simdev.REG_FW_DATA, w)
    device.mmio_write(simdev.REG_FW_CTRL, simdev.FW_CTRL_VERIFY)
    assert device.mmio_read(simdev.REG_FW_CTRL) & simdev.FW_CTRL_READY


def test_step_zero_budget_is_a_no_op(solo):
    _, device = solo
    push_batch(device, [Nop()])
    report = device.step(0)
    assert report.cycles_used == 0
    assert device.mmio_read(REG_RB_HEAD) == 0


@pytest.mark.parametrize("irq_enable", [0, 1], ids=["masked", "enabled"])
@pytest.mark.parametrize("fence_flags", [0, FENCE_IRQ], ids=["quiet", "irq"])
def test_fence_writes_seq_and_raises_irq(solo, fence_flags, irq_enable):
    _, device = solo
    device.mmio_write(REG_IRQ_ENABLE, irq_enable)
    push_batch(device, [Fence(7, fence_flags)])
    device.step(10)
    if fence_flags and irq_enable:
        assert read_status(device) == (7, 1, FLAG_FENCE)
    else:  # the seq still retires, with no interrupt
        assert read_status(device) == (7, 0, 0)


def test_long_compute_spans_step_budgets(solo):
    _, device = solo
    push_batch(device, [Compute(CO_ADD, DATA_AT, DATA_AT, DATA_AT, 100)])
    first = device.step(50)
    assert first.cycles_used == 50
    assert device.mmio_read(REG_RB_HEAD) == 0  # still in flight
    second = device.step(1000)
    assert second.cycles_used == 51  # 1 + count total
    assert device.mmio_read(REG_RB_HEAD) == device.mmio_read(REG_RB_TAIL)


def test_compute_results_match_host_loop(solo):
    _, device = solo
    src1 = [0xFFFFFFF1, 7, 0x80000000, 3]
    src2 = [16, 0x10, 2, 0x70000001]
    a1, a2, dst = DATA_AT, DATA_AT + 0x100, DATA_AT + 0x200
    poke_words(device, a1, src1)
    poke_words(device, a2, src2)

    want_dot = sum(x * y for x, y in zip(src1, src2)) & MASK32
    push_batch(device, [Compute(CO_DOT, dst, a1, a2, 4), Fence(1)])
    device.step(100)
    assert vram_words(device, dst, 1) == [want_dot]

    want_add = [(x + y) & MASK32 for x, y in zip(src1, src2)]
    want_mul = [(x * y) & MASK32 for x, y in zip(src1, src2)]
    push_batch(device, [Compute(CO_ADD, dst, a1, a2, 4), Fence(2)])
    device.step(100)
    assert vram_words(device, dst, 4) == want_add
    push_batch(device, [Compute(CO_MUL, dst, a1, a2, 4), Fence(3)])
    device.step(100)
    assert vram_words(device, dst, 4) == want_mul


def test_copy_moves_words(solo):
    _, device = solo
    data = list(range(1, 33))
    poke_words(device, DATA_AT, data)
    push_batch(device, [Copy(DATA_AT + 0x1000, DATA_AT, 32), Fence(1)])
    device.step(100)
    assert vram_words(device, DATA_AT + 0x1000, 32) == data


def test_ring_wraps_across_the_boundary(solo):
    _, device = solo
    poke_words(device, DATA_AT, [3, 4, 5, 6])

    def park_tail_at(word, seq):
        # NOPs up to ``word``, then a fence; returns once the batch retired
        tail = device.mmio_read(REG_RB_TAIL) // WORD
        push_batch(device, [Nop()] * ((word - tail) % RING_WORDS - 4) + [Fence(seq)])
        device.step(10_000)
        assert read_status(device)[0] == seq
        assert device.mmio_read(REG_RB_TAIL) == word * WORD

    # a 6-word COMPUTE from word 1021: three words before the ring end,
    # three after it
    park_tail_at(1021, 1)
    push_batch(device, [Compute(CO_DOT, DATA_AT + 0x100, DATA_AT, DATA_AT + 8, 2),
                        Fence(2)])
    device.step(10_000)
    assert read_status(device)[0] == 2
    assert vram_words(device, DATA_AT + 0x100, 1) == [3 * 5 + 4 * 6]
    # a 3-word SET_REG from word 1022: opcode and register before the end,
    # value after it
    park_tail_at(1022, 3)
    push_batch(device, [SetReg(REG_SCRATCH0 + 4, 0xBEEF), Fence(4)])
    device.step(10_000)
    assert read_status(device)[0] == 4
    assert read_status(device)[2] & FAULT_FLAGS == 0
    assert device.mmio_read(REG_SCRATCH0 + 4) == 0xBEEF
    assert device.mmio_read(REG_RB_HEAD) == device.mmio_read(REG_RB_TAIL) == 5 * WORD


def test_unknown_opcode_faults_and_halts(solo):
    _, device = solo
    poke_words(device, RING_AT, [0x7, 0x0])
    device.mmio_write(REG_RB_TAIL, 8)
    device.step(100)
    assert read_status(device)[2] & FLAG_CMD_FAULT
    assert device.mmio_read(REG_RB_HEAD) == device.mmio_read(REG_RB_TAIL)


def _tail_write_past_the_ring_end(device):
    device.mmio_write(REG_RB_TAIL, RING_WORDS * WORD)


def _ring_shrunk_below_the_tail(device):
    push_batch(device, [SetReg(REG_SCRATCH0, 9)] * 7)  # 84 bytes
    device.mmio_write(REG_RB_SIZE, 16)                 # a 64-byte ring


def _ring_shrunk_below_the_head(device):
    push_batch(device, [Nop()] * 24)
    device.step(100)                                   # head at 96 bytes
    device.mmio_write(REG_RB_SIZE, 16)                 # a 64-byte ring
    device.mmio_write(REG_RB_TAIL, 96 % 64)


@pytest.mark.parametrize("arm", [_tail_write_past_the_ring_end,
                                 _ring_shrunk_below_the_tail,
                                 _ring_shrunk_below_the_head],
                         ids=["tail-write", "size-shrink", "head-past-size"])
def test_a_head_or_tail_at_or_past_the_ring_end_faults_the_fetch(solo, arm):
    _, device = solo
    arm(device)
    assert device.step(100).cycles_used == 0
    assert read_status(device) == (0, 1, FLAG_CMD_FAULT)
    assert device.cp_idle  # the fault took the batch
    assert device.mmio_read(REG_SCRATCH0) == 0


def test_a_tail_inside_a_word_truncates_the_instruction_it_cuts(solo):
    _, device = solo
    poke_words(device, RING_AT, simdev.encode_batch([Nop(), SetReg(REG_SCRATCH0, 9)]))
    # the batch ends two bytes into the SET_REG's last word, which the
    # fetch window the NOP's fetch read still holds: it reads whole words
    device.mmio_write(REG_RB_TAIL, 14)
    assert device.step(100).cycles_used == 1
    assert read_status(device) == (0, 1, FLAG_CMD_FAULT)
    assert device.mmio_read(REG_SCRATCH0) == 0
    assert device.cp_idle


FAR = 0x0FFF_FF00  # in the device-local window, past the 2 MiB segment
UNMAPPED = APERTURE_BASE + 0x3000_0000


@pytest.mark.parametrize("instr, status", [
    (Compute(7, FAR, FAR, FAR, 4), (0, 1, FLAG_CMD_FAULT)),
    (Compute(CO_DOT, DATA_AT, FAR, UNMAPPED, 4), (0, 1, FLAG_MC_FAULT)),
    (Compute(CO_DOT, DATA_AT, UNMAPPED, FAR, 4), (0, 1, FLAG_IOMMU_FAULT)),
    (Compute(CO_DOT, FAR, DATA_AT, DATA_AT, 0), (0, 1, FLAG_MC_FAULT)),
    (Compute(CO_ADD, FAR, DATA_AT, DATA_AT, 0), (5, 1, FLAG_FENCE)),
], ids=["sub-op-first", "src1-before-src2", "src1-before-src2-swapped",
        "empty-dot-writes-a-word", "empty-add-writes-nothing"])
def test_compute_checks_sub_op_then_src1_then_src2_then_dst(solo, instr, status):
    _, device = solo
    push_batch(device, [instr, Fence(5)])
    device.step(100)
    assert read_status(device) == status
    assert device.cp_idle


def test_set_reg_from_stream_reaches_scratch_only(solo):
    _, device = solo
    push_batch(device, [SetReg(REG_SCRATCH0, 0xABCD), Fence(1)])
    device.step(100)
    assert device.mmio_read(REG_SCRATCH0) == 0xABCD
    before = device.mmio_read(REG_MC_SEG_LIMIT)
    push_batch(device, [SetReg(REG_MC_SEG_LIMIT, 0)])
    device.step(100)
    assert read_status(device)[2] & FLAG_CMD_FAULT
    assert device.mmio_read(REG_MC_SEG_LIMIT) == before


# --- memory controller and translation --------------------------------------

def test_mc_segment_base_plus_offset():
    platform = make_platform()
    device = boot_solo(make_device(platform, vram=16 << 20))
    marker = [0xDEAD0001, 0xDEAD0002]
    poke_words(device, 0x40_1000, marker)
    device.mmio_write(REG_MC_SEG_BASE, 0x40_0000)
    device.mmio_write(REG_MC_SEG_LIMIT, 0x80_0000)
    # all addresses are window offsets now; the batch itself must sit at
    # base + RB_BASE in raw VRAM for the fetch to find it
    device.mmio_write(REG_RB_BASE, 0x4000)
    device.mmio_write(REG_IH_PAGE_ADDR, 0x2000)
    batch = simdev.encode_batch([Copy(0x3000, 0x1000, 2), Fence(1)])
    poke_words(device, 0x40_4000, batch)
    device.mmio_write(REG_RB_TAIL, len(batch) * WORD)
    device.step(100)
    assert vram_words(device, 0x40_3000, 2) == marker
    # the fence landed on the translated status page as well
    assert unpack(bytes(device.vram[0x40_2000:0x40_2000 + 8]))[0] == 1


def test_mc_limit_fault_leaves_memory_untouched(solo):
    _, device = solo
    device.mmio_write(REG_MC_SEG_LIMIT, 0x10_0000)
    push_batch(device, [Copy(0x10_0000 - 4, DATA_AT, 2), Fence(1)])
    before = bytes(device.vram)  # after the host wrote the ring
    device.step(100)
    assert read_status(device)[2] & FLAG_MC_FAULT
    after = bytes(device.vram)
    # only the status page changed (fault flags landed there)
    assert after[:STATUS_AT] == before[:STATUS_AT]
    assert after[STATUS_AT + 16:] == before[STATUS_AT + 16:]


def test_pte_walk_example():
    platform = make_platform()
    device = boot_solo(make_device(platform))
    frame = platform.sysmem.alloc_frames(1, "app")[0]
    platform.sysmem.write(frame, 0, pack([0x11112222, 0x33334444]))
    table = PageTable()
    table.map(0x2000, frame, writable=True)  # L1[0] -> L2, L2[2] -> frame
    assert table.lookup(0x2000) == (frame, True)
    device.translation_tables[7] = table
    device.mmio_write(REG_IOMMU_ROOT, 7)
    push_batch(device, [Copy(DATA_AT, 0x8000_2000, 2), Fence(1)])
    device.step(100)
    assert vram_words(device, DATA_AT, 2) == [0x11112222, 0x33334444]


def test_read_one_page_past_mapping_faults_and_memory_is_intact():
    platform = make_platform()
    device = boot_solo(make_device(platform))
    frames = platform.sysmem.alloc_frames(2, "app")
    table = PageTable()
    for i, frame in enumerate(frames):
        table.map(i * PAGE_SIZE, frame, writable=True)
    device.translation_tables[1] = table
    device.mmio_write(REG_IOMMU_ROOT, 1)
    before = bytes(platform.sysmem.data)
    push_batch(device, [Copy(DATA_AT, APERTURE_BASE + 2 * PAGE_SIZE, 1),
                        Fence(1)])
    device.step(100)
    assert read_status(device)[2] & FLAG_IOMMU_FAULT
    assert bytes(platform.sysmem.data) == before


def test_write_through_readonly_pte_faults():
    platform = make_platform()
    device = boot_solo(make_device(platform))
    frame = platform.sysmem.alloc_frames(1, "app")[0]
    table = PageTable()
    table.map(0, frame, writable=False)
    device.translation_tables[1] = table
    device.mmio_write(REG_IOMMU_ROOT, 1)
    push_batch(device, [Copy(APERTURE_BASE, DATA_AT, 1), Fence(1)])
    device.step(100)
    assert read_status(device)[2] & FLAG_IOMMU_FAULT


def test_root_and_enable_writes_drive_the_active_unit():
    platform = make_platform()
    device = boot_solo(make_device(platform))
    unit = device.active_iommu = IommuUnit(device.translation_tables)
    unit.tlb[0] = (1, True)
    device.mmio_write(REG_IOMMU_ROOT, 3)
    device.mmio_write(REG_IOMMU_ENABLE, 0)
    assert (unit.root, unit.tlb, unit.enabled) == (3, {}, False)


def test_root_swap_hides_and_restores_translations():
    tables = {}
    unit = IommuUnit(tables)
    platform = make_platform()
    frame = platform.sysmem.alloc_frames(1, "a")[0]
    table_a, table_b = PageTable(), PageTable()
    table_a.map(0x5000, frame, writable=True)
    tables[1], tables[2] = table_a, table_b
    unit.set_root(1)
    assert unit.translate(0x5000, False) == (frame, 0)
    unit.set_root(2)
    with pytest.raises(IommuFault):
        unit.translate(0x5000, False)
    unit.set_root(1)
    assert unit.translate(0x5000, False) == (frame, 0)


def test_stale_tlb_after_unflushed_root_change_mistranslates():
    tables = {}
    unit = UnflushedRootIommu(tables)
    platform = make_platform()
    frame_a = platform.sysmem.alloc_frames(1, "a")[0]
    frame_b = platform.sysmem.alloc_frames(1, "b")[0]
    for tid, frame in ((1, frame_a), (2, frame_b)):
        table = PageTable()
        table.map(0, frame, writable=True)
        tables[tid] = table
    unit.set_root(1)
    assert unit.translate(0, False)[0] == frame_a
    unit.set_root(2)
    assert unit.translate(0, False)[0] == frame_a  # stale entry served
    unit.tlb_flush()
    assert unit.translate(0, False)[0] == frame_b


def test_tlb_path_equals_always_walk_oracle_small():
    rng = random.Random(7)
    platform = make_platform(frames=128)
    table = PageTable()
    unit = IommuUnit({1: table}, tlb_entries=8)  # tiny TLB forces evictions
    unit.set_root(1)
    live = {}
    for _ in range(1000):
        op = rng.random()
        page = rng.randrange(0, 256)
        if op < 0.4 and page not in live:
            frame = rng.randrange(0, 128)
            table.map(page * PAGE_SIZE, frame, writable=bool(rng.getrandbits(1)))
            live[page] = frame
        elif op < 0.6 and live:
            victim = rng.choice(sorted(live))
            table.unmap(victim * PAGE_SIZE)
            del live[victim]
            unit.tlb_flush()
        else:
            off = page * PAGE_SIZE + rng.randrange(0, PAGE_SIZE)
            try:
                got = unit.translate(off, False)
            except IommuFault:
                got = "fault"
            try:
                want = (table.lookup(off)[0], off & 0xFFF)
            except IommuFault:
                want = "fault"
            assert got == want


# --- write-back cache -------------------------------------------------------

def test_writes_stay_cached_until_flush(solo):
    _, device = solo
    poke_words(device, DATA_AT, [5, 6])
    push_batch(device, [Compute(CO_ADD, DATA_AT + 0x100, DATA_AT, DATA_AT, 2)])
    device.step(100)
    assert vram_words(device, DATA_AT + 0x100, 2) == [0, 0]  # still pending
    device.mmio_write(simdev.REG_CACHE_FLUSH, 1)
    assert vram_words(device, DATA_AT + 0x100, 2) == [10, 12]


def test_fence_drains_cache_before_signaling(solo):
    _, device = solo
    poke_words(device, DATA_AT, [5, 6])
    push_batch(device, [Compute(CO_ADD, DATA_AT + 0x100, DATA_AT, DATA_AT, 2),
                        Fence(1)])
    device.step(100)
    assert read_status(device)[0] == 1
    assert vram_words(device, DATA_AT + 0x100, 2) == [10, 12]


@pytest.mark.parametrize("ih, flag", [(0, FLAG_CMD_FAULT),
                                      (APERTURE_BASE, FLAG_IOMMU_FAULT)],
                         ids=["unset", "unmapped"])
def test_a_fence_that_faults_on_its_status_page_changes_nothing(solo, ih, flag):
    _, device = solo
    device.mmio_write(REG_IH_PAGE_ADDR, ih)  # the solo device maps no aperture
    poke_words(device, DATA_AT, [5, 6])
    push_batch(device, [Compute(CO_ADD, DATA_AT + 0x100, DATA_AT, DATA_AT, 2),
                        Fence(7), SetReg(REG_SCRATCH0, 9)])
    device.step(100)
    assert device.cp_idle
    assert device.mmio_read(REG_SCRATCH0) == 0  # the fault took the batch
    # the fence drained nothing and retired nothing
    assert vram_words(device, DATA_AT + 0x100, 2) == [0, 0]
    assert list(device.cache.pending.items()) == [
        ((0, DATA_AT + 0x100), 10), ((0, DATA_AT + 0x104), 12)]
    device.mmio_write(REG_IH_PAGE_ADDR, STATUS_AT)
    assert read_status(device) == (0, 1, flag)


def test_a_fault_recorded_without_a_status_page_shows_when_one_is_set(solo):
    _, device = solo
    device.mmio_write(REG_IH_PAGE_ADDR, 0)
    push_batch(device, [SetReg(REG_MC_SEG_BASE, 1)])
    device.step(100)
    assert device.mmio_read(REG_MC_SEG_BASE) == 0
    assert read_status(device) == (0, 0, 0)  # as the boot left it
    device.mmio_write(REG_IH_PAGE_ADDR, STATUS_AT)
    assert read_status(device) == (0, 1, FLAG_CMD_FAULT)


def test_reads_see_pending_cached_writes(solo):
    _, device = solo
    poke_words(device, DATA_AT, [1, 2])
    # first COMPUTE's result is read back by the second before any flush
    push_batch(device, [Compute(CO_ADD, DATA_AT + 0x100, DATA_AT, DATA_AT, 2),
                        Compute(CO_ADD, DATA_AT + 0x200, DATA_AT + 0x100,
                                DATA_AT + 0x100, 2),
                        Fence(1)])
    device.step(100)
    assert vram_words(device, DATA_AT + 0x200, 2) == [4, 8]


def test_reads_straddling_pending_results_see_them(solo):
    _, device = solo
    poke_words(device, DATA_AT, list(range(1, 11)))

    def w(i):
        return DATA_AT + i * WORD

    # words 4..7 become pending; the copies write back inside that range,
    # so the reads meet its edges: 2..5 starts below it, 6..9 ends above it
    push_batch(device, [Compute(CO_ADD, w(4), w(0), w(0), 4),  # 2 4 6 8
                        Copy(w(4), w(2), 4),                   # 3 4 2 4
                        Copy(w(4), w(6), 4),                   # 2 4 9 10
                        Fence(1)])
    device.step(100)
    assert vram_words(device, DATA_AT, 10) == [1, 2, 3, 4, 2, 4, 9, 10, 9, 10]


# VRAM words at DATA_AT, and aperture pages 0 and 1 mapped to the system
# frames at the same physical byte addresses, in reverse order: every
# physical address of one space also exists in the other, and an aperture
# run across the page boundary splits into two system-memory spans
ALIAS_WORDS = 2 * PAGE_SIZE // WORD
ALIAS_FRAME = DATA_AT // PAGE_SIZE


def aliased_device(vram=2 << 20, cls=SimDevice):
    platform = make_platform()
    device = boot_solo(cls(platform.sysmem, vram_size=vram))
    table = PageTable()
    table.map(0, ALIAS_FRAME + 1)
    table.map(PAGE_SIZE, ALIAS_FRAME)
    device.translation_tables[1] = table
    device.mmio_write(REG_IOMMU_ROOT, 1)
    return platform, device


def alias_loc(platform, device, da):
    """(backing bytes, byte address) of device address ``da`` on an
    aliased_device."""
    if da >= APERTURE_BASE:
        off = da - APERTURE_BASE
        frame = ALIAS_FRAME + 1 - off // PAGE_SIZE
        return platform.sysmem.data, frame * PAGE_SIZE + off % PAGE_SIZE
    return device.vram, da


def sys_words(platform, aperture_off, n):
    data, addr = alias_loc(platform, None, APERTURE_BASE + aperture_off)
    return unpack(bytes(data[addr:addr + n * WORD]))


def test_pending_writes_in_one_space_stay_unseen_by_the_other():
    platform, device = aliased_device()
    poke_words(device, DATA_AT, [1, 2, 3, 4])
    addr = ALIAS_FRAME * PAGE_SIZE  # == DATA_AT, aperture page 1
    platform.sysmem.data[addr:addr + 16] = pack([10, 20, 30, 40])
    sys_at = APERTURE_BASE + PAGE_SIZE
    push_batch(device, [
        # pending VRAM words, then a read of the system words at the same
        # physical addresses
        Compute(CO_ADD, DATA_AT, DATA_AT, DATA_AT, 4),
        Copy(DATA_AT + 0x100, sys_at, 4),
        # and the other way round
        Compute(CO_MUL, sys_at, sys_at, sys_at, 4),
        Copy(DATA_AT + 0x200, DATA_AT, 4),
        # while a read in the same space does see them
        Copy(DATA_AT + 0x300, sys_at, 4),
        Fence(1)])
    device.step(1000)
    assert vram_words(device, DATA_AT, 4) == [2, 4, 6, 8]
    assert vram_words(device, DATA_AT + 0x100, 4) == [10, 20, 30, 40]
    assert sys_words(platform, PAGE_SIZE, 4) == [100, 400, 900, 1600]
    assert vram_words(device, DATA_AT + 0x200, 4) == [2, 4, 6, 8]
    assert vram_words(device, DATA_AT + 0x300, 4) == [100, 400, 900, 1600]


def test_reads_after_a_drain_see_backing_and_new_pending_words(solo):
    _, device = solo
    poke_words(device, DATA_AT, [1, 2, 3, 4])
    a, b, out = DATA_AT, DATA_AT + 0x40, DATA_AT + 0x80
    push_batch(device, [Compute(CO_ADD, a, a, a, 4),   # 2 4 6 8, drained
                        Fence(1),
                        Compute(CO_ADD, b, a, a, 4),   # 4 8 12 16, pending
                        Copy(out, a, 20),              # a .. b, both sources
                        Fence(2)])
    device.step(5 + 4 + 5 + 21)  # everything but the last fence
    assert vram_words(device, a, 4) == [2, 4, 6, 8]
    assert vram_words(device, b, 4) == [0] * 4  # still pending
    device.step(100)
    assert read_status(device)[0] == 2
    assert vram_words(device, b, 4) == [4, 8, 12, 16]
    assert vram_words(device, out, 20) == [2, 4, 6, 8] + [0] * 12 + [4, 8, 12, 16]


# ADD adds every lane of its run in one integer operation: each word must
# still be its own (x + y) mod 2**32, whatever the words beside it carry.

ADD_PATTERNS = ((0xFFFFFFFF, 1), (0x80000000, 0x80000000), (0x7FFFFFFF, 1),
                (0xFFFFFFFF, 0xFFFFFFFF), (0, 0))
# every ordered pair of patterns side by side, then again up to 96 words
ADD_LANES = list(itertools.islice(itertools.cycle(
    [p for pair in itertools.product(ADD_PATTERNS, repeat=2) for p in pair]), 96))
ADD_STRADDLE = APERTURE_BASE + PAGE_SIZE - 41 * WORD  # 41 words on page 0
ADD_PLACES = {  # (dst, src1, src2)
    "vram": (DATA_AT + 0x1400, DATA_AT + 0x1000, DATA_AT + 0x1200),
    "aperture": (APERTURE_BASE + 0x500, APERTURE_BASE + 0x100, APERTURE_BASE + 0x300),
    # in place across the page end, over a device-local src2
    "straddle": (ADD_STRADDLE, ADD_STRADDLE, DATA_AT + 0x1000),
}


def poke_device_words(platform, device, da, words):
    for i, word in enumerate(words):
        backing, addr = alias_loc(platform, device, da + i * WORD)
        backing[addr:addr + WORD] = pack([word])


@pytest.mark.parametrize("place", ADD_PLACES)
@pytest.mark.parametrize("count", [1, 2, 96])
def test_add_carries_stay_inside_each_lane(place, count):
    platform, device = aliased_device()
    dst, src1, src2 = ADD_PLACES[place]
    xs = [x for x, _ in ADD_LANES]
    ys = [y for _, y in ADD_LANES]
    poke_device_words(platform, device, src1, xs)
    poke_device_words(platform, device, src2, ys)
    push_batch(device, [Compute(CO_ADD, dst + k, src1 + k, src2 + k, count)
                        for k in range(0, len(xs) * WORD, count * WORD)]
               + [Fence(1)])
    device.step(10_000)
    assert read_status(device)[0] == 1
    assert read_status(device)[2] & FAULT_FLAGS == 0
    assert device_words(platform, device, dst, len(xs)) == [
        (x + y) & MASK32 for x, y in zip(xs, ys)]


def test_add_keeps_masks_for_few_run_lengths(solo):
    _, device = solo
    a, b, dst = DATA_AT, DATA_AT + 0x2000, DATA_AT + 0x4000
    counts = range(CACHE_WORDS, CACHE_WORDS + 8)
    xs = [(0x9E3779B9 * i) & MASK32 for i in range(counts[-1])]
    ys = [(0x7F4A7C15 * i) & MASK32 for i in range(counts[-1])]
    poke_words(device, a, xs)
    poke_words(device, b, ys)
    for seq, count in enumerate(counts, 1):
        push_batch(device, [Compute(CO_ADD, dst, a, b, count), Fence(seq)])
        device.step(2 * count)
        assert read_status(device)[0] == seq
        assert vram_words(device, dst, count) == [
            (x + y) & MASK32 for x, y in zip(xs[:count], ys[:count])]
    # a batch picks its run lengths: the memo may not grow with them
    assert simdev._add_masks.cache_info().currsize <= 4


# A standalone cache over one small backing per space, at equal physical
# byte addresses, and the plain per-word FIFO it must equal: one put per
# word, each eviction written back at once.

CACHE_BACKING_WORDS = 64
CACHE_SPREAD = 24  # runs of up to 16 words start at words 0..24


def cache_backings():
    return tuple(bytearray(pack([100 + i for i in range(CACHE_BACKING_WORDS)]))
                 for _ in range(2))


def backing_words(backing, n=CACHE_BACKING_WORDS):
    return unpack(bytes(backing[:n * WORD]))


class FifoReference:
    def __init__(self, capacity, backings):
        self.capacity, self.backings, self.pending = capacity, backings, {}

    def put(self, key, word):
        if key not in self.pending and len(self.pending) >= self.capacity:
            self.write_back(next(iter(self.pending)))
        self.pending[key] = word

    def write_back(self, key):
        space, addr = key
        self.backings[space][addr:addr + WORD] = pack([self.pending.pop(key)])


def test_updating_a_pending_word_keeps_its_fifo_place():
    backings = cache_backings()
    cache = WriteBackCache(4, backings)
    cache.put_run(0, 0, [1, 2, 3, 4])
    cache.put_run(0, 0, [9])            # an update, not a new word
    assert list(cache.pending.items()) == [((0, 0), 9), ((0, 4), 2),
                                           ((0, 8), 3), ((0, 12), 4)]
    cache.put_run(0, 16, [5])           # evicts the updated word first
    assert list(cache.pending) == [(0, 4), (0, 8), (0, 12), (0, 16)]
    assert backing_words(backings[0], 5) == [9, 101, 102, 103, 104]


def test_a_word_evicted_by_its_own_run_goes_back_in_at_the_tail():
    backings = cache_backings()
    cache = WriteBackCache(4, backings)
    cache.put_run(0, 4, [1, 2, 3, 4])   # words 1..4 pending
    # word 0 evicts word 1, then word 1 (new again) evicts word 2
    cache.put_run(0, 0, [5, 6])
    assert list(cache.pending.items()) == [((0, 12), 3), ((0, 16), 4),
                                           ((0, 0), 5), ((0, 4), 6)]
    # the backing holds the evicted values, not the re-inserted one
    assert backing_words(backings[0], 5) == [100, 1, 2, 103, 104]


def test_a_pending_word_updates_only_in_its_own_space():
    cache = WriteBackCache(4, cache_backings())
    cache.put_run(1, 4, [9])
    cache.put_run(0, 0, [1])            # VRAM word 0 is pending too
    cache.put_run(1, 0, [2, 3])         # system words 0 (new) and 1 (pending)
    assert list(cache.pending.items()) == [((1, 4), 3), ((0, 0), 1),
                                           ((1, 0), 2)]
    cache.put_run(0, 32, [5])           # a fourth word fits: nothing evicted
    assert list(cache.pending.items()) == [((1, 4), 3), ((0, 0), 1),
                                           ((1, 0), 2), ((0, 32), 5)]


def test_a_run_longer_than_the_cache_over_pending_words_is_one_put_per_word():
    backings = cache_backings()
    cache = WriteBackCache(4, backings)
    ref = FifoReference(4, cache_backings())
    runs = [(0, 8, [1, 2]), (1, 0, [3]),
            (0, 0, list(range(10, 20))),    # words 0..9, over words 2 and 3
            (0, 36, [7, 8])]                # starts at the envelope's top
    for space, addr, words in runs:
        cache.put_run(space, addr, words)
        for i, word in enumerate(words):
            ref.put((space, addr + i * WORD), word)
        assert list(cache.pending.items()) == list(ref.pending.items())
        assert backings == ref.backings


def test_compute_longer_than_the_cache_reads_back_before_its_fence():
    count = CACHE_WORDS + 100
    src, fill, dst = DATA_AT, DATA_AT + count * WORD, DATA_AT + 2 * count * WORD
    data = list(range(1, count + 1))
    sums = [2 * x for x in data]
    devices = [boot_solo(make_device(make_platform(), vram=128 << 10))
               for _ in range(2)]
    for device in devices:
        poke_words(device, src, data)
        # a full cache first, so the long run evicts more words than the
        # cache holds: all of the fill, then its own first 100 results
        push_batch(device, [Compute(CO_ADD, fill, src, src, CACHE_WORDS),
                            Compute(CO_ADD, dst, src, src, count), Fence(1)])
    device, twin = devices
    device.step(1 + CACHE_WORDS + 1 + count)  # the COMPUTEs, not the FENCE
    assert not device.cp_idle
    assert vram_words(device, fill, CACHE_WORDS) == sums[:CACHE_WORDS]
    assert vram_words(device, dst, count) == sums[:100] + [0] * CACHE_WORDS
    assert list(device.cache.pending.items()) == [
        ((0, dst + i * WORD), sums[i]) for i in range(100, count)]
    # the digest sees exactly those bytes: a twin that never ran, given
    # the written-back words and the same RB_HEAD, hashes the same
    poke_words(twin, fill, sums[:CACHE_WORDS])
    poke_words(twin, dst, sums[:100])
    twin.regs[REG_RB_HEAD] = device.regs[REG_RB_HEAD]
    assert device.device_digest() == twin.device_digest()
    device.step(100)
    assert read_status(device)[0] == 1
    assert vram_words(device, dst, count) == sums


@st.composite
def _cache_ops(draw):
    """A capacity, a list of runs, drains and drops that start within
    CACHE_SPREAD words, so runs overlap pending words and each other, and
    after each op one read per space of up to 16 words from there."""
    capacity = draw(st.integers(4, 8))
    ops = []
    reads = []
    kinds = st.sampled_from(("run", "run", "run", "drain", "drop"))
    read = st.tuples(st.integers(0, CACHE_SPREAD + 8), st.integers(1, 16))
    for kind in draw(st.lists(kinds, min_size=1, max_size=12)):
        space = draw(st.integers(0, 1))
        first = draw(st.integers(0, CACHE_SPREAD)) * WORD
        if kind == "run":
            n = draw(st.integers(1, 2 * capacity))
            words = st.lists(st.integers(0, MASK32), min_size=n, max_size=n)
            ops.append(("run", space, first, draw(words)))
        elif kind == "drop":
            ops.append(("drop", space, first, draw(st.integers(1, 4))))
        else:
            ops.append(("drain",))
        reads.append((draw(read), draw(read)))
    return capacity, ops, reads


@settings(max_examples=150, deadline=None)
@given(_cache_ops())
def test_cache_runs_equal_one_put_per_word(program):
    capacity, ops, reads = program
    cache = WriteBackCache(capacity, cache_backings())
    ref = FifoReference(capacity, cache_backings())
    for op, per_space in zip(ops, reads):
        if op[0] == "run":
            _, space, addr, words = op
            cache.put_run(space, addr, words)
            for i, word in enumerate(words):
                ref.put((space, addr + i * WORD), word)
        elif op[0] == "drop":
            _, space, addr, n = op
            cache.drop(space, addr, n)
            for i in range(n):
                ref.pending.pop((space, addr + i * WORD), None)
        else:
            cache.drain()
            while ref.pending:
                ref.write_back(next(iter(ref.pending)))
        assert list(cache.pending.items()) == list(ref.pending.items())
        assert cache.size == len(ref.pending)
        assert cache.backings == ref.backings
        for space, addr in cache.pending:
            assert cache.lo[space] <= addr <= cache.hi[space]
        for space, (first, n) in enumerate(per_space):
            backing = backing_words(ref.backings[space])
            want = [ref.pending.get((space, i * WORD), backing[i])
                    for i in range(first, first + n)]
            assert cache.read(space, first * WORD, n) == want


# Entry boundaries of the run-kept queue, each against the per-word FIFO.

def test_an_eviction_can_trim_the_front_entry_partway():
    backings = cache_backings()
    cache = WriteBackCache(4, backings)
    cache.put_run(0, 0, [1, 2, 3])
    cache.put_run(1, 0, [4])
    cache.put_run(0, 64, [5, 6])        # evicts words 0 and 1 only
    assert list(cache.pending.items()) == [((0, 8), 3), ((1, 0), 4),
                                           ((0, 64), 5), ((0, 68), 6)]
    assert backing_words(backings[0], 3) == [1, 2, 102]
    cache.put_run(0, 8, [7])            # the rest of the entry updates in place
    assert cache.read(0, 0, 3) == [1, 2, 7]
    cache.put_run(0, 72, [8])           # and is the next to go
    assert backing_words(backings[0], 3) == [1, 2, 7]
    assert list(cache.pending) == [(1, 0), (0, 64), (0, 68), (0, 72)]


def test_a_read_across_two_entries_and_a_gap_overlays_both():
    cache = WriteBackCache(8, cache_backings())
    cache.put_run(0, 4, [1, 2])
    cache.put_run(0, 20, [5, 6])
    cache.put_run(1, 12, [9])           # the other space at the gap
    assert cache.read(0, 0, 8) == [100, 1, 2, 103, 104, 5, 6, 107]
    assert cache.read(0, 8, 4) == [2, 103, 104, 5]
    assert cache.read(0, 12, 2) == [103, 104]
    assert cache.read(1, 8, 3) == [102, 9, 104]


def test_a_run_that_continues_the_tail_in_the_other_space_starts_an_entry():
    backings = cache_backings()
    cache = WriteBackCache(3, backings)
    cache.put_run(0, 0, [1, 2])
    cache.put_run(1, 8, [3])            # system word 2, after VRAM word 1
    assert list(cache.pending.items()) == [((0, 0), 1), ((0, 4), 2),
                                           ((1, 8), 3)]
    assert cache.read(0, 8, 1) == [102]
    cache.put_run(0, 32, [4, 5])        # evicts both VRAM words
    assert backing_words(backings[0], 3) == [1, 2, 102]
    assert backing_words(backings[1], 3) == [100, 101, 102]
    cache.drain()
    assert backing_words(backings[1], 3) == [100, 101, 3]


def test_a_status_write_through_inside_a_pending_result_splits_it(solo):
    _, device = solo
    data = list(range(1, 13))
    poke_words(device, DATA_AT, data)
    dst = STATUS_AT - 4 * WORD          # words 4..7 of the result are the page
    push_batch(device, [Compute(CO_ADD, dst, DATA_AT, DATA_AT, 12),
                        SetReg(REG_MC_SEG_BASE, 1)])   # faults: status write
    device.step(100)
    # the per-word FIFO: twelve puts, then the status words written
    # through; nothing was evicted, so it starts from the device's memory
    ref = FifoReference(CACHE_WORDS, (bytearray(device.vram), None))
    for i, x in enumerate(data):
        ref.put((0, dst + i * WORD), 2 * x)
    for i, word in enumerate((0, 0, 1, FLAG_CMD_FAULT)):
        del ref.pending[(0, STATUS_AT + i * WORD)]
        ref.backings[0][STATUS_AT + i * WORD:STATUS_AT + (i + 1) * WORD] = pack([word])
    assert list(device.cache.pending.items()) == list(ref.pending.items())
    assert device.cache.read(0, dst, 12) == (
        [2 * x for x in data[:4]] + [0, 0, 1, FLAG_CMD_FAULT]
        + [2 * x for x in data[8:]])
    device.mmio_write(simdev.REG_CACHE_FLUSH, 1)
    while ref.pending:
        ref.write_back(next(iter(ref.pending)))
    assert bytes(device.vram) == bytes(ref.backings[0])


# --- instruction fetch --------------------------------------------------------
#
# The fetch window must return what a word-by-word fetch would: these cover
# each way its words can go stale or its read can fault.

def device_words(platform, device, da, n):
    words = []
    for i in range(n):
        backing, addr = alias_loc(platform, device, da + i * WORD)
        words += unpack(bytes(backing[addr:addr + WORD]))
    return words


def queue(platform, device, words):
    """push_batch of encoded words, for a ring anywhere on an
    aliased_device."""
    base = device.mmio_read(REG_RB_BASE)
    ring = device.mmio_read(REG_RB_SIZE)
    tail = device.mmio_read(REG_RB_TAIL) // WORD
    for i, word in enumerate(words):
        backing, addr = alias_loc(platform, device, base + (tail + i) % ring * WORD)
        backing[addr:addr + WORD] = pack([word])
    device.mmio_write(REG_RB_TAIL, (tail + len(words)) % ring * WORD)


SCRATCH1 = REG_SCRATCH0 + 4
SCRATCH2 = REG_SCRATCH0 + 8


@pytest.mark.parametrize("ring_at", [RING_AT, APERTURE_BASE], ids=["vram", "aperture"])
def test_copy_over_the_next_instruction_runs_the_new_one(ring_at):
    platform, device = aliased_device()
    device.mmio_write(REG_RB_BASE, ring_at)
    poke_words(device, DATA_AT + 0x100, SetReg(SCRATCH1, 0x1111).encode())
    # the COPY at words 0-3 rewrites the SET_REG at words 4-6 before it
    # is fetched
    queue(platform, device, simdev.encode_batch([
        Copy(ring_at + 4 * WORD, DATA_AT + 0x100, 3), SetReg(SCRATCH1, 0x2222),
        Fence(1)]))
    device.step(100)
    assert read_status(device)[0] == 1
    assert read_status(device)[2] & FAULT_FLAGS == 0
    assert device.mmio_read(SCRATCH1) == 0x1111
    assert device_words(platform, device, ring_at + 4 * WORD, 3) == [
        OP_SET_REG, SCRATCH1, 0x1111]


def test_status_write_inside_the_ring_replaces_the_words_after_the_fence(solo):
    _, device = solo
    device.mmio_write(REG_IH_PAGE_ADDR, RING_AT + 4 * WORD)
    device.mmio_write(SCRATCH1, 0x7777)
    # the fence writes its seq (two words), irq count 0 and flags 0 over
    # words 4-7, turning SET_REG SCRATCH1, 0x5555 into SET_REG SCRATCH1, 0
    push_batch(device, [Fence(OP_SET_REG | SCRATCH1 << 32, flags=0),
                        SetReg(SCRATCH1, 0x5555), Nop(),
                        SetReg(SCRATCH2, 0xAAAA)])
    device.step(100)
    assert vram_words(device, RING_AT + 4 * WORD, 4) == [OP_SET_REG, SCRATCH1, 0, 0]
    assert device.mmio_read(SCRATCH1) == 0
    assert device.mmio_read(SCRATCH2) == 0xAAAA
    assert device.mmio_read(REG_RB_HEAD) == device.mmio_read(REG_RB_TAIL)


def test_segment_limit_inside_the_ring_faults_at_the_crossing_instruction(solo):
    _, device = solo
    poke_words(device, 0x3100, [5, 6])
    # the limit falls at ring word 8: the COPY at words 7-10 has only its
    # opcode inside the segment
    device.mmio_write(REG_MC_SEG_LIMIT, RING_AT + 8 * WORD)
    push_batch(device, [SetReg(REG_SCRATCH0, 1), SetReg(SCRATCH1, 2), Nop(),
                        Copy(0x3000, 0x3100, 2), SetReg(SCRATCH2, 3), Fence(1)])
    before = bytes(device.vram)
    device.step(100)
    seq, irq, flags = read_status(device)
    assert (seq, irq, flags & FAULT_FLAGS) == (0, 1, FLAG_MC_FAULT)
    assert [device.mmio_read(reg) for reg in (REG_SCRATCH0, SCRATCH1, SCRATCH2)] == [1, 2, 0]
    assert device.mmio_read(REG_RB_HEAD) == device.mmio_read(REG_RB_TAIL)
    after = bytes(device.vram)
    assert after[:STATUS_AT] == before[:STATUS_AT]
    assert after[STATUS_AT + 16:] == before[STATUS_AT + 16:]


def test_host_rewrite_between_steps_is_fetched(solo):
    _, device = solo
    push_batch(device, [SetReg(REG_SCRATCH0, 1), SetReg(SCRATCH1, 2), Fence(1)])
    assert device.step(1).cycles_used == 1  # the first SET_REG only
    poke_words(device, RING_AT + 3 * WORD, SetReg(SCRATCH1, 0x99).encode())
    device.step(100)
    assert read_status(device)[0] == 1
    assert device.mmio_read(REG_SCRATCH0) == 1
    assert device.mmio_read(SCRATCH1) == 0x99


def test_instruction_straddling_an_aperture_page_inside_the_ring_runs():
    platform, device = aliased_device()
    device.mmio_write(REG_RB_BASE, APERTURE_BASE)
    device.mmio_write(REG_RB_SIZE, 2 * PAGE_SIZE // WORD)  # pages 0 and 1
    poke_words(device, DATA_AT, [3, 4, 5, 6])
    # NOPs up to word 1021, then a 6-word DOT across the page end at 1024
    queue(platform, device, simdev.encode_batch([Nop()] * 1021 + [
        Compute(CO_DOT, DATA_AT + 0x100, DATA_AT, DATA_AT + 8, 2), Fence(1)]))
    device.step(10_000)
    assert read_status(device)[0] == 1
    assert read_status(device)[2] & FAULT_FLAGS == 0
    assert vram_words(device, DATA_AT + 0x100, 1) == [3 * 5 + 4 * 6]


@pytest.mark.parametrize("page_end", [RING_AT + PAGE_SIZE, APERTURE_BASE + PAGE_SIZE],
                         ids=["vram", "aperture"])
def test_instruction_across_a_page_end_and_the_ring_end_runs(page_end):
    platform, device = aliased_device()
    # a 16-word ring whose first page ends two words before the ring does:
    # the DOT's opcode is the page's last word, words 1-2 open the next
    # page and words 3-5 wrap to the ring start
    device.mmio_write(REG_RB_BASE, page_end - 14 * WORD)
    device.mmio_write(REG_RB_SIZE, 16)
    queue(platform, device, simdev.encode_batch([Nop()] * 13))
    device.step(100)
    poke_words(device, DATA_AT, [3, 4, 5, 6])
    queue(platform, device, simdev.encode_batch([
        Compute(CO_DOT, DATA_AT + 0x100, DATA_AT, DATA_AT + 8, 2), Fence(1)]))
    device.step(100)
    assert read_status(device)[0] == 1
    assert read_status(device)[2] & FAULT_FLAGS == 0
    assert vram_words(device, DATA_AT + 0x100, 1) == [3 * 5 + 4 * 6]


# At the real end of the device-local window the segment limit refuses a
# run across it too; a window that ends inside the modelled VRAM and
# segment leaves only the window rule to refuse it.
SMALL_WINDOW_END = 0x20000


@pytest.mark.parametrize("window_end", [VRAM_WINDOW_END, SMALL_WINDOW_END],
                         ids=["real-end", "small-end"])
@pytest.mark.parametrize("make", [
    lambda dst: Copy(dst, DATA_AT, 4),
    lambda dst: Compute(CO_ADD, dst, DATA_AT, DATA_AT, 4),
], ids=["copy", "compute"])
def test_a_write_from_the_vram_window_past_its_end_faults_whole(
        make, window_end, monkeypatch):
    monkeypatch.setattr(simdev, "VRAM_WINDOW_END", window_end)

    def run(dst):
        platform, device = aliased_device()
        # the ring lives in system memory, outside the digest
        device.mmio_write(REG_RB_BASE, APERTURE_BASE)
        poke_words(device, DATA_AT, [1, 2, 3, 4])
        queue(platform, device, simdev.encode_batch([make(dst), Fence(1)]))
        device.step(100)
        assert read_status(device) == (0, 1, FLAG_MC_FAULT)
        assert not device.cache.pending
        return device.device_digest()

    # two words inside the window and two past it leave the same state as
    # a destination outside every window
    assert run(window_end - 2 * WORD) == run(window_end)


@pytest.mark.parametrize("make", [
    lambda da: Copy(DATA_AT + 0x100, da, 4),
    lambda da: Compute(CO_ADD, DATA_AT + 0x100, da, DATA_AT, 4),
    lambda da: Compute(CO_ADD, DATA_AT + 0x100, DATA_AT, da, 4),
    lambda da: Copy(da, DATA_AT, 4),
], ids=["copy-src", "compute-src1", "compute-src2", "copy-dst"])
def test_an_operand_one_word_past_the_vram_window_end_faults_whole(make, monkeypatch):
    # only the window rule refuses a run that ends one word past a window
    # end inside the modelled VRAM and segment
    monkeypatch.setattr(simdev, "VRAM_WINDOW_END", SMALL_WINDOW_END)

    def run(da):
        platform, device = aliased_device()
        device.mmio_write(REG_RB_BASE, APERTURE_BASE)
        poke_words(device, DATA_AT, [1, 2, 3, 4])
        poke_words(device, SMALL_WINDOW_END - 3 * WORD, [5, 6, 7])
        queue(platform, device, simdev.encode_batch([make(da), Fence(1)]))
        device.step(100)
        assert read_status(device) == (0, 1, FLAG_MC_FAULT)
        assert not device.cache.pending
        return device.device_digest()

    # three words inside the window and one past it leave the same state
    # as an operand outside every window
    assert run(SMALL_WINDOW_END - 3 * WORD) == run(SMALL_WINDOW_END)


@pytest.mark.parametrize("src", [DATA_AT + 0x100 - 3 * WORD, DATA_AT + 0x100],
                         ids=["ends-on-it", "starts-on-it"])
def test_a_read_that_meets_the_only_pending_word_at_its_edge_sees_it(solo, src):
    # one pending word is the whole write-back envelope: lo == hi
    _, device = solo
    poke_words(device, DATA_AT, [7])
    push_batch(device, [Copy(DATA_AT + 0x100, DATA_AT, 1),
                        Copy(DATA_AT + 0x200, src, 4), Fence(1)])
    device.step(100)
    assert read_status(device)[0] == 1
    assert 7 in vram_words(device, DATA_AT + 0x200, 4)
    assert vram_words(device, DATA_AT + 0x200, 4) == vram_words(device, src, 4)


# 128-word rings across a device page end, one in VRAM and one in the
# aperture, and 64 words of small values at DATA_AT: copied into the ring
# they decode as short instructions
FETCH_RING_WORDS = 128
FETCH_RINGS = (RING_AT + PAGE_SIZE - 64 * WORD, APERTURE_BASE + PAGE_SIZE - 64 * WORD)
FETCH_DATA_WORDS = 64
FETCH_BUDGET = 1024


@st.composite
def _ring_program(draw):
    """An encoded batch queued from a random ring position, whose
    COPY/COMPUTE operands and status page may lie on its own words."""
    ring = draw(st.sampled_from(FETCH_RINGS))
    start = draw(st.integers(0, FETCH_RING_WORDS - 1))

    def in_ring(n_words):
        # mostly on the batch's own words, which follow ``start``
        index = (start + draw(st.integers(0, 48))) % FETCH_RING_WORDS
        return ring + min(index, FETCH_RING_WORDS - n_words) * WORD

    def operand(n_words):
        if draw(st.booleans()):
            return in_ring(n_words)
        return DATA_AT + draw(st.integers(0, FETCH_DATA_WORDS - n_words)) * WORD

    instrs = []
    for kind in draw(st.lists(st.sampled_from(("nop", "set_reg", "copy", "copy",
                                               "compute", "fence")),
                              min_size=1, max_size=12)):
        count = draw(st.integers(0, 8))
        if kind == "nop":
            instrs.append(Nop())
        elif kind == "set_reg":
            instrs.append(SetReg(draw(st.sampled_from(SCRATCH_REGISTERS)),
                                 draw(st.integers(0, 8))))
        elif kind == "fence":
            instrs.append(Fence(draw(st.integers(0, 8)), draw(st.integers(0, 1))))
        elif kind == "copy":
            instrs.append(Copy(operand(count), operand(count), count))
        else:
            sub = draw(st.sampled_from((CO_ADD, CO_MUL, CO_DOT)))
            instrs.append(Compute(sub, operand(1 if sub == CO_DOT else count),
                                  operand(count), operand(count), count))
    status = STATUS_AT if draw(st.booleans()) else in_ring(4)
    return ring, status, start, simdev.encode_batch(instrs)


_fetch_data = st.lists(st.integers(0, 8), min_size=FETCH_DATA_WORDS,
                       max_size=FETCH_DATA_WORDS)


def _run_ring(cls, program, data, budget):
    """Queue ``program`` on an aliased ``cls`` device and spend
    FETCH_BUDGET cycles on it, ``budget`` cycles a call."""
    ring, status, start, words = program
    platform, device = aliased_device(vram=128 << 10, cls=cls)
    device.mmio_write(REG_RB_BASE, ring)
    device.mmio_write(REG_RB_SIZE, FETCH_RING_WORDS)
    device.mmio_write(REG_IH_PAGE_ADDR, status)
    device.mmio_write(REG_RB_HEAD, start * WORD)
    device.mmio_write(REG_RB_TAIL, start * WORD)
    poke_words(device, DATA_AT, data)
    queue(platform, device, words)
    for _ in range(FETCH_BUDGET // budget):
        if device.cp_idle:
            break
        device.step(budget)
    return platform, device


def _assert_same_ring_state(status, run_a, run_b):
    (platform_a, a), (platform_b, b) = run_a, run_b
    # the cheap comparisons come first, so that while a failure shrinks,
    # only examples that pass them pay for hashing VRAM
    assert a.mmio_read(REG_RB_HEAD) == b.mmio_read(REG_RB_HEAD)
    assert (device_words(platform_a, a, status, 4)
            == device_words(platform_b, b, status, 4))
    assert list(a.cache.pending.items()) == list(b.cache.pending.items())
    assert bytes(a.vram) == bytes(b.vram)
    assert bytes(platform_a.sysmem.data) == bytes(platform_b.sysmem.data)
    assert a.device_digest() == b.device_digest()


@settings(max_examples=60, deadline=None)
@given(_ring_program(), _fetch_data)
def test_step_budget_does_not_change_what_runs(program, data):
    # the same FETCH_BUDGET cycles, in one call or one cycle per call; a
    # call of one cycle fetches at most one instruction, so it reads every
    # instruction afresh
    _assert_same_ring_state(program[1], _run_ring(SimDevice, program, data, FETCH_BUDGET),
                            _run_ring(SimDevice, program, data, 1))


@settings(max_examples=40, deadline=None)
@given(_ring_program(), _fetch_data, st.sampled_from((1, 7, FETCH_BUDGET)))
def test_ring_programs_run_as_on_the_reference_interpreter(program, data, budget):
    """Self-modifying rings, a status page inside the ring and instructions
    across page and ring ends run as when every operand goes through
    ``_decode_run``; both devices fetch through ``_fetch``."""
    run = _run_ring(SimDevice, program, data, budget)
    ref = _run_ring(DecodeRunDevice, program, data, budget)
    _assert_same_ring_state(program[1], run, ref)
    assert run[1]._window == ref[1]._window
    assert list(run[1].iommu.tlb.items()) == list(ref[1].iommu.tlb.items())


# --- DOT runs ------------------------------------------------------------------
#
# A DOT fetched afresh runs together with the DOTs after it in the fetch
# window; the result must be what running them one at a time gives.  The
# rings hold 256 words across a page end, in VRAM and in the aperture, and
# the device-local window ends at DOT_WINDOW_END, inside the modelled VRAM.

DOT_RING_WORDS = 256
DOT_RINGS = (RING_AT + PAGE_SIZE - 128 * WORD, APERTURE_BASE + PAGE_SIZE - 128 * WORD)
DOT_WINDOW_END = DATA_AT + 0x4000
DOT_BUDGETS = (1024, 13, 7, 5, 1)  # Hypothesis draws the first most often


@st.composite
def _dot_runs(draw):
    """1-3 runs of 1-10 DOTs with consecutive targets, where about one DOT
    in four carries a hazard that must end a run: a count of 0, an operand
    on the run's earlier targets, on the ring's words, in the aperture or
    past the device-local window's end, or a target out of line.  A third
    of the runs target the ring's words, a later DOT's among them, and a
    FENCE may follow a run.  About half of the runs draw their operands
    from a pool of 2-3 addresses, so that one operand run recurs, with
    the same count or another, within a run and across runs."""
    ring = draw(st.sampled_from(DOT_RINGS))
    start = draw(st.integers(0, DOT_RING_WORDS - 1))
    instrs = []
    at = start  # ring word index of the next instruction

    def in_ring(ahead):
        return ring + (at + ahead) % DOT_RING_WORDS * WORD

    def data(count):
        if pool:
            return DATA_AT + draw(st.sampled_from(pool)) * WORD
        return DATA_AT + draw(st.integers(0, FETCH_DATA_WORDS - count)) * WORD

    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 10))
        # each address leaves room for the largest count, 8
        pool = draw(st.lists(st.integers(0, FETCH_DATA_WORDS - 8), min_size=2, max_size=3)
                    if draw(st.booleans()) else st.just(None))
        if draw(st.integers(0, 2)):  # on the operand data, or past it
            first = DATA_AT + draw(st.integers(0, 2 * FETCH_DATA_WORDS)) * WORD
        else:  # on this run's own words, or past them
            first = in_ring(draw(st.integers(0, 6 * n + 4)))
        dst = first
        for j in range(n):
            count = draw(st.integers(1, 8))
            srcs = [data(count), data(count)]
            if draw(st.integers(0, 3)) == 0:
                hazard = draw(st.sampled_from(("count-0", "earlier", "ring", "aperture",
                                               "past-end", "out-of-line")))
                k = draw(st.integers(0, 1))
                if hazard == "count-0":
                    count = 0
                elif hazard == "earlier":
                    srcs[k] = first + draw(st.integers(-count, j)) * WORD
                elif hazard == "ring":
                    srcs[k] = in_ring(draw(st.integers(0, 6 * (n - j))))
                elif hazard == "aperture":
                    srcs[k] = APERTURE_BASE + draw(
                        st.integers(0, 2 * PAGE_SIZE // WORD - count)) * WORD
                elif hazard == "past-end":
                    srcs[k] = DOT_WINDOW_END - draw(st.integers(0, count)) * WORD
                else:
                    dst += draw(st.sampled_from((-WORD, WORD, 2 * WORD)))
            instrs.append(Compute(CO_DOT, dst, srcs[0], srcs[1], count))
            at += 6
            dst += WORD
        if draw(st.booleans()):
            instrs.append(Fence(draw(st.integers(0, 8)), draw(st.integers(0, 1))))
            at += 4
    return ring, STATUS_AT, start, simdev.encode_batch(instrs)


_dot_data = st.lists(st.integers(0, MASK32), min_size=FETCH_DATA_WORDS,
                     max_size=FETCH_DATA_WORDS)


def _run_dots(cls, program, data, budget, cycles=FETCH_BUDGET):
    """Queue ``program`` on an aliased ``cls`` device and run it
    ``budget`` cycles a call until it is idle or has spent ``cycles``; also
    the cycles of each call.  Only a call that leaves the device idle
    spends less than it is given, so any budget spends the same cycles."""
    ring, _, start, words = program
    platform, device = aliased_device(vram=128 << 10, cls=cls)
    device.mmio_write(REG_RB_BASE, ring)
    device.mmio_write(REG_RB_SIZE, DOT_RING_WORDS)
    device.mmio_write(REG_RB_HEAD, start * WORD)
    device.mmio_write(REG_RB_TAIL, start * WORD)
    poke_words(device, DATA_AT, data)
    queue(platform, device, words)
    used = []
    left = cycles
    while not device.cp_idle and left:
        used.append(device.step(min(budget, left)).cycles_used)
        left -= used[-1]
    return platform, device, used


@settings(max_examples=150, deadline=None)
@given(_dot_runs(), _dot_data, st.sampled_from(DOT_BUDGETS))
def test_dot_runs_run_as_on_the_reference_interpreter(program, data, budget):
    with mock.patch.object(simdev, "VRAM_WINDOW_END", DOT_WINDOW_END):
        *run, used = _run_dots(SimDevice, program, data, budget)
        *ref, ref_used = _run_dots(DecodeRunDevice, program, data, budget)
        *one, _ = _run_dots(SimDevice, program, data, 1)
    assert used == ref_used
    _assert_same_ring_state(program[1], run, ref)
    assert run[1]._window == ref[1]._window
    assert run[1].cache.size == ref[1].cache.size
    assert list(run[1].iommu.tlb.items()) == list(ref[1].iommu.tlb.items())
    _assert_same_ring_state(program[1], run, one)
    assert run[1].cache.size == one[1].cache.size


def _dot_case(instrs, budget=1000, data=range(1, FETCH_DATA_WORDS + 1),
              ring=RING_AT, limit=None):
    """Run ``instrs`` from the start of a 256-word ring on a device and on
    the reference interpreter, one ``budget`` call, and check that both end
    in the same state; the device."""
    program = (ring, STATUS_AT, 0, simdev.encode_batch(instrs))
    runs = []
    for cls in (SimDevice, DecodeRunDevice):
        with mock.patch.object(simdev, "VRAM_WINDOW_END", DOT_WINDOW_END):
            platform, device = aliased_device(vram=128 << 10, cls=cls)
            if limit is not None:
                device.mmio_write(REG_MC_SEG_LIMIT, limit)
            device.mmio_write(REG_RB_BASE, ring)
            device.mmio_write(REG_RB_SIZE, DOT_RING_WORDS)
            poke_words(device, DATA_AT, list(data))
            queue(platform, device, program[3])
            used = device.step(budget).cycles_used
        runs.append((platform, device, used))
    (platform, device, used), (ref_platform, ref, ref_used) = runs
    assert used == ref_used
    _assert_same_ring_state(STATUS_AT, (platform, device), (ref_platform, ref))
    assert device._window == ref._window
    assert device.cache.size == ref.cache.size
    return device


def _dots(n, dst, src1=DATA_AT, src2=DATA_AT + 0x40, count=4):
    return [Compute(CO_DOT, dst + j * WORD, src1, src2, count) for j in range(n)]


DOT_OUT = DATA_AT + 0x200
DOT_LIMIT = DATA_AT + 0x1000  # a segment limit below the window's end


def test_a_dot_run_stops_at_an_instruction_that_is_no_dot():
    # a MUL, an ADD and a count-0 DOT, each on the next target in line
    device = _dot_case(_dots(2, DOT_OUT) + [
        Compute(CO_MUL, DOT_OUT + 2 * WORD, DATA_AT, DATA_AT + 0x40, 2),
        *_dots(2, DOT_OUT + 4 * WORD),
        Compute(CO_ADD, DOT_OUT + 6 * WORD, DATA_AT, DATA_AT + 0x40, 2),
        *_dots(2, DOT_OUT + 8 * WORD),
        Compute(CO_DOT, DOT_OUT + 10 * WORD, DATA_AT, DATA_AT + 0x40, 0),
        Fence(1)])
    assert read_status(device)[0] == 1


def test_a_dot_run_stops_at_a_target_out_of_line():
    device = _dot_case(_dots(2, DOT_OUT) + _dots(2, DOT_OUT + 3 * WORD) + [Fence(1)])
    dot = sum(x * y for x, y in zip(range(1, 5), range(17, 21)))
    assert vram_words(device, DOT_OUT, 5) == [dot, dot, 0, dot, dot]


def test_a_dot_run_stops_at_the_first_dot_the_budget_cannot_pay_for():
    # 9 cycles each: the second of the three stays in flight after 13
    device = _dot_case(_dots(3, DOT_OUT, count=8), budget=13)
    assert device.mmio_read(REG_RB_HEAD) == 6 * WORD
    assert device._inflight[2] == 5


@pytest.mark.parametrize("make", [
    lambda: _dots(2, DOT_OUT) + _dots(1, DOT_OUT + 2 * WORD, src2=APERTURE_BASE),
    lambda: _dots(2, DOT_OUT) + _dots(1, DOT_OUT + 2 * WORD, src1=DOT_WINDOW_END - 2 * WORD),
    lambda: _dots(2, DOT_OUT) + _dots(1, DOT_OUT + 2 * WORD, src2=DATA_AT + 2),
    lambda: _dots(3, DOT_WINDOW_END - 2 * WORD),
    lambda: _dots(3, DOT_LIMIT - 2 * WORD),
], ids=["aperture-src", "src-past-window-end", "unaligned-src",
        "dst-past-window-end", "dst-past-segment"])
def test_a_dot_run_stops_at_an_operand_that_is_not_device_local(make):
    _dot_case(make() + _dots(2, DATA_AT + 0x300) + [Fence(1)], limit=DOT_LIMIT)


@pytest.mark.parametrize("src", [DOT_OUT + WORD, DOT_OUT - 3 * WORD],
                         ids=["on-an-earlier-target", "ends-on-the-first-target"])
def test_a_dot_run_stops_at_an_operand_on_its_earlier_targets(src):
    device = _dot_case(_dots(2, DOT_OUT) + _dots(2, DOT_OUT + 2 * WORD, src1=src)
                       + [Fence(1)])
    assert read_status(device)[0] == 1


def test_a_dot_run_stops_at_a_target_on_the_fetch_window():
    # the first DOT writes over the opcode word of the third, the second
    # over its sub-op: both become NOPs
    third = RING_AT + 12 * WORD
    device = _dot_case(_dots(2, third, src1=DATA_AT + 0x80) + _dots(4, DOT_OUT)
                       + [Fence(1)], data=[0] * 32 + list(range(32)))
    assert device.cache.read(0, third, 2) == [0, 0]  # pending: the fault drained nothing
    assert read_status(device)[2] & FAULT_FLAGS == FLAG_CMD_FAULT


def test_a_run_of_64_dots_in_one_window_is_one_fetch(solo):
    _, device = solo
    xs = [(0x9E3779B9 * i) & MASK32 for i in range(64)]
    poke_words(device, DATA_AT, xs)
    push_batch(device, [Compute(CO_DOT, DOT_OUT + j * WORD, DATA_AT + j * WORD,
                                DATA_AT + 0x40, 8) for j in range(64)])
    with mock.patch.object(device, "_fetch", wraps=device._fetch) as fetch:
        assert device.step(10_000).cycles_used == 64 * 9
    assert fetch.call_count == 1
    assert device.cp_idle
    assert [word for _, word in device.cache.pending.items()] == [
        sum(x * y for x, y in zip(xs[j:j + 8], xs[16:24])) & MASK32 for j in range(64)]


def test_a_matmul_shaped_dot_run_reads_as_on_the_reference_interpreter():
    # C = A B for 4x4 matrices as one run of 16 DOTs: row i of A is src1
    # of the four DOTs of row i of C, column j of B (stored transposed)
    # src2 of one DOT in every row
    a, bt = DATA_AT, DATA_AT + 0x40
    data = [(0x9E3779B9 * (i + 1)) & MASK32 for i in range(32)]
    device = _dot_case([Compute(CO_DOT, DOT_OUT + (4 * i + j) * WORD, a + 16 * i,
                                bt + 16 * j, 4) for i in range(4) for j in range(4)]
                       + [Fence(1)], data=data)
    assert device.mmio_read(REG_RB_HEAD) == 16 * 6 * WORD + 4 * WORD
    rows = [data[4 * i:4 * i + 4] for i in range(4)]
    cols = [data[16 + 4 * j:20 + 4 * j] for j in range(4)]
    assert vram_words(device, DOT_OUT, 16) == [
        sum(x * y for x, y in zip(row, col)) & MASK32 for row in rows for col in cols]


def test_a_dot_run_reads_one_address_with_two_counts():
    counts = (4, 2, 4, 8, 1, 8, 2)
    device = _dot_case([Compute(CO_DOT, DOT_OUT + k * WORD, DATA_AT, DATA_AT + 0x40, count)
                        for k, count in enumerate(counts)] + [Fence(1)])
    assert vram_words(device, DOT_OUT, len(counts)) == [
        sum(x * y for x, y in zip(range(1, count + 1), range(17, 17 + count)))
        for count in counts]


def test_a_dot_run_reads_what_an_earlier_run_wrote_over_its_operands():
    # the first run reads DATA_AT, the second writes over it, and the
    # third reads it again with the same count
    device = _dot_case(_dots(2, DOT_OUT) + _dots(4, DATA_AT, DATA_AT + 0x80, DATA_AT + 0xC0)
                       + _dots(2, DOT_OUT + 0x40) + [Fence(1)])
    dot = sum(x * y for x, y in zip(vram_words(device, DATA_AT, 4), range(17, 21))) & MASK32
    assert vram_words(device, DOT_OUT + 0x40, 2) == [dot, dot]


def test_a_dot_run_keeps_no_more_operand_words_than_its_bound():
    # 120 DOTs whose 240 operand runs are all distinct and 1,024 words
    # long: kept whole they would hold 240 * 1,024 words at once, about
    # 10 MiB of word objects, and the run may keep DOT_MEMO_WORDS of them
    n, count, out = 120, 1024, DATA_AT - 0x1000
    rng = random.Random(26)
    data = [rng.getrandbits(32) for _ in range(2 * n + count)]
    instrs = [Compute(CO_DOT, out + j * WORD, DATA_AT + j * WORD,
                      DATA_AT + (n + j) * WORD, count) for j in range(n)] + [Fence(1)]
    devices = []
    for cls in (SimDevice, DecodeRunDevice):
        device = boot_solo(cls(make_platform().sysmem, vram_size=2 << 20))
        poke_words(device, DATA_AT, data)
        push_batch(device, instrs)
        tracemalloc.start()
        try:
            device.step(n * (count + 1) + 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        devices.append((device, peak))
    (device, peak), (ref, _) = devices
    assert device.cp_idle and read_status(device)[0] == 1
    assert vram_words(device, out, n) == vram_words(ref, out, n)
    assert list(device.cache.pending.items()) == list(ref.cache.pending.items())
    assert device.device_digest() == ref.device_digest()
    # the bound's words and the two operand runs in hand, at up to 96
    # bytes a word: an int object and its tuple slot take 40
    assert peak < (DOT_MEMO_WORDS + 2 * count) * 96


def test_a_dot_fetched_without_a_fetch_window_runs_on_its_own():
    # the segment ends 16 words into the ring, so reading the window
    # faults and every DOT is fetched a word at a time; the third DOT's
    # last two words lie past the segment, so its fetch faults
    device = _dot_case(_dots(4, 0x3000, src1=RING_AT, src2=RING_AT + 4 * WORD),
                       limit=RING_AT + 16 * WORD)
    assert device._window is None
    assert read_status(device)[2] & FAULT_FLAGS == FLAG_MC_FAULT
    ring = vram_words(device, RING_AT, 8)
    dot = sum(x * y for x, y in zip(ring[:4], ring[4:8])) & MASK32
    assert device.cache.read(0, 0x3000, 3) == [dot, dot, 0]  # pending: no drain


# --- inline device-local operand decode -------------------------------------

DIFF_VRAM_WORDS = 2048   # the largest device memory drawn
DIFF_FRAMES = 4          # system memory; the aperture maps its pages 0-2
DIFF_PATTERN = bytes(range(251)) * 200  # 251 is prime: no two words repeat
# a 16-word ring on aperture page 4, in system frame 0, which no operand
# run reaches: aperture page 3 is unmapped
DIFF_RING = APERTURE_BASE + 4 * PAGE_SIZE
DIFF_RING_WORDS = 16
# the other operands: aperture pages 0 and 1, both writable
DIFF_SINK = APERTURE_BASE
DIFF_SOURCE = APERTURE_BASE + PAGE_SIZE
DIFF_BUDGET = 1000


@st.composite
def _run_program(draw):
    """Device-local memory, an MC segment, pending cache runs and a few
    operand runs, each for a COPY or a COMPUTE sub-op.  Most runs start or
    end at an edge: the segment limit, the end of device memory, the end of
    the device-local window, or either end of a pending run."""
    vram_words = draw(st.sampled_from((DIFF_VRAM_WORDS,
                                       draw(st.integers(0, DIFF_VRAM_WORDS)))))
    base = draw(st.sampled_from((0, 2, draw(st.integers(0, vram_words)) * WORD)))
    limit = draw(st.sampled_from((vram_words * WORD, vram_words * WORD + WORD, base,
                                  base + draw(st.integers(0, DIFF_VRAM_WORDS)) * WORD
                                  + draw(st.sampled_from((0, 1, 3))))))
    window_end = draw(st.sampled_from((VRAM_WINDOW_END, 1 << 11, 1 << 12)))
    # system memory past frame 0, which holds the ring
    first_words = (0, PAGE_SIZE // WORD)
    backing_words = (vram_words, DIFF_FRAMES * PAGE_SIZE // WORD)
    pending = []
    for space in draw(st.lists(st.sampled_from((0, 0, 1)), max_size=4)):
        n = draw(st.integers(1, 400))
        if first_words[space] + n <= backing_words[space]:
            pending.append((space, draw(st.integers(first_words[space],
                                                    backing_words[space] - n)) * WORD, n))
    # edges as device-local addresses, which the segment base offsets
    edges = [limit - base, vram_words * WORD - base, window_end]
    edges += [addr - base + k * n * WORD for _, addr, n in pending for k in (0, 1)]
    ops = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 40))
        kind = draw(st.sampled_from(("ends", "ends", "starts", "anywhere",
                                     "unaligned", "aperture")))
        if kind == "ends":
            da = draw(st.sampled_from(edges)) - n * WORD
        elif kind == "starts":
            da = draw(st.sampled_from(edges))
        elif kind == "unaligned":
            da = draw(st.integers(0, vram_words)) * WORD + draw(st.integers(1, 3))
        elif kind == "aperture":
            da = APERTURE_BASE + draw(st.integers(0, 3 * PAGE_SIZE // WORD - 1)) * WORD
        else:
            da = draw(st.integers(0, vram_words)) * WORD
        ops.append((da, n, draw(st.sampled_from((None, CO_ADD, CO_MUL, CO_DOT)))))
    return vram_words, base, limit, window_end, pending, ops


def _run_device(cls, vram_words, base, limit, pending):
    platform = make_platform(frames=DIFF_FRAMES)
    device = cls(platform.sysmem, vram_size=vram_words * WORD)
    device.vram[:] = DIFF_PATTERN[:len(device.vram)]
    platform.sysmem.data[:] = DIFF_PATTERN[7:7 + len(platform.sysmem.data)]
    simdev.install_firmware(device)
    device.regs[REG_MC_SEG_BASE] = base
    device.regs[REG_MC_SEG_LIMIT] = limit
    table = PageTable()
    for page in range(3):  # the last one read-only
        table.map(page * PAGE_SIZE, DIFF_FRAMES - 1 - page, writable=page < 2)
    table.map(DIFF_RING - APERTURE_BASE, 0)
    device.translation_tables[1] = table
    device.mmio_write(REG_IOMMU_ROOT, 1)
    device.mmio_write(REG_RB_BASE, DIFF_RING)
    device.mmio_write(REG_RB_SIZE, DIFF_RING_WORDS)
    for space, addr, n in pending:
        device.cache.put_run(space, addr, [addr + i for i in range(n)])
    return platform, device


def _run_alone(platform, device, instr):
    """Queue ``instr`` at RB_TAIL in the ring in frame 0 and run it."""
    tail = device.mmio_read(REG_RB_TAIL) // WORD
    words = instr.encode()
    for i, word in enumerate(words):
        addr = (tail + i) % DIFF_RING_WORDS * WORD
        platform.sysmem.data[addr:addr + WORD] = pack([word])
    device.mmio_write(REG_RB_TAIL, (tail + len(words)) % DIFF_RING_WORDS * WORD)
    device.step(DIFF_BUDGET)


def _operand_uses(da, n, sub):
    """Instructions with the run at ``da`` as each operand of a COPY, or of
    a COMPUTE ``sub``; a DOT writes one word at ``da``."""
    if sub is None:
        return [Copy(DIFF_SINK, da, n), Copy(da, DIFF_SOURCE, n)]
    return [Compute(sub, DIFF_SINK, da, DIFF_SOURCE, n),
            Compute(sub, DIFF_SINK, DIFF_SOURCE, da, n),
            Compute(sub, da, DIFF_SOURCE, DIFF_SOURCE, n)]


@settings(max_examples=200, deadline=None)
@given(_run_program())
def test_inline_device_local_runs_equal_decoding_every_run(program):
    """Each run, moved a word down, in place and a word up, is an operand
    of instructions run one at a time from an aperture ring."""
    vram_words, base, limit, window_end, pending, ops = program
    with mock.patch.object(simdev, "VRAM_WINDOW_END", window_end):
        platform, device = _run_device(SimDevice, vram_words, base, limit, pending)
        ref_platform, ref = _run_device(DecodeRunDevice, vram_words, base,
                                        limit, pending)
        for (da, n, sub), near in itertools.product(ops, (-WORD, 0, WORD)):
            for instr in _operand_uses(max(0, da + near), n, sub):
                _run_alone(platform, device, instr)
                _run_alone(ref_platform, ref, instr)
                assert device._status == ref._status
                assert device.regs == ref.regs
                assert list(device.cache._runs) == list(ref.cache._runs)
                assert device.cache.size == ref.cache.size
                assert (device.cache.lo, device.cache.hi) == (ref.cache.lo, ref.cache.hi)
                assert device._window == ref._window
                assert list(device.iommu.tlb.items()) == list(ref.iommu.tlb.items())
                assert bytes(device.vram) == bytes(ref.vram)
                assert bytes(platform.sysmem.data) == bytes(ref_platform.sysmem.data)


# --- scanout -----------------------------------------------------------------

def _enable_mode(device, width=64, height=48):
    device.mmio_write(simdev.REG_DISP_PLL, 1)
    device.mmio_write(REG_DISP_TIMING_H, width)
    device.mmio_write(REG_DISP_TIMING_V, height)
    device.mmio_write(REG_DISP_ENABLE, 1)


def test_scanout_requires_mode(solo):
    _, device = solo
    with pytest.raises(InvalError):
        device.scanout()


def test_scanout_zero_framebuffer_digest(solo):
    _, device = solo
    _enable_mode(device)
    device.mmio_write(REG_FB_BASE, DATA_AT)
    shot = device.scanout()
    assert not shot.faulted
    assert shot.digest == fnv1a64(bytes(64 * 48 * WORD))


def test_scanout_pattern_digest_matches_host(solo):
    _, device = solo
    _enable_mode(device)
    device.mmio_write(REG_FB_BASE, DATA_AT)
    pattern = [(x + y * 64) & MASK32 for y in range(48) for x in range(64)]
    poke_words(device, DATA_AT, pattern)
    shot = device.scanout()
    assert shot.digest == fnv1a64(pack(pattern))


def test_scanout_outside_segment_faults_without_reading(solo):
    _, device = solo
    device.mmio_write(REG_MC_SEG_LIMIT, 0x10_0000)
    _enable_mode(device)
    device.mmio_write(REG_FB_BASE, 0x10_0000 - PAGE_SIZE)  # frame spans past
    shot = device.scanout()
    assert shot.faulted
    assert shot.frame == bytes(64 * 48 * WORD)
    assert shot.digest == fnv1a64(shot.frame)
    assert device.pending_flags & FLAG_MC_FAULT


# a 32 x 32 frame (one page) at DATA_AT in VRAM, or at the middle of
# aperture page 0 of an aliased_device, so that its second half is on page 1
@pytest.mark.parametrize("fb_base", [DATA_AT, APERTURE_BASE + PAGE_SIZE // 2],
                         ids=["vram", "aperture-across-a-page"])
def test_scanout_frame_is_the_bytes_its_digest_hashes(fb_base):
    platform, device = aliased_device()
    _enable_mode(device, 32, 32)
    device.mmio_write(REG_FB_BASE, fb_base)
    pattern = [(i * 2654435761 + 7) & MASK32 for i in range(32 * 32)]
    want = pack(pattern)
    half = PAGE_SIZE // 2
    for off in range(0, len(want), half):  # one page's part at a time
        data, addr = alias_loc(platform, device, fb_base + off)
        data[addr:addr + half] = want[off:off + half]
    shot = device.scanout()
    assert not shot.faulted
    assert shot.frame == want
    assert shot.digest == fnv1a64(shot.frame)


# --- digests and determinism -------------------------------------------------

def test_device_digest_deterministic_and_sensitive():
    def run(mutate):
        platform = make_platform()
        device = boot_solo(make_device(platform))
        poke_words(device, DATA_AT, [3, 4] if not mutate else [3, 5])
        push_batch(device, [Compute(CO_MUL, DATA_AT + 0x100, DATA_AT,
                                    DATA_AT, 2), Fence(1)])
        device.step(100)
        return device.device_digest()

    assert run(False) == run(False)
    assert run(False) != run(True)


# --- randomized robustness ---------------------------------------------------

_instr = st.one_of(
    st.just(Nop()),
    st.builds(SetReg, st.sampled_from(sorted(SCRATCH_REGISTERS)),
              st.integers(0, MASK32)),
    st.builds(SetReg, st.sampled_from(sorted(S_REGISTERS)),
              st.integers(0, MASK32)),
    st.builds(Compute, st.integers(0, 3),  # 3 is no sub-op: a command fault
              st.integers(0, 1 << 31), st.integers(0, 1 << 31),
              st.integers(0, 1 << 31), st.integers(0, 2000)),
    st.builds(Copy, st.integers(0, 1 << 31), st.integers(0, 1 << 31),
              st.integers(0, 2000)),
    st.builds(Fence, st.integers(0, 1 << 40)),
)


def _registers_step_keeps(device):
    """Every register but RB_HEAD and the scratch registers: what
    ``SimDevice.step`` reads once a call relies on no instruction writing
    them."""
    return {reg: device.mmio_read(reg) for reg in simdev.ALL_REGISTERS
            if reg != REG_RB_HEAD and reg not in SCRATCH_REGISTERS}


@settings(max_examples=40, deadline=None)
@given(st.lists(_instr, min_size=1, max_size=12))
def test_random_batches_never_touch_privileged_registers(batch):
    platform = make_platform()
    device = boot_solo(make_device(platform))
    s_before = {reg: device.mmio_read(reg) for reg in S_REGISTERS}
    try:
        push_batch(device, batch)
    except Exception:
        return  # batch too large for the ring; nothing ran
    kept = _registers_step_keeps(device)
    device.step(1_000_000)
    assert {reg: device.mmio_read(reg) for reg in S_REGISTERS} == s_before
    assert _registers_step_keeps(device) == kept
    # the CP always ends parked: batch done or faulted with head == tail
    assert device.mmio_read(REG_RB_HEAD) == device.mmio_read(REG_RB_TAIL)


@st.composite
def _data_instr(draw):
    """COMPUTE, COPY, NOP, SET_REG or FENCE over the two aliased regions;
    some counts exceed what the write-back cache holds."""
    kind = draw(st.sampled_from(("add", "mul", "dot", "copy", "copy",
                                 "nop", "set_reg", "fence")))
    if kind == "nop":
        return Nop()
    if kind == "set_reg":
        return SetReg(draw(st.sampled_from(SCRATCH_REGISTERS)),
                      draw(st.integers(0, MASK32)))
    if kind == "fence":
        return Fence(draw(st.integers(1, 1000)))
    count = draw(st.one_of(st.integers(0, 40), st.integers(0, 1100)))

    def operand(n_words):
        base = draw(st.sampled_from((DATA_AT, APERTURE_BASE)))
        return base + draw(st.integers(0, ALIAS_WORDS - n_words)) * WORD

    if kind == "copy":
        return Copy(operand(count), operand(count), count)
    sub = {"add": CO_ADD, "mul": CO_MUL, "dot": CO_DOT}[kind]
    dst = operand(1 if sub == CO_DOT else count)
    return Compute(sub, dst, operand(count), operand(count), count)


def interpret(memory, scratch, instrs):
    """Host model of the instruction set: ``memory`` maps device word
    addresses to words, and every write lands at once.  NOP and FENCE
    change no memory."""
    for instr in instrs:
        kind = type(instr)
        if kind is SetReg:
            scratch[instr.reg] = instr.value
        elif kind is Copy:
            words = [memory[instr.src + i * WORD] for i in range(instr.count)]
            for i, word in enumerate(words):
                memory[instr.dst + i * WORD] = word
        elif kind is Compute:
            a = [memory[instr.src1 + i * WORD] for i in range(instr.count)]
            b = [memory[instr.src2 + i * WORD] for i in range(instr.count)]
            if instr.sub == CO_ADD:
                out = [(x + y) & MASK32 for x, y in zip(a, b)]
            elif instr.sub == CO_MUL:
                out = [(x * y) & MASK32 for x, y in zip(a, b)]
            else:
                out = [sum(x * y for x, y in zip(a, b)) & MASK32]
            for i, word in enumerate(out):
                memory[instr.dst + i * WORD] = word


@settings(max_examples=100, deadline=None)
@given(st.lists(_data_instr(), min_size=1, max_size=10), st.integers(0, 2**32))
def test_device_memory_equals_the_host_model(batch, seed):
    platform, device = aliased_device()
    rng = random.Random(seed)
    vram = [rng.getrandbits(32) for _ in range(ALIAS_WORDS)]
    aperture = [rng.getrandbits(32) for _ in range(ALIAS_WORDS)]
    poke_words(device, DATA_AT, vram)
    page_words = PAGE_SIZE // WORD
    for page in (0, 1):
        addr = (ALIAS_FRAME + 1 - page) * PAGE_SIZE
        platform.sysmem.data[addr:addr + PAGE_SIZE] = pack(
            aperture[page * page_words:(page + 1) * page_words])
    memory = {DATA_AT + i * WORD: w for i, w in enumerate(vram)}
    memory.update({APERTURE_BASE + i * WORD: w for i, w in enumerate(aperture)})
    scratch = {reg: device.mmio_read(reg) for reg in SCRATCH_REGISTERS}

    push_batch(device, batch + [Fence(1 << 40)])
    device.step(1_000_000)
    interpret(memory, scratch, batch)

    seq, _, flags = read_status(device)
    assert (seq, flags & FAULT_FLAGS) == (1 << 40, 0)
    assert vram_words(device, DATA_AT, ALIAS_WORDS) == [
        memory[DATA_AT + i * WORD] for i in range(ALIAS_WORDS)]
    assert sys_words(platform, 0, page_words) + sys_words(platform, PAGE_SIZE, page_words) == [
        memory[APERTURE_BASE + i * WORD] for i in range(ALIAS_WORDS)]
    assert {reg: device.mmio_read(reg) for reg in SCRATCH_REGISTERS} == scratch


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, MASK32), min_size=1, max_size=64))
def test_garbage_streams_fault_cleanly(words):
    platform = make_platform()
    device = boot_solo(make_device(platform))
    s_before = {reg: device.mmio_read(reg) for reg in S_REGISTERS}
    poke_words(device, RING_AT, words)
    device.mmio_write(REG_RB_TAIL, (len(words) * WORD) % (RING_WORDS * WORD))
    kept = _registers_step_keeps(device)
    device.step(1_000_000)
    assert device.cp_idle
    assert {reg: device.mmio_read(reg) for reg in S_REGISTERS} == s_before
    assert _registers_step_keeps(device) == kept
