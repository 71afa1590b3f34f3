"""Device-level tests: register file, command processor, translation,
cache, firmware gate, scanout, and digests."""

import itertools
import random
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (DATA_AT, RING_AT, RING_WORDS, STATUS_AT, SW_PAGES, SW_RING_WORDS,
                      DecodeRunDevice, UnflushedRootIommu, assert_same_device,
                      boot_solo, make_device, make_platform, pack, pending,
                      poke_words, push_batch, read_status, swarm_examples,
                      unpack, vram_words)
from devmux import simdev
from devmux.errors import IommuFault, InvalError, OutOfMemory, RegFault
from devmux.simdev import (APERTURE_BASE, CACHE_WORDS, CO_ADD, CO_DOT, CO_MUL,
                           DOT_MEMO_WORDS, FAULT_FLAGS, FENCE_IRQ,
                           FLAG_CMD_FAULT, FLAG_FENCE, FLAG_IOMMU_FAULT,
                           FLAG_MC_FAULT, LANE_MAX_COUNT, LANES, MASK32,
                           OP_NOP, OP_SET_REG, PAGE_SIZE, REG_CACHE_FLUSH,
                           REG_CP_RESET, REG_DISP_ENABLE, REG_DISP_TIMING_H,
                           REG_DISP_TIMING_V, REG_FB_BASE, REG_IH_PAGE_ADDR,
                           REG_IOMMU_ENABLE, REG_IOMMU_ROOT, REG_IRQ_ENABLE,
                           REG_MC_SEG_BASE, REG_MC_SEG_LIMIT, REG_RB_BASE,
                           REG_RB_HEAD, REG_RB_SIZE, REG_RB_TAIL, REG_SCRATCH0,
                           S_REGISTERS, SCRATCH_REGISTERS, TLB_ENTRIES_DEFAULT,
                           VRAM_WINDOW_END, WORD, Compute, Copy, Fence,
                           IommuUnit, Nop, PageTable, SetReg, SimDevice,
                           WriteBackCache, fnv1a64, zeroed)


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


def test_bring_up_refuses_a_corrupted_firmware_image():
    device = make_device(make_platform())
    image = list(simdev.FIRMWARE_IMAGE)
    image[5] ^= 1
    with mock.patch.object(simdev, "FIRMWARE_IMAGE", tuple(image)):
        with pytest.raises(RegFault, match="firmware checksum rejected"):
            simdev.bring_up(device)
    assert device.mmio_read(simdev.REG_FW_CTRL) == 0
    assert device.mmio_read(REG_IRQ_ENABLE) == 0  # bring-up stopped there


def test_a_register_restore_refuses_an_s_class_register(solo):
    _, device = solo
    regs = dict(device.regs)
    for reg in (REG_MC_SEG_LIMIT, REG_IOMMU_ROOT, REG_CP_RESET):
        with pytest.raises(RegFault):
            device.restore_registers({reg: 0x1000})
    assert device.regs == regs


def test_a_firmware_write_past_the_store_is_refused(solo):
    _, device = solo
    firmware = list(device.firmware)
    device.mmio_write(simdev.REG_FW_ADDR, simdev.FW_SIZE)
    with pytest.raises(RegFault):
        device.mmio_write(simdev.REG_FW_DATA, 1)
    assert device.firmware == firmware
    assert device.mmio_read(simdev.REG_FW_ADDR) == simdev.FW_SIZE
    assert device.mmio_read(simdev.REG_FW_CTRL) == simdev.FW_CTRL_READY


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


VRAM_END_128K = 128 << 10


@pytest.mark.parametrize("instrs", [
    [Copy(DATA_AT, VRAM_END_128K - 2 * WORD, 4)],
    [Copy(VRAM_END_128K - 2 * WORD, DATA_AT, 4)],
    [Compute(CO_DOT, DATA_AT + 0x100 + j * WORD, DATA_AT, DATA_AT + 0x40, 4) for j in range(2)]
    + [Compute(CO_DOT, DATA_AT + 0x108, VRAM_END_128K - 2 * WORD, DATA_AT, 4)],
], ids=["copy-src", "copy-dst", "dot-run-src"])
def test_a_run_past_the_end_of_vram_faults_inside_a_wider_segment(instrs):
    # the segment's limit lies past the end of VRAM, so VRAM's own end
    # bounds the device-local runs
    runs = []
    for cls in (SimDevice, DecodeRunDevice):
        platform = make_platform()
        device = boot_solo(cls(platform.sysmem, vram_size=VRAM_END_128K))
        device.mmio_write(REG_MC_SEG_LIMIT, 2 * VRAM_END_128K)
        poke_words(device, DATA_AT, range(1, 33))
        push_batch(device, instrs + [Fence(1)])
        device.step(1000)
        assert read_status(device)[2] & FAULT_FLAGS == FLAG_MC_FAULT
        runs.append((platform, device))
    assert_same_device(*runs)


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
    assert list(pending(device.cache).items()) == [
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


# ADD reads each operand run as bytes, and a source it names twice once.
# The device must still end as the reference, which reads and translates
# every source through ``_decode_run``, leaves it: memory, pending words,
# status words, RB_HEAD and the order of the FIFO TLB.

def _full_tlb_device(cls):
    """An aliased_device whose 64-entry TLB holds aperture pages 0 and
    2-64, page 0 the oldest, so that the next miss evicts page 0."""
    platform, device = aliased_device(vram=128 << 10, cls=cls)
    pages = [0] + list(range(2, TLB_ENTRIES_DEFAULT + 1))
    for page in pages[1:]:
        device.translation_tables[1].map(page * PAGE_SIZE, 64 + page)
    for page in pages:
        device.iommu.translate(page * PAGE_SIZE, False)
    assert list(device.iommu.tlb) == pages
    return platform, device


def test_a_straddling_add_of_one_source_walks_its_pages_twice():
    src = APERTURE_BASE + PAGE_SIZE - 8 * WORD  # 8 words on page 0, 8 on page 1
    xs = list(range(0xFFFFFFF0, 1 << 32))
    runs = []
    for cls in (SimDevice, DecodeRunDevice):
        platform, device = _full_tlb_device(cls)
        poke_device_words(platform, device, src, xs)
        push_batch(device, [Compute(CO_ADD, DATA_AT, src, src, len(xs)), Fence(1)])
        device.step(100)
        assert read_status(device) == (1, 1, FLAG_FENCE)
        assert vram_words(device, DATA_AT, len(xs)) == [2 * x & MASK32 for x in xs]
        runs.append((platform, device))
    assert_same_device(*runs)
    # src1's page 1 evicts page 0; src2's page 0 comes back over page 2
    assert list(runs[0][1].iommu.tlb) == list(range(3, TLB_ENTRIES_DEFAULT + 1)) + [1, 0]


@pytest.mark.parametrize("src1, src2", [(APERTURE_BASE, APERTURE_BASE),
                                        (DATA_AT, APERTURE_BASE)],
                         ids=["one-source", "second-source"])
def test_an_add_with_translation_disabled_faults_and_writes_nothing(src1, src2):
    runs = []
    for cls in (SimDevice, DecodeRunDevice):
        platform, device = aliased_device(vram=128 << 10, cls=cls)
        device.mmio_write(REG_IOMMU_ENABLE, 0)
        poke_device_words(platform, device, DATA_AT, [5, 6, 7, 8])
        poke_device_words(platform, device, APERTURE_BASE, [1, 2, 3, 4])
        push_batch(device, [Compute(CO_ADD, DATA_AT + 0x100, src1, src2, 4), Fence(1)])
        vram, sysmem = bytes(device.vram), bytes(platform.sysmem.data)
        device.step(100)
        seq, irq, flags = read_status(device)
        assert (seq, irq, flags & FAULT_FLAGS) == (0, 1, FLAG_IOMMU_FAULT)
        assert device.mmio_read(REG_RB_HEAD) == device.mmio_read(REG_RB_TAIL)
        assert not pending(device.cache)
        after = bytes(device.vram)  # all but the status words
        assert after[:STATUS_AT] == vram[:STATUS_AT]
        assert after[STATUS_AT + 16:] == vram[STATUS_AT + 16:]
        assert bytes(platform.sysmem.data) == sysmem
        runs.append((platform, device))
    assert_same_device(*runs)


def test_an_add_reads_the_top_word_of_the_pending_envelope(solo):
    _, device = solo
    poke_words(device, DATA_AT, [1, 2, 3, 4])

    def w(i):
        return DATA_AT + i * WORD

    # words 4-7 become pending, and the second ADD's sources start on word
    # 7, the highest pending address, and run on past it
    push_batch(device, [Compute(CO_ADD, w(4), w(0), w(0), 4),    # 2 4 6 8
                        Compute(CO_ADD, w(10), w(7), w(7), 2),   # 16 0
                        Compute(CO_ADD, w(12), w(3), w(7), 2),   # 12 2
                        Fence(1)])
    device.step(100)
    assert vram_words(device, w(10), 4) == [16, 0, 12, 2]


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
    cache.put_run(0, 0, pack([1, 2, 3, 4]))
    cache.put_run(0, 0, pack([9]))      # an update, not a new word
    assert list(pending(cache).items()) == [((0, 0), 9), ((0, 4), 2),
                                           ((0, 8), 3), ((0, 12), 4)]
    cache.put_run(0, 16, pack([5]))     # evicts the updated word first
    assert list(pending(cache)) == [(0, 4), (0, 8), (0, 12), (0, 16)]
    assert backing_words(backings[0], 5) == [9, 101, 102, 103, 104]


def test_a_word_evicted_by_its_own_run_goes_back_in_at_the_tail():
    backings = cache_backings()
    cache = WriteBackCache(4, backings)
    cache.put_run(0, 4, pack([1, 2, 3, 4]))  # words 1..4 pending
    # word 0 evicts word 1, then word 1 (new again) evicts word 2
    cache.put_run(0, 0, pack([5, 6]))
    assert list(pending(cache).items()) == [((0, 12), 3), ((0, 16), 4),
                                           ((0, 0), 5), ((0, 4), 6)]
    # the backing holds the evicted values, not the re-inserted one
    assert backing_words(backings[0], 5) == [100, 1, 2, 103, 104]


def test_a_pending_word_updates_only_in_its_own_space():
    cache = WriteBackCache(4, cache_backings())
    cache.put_run(1, 4, pack([9]))
    cache.put_run(0, 0, pack([1]))      # VRAM word 0 is pending too
    cache.put_run(1, 0, pack([2, 3]))   # system words 0 (new) and 1 (pending)
    assert list(pending(cache).items()) == [((1, 4), 3), ((0, 0), 1),
                                           ((1, 0), 2)]
    cache.put_run(0, 32, pack([5]))     # a fourth word fits: nothing evicted
    assert list(pending(cache).items()) == [((1, 4), 3), ((0, 0), 1),
                                           ((1, 0), 2), ((0, 32), 5)]


def test_a_run_longer_than_the_cache_over_pending_words_is_one_put_per_word():
    backings = cache_backings()
    cache = WriteBackCache(4, backings)
    ref = FifoReference(4, cache_backings())
    runs = [(0, 8, [1, 2]), (1, 0, [3]),
            (0, 0, list(range(10, 20))),    # words 0..9, over words 2 and 3
            (0, 36, [7, 8])]                # starts at the envelope's top
    for space, addr, words in runs:
        cache.put_run(space, addr, pack(words))
        for i, word in enumerate(words):
            ref.put((space, addr + i * WORD), word)
        assert list(pending(cache).items()) == list(ref.pending.items())
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
    assert list(pending(device.cache).items()) == [
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
    after each op one read per space of up to 16 words from there.  One run
    in four starts where the last run ended, in the other space."""
    capacity = draw(st.integers(4, 8))
    ops = []
    reads = []
    kinds = st.sampled_from(("run", "run", "run", "drain", "drop"))
    read = st.tuples(st.integers(0, CACHE_SPREAD + 8), st.integers(1, 16))
    last_end = None  # (space, byte addr) past the last run, if that leaves room
    for kind in draw(st.lists(kinds, min_size=1, max_size=12)):
        space = draw(st.integers(0, 1))
        first = draw(st.integers(0, CACHE_SPREAD)) * WORD
        if kind == "run":
            if last_end and not draw(st.integers(0, 3)):
                space, first = 1 - last_end[0], last_end[1]
            n = draw(st.integers(1, 2 * capacity))
            end = first + n * WORD
            last_end = (space, end) if end <= (CACHE_BACKING_WORDS - 16) * WORD else None
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
            cache.put_run(space, addr, pack(words))
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
        assert list(pending(cache).items()) == list(ref.pending.items())
        assert cache.size == len(ref.pending)
        assert cache.backings == ref.backings
        for space, addr in pending(cache):
            assert cache.lo[space] <= addr <= cache.hi[space]
        for space, (first, n) in enumerate(per_space):
            backing = backing_words(ref.backings[space])
            want = [ref.pending.get((space, i * WORD), backing[i])
                    for i in range(first, first + n)]
            assert cache.read(space, first * WORD, n) == pack(want)


# Entry boundaries of the run-kept queue, each against the per-word FIFO.

def test_an_eviction_can_trim_the_front_entry_partway():
    backings = cache_backings()
    cache = WriteBackCache(4, backings)
    cache.put_run(0, 0, pack([1, 2, 3]))
    cache.put_run(1, 0, pack([4]))
    cache.put_run(0, 64, pack([5, 6]))  # evicts words 0 and 1 only
    assert list(pending(cache).items()) == [((0, 8), 3), ((1, 0), 4),
                                           ((0, 64), 5), ((0, 68), 6)]
    assert backing_words(backings[0], 3) == [1, 2, 102]
    cache.put_run(0, 8, pack([7]))      # the rest of the entry updates in place
    assert cache.read(0, 0, 3) == pack([1, 2, 7])
    cache.put_run(0, 72, pack([8]))     # and is the next to go
    assert backing_words(backings[0], 3) == [1, 2, 7]
    assert list(pending(cache)) == [(1, 0), (0, 64), (0, 68), (0, 72)]


def test_a_read_across_two_entries_and_a_gap_overlays_both():
    cache = WriteBackCache(8, cache_backings())
    cache.put_run(0, 4, pack([1, 2]))
    cache.put_run(0, 20, pack([5, 6]))
    cache.put_run(1, 12, pack([9]))     # the other space at the gap
    assert cache.read(0, 0, 8) == pack([100, 1, 2, 103, 104, 5, 6, 107])
    assert cache.read(0, 8, 4) == pack([2, 103, 104, 5])
    assert cache.read(0, 12, 2) == pack([103, 104])
    assert cache.read(1, 8, 3) == pack([102, 9, 104])


def test_a_run_that_continues_the_tail_in_the_other_space_starts_an_entry():
    backings = cache_backings()
    cache = WriteBackCache(3, backings)
    cache.put_run(0, 0, pack([1, 2]))
    cache.put_run(1, 8, pack([3]))      # system word 2, after VRAM word 1
    assert list(pending(cache).items()) == [((0, 0), 1), ((0, 4), 2),
                                           ((1, 8), 3)]
    assert cache.read(0, 8, 1) == pack([102])
    cache.put_run(0, 32, pack([4, 5]))  # evicts both VRAM words
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
    assert list(pending(device.cache).items()) == list(ref.pending.items())
    assert device.cache.read(0, dst, 12) == pack(
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
        assert not pending(device.cache)
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
        assert not pending(device.cache)
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


def test_a_fetch_window_that_starts_on_the_only_pending_word_sees_it(solo):
    # the COPY turns the SET_REG's opcode into a NOP, and its register and
    # value words (0, 0) are NOPs too; the window read afresh at that word
    # starts on the envelope's only pending word
    _, device = solo
    poke_words(device, DATA_AT, [OP_NOP])
    push_batch(device, [Copy(RING_AT + 4 * WORD, DATA_AT, 1), SetReg(0, 0)])
    device.step(100)
    assert device.cp_idle
    assert read_status(device)[2] & FAULT_FLAGS == 0
    assert device.cache.lo[0] == device.cache.hi[0] == RING_AT + 4 * WORD


# --- DOT runs ------------------------------------------------------------------
#
# A DOT fetched afresh runs together with the DOTs after it in the fetch
# window; the result must be what running them one at a time gives.  The
# ring holds 1,024 words, so that a lane stretch fits in one fetch window,
# and the device-local window ends at DOT_WINDOW_END, inside the modelled
# VRAM.

DOT_RING_WORDS = 1024
DOT_WINDOW_END = DATA_AT + 0x4000


def _dot_case(instrs, budget=1000, data=range(1, 65), limit=None, status=STATUS_AT):
    """Run ``instrs`` from the start of a ring of DOT_RING_WORDS words on a
    device and on the reference interpreter, one ``budget`` call, and check
    that both end in the same state; the device."""
    runs = []
    for cls in (SimDevice, DecodeRunDevice):
        with mock.patch.object(simdev, "VRAM_WINDOW_END", DOT_WINDOW_END):
            platform, device = aliased_device(vram=128 << 10, cls=cls)
            device.mmio_write(REG_IH_PAGE_ADDR, status)
            if limit is not None:
                device.mmio_write(REG_MC_SEG_LIMIT, limit)
            device.mmio_write(REG_RB_SIZE, DOT_RING_WORDS)
            poke_words(device, DATA_AT, list(data))
            queue(platform, device, simdev.encode_batch(instrs))
            runs.append((platform, device, device.step(budget).cycles_used))
    (platform, device, used), (ref_platform, ref, ref_used) = runs
    assert used == ref_used
    assert_same_device((platform, device), (ref_platform, ref))
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


# with DOT_LIMIT the segment ends inside the window; without, past it, so
# that the last two sources each cross one of the two ends only
@pytest.mark.parametrize("make, limit", [
    (lambda: _dots(2, DOT_OUT) + _dots(1, DOT_OUT + 2 * WORD, src2=APERTURE_BASE), DOT_LIMIT),
    (lambda: _dots(2, DOT_OUT) + _dots(1, DOT_OUT + 2 * WORD, src1=DOT_WINDOW_END - 2 * WORD),
     DOT_LIMIT),
    (lambda: _dots(2, DOT_OUT) + _dots(1, DOT_OUT + 2 * WORD, src2=DATA_AT + 2), DOT_LIMIT),
    (lambda: _dots(3, DOT_WINDOW_END - 2 * WORD), DOT_LIMIT),
    (lambda: _dots(3, DOT_LIMIT - 2 * WORD), DOT_LIMIT),
    (lambda: _dots(2, DOT_OUT) + _dots(1, DOT_OUT + 2 * WORD, src1=DOT_WINDOW_END - 2 * WORD),
     None),
    (lambda: _dots(2, DOT_OUT) + _dots(1, DOT_OUT + 2 * WORD, src1=DOT_LIMIT - 2 * WORD),
     DOT_LIMIT),
], ids=["aperture-src", "src-past-window-end", "unaligned-src",
        "dst-past-window-end", "dst-past-segment", "src-past-window-end-alone",
        "src-past-segment-alone"])
def test_a_dot_run_stops_at_an_operand_that_is_not_device_local(make, limit):
    _dot_case(make() + _dots(2, DATA_AT + 0x300) + [Fence(1)], limit=limit)


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
    assert device.cache.read(0, third, 2) == pack([0, 0])  # pending: the fault drained nothing
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
    assert [word for _, word in pending(device.cache).items()] == [
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


def test_a_dot_run_reads_the_top_word_of_the_pending_envelope():
    # the COPY leaves four words pending, and the run's src1 runs start on
    # the last of them, the highest pending address
    top = DOT_OUT + 0x40 + 3 * WORD
    device = _dot_case([Copy(DOT_OUT + 0x40, DATA_AT + 0x80, 4)]
                       + _dots(2, DOT_OUT, src1=top) + [Fence(1)])
    dot = sum(x * y for x, y in zip([36, 0, 0, 0], range(17, 21)))
    assert vram_words(device, DOT_OUT, 2) == [dot, dot]


def test_a_dot_run_reads_what_an_earlier_run_wrote_over_its_operands():
    # the first run reads DATA_AT, the second writes over it, and the
    # third reads it again with the same count
    device = _dot_case(_dots(2, DOT_OUT) + _dots(4, DATA_AT, DATA_AT + 0x80, DATA_AT + 0xC0)
                       + _dots(2, DOT_OUT + 0x40) + [Fence(1)])
    dot = sum(x * y for x, y in zip(vram_words(device, DATA_AT, 4), range(17, 21))) & MASK32
    assert vram_words(device, DOT_OUT + 0x40, 2) == [dot, dot]


# The DOT runs of one step() call share their operand memo, so whatever
# writes over a memoized operand run between two runs must be read afresh.

@pytest.mark.parametrize("write", [
    Copy(DATA_AT, DATA_AT + 0x80, 4),
    Compute(CO_ADD, DATA_AT + 0x40, DATA_AT + 0x80, DATA_AT + 0xC0, 4),
    Compute(CO_DOT, DATA_AT + 0x48, DATA_AT + 0x80, DATA_AT + 0xC0, 4),
], ids=["copy-over-src1", "add-over-src2", "dot-alone-inside-src2"])
def test_a_dot_run_reads_what_a_write_between_runs_put_over_its_operands(write):
    # the second run reads DATA_AT and DATA_AT + 0x40 as the first did
    device = _dot_case(_dots(2, DOT_OUT) + [write] + _dots(2, DOT_OUT + 0x40) + [Fence(1)])
    a, b = vram_words(device, DATA_AT, 4), vram_words(device, DATA_AT + 0x40, 4)
    assert (a, b) != (list(range(1, 5)), list(range(17, 21)))  # the write changed one
    dot = sum(x * y for x, y in zip(a, b)) & MASK32
    assert vram_words(device, DOT_OUT + 0x40, 2) == [dot, dot]


def test_a_dot_run_reads_a_status_page_that_a_fence_wrote_over_its_operands():
    # the status page is DATA_AT's four words: the FENCE writes its seq there
    device = _dot_case(_dots(2, DOT_OUT) + [Fence(7)] + _dots(2, DOT_OUT + 0x40)
                       + [Fence(8)], status=DATA_AT)
    assert vram_words(device, DATA_AT, 2) == [8, 0]
    dot = sum(x * y for x, y in zip([7, 0, 1, FLAG_FENCE], range(17, 21))) & MASK32
    assert vram_words(device, DOT_OUT + 0x40, 2) == [dot, dot]


def test_a_dot_run_then_a_fault_with_the_status_page_on_its_operands():
    # the fault writes the status page over the first run's operands and
    # ends the batch, so no run of the call reads the memo after it
    device = _dot_case(_dots(2, DOT_OUT) + [Compute(CO_DOT, DATA_AT + 2, DATA_AT, DATA_AT, 4)]
                       + _dots(2, DOT_OUT + 0x40) + [Fence(1)], status=DATA_AT)
    assert vram_words(device, DATA_AT, 4) == [0, 0, 1, FLAG_MC_FAULT]
    assert vram_words(device, DOT_OUT + 0x40, 2) == [0, 0]


def test_a_dot_run_in_a_later_call_reads_what_the_host_wrote_between_calls():
    # the first call ends with the first run; the host then rewrites an
    # operand run that the second call's run reads with the same count
    devices = []
    for cls in (SimDevice, DecodeRunDevice):
        device = boot_solo(cls(make_platform().sysmem, vram_size=2 << 20))
        poke_words(device, DATA_AT, range(1, 33))
        push_batch(device, _dots(2, DOT_OUT) + _dots(2, DOT_OUT + 0x40) + [Fence(1)])
        assert device.step(10).cycles_used == 10
        poke_words(device, DATA_AT, [5, 6, 7, 8])
        device.step(1000)
        devices.append(device)
    device, ref = devices
    dot = sum(x * y for x, y in zip([5, 6, 7, 8], range(17, 21))) & MASK32
    assert vram_words(device, DOT_OUT + 0x40, 2) == [dot, dot]
    assert device.device_digest() == ref.device_digest()


def _traced_peak(device, budget):
    """The ``tracemalloc`` peak of one ``device.step(budget)`` call."""
    tracemalloc.start()
    try:
        device.step(budget)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_dot_run_keeps_no_more_operand_words_than_its_bound():
    # 120 DOTs whose 240 operand runs are all distinct and 1,024 words
    # long: kept whole they would hold 240 * 1,024 words at once, about
    # 10 MiB of word objects, and the run may keep DOT_MEMO_WORDS of them
    n, count, out = 120, 1024, DATA_AT - 0x1000
    rng = random.Random(26)
    data = [rng.getrandbits(32) for _ in range(2 * n + count)]
    instrs = [Compute(CO_DOT, out + j * WORD, DATA_AT + j * WORD,
                      DATA_AT + (n + j) * WORD, count) for j in range(n)] + [Fence(1)]
    device, ref = (boot_solo(cls(make_platform().sysmem, vram_size=2 << 20))
                   for cls in (SimDevice, DecodeRunDevice))
    for each in (device, ref):
        poke_words(each, DATA_AT, data)
        push_batch(each, instrs)
    peak = _traced_peak(device, n * (count + 1) + 4)
    ref.step(n * (count + 1) + 4)
    assert device.cp_idle and read_status(device)[0] == 1
    assert vram_words(device, out, n) == vram_words(ref, out, n)
    assert list(pending(device.cache).items()) == list(pending(ref.cache).items())
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
    assert device.cache.read(0, 0x3000, 3) == pack([dot, dot, 0])  # pending: no drain


# --- lane passes -------------------------------------------------------------
#
# LANES DOTs of a run that read one src1 run, of count LANES to
# LANE_MAX_COUNT, are computed in one pass with one lane per DOT; the
# results must be what one DOT at a time gives.

LANE_OUT = DATA_AT - 0x1000  # below the operand data


def _lane_dots(targets, src1, srcs2, count):
    return [Compute(CO_DOT, dst, src1, src2, count) for dst, src2 in zip(targets, srcs2)]


def _dot_words(data, src1, src2, count):
    """The DOT of the ``count`` words at ``src1`` and ``src2`` in ``data``,
    which starts at DATA_AT, one word at a time."""
    a, b = ((da - DATA_AT) // WORD for da in (src1, src2))
    return sum(x * y for x, y in zip(data[a:a + count], data[b:b + count])) & MASK32


@pytest.mark.parametrize("count", [LANES, 255, 256, 257, LANE_MAX_COUNT])
def test_a_lane_pass_keeps_the_largest_lane_sums_apart(count):
    # every product is (2**32 - 1)**2, so each lane sum is as large as a
    # count allows; the lane grows from 9 bytes to 10 at count 256
    data = [MASK32] * (count + LANES)
    instrs = _lane_dots([LANE_OUT + j * WORD for j in range(LANES)], DATA_AT,
                        [DATA_AT + j * WORD for j in range(LANES)], count)
    with mock.patch.object(simdev, "_lanes", wraps=simdev._lanes) as lanes:
        device = _dot_case(instrs + [Fence(1)], budget=LANES * (count + 1) + 4, data=data)
    assert lanes.call_count == 1
    assert vram_words(device, LANE_OUT, LANES) == [count * MASK32 * MASK32 & MASK32] * LANES


def test_a_run_of_two_chunks_and_a_remainder_reads_as_one_dot_at_a_time():
    n, count = 2 * LANES + 3, LANES + 4
    rng = random.Random(28)
    data = [rng.getrandbits(32) for _ in range(count + n)]
    srcs2 = [DATA_AT + (1 + j) * WORD for j in range(n)]
    instrs = _lane_dots([LANE_OUT + j * WORD for j in range(n)], DATA_AT, srcs2, count)
    with mock.patch.object(simdev, "_lanes", wraps=simdev._lanes) as lanes:
        device = _dot_case(instrs + [Fence(1)], budget=n * (count + 1) + 4, data=data)
    assert lanes.call_count == 2
    assert vram_words(device, LANE_OUT, n) == [
        _dot_words(data, DATA_AT, src2, count) for src2 in srcs2]


def test_a_lane_row_ends_where_the_count_changes():
    # two chunks read one src1 run and the same src2 runs, the second with
    # one word more: two rows of one chunk each
    rng = random.Random(33)
    data = [rng.getrandbits(32) for _ in range(3 * LANES)]
    srcs2 = [DATA_AT + (j + 1) * WORD for j in range(LANES)]
    instrs = [dot for k, count in enumerate((LANES, LANES + 1)) for dot in _lane_dots(
        [LANE_OUT + (k * LANES + j) * WORD for j in range(LANES)], DATA_AT, srcs2, count)]
    with mock.patch.object(simdev, "_lanes", wraps=simdev._lanes) as lanes:
        device = _dot_case(instrs + [Fence(1)], budget=2 * LANES * (LANES + 2) + 4, data=data)
    assert lanes.call_count == 2
    assert vram_words(device, LANE_OUT, 2 * LANES) == [
        _dot_words(data, DATA_AT, src2, count) for count in (LANES, LANES + 1)
        for src2 in srcs2]


def test_a_lane_pass_reads_what_a_copy_between_runs_put_over_a_partner():
    # both runs read one src1 run and the same LANES src2 runs; the COPY
    # between them writes over the src2 run of the fifth DOT
    count = LANES
    rng = random.Random(29)
    data = [rng.getrandbits(32) for _ in range(count * (LANES + 2))]
    srcs2 = [DATA_AT + (j + 1) * count * WORD for j in range(LANES)]
    first = _lane_dots([LANE_OUT + j * WORD for j in range(LANES)], DATA_AT, srcs2, count)
    again = _lane_dots([LANE_OUT + (LANES + j) * WORD for j in range(LANES)], DATA_AT,
                       srcs2, count)
    copy = Copy(srcs2[4] + WORD, DATA_AT + (LANES + 1) * count * WORD, 2)
    with mock.patch.object(simdev, "_lanes", wraps=simdev._lanes) as lanes:
        device = _dot_case(first + [copy] + again + [Fence(1)],
                           budget=2 * LANES * (count + 1) + 3 + 4, data=data)
    assert lanes.call_count == 2
    data[5 * count + 1:5 * count + 3] = data[(LANES + 1) * count:(LANES + 1) * count + 2]
    assert vram_words(device, LANE_OUT + LANES * WORD, LANES) == [
        _dot_words(data, DATA_AT, src2, count) for src2 in srcs2]


def test_a_lane_pass_keeps_no_columns_of_runs_the_memo_had_no_room_for():
    # a DOT of 4,000 words leaves the memo 96 words of room: the chunk's
    # src1 run and its top five src2 runs take them, and the eleven below
    # are read but not kept, so a COPY over the lowest one's first word
    # misses the memo's span; the second chunk must not reuse the columns
    count, big = LANES, DATA_AT + 64 * WORD
    rng = random.Random(32)
    data = [rng.getrandbits(32) | 1 for _ in range(64 + 4000)]
    srcs2 = [DATA_AT + (LANES - 1 - j) * WORD for j in range(LANES)]
    src1 = DATA_AT + 32 * WORD
    first = _lane_dots([LANE_OUT + (1 + j) * WORD for j in range(LANES)], src1, srcs2, count)
    again = _lane_dots([LANE_OUT + (0x40 + j) * WORD for j in range(LANES)], src1, srcs2,
                       count)
    with mock.patch.object(simdev, "_lanes", wraps=simdev._lanes) as lanes:
        device = _dot_case([Compute(CO_DOT, LANE_OUT, big, big, 4000)] + first
                           + [Copy(DATA_AT, LANE_OUT + 0x800, 1)] + again + [Fence(1)],
                           budget=5000, data=data)
    assert lanes.call_count == 2
    data[0] = 0
    assert vram_words(device, LANE_OUT + 0x40 * WORD, LANES) == [
        _dot_words(data, src1, src2, count) for src2 in srcs2]


def test_a_lane_pass_takes_no_operand_run_longer_than_its_bound():
    # LANES DOTs of one src1 run over distinct src2 runs, all longer than
    # LANE_MAX_COUNT: a lane pass would hold every src2 run at once, about
    # 2.6 MB of word objects, where one DOT at a time holds two
    n, count = LANES, 4 * LANE_MAX_COUNT
    rng = random.Random(31)
    data = [rng.getrandbits(32) for _ in range(count + n)]
    instrs = _lane_dots([LANE_OUT + j * WORD for j in range(n)], DATA_AT,
                        [DATA_AT + (j + 1) * WORD for j in range(n)], count)
    device, ref = (boot_solo(cls(make_platform().sysmem, vram_size=2 << 20))
                   for cls in (SimDevice, DecodeRunDevice))
    for each in (device, ref):
        poke_words(each, DATA_AT, data)
        push_batch(each, instrs + [Fence(1)])
    with mock.patch.object(simdev, "_lanes", wraps=simdev._lanes) as lanes:
        peak = _traced_peak(device, n * (count + 1) + 4)
    assert lanes.call_count == 0
    ref.step(n * (count + 1) + 4)
    assert device.cp_idle and read_status(device)[0] == 1
    assert device.device_digest() == ref.device_digest()
    assert peak < (DOT_MEMO_WORDS + 2 * count) * 96  # as for the operand memo


def test_a_matmul_shaped_product_with_lane_passes_reads_as_on_the_reference_interpreter():
    # C = A B for 20x20 matrices, B stored transposed, in batches of 160
    # DOTs: each row of C is a chunk and a remainder of 4, and the runs
    # begin inside rows, where the ring's end and the batches cut them
    n = 20
    a, bt, c = DATA_AT, DATA_AT + n * n * WORD, DATA_AT + 2 * n * n * WORD
    rng = random.Random(30)
    data = [rng.getrandbits(32) for _ in range(2 * n * n)]
    instrs = [Compute(CO_DOT, c + (n * i + j) * WORD, a + n * i * WORD, bt + n * j * WORD, n)
              for i in range(n) for j in range(n)]
    devices = []
    with mock.patch.object(simdev, "_lanes", wraps=simdev._lanes) as lanes:
        for cls in (SimDevice, DecodeRunDevice):
            device = boot_solo(cls(make_platform().sysmem, vram_size=2 << 20))
            poke_words(device, DATA_AT, data)
            for k in range(0, n * n, 160):
                push_batch(device, instrs[k:k + 160])
                device.step(160 * (n + 1))
                assert device.cp_idle
            devices.append(device)
    assert lanes.call_count >= n // 2  # a row that a cut splits may have none
    device, ref = devices
    rows = [data[n * i:n * i + n] for i in range(n)]
    cols = [data[n * n + n * j:n * n + n * j + n] for j in range(n)]
    assert [word for _, word in pending(device.cache).items()] == [
        sum(x * y for x, y in zip(row, col)) & MASK32 for row in rows for col in cols]
    assert list(pending(device.cache).items()) == list(pending(ref.cache).items())
    assert device.device_digest() == ref.device_digest()


# --- the device-model swarm ---------------------------------------------------
#
# SimDevice.step must leave the device as three references do, on every
# program of conftest.swarm_examples: DecodeRunDevice, which decodes every
# operand run and runs one instruction at a time, after every step() call;
# a SimDevice stepped one cycle per call, when the host writes nothing
# between calls; and ``interpret``, which shares no code with step, when
# nothing faults and no operand meets the status page or writes the ring.

SWARM_EXAMPLES = 200
SWARM_CALLS = 40  # step() calls an example makes at most
ONE_CYCLE_MAX = 2048  # cycles an example steps one at a time at most
# the least share of examples in which each path forms: about half the
# lowest share over 100 Hypothesis seeds, since the shares of one run vary
# with its seed (lane passes: 3 % to 28 %, median 13.5 %)
SWARM_PATHS = {"dot_run": 0.07, "lane_pass": 0.015, "split": 0.01, "eviction": 0.04,
               "recurrence": 0.07, "fault": 0.15, "window_drop": 0.01}


def _interpretable(example):
    """Whether the status page lies outside the ring, and no operand of
    ``example`` meets it or writes the ring: words that the device changes
    behind ``interpret``."""
    ring, status = (example.ring, SW_RING_WORDS), (example.status, 4)

    def meets(addr, n, span):
        return addr < span[0] + span[1] * WORD and span[0] < addr + n * WORD

    for i in example.instrs:
        if type(i) in (Copy, Compute):
            n = 1 if type(i) is Compute and i.sub == CO_DOT else i.count
            srcs = [i.src] if type(i) is Copy else [i.src1, i.src2]
            if meets(i.dst, n, ring) or meets(i.dst, n, status) or any(
                    meets(src, i.count, status) for src in srcs):
                return False
    return not meets(*status, ring)


def _check_interpreted(example, before, heads, device):
    """``interpret`` the instructions ``device`` retired, with the host's
    writes between the calls that ``heads`` (RB_HEAD after each) end, over
    the memory ``before`` (VRAM, system memory, pending words) held."""
    starts = itertools.accumulate([len(i.encode()) for i in example.instrs], initial=example.start)
    retired = {at % SW_RING_WORDS * WORD: i for i, at in enumerate(starts)}

    class Memory(dict):
        def __missing__(self, da):
            space, addr = key = example.locate(da)
            word = self[da] = before[2][key] if key in before[2] else unpack(
                before[space][addr:addr + WORD])[0]
            return word

    memory, scratch, done = Memory(), dict.fromkeys(SCRATCH_REGISTERS, 0), 0
    for call, head in enumerate(heads):
        interpret(memory, scratch, example.instrs[done:retired[head]])
        done = retired[head]
        for after, da, words in example.host:
            if after == call:
                memory.update((da + i * WORD, word) for i, word in enumerate(words))
    for da, word in memory.items():
        assert device.cache.read(*example.locate(da), 1) == pack([word])
    assert {reg: device.regs[reg] for reg in SCRATCH_REGISTERS} == scratch


def _spy(owner, name, state):
    """Log each call of ``owner.name``, a method of a device the example
    drops, as [args, result or None, state() before, state() after]."""
    method, log = getattr(owner, name), []

    def logged(*args):
        entry = [args, None, state()]
        log.append(entry)
        try:
            entry[1] = method(*args)
            return entry[1]
        finally:
            entry.append(state())
    setattr(owner, name, logged)
    return log


def _run_swarm(example):
    """Run ``example`` on SimDevice and the references; the paths it formed."""
    run, ref = example.build(SimDevice), example.build(DecodeRunDevice)
    device, reference = run[1], ref[1]
    before = (bytes(device.vram), bytes(run[0].sysmem.data), pending(device.cache))
    fetched = _spy(device, "_fetch", lambda: device._window)
    ref_fetched = _spy(reference, "_fetch", lambda: reference._window)
    spans = _spy(device, "_decode_run", lambda: None)
    tlb = set(device.active_iommu.tlb)
    translated = _spy(device.active_iommu, "translate", lambda: None)
    calls, heads, used = [], [], 0
    with mock.patch.object(simdev, "VRAM_WINDOW_END", example.window_end), \
            mock.patch.object(simdev, "_lanes", wraps=simdev._lanes) as lanes:
        while not reference.cp_idle and len(calls) < SWARM_CALLS:
            calls.append((len(fetched), len(ref_fetched)))
            cycles = device.step(example.budget).cycles_used
            assert cycles == reference.step(example.budget).cycles_used
            assert_same_device(run, ref)
            used += cycles
            heads.append(reference.regs[REG_RB_HEAD])
            for after, da, words in example.host:
                if after == len(calls) - 1:
                    for _, each in (run, ref):  # after a flush, as a driver writes
                        each.mmio_write(REG_CACHE_FLUSH, 1)
                        example.poke(each, da, words)
        one_cycle = not example.host and used <= ONE_CYCLE_MAX
        if one_cycle:  # the same cycles, one a call
            one, spent = example.build(SimDevice), 0
            # a call that spends nothing leaves the device idle: it faulted
            while not one[1].cp_idle and (spent < used or spent == used and device.cp_idle):
                spent += one[1].step(1).cycles_used
            assert spent == used
            assert_same_device(run, one, fetches=False)
    faulted = device._status[3] & FAULT_FLAGS
    if not faulted and _interpretable(example):
        _check_interpreted(example, before, heads, device)

    calls.append((len(fetched), len(ref_fetched)))
    recurs = drops = False
    for (a, r), (a_end, r_end) in zip(calls, calls[1:]):
        heads_fetched = {args[0] for args, *_ in fetched[a:a_end]}
        order = ref_fetched[r:r_end]
        # a DOT is fetched alone unless it ran in a run after the one before it
        in_runs = {k for j, (args, *_) in enumerate(order) if args[0] not in heads_fetched
                   for k in (j - 1, j)}  # so each fetch returned words
        keys = [(order[k][1][s], order[k][1][5]) for k in in_runs for s in (3, 4)]
        recurs |= len(keys) > len(set(keys))
        # a write dropped the window between two fetches of one call
        drops |= any(last[3] is not None and entry[2] is None
                     for last, entry in zip(fetched[a:a_end], fetched[a + 1:a_end]))
    # the TLB evicts once it has held more mapped pages than it has entries
    tlb |= {args[0] >> 12 for args, *_ in translated} & SW_PAGES.keys()
    return {"dot_run": len(fetched) < len(ref_fetched), "lane_pass": lanes.call_count > 0,
            "split": any(len(result or ()) > 1 for _, result, *_ in spans),
            "eviction": bool(example.translation) and len(tlb) > example.tlb,
            "recurrence": recurs, "fault": bool(faulted), "window_drop": drops,
            "one_cycle": one_cycle}


def _assert_swarm(examples, least, pinned=(), barred=()):
    """Run ``examples`` swarm examples that pin ``pinned`` features on and
    ``barred`` off; each path of ``least`` must form in at least its share."""
    formed = []

    @settings(max_examples=examples, deadline=None)
    @given(swarm_examples(pinned, barred))
    def check(example):
        formed.append(_run_swarm(example))

    check()
    shares = {path: sum(paths[path] for paths in formed) / len(formed) for path in least}
    assert {path: share for path, share in shares.items() if share < least[path]} == {}


def test_the_device_runs_every_swarm_example_as_its_references_do():
    _assert_swarm(SWARM_EXAMPLES, SWARM_PATHS)


# Feature groups that the swarm draws together only now and then, pinned
# on, and the features that would hide their paths barred, so that each
# group forms its paths in every run, whatever the seed.  The least shares
# are about half the lowest over 20 Hypothesis seeds.

def test_ring_programs_run_as_on_the_reference_interpreter():
    _assert_swarm(15, {"window_drop": 0.06, "fault": 0.1},
                  ("fence", "ring_ends", "status_in_ring", "ring_writes"))


def test_step_budget_does_not_change_what_runs():
    _assert_swarm(15, {"one_cycle": 0.33, "dot_run": 0.03, "recurrence": 0.03},
                  ("small_budget",), ("host_writes",))


def test_inline_device_local_runs_equal_decoding_every_run():
    _assert_swarm(15, {"fault": 0.2, "one_cycle": 0.1}, ("copy", "add", "mul", "edges",
                  "pending", "hazard"), ("aperture", "split", "aperture_ring"))


def test_dot_runs_run_as_on_the_reference_interpreter():
    _assert_swarm(15, {"dot_run": 0.06, "recurrence": 0.06, "fault": 0.1},
                  ("dot_runs", "stops", "host_writes"))


def test_lane_stretches_run_as_on_the_reference_interpreter():
    _assert_swarm(15, {"lane_pass": 0.1, "dot_run": 0.2, "recurrence": 0.2},
                  ("lanes",), ("faults", "small_budget"))


def test_adds_run_as_on_the_reference_interpreter():
    _assert_swarm(15, {"split": 0.03, "fault": 0.13},
                  ("add", "aperture", "split", "twice", "tlb2"))


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
