"""Monolithic driver: per-call crossings, kernel validation, compatibility."""

import struct

from hypothesis import given, settings, strategies as st
import pytest

from conftest import make_device, make_platform, unpack
from devmux.bench.workloads import MAX_COMPUTES_PER_SUBMIT
from devmux.errors import (BadHandle, DeviceFault, InvalError, NotFoundError,
                           OutOfPool, OutOfRange, OutOfVram, PermError)
from devmux.legacydrv import LEGACY_API, LegacyDriver
from devmux.platform import CostLedger
from devmux.pool import (MAX_BATCH_WORDS, MIN_POOL_PAGES, RING_OFF, RING_WORDS,
                         GTT_FIRST_PAGE)
from devmux.simdev import (CO_ADD, CO_DOT, CO_MUL, REG_DISP_ENABLE, REG_DISP_PLL,
                           REG_DISP_TIMING_H, REG_DISP_TIMING_V, REG_FB_BASE,
                           INSTR_WORDS, OP_COMPUTE, REG_RB_HEAD, REG_RB_TAIL, REG_SCRATCH0,
                           SCRATCH_REGISTERS, PAGE_SIZE, WORD, Compute, Copy,
                           Fence, Nop, SetReg, encode_batch)


@pytest.fixture
def legacy():
    platform = make_platform(frames=512)
    device = make_device(platform)
    driver = LegacyDriver(platform, device, pool_pages=64)
    client = driver.legacy_open("app")
    return platform, device, driver, client


def test_pool_below_reserved_pages_is_refused_before_any_effect():
    platform = make_platform(frames=512)
    device = make_device(platform)
    with pytest.raises(InvalError):
        LegacyDriver(platform, device, pool_pages=MIN_POOL_PAGES - 1)
    assert platform.ledger.snapshot() == CostLedger().snapshot()
    assert platform.sysmem.owner == [None] * 512
    assert device.translation_tables == {}


def test_api_lists_eleven_syscalls(legacy):
    _, _, driver, client = legacy
    assert len(LEGACY_API) == 11
    assert driver.legacy_info(client)["api"] == LEGACY_API
    for name in LEGACY_API:
        assert callable(getattr(driver, name))


def test_every_syscall_crosses_the_boundary(legacy):
    platform, _, driver, client = legacy
    ledger = platform.ledger

    def crossings_of(fn):
        before = ledger.crossings
        fn()
        return ledger.crossings - before

    buf = None

    def do_alloc():
        nonlocal buf
        buf = driver.legacy_alloc(client, 8192, "GTT")

    assert crossings_of(do_alloc) == 1
    before_bytes = ledger.bytes_copied
    assert crossings_of(lambda: driver.legacy_write(client, buf, 0, bytes(4096))) == 1
    assert ledger.bytes_copied - before_bytes == 4096
    before_bytes = ledger.bytes_copied
    assert crossings_of(lambda: driver.legacy_read(client, buf, 0, 100)) == 1
    assert ledger.bytes_copied - before_bytes == 100
    assert crossings_of(lambda: driver.legacy_fence_status(client, 0)) == 1
    assert crossings_of(lambda: driver.legacy_info(client)) == 1
    assert crossings_of(lambda: driver.legacy_free(client, buf)) == 1


def test_unknown_client_is_refused(legacy):
    _, _, driver, _ = legacy
    with pytest.raises(BadHandle):
        driver.legacy_alloc(99, 64, "SYS")


def test_foreign_buffer_is_unreachable(legacy):
    platform, device, driver, client = legacy
    other = driver.legacy_open("other")
    mine = driver.legacy_alloc(client, 256, "GTT")
    driver.legacy_write(client, mine, 0, b"\x5A" * 256)
    with pytest.raises(PermError):
        driver.legacy_read(other, mine, 0, 16)
    with pytest.raises(PermError):
        driver.legacy_write(other, mine, 0, b"zz")
    tail = device.mmio_read(REG_RB_TAIL)
    validated = platform.ledger.instructions_validated
    with pytest.raises(PermError):
        driver.legacy_submit(other, [Copy((mine, 0), (mine, 0), 4)])
    # validation rejected the stream before anything reached the device
    assert device.mmio_read(REG_RB_TAIL) == tail
    assert platform.ledger.instructions_validated == validated
    assert driver.legacy_read(client, mine, 0, 256) == b"\x5A" * 256


def test_freed_ids_are_invalidated(legacy):
    _, _, driver, client = legacy
    buf = driver.legacy_alloc(client, 64, "SYS")
    driver.legacy_free(client, buf)
    with pytest.raises(NotFoundError):
        driver.legacy_read(client, buf, 0, 8)
    with pytest.raises(NotFoundError):
        driver.legacy_free(client, buf)


def test_submit_validates_every_word(legacy):
    platform, _, driver, client = legacy
    buf = driver.legacy_alloc(client, 256, "VRAM")
    batch = [Nop(), Nop(), Nop(),
             SetReg(REG_SCRATCH0, 7),
             Compute(CO_ADD, (buf, 0), (buf, 0), (buf, 0), 8),
             Copy((buf, 128), (buf, 0), 8)]
    total_words = 3 * 1 + 3 + 6 + 4
    ledger = platform.ledger
    validated = ledger.instructions_validated
    copied = ledger.bytes_copied
    crossings = ledger.crossings
    seq = driver.legacy_submit(client, batch)
    assert ledger.instructions_validated - validated == total_words
    assert ledger.bytes_copied - copied == total_words * WORD
    assert ledger.crossings - crossings == 1
    driver.legacy_wait(client, seq)


def test_waiting_for_a_seq_never_submitted_is_refused_in_one_crossing(legacy):
    platform, _, driver, client = legacy
    seq = driver.legacy_submit(client, [Nop()])
    driver.legacy_wait(client, seq)
    crossings = platform.ledger.crossings
    with pytest.raises(InvalError):
        driver.legacy_wait(client, seq + 1)
    assert platform.ledger.crossings - crossings == 1


def test_waiting_on_a_batch_whose_opcode_faults_raises_the_device_fault(legacy):
    platform, _, driver, client = legacy
    tail = driver.pool.tail
    seq = driver.legacy_submit(client, [Nop()])
    driver.pool.write(RING_OFF + tail * WORD, struct.pack("<I", 0xDEAD))
    crossings = platform.ledger.crossings
    with pytest.raises(DeviceFault):
        driver.legacy_wait(client, seq)
    assert platform.ledger.crossings - crossings == 1


def test_2x2_matmul_known_answer(legacy):
    _, _, driver, client = legacy
    a = driver.legacy_alloc(client, 16, "VRAM")
    bt = driver.legacy_alloc(client, 16, "VRAM")
    c = driver.legacy_alloc(client, 16, "VRAM")
    driver.legacy_write(client, a, 0, struct.pack("<4I", 1, 2, 3, 4))
    driver.legacy_write(client, bt, 0, struct.pack("<4I", 5, 7, 6, 8))
    batch = [Compute(CO_DOT, (c, (2 * i + j) * WORD),
                     (a, 2 * i * WORD), (bt, 2 * j * WORD), 2)
             for i in range(2) for j in range(2)]
    driver.legacy_wait(client, driver.legacy_submit(client, batch))
    assert struct.unpack("<4I", driver.legacy_read(client, c, 0, 16)) == \
        (19, 22, 43, 50)


def test_sensitive_setreg_never_reaches_the_ring(legacy):
    platform, device, driver, client = legacy
    tail = device.mmio_read(REG_RB_TAIL)
    validated = platform.ledger.instructions_validated
    with pytest.raises(InvalError):
        driver.legacy_submit(client, [SetReg(REG_DISP_PLL, 90)])
    assert device.mmio_read(REG_RB_TAIL) == tail
    assert platform.ledger.instructions_validated == validated


@pytest.mark.parametrize("make", [
    lambda buf: Copy(0x1000, (buf, 0), 4),  # a device address, not a reference
    lambda buf: Copy((buf, 0, 0), (buf, 0), 4),  # not a pair
    lambda buf: Copy((buf, 0), (buf, 0.0), 4),   # a non-int offset
    lambda buf: Copy((buf, 0), (buf, 0), "4"),   # a non-int count
    lambda buf: Compute(CO_ADD, (buf, 0), (buf, 0), [buf, 0], 4),
    lambda buf: Fence(99),                       # the kernel's own instruction
], ids=["int-address", "triple", "float-offset", "str-count", "list-ref", "fence"])
def test_malformed_instructions_are_refused_before_the_ring(legacy, make):
    platform, device, driver, client = legacy
    buf = driver.legacy_alloc(client, 64, "VRAM")
    tail = device.mmio_read(REG_RB_TAIL)
    validated = platform.ledger.instructions_validated
    with pytest.raises(InvalError):
        driver.legacy_submit(client, [Nop(), make(buf)])
    assert device.mmio_read(REG_RB_TAIL) == tail
    assert platform.ledger.instructions_validated == validated


def test_compute_operands_are_bounds_checked(legacy):
    _, _, driver, client = legacy
    buf = driver.legacy_alloc(client, 64, "VRAM")
    sysbuf = driver.legacy_alloc(client, 64, "SYS")
    with pytest.raises(OutOfRange):
        driver.legacy_submit(client, [Compute(CO_ADD, (buf, 0), (buf, 0),
                                              (buf, 32), 16)])
    with pytest.raises(InvalError):
        driver.legacy_submit(client, [Copy((sysbuf, 0), (buf, 0), 4)])
    with pytest.raises(InvalError):
        driver.legacy_submit(client, [Compute(CO_ADD, (buf, 2), (buf, 0),
                                              (buf, 0), 4)])


def test_wait_bills_one_crossing_per_poll_round(legacy):
    platform, _, driver, client = legacy
    buf = driver.legacy_alloc(client, 80000, "VRAM")
    seq = driver.legacy_submit(client, [Compute(CO_ADD, (buf, 0), (buf, 0),
                                                (buf, 0), 20000)])
    before = platform.ledger.crossings
    driver.legacy_wait(client, seq)
    # ~20k cycles of work at 8192 cycles per round, plus the final check
    assert platform.ledger.crossings - before == 4


def test_set_mode_and_scanout_framebuffer(legacy):
    _, device, driver, client = legacy
    fb = driver.legacy_alloc(client, 64 * 48 * WORD, "VRAM")
    driver.legacy_set_mode(client, 0, (64, 48, 60), fb=fb)
    assert device.mmio_read(REG_DISP_ENABLE) == 1
    assert device.mmio_read(REG_DISP_TIMING_H) == 64
    assert device.mmio_read(REG_FB_BASE) == driver.buffers[fb].device_addr
    with pytest.raises(InvalError):
        driver.legacy_set_mode(client, 0, (640, 480, 60))
    sysbuf = driver.legacy_alloc(client, 64, "SYS")
    with pytest.raises(InvalError):
        driver.legacy_set_mode(client, 0, (64, 48, 60), fb=sysbuf)


def test_refused_framebuffer_leaves_the_display_untouched(legacy):
    _, device, driver, client = legacy
    other = driver.legacy_open("other")
    foreign = driver.legacy_alloc(other, 64 * 48 * WORD, "VRAM")
    sysbuf = driver.legacy_alloc(client, 64, "SYS")
    # one word short of a frame: scanout would read past it
    small = driver.legacy_alloc(client, 64 * 48 * WORD - WORD, "VRAM")
    display_regs = (REG_DISP_PLL, REG_DISP_TIMING_H, REG_DISP_TIMING_V,
                    REG_DISP_ENABLE, REG_FB_BASE)
    before = [device.mmio_read(reg) for reg in display_regs]
    with pytest.raises(PermError):
        driver.legacy_set_mode(client, 0, (64, 48, 60), fb=foreign)
    with pytest.raises(InvalError):
        driver.legacy_set_mode(client, 0, (64, 48, 60), fb=sysbuf)
    with pytest.raises(InvalError):
        driver.legacy_set_mode(client, 0, (64, 48, 60), fb=small)
    with pytest.raises(InvalError):
        driver.legacy_set_mode(client, 0, (64, 48, 60))  # no fb at all
    assert [device.mmio_read(reg) for reg in display_regs] == before


@pytest.mark.parametrize("release", ["free", "close"])
def test_releasing_the_scanned_out_buffer_turns_the_display_off(legacy, release):
    _, device, driver, client = legacy
    frame = 64 * 48 * WORD
    fb = driver.legacy_alloc(client, frame, "VRAM")
    driver.legacy_set_mode(client, 0, (64, 48, 60), fb=fb)
    addr = driver.buffers[fb].device_addr
    assert not device.scanout().faulted
    if release == "free":
        driver.legacy_free(client, fb)
    else:
        driver.legacy_close(client)
    other = driver.legacy_open("other")
    secret = driver.legacy_alloc(other, frame, "VRAM")
    assert driver.buffers[secret].device_addr == addr  # the space came back
    driver.legacy_write(other, secret, 0, b"\x5A" * frame)
    assert device.mmio_read(REG_DISP_ENABLE) == 0
    with pytest.raises(InvalError):
        device.scanout()


@pytest.mark.parametrize("placement, cycles", [("VRAM", 21), ("GTT", 0)])
@pytest.mark.parametrize("size", [64, 63])
@pytest.mark.parametrize("release", ["free", "close"])
def test_the_next_client_reads_zeros_where_a_freed_buffer_was(
        legacy, placement, cycles, size, release):
    platform, _, driver, client = legacy
    mine = driver.legacy_alloc(client, size, placement)
    addr = driver.buffers[mine].device_addr
    written = size if placement == "GTT" else size - size % WORD
    driver.legacy_write(client, mine, 0, (b"SECRET-A" * 8)[:written])
    before = platform.ledger.snapshot()
    if release == "free":
        driver.legacy_free(client, mine)
    else:
        driver.legacy_close(client)
    delta = platform.ledger.delta_since(before)
    # clearing costs device cycles for VRAM and nothing for GTT: no
    # crossing, copied byte or validated word beyond the call's own one
    assert {f: delta[f] for f in platform.ledger.FIELDS} == {
        "crossings": 1, "bytes_copied": 0, "instructions_validated": 0,
        "device_cycles": cycles, "core_calls": 0}
    other = driver.legacy_open("other")
    theirs = driver.legacy_alloc(other, 64, placement)
    assert driver.buffers[theirs].device_addr == addr  # the space came back
    assert driver.legacy_read(other, theirs, 0, 64) == bytes(64)


@pytest.mark.parametrize("into_freed", [True, False])
def test_a_queued_copy_does_not_reach_a_freed_buffers_next_owner(legacy, into_freed):
    _, device, driver, a = legacy
    vram = driver.legacy_alloc(a, 64, "VRAM")
    gtt = driver.legacy_alloc(a, 64, "GTT")
    driver.legacy_write(a, vram, 0, b"A" * 64)
    driver.legacy_write(a, gtt, 0, b"G" * 64)
    where = driver.buffers[gtt].pool_off
    copy = (Copy((gtt, 0), (vram, 0), 16) if into_freed
            else Copy((vram, 0), (gtt, 0), 16))
    seq = driver.legacy_submit(a, [copy])
    assert not device.cp_idle           # the last chunk is left queued
    driver.legacy_free(a, gtt)
    b = driver.legacy_open("b")
    theirs = driver.legacy_alloc(b, 64, "GTT")
    assert driver.buffers[theirs].pool_off == where  # the space came back
    driver.legacy_write(b, theirs, 0, b"SECRET-B" * 8)
    driver.legacy_wait(a, seq)
    # the copy ran before the free, on the buffer as A left it
    assert driver.legacy_read(b, theirs, 0, 64) == b"SECRET-B" * 8
    assert driver.legacy_read(a, vram, 0, 64) == (b"A" if into_freed else b"G") * 64


@pytest.mark.parametrize("call, error, crossings", [
    (lambda d, c, b: d.legacy_alloc(c, "64", "GTT"), InvalError, 1),
    (lambda d, c, b: d.legacy_read(c, b, "0", 4), InvalError, 1),
    (lambda d, c, b: d.legacy_write(c, b, 0.5, b"ab"), InvalError, 1),
    (lambda d, c, b: d.legacy_set_mode(c, 0, 5), InvalError, 1),
    # the payload is checked before the charge, which bills its length
    (lambda d, c, b: d.legacy_write(c, b, 0, 8), InvalError, 0),
    (lambda d, c, b: d.legacy_write(c, b, 0, "ab"), InvalError, 0),
    (lambda d, c, b: d.legacy_read(c, [b], 0, 4), InvalError, 1),
    (lambda d, c, b: d.legacy_free(c, [b]), InvalError, 1),
    (lambda d, c, b: d.legacy_alloc([c], 64, "GTT"), BadHandle, 1),
    # a batch is refused before it crosses, like a malformed instruction
    (lambda d, c, b: d.legacy_submit(c, 5), InvalError, 0),
    # wait bills one crossing per poll round, and refuses before the first
    (lambda d, c, b: d.legacy_wait(c, "1"), InvalError, 0),
    (lambda d, c, b: d.legacy_fence_status(c, "1"), InvalError, 1),
], ids=["alloc-str-size", "read-str-offset", "write-float-offset",
        "set-mode-int-mode", "write-int-payload", "write-str-payload",
        "read-list-buffer", "free-list-buffer", "alloc-list-client",
        "submit-int-batch", "wait-str-seq", "fence-status-str-seq"])
def test_malformed_syscall_arguments_are_refused(legacy, call, error, crossings):
    platform, device, driver, client = legacy
    buf = driver.legacy_alloc(client, 64, "GTT")
    driver.legacy_write(client, buf, 0, bytes(range(1, 65)))
    buffers = dict(driver.buffers)
    tail = device.mmio_read(REG_RB_TAIL)
    before = platform.ledger.crossings
    with pytest.raises(error):
        call(driver, client, buf)
    assert platform.ledger.crossings - before == crossings
    assert driver.buffers == buffers
    assert driver.pool.read_buffer(driver.buffers[buf], 0, 64) == bytes(range(1, 65))
    assert device.mmio_read(REG_RB_TAIL) == tail
    assert device.mmio_read(REG_DISP_ENABLE) == 0


def test_close_releases_clients_and_buffers(legacy):
    _, device, driver, client = legacy
    driver.legacy_alloc(client, len(device.vram) // 2, "VRAM")
    kept = driver.legacy_alloc(client, 64, "VRAM")
    driver.legacy_close(client)
    with pytest.raises(BadHandle):
        driver.legacy_alloc(client, 64, "SYS")
    fresh = driver.legacy_open("next")
    with pytest.raises(NotFoundError):
        driver.legacy_read(fresh, kept, 0, 8)
    # the closed client's VRAM came back to the allocator
    whole = driver.legacy_alloc(fresh, len(device.vram), "VRAM")
    assert driver.buffers[whole].device_addr == 0


def test_exhausted_vram_is_refused_in_one_crossing(legacy):
    platform, device, driver, client = legacy
    driver.legacy_alloc(client, len(device.vram), "VRAM")
    buffers = dict(driver.buffers)
    before = platform.ledger.crossings
    with pytest.raises(OutOfVram):
        driver.legacy_alloc(client, 64, "VRAM")
    assert platform.ledger.crossings - before == 1
    assert driver.buffers == buffers


@pytest.mark.parametrize("size, placement", [(0, "GTT"), (0, "VRAM"), (0, "SYS"), (64, "HBM")],
                         ids=["empty-gtt", "empty-vram", "empty-sys", "unknown-placement"])
def test_a_buffer_of_no_size_or_an_unknown_placement_is_refused(legacy, size, placement):
    platform, _, driver, client = legacy
    vram, gtt = driver.pool._alloc_vram.__self__, driver.pool._gtt  # the two allocators
    live, buffers = (dict(vram.live), dict(gtt.live)), dict(driver.buffers)
    before = platform.ledger.crossings
    with pytest.raises(InvalError):
        driver.legacy_alloc(client, size, placement)
    assert platform.ledger.crossings - before == 1
    assert (vram.live, gtt.live) == live
    assert driver.buffers == buffers


def test_a_closed_clients_gtt_space_comes_back_whole(legacy):
    _, _, driver, client = legacy
    while True:
        try:
            driver.legacy_alloc(client, 32, "GTT")
        except OutOfPool:
            break
    driver.legacy_close(client)
    fresh = driver.legacy_open("next")
    whole = driver.legacy_alloc(fresh, (64 - GTT_FIRST_PAGE) * PAGE_SIZE, "GTT")
    assert driver.buffers[whole].pool_off == GTT_FIRST_PAGE * PAGE_SIZE


def test_oversized_batches_are_chunked_through_the_ring(legacy):
    platform, device, driver, client = legacy
    validated = platform.ledger.instructions_validated
    seq = driver.legacy_submit(client, [Nop()] * 5000)
    driver.legacy_wait(client, seq)
    assert platform.ledger.instructions_validated - validated == 5000
    assert device.cp_idle


def _refused_untouched(platform, device, driver, client, batch, error):
    """Submit ``batch``, expect ``error``, and check that nothing was billed
    or queued and the device did not run."""
    before = platform.ledger.snapshot()
    tail, head = device.mmio_read(REG_RB_TAIL), device.mmio_read(REG_RB_HEAD)
    with pytest.raises(error):
        driver.legacy_submit(client, batch)
    assert platform.ledger.snapshot() == before
    assert device.mmio_read(REG_RB_TAIL) == tail
    assert device.mmio_read(REG_RB_HEAD) == head


class _ClaimsToBe(int):
    """An int that says it equals (and hashes as) another buffer id."""

    def __new__(cls, value, claims):
        obj = super().__new__(cls, value)
        obj.claims = claims
        return obj

    def __eq__(self, other):
        return other == self.claims

    def __hash__(self):
        return hash(self.claims)


@pytest.mark.parametrize("bad, error", [
    (lambda b: (b["mine"], 2), InvalError),
    (lambda b: (b["mine"], 256 - 8), OutOfRange),
    (lambda b: (b["foreign"], 0), PermError),
    (lambda b: (b["freed"], 0), NotFoundError),
    (lambda b: (b["sys"], 0), InvalError),
    (lambda b: (float(b["mine"]), 0), InvalError),
    (lambda b: (_ClaimsToBe(-1, b["mine"]), 0), InvalError),
], ids=["misaligned", "out-of-range", "foreign", "freed", "sys", "float-id",
        "negative-int-claiming-the-id"])
def test_a_buffer_found_good_once_does_not_pass_a_bad_operand(legacy, bad, error):
    platform, device, driver, client = legacy
    other = driver.legacy_open("other")
    bufs = {"mine": driver.legacy_alloc(client, 256, "VRAM"),
            "foreign": driver.legacy_alloc(other, 256, "VRAM"),
            "freed": driver.legacy_alloc(client, 256, "VRAM"),
            "sys": driver.legacy_alloc(client, 256, "SYS")}
    driver.legacy_free(client, bufs["freed"])
    mine = bufs["mine"]
    # the first operands name ``mine`` validly; a later one is bad
    batch = [Copy((mine, 0), (mine, 16), 4), Copy((mine, 32), bad(bufs), 4)]
    _refused_untouched(platform, device, driver, client, batch, error)


# --- int subclasses: the kernel checks and uses one plain-int copy -----------
#
# Client A owns a 256-byte VRAM buffer and client B the one right after it.
# Each number below overrides its operators to pass the checks as one value
# and be encoded as another; the kernel must check and encode the same one.

SECRET = b"SECRET-V" * 32


def _neighbours(legacy):
    """(A's buffer, B's buffer), adjacent in VRAM; B's holds SECRET."""
    _, _, driver, client = legacy
    other = driver.legacy_open("other")
    mine = driver.legacy_alloc(client, 256, "VRAM")
    theirs = driver.legacy_alloc(other, 256, "VRAM")
    assert (driver.buffers[theirs].device_addr
            == driver.buffers[mine].device_addr + 256)
    driver.legacy_write(other, theirs, 0, SECRET)
    return mine, other, theirs


class _Off(int):
    """Offset 0 to every check, 256 bytes on once added to an address."""

    def __mod__(self, other):
        return 0

    def __add__(self, other):
        return 0

    def __lt__(self, other):
        return False

    def __radd__(self, other):
        return other + 256


class _Count(int):
    """A count of 0 words to the bounds check, 128 once masked for the ring."""

    def __mul__(self, other):
        return 0

    def __and__(self, other):
        return 128


class _LooksLikeDot(int):
    """Sub-op ADD (0) that compares equal to CO_DOT alone."""

    def __eq__(self, other):
        return other == CO_DOT


def test_an_offset_that_adds_differently_reads_the_callers_own_words(legacy):
    _, _, driver, client = legacy
    mine, other, theirs = _neighbours(legacy)
    driver.legacy_wait(client, driver.legacy_submit(
        client, [Copy((mine, 0), (mine, _Off(0)), 16)]))
    assert SECRET[:8] not in driver.legacy_read(client, mine, 0, 256)
    assert driver.legacy_read(other, theirs, 0, 256) == SECRET


def test_a_count_that_masks_differently_writes_no_more_than_it_was_checked_for(legacy):
    _, _, driver, client = legacy
    mine, other, theirs = _neighbours(legacy)
    driver.legacy_wait(client, driver.legacy_submit(
        client, [Compute(CO_ADD, (mine, 0), (mine, 0), (mine, 0), _Count(0))]))
    assert driver.legacy_read(other, theirs, 0, 256) == SECRET


def test_a_sub_op_that_claims_to_be_dot_is_checked_as_what_it_encodes(legacy):
    platform, device, driver, client = legacy
    mine, other, theirs = _neighbours(legacy)
    zeros = driver.legacy_alloc(client, 256, "VRAM")
    # checked as a DOT, its target is one word; as the ADD it is, 64 words
    _refused_untouched(platform, device, driver, client,
                       [Compute(_LooksLikeDot(CO_ADD), (mine, 252), (zeros, 0),
                                (zeros, 0), 64)], OutOfRange)
    assert driver.legacy_read(other, theirs, 0, 256) == SECRET


class _OwnsEverything(int):
    """A client id that differs from no buffer's owner."""

    def __ne__(self, other):
        return False


@pytest.mark.parametrize("call", [
    lambda driver, client, mine, theirs: driver.legacy_read(client, theirs, 0, 16),
    lambda driver, client, mine, theirs: driver.legacy_submit(
        client, [Copy((mine, 0), (theirs, 0), 16)]),
], ids=["read", "submit"])
def test_a_client_id_that_differs_from_no_owner_reaches_only_its_own_buffers(legacy, call):
    _, _, driver, client = legacy
    mine, other, theirs = _neighbours(legacy)
    with pytest.raises(PermError):
        call(driver, _OwnsEverything(client), mine, theirs)
    # whatever the refused call queued has run before the reads
    driver.legacy_wait(client, driver.legacy_submit(client, [Nop()]))
    assert SECRET[:8] not in driver.legacy_read(client, mine, 0, 256)
    assert driver.legacy_read(other, theirs, 0, 256) == SECRET


@pytest.mark.parametrize("sub", [CO_DOT + 1, -1, 1.0, "0"])
def test_an_unknown_sub_op_is_refused(legacy, sub):
    platform, device, driver, client = legacy
    buf = driver.legacy_alloc(client, 64, "VRAM")
    _refused_untouched(platform, device, driver, client,
                       [Compute(sub, (buf, 0), (buf, 0), (buf, 0), 4)], InvalError)


def test_the_whole_batch_is_checked_before_any_chunk_is_queued(legacy):
    platform, device, driver, client = legacy
    n = 32
    a, b, c = (driver.legacy_alloc(client, n * WORD, "VRAM") for _ in range(3))
    computes = [Compute(CO_DOT, (c, 0), (a, 0), (b, 0), n)] * (MAX_COMPUTES_PER_SUBMIT + 1)
    assert INSTR_WORDS[OP_COMPUTE] * len(computes) > MAX_BATCH_WORDS  # two chunks
    _refused_untouched(platform, device, driver, client,
                       computes + [SetReg(REG_DISP_PLL, 90)], InvalError)
    # the same COMPUTEs alone are queued as two fenced chunks
    first = driver.legacy_submit(client, [Nop()])
    assert driver.legacy_submit(client, computes) == first + 2


def test_every_submit_is_checked_again(legacy):
    platform, device, driver, client = legacy
    other = driver.legacy_open("other")
    mine = driver.legacy_alloc(client, 64, "VRAM")
    foreign = driver.legacy_alloc(other, 64, "VRAM")
    batch = [Compute(CO_ADD, (mine, 0), (mine, 0), (mine, 0), 4), Nop()]
    driver.legacy_wait(client, driver.legacy_submit(client, batch))
    batch[0].dst = (foreign, 0)
    _refused_untouched(platform, device, driver, client, batch, PermError)


_BUFFERS = (("VRAM", 256), ("VRAM", 512), ("GTT", 128), ("GTT", 384))


@st.composite
def _operand(draw, n_bytes):
    """(index into _BUFFERS, byte offset) of a valid ``n_bytes`` operand."""
    index = draw(st.sampled_from([i for i, (_, size) in enumerate(_BUFFERS)
                                  if size >= n_bytes]))
    last = (_BUFFERS[index][1] - n_bytes) // WORD
    return index, draw(st.integers(0, last)) * WORD


@st.composite
def _instruction(draw):
    """(class, fields) of one valid instruction, its operands still
    _operand pairs."""
    kind = draw(st.sampled_from((Nop, SetReg, Compute, Copy)))
    if kind is Nop:
        return Nop, ()
    if kind is SetReg:
        return SetReg, (draw(st.sampled_from(SCRATCH_REGISTERS)),
                        draw(st.integers(0, 1 << 70)))
    count = draw(st.integers(0, 24))
    if kind is Copy:
        return Copy, (draw(_operand(count * WORD)), draw(_operand(count * WORD)),
                      count)
    sub = draw(st.sampled_from((CO_ADD, CO_MUL, CO_DOT)))
    dst_bytes = WORD if sub == CO_DOT else count * WORD
    return Compute, (sub, draw(_operand(dst_bytes)), draw(_operand(count * WORD)),
                     draw(_operand(count * WORD)), count)


@settings(max_examples=40, deadline=None)
@given(st.lists(_instruction(), max_size=40))
def test_queued_words_are_the_encoding_of_the_patched_batch(program):
    platform = make_platform(frames=512)
    device = make_device(platform)
    driver = LegacyDriver(platform, device, pool_pages=64)
    client = driver.legacy_open("app")
    ids = [driver.legacy_alloc(client, size, placement)
           for placement, size in _BUFFERS]

    def fill(fields, operand):
        return [operand(*f) if type(f) is tuple else f for f in fields]

    batch = [kind(*fill(fields, lambda i, off: (ids[i], off)))
             for kind, fields in program]
    patched = [kind(*fill(fields, lambda i, off: driver.buffers[ids[i]].device_addr + off))
               for kind, fields in program]
    for instr, (kind, fields) in zip(batch, program):
        if kind is SetReg:  # past the constructor's mask, as an application may
            instr.value = fields[1]

    before = platform.ledger.snapshot()
    tail = driver.pool.tail
    seq = driver.legacy_submit(client, batch)
    words = encode_batch(patched)
    expected = words + Fence(seq).encode()
    ring = unpack(driver.pool.read(RING_OFF, RING_WORDS * WORD))
    assert [ring[(tail + i) % RING_WORDS] for i in range(len(expected))] == expected
    after = platform.ledger.snapshot()
    assert after["crossings"] - before["crossings"] == 1
    assert after["bytes_copied"] - before["bytes_copied"] == len(words) * WORD
    assert (after["instructions_validated"]
            - before["instructions_validated"]) == len(words)
