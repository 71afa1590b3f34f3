"""Cost ledger, system memory ownership, and page accounting."""

import pytest

from devmux.errors import InvalError, OutOfMemory, PermError
from devmux.platform import (COST_CROSSING, VADDR_BASE, CostLedger, Platform,
                             SystemMemory)


def test_ledger_default_weights_formula():
    ledger = CostLedger()
    ledger.crossings = 3
    ledger.bytes_copied = 8
    ledger.instructions_validated = 5
    ledger.device_cycles = 7
    ledger.core_calls = 2
    assert ledger.simulated_time() == 3 * 1000.0 + 8 * 0.25 + 5 * 2.0 + 7 * 1.0 + 2 * 10.0


def test_ledger_custom_weights_and_delta():
    ledger = CostLedger(crossing_cost=5.0, byte_cost=1.0, validated_cost=0.0,
                        cycle_cost=0.0, core_call_cost=100.0)
    before = ledger.snapshot()
    ledger.crossings += 2
    ledger.core_calls += 1
    delta = ledger.delta_since(before)
    assert delta["crossings"] == 2
    assert delta["simulated_time"] == 2 * 5.0 + 100.0
    assert COST_CROSSING == 1000.0  # default stays the documented constant


def test_sysmem_alloc_free_and_zeroing():
    mem = SystemMemory(8)
    frames = mem.alloc_frames(2, "a")
    mem.write(frames[0], 0, b"\xaa" * 16)
    mem.free_frames(frames, "a")
    again = mem.alloc_frames(2, "b")
    assert mem.read(again[0], 0, 16) == bytes(16)  # freed pages are scrubbed


def test_a_write_past_the_last_frame_is_refused_and_memory_keeps_its_size():
    sysmem = SystemMemory(2)
    with pytest.raises(IndexError):
        sysmem.write(1, 4096 - 4, bytes(range(8)))
    assert len(sysmem.data) == 2 * 4096
    assert sysmem.read(1, 0, 4096) == bytes(4096)


def test_sysmem_foreign_free_and_pin_rules():
    mem = SystemMemory(8)
    frames = mem.alloc_frames(1, "a")
    with pytest.raises(PermError):
        mem.free_frames(frames, "b")
    mem.pin(frames[0])
    with pytest.raises(PermError):
        mem.free_frames(frames, "a")
    mem.unpin(frames[0])
    mem.free_frames(frames, "a")


def test_alloc_pages_owner_lookup():
    platform = Platform(16, CostLedger())
    vaddr = platform.alloc_pages("a", 1)[0]
    frame = platform.resolve("a", vaddr)
    assert platform.sysmem.owner[frame] == "a"
    with pytest.raises(InvalError):
        platform.resolve("b", vaddr)  # not part of b's address space


def test_alloc_beyond_capacity_still_bills_the_crossing():
    platform = Platform(4, CostLedger())
    platform.alloc_pages("a", 4)
    before = platform.ledger.crossings
    with pytest.raises(OutOfMemory):
        platform.alloc_pages("a", 1)
    assert platform.ledger.crossings == before + 1


def test_owner_tags_never_overlap():
    platform = Platform(64, CostLedger())
    a_pages = platform.alloc_pages("a", 20)
    b_pages = platform.alloc_pages("b", 20)
    a_frames = {platform.resolve("a", v) for v in a_pages}
    b_frames = {platform.resolve("b", v) for v in b_pages}
    assert not a_frames & b_frames
    for frame, owner in enumerate(platform.sysmem.owner):
        if frame in a_frames:
            assert owner == "a"
        elif frame in b_frames:
            assert owner == "b"


def test_address_spaces_are_private_but_ranges_can_repeat():
    platform = Platform(16, CostLedger())
    a = platform.alloc_pages("a", 2)
    b = platform.alloc_pages("b", 2)
    # same virtual numbering per app is fine; frames must differ
    assert platform.resolve("a", a[0]) != platform.resolve("b", b[0])
    more = platform.alloc_pages("a", 2)
    assert set(a).isdisjoint(more)  # within one app, no vaddr reuse


def test_free_pages_releases_frames():
    platform = Platform(8, CostLedger())
    vaddrs = platform.alloc_pages("a", 8)
    with pytest.raises(OutOfMemory):
        platform.alloc_pages("a", 1)
    platform.free_pages("a", vaddrs)
    assert len(platform.alloc_pages("a", 8)) == 8


def test_an_owner_that_cannot_be_hashed_is_refused_before_any_frame_is_taken():
    platform = Platform(8, CostLedger())
    with pytest.raises(InvalError):
        platform.alloc_pages(["a"], 2)
    assert platform.sysmem.owner == [None] * 8
    assert len(platform.alloc_pages("a", 8)) == 8


@pytest.mark.parametrize("n_pages", [0, -3, 2.0, "1"],
                         ids=["zero", "negative", "float", "str"])
def test_a_page_count_that_is_not_a_positive_int_is_refused_after_billing(n_pages):
    platform = Platform(64, CostLedger())
    platform.alloc_pages("b", 1)
    owners = list(platform.sysmem.owner)
    page_map = dict(platform.page_map)
    before = platform.ledger.crossings
    with pytest.raises(InvalError):
        platform.alloc_pages("a", n_pages)
    assert platform.ledger.crossings == before + 1
    assert platform.sysmem.owner == owners
    assert platform.page_map == page_map
    assert platform.alloc_pages("a", 1) == [VADDR_BASE]  # no vaddr was used up
    assert len(platform.alloc_pages("b", 62)) == 62


def _page_state(platform):
    mem = platform.sysmem
    return dict(platform.page_map), list(mem.owner), list(mem.pins), bytes(mem.data)


@pytest.mark.parametrize("pick, error", [
    (lambda vaddrs: vaddrs, PermError),  # the middle frame is pinned
    (lambda vaddrs: vaddrs + vaddrs[:1], InvalError),
    (lambda vaddrs: vaddrs + [vaddrs[-1] + 0x1000], InvalError),  # not mapped
], ids=["pinned", "repeated", "unmapped"])
def test_a_refused_free_changes_nothing_and_a_retry_frees_every_page(pick, error):
    platform = Platform(8, CostLedger())
    vaddrs = platform.alloc_pages("a", 3)
    for i, vaddr in enumerate(vaddrs):
        platform.sysmem.write(platform.resolve("a", vaddr), 0, bytes([i + 1]) * 16)
    middle = platform.resolve("a", vaddrs[1])
    platform.sysmem.pin(middle)
    before = _page_state(platform)
    with pytest.raises(error):
        platform.free_pages("a", pick(vaddrs))
    assert _page_state(platform) == before
    platform.sysmem.unpin(middle)
    platform.free_pages("a", vaddrs)
    assert platform.page_map == {}
    assert platform.sysmem.owner == [None] * 8
    assert bytes(platform.sysmem.data) == bytes(8 * 4096)
