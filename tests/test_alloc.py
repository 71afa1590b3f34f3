"""Allocator correctness against brute-force reference models."""

import random

from devmux.alloc import FirstFitAllocator


def _bytes_free(a: FirstFitAllocator) -> int:
    return sum(size for _, size in a._free)


def test_first_fit_starts_at_zero_and_reuses_exact_holes():
    a = FirstFitAllocator(1 << 20)
    first = a.alloc(4096)
    assert first == 0
    second = a.alloc(4096)
    assert a.free(first, 4096)
    assert a.alloc(4096) == first  # lowest hole wins
    assert second == 4096


def test_first_fit_alignment():
    a = FirstFitAllocator(1 << 16, align=256)
    a.alloc(100)
    b = a.alloc(100)
    assert b % 256 == 0


def test_first_fit_matches_bitmap_oracle():
    """Random alloc/free traffic; a byte-granular bitmap is the referee."""
    size = 1 << 16
    align = 256
    a = FirstFitAllocator(size, align=align)
    used = bytearray(size)  # 1 = allocated
    live = {}
    rng = random.Random(1234)
    for step in range(2000):
        if live and rng.random() < 0.45:
            off = rng.choice(sorted(live))
            want, rounded = live.pop(off)
            assert a.free(off, want)
            for i in range(off, off + rounded):
                used[i] = 0
        else:
            want = rng.choice([32, 100, 256, 500, 4096, 8000])
            got = a.alloc(want)
            rounded = -(-want // align) * align
            # oracle: the lowest aligned hole that fits, if any
            expect = None
            run = 0
            for i in range(0, size, align):
                if any(used[i:i + align]):
                    run = 0
                    continue
                run += align
                if run >= rounded:
                    expect = i + align - run
                    break
            assert got == expect, f"step {step}: got {got}, oracle {expect}"
            if got is not None:
                assert got % align == 0
                assert not any(used[got:got + rounded])
                for i in range(got, got + rounded):
                    used[i] = 1
                live[got] = (want, rounded)
        assert _bytes_free(a) == size - sum(used)

