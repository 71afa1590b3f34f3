"""The range allocator every region uses: VRAM, segments and GTT.

It allocates byte offsets inside a region owned by the caller and knows
nothing about devices or pages.
"""

from __future__ import annotations


class FirstFitAllocator:
    """First-fit range allocator over [0, size) with a fixed alignment.

    free() requires the exact (offset, size) pair that alloc() returned;
    adjacent free ranges are coalesced so freed space is reusable.
    """

    def __init__(self, size: int, align: int = 256):
        self.size = size
        self.align = align
        self._free = [(0, size)]  # sorted, non-overlapping (offset, size)
        self.live = {}            # offset -> allocated size

    def alloc(self, size: int):
        if size <= 0:
            return None
        size = -(-size // self.align) * self.align
        for i, (off, avail) in enumerate(self._free):
            if avail >= size:
                if avail == size:
                    del self._free[i]
                else:
                    self._free[i] = (off + size, avail - size)
                self.live[off] = size
                return off
        return None

    def free(self, off: int, size: int) -> bool:
        size = -(-size // self.align) * self.align
        if self.live.get(off) != size:
            return False
        del self.live[off]
        merged = []
        for start, n in sorted(self._free + [(off, size)]):
            if merged and sum(merged[-1]) == start:
                merged[-1] = (merged[-1][0], merged[-1][1] + n)
            else:
                merged.append((start, n))
        self._free = merged
        return True

