"""Small allocators used by the drivers: first-fit ranges and a slab pool.

Both allocate byte offsets inside a region owned by the caller; neither knows
anything about devices or pages beyond its block size.
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
        self._free.append((off, size))
        self._free.sort()
        merged = []
        for rng in self._free:
            if merged and merged[-1][0] + merged[-1][1] == rng[0]:
                merged[-1] = (merged[-1][0], merged[-1][1] + rng[1])
            else:
                merged.append(list(rng))
        self._free = [tuple(r) for r in merged]
        return True

    def bytes_free(self) -> int:
        return sum(s for _, s in self._free)


class SlabPool:
    """Size-class allocator over a contiguous page-backed region.

    Blocks of 32..4096 bytes come from per-class free lists; a class list is
    refilled by carving one whole page into blocks.  Requests above one page
    take a first-fit run of consecutive free pages.  Offsets are relative to
    the start of the region.
    """

    CLASSES = (32, 64, 128, 256, 512, 1024, 2048, 4096)
    PAGE = 4096

    def __init__(self, size_bytes: int):
        if size_bytes % self.PAGE:
            raise ValueError("slab region must be page-aligned")
        self.size = size_bytes
        self.n_pages = size_bytes // self.PAGE
        self._free_pages = list(range(self.n_pages))  # sorted ascending
        self._class_free = {c: [] for c in self.CLASSES}
        self.live = {}  # offset -> (requested, block_size, n_pages or 0)

    def _class_for(self, size: int):
        for c in self.CLASSES:
            if size <= c:
                return c
        return None

    def _take_page_run(self, n: int):
        pages = self._free_pages
        run = 1
        for i in range(1, len(pages) + 1):
            if run == n:
                start = i - n
                chosen = pages[start:i]
                del pages[start:i]
                return chosen[0]
            if i == len(pages):
                break
            run = run + 1 if pages[i] == pages[i - 1] + 1 else 1
        return None

    def alloc(self, size: int):
        if size <= 0:
            return None
        cls = self._class_for(size)
        if cls is None or cls == self.PAGE:
            n = -(-size // self.PAGE)
            first = self._take_page_run(n)
            if first is None:
                return None
            off = first * self.PAGE
            self.live[off] = (size, n * self.PAGE, n)
            return off
        freelist = self._class_free[cls]
        if not freelist:
            first = self._take_page_run(1)
            if first is None:
                return None
            base = first * self.PAGE
            # LIFO order: lowest block comes out first
            for boff in range(self.PAGE - cls, -1, -cls):
                freelist.append(base + boff)
        off = freelist.pop()
        self.live[off] = (size, cls, 0)
        return off

    def free(self, off: int, size: int) -> bool:
        entry = self.live.get(off)
        if entry is None or entry[0] != size:
            return False
        del self.live[off]
        _, block, n_pages = entry
        if n_pages:
            first = off // self.PAGE
            self._free_pages.extend(range(first, first + n_pages))
            self._free_pages.sort()
        else:
            self._class_free[block].append(off)
        return True

    def accounted_bytes(self) -> int:
        """Live blocks + free blocks + free pages; always equals the region size."""
        live = sum(e[1] for e in self.live.values())
        free_blocks = sum(c * len(lst) for c, lst in self._class_free.items())
        return live + free_blocks + len(self._free_pages) * self.PAGE
