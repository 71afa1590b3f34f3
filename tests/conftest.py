"""Shared helpers: standalone device bring-up and packing utilities."""

import functools
import random
import struct
import types

import pytest
from hypothesis import Phase, settings, strategies as st

from devmux import simdev
from devmux.devcore import DeviceCore
from devmux.errors import CmdFault, HardwareFault
from devmux.platform import CostLedger, Platform
from devmux.simdev import (APERTURE_BASE, CO_ADD, CO_DOT, CO_MUL, FENCE_IRQ,
                           FLAG_FENCE, FW_CTRL_READY, LANES, MASK32,
                           OP_COMPUTE, OP_COPY, OP_FENCE, OP_SET_REG,
                           PAGE_SIZE, REG_FW_CTRL, REG_IH_PAGE_ADDR,
                           REG_IOMMU_ENABLE, REG_IOMMU_ROOT, REG_IRQ_ENABLE,
                           REG_MC_SEG_BASE, REG_MC_SEG_LIMIT, REG_RB_BASE,
                           REG_RB_HEAD, REG_RB_SIZE, REG_RB_TAIL,
                           SCRATCH_REGISTERS, VRAM_WINDOW_END, WORD, Compute,
                           Copy, ExecReport, Fence, IommuUnit, Nop, PageTable,
                           SetReg, SimDevice, encode_batch)

# opt in with `pytest --hypothesis-profile=mutation`: a failing example is
# reported as found, not shrunk, so a run under a mutant stops in seconds;
# no example database, so a run replays no failure saved by an earlier one
settings.register_profile("mutation", database=None,
                          phases=(Phase.explicit, Phase.reuse, Phase.generate))

# fixed VRAM layout for standalone (no-driver) device tests
STATUS_AT = 0x2000
RING_AT = 0x4000
RING_WORDS = 1024
DATA_AT = 0x10000


def pack(words):
    return struct.pack(f"<{len(words)}I", *words)


def unpack(data):
    return list(struct.unpack(f"<{len(data) // 4}I", data))


def make_platform(frames=256, **weights):
    return Platform(frames, CostLedger(**weights))


def make_device(platform, vram=2 << 20):
    return SimDevice(platform.sysmem, vram_size=vram)


class UnflushedRootIommu(IommuUnit):
    """A translation unit whose root change keeps the TLB: the hazard the
    flush on every root change prevents."""

    def set_root(self, table_id: int):
        self.root = table_id


class DecodeRunDevice(SimDevice):
    """A device whose command processor decodes every operand run with
    ``_decode_run``, through ``_read_run`` and ``_write_run``: the reference
    for the device-local operand decode of ``SimDevice.step``.  It fetches
    through the same ``_fetch`` as ``step``.  It runs one instruction at a
    time, so it is also the reference for ``step``'s DOT runs."""

    def step(self, budget: int) -> ExecReport:
        self._window = None
        regs = self.regs
        ready = regs[REG_FW_CTRL] == FW_CTRL_READY
        used = 0
        while used < budget:
            if self._inflight is not None:
                opcode, words, cost = self._inflight
            elif regs[REG_RB_HEAD] == regs[REG_RB_TAIL] or not ready:
                break
            else:
                try:
                    words = self._fetch(regs[REG_RB_HEAD], regs[REG_RB_TAIL],
                                        regs[REG_RB_SIZE] * WORD)
                except HardwareFault as fault:
                    self._fault(fault)
                    continue
                opcode = words[0]
                if opcode == OP_COMPUTE:
                    cost = 1 + words[5]
                elif opcode == OP_COPY:
                    cost = 1 + words[3]
                else:
                    cost = 4 if opcode == OP_FENCE else 1
            if cost > budget - used:
                self._inflight = [opcode, words, cost - (budget - used)]
                used = budget
                break
            used += cost
            self._inflight = None
            try:
                if opcode == OP_COMPUTE:
                    sub, dst, src1, src2, count = words[1:]
                    if sub > CO_DOT:
                        raise CmdFault(f"unknown COMPUTE sub-op 0x{sub:x}")
                    if count:
                        a = self._read_run(src1, count)
                        b = self._read_run(src2, count)
                        if sub == CO_DOT:
                            out = [sum(x * y for x, y in zip(a, b)) & MASK32]
                        elif sub == CO_ADD:
                            out = [(x + y) & MASK32 for x, y in zip(a, b)]
                        else:
                            out = [(x * y) & MASK32 for x, y in zip(a, b)]
                        self._write_run(dst, pack(out))
                    elif sub == CO_DOT:
                        self._write_run(dst, pack([0]))
                elif opcode == OP_COPY:
                    dst, src, count = words[1:]
                    if count:
                        self._write_run(dst, pack(self._read_run(src, count)))
                elif opcode == OP_FENCE:
                    ih = regs[REG_IH_PAGE_ADDR]
                    if ih == 0:
                        raise CmdFault("FENCE with no status page configured")
                    self._decode_run(ih, 4, True)
                    self.cache.drain()
                    self._status[:2] = words[1:3]
                    if words[3] & FENCE_IRQ and regs[REG_IRQ_ENABLE]:
                        self._record_event(FLAG_FENCE)
                    else:
                        self._sync_status_page()
                elif opcode == OP_SET_REG:
                    reg, value = words[1:]
                    if reg not in SCRATCH_REGISTERS:
                        raise CmdFault(f"SET_REG may only target scratch registers, got 0x{reg:x}")
                    regs[reg] = value
            except HardwareFault as fault:
                self._fault(fault)
            else:
                regs[REG_RB_HEAD] = ((regs[REG_RB_HEAD] + len(words) * WORD)
                                     % (regs[REG_RB_SIZE] * WORD))
        return ExecReport(used)


def boot_solo(device):
    """Boot a bare device with MC wide open and ring/status in VRAM.

    No driver stack involved: tests poke VRAM directly and trigger the CP
    through the register file.
    """
    simdev.install_firmware(device)
    device.mmio_write(REG_MC_SEG_BASE, 0)
    device.mmio_write(REG_MC_SEG_LIMIT, len(device.vram))
    device.mmio_write(REG_IRQ_ENABLE, 1)
    device.mmio_write(REG_IH_PAGE_ADDR, STATUS_AT)
    device.mmio_write(REG_RB_BASE, RING_AT)
    device.mmio_write(REG_RB_SIZE, RING_WORDS)
    return device


def push_batch(device, instrs):
    """Write an encoded batch at the current tail and trigger it."""
    words = encode_batch(instrs)
    tail = device.regs[REG_RB_TAIL]
    ring_bytes = RING_WORDS * WORD
    data = pack(words)
    first = min(len(data), ring_bytes - tail)
    device.vram[RING_AT + tail:RING_AT + tail + first] = data[:first]
    if first < len(data):
        device.vram[RING_AT:RING_AT + len(data) - first] = data[first:]
    device.mmio_write(REG_RB_TAIL, (tail + len(data)) % ring_bytes)


def read_status(device):
    """(last fence seq, irq count, pending flags) from the status page."""
    seq, irq, flags = struct.unpack("<QII", bytes(device.vram[STATUS_AT:STATUS_AT + 16]))
    return seq, irq, flags


def vram_words(device, addr, n):
    return unpack(bytes(device.vram[addr:addr + n * WORD]))


def poke_words(device, addr, words):
    device.vram[addr:addr + len(words) * WORD] = pack(words)


def pending(cache):
    """A write-back cache's queue word by word: a fresh ``(space, byte
    addr) -> word`` dict, oldest first."""
    return {(space, addr + i * WORD): word
            for space, addr, data in cache._runs
            for i, (word,) in enumerate(struct.iter_unpack("<I", data))}


@pytest.fixture
def solo():
    """(platform, booted standalone device) for register-level tests."""
    platform = make_platform()
    device = boot_solo(make_device(platform))
    return platform, device


@pytest.fixture
def lib_world():
    """(platform, device, brought-up core) with small segments."""
    platform = make_platform(frames=1024)
    device = make_device(platform, vram=4 << 20)
    core = DeviceCore(platform, device, segment_bytes=1 << 20)
    return platform, device, core


def assert_same_device(run, ref, fetches=True):
    """``run`` and ``ref``, (platform, device) pairs, hold the same device
    state: registers, status words, the instruction in flight, the
    write-back cache's entries, size and envelope, VRAM, system memory and
    the digest, and with ``fetches`` the fetch window and the TLB order,
    which a call that rebuilds its window refills."""
    (platform, device), (ref_platform, reference) = run, ref
    assert device.regs == reference.regs
    assert device._status == reference._status
    assert device._inflight == reference._inflight
    cache, ref_cache = device.cache, reference.cache
    assert list(cache._runs) == list(ref_cache._runs)  # and so the pending words
    assert (cache.size, cache.lo, cache.hi) == (ref_cache.size, ref_cache.lo, ref_cache.hi)
    if fetches:
        assert device._window == reference._window
        assert list(device.active_iommu.tlb.items()) == list(reference.active_iommu.tlb.items())
    assert bytes(device.vram) == bytes(reference.vram)
    assert bytes(platform.sysmem.data) == bytes(ref_platform.sysmem.data)
    assert device.device_digest() == reference.device_digest()


# --- the device-model swarm ---------------------------------------------------
#
# As in swarm testing (Groce, Zhang, Eide, Chen & Regehr, ISSTA 2012), each
# example first draws the features it may use, each one half the time, then
# a world and a program that use only those: an example that leaves most
# features out forms the paths of the rest often, where one that mixes them
# all seldom forms any.

SWARM_FEATURES = (
    "nop", "set_reg", "add", "mul", "dot", "copy", "fence",  # instructions
    # operands: in the aperture, across its page ends, one source named
    # twice, sources over earlier targets
    "aperture", "split", "twice", "hazard",
    # runs of DOTs with consecutive targets, DOTs that stop them, and lane
    # stretches: LANES to 36 DOTs of one count, LANES to 64, and one src1 run
    "dot_runs", "stops", "lanes",
    # the ring in the aperture, across a page end and the ring end, the
    # status page inside it, operands over its words
    "aperture_ring", "ring_ends", "status_in_ring", "ring_writes",
    "faults",  # MC, IOMMU, unaligned, past the window end, translation off
    # the world: a 2-entry TLB, pages in it beforehand, the segment and the
    # device-local window at their edges, cache runs pending at the start
    "tlb2", "preload", "edges", "pending",
    # budgets of 1-31 cycles or an eighth to a half of the program's, and
    # host writes between calls
    "small_budget", "host_writes")

# device-local layout: page 0 is the status page's, unless it is in the
# ring; a VRAM ring starts at SW_RING or ends its first page at SW_RING +
# one page; operand data fills two pages from SW_DATA, DOT targets follow
SW_VRAM = 0x8000
SW_STATUS = 0x1000
SW_RING = 0x2000
SW_DATA = 0x4000
SW_OUT = 0x6000
SW_RING_WORDS = 1024
SW_FRAMES = 8
# aperture page -> system frame: pages 0-2 hold data, in falling frame
# order, so that a run across a page end is two spans; page 3 is read-only,
# page 4 is unmapped, pages 5-6 hold an aperture ring, and pages 7-68 can
# fill a 64-entry TLB
SW_PAGES = {0: 7, 1: 6, 2: 5, 3: 4, 5: 0, 6: 1, **{p: 2 for p in range(7, 69)}}


class SwarmExample(types.SimpleNamespace):
    """A world and a program, as ``swarm_examples`` draws them."""

    def __repr__(self):
        fields = dict(self.__dict__, instrs=[(type(i).__name__, i.encode()[1:])
                                             for i in self.instrs])
        return f"SwarmExample({fields})"

    def locate(self, da):
        """(space, byte address) of device address ``da``."""
        if da < APERTURE_BASE:
            return 0, self.base + da
        return 1, SW_PAGES[(da - APERTURE_BASE) >> 12] * PAGE_SIZE + da % PAGE_SIZE

    def poke(self, device, da, words):
        """Write ``words`` at ``da`` as the host does: to memory, past the
        write-back cache."""
        for i, word in enumerate(words):
            space, addr = self.locate(da + i * WORD)
            device._backings[space][addr:addr + WORD] = pack([word])

    def build(self, cls):
        """(platform, device): a ``cls`` device in this world, the program
        queued on its ring."""
        platform = make_platform(frames=SW_FRAMES)
        device = cls(platform.sysmem, vram_size=SW_VRAM)
        rng = random.Random(self.seed)
        device.vram[:] = rng.randbytes(SW_VRAM)
        platform.sysmem.data[:] = rng.randbytes(SW_FRAMES * PAGE_SIZE)
        # small words: copied into the ring, they decode as short instructions
        self.poke(device, SW_DATA, [rng.randrange(9) for _ in range(32)])
        simdev.install_firmware(device)
        device.mmio_write(REG_MC_SEG_BASE, self.base)
        device.mmio_write(REG_MC_SEG_LIMIT, self.limit)
        device.mmio_write(REG_IRQ_ENABLE, 1)
        table = device.translation_tables[1] = PageTable()
        for page, frame in SW_PAGES.items():
            table.map(page * PAGE_SIZE, frame, writable=page != 3)
        device.mmio_write(REG_IOMMU_ROOT, 1)
        device.iommu.tlb_entries = self.tlb
        for page in self.preload:
            device.iommu.translate(page * PAGE_SIZE, False)
        device.mmio_write(REG_IOMMU_ENABLE, self.translation)
        for da, n in self.pending:
            device.cache.put_run(*self.locate(da), rng.randbytes(n * WORD))
        device.mmio_write(REG_IH_PAGE_ADDR, self.status)
        device.mmio_write(REG_RB_BASE, self.ring)
        device.mmio_write(REG_RB_SIZE, SW_RING_WORDS)
        device.mmio_write(REG_RB_HEAD, self.start * WORD)
        words = encode_batch(self.instrs)
        for i, word in enumerate(words):
            self.poke(device, self.ring + (self.start + i) % SW_RING_WORDS * WORD, [word])
        device.mmio_write(REG_RB_TAIL, (self.start + len(words)) % SW_RING_WORDS * WORD)
        return platform, device


@functools.lru_cache(maxsize=None)
def _integers(lo, hi):
    """st.integers(lo, hi), built once: a generator that draws thousands of
    numbers an example spends most of its time building strategies."""
    return st.integers(lo, hi)


# one in eight for a fault: st.integers(0, 7) draws 0 about a quarter of
# the time, and sampled_from takes each option about equally often
_EIGHTHS = st.sampled_from(range(8))


@st.composite
def swarm_examples(draw, pinned=(), barred=()):
    """A SwarmExample: a feature set, which holds every feature of
    ``pinned`` and none of ``barred``, then a world and a program that use
    only its features, a budget per call and the host's writes between
    calls."""
    on = {name for name, flag in zip(SWARM_FEATURES, draw(st.lists(
        st.booleans(), min_size=len(SWARM_FEATURES), max_size=len(SWARM_FEATURES)))) if flag}
    on = (on | set(pinned)) - set(barred)
    ints = lambda lo, hi: draw(_integers(lo, hi))  # noqa: E731
    fault = lambda: not draw(_EIGHTHS)  # noqa: E731
    pick = lambda options: options[ints(0, len(options) - 1)]  # noqa: E731

    # the world
    base, limit, window_end = 0, SW_VRAM, VRAM_WINDOW_END
    if "edges" in on:
        base = pick((0, 2, 0x800))
        # at the device's end, or among the DOT targets
        limit = pick((SW_VRAM, SW_VRAM + WORD, base + SW_OUT + ints(0, 256) * WORD))
        window_end = pick((VRAM_WINDOW_END, SW_OUT + ints(0, 256) * WORD))
    pending = []  # (device address, words): in VRAM, or in one aperture page
    for _ in range(ints(1, 3) if "pending" in on else 0):
        n = ints(1, 300)
        pending.append((SW_DATA + ints(0, 3072 - n) * WORD if ints(0, 2) else
                        APERTURE_BASE + ints(0, 2) * PAGE_SIZE + ints(0, 1024 - n) * WORD, n))
    page = APERTURE_BASE + 5 * PAGE_SIZE if "aperture_ring" in on else SW_RING
    ring, start = page, 0
    if "ring_ends" in on:
        ring = page + PAGE_SIZE - ints(1, 64) * WORD
        start = (SW_RING_WORDS - ints(0, 40)) % SW_RING_WORDS
    status = SW_STATUS
    if "status_in_ring" in on:
        status = ring + min((start + ints(0, 48)) % SW_RING_WORDS, SW_RING_WORDS - 4) * WORD
    tlb = 2 if "tlb2" in on else 64
    preload = []
    if "preload" in on:
        pages = draw(st.permutations((0, 1, 2, 5, 6)))
        preload = pages[:1] + list(range(7, 5 + tlb)) + pages[1:2]

    # the program
    edges = [limit - base, SW_VRAM - base, window_end] + [
        da + k * n * WORD for da, n in pending if da < APERTURE_BASE for k in (0, 1)]
    places = [p for p in ("ring_writes", "split", "aperture", "hazard", "edges")
              if p in on] + ["vram"]
    pool = [SW_DATA + ints(0, 56) * WORD for _ in range(ints(2, 3))]
    pool_counts = [ints(1, 8) for _ in range(ints(1, 2))]
    # (address, words) of the runs pending so far: at the start, then the
    # program's targets
    instrs, targets = [], list(pending)
    at = 0  # ring words so far
    lane_out, stretch, sources = SW_OUT, None, []  # sources: of the DOTs in runs

    def emit(instr, *target):
        nonlocal at
        instrs.append(instr)
        at += len(instr.encode())
        if target and target[1]:
            targets.append(target)

    def ahead(words):  # a ring word at most ``words`` past the next instruction
        return ring + (start + at + ints(0, words)) % SW_RING_WORDS * WORD

    def over_target(count, local=False):
        """A run that meets an earlier target (with ``local``, one in VRAM),
        half the time at its last word; or one that starts on the highest
        target word in VRAM."""
        vram = [(addr, n) for addr, n in targets if addr < APERTURE_BASE]
        if ints(0, 2) and (vram or not local):
            addr, n = pick(vram if local else targets)
            return max(0, addr + (n - 1 if ints(0, 1) else ints(1 - count, n - 1)) * WORD)
        return max([addr + (n - 1) * WORD for addr, n in vram], default=SW_DATA)

    def run(count):
        """The address of an operand run of ``count`` words; with ``faults``
        one in eight is unaligned, outside both windows, on a read-only or
        unmapped aperture page, or past the device-local window's end."""
        count = max(count, 1)
        if "faults" in on and fault():
            return pick((SW_DATA + ints(1, 3), 0x2000_0000, APERTURE_BASE + 3 * PAGE_SIZE,
                         APERTURE_BASE + 4 * PAGE_SIZE, window_end - ints(0, count) * WORD))
        place = pick(places)
        if place == "aperture":
            return APERTURE_BASE + ints(0, 3072 - count) * WORD
        if place == "split":  # with faults, into read-only page 3 or unmapped page 4
            return (APERTURE_BASE + pick((1, 2, 3, 4) if "faults" in on else (1, 2)) * PAGE_SIZE
                    - ints(1, max(1, count - 1)) * WORD)
        if place == "hazard" and targets:
            return over_target(count)
        if place == "edges":
            return pick(edges) + pick((-count, 1 - count, 0)) * WORD
        if place == "ring_writes":
            return ahead(48)
        return SW_DATA + ints(0, 2048 - count) * WORD

    def dot_source(count, pooled=False):
        if pooled:
            return pick(pool)
        if "hazard" in on and targets and not ints(0, 3):
            return over_target(count, local=True)
        return SW_DATA + ints(0, 128 - count) * WORD

    def dot(first, j, dst, srcs, count, stop):
        """(a DOT of a run, or with ``stop`` an instruction on one of the
        conditions that stop a run, the next target in line)."""
        sub = CO_DOT
        if stop:
            hazard = pick(("count-0", "no-dot", "out-of-line", "not-local", "earlier"))
            k = ints(0, 1)
            if hazard == "count-0":
                count = 0
            elif hazard == "no-dot":
                sub = pick((CO_ADD, CO_MUL))
            elif hazard == "out-of-line":
                dst += pick((-WORD, WORD, 2 * WORD))
            elif hazard == "not-local":
                srcs[k] = pick((APERTURE_BASE + ints(0, 1000) * WORD, SW_DATA + 2,
                                window_end - ints(0, count) * WORD,
                                limit - base - ints(0, count) * WORD))
            else:  # on the run's earlier targets, which are not queued yet
                srcs[k] = first + ints(-count, j) * WORD
        sources.extend(srcs)
        return Compute(sub, dst, srcs[0], srcs[1], count), dst + WORD

    # runs and stretches, which need their own DOTs in a row, come often
    kinds = [k for k in ("lanes", "dot_runs") * 3 + (
        "copy", "add", "mul", "dot", "fence", "set_reg", "nop") if k in on] or ["copy"]
    n_words = lambda least=1: ints(least, pick((8, 300)))  # noqa: E731
    for _ in range(9 - ints(1, 8)):  # 8 items the most often: st.integers favours lo
        if at > SW_RING_WORDS - 256:  # room for the longest stretch
            break
        kind = pick(kinds)
        if kind == "nop":
            emit(Nop())
        elif kind == "set_reg":
            emit(SetReg(pick(SCRATCH_REGISTERS + ((REG_MC_SEG_BASE,) if "faults" in on else ())),
                        ints(0, MASK32)))
        elif kind == "fence":
            emit(Fence(ints(0, 1 << 40), ints(0, 1)))
        elif kind == "copy":
            count = n_words()
            dst = run(count)
            emit(Copy(dst, run(count), count), dst, count)
        elif kind == "dot":
            count = n_words(0)
            dst = run(1)
            emit(Compute(CO_DOT, dst, run(count), run(count), count), dst, 1)
        elif kind in ("add", "mul"):
            count = n_words()
            sub = CO_ADD if kind == "add" else CO_MUL
            if "faults" in on and fault():
                sub = CO_DOT + 1
            src1 = run(count)
            src2 = src1 if "twice" in on and ints(0, 1) else run(count)
            dst = run(count)
            emit(Compute(sub, dst, src1, src2, count), dst, count)
        elif kind == "dot_runs":
            n, pooled = ints(2, 10), ints(0, 3) > 0
            if "ring_writes" in on and not ints(0, 2):  # over the fetch window
                first = ahead(6 * n + 4)
            elif "edges" in on and not ints(0, 2):  # across an edge
                first = pick(edges) - ints(1, n) * WORD
            else:
                first = pick((SW_DATA, SW_OUT)) + ints(0, 128) * WORD
            dst = first
            for j in range(n):
                count = pick(pool_counts) if pooled else ints(1, 8)
                srcs = [dot_source(count, pooled), dot_source(count, pooled)]
                instr, dst = dot(first, j, dst, srcs, count, "stops" in on and not ints(0, 3))
                emit(instr)
            targets.append((first, n))
            if pooled and ints(0, 1):  # a write over an operand run a later run reads
                count, dst = ints(1, 8), pick(pool)
                emit(Copy(dst, run(count), count), dst, count)
        else:  # a lane stretch, or the last one again at new targets
            if stretch is None or ints(0, 1):
                n, count = ints(LANES, 36), ints(LANES, 64)
                src1, change, stretch = dot_source(count), ints(LANES, 2 * n), []
                for j in range(n):
                    if j == change:
                        src1 = dot_source(count)
                    stretch.append((src1, dot_source(count), count))
                for _ in range(ints(0, 4)):  # DOTs too short for a lane among them
                    short = ints(1, LANES - 1)
                    stretch.insert(ints(0, len(stretch)),
                                   (dot_source(short), dot_source(short), short))
            for again in range(ints(1, 2) if at < SW_RING_WORDS // 2 else 1):
                if again:  # new words over a src2 run, and then the stretch again
                    _, src2, count = pick([dot for dot in stretch if dot[2] >= LANES])
                    dst, count = src2 + ints(0, count - 1) * WORD, ints(1, 4)
                    emit(Copy(dst, SW_DATA + ints(1024, 2044) * WORD, count), dst, count)
                first, stop = lane_out, -1 if again or "stops" not in on else ints(
                    0, 3 * len(stretch))
                for j, (src1, src2, count) in enumerate(stretch):
                    instr, lane_out = dot(first, j, lane_out, [src1, src2], count, j == stop)
                    emit(instr)
                targets.append((first, len(stretch)))

    cycles = sum(1 + (i.count & MASK32) if type(i) in (Compute, Copy) else
                 4 if type(i) is Fence else 1 for i in instrs)
    budget = pick((8192, 2048, 1024))  # and so 8,192 the most often
    if "small_budget" in on:
        budget = ints(1, 31) if not ints(0, 2) else max(1, cycles // ints(2, 8))
    elif "host_writes" in on:  # 2-8 calls, so that the writes come between runs
        budget = max(1, cycles // ints(2, 8))
    host = []  # (after call, address, words), before the program's last call
    for _ in range(ints(1, 6) if "host_writes" in on else 0):
        n = ints(1, 8)
        # mostly over the operand runs of DOT runs, where words are data
        spots = [da for da in sources if not da % WORD and (
            SW_DATA <= da <= SW_VRAM - base - n * WORD
            or APERTURE_BASE <= da <= APERTURE_BASE + 3 * PAGE_SIZE - n * WORD)]
        da = pick(spots) if spots and ints(0, 2) else pick((
            SW_DATA + ints(0, 128 - n) * WORD, APERTURE_BASE + ints(0, 3072 - n) * WORD))
        host.append((ints(0, min(32, max(0, cycles - 1) // budget)), da,
                     [ints(0, MASK32) for _ in range(n)]))
    return SwarmExample(
        features=sorted(on), base=base, limit=limit, window_end=window_end,
        tlb=tlb, preload=preload, translation=int(not ("faults" in on and fault())),
        pending=pending, ring=ring, start=start, status=status, seed=ints(0, 1 << 16),
        instrs=instrs, budget=budget, host=host)
