"""Containment suite: a hostile library tries to escape its sandbox.

Each case builds a fresh small world with a victim library that owns real
state (VRAM segment contents, mapped system pages), then lets an attacker
library attempt one escape.  A case passes when the attack is refused in
the expected way (fault or error) AND every victim byte is untouched
afterwards.  Victim state is compared raw, byte for byte.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..devcore import DeviceCore
from ..errors import DeviceFault, NotBoundError, PermError
from ..libdrv import LibraryDriver
from ..platform import RUN_TO_IDLE
from ..pool import GTT, VRAM
from ..simdev import (APERTURE_BASE, FLAG_CMD_FAULT, FLAG_IOMMU_FAULT,
                      FLAG_MC_FAULT, PAGE_SIZE, REG_DISP_ENABLE,
                      REG_IH_PAGE_ADDR, REG_IOMMU_ROOT, REG_MC_SEG_BASE,
                      REG_RB_BASE, REG_RB_SIZE, REG_RB_TAIL,
                      S_REGISTERS, Copy, SetReg)
from .config import BenchConfig

ATTACK_POOL_PAGES = 16
VICTIM_VRAM_BYTES = 8192
VICTIM_GTT_BYTES = 4096
# an aperture page mapped only in the victim's table
EXTRA_PAGE_IADDR = APERTURE_BASE + ATTACK_POOL_PAGES * PAGE_SIZE
# an aperture page mapped in nobody's table
NOWHERE_IADDR = APERTURE_BASE + 0x100000


def attack_config(base: BenchConfig = None) -> BenchConfig:
    """Shrink the world so the whole suite stays fast."""
    base = base or BenchConfig()
    return dataclasses.replace(base, vram_bytes=2 << 20,
                               segment_bytes=256 << 10,
                               pool_pages=ATTACK_POOL_PAGES,
                               legacy_pool_pages=ATTACK_POOL_PAGES,
                               sysmem_pages=512)


class CaseFail(Exception):
    pass


def _expect(cond: bool, msg: str):
    if not cond:
        raise CaseFail(msg)


def _pattern(n: int, seed: int) -> bytes:
    return bytes((i * 37 + seed) & 0xFF for i in range(n))


class Arena:
    """Fresh world with a victim (revoked, holding state) and an attacker."""

    def __init__(self, config: BenchConfig):
        from .world import build_world
        self.world = build_world(config, "library", "builtin")
        self.core: DeviceCore = self.world.core
        self.device = self.world.device
        self.platform = self.world.platform

        victim = LibraryDriver(self.core, "victim",
                               pool_pages=ATTACK_POOL_PAGES)
        self.victim = victim
        extra_vaddr = self.platform.alloc_pages("victim", 1)[0]
        self.core.iommu_map_page(victim.lib_id, extra_vaddr, EXTRA_PAGE_IADDR)
        self.extra_frame = self.platform.resolve("victim", extra_vaddr)
        self.platform.sysmem.write(self.extra_frame, 0,
                                   _pattern(PAGE_SIZE, 3))

        self.core.bind_device_lib(victim.lib_id)
        h_vram = victim.create_buffer(VICTIM_VRAM_BYTES, VRAM)
        victim.write_buffer(h_vram, 0, _pattern(VICTIM_VRAM_BYTES, 5))
        h_gtt = victim.create_buffer(VICTIM_GTT_BYTES, GTT)
        victim.write_buffer(h_gtt, 0, _pattern(VICTIM_GTT_BYTES, 7))
        self.core.revoke_device_lib(victim.lib_id)

        self.baseline = self._victim_bytes()

        self.attacker = LibraryDriver(self.core, "attacker",
                                      pool_pages=ATTACK_POOL_PAGES)
        self.core.bind_device_lib(self.attacker.lib_id)

    def _victim_bytes(self) -> dict:
        ctx = self.core.contexts[self.victim.lib_id]
        mem = self.platform.sysmem
        pages = [bytes(mem.read(f, 0, PAGE_SIZE)) for f in self.victim.pool.frames]
        pages.append(bytes(mem.read(self.extra_frame, 0, PAGE_SIZE)))
        return {"vram": bytes(self.device.vram[ctx.segment_base:ctx.segment_limit]),
                "pages": pages}

    def attacker_copy_to(self, dst_iaddr: int):
        """Submit one DMA write landing on dst_iaddr; return the fence seq."""
        h = self.attacker.create_buffer(64, GTT)
        src = self.attacker.buffers[h].device_addr
        return self.attacker.submit([Copy(dst_iaddr, src, 4)])

    def expect_batch_fault(self, seq: int, flag: int, what: str):
        try:
            self.attacker.wait_fence(seq)
        except DeviceFault as e:
            _expect(e.flags & flag, f"{what}: wrong fault flags {e.flags:#x}")
            return
        raise CaseFail(f"{what}: batch completed instead of faulting")

    def finish(self):
        if self.core.bound is not None:
            self.core.revoke_device_lib(self.core.bound)

    def check_victim(self) -> str:
        after = self._victim_bytes()
        if after["vram"] != self.baseline["vram"]:
            return "victim VRAM segment was modified"
        for i, (a, b) in enumerate(zip(self.baseline["pages"], after["pages"])):
            if a != b:
                return f"victim system page {i} was modified"
        return ""


# --- cases ----------------------------------------------------------------

def case_dma_unmapped(arena: Arena):
    """DMA write through an aperture address nobody mapped."""
    seq = arena.attacker_copy_to(NOWHERE_IADDR)
    arena.expect_batch_fault(seq, FLAG_IOMMU_FAULT, "unmapped DMA")
    return "unmapped aperture write faulted before touching memory"


def case_dma_foreign_page(arena: Arena):
    """DMA write to a page mapped only in the victim's table."""
    seq = arena.attacker_copy_to(EXTRA_PAGE_IADDR)
    arena.expect_batch_fault(seq, FLAG_IOMMU_FAULT, "foreign-page DMA")
    return "victim-only mapping is invisible to the attacker's table"


def case_vram_out_of_segment(arena: Arena):
    """VRAM write past the attacker's own segment limit."""
    seg = arena.world.config.segment_bytes
    seq = arena.attacker_copy_to(seg)  # first byte past the window
    arena.expect_batch_fault(seq, FLAG_MC_FAULT, "out-of-segment VRAM")
    return "segment-relative addressing faulted at the limit"


def case_setreg_privileged(arena: Arena):
    """SET_REG from the command stream aimed at privileged registers."""
    before_base = arena.device.regs[REG_MC_SEG_BASE]
    for reg in (REG_MC_SEG_BASE, REG_IOMMU_ROOT, REG_DISP_ENABLE):
        seq = arena.attacker.submit([SetReg(reg, 0)])
        arena.expect_batch_fault(seq, FLAG_CMD_FAULT, f"SET_REG {reg:#x}")
    _expect(arena.device.regs[REG_MC_SEG_BASE] == before_base,
            "MC_SEG_BASE changed under SET_REG attack")
    return "stream writes outside the scratch range all faulted"


def case_mmio_privileged(arena: Arena):
    """Direct register access to every privileged offset, read and write."""
    lib = arena.attacker.lib_id
    refused = 0
    for reg in sorted(S_REGISTERS):
        for is_write in (False, True):
            try:
                arena.core.access_register(lib, reg, 0, is_write)
            except PermError:
                refused += 1
            else:
                raise CaseFail(f"register {reg:#x} "
                               f"{'write' if is_write else 'read'} allowed")
    return f"all {refused} privileged accesses refused"


def case_ring_unmapped(arena: Arena):
    """Point the ring base at unmapped space and trigger a fetch."""
    lib = arena.attacker.lib_id
    core = arena.core
    core.access_register(lib, REG_IH_PAGE_ADDR, APERTURE_BASE, True)
    core.access_register(lib, REG_RB_SIZE, 4096, True)
    core.access_register(lib, REG_RB_BASE, NOWHERE_IADDR, True)
    core.access_register(lib, REG_RB_TAIL, 8, True)
    arena.world.step_device(RUN_TO_IDLE)
    _expect(arena.device.pending_flags & FLAG_IOMMU_FAULT,
            "fetch from unmapped ring did not fault")
    _expect(arena.device.cp_idle, "device still running after ring fault")
    return "instruction fetch through the attacker's table faulted"


def case_post_revoke_access(arena: Arena):
    """Keep calling in after the scheduler revoked the device."""
    lib = arena.attacker.lib_id
    arena.core.revoke_device_lib(lib)
    try:
        arena.core.access_register(lib, REG_RB_TAIL, 8, True)
    except NotBoundError:
        pass
    else:
        raise CaseFail("register access allowed while revoked")
    try:
        arena.attacker.submit([])
    except NotBoundError:
        pass
    else:
        raise CaseFail("submit allowed while revoked")
    _expect(arena.device.regs[REG_RB_TAIL] == 0,
            "revoked library still moved the ring tail")
    return "revoked library cannot reach the device"


def case_status_page_unmapped(arena: Arena):
    """Repoint the status page at unmapped space, then fence."""
    attacker = arena.attacker
    seq1 = attacker.submit([])
    attacker.wait_fence(seq1)
    arena.core.access_register(attacker.lib_id, REG_IH_PAGE_ADDR,
                               NOWHERE_IADDR, True)
    attacker.submit([])
    arena.world.step_device(RUN_TO_IDLE)
    _expect(arena.device.pending_flags & FLAG_IOMMU_FAULT,
            "fence to unmapped status page did not fault")
    completed, _, _ = attacker.pool.read_status()
    _expect(completed == seq1, "stale status page was overwritten anyway")
    return "fence write-back faulted; only the attacker lost its updates"


CASES = {
    "dma-unmapped": case_dma_unmapped,
    "dma-foreign-page": case_dma_foreign_page,
    "vram-out-of-segment": case_vram_out_of_segment,
    "setreg-privileged": case_setreg_privileged,
    "mmio-privileged": case_mmio_privileged,
    "ring-unmapped": case_ring_unmapped,
    "post-revoke-access": case_post_revoke_access,
    "status-page-unmapped": case_status_page_unmapped,
}


@dataclass
class AttackOutcome:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "contained" if self.passed else "ESCAPED"
        return f"{self.name:24s} {status}  {self.detail}"


def run_attacks(config: BenchConfig = None, case: str = None) -> list:
    from ..errors import InvalError
    if case is not None and case not in CASES:
        raise InvalError(f"unknown attack case {case!r}; "
                         f"choose from {', '.join(CASES)}")
    cfg = attack_config(config)
    outcomes = []
    for name in ([case] if case else CASES):
        arena = Arena(cfg)
        try:
            detail = CASES[name](arena)
            arena.finish()
            diff = arena.check_victim()
            if diff:
                outcomes.append(AttackOutcome(name, False, diff))
            else:
                outcomes.append(AttackOutcome(name, True, detail))
        except CaseFail as e:
            outcomes.append(AttackOutcome(name, False, str(e)))
    return outcomes
