"""Shared helpers: standalone device bring-up and packing utilities."""

import struct

import pytest
from hypothesis import Phase, settings

from devmux import simdev
from devmux.devcore import DeviceCore
from devmux.errors import CmdFault, HardwareFault
from devmux.platform import CostLedger, Platform
from devmux.simdev import (CO_ADD, CO_DOT, FENCE_IRQ, FLAG_FENCE,
                           FW_CTRL_READY, MASK32, OP_COMPUTE, OP_COPY,
                           OP_FENCE, OP_SET_REG, REG_FW_CTRL,
                           REG_IH_PAGE_ADDR, REG_IRQ_ENABLE, REG_MC_SEG_BASE,
                           REG_MC_SEG_LIMIT, REG_RB_BASE, REG_RB_HEAD,
                           REG_RB_SIZE, REG_RB_TAIL, SCRATCH_REGISTERS, WORD,
                           ExecReport, IommuUnit, SimDevice, encode_batch)

# opt in with `pytest --hypothesis-profile=mutation`: a failing example is
# reported as found, not shrunk, so a run under a mutant stops in seconds
settings.register_profile("mutation", phases=(Phase.explicit, Phase.reuse,
                                              Phase.generate))

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
                        self._write_run(dst, out)
                    elif sub == CO_DOT:
                        self._write_run(dst, [0])
                elif opcode == OP_COPY:
                    dst, src, count = words[1:]
                    if count:
                        self._write_run(dst, self._read_run(src, count))
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
