"""Shared helpers: standalone device bring-up and packing utilities."""

import struct

import pytest

from devmux import simdev
from devmux.devcore import DeviceCore
from devmux.platform import CostLedger, Platform
from devmux.simdev import (REG_IH_PAGE_ADDR, REG_IRQ_ENABLE, REG_MC_SEG_BASE,
                           REG_MC_SEG_LIMIT, REG_RB_BASE, REG_RB_SIZE,
                           REG_RB_TAIL, WORD, IommuUnit, SimDevice,
                           encode_batch)

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
    """A device whose operand runs all decode through ``_decode_run``: the
    reference for the inline device-local path of ``SimDevice``."""

    def _read_run(self, da: int, n_words: int):
        words = []
        for space, addr, count in self._decode_run(da, n_words, False):
            words.extend(self.cache.read(space, addr, count))
        return words

    def _write_run(self, da: int, words):
        k = 0
        for space, addr, count in self._decode_run(da, len(words), True):
            self._drop_window_over(space, addr, addr + (count - 1) * WORD)
            self.cache.put_run(space, addr, words[k:k + count])
            k += count


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
    """(platform, device, initialized core) with small segments."""
    platform = make_platform(frames=1024)
    device = make_device(platform, vram=4 << 20)
    core = DeviceCore(platform, device, segment_bytes=1 << 20)
    core.device_init()
    return platform, device, core
