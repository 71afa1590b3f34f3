"""World construction: one simulated machine per benchmark run.

A world is a platform, a device, and exactly one driver stack over it.  The
``iommu`` switch decides which translation unit the device consults: its
built-in one or a separate platform-owned unit (same table format, same
behavior, different location).  Both deployments must be indistinguishable
in results.
"""

from __future__ import annotations

from ..devcore import DeviceCore
from ..legacydrv import LegacyDriver
from ..platform import CostLedger, Platform
from ..simdev import IommuUnit, SimDevice
from .config import BenchConfig


class World:
    def __init__(self, config: BenchConfig, driver: str, iommu: str):
        self.config = config
        ledger = CostLedger(crossing_cost=config.crossing_cost,
                            byte_cost=config.byte_cost,
                            validated_cost=config.validated_cost,
                            cycle_cost=config.cycle_cost,
                            core_call_cost=config.core_call_cost)
        self.platform = Platform(config.sysmem_pages, ledger)
        self.device = SimDevice(self.platform.sysmem,
                                vram_size=config.vram_bytes)
        if iommu == "system":
            self.device.active_iommu = IommuUnit(self.device.translation_tables)
        self.core = None
        self.legacy = None
        if driver == "library":
            self.core = DeviceCore(self.platform, self.device,
                                   segment_bytes=config.segment_bytes)
        else:
            self.legacy = LegacyDriver(self.platform, self.device,
                                       pool_pages=config.legacy_pool_pages)

    @property
    def ledger(self) -> CostLedger:
        return self.platform.ledger

    def step_device(self, budget: int) -> int:
        return self.ledger.run(self.device, budget)


def build_world(config: BenchConfig, driver: str, iommu: str) -> World:
    return World(config, driver, iommu)
