"""Benchmark configuration: cost constants and world sizing.

Config files are flat ``key = value`` lines (``#`` comments allowed); keys
match the BenchConfig field names.  Integer fields accept 0x-prefixed hex.
No value may be negative, and a cost must be finite.
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass

from devmux import devcore, legacydrv, libdrv, platform, simdev
from devmux.errors import InvalError

WORKLOAD_KINDS = ("matmul", "vertex-array", "display-list")
DRIVERS = ("library", "legacy")
IOMMUS = ("system", "builtin")


@dataclass
class BenchConfig:
    # cost-model constants
    crossing_cost: float = platform.COST_CROSSING
    byte_cost: float = platform.COST_PER_BYTE
    validated_cost: float = platform.COST_PER_VALIDATED
    cycle_cost: float = platform.COST_PER_CYCLE
    core_call_cost: float = platform.COST_PER_CORE_CALL
    # world sizing
    pool_pages: int = libdrv.POOL_PAGES_DEFAULT
    legacy_pool_pages: int = legacydrv.POOL_PAGES_DEFAULT
    segment_bytes: int = devcore.SEGMENT_BYTES_DEFAULT
    vram_bytes: int = simdev.VRAM_SIZE_DEFAULT
    sysmem_pages: int = platform.SYSMEM_FRAMES_DEFAULT

    @classmethod
    def from_file(cls, path: str) -> "BenchConfig":
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        values = {}
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise InvalError(f"{path}: cannot read: {exc.strerror}")
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise InvalError(f"{path}:{lineno}: not UTF-8 text")
        for lineno, raw in enumerate(io.StringIO(text, newline=None), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in types:
                raise InvalError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                if types[key] in ("int", int):
                    values[key] = int(value, 0)
                else:
                    values[key] = float(value)
            except ValueError as exc:
                raise InvalError(f"{path}:{lineno}: bad value for {key}: {exc}")
            # nan and inf parse as floats; no field takes a negative value
            if not 0 <= values[key] < math.inf:
                raise InvalError(f"{path}:{lineno}: {key} must be a finite "
                                 f"number >= 0, got {value}")
        return cls(**values)


@dataclass
class WorkloadSpec:
    kind: str = "matmul"
    size: int = 4
    iters: int = 10
    driver: str = "library"
    iommu: str = "builtin"

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise InvalError(f"unknown workload {self.kind!r}")
        if self.driver not in DRIVERS:
            raise InvalError(f"unknown driver {self.driver!r}")
        if self.iommu not in IOMMUS:
            raise InvalError(f"unknown iommu {self.iommu!r}")
        if self.size < 1 or self.iters < 1:
            raise InvalError("size and iters must be at least 1")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)
