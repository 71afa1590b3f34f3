"""Acceptance suite: one test per shipping criterion, C1 through C10.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  Every expected value here is either a host-side recomputation or
a second, independent route through the system; nothing is copied from the
implementation under test.
"""

import random
import struct
import time

import pytest

from conftest import UnflushedRootIommu, make_device, make_platform
from devmux.bench.attacks import run_attacks
from devmux.bench.cli import main
from devmux.bench.config import BenchConfig, WorkloadSpec
from devmux.bench.schedule import measure_switch, run_schedule
from devmux.bench.workloads import (matmul_fill_a, matmul_fill_b,
                                    matmul_oracle, run_workload, speedup)
from devmux.devcore import DeviceCore
from devmux.errors import IommuFault
from devmux.libdrv import LibraryDriver
from devmux.simdev import (PAGE_SIZE, REG_FB_BASE, SCRATCH_REGISTERS,
                           IommuUnit, PageTable, SetReg, fnv1a64)


def _announce(criterion: str, label: str):
    print(f"[ACCEPTANCE] {criterion} {label}: PASS")


def test_c01_containment():
    start = time.monotonic()
    outcomes = run_attacks()
    assert len(outcomes) == 8
    for outcome in outcomes:
        assert outcome.passed, f"{outcome.name}: {outcome.detail}"
    assert main(["attack"]) == 0
    assert time.monotonic() - start < 10.0
    _announce("C1", "containment, 8/8 attacks held, exit 0")


def test_c02_api_surface():
    platform = make_platform()
    core = DeviceCore(platform, make_device(platform))
    assert core.api_surface() == (
        "init_device_lib", "iommu_map_page", "iommu_unmap_page",
        "alloc_device_memory", "release_device_memory", "access_register",
        "set_mode",
        "bind_device_lib", "revoke_device_lib")
    assert len(core.api_surface()) == 9

    # the no-device-memory build, translation on the device's built-in unit
    platform2 = make_platform()
    device2 = make_device(platform2, vram=0)
    assert device2.active_iommu is device2.iommu
    lean = DeviceCore(platform2, device2)
    assert len(lean.api_surface()) == 7
    assert "alloc_device_memory" not in lean.api_surface()
    assert "release_device_memory" not in lean.api_surface()
    _announce("C2", "API surface is 9 calls (7 on the lean build)")


def test_c03_functional_equivalence():
    start = time.monotonic()
    config = BenchConfig()
    for n in (2, 4, 16, 64):
        host = matmul_oracle(n, matmul_fill_a(n), matmul_fill_b(n))
        want = f"{fnv1a64(struct.pack(f'<{n * n}I', *host)):016x}"
        for driver in ("library", "legacy"):
            for iommu in ("system", "builtin"):
                spec = WorkloadSpec(kind="matmul", size=n, iters=2,
                                    driver=driver, iommu=iommu)
                got = run_workload(spec, config).digests["result"]
                assert got == want, (n, driver, iommu)
    assert time.monotonic() - start < 60.0
    _announce("C3", "matmul digests equal everywhere and match the host oracle")


def test_c04_matmul_speedup_trend():
    config = BenchConfig()
    # the trends below are claimed under exactly these cost constants
    assert (config.crossing_cost, config.byte_cost, config.validated_cost,
            config.cycle_cost, config.core_call_cost) == \
        (1000.0, 0.25, 2.0, 1.0, 10.0)
    s = {n: speedup("matmul", n, iters=4, config=config) for n in (4, 16, 64)}
    assert s[4] > 1.05
    assert s[4] >= s[16] >= s[64]
    _announce("C4", f"speedup {s[4]:.2f} at n=4, non-increasing to n=64")


def test_c05_graphics_speedup_and_hot_loop():
    config = BenchConfig()
    va = speedup("vertex-array", 8, iters=5, config=config)
    dl = speedup("display-list", 8, iters=5, config=config)
    assert va >= 1.10 * dl
    for kind in ("vertex-array", "display-list"):
        spec = WorkloadSpec(kind=kind, size=8, iters=5, driver="library")
        report = run_workload(spec, config)
        for row in report.per_iteration[1:]:
            assert row["crossings"] == 1
            assert row["bytes_copied"] == 0
    _announce("C5", f"vertex-array {va:.2f}x vs display-list {dl:.2f}x; "
                    "steady frames cost 1 crossing, 0 bytes")


def test_c06_constant_work_switching():
    config = BenchConfig()
    reports = {pages: measure_switch(config, pool_pages=pages, cycles=100)
               for pages in (64, 1024)}
    for report in reports.values():
        assert report.stdev == 0.0
        assert report.snapshots == report.restores == 100
    assert reports[64].mean == reports[1024].mean
    _announce("C6", f"switch cost {reports[64].mean:.0f} for 64 and 1024 "
                    "page pools, sigma=0")


def test_c07_scheduler_equivalence():
    config = BenchConfig()
    spec = WorkloadSpec(kind="matmul", size=4, iters=3)
    for libs in (2, 3):
        for epoch in (100, 500, 5000):
            for report in run_schedule([spec] * libs, epoch, config):
                assert report.digests["result"] == report.digests["solo"], \
                    (libs, epoch)
    _announce("C7", "interleaved digests equal solo digests, 2 and 3 libs, "
                    "epochs 100/500/5000")


def test_c08_snapshot_round_trip_and_flush():
    platform = make_platform(frames=2048)
    device = make_device(platform, vram=4 << 20)
    core = DeviceCore(platform, device, segment_bytes=1 << 20)
    libs = [LibraryDriver(core, f"app{i}", pool_pages=8) for i in range(3)]
    tracked = SCRATCH_REGISTERS + (REG_FB_BASE,)
    shadow = {lib.lib_id: dict.fromkeys(tracked, 0) for lib in libs}
    rng = random.Random(0xC8)
    for _ in range(1000):
        lib = rng.choice(libs)
        tlb, cache = core.tlb_flush_count, core.cache_flush_count
        core.bind_device_lib(lib.lib_id)
        assert core.tlb_flush_count == tlb + 1    # every bind flushes
        assert core.cache_flush_count == cache + 1
        expect = shadow[lib.lib_id]
        for reg in tracked:
            assert core.access_register(lib.lib_id, reg, 0, False) == expect[reg]
        if rng.random() < 0.5:
            # the device itself updates a register through the ring
            reg = rng.choice(SCRATCH_REGISTERS)
            value = rng.randrange(1 << 32)
            lib.wait_fence(lib.submit([SetReg(reg, value)]))
            expect[reg] = value
        for _ in range(rng.randrange(3)):
            reg = rng.choice(tracked)
            value = rng.randrange(1 << 32)
            core.access_register(lib.lib_id, reg, value, True)
            expect[reg] = value
        core.revoke_device_lib(lib.lib_id)
        snap = core.contexts[lib.lib_id].snapshot
        for reg in tracked:
            assert snap[reg] == expect[reg]

    # negative control: without the flush, a root change serves stale frames
    tables = {1: PageTable(), 2: PageTable()}
    tables[1].map(0, 7)
    tables[2].map(0, 9)
    unit = UnflushedRootIommu(tables)
    IommuUnit.set_root(unit, 1)
    assert unit.translate(0, False)[0] == 7
    IommuUnit.set_root(unit, 2)
    assert unit.translate(0, False)[0] == 9   # flushing root change: correct
    unit.set_root(1)
    assert unit.translate(0, False)[0] == 9   # stale entry: mistranslation
    unit.tlb_flush()
    assert unit.translate(0, False)[0] == 7
    _announce("C8", "1000 snapshot round-trips, flush on every bind, "
                    "stale-TLB hazard demonstrated")


def test_c09_translation_oracle():
    rng = random.Random(0xC9)
    table = PageTable()
    unit = IommuUnit({1: table}, tlb_entries=16)
    unit.set_root(1)
    window_pages = 128
    mapped = {}  # page -> (frame, writable): the independent shadow
    next_frame = 1
    accesses = 0
    for _ in range(10_000):
        roll = rng.random()
        if roll < 0.20:
            page = rng.randrange(window_pages)
            if page not in mapped:
                writable = rng.random() < 0.7
                table.map(page * PAGE_SIZE, next_frame, writable)
                mapped[page] = (next_frame, writable)
                next_frame += 1
        elif roll < 0.35 and mapped:
            page = rng.choice(sorted(mapped))
            table.unmap(page * PAGE_SIZE)
            del mapped[page]
            unit.tlb_flush()  # the discipline every unmap path follows
        else:
            off = rng.randrange(window_pages * PAGE_SIZE)
            is_write = rng.random() < 0.5
            entry = mapped.get(off >> 12)
            if entry is None or (is_write and not entry[1]):
                want = None
            else:
                want = (entry[0], off & 0xFFF)
            try:
                got = unit.translate(off, is_write)
            except IommuFault:
                got = None
            assert got == want
            accesses += 1
    assert accesses > 5000
    _announce("C9", f"{accesses} TLB translations equal the shadow walk")


def test_c10_launch_overhead():
    config = BenchConfig()
    spec = WorkloadSpec(kind="matmul", size=4, iters=6, driver="library")
    report = run_workload(spec, config)
    assert report.first_iteration_time > report.steady_mean

    platform = make_platform(frames=600)
    device = make_device(platform, vram=4 << 20)
    core = DeviceCore(platform, device, segment_bytes=1 << 20)
    before = platform.ledger.crossings
    LibraryDriver(core, "app", pool_pages=256)
    assert platform.ledger.crossings - before == 256 + 1
    _announce("C10", f"first iteration {report.first_iteration_time:.0f} > "
                     f"steady {report.steady_mean:.0f}; init crossings = "
                     "pool pages + 1")
