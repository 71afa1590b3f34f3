"""Cooperative scheduling of several library drivers on one device.

The scheduler owns the two privileged entry points (bind/revoke) and runs
round-robin epochs: bind a library, let it submit and the device execute
for up to ``epoch`` cycles, then revoke (which drains in-flight work; there
is no preemption).  Results must be bit-identical to solo runs.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from ..errors import InvalError, VerifyFail
from ..libdrv import LibraryDriver
from .config import BenchConfig
from .report import RunReport
from .world import World, build_world

SWITCH_CYCLES_DEFAULT = 100


def run_schedule(specs: list, epoch: int, config: BenchConfig = None) -> list:
    """Run all specs interleaved on one device; verify against solo runs.

    Returns one RunReport per spec with digests ``result`` (scheduled) and
    ``solo`` (from a fresh single-tenant world).  A mismatch raises
    VerifyFail: scheduling must not change results.
    """
    if not specs:
        raise InvalError("empty schedule")
    if any(s.driver != "library" for s in specs):
        raise InvalError("only library-driver workloads can be scheduled")
    if len({s.iommu for s in specs}) > 1:
        raise InvalError("scheduled workloads share one device: give them one iommu")
    if epoch <= 0:
        raise InvalError("epoch must be positive")
    config = config or BenchConfig()

    from .workloads import make_program, run_workload

    world = build_world(config, "library", specs[0].iommu)
    programs = [make_program(world, spec) for spec in specs]
    for program in programs:
        program.prepare()

    while not all(p.done for p in programs):
        for program in programs:
            if program.done:
                continue
            world.core.bind_device_lib(program.lib_id)
            if not program.started:
                program.start()
            _run_epoch(world, program, epoch)
            world.core.revoke_device_lib(program.lib_id)

    reports = []
    for spec, program in zip(specs, programs):
        world.core.bind_device_lib(program.lib_id)
        digests = program.finalize()
        world.core.revoke_device_lib(program.lib_id)
        solo = run_workload(spec, config)
        digests = dict(digests)
        digests["solo"] = solo.digests["result"]
        if digests["result"] != digests["solo"]:
            raise VerifyFail(f"scheduled result differs from solo run "
                             f"for {spec.as_dict()}")
        reports.append(RunReport(spec=spec.as_dict(), per_iteration=[],
                                 ledger=world.ledger.snapshot(),
                                 digests=digests))
    return reports


def _run_epoch(world: World, program, epoch: int):
    # After advance() the device holds the program's unretired fence, so a
    # step that uses no cycles has faulted and the next advance() raises.
    stepped = 0
    while stepped < epoch and not program.done:
        program.advance()
        stepped += world.step_device(epoch - stepped)


@dataclass
class SwitchReport:
    cycles: int
    pool_pages: int
    mean: float
    stdev: float
    snapshots: int
    restores: int
    samples: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"cycles": self.cycles, "pool_pages": self.pool_pages,
                "mean": self.mean, "stdev": self.stdev,
                "snapshots": self.snapshots, "restores": self.restores}


def measure_switch(config: BenchConfig = None, pool_pages: int = None,
                   cycles: int = SWITCH_CYCLES_DEFAULT) -> SwitchReport:
    """Measure revoke+bind round-trips between two idle libraries.

    Nothing is in flight, so every switch costs exactly two privileged
    calls; the cost must not depend on how much memory the libraries map.
    """
    if cycles < 1:
        raise InvalError(f"switch cycles must be at least 1, got {cycles}")
    config = config or BenchConfig()
    pool = config.pool_pages if pool_pages is None else pool_pages
    world = build_world(config, "library", "builtin")
    core = world.core
    a = LibraryDriver(core, "switch-a", pool_pages=pool)
    b = LibraryDriver(core, "switch-b", pool_pages=pool)

    core.bind_device_lib(a.lib_id)
    snap0, rest0 = core.snapshot_count, core.restore_count
    samples = []
    current, other = a, b
    for _ in range(cycles):
        before = world.ledger.simulated_time()
        core.revoke_device_lib(current.lib_id)
        core.bind_device_lib(other.lib_id)
        samples.append(world.ledger.simulated_time() - before)
        current, other = other, current
    snapshots = core.snapshot_count - snap0
    restores = core.restore_count - rest0
    core.revoke_device_lib(current.lib_id)

    return SwitchReport(cycles=cycles, pool_pages=pool,
                        mean=statistics.fmean(samples),
                        stdev=statistics.pstdev(samples),
                        snapshots=snapshots, restores=restores,
                        samples=samples)
