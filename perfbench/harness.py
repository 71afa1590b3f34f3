"""The three benchmark workloads, driven on one driver stack from outside.

A ``Stack`` holds one world (platform, device and one driver stack) with
the programs of one workload.  It touches the system only through public
calls: ``build_world``, ``make_program``, ``Program.prepare/start/iterate/
advance/finalize``, ``DeviceCore.bind_device_lib/revoke_device_lib`` and
``World.step_device``.  Construction is set-up; ``step()`` runs one
iteration, frame or round and returns only when its fences have retired.

Inputs are fixed functions of the workload size and the step index (the
programs' own fills), so every run simulates exactly the same work.
"""

from __future__ import annotations

from devmux.bench import BenchConfig, WorkloadSpec, workloads, world

# Programs stop after ``iters`` iterations; the benchmark stops on time.
UNBOUNDED_ITERS = 1 << 40

MATMUL_SIZE = 32         # 1024 DOTs of 32 terms per iteration
STREAM_SIZE = 48         # 3072 vertex words: 12 KiB uploaded per frame
TENANTS = 8
TENANT_SIZE = 4          # 16 DOTs per iteration: fetch-bound batches
TENANT_EPOCH = 64        # device cycles a bound tenant may step per round
EPOCH_IDLE_LIMIT = 2     # idle device steps before a tenant yields early


def workload_specs(workload: str, driver: str, iters: int = UNBOUNDED_ITERS) -> list:
    """The repo's own specs for one workload on one stack."""
    if workload == "matmul":
        return [WorkloadSpec("matmul", MATMUL_SIZE, iters, driver, "builtin")]
    if workload == "stream":
        return [WorkloadSpec("vertex-array", STREAM_SIZE, iters, driver, "builtin")]
    if workload == "tenants":
        return [WorkloadSpec("matmul", TENANT_SIZE, iters, driver, "builtin")
                for _ in range(TENANTS)]
    raise ValueError(f"unknown workload {workload!r}")


class Stack:
    """One stack set up for one workload, ready for its first step."""

    def __init__(self, workload: str, driver: str, config: BenchConfig):
        self.world = world.build_world(config, driver, "builtin")
        self.ledger_at_build = self.world.ledger.snapshot()
        self.programs = [workloads.make_program(self.world, spec)
                         for spec in workload_specs(workload, driver)]
        for program in self.programs:
            program.prepare()
        # Tenant libraries are first bound inside the first round, as the
        # repo's scheduler does; a solo library is bound once, here.
        self.scheduled = workload == "tenants" and driver == "library"
        if not self.scheduled:
            for program in self.programs:
                if program.needs_bind:
                    self.world.core.bind_device_lib(program.lib_id)
                program.start()

    @property
    def ledger(self):
        return self.world.ledger

    def step(self):
        if self.scheduled:
            for program in self.programs:
                self._run_epoch(program)
        else:
            for program in self.programs:
                program.iterate()

    def _run_epoch(self, program):
        """Bind, submit and step for one epoch, then revoke (which drains)."""
        core = self.world.core
        core.bind_device_lib(program.lib_id)
        if not program.started:
            program.start()
        stepped = idle = 0
        while stepped < TENANT_EPOCH and not program.done:
            program.advance()
            used = self.world.step_device(TENANT_EPOCH - stepped)
            if used:
                stepped += used
                idle = 0
            else:
                idle += 1
                if idle > EPOCH_IDLE_LIMIT:
                    break
        core.revoke_device_lib(program.lib_id)

    def finalize(self) -> list:
        """Read every result back and check it against the host oracle.

        Returns the result digests; ``VerifyFail`` propagates.
        """
        digests = []
        core = self.world.core
        for program in self.programs:
            if not self.scheduled:
                digests.append(program.finalize()["result"])
                continue
            core.bind_device_lib(program.lib_id)
            try:
                digests.append(program.finalize()["result"])
            finally:
                core.revoke_device_lib(program.lib_id)
        return digests
