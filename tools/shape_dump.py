"""Print the bench harness's costs and results for a fixed set of shapes as
one sorted JSON document: per-iteration ledger rows, totals and digests of
each (workload, size, driver, IOMMU), schedules, switch timing and the
attack outcomes.  A refactor that keeps behaviour leaves it byte-identical.

    PYTHONPATH=src python tools/shape_dump.py > shapes.json
"""

import json

from devmux.bench import (WorkloadSpec, measure_switch, run_attacks,
                          run_schedule, run_workload)

SIZES = {"matmul": (1, 2, 4, 16, 26, 27, 32),
         "vertex-array": (1, 8, 48), "display-list": (1, 8, 48)}
KINDS = ("matmul", "vertex-array", "display-list")

out = {"workloads": [], "schedules": [], "switch": [], "attacks": []}
for kind, sizes in SIZES.items():
    for size in sizes:
        for driver in ("library", "legacy"):
            for iommu in ("builtin", "system"):
                spec = WorkloadSpec(kind, size, 3, driver, iommu)
                out["workloads"].append(run_workload(spec).to_dict())
for libs in (2, 3):
    for epoch in (10, 100, 500, 5000):
        specs = [WorkloadSpec(KINDS[i], 4, 3) for i in range(libs)]
        out["schedules"].append([r.to_dict() for r in run_schedule(specs, epoch)])
# batches that run for longer than one scheduler step
for epoch in (64, 5000):
    specs = [WorkloadSpec("matmul", 32, 2), WorkloadSpec("vertex-array", 48, 2)]
    out["schedules"].append([r.to_dict() for r in run_schedule(specs, epoch)])
for pages in (64, 1024):
    out["switch"].append(measure_switch(pool_pages=pages).to_dict())
out["attacks"] = [[o.name, o.passed, o.detail] for o in run_attacks()]
print(json.dumps(out, indent=1, sort_keys=True))
