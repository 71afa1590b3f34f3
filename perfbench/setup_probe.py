"""Time one set-up of both stacks in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD library,legacy

Prints one JSON object: the set-up's host seconds and the factor that
scales them to nominal host speed.  ``run.py`` starts one probe per set-up
sample, so each set-up starts from nothing, as a user's does, and not from
the allocator state an earlier set-up left behind.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv) -> int:
    workload, order = argv[0], argv[1].split(",")
    sys.path.insert(0, run.SRC)
    from devmux.bench import BenchConfig
    config = BenchConfig()
    run.warm_up()
    _, seconds, scale = run.gauged(lambda: run.set_up(workload, order, config))
    print(json.dumps({"seconds": seconds, "scale": scale}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
