"""One cold start of a workload.

    python3 perfbench/coldstart.py WORKLOAD SEED

A fresh interpreter imports the simulator, sets the workload up (fresh
results directory, anchors, captures, warm-up query) and exits: 0 when
every set-up check passed, 1 otherwise.  ``run.py`` times whole cold
starts from outside for ``setup_s``.
"""

from __future__ import annotations

import sys

from run import OUT_DIR, import_repro


def main(workload: str, seed: int) -> int:
    import_repro()
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[workload](seed, OUT_DIR)
    try:
        wl.setup()
    finally:
        wl.close()
    failed = [(lbl, msg) for lbl, msg in wl.setup_checks if msg]
    for lbl, msg in failed:
        print(f"perfbench: cold start FAILED {lbl}: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
