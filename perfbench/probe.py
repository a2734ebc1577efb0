"""Set-up probe of the mmfp benchmark.

    python3 perfbench/probe.py WORKLOAD SEED

Imports mmfp from ``src/``, builds the scenarios and problems of the
workload's first pass for ``SEED``, prints ``ready`` and exits. ``run.py``
times it from launch to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    workload = workloads.WORKLOADS[sys.argv[1]]
    for iid in workload.pass_ids(workloads.load_pins(), int(sys.argv[2]), 0):
        workload.setup(iid)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
