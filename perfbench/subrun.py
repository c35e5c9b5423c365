"""One sub-run of one workload, in a fresh interpreter.

``run.py`` starts this script once per sub-run, so every sub-run begins
with the same heap: set-up time, peak-RSS growth and GC pauses do not
depend on what earlier sub-runs left behind.  Prints one JSON object (the
workload's raw measurements) as the last line of standard output.

    python3 perfbench/subrun.py --workload log-virtual-crash --seed 7 --length 0.4 --phase 0.5 --trace 0
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--length", type=float, required=True,
        help="measured window in wall seconds (virtual seconds of "
        "schedule for log-virtual-crash)",
    )
    parser.add_argument(
        "--phase", type=float, default=0.5,
        help="log-virtual-crash: where in the detector period the leader "
        "crashes (0..1)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from layers import LayerClock, install
    import workloads

    layers = None
    if args.trace:
        layers = LayerClock()
        install(layers)
    result = workloads.run_workload(
        args.workload, args.seed, args.length, args.phase, layers
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
