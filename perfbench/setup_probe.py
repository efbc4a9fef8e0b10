"""Set-up time of one fresh interpreter: conekit's import plus the workload's first op.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Prints one JSON object: {"setup_s": ..., "slice_s": ..., "ok": ...}.
`import conekit`, the import of the benchmark's workload module (which loads
conekit.cli and conekit.matio, and a few milliseconds of its own) and the
first op are timed; generating that op's inputs is not.  This is where lazy
set-up or a JIT compile would show.  `slice_s` is the median of a few
host-speed calibration slices timed right after, which the caller uses to
rescale `setup_s` to the reference host speed.
"""

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SLICES = 5


def main():
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    start = time.perf_counter()
    import conekit  # noqa: F401
    import workloads
    imported = time.perf_counter() - start

    workload = workloads.make(name, seed, ROOT)
    try:
        op = workload.round(0)[0]
        start = time.perf_counter()
        result = op.run()
        first_op = time.perf_counter() - start
        ok = op.outcome(result, None) is None
    finally:
        workload.close()
    import hostspeed

    slices = [hostspeed.slice_seconds() for _ in range(SLICES)]
    print(json.dumps({"setup_s": imported + first_op, "slice_s": statistics.median(slices),
                      "ok": ok}))


if __name__ == "__main__":
    main()
