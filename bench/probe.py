"""Child interpreters that the benchmark starts.

    probe.py setup <workload>
        Read one generated input (JSON) from standard input, import
        levelgraph, run the workload's operation on it once and print
        time.monotonic(): the parent's setup_s ends there.
    probe.py counts <workload> <seed> <n>
        Print, as JSON, the work counts of a traced pass over inputs 1..n,
        so the parent can check that they repeat in a fresh process.
"""

from __future__ import annotations

import json
import sys
import time

from run import prepare_interpreter


def main(argv) -> int:
    if not prepare_interpreter():
        return 2
    mode, workload = argv[0], argv[1]
    if mode == "setup":
        data = json.loads(sys.stdin.read())
        import ops

        prepare, run, _ = ops.WORKLOADS[workload]
        try:
            run(prepare(data))
        except Exception:  # the parent judges this same input as its warm-up
            pass
        print(time.monotonic())
    else:
        import measure

        print(json.dumps(measure.counts_for(workload, int(argv[2]), int(argv[3]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
