"""Record the output digests the benchmark checks on its default seed.

    python3 bench/record_digests.py

Runs each stream or batch of each workload once on the default seed and
writes digests.json.  Run it only when a change is meant to alter the
program's output bytes; the digests pin `starring-report/1` reports and
`invert` output otherwise.
"""

from __future__ import annotations

import json
import sys
import time

from checks import DIGESTS_PATH, report_digest, stdout_digest
from run import DEFAULT_SEED, SRC, load_program
from workloads import WORKLOADS, SweepWorkload


def main() -> int:
    sys.path.insert(0, SRC)
    prog = load_program()
    digests = {}
    for name, workload in WORKLOADS.items():
        state = workload.set_up(prog, workload.inputs(DEFAULT_SEED))
        units = len(state) if isinstance(workload, SweepWorkload) else 1
        results = [r for k in range(units)
                   for r in workload.run_unit(prog, state, time.perf_counter, k)]
        errors = [r.error for r in results if r.error is not None]
        if errors:
            print(f"{name}: {errors[0]}", file=sys.stderr)
            return 1
        if isinstance(workload, SweepWorkload):
            digests[name] = {"seed": DEFAULT_SEED if workload.seeded else None,
                             "reports": [report_digest(r.output[1]) for r in results]}
        else:
            digests[name] = {"seed": DEFAULT_SEED,
                             "stdout": [stdout_digest(r.output) for r in results]}
    with open(DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
