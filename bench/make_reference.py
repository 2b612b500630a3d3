#!/usr/bin/env python3
"""Record the correctness gate's reference values in bench/reference.json.

Runs one repetition of each workload at the default seed with no reference
and stores the gated values it produced.  Rerun it only for a change that is
meant to move a gated value, and say so in that change:

    python3 bench/make_reference.py
"""

import json
import sys

import run
import workloads


def main() -> int:
    out = {"default_seed": workloads.DEFAULT_SEED, "workloads": {}}
    for workload in workloads.OPS:
        report = run.measure(workload, workloads.DEFAULT_SEED, seconds=0,
                             trace=0, reference={})
        if report["failed"]:
            print(f"{workload}: {report['failures']}", file=sys.stderr)
            return 1
        out["workloads"][workload] = {
            probe: values for op in report["values"][0].values()
            for probe, values in op.items()}
    (run.BENCH / "reference.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
