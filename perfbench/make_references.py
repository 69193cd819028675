"""Regenerate ``references.json``: closed-loop quality per workload, seed
and config, produced by the same child runs (and pins) as the benchmark.

    python3 perfbench/make_references.py

Run from the root of a checkout.  The whole table (every workload, seeds
0-63) is rewritten.  Only needed when a change is meant to move closed-loop
results; say so when committing the new table.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

SEEDS = range(64)


def main() -> int:
    os.environ.update(run.PINS)
    import workloads

    run.check_checkout()
    table: dict = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            work = run.WORK / f"references-{workload}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            refs = table.setdefault(workload, {}).setdefault(str(seed), {})
            for case in run.prepare(workload, seed, work, {}):
                rep = run.run_child(case, work / "t.json", False, work / "log.txt")
                error = run.check(case, rep)
                print(workload, seed, case.name, error or rep.quality, flush=True)
                if error:
                    print(f"{workload} seed {seed} failed; table not written", file=sys.stderr)
                    return 1
                refs[case.name] = {k: rep.quality[k] for k in ("constraint_error", "control_error")}
            shutil.rmtree(work, ignore_errors=True)
    table["env"] = run.environment()
    (run.HERE / "references.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
