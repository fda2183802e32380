"""Record the references of the benchmark's correctness gate.

usage: python3 bench/record_references.py [SEED ...]      (default: 0)

Runs every workload once per seed on the current code and stores, in
bench/references.json, the values the gate compares (workload.observed):
the final E_total, theta_min and phi_min of energy.csv, and the weakstrong
multiplier and E_rel_final column. Record only from a commit whose results
are trusted; the gate then holds later commits to them within workload.RTOL.
"""

import json
import os
import shutil
import sys

from run import child
from workload import BENCH, WORKLOADS


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [0]
    path = BENCH / "references.json"
    refs = json.loads(path.read_text())
    for name in WORKLOADS:
        for seed in seeds:
            refs.setdefault(name, {}).pop(str(seed), None)  # record afresh, without comparing
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    work = BENCH / ".work" / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            for seed in seeds:
                result, _ = child("run", name, seed, work)
                if result["failures"]:
                    print(f"error: {name} seed {seed}: {result['failures']}", file=sys.stderr)
                    return 1
                refs[name][str(seed)] = result["observed"]
                print(f"{name} seed {seed}: {result['observed']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
