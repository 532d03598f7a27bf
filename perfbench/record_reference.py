"""Record reference.json: the values every job computes at seed 0.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only at a commit whose outputs are trusted, since later runs are
checked against what it writes.  It also runs every job at two more seeds
and stops without writing if a value that workloads.py does not mark as
seeded changes, or if a job other than a known defect fails, so the
seeded/unseeded split is checked rather than assumed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import workloads

REFERENCE_SEED = 0
CHECK_SEEDS = (1, 2)


def run_all(seed: int, work: Path) -> dict:
    values = {}
    for name, jobs in workloads.WORKLOADS.items():
        ctx = workloads.Context(seed=seed, work=work, rng=np.random.default_rng(seed))
        for job in jobs:
            outcome = job.run(ctx)
            problems = outcome.problems + outcome.departures
            if problems and job.id not in workloads.KNOWN_DEFECTS:
                raise SystemExit(f"{name}/{job.id} at seed {seed}: {problems}")
            values[job.id] = outcome.values
            print(f"seed {seed} {name}/{job.id}: {len(outcome.values)} values", file=sys.stderr)
    return values


def main() -> int:
    work = Path(".perfbench-out") / "record"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference = run_all(REFERENCE_SEED, work)
        jobs = {job.id: job for jobs in workloads.WORKLOADS.values() for job in jobs}
        for seed in CHECK_SEEDS:
            for job_id, values in run_all(seed, work).items():
                found = workloads.departures(jobs[job_id], values, reference[job_id], seed, REFERENCE_SEED)
                if found:
                    raise SystemExit(f"{job_id}: unseeded values change with the seed: {found[:3]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    payload = {"seed": REFERENCE_SEED, "jobs": reference}
    workloads.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
