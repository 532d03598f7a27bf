"""One benchmark pass in a fresh process: set up paravg, run a workload's jobs, report.

Started by run.py, which records when it spawned the process; the report
(JSON, written to --result) says when set-up finished on the same monotonic
clock, and how fast the host ran just after.  With --probe the process only
sets up.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", default=".perfbench-out/work")
    parser.add_argument("--result", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    import paravg  # noqa: F401  (set-up ends once paravg and the job code are imported)
    import workloads

    report = {"ready": perf_counter()}
    # host speed right after set-up, to scale the set-up time like the jobs
    after_setup = [workloads.calibrate() for _ in range(3 if args.probe else 1)]
    report["setup_scale"] = workloads.CALIBRATION_NOMINAL_S / statistics.median(after_setup)
    if not args.probe:
        from tracer import Tracer, span_metrics

        with Tracer() if args.trace else nullcontext() as tracer:
            jobs, calibration = workloads.run_pass(args.workload, args.seed, Path(args.work), tracer)
        report["wall"] = sum(job["seconds"] for job in jobs)
        # each job at the host speed measured just before and just after it
        report["wall_cal"] = sum(
            job["seconds"] * workloads.CALIBRATION_NOMINAL_S / ((before + after) / 2)
            for job, before, after in zip(jobs, calibration, calibration[1:])
        )
        report["calibration"] = report["wall"] * workloads.CALIBRATION_NOMINAL_S / report["wall_cal"]
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["jobs"] = jobs
        if tracer is not None:
            report["metrics"] = span_metrics(tracer.spans)
            report["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
