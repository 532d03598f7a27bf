"""paravg benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; paravg is imported from ``src/``.  A closed
loop with one client: each pass runs the workload's jobs one after another
in a fresh process (worker.py), and passes follow each other until the next
would overrun ``--seconds``.  Set-up is sampled by PROBES extra processes
that only import paravg.  At most two processes run at once (this one and a
worker), and workers are pinned to one thread.

Job and set-up times are also scaled to a nominal host speed by a
calibration that runs between jobs and right after set-up
(``workloads.calibrate``).  The gated timings ``wall_cal_s`` and
``setup_s`` are the scaled ones, since raw times follow the load on a
shared host; the raw ones are printed too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, with the
tracing overhead.  The spans of traced passes are written to
``.perfbench-out/`` when the run ends.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spectral", "extremal", "averaging")
PROBES = 5
DEADLINE_S = 165.0  # every run ends well inside the 180 s a run may take

END_TO_END_UNITS = {
    "wall_cal_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_ratio": "ratio",
    "jobs": "count",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def per_layer_units() -> dict[str, str]:
    units = tracer.metric_units()
    units.update({
        "wall_s": "s",
        "setup.raw_s": "s",
        "host.calibration_s": "s",
        "trace.overhead_s": "s",
        "fail_ratio": "ratio",
        "src.loc": "lines",
    })
    return units


def source_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src" / "paravg").rglob("*.py")))


class Runner:
    def __init__(self, root: Path, started: float):
        self.root = root
        self.out = root / ".perfbench-out"
        self.out.mkdir(exist_ok=True)
        self.started = started
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PARAVG_WORKERS="1",
        )

    def spawn(self, *args: str) -> dict:
        """Run worker.py to completion; returns its report plus set-up and total time."""
        result = self.out / "result.json"
        result.unlink(missing_ok=True)
        remaining = DEADLINE_S - (perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the run could finish")
        spawned = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args, "--result", str(result)],
            cwd=self.root,
            env=self.env,
            stdout=sys.stderr,
        )
        try:
            code = proc.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {' '.join(args)} overran the {DEADLINE_S:.0f} s limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        finished = perf_counter()
        if code != 0 or not result.is_file():
            raise BenchError(f"worker {' '.join(args)} exited {code}")
        report = json.loads(result.read_text())
        result.unlink()
        report["setup"] = report["ready"] - spawned
        report["total"] = finished - spawned
        return report


def median(values):
    return statistics.median(values) if values else 0.0


def describe(values, unit: str) -> str:
    return f"median of {len(values)}; min {min(values):.4f} {unit}, max {max(values):.4f} {unit}"


def run(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    started = perf_counter()
    runner = Runner(root, started)
    work = runner.out / "work"
    try:
        setups = [runner.spawn("--probe") for _ in range(PROBES)]
        untraced, traced = [], []
        unit = ("0", "1") if trace else ("0",)
        while True:
            unit_time = 0.0
            for flag in unit:
                report = runner.spawn("--workload", workload, "--seed", str(seed), "--trace", flag, "--work", str(work))
                (traced if flag == "1" else untraced).append(report)
                setups.append(report)
                unit_time += report["total"]
                print_pass(len(untraced) + len(traced), report, flag == "1")
            if perf_counter() - started + unit_time > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        (runner.out / "result.json").unlink(missing_ok=True)

    passes = untraced + traced
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for job in p["jobs"] if job["failed"])
    correct = not any(job["incorrect"] for p in passes for job in p["jobs"])

    walls = [p["wall"] for p in untraced]
    cals = [p["wall_cal"] for p in untraced]
    calibration = [p["calibration"] for p in untraced]
    raw_setups = [p["setup"] for p in setups]
    cal_setups = [p["setup"] * p["setup_scale"] for p in setups]
    print(f"wall_s       {median(walls):.4f} s ({describe(walls, 's')})")
    print(f"calibration  {median(calibration):.4f} s ({describe(calibration, 's')})")
    print(f"wall_cal_s   {median(cals):.4f} s ({describe(cals, 's')})")
    print(f"setup raw    {median(raw_setups):.4f} s ({describe(raw_setups, 's')})")
    print(f"setup_s      {median(cal_setups):.4f} s ({describe(cal_setups, 's')}; calibrated)")
    if not trace:
        rss = [p["peak_rss_mb"] for p in untraced]
        jobs = len(untraced[0]["jobs"])
        passed = sum(1 for p in untraced for job in p["jobs"] if not job["failed"])
        total = sum(len(p["jobs"]) for p in untraced)
        metrics = {
            "wall_cal_s": median(cals),
            "peak_rss_mb": median(rss),
            "setup_s": median(cal_setups),
            "pass_ratio": passed / total,
            "jobs": jobs,
        }
        print(f"peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB ({describe(rss, 'MB')})")
        print(f"pass_ratio   {metrics['pass_ratio']:.4f} ratio ({passed} of {total} jobs passed)")
        print(f"jobs         {jobs} count (per pass)")
        units = END_TO_END_UNITS
    else:
        metrics, consistent = traced_metrics(traced)
        correct &= consistent
        metrics["wall_s"] = median(walls)
        metrics["setup.raw_s"] = median(raw_setups)
        metrics["host.calibration_s"] = median(calibration)
        metrics["trace.overhead_s"] = median([p["wall_cal"] for p in traced]) - median(cals)
        metrics["fail_ratio"] = failed / attempted
        metrics["src.loc"] = source_lines(root)
        units = per_layer_units()
        for name in units:
            label = " (computed)" if name in tracer.COMPUTED else ""
            print(f"{name:42s} {metrics[name]:.6g} {units[name]}{label}")
        write_spans(runner.out / f"trace-{workload}-seed{seed}.jsonl.gz", traced)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def traced_metrics(traced: list) -> tuple[dict, bool]:
    """Times and time exponents are medians over the traced passes; counts must repeat exactly."""
    metrics = {}
    consistent = True
    for name, unit in tracer.metric_units().items():
        values = [p["metrics"][name] for p in traced]
        if unit in ("s", "exponent"):
            metrics[name] = median(values)
            continue
        if len(set(values)) > 1:
            print(f"count {name} differs between traced passes: {values}", file=sys.stderr)
            consistent = False
        metrics[name] = values[0]
    return metrics, consistent


def print_pass(index: int, report: dict, traced: bool) -> None:
    failed = [job for job in report["jobs"] if job["failed"]]
    print(
        f"pass {index}{' (traced)' if traced else ''}: wall {report['wall']:.3f} s "
        f"(calibrated {report['wall_cal']:.3f} s), "
        f"setup {report['setup']:.3f} s, peak rss {report['peak_rss_mb']:.1f} MB, "
        f"{len(report['jobs'])} jobs, {len(failed)} failed"
    )
    for job in report["jobs"]:
        status = "FAILED" if job["failed"] else "ok"
        print(f"  {job['id']:28s} {job['seconds']:8.3f} s  {status}")
        for problem in job["problems"][:5]:
            print(f"      {problem}")


def write_spans(path: Path, traced: list) -> None:
    with gzip.open(path, "wt") as fh:
        for i, report in enumerate(traced):
            for span in report["spans"]:
                name, start, end, parent, job, info = span
                fh.write(json.dumps({"pass": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "job": job, "info": info}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "paravg" / "__init__.py").is_file():
        print(f"error: no paravg sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
