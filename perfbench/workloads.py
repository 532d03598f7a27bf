"""Workloads: seeded job lists, the checks that decide whether a job failed, one pass.

A job fails if it raises, exits non-zero, prints a ``[FAIL]`` check, or a
computed value departs from its reference (``reference.json``, recorded at
seed 0) or from an independent oracle.  Integer counts and exact identities
must match exactly; floats agree to REL_TOL; roundoff measurements are held
to the tolerance the acceptance gate states for them.  Values that depend on
the seed by construction are compared with the reference only at its seed;
at other seeds the job's own gate checks cover them.
"""

from __future__ import annotations

import csv
import fnmatch
import gc
import hashlib
import io
import json
import math
import shutil
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# layer functions are looked up on their modules at call time, so the
# tracer's rebinding of module attributes covers the benchmark's own calls
from paravg import cli, coefficients, cutoff, experiments, lattice
from paravg.arcs import PieceSpec
from paravg.cutoff import OperatorParams

REFERENCE = Path(__file__).with_name("reference.json")

# floats that the program computes deterministically agree to this relative
# tolerance, the tightest one the acceptance gate uses (c05, c12)
REL_TOL = 1e-12
# an averaged box through the FFT, or a smooth cutoff, against its oracle
ORACLE_TOL = 1e-13
P = 1.8
P_PRIME = P / (P - 1.0)

# jobs known to fail at the commit that recorded the references; they count
# as failed but do not make a pass incorrect while their values still match
KNOWN_DEFECTS = {
    "fit-l2": "scaling-fit --source l2 applies the p-dependent target to the p-free 2->2 norm",
}


@dataclass
class Outcome:
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)  # why the job failed
    departures: list = field(default_factory=list)  # values off their reference or oracle
    output: object = None  # what the digest covers


@dataclass
class Context:
    seed: int
    work: Path
    rng: np.random.Generator
    current: tuple | None = None  # (result, exact nonzero values) for the lp jobs


# -- CLI jobs -------------------------------------------------------------------------


def _number(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def flatten(obj, prefix: str, out: dict) -> dict:
    if isinstance(obj, dict):
        for key in sorted(obj):
            flatten(obj[key], f"{prefix}.{key}", out)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            flatten(item, f"{prefix}.{i}", out)
    else:
        out[prefix] = obj
    return out


@dataclass(frozen=True)
class CliJob:
    """One ``paravg`` subcommand, run in-process with the pass's seed."""

    id: str
    argv: tuple
    report: str
    seeded: tuple = ()  # value patterns that depend on --seed by construction
    bounds: tuple = ()  # (pattern, limit): roundoff measures, held to the gate tolerance
    skip: tuple = ()  # patterns not compared

    def run(self, ctx: Context) -> Outcome:
        out_dir = ctx.work / self.id
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [*self.argv, "--seed", str(ctx.seed), "--out-dir", str(out_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            status = cli.main(argv)
        outcome = Outcome()
        if status != 0:
            detail = stderr.getvalue().strip().splitlines()
            outcome.problems.append(f"exit {status}" + (f": {detail[-1]}" if detail else ""))
        outcome.problems += [line for line in stdout.getvalue().splitlines() if line.startswith("[FAIL]")]
        payload_path = out_dir / f"{self.report}.json"
        if payload_path.is_file():
            flatten(json.loads(payload_path.read_text())["results"], "results", outcome.values)
        files = sorted(p for p in out_dir.glob("*") if p.is_file())
        for path in files:
            if path.suffix == ".csv":
                with open(path, newline="") as fh:
                    for i, row in enumerate(csv.DictReader(fh)):
                        for col, text in row.items():
                            outcome.values[f"{path.name}.{i}.{col}"] = _number(text)
        outcome.output = stdout.getvalue().encode() + b"".join(
            p.name.encode() + p.read_bytes() for p in files
        )
        return outcome


# -- library jobs ---------------------------------------------------------------------


@dataclass(frozen=True)
class PieceSupJob:
    """Grid sup of one multiplier piece, called through the library."""

    id: str
    kind: str
    n: int
    N: int

    def run(self, ctx: Context) -> Outcome:
        report = coefficients.piece_sup_report(PieceSpec(self.kind), OperatorParams.smooth(self.n, self.N))
        values = {
            "constant": report.constant,
            "sup": report.values["sup"],
            "bound": report.values["bound"],
            "t_points": report.params["t_points"],
        }
        outcome = Outcome(values=values, output=repr(sorted(values.items())))
        if not math.isfinite(report.constant):
            outcome.problems.append(f"sup constant not finite: {report.constant}")
        return outcome


def _smooth_oracle(params: OperatorParams, lo, hi):
    """Dense A(box) for n = 2 by slab sums over the kernel support (an oracle).

    A box(x) = N^-1 sum_k sigma(k) [x + (k, k^2) in box]: for each k the
    points form the box translated by -(k, k^2), so the average is a sum of
    weighted slabs on a grid covering every translate.
    """
    ks, ws = params.cutoff.support(), params.cutoff.weights()
    sq = ks * ks
    offset = (lo[0] - int(ks.max()), lo[1] - int(sq.max()))
    shape = (hi[0] - int(ks.min()) - offset[0] + 1, hi[1] - int(sq.min()) - offset[1] + 1)
    grid = np.zeros(shape)
    for k, s, w in zip(ks.tolist(), sq.tolist(), ws.tolist()):
        a1, a2 = lo[0] - k - offset[0], lo[1] - s - offset[1]
        grid[a1 : a1 + hi[0] - lo[0] + 1, a2 : a2 + hi[1] - lo[1] + 1] += w
    return grid / params.N, offset


@dataclass(frozen=True)
class AverageJob:
    """A(box) for a seeded translate of the extremizer box, checked against an oracle.

    Sharp cutoffs go through ``average`` (direct path, exact against the
    ``box_average_counts`` engine) or, with ``fft``, through the padded-FFT
    convolution of the reflected kernel with the box (raw counts, within
    ORACLE_TOL of the engine).  The smooth cutoff is checked against a slab
    sum (within ORACLE_TOL).
    """

    id: str
    cutoff: str
    n: int
    N: int
    fft: bool = False

    def run(self, ctx: Context) -> Outcome:
        n, N = self.n, self.N
        if self.cutoff == "sharp":
            params = OperatorParams.sharp(n, N)
        else:
            params = OperatorParams.smooth(n, N)
        shift = [int(c) for c in ctx.rng.integers(-1000, 1001, size=n)]
        lo = tuple(1 + c for c in shift)
        hi = tuple(h + c for h, c in zip((2 * N,) * (n - 1) + (n * N * N,), shift))
        box = lattice.box_indicator(lo, hi)
        if self.fft:
            result = lattice.convolve(lattice.reflect(cutoff.paraboloid_kernel(params)), box, method="fft")
        else:
            result = cutoff.average(box, params)

        if self.cutoff == "sharp":
            counts, base = experiments.box_average_counts(n, N)
            scale = 1 if self.fft else N ** (n - 1)
            grid, offset = counts / scale, tuple(b + c for b, c in zip(base, shift))
        else:
            grid, offset = _smooth_oracle(params, lo, hi)
        exact = self.cutoff == "sharp" and not self.fft

        points = np.array([p for p, _ in result.items()], dtype=np.int64).reshape(-1, n)
        vals = np.array([v for _, v in result.items()], dtype=complex)
        idx = points - np.array(offset)
        inside = np.all((idx >= 0) & (idx < np.array(grid.shape)), axis=1)
        expected = np.zeros(len(vals))
        expected[inside] = grid[tuple(idx[inside].T)]
        support = int(np.count_nonzero(grid))
        matched = int(np.count_nonzero(expected))

        outcome = Outcome(values={"support_points": matched}, output=result)
        if exact:
            bad = int(np.count_nonzero((vals != expected) | ~inside))
            if bad or matched != support or len(vals) != support:
                outcome.departures.append(
                    f"{bad} values differ from the counting engine; "
                    f"{len(vals)} points vs {support} in its support"
                )
        else:
            tol = ORACLE_TOL * float(np.max(np.abs(grid)))
            worst = float(np.max(np.abs(vals - expected))) if len(vals) else 0.0
            if worst > tol or matched != support:
                outcome.departures.append(
                    f"max deviation {worst:.3e} (tolerance {tol:.3e}); "
                    f"{matched} of {support} support points present"
                )
        ctx.current = (result, grid[grid != 0])
        return outcome


@dataclass(frozen=True)
class NormJob:
    """lp_norm of the previous job's result, against the norm of its exact values."""

    id: str
    p: float

    def run(self, ctx: Context) -> Outcome:
        result, exact = ctx.current
        value = lattice.lp_norm(result, self.p)
        oracle = float(np.power(math.fsum(abs(v) ** self.p for v in exact.tolist()), 1.0 / self.p))
        outcome = Outcome(values={"norm": value}, output=repr(value))
        if not abs(value - oracle) <= ORACLE_TOL * oracle:
            outcome.departures.append(f"norm {value!r} vs oracle {oracle!r}")
        return outcome


# -- the workloads ----------------------------------------------------------------------


def _averaging_jobs():
    jobs = []
    for job in (
        AverageJob("avg-sharp-n2-N24", "sharp", 2, 24),
        AverageJob("avg-sharp-n3-N6", "sharp", 3, 6),
        AverageJob("avg-smooth-n2-N8", "smooth", 2, 8),
        AverageJob("fft-sharp-n2-N16", "sharp", 2, 16, fft=True),
    ):
        jobs += [job, NormJob(f"{job.id}-lp-p", P), NormJob(f"{job.id}-lp-pprime", P_PRIME)]
    return jobs


WORKLOADS = {
    # frequency side of the circle method: scalar Gauss sums, bump ladders,
    # coefficient oracles, Ramanujan tables
    "spectral": [
        CliJob("gauss-check", ("gauss-check",), "gauss-check",
               seeded=("results.constants.*", "gauss-check.csv.*")),
        CliJob("arcs-check", ("arcs-check", "--N", "64,256"), "arcs-check",
               bounds=(("results.*.partition_max_dev", 1e-12), ("results.*.split_max_dev", 1e-12))),
        CliJob("coeff-check-n2", ("coeff-check", "--N", "16", "--count", "200"), "coeff-check",
               seeded=("coeff-check.csv.*",),
               bounds=(("results.worst_rel", 1e-8), ("results.worst_paraboloid", 1e-13))),
        CliJob("coeff-check-n3", ("coeff-check", "--n", "3", "--N", "8", "--count", "100"), "coeff-check",
               seeded=("coeff-check.csv.*",),
               bounds=(("results.worst_rel", 1e-8), ("results.worst_paraboloid", 1e-13))),
        PieceSupJob("piece-sup-min", "min", 2, 64),
        CliJob("ramanujan-check", ("ramanujan-check",), "ramanujan-check"),
        CliJob("divisor-check", ("divisor-check", "--N", "1000000"), "divisor-check"),
    ],
    # sharpness experiments on the exact counting engines
    "extremal": [
        CliJob("fit-box-n2", ("scaling-fit", "--source", "box", "--N", "64,128,256,320"), "scaling-fit"),
        CliJob("fit-box-n3", ("scaling-fit", "--source", "box", "--n", "3", "--N", "4,8,12,16"), "scaling-fit"),
        CliJob("fit-ascent", ("scaling-fit", "--source", "ascent", "--N", "4,8,16,24"), "scaling-fit",
               seeded=("results.*", "scaling-fit.csv.*")),
        CliJob("norm-scan", ("norm-scan", "--N", "32,64", "--falsify", "600"), "norm-scan"),
        # the target is the known defect; the values and slope are still compared
        CliJob("fit-l2", ("scaling-fit", "--source", "l2", "--N", "8,16,32,64"), "scaling-fit",
               skip=("results.*.target",)),
        CliJob("sharpness-n3", ("sharpness", "--n", "3"), "sharpness"),
        CliJob("separation-probe", ("separation-probe", "--N", "16"), "separation-probe"),
    ],
    # the generic operator path on dense inputs, through the library API
    "averaging": _averaging_jobs(),
}


# -- checks against the reference -------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _matches(path: str, patterns) -> bool:
    return any(fnmatch.fnmatchcase(path, pattern) for pattern in patterns)


def same(a, b) -> bool:
    """Exact for integers, booleans and strings; REL_TOL for floats."""
    if isinstance(a, float) or isinstance(b, float):
        if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b))
    return type(a) is type(b) and a == b


def departures(job, values: dict, reference: dict | None, seed: int, reference_seed: int) -> list:
    """Values off their reference, and roundoff measures over their gate tolerance."""
    out = []
    bounds, seeded, skip = (getattr(job, key, ()) for key in ("bounds", "seeded", "skip"))
    bound_patterns = [pattern for pattern, _ in bounds]
    for pattern, limit in bounds:
        for path, value in values.items():
            if fnmatch.fnmatchcase(path, pattern) and not value <= limit:
                out.append(f"{path} = {value!r} exceeds {limit!r}")
    if reference is None:
        return out + ["no reference recorded"]
    for path in sorted(set(values) | set(reference)):
        if _matches(path, skip) or _matches(path, bound_patterns):
            continue
        if seed != reference_seed and _matches(path, seeded):
            continue
        if path not in values:
            out.append(f"{path} missing")
        elif path not in reference:
            out.append(f"{path} = {values[path]!r} not in the reference")
        elif not same(values[path], reference[path]):
            out.append(f"{path} = {values[path]!r}, reference {reference[path]!r}")
    return out


def digest(output) -> str:
    h = hashlib.sha256()
    if isinstance(output, bytes):
        h.update(output)
    elif isinstance(output, str):
        h.update(output.encode())
    else:  # a LatticeFunction
        items = sorted(output.items())
        h.update(np.array([p for p, _ in items], dtype=np.int64).tobytes())
        h.update(np.array([v for _, v in items], dtype=complex).tobytes())
    return h.hexdigest()


def run_job(job, ctx: Context, reference: dict | None, reference_seed: int, tracer=None) -> dict:
    """Run one job, time it, and decide whether it failed."""
    if tracer is not None:
        tracer.job = job.id
    start = perf_counter()
    try:
        outcome = job.run(ctx)
        outcome.departures += departures(job, outcome.values, reference, ctx.seed, reference_seed)
    except Exception as exc:  # a raising job is a failed job; the pass goes on
        where = traceback.extract_tb(exc.__traceback__)[-1]
        outcome = Outcome(departures=[f"raised {type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"])
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.job = None
    problems = outcome.problems + outcome.departures
    return {
        "id": job.id,
        "seconds": seconds,
        "failed": bool(problems),
        "incorrect": bool(outcome.departures) or (bool(problems) and job.id not in KNOWN_DEFECTS),
        "problems": problems,
        "values": outcome.values,
        "digest": digest(outcome.output) if outcome.output is not None else None,
    }


# what calibrate() takes inside a worker on the 2-core Xeon VM (Python 3.11,
# numpy 2.4) where the benchmark was defined; wall_cal_s is in those seconds
CALIBRATION_NOMINAL_S = 0.04
_CALIBRATION_ARRAY = np.arange(1 << 16, dtype=float)
_CALIBRATION_KEYS = list(range(20_000))


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, dict and numpy work that calls no paravg code.

    The collector is off meanwhile and nothing outlives the call, so the time
    tracks how fast the host runs at that moment, not the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i
        for _ in range(4):
            total += len({key: key for key in _CALIBRATION_KEYS})
        for _ in range(160):
            total += int(np.dot(_CALIBRATION_ARRAY, _CALIBRATION_ARRAY))
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_pass(workload: str, seed: int, work: Path, tracer=None) -> tuple[list, list]:
    """Every job of a workload, one after another (a closed loop with one client).

    Returns the job results and the calibration times taken before, between
    and after the jobs (outside their timers).
    """
    reference = load_reference()
    ctx = Context(seed=seed, work=work, rng=np.random.default_rng(seed))
    work.mkdir(parents=True, exist_ok=True)
    results, calibration = [], [calibrate()]
    for job in WORKLOADS[workload]:
        results.append(run_job(job, ctx, reference["jobs"].get(job.id), reference["seed"], tracer))
        calibration.append(calibrate())
    return results, calibration
