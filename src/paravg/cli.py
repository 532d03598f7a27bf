"""Batch front end: seeded experiment runs, CSV/JSON reports, SVG plots.

A subcommand only computes: it records checks on the list main hands it and
returns its JSON results and CSV tables.  A check is a measured value
against its bound, and it passes iff value <= bound (so a nan fails); an
exact identity records its deviation or its violation count against 0.
Maxima over draws are taken with np.max / np.maximum, which carry a nan
through (Python's max(0.0, nan) is 0.0).
Each check prints "[PASS] <name>: <value> vs bound <bound>" (or [FAIL])
and enters the JSON "checks" list as {name, value, bound, passed}.  main
then writes every <stem>.csv, <command>.json and, under --plot, the SVG;
prints "wrote <path>" and "status k"; and returns k.  A run that raises
writes no report.  The acceptance gate (tests/test_acceptance.py) runs
these subcommands and reads their check lines.

Flags set only what some caller varies: --n, --N, --seed, --out-dir, the
exponents --p and --q, coeff-check --Q --count, norm-scan --cutoff
--falsify and scaling-fit --source --plot.  Every other size is a constant
of this module (GAUSS_SAMPLES, DIRICHLET_SAMPLES, ARC_SAMPLES, COEFF_LEVELS,
RAMANUJAN_Q_MAX, RAMANUJAN_K_MAX, DIVISOR_Q, DIVISOR_D) or of the library
it calls, and every check bound is fixed here.

Exit status: 0 all checks passed, 1 a hard invariant (exact identity or
oracle agreement) failed, 2 usage error or a bad parameter (an unknown flag,
a count below 1, a value the library rejects, such as arcs-check --N 5, or
an out-dir that cannot be written).  Every run embeds its full
configuration, seed, and library version in the JSON output; reruns with an
equal config produce byte-identical JSON.  All randomness flows from the
single --seed through named substreams.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import arcs as arcs_mod
from . import coefficients as coef_mod
from . import experiments as exp_mod
from . import expsums, numtheory
from .cutoff import CutoffProfile, OperatorParams, average, cutoff_checks, paraboloid_kernel
from .lattice import LatticeFunction, delta, lp_norm  # noqa: F401  perfbench/test_harness.py reads cli.lp_norm
from .reports import substream_seed

__all__ = ["emit_plot", "main"]

USAGE_ERROR = 2
INVARIANT_FAILURE = 1

GAUSS_SAMPLES = 10000  # gauss-check: draws per Gauss-bound constant
DIRICHLET_SAMPLES = 20000  # gauss-check: rational approximation certificates
ARC_SAMPLES = 1000  # arcs-check: draws per fraction for the partition of unity
COEFF_LEVELS = [0, 1]  # coeff-check: the dyadic levels l next to each core piece
RAMANUJAN_Q_MAX, RAMANUJAN_K_MAX = 128, 2048  # ramanujan-check: q <= 128, |k| <= 2048
DIVISOR_Q = [16, 64]  # divisor-check: one sieve per Q
DIVISOR_D = [2, 4, 8, 16, 32]  # divisor-check: the levels D of every sieve
# divisor-check: bound on count * D^B / (Q^tau N) over the level sets (max 1.0882 at N = 100000)
DIVISOR_RATIO_BOUND = 1.2


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _int_list(text: str) -> list[int]:
    return _nonempty([int(x) for x in text.split(",") if x.strip()])


def _float_list(text: str) -> list[float]:
    return _nonempty([float(x) for x in text.split(",") if x.strip()])


class _Check:
    """Collects named checks, each a value against its bound, and the overall status."""

    def __init__(self):
        self.lines = []
        self.ok = True

    def record(self, name: str, value, bound):
        """Record and return passed = value <= bound, so a nan value fails; ints stay ints in the JSON."""
        value, bound = (v if isinstance(v, int) else float(v) for v in (value, bound))
        passed = value <= bound
        self.ok &= passed
        self.lines.append({"name": name, "value": value, "bound": bound, "passed": passed})
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {value:.6g} vs bound {bound:.6g}")
        return passed

    @property
    def status(self) -> int:
        return 0 if self.ok else INVARIANT_FAILURE


def _write_report(args, results: dict, tables: dict, checks: _Check) -> str:
    """Write each table as <stem>.csv (columns from its first row), then <command>.json."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stem, rows in tables.items():
        with open(out / f"{stem}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    payload = {
        "schema_version": 1,
        "library_version": __version__,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "results": results,
        "checks": checks.lines,
        "status": checks.status,
    }
    path = out / f"{args.command}.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return str(path)


# -- subcommands ----------------------------------------------------------------


def _cmd_gauss_check(args, checks: _Check) -> tuple[dict, dict]:
    rng = np.random.default_rng(substream_seed(args.seed, "gauss-check"))

    # conjugate symmetry spot check at a fixed probe scale (identity check;
    # the sweep constants below carry the N dependence)
    cutoff = CutoffProfile("smooth", min(max(args.N), 32))
    t, y = rng.random((200, 2)).T  # the stream of 200 scalar (t, y) draws
    g = expsums._gauss_sums(np.concatenate([(-t) % 1.0, t]), np.concatenate([(-y) % 1.0, y]), cutoff)
    diff = g[:200] - g[200:].conj()
    checks.record("conjugate symmetry deviation", np.max(np.hypot(diff.real, diff.imag)), 1e-12)

    # rational approximation certificates
    N_max = max(args.N)
    _, q, err = expsums.dirichlet_approx_batch(rng.random(DIRICHLET_SAMPLES), N_max)
    bad = int(np.count_nonzero(~((q <= N_max) & (np.abs(err) <= 1.0 / (q * N_max)))))
    checks.record("rational approximation certificate violations", bad, 0)

    reports = [
        expsums.gauss_bound_report(OperatorParams.smooth(args.n, N), GAUSS_SAMPLES, args.seed)
        for N in args.N
    ]
    constants = {str(N): r.constant for N, r in zip(args.N, reports)}
    # max / min over N; np.min and np.max carry a nan, and a constant <= 0 reads inf
    cs = np.array([r.constant for r in reports])
    checks.record("gauss bound constant spread across N", np.max(cs) / np.min(cs) if np.min(cs) > 0 else math.inf, 2.0)

    rerun = expsums.gauss_bound_report(OperatorParams.smooth(args.n, args.N[0]), GAUSS_SAMPLES, args.seed)
    checks.record("seeded rerun deviation", abs(rerun.constant - reports[0].constant), 0)

    # the smooth cutoff's discrete derivative bounds at every N of the sweep
    for N in args.N:
        ramp = cutoff_checks(CutoffProfile("smooth", N)).values
        checks.record(f"N={N}: ramp N sup|s_k|", ramp["sup_ratio"], ramp["sup_constant"])
        checks.record(f"N={N}: ramp N TV(s)", ramp["tv_ratio"], ramp["tv_constant"])

    rows = [{"N": N, "constant": repr(c)} for N, c in sorted((int(k), v) for k, v in constants.items())]
    return {"constants": constants}, {"gauss-check": rows}


def _cmd_arcs_check(args, checks: _Check) -> tuple[dict, dict]:
    results, tables = {}, {}
    for N in args.N:
        system = arcs_mod.arc_system(N)
        rng = np.random.default_rng(substream_seed(args.seed, f"arcs-check:{N}"))
        # each sweep answers for its whole family: 1 if any two intervals meet, else 0
        checks.record(f"N={N}: 4I arcs not pairwise disjoint", int(not system.arcs_4i_disjoint()), 0)
        checks.record(f"N={N}: support clusters not pairwise disjoint", int(not system.clusters_disjoint()), 0)

        # one (phi(q), ARC_SAMPLES) block per denominator: the draws of the ladders in order
        worst_pu = 0.0
        for q in range(1, system.q_limit + 1):
            a = np.array(arcs_mod.totatives(q))
            u = (rng.random((len(a), ARC_SAMPLES)) * 2 - 1) / (N * q)  # inside the arc
            xi = (a[:, None] / q + u) % 1.0
            total = np.zeros_like(xi)
            for eta in system.denominator_etas(q, xi):
                total += eta
            worst_pu = float(np.maximum(worst_pu, np.max(np.abs(total - 1.0))))
        checks.record(f"N={N}: partition of unity deviation on arcs", worst_pu, 1e-12)

        params = OperatorParams.smooth(args.n, N)
        xi_rand = rng.random((200, args.n))
        specs = [arcs_mod.PieceSpec(kind) for kind in ("whole", "maj", "min")]
        whole, maj, mino = arcs_mod.piece_multipliers(specs, xi_rand, params)
        # Python abs per row: np.abs on complex arrays can differ in the last ulp
        worst_split = float(np.max([abs(d) for d in (whole - (maj + mino)).tolist()]))
        checks.record(f"N={N}: maj + min deviation from whole", worst_split, 1e-12)
        results[str(N)] = {"partition_max_dev": worst_pu, "split_max_dev": worst_split}
        tables[f"arc-table-N{N}"] = [
            {"q": q, "a": a, "center": repr(a / q), "radius": repr(1.0 / (q * N)), "scales": " ".join(map(str, lad.scales))}
            for (q, a), lad in sorted(system.ladders.items())
        ]
    return results, tables


def _cmd_coeff_check(args, checks: _Check) -> tuple[dict, dict]:
    rng = np.random.default_rng(substream_seed(args.seed, "coeff-check"))
    params = OperatorParams.smooth(args.n, args.N)
    N = args.N

    specs = []
    for Q in args.Q:
        specs.append(arcs_mod.PieceSpec("core", Q))
        for l in COEFF_LEVELS:
            specs.append(arcs_mod.PieceSpec("dyadic", Q, l))

    rows = []
    worst_rel = 0.0
    for i in range(args.count):
        spec = specs[int(rng.integers(0, len(specs)))]
        r = tuple(int(c) for c in rng.integers(-2 * N + 1, 2 * N, size=args.n - 1)) + (
            int(rng.integers(-5 * N * N, 5 * N * N + 1)),
        )
        query = coef_mod.CoefficientQuery(spec, r, params)
        closed = coef_mod.piece_coefficient(query)
        oracle = coef_mod.piece_coefficient_oracle(query)
        scale = max(abs(oracle), coef_mod.coefficient_scale(spec, params))
        rel = abs(closed - oracle) / scale
        worst_rel = float(np.maximum(worst_rel, rel))
        rows.append(
            {
                "kind": spec.kind,
                "Q": spec.Q,
                "l": spec.level if spec.level is not None else "",
                "r": " ".join(map(str, r)),
                "closed": repr(abs(closed)),
                "oracle": repr(abs(oracle)),
                "rel_err": repr(rel),
            }
        )
    checks.record(f"closed form vs oracle relative error over {args.count} queries", worst_rel, 1e-8)

    worst_par = 0.0
    for _ in range(20):  # r on the paraboloid, r' drawn from the same |r'_i| < 2N as the queries
        spec = specs[int(rng.integers(0, len(specs)))]
        rp = tuple(int(c) for c in rng.integers(-2 * N + 1, 2 * N, size=args.n - 1))
        r = rp + (sum(c * c for c in rp),)
        val = abs(coef_mod.piece_coefficient(coef_mod.CoefficientQuery(spec, r, params)))
        worst_par = float(np.maximum(worst_par, val))
    checks.record("paraboloid vanishing |coefficient|", worst_par, 1e-13)

    return {"worst_rel": worst_rel, "worst_paraboloid": worst_par}, {"coeff-check": rows}


def _cmd_ramanujan_check(args, checks: _Check) -> tuple[dict, dict]:
    q_max, k_max = RAMANUJAN_Q_MAX, RAMANUJAN_K_MAX
    table, residual = numtheory.ramanujan_table(q_max, np.arange(-k_max, k_max + 1))
    checks.record(f"direct vs Moebius residual for q <= {q_max}, |k| <= {k_max}", residual, 1e-9)
    misses = sum(int(table[q - 1, k_max]) != len(arcs_mod.totatives(q)) for q in range(2, q_max + 1))
    checks.record("q with c_q(0) != phi(q)", misses, 0)
    return {"q_max": q_max, "k_max": k_max, "c_phi_check": misses == 0}, {}


def _cmd_divisor_check(args, checks: _Check) -> tuple[dict, dict]:
    rows = []
    worst = 0.0
    for Q in DIVISOR_Q:
        # one sieve per Q serves every D and the D = Q vanishing check
        *levels, (zero, _) = numtheory.divisor_level_counts(args.N, Q, [*DIVISOR_D, float(Q)])
        counts = {}
        for D, (count, report) in zip(DIVISOR_D, levels):
            ratio = report.values["ratio"]
            worst = float(np.maximum(worst, ratio))
            rows.append({"N": args.N, "Q": Q, "D": D, "count": count, "ratio": repr(ratio)})
            counts[D] = count
        ascending = [counts[D] for D in sorted(counts)]
        checks.record(f"Q={Q}: count increases in D", sum(b > a for a, b in zip(ascending, ascending[1:])), 0)
        checks.record(f"Q={Q}: count at D = Q", zero, 0)
    checks.record("max level-set ratio", worst, DIVISOR_RATIO_BOUND)
    return {"max_ratio": worst}, {"divisor-check": rows}


def _cmd_norm_scan(args, checks: _Check) -> tuple[dict, dict]:
    results = {}
    for N in args.N:
        params = OperatorParams.sharp(args.n, N) if args.cutoff == "sharp" else OperatorParams.smooth(args.n, N)
        l1 = exp_mod.norm_l1_linf(params)
        report = exp_mod.norm_l2_l2(params)
        value = report.constant
        if args.cutoff == "sharp":
            checks.record(f"N={N}: sharp l1->linf deviation from N^(1-n)", abs(l1 - 1.0 / N ** (args.n - 1)), 0)
            if args.n == 2:
                checks.record(f"N={N}: sharp n=2 l2 norm deviation from 1", abs(value - 1.0), 0)
        rng = np.random.default_rng(substream_seed(args.seed, f"norm-falsify:{N}"))
        points = np.empty((args.falsify, 8, args.n), dtype=np.int64)
        weights = np.ones((args.falsify, 8))
        for i in range(args.falsify):  # one function's points, then its weights, as drawn one by one
            points[i] = rng.integers(-2 * N, 2 * N, size=(8, args.n))
            weights[i, 1:] = rng.random(7)
        worst = exp_mod.max_rayleigh_quotient(points, weights, params)
        checks.record(f"N={N}: max random Rayleigh quotient", worst, value + 1e-9)
        results[str(N)] = {"l1_linf": l1, "l2_l2": value, "certificate": report.values["rayleigh_certificate"]}
    return results, {}


def _cmd_sharpness(args, checks: _Check) -> tuple[dict, dict]:
    results = {}
    for N in args.N:
        params = OperatorParams.sharp(args.n, N)
        ok_box = exp_mod.box_core_is_one(args.n, N)
        checks.record(f"n={args.n} N={N}: averaged box differs from 1 on the core block", int(not ok_box), 0)
        # A delta_0 averages to N^(1-n) on the reflected kernel nodes and 0 elsewhere; the
        # difference keeps only the lattice points where the average departs from that
        af = average(delta((0,) * args.n), params)
        nodes = (-paraboloid_kernel(params)._points).tolist()
        target = LatticeFunction(args.n, zip(nodes, [1.0 / float(N ** (args.n - 1))] * len(nodes)))
        checks.record(f"n={args.n} N={N}: averaged delta departures from N^(1-n) on the reflected nodes",
                      len(af - target), 0)
        ratio = exp_mod.delta_extremizer_ratio(params, args.p)
        expected = N ** (-(args.n - 1) / args.p)
        checks.record(f"n={args.n} N={N}: delta ratio relative deviation from N^(-(n-1)/p)",
                      abs(ratio - expected) / expected, 1e-12)
        results[str(N)] = {"delta_ratio": ratio, "box_core_one": ok_box}
    return results, {}


def _cmd_scaling_fit(args, checks: _Check) -> tuple[dict, dict]:
    tol = 0.05 if args.source == "delta" else 0.15
    rows = []
    results = {}
    for p in args.p:
        fit = exp_mod.scaling_fit(args.N, args.n, p, args.source, seed=args.seed)
        for N, v in zip(fit.Ns, fit.values):
            rows.append({"n": args.n, "N": N, "p": p, "source": args.source, "value": repr(v)})
        checks.record(f"p={p}: slope deviation from target {fit.target:.4f}", fit.residual, tol)
        results[str(p)] = {"slope": fit.slope, "target": fit.target, "values": fit.values, "Ns": fit.Ns}
    return results, {"scaling-fit": rows}


def _cmd_separation_probe(args, checks: _Check) -> tuple[dict, dict]:
    params = OperatorParams.sharp(args.n, args.N)
    shifts = [tuple([m * 10 * args.N**2] + [0] * (args.n - 1)) for m in (1, 2, 4)]
    report, doubling = exp_mod.two_bump_separation_probe(delta((0,) * args.n), shifts, args.p, args.q, params)
    checks.record("shifted sums whose support does not double", doubling["undoubled_supports"], 0)
    # a delta's p-norm doubles exactly: both sides are one rounding of 2^(1/p)
    checks.record("|f + f_h|_p deviation from 2^(1/p) |f|_p", doubling["p_deviation"], 0)
    checks.record("|Af + Af_h|_q deviation from 2^(1/q) |Af|_q", doubling["q_deviation"], 4e-16 * doubling["Af_q"])
    worst = np.max([abs(v - report.constant) for v in report.values.values()])
    checks.record(f"ratio gain deviation from 2^(1/q - 1/p) = {report.constant:.6f}", worst, 1e-12)
    return {"gain": report.constant}, {}


# -- SVG plotting -----------------------------------------------------------------


def emit_plot(csv_path, out_path=None) -> str:
    """Render a scaling-fit CSV into a self-contained log-log SVG.

    Plots value against N on log axes and overlays the predicted slope as a
    dashed reference through the first data point.  Deterministic: equal CSV
    bytes give equal SVG bytes.
    """
    csv_path = Path(csv_path)
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no data rows in {csv_path}")

    width, height, margin = 480, 360, 50

    def poly(points):
        return " ".join(f"{x:.3f},{y:.3f}" for x, y in points)

    try:
        xs = [math.log(float(r["N"])) for r in rows]
        ys = [math.log(float(r["value"])) for r in rows]
        slope = exp_mod.target_slope(int(rows[0]["n"]), float(rows[0]["p"]), rows[0].get("source", "box"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed CSV for a log-log plot: {exc}") from exc
    ref_ys = [ys[0] + slope * (x - xs[0]) for x in xs]

    x_lo, x_hi = min(xs), max(xs)
    all_y = ys + ref_ys
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def to_px(x, y):
        px = margin + (x - x_lo) / x_span * (width - 2 * margin)
        py = height - margin - (y - y_lo) / y_span * (height - 2 * margin)
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<polyline fill="none" stroke="black" stroke-width="1" points="{poly([to_px(x, y) for x, y in zip(xs, ys)])}"/>',
    ]
    for x, y in zip(xs, ys):
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="3" fill="black"/>')
    parts.append(
        f'<polyline fill="none" stroke="gray" stroke-width="1" stroke-dasharray="6,4" '
        f'points="{poly([to_px(x, y) for x, y in zip(xs, ref_ys)])}"/>'
    )
    parts.append(
        f'<text x="{margin}" y="{margin - 12}" font-family="monospace" font-size="12">'
        f"reference slope {slope:.4f}</text>"
    )
    parts.append("</svg>")
    out_path = Path(out_path) if out_path else csv_path.with_suffix(".svg")
    with open(out_path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
    return str(out_path)


# -- parser ------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The paravg parser, built on the first call and shared by every later main() in the process.

    Parsing leaves the parser as it was; the list defaults are shared by
    every parse, and no command mutates its arguments.
    """
    parser = argparse.ArgumentParser(prog="paravg", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, n=True):
        sp = sub.add_parser(name, allow_abbrev=False, help=help)
        if n:
            sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out-dir", default="paravg-out")
        sp.set_defaults(func=func)
        return sp

    sp = command("gauss-check", _cmd_gauss_check, "Gauss-sum bound constants over an N sweep")
    sp.add_argument("--N", type=_int_list, default=[16, 32, 64, 128])

    sp = command("arcs-check", _cmd_arcs_check, "partition of unity and arc disjointness")
    sp.add_argument("--N", type=_int_list, default=[16, 64])

    sp = command("coeff-check", _cmd_coeff_check, "closed-form coefficients against the oracle")
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--Q", type=_int_list, default=[1, 2])
    sp.add_argument("--count", type=_positive_int, default=50)

    command("ramanujan-check", _cmd_ramanujan_check, "direct vs arithmetic complete sums", n=False)

    sp = command("divisor-check", _cmd_divisor_check, "divisor level-set counting bounds", n=False)
    sp.add_argument("--N", type=int, default=100000)

    sp = command("norm-scan", _cmd_norm_scan, "l1->linf and l2->l2 operator norms")
    sp.add_argument("--N", type=_int_list, default=[16, 32])
    sp.add_argument("--cutoff", choices=["sharp", "smooth"], default="sharp")
    sp.add_argument("--falsify", type=_positive_int, default=50)

    sp = command("sharpness", _cmd_sharpness, "exactness of the extremizer families")
    sp.add_argument("--N", type=_int_list, default=[8, 12, 16])
    sp.add_argument("--p", type=float, default=2.0)

    sp = command("scaling-fit", _cmd_scaling_fit, "log-log slope of a ratio family")
    sp.add_argument("--N", type=_int_list, default=[8, 16, 32, 64, 128])
    sp.add_argument("--p", type=_float_list, default=[1.8])
    sp.add_argument("--source", choices=["box", "delta", "ascent", "l2"], default="box")
    sp.add_argument("--plot", action="store_true")

    sp = command("separation-probe", _cmd_separation_probe, "the q < p doubling obstruction")
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=1.0)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else USAGE_ERROR

    checks = _Check()
    try:
        results, tables = args.func(args, checks)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AssertionError, RuntimeError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return INVARIANT_FAILURE
    try:
        path = _write_report(args, results, tables, checks)
        if getattr(args, "plot", False):
            path = emit_plot(Path(args.out_dir) / f"{args.command}.csv")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(f"wrote {path}")
    print(f"status {checks.status}")
    return checks.status


if __name__ == "__main__":
    sys.exit(main())
