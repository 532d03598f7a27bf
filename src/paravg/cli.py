"""Batch front end: seeded experiment runs, CSV/JSON reports, SVG plots.

A subcommand only computes: it records checks on the list main hands it and
returns its JSON results and CSV tables.  main then writes every <stem>.csv,
<command>.json and, under --plot, the SVG; prints "wrote <path>" and
"status k"; and returns k.  A run that raises writes no report.

Exit status: 0 all checks passed, 1 a hard invariant (exact identity or
oracle agreement) failed, 2 usage error or a bad parameter (a count below 1,
a value the library rejects, such as arcs-check --N 5, or an out-dir that
cannot be written).  Every run embeds its full configuration, seed, and
library version in the JSON output; reruns with an equal config produce
byte-identical JSON.  All randomness flows from the single --seed through
named substreams.
"""

from __future__ import annotations

import argparse
import csv
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
from .cutoff import CutoffProfile, OperatorParams, average
from .lattice import delta, lp_norm, shift
from .reports import substream_seed

__all__ = ["emit_plot", "main"]

USAGE_ERROR = 2
INVARIANT_FAILURE = 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _nonempty(values: list) -> list:
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _int_list(text: str) -> list[int]:
    return _nonempty(_ints(text))


def _float_list(text: str) -> list[float]:
    return _nonempty([float(x) for x in text.split(",") if x.strip()])


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"{text!r} is not true or false")
    return text.lower() == "true"


def _config_tokens(path: str) -> list[str]:
    """Flat key=value config as --key=value flag tokens; keys mirror the long flags (dashes or underscores)."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return out


class _Check:
    """Collects named pass/fail lines and the overall status."""

    def __init__(self):
        self.lines = []
        self.ok = True

    def record(self, name: str, passed: bool, detail: str = ""):
        self.ok &= bool(passed)
        tag = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        line = f"[{tag}] {name}{suffix}"
        self.lines.append({"name": name, "passed": bool(passed), "detail": detail})
        print(line)

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
    cutoff = CutoffProfile("smooth", min(max(args.N), 32), args.ramp_order)
    t, y = rng.random((200, 2)).T  # the stream of 200 scalar (t, y) draws
    g = expsums._gauss_sums(np.concatenate([(-t) % 1.0, t]), np.concatenate([(-y) % 1.0, y]), cutoff)
    diff = g[:200] - g[200:].conj()
    worst_sym = float(np.max(np.hypot(diff.real, diff.imag)))
    checks.record("conjugate symmetry <= 1e-12", worst_sym <= 1e-12, f"max {worst_sym:.2e}")

    # rational approximation certificates
    N_max = max(args.N)
    _, q, err = expsums.dirichlet_approx_batch(rng.random(args.dirichlet_samples), N_max)
    bad = int(np.count_nonzero(~((q <= N_max) & (np.abs(err) <= 1.0 / (q * N_max)))))
    checks.record("rational approximation certificate", bad == 0, f"{bad} violations")

    reports = [
        expsums.gauss_bound_report(OperatorParams.smooth(args.n, N, args.ramp_order), args.samples, args.seed)
        for N in args.N
    ]
    constants = {str(N): r.constant for N, r in zip(args.N, reports)}
    for N, r in zip(args.N, reports):
        checks.record(f"gauss bound constant in (0, inf) at N={N}", 0.0 < r.constant < math.inf)
    if len(args.N) >= 2:
        lo = min(constants.values())
        spread = max(constants.values()) / lo if lo > 0.0 else math.inf
        checks.record("gauss bound constant varies < 2x across N", spread < 2.0, f"spread {spread:.3f}")

    rerun = expsums.gauss_bound_report(
        OperatorParams.smooth(args.n, args.N[0], args.ramp_order), args.samples, args.seed
    )
    checks.record("seeded rerun identical", rerun.constant == reports[0].constant)

    rows = [{"N": N, "constant": repr(c)} for N, c in sorted((int(k), v) for k, v in constants.items())]
    return {"constants": constants}, {"gauss-check": rows}


def _cmd_arcs_check(args, checks: _Check) -> tuple[dict, dict]:
    results, tables = {}, {}
    for N in args.N:
        system = arcs_mod.arc_system(N, args.order)
        rng = np.random.default_rng(substream_seed(args.seed, f"arcs-check:{N}"))
        checks.record(f"N={N}: 4I arcs pairwise disjoint", arcs_mod.arcs_4i_disjoint(arcs_mod.major_arcs(N)))
        checks.record(f"N={N}: support clusters pairwise disjoint", system.clusters_disjoint())

        # one (phi(q), samples) block per denominator: the draws of the ladders in order
        worst_pu = 0.0
        for q in range(1, system.q_limit + 1):
            a = np.array(arcs_mod.totatives(q))
            u = (rng.random((len(a), args.samples)) * 2 - 1) / (N * q)  # inside the arc
            xi = (a[:, None] / q + u) % 1.0
            total = np.zeros_like(xi)
            for eta in system.denominator_etas(q, xi):
                total += eta
            worst_pu = max(worst_pu, float(np.max(np.abs(total - 1.0))))
        checks.record(f"N={N}: partition of unity <= 1e-12 on arcs", worst_pu <= 1e-12, f"max {worst_pu:.2e}")

        params = OperatorParams.smooth(args.n, N, args.ramp_order)
        xi_rand = rng.random((200, args.n))
        specs = [arcs_mod.PieceSpec(kind) for kind in ("whole", "maj", "min")]
        whole, maj, mino = arcs_mod.piece_multipliers(specs, xi_rand, params, args.order)
        # Python abs per row: np.abs on complex arrays can differ in the last ulp
        worst_split = max(abs(d) for d in (whole - (maj + mino)).tolist())
        checks.record(f"N={N}: maj + min == whole <= 1e-12", worst_split <= 1e-12, f"max {worst_split:.2e}")
        results[str(N)] = {"partition_max_dev": worst_pu, "split_max_dev": worst_split}
        tables[f"arc-table-N{N}"] = [
            {"q": q, "a": a, "center": repr(a / q), "radius": repr(1.0 / (q * N)), "scales": " ".join(map(str, lad.scales))}
            for (q, a), lad in sorted(system.ladders.items())
        ]
    return results, tables


def _cmd_coeff_check(args, checks: _Check) -> tuple[dict, dict]:
    rng = np.random.default_rng(substream_seed(args.seed, "coeff-check"))
    params = OperatorParams.smooth(args.n, args.N, args.ramp_order)
    N = args.N

    specs = []
    for Q in args.Q:
        specs.append(arcs_mod.PieceSpec("core", Q))
        for l in args.l:
            specs.append(arcs_mod.PieceSpec("dyadic", Q, l))

    rows = []
    worst_rel = 0.0
    for i in range(args.count):
        spec = specs[int(rng.integers(0, len(specs)))]
        r = tuple(int(c) for c in rng.integers(-2 * N + 1, 2 * N, size=args.n - 1)) + (
            int(rng.integers(-5 * N * N, 5 * N * N + 1)),
        )
        query = coef_mod.CoefficientQuery(spec, r, params)
        closed = coef_mod.piece_coefficient(query, args.order)
        oracle = coef_mod.piece_coefficient_oracle(query, args.grid, args.order)
        scale = max(abs(oracle), coef_mod.coefficient_scale(spec, params))
        rel = abs(closed - oracle) / scale
        worst_rel = max(worst_rel, rel)
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
    checks.record(
        f"closed form vs oracle <= 1e-8 over {args.count} queries",
        worst_rel <= 1e-8,
        f"max rel {worst_rel:.2e}",
    )

    worst_par = 0.0
    for _ in range(20):
        spec = specs[int(rng.integers(0, len(specs)))]
        rp = tuple(int(c) for c in rng.integers(-(N - 1), N, size=args.n - 1))
        r = rp + (sum(c * c for c in rp),)
        val = abs(coef_mod.piece_coefficient(coef_mod.CoefficientQuery(spec, r, params), args.order))
        worst_par = max(worst_par, val)
    checks.record("paraboloid vanishing <= 1e-13", worst_par <= 1e-13, f"max {worst_par:.2e}")

    return {"worst_rel": worst_rel, "worst_paraboloid": worst_par}, {"coeff-check": rows}


def _cmd_ramanujan_check(args, checks: _Check) -> tuple[dict, dict]:
    if args.qmax < 2 or args.kmax < 0:
        raise ValueError(f"ramanujan-check needs --qmax >= 2 and --kmax >= 0 (got {args.qmax}, {args.kmax})")
    ks = np.arange(-args.kmax, args.kmax + 1)
    try:
        table, agree, detail = numtheory.ramanujan_table(args.qmax, ks), True, ""
    except AssertionError as exc:
        table, agree, detail = None, False, str(exc)
    checks.record(f"direct == Moebius for q <= {args.qmax}, |k| <= {args.kmax}", agree, detail)
    results = {"q_max": args.qmax, "k_max": args.kmax}
    if agree:
        phi_ok = all(
            int(table[q - 1, args.kmax]) == len(arcs_mod.totatives(q))
            for q in range(2, args.qmax + 1)
        )
        results["c_phi_check"] = bool(phi_ok)
        checks.record("c_q(0) equals phi(q)", phi_ok)
    return results, {}


def _cmd_divisor_check(args, checks: _Check) -> tuple[dict, dict]:
    rows = []
    worst = 0.0
    for Q in args.Q:
        # one sieve per Q serves every D and the D = Q vanishing check
        *levels, (zero, _) = numtheory.divisor_level_counts(args.N, Q, [*args.D, float(Q)], args.B, args.tau)
        counts = {}
        for D, (count, report) in zip(args.D, levels):
            ratio = report.values["ratio"]
            worst = max(worst, ratio)
            rows.append({"N": args.N, "Q": Q, "D": D, "count": count, "ratio": repr(ratio)})
            counts[D] = count
        ascending = [counts[D] for D in sorted(counts)]
        checks.record(
            f"counts nonincreasing in D at Q={Q}",
            all(b <= a for a, b in zip(ascending, ascending[1:])),
        )
        checks.record(f"D >= Q forces zero count at Q={Q}", zero == 0)
    checks.record("level-set ratio recorded", math.isfinite(worst), f"max {worst:.4f}")
    return {"max_ratio": worst}, {"divisor-check": rows}


def _cmd_norm_scan(args, checks: _Check) -> tuple[dict, dict]:
    results = {}
    for N in args.N:
        params = (
            OperatorParams.sharp(args.n, N)
            if args.cutoff == "sharp"
            else OperatorParams.smooth(args.n, N, args.ramp_order)
        )
        l1 = exp_mod.norm_l1_linf(params)
        report = exp_mod.norm_l2_l2(params)
        value = report.constant
        if args.cutoff == "sharp":
            checks.record(f"N={N}: sharp l1->linf equals N^(1-n)", l1 == 1.0 / N ** (args.n - 1))
            if args.n == 2:
                checks.record(f"N={N}: sharp n=2 l2 norm exactly 1", value == 1.0, f"value {value!r}")
        rng = np.random.default_rng(substream_seed(args.seed, f"norm-falsify:{N}"))
        points = np.empty((args.falsify, 8, args.n), dtype=np.int64)
        weights = np.ones((args.falsify, 8))
        for i in range(args.falsify):  # one function's points, then its weights, as drawn one by one
            points[i] = rng.integers(-2 * N, 2 * N, size=(8, args.n))
            weights[i, 1:] = rng.random(7)
        worst = max([0.0, *exp_mod.rayleigh_quotients(points, weights, params)])
        checks.record(
            f"N={N}: random Rayleigh quotients below the norm",
            worst <= value + 1e-9,
            f"max {worst:.6f} vs {value:.6f}",
        )
        results[str(N)] = {"l1_linf": l1, "l2_l2": value, "certificate": report.values["rayleigh_certificate"]}
    return results, {}


def _cmd_sharpness(args, checks: _Check) -> tuple[dict, dict]:
    results = {}
    for N in args.N:
        params = OperatorParams.sharp(args.n, N)
        ok_box = exp_mod.box_core_is_one(args.n, N)
        checks.record(f"n={args.n} N={N}: averaged box equals 1 on the core block", ok_box)
        ratio = exp_mod.delta_extremizer_ratio(params, args.p)
        expected = N ** (-(args.n - 1) / args.p)
        checks.record(
            f"n={args.n} N={N}: delta ratio equals N^(-(n-1)/p)",
            abs(ratio - expected) <= 1e-12 * expected,
            f"{ratio!r}",
        )
        results[str(N)] = {"delta_ratio": ratio, "box_core_one": ok_box}
    return results, {}


def _cmd_scaling_fit(args, checks: _Check) -> tuple[dict, dict]:
    tol = args.tol if args.tol is not None else (0.05 if args.source == "delta" else 0.15)
    rows = []
    results = {}
    for p in args.p:
        fit = exp_mod.scaling_fit(args.N, args.n, p, args.source, seed=args.seed, iters=args.iters)
        for N, v in zip(fit.Ns, fit.values):
            rows.append({"n": args.n, "N": N, "p": p, "source": args.source, "value": repr(v)})
        checks.record(
            f"slope at p={p} within {tol} of target {fit.target:.4f}",
            fit.residual <= tol,
            f"slope {fit.slope:.4f}",
        )
        results[str(p)] = {"slope": fit.slope, "target": fit.target, "values": fit.values, "Ns": fit.Ns}
    return results, {"scaling-fit": rows}


def _cmd_separation_probe(args, checks: _Check) -> tuple[dict, dict]:
    params = OperatorParams.sharp(args.n, args.N)
    f = delta((0,) * args.n)
    shifts = [tuple([m * 10 * args.N**2] + [0] * (args.n - 1)) for m in (1, 2, 4)]
    report = exp_mod.two_bump_separation_probe(f, shifts, args.p, args.q, params)
    af = average(f, params)
    base_p, base_q = lp_norm(f, args.p), lp_norm(af, args.q)
    exact = True
    for h in shifts:
        fh = f + shift(f, h)
        afh = af + shift(af, h)
        exact &= len(fh) == 2 * len(f) and len(afh) == 2 * len(af)
        exact &= abs(lp_norm(fh, args.p) - 2 ** (1.0 / args.p) * base_p) <= 4e-16 * base_p
        exact &= abs(lp_norm(afh, args.q) - 2 ** (1.0 / args.q) * base_q) <= 4e-16 * base_q
    checks.record("doubling relations exact for disjoint shifts", exact)
    expected = 2 ** (1.0 / args.q - 1.0 / args.p)
    worst = max(abs(v - expected) for v in report.values.values())
    checks.record(
        f"ratio gain equals 2^(1/q - 1/p) = {expected:.6f}",
        worst <= 1e-12,
        f"max dev {worst:.2e}",
    )
    return {"gain": expected}, {}


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paravg", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, n_default=2):
        sp.add_argument("--n", type=int, default=n_default)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out-dir", default="paravg-out")
        sp.add_argument("--config", default=None)
        sp.add_argument("--ramp-order", type=int, default=3)
        sp.add_argument("--order", type=int, default=8, help="bump spline order")

    sp = sub.add_parser("gauss-check", allow_abbrev=False, help="Gauss-sum bound constants over an N sweep")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[16, 32, 64, 128])
    sp.add_argument("--samples", type=_positive_int, default=10000)
    sp.add_argument("--dirichlet-samples", type=_positive_int, default=20000)
    sp.set_defaults(func=_cmd_gauss_check)

    sp = sub.add_parser("arcs-check", allow_abbrev=False, help="partition of unity and arc disjointness")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[16, 64])
    sp.add_argument("--samples", type=_positive_int, default=1000)
    sp.set_defaults(func=_cmd_arcs_check)

    sp = sub.add_parser("coeff-check", allow_abbrev=False, help="closed-form coefficients against the oracle")
    common(sp)
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--Q", type=_int_list, default=[1, 2])
    sp.add_argument("--l", type=_ints, default=[0, 1])  # empty: core pieces only
    sp.add_argument("--count", type=_positive_int, default=50)
    sp.add_argument("--grid", type=int, default=4096)
    sp.set_defaults(func=_cmd_coeff_check)

    sp = sub.add_parser("ramanujan-check", allow_abbrev=False, help="direct vs arithmetic complete sums")
    common(sp)
    sp.add_argument("--qmax", type=int, default=128)
    sp.add_argument("--kmax", type=int, default=2048)
    sp.set_defaults(func=_cmd_ramanujan_check)

    sp = sub.add_parser("divisor-check", allow_abbrev=False, help="divisor level-set counting bounds")
    common(sp)
    sp.add_argument("--N", type=int, default=100000)
    sp.add_argument("--Q", type=_int_list, default=[16, 64])
    sp.add_argument("--D", type=_float_list, default=[2, 4, 8, 16, 32])
    sp.add_argument("--B", type=float, default=2.0)
    sp.add_argument("--tau", type=float, default=0.5)
    sp.set_defaults(func=_cmd_divisor_check)

    sp = sub.add_parser("norm-scan", allow_abbrev=False, help="l1->linf and l2->l2 operator norms")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[16, 32])
    sp.add_argument("--cutoff", choices=["sharp", "smooth"], default="sharp")
    sp.add_argument("--falsify", type=_positive_int, default=50)
    sp.set_defaults(func=_cmd_norm_scan)

    sp = sub.add_parser("sharpness", allow_abbrev=False, help="exactness of the extremizer families")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[8, 12, 16])
    sp.add_argument("--p", type=float, default=2.0)
    sp.set_defaults(func=_cmd_sharpness)

    sp = sub.add_parser("scaling-fit", allow_abbrev=False, help="log-log slope of a ratio family")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[8, 16, 32, 64, 128])
    sp.add_argument("--p", type=_float_list, default=[1.8])
    sp.add_argument("--source", choices=["box", "delta", "ascent", "l2"], default="box")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--iters", type=_positive_int, default=60)
    sp.add_argument("--plot", type=_bool, nargs="?", const=True, default=False)
    sp.set_defaults(func=_cmd_scaling_fit)

    sp = sub.add_parser("separation-probe", allow_abbrev=False, help="the q < p doubling obstruction")
    common(sp)
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=1.0)
    sp.set_defaults(func=_cmd_separation_probe)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)

    # config values become flag tokens right after the subcommand, so they are
    # parsed like flags and the explicit flags that follow still win
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    try:
        if config_path:
            argv[1:1] = _config_tokens(config_path)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

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
