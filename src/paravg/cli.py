"""Batch front end: seeded experiment runs, CSV/JSON reports, SVG plots.

Exit status: 0 all checks passed, 1 a hard invariant (exact identity or
oracle agreement) failed, 2 usage error or a bad parameter (a count below 1
or a value the library rejects, such as arcs-check --N 5).  Every run embeds
its full configuration, seed, and library version in the JSON output; reruns
with an equal config produce byte-identical JSON.  All randomness flows from
the single --seed through named substreams.
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
from .cutoff import CutoffProfile, OperatorParams
from .lattice import delta, lp_norm, shift
from .reports import substream_seed

USAGE_ERROR = 2
INVARIANT_FAILURE = 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _load_config(path: str) -> dict:
    """Flat key=value config; keys mirror the long flags (dashes or underscores)."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
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


def _write_outputs(out_dir: str, name: str, payload: dict, rows=None, fieldnames=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{name}.json", "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    if rows is not None:
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fieldnames or sorted(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return str(out / f"{name}.json")


def _payload(args, results: dict, checks: _Check) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {
        "schema_version": 1,
        "library_version": __version__,
        "config": config,
        "results": results,
        "checks": checks.lines,
        "status": checks.status,
    }


# -- subcommands ----------------------------------------------------------------


def _cmd_gauss_check(args) -> int:
    checks = _Check()
    rng = np.random.default_rng(substream_seed(args.seed, "gauss-check"))

    # conjugate symmetry spot check at a fixed probe scale (identity check;
    # the sweep constants below carry the N dependence)
    cutoff = CutoffProfile("smooth", min(max(args.N), 32), args.ramp_order)
    worst_sym = 0.0
    for _ in range(200):
        t, y = rng.random(), rng.random()
        lhs = expsums.gauss_sum((-t) % 1.0, (-y) % 1.0, cutoff)
        rhs = expsums.gauss_sum(t, y, cutoff)
        worst_sym = max(worst_sym, abs(lhs - rhs.conjugate()))
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
        checks.record(f"gauss bound constant finite at N={N}", math.isfinite(r.constant))
    if len(args.N) >= 2:
        spread = max(constants.values()) / min(constants.values())
        checks.record("gauss bound constant varies < 2x across N", spread < 2.0, f"spread {spread:.3f}")

    rerun = expsums.gauss_bound_report(
        OperatorParams.smooth(args.n, args.N[0], args.ramp_order), args.samples, args.seed
    )
    checks.record("seeded rerun identical", rerun.constant == reports[0].constant)

    rows = [{"N": N, "constant": repr(c)} for N, c in sorted((int(k), v) for k, v in constants.items())]
    _write_outputs(args.out_dir, "gauss-check", _payload(args, {"constants": constants}, checks), rows, ["N", "constant"])
    return checks.status


def _cmd_arcs_check(args) -> int:
    checks = _Check()
    results = {}
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    for N in args.N:
        system = arcs_mod.arc_system(N, args.order)
        rng = np.random.default_rng(substream_seed(args.seed, f"arcs-check:{N}"))
        checks.record(f"N={N}: 4I arcs pairwise disjoint", arcs_mod.arcs_4i_disjoint(arcs_mod.major_arcs(N)))
        checks.record(f"N={N}: support clusters pairwise disjoint", system.clusters_disjoint())

        worst_pu = 0.0
        for (q, a), ladder in system.ladders.items():
            u = (rng.random(args.samples) * 2 - 1) / (N * q)  # inside the arc
            xi = (a / q + u) % 1.0
            total = np.zeros_like(xi)
            for eta in ladder.level_etas(xi):
                total += eta
            worst_pu = max(worst_pu, float(np.max(np.abs(total - 1.0))))
        checks.record(f"N={N}: partition of unity <= 1e-12 on arcs", worst_pu <= 1e-12, f"max {worst_pu:.2e}")

        params = OperatorParams.smooth(args.n, N, args.ramp_order)
        xi_rand = rng.random((200, args.n))
        whole, maj, mino = (
            arcs_mod.piece_multiplier(arcs_mod.PieceSpec(kind), xi_rand, params, args.order)
            for kind in ("whole", "maj", "min")
        )
        # Python abs per row: np.abs on complex arrays can differ in the last ulp
        worst_split = max(abs(d) for d in (whole - (maj + mino)).tolist())
        checks.record(f"N={N}: maj + min == whole <= 1e-12", worst_split <= 1e-12, f"max {worst_split:.2e}")
        results[str(N)] = {"partition_max_dev": worst_pu, "split_max_dev": worst_split}
        arcs_mod.write_arc_table(N, Path(args.out_dir) / f"arc-table-N{N}.csv", args.order)

    _write_outputs(args.out_dir, "arcs-check", _payload(args, results, checks))
    return checks.status


def _cmd_coeff_check(args) -> int:
    checks = _Check()
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

    _write_outputs(
        args.out_dir,
        "coeff-check",
        _payload(args, {"worst_rel": worst_rel, "worst_paraboloid": worst_par}, checks),
        rows,
        ["kind", "Q", "l", "r", "closed", "oracle", "rel_err"],
    )
    return checks.status


def _cmd_ramanujan_check(args) -> int:
    if args.qmax < 2 or args.kmax < 0:
        raise ValueError(f"ramanujan-check needs --qmax >= 2 and --kmax >= 0 (got {args.qmax}, {args.kmax})")
    checks = _Check()
    ks = np.arange(-args.kmax, args.kmax + 1)
    table = None
    detail = ""
    try:
        table = numtheory.ramanujan_table(args.qmax, ks)
        agree = True
    except AssertionError as exc:
        agree, detail = False, str(exc)
    checks.record(
        f"direct == Moebius for q <= {args.qmax}, |k| <= {args.kmax}", agree, detail
    )
    results = {"q_max": args.qmax, "k_max": args.kmax}
    if agree and table is not None:
        phi_ok = all(
            int(table[q - 1, args.kmax]) == len(arcs_mod.totatives(q))
            for q in range(2, args.qmax + 1)
        )
        results["c_phi_check"] = bool(phi_ok)
        checks.record("c_q(0) equals phi(q)", phi_ok)
    _write_outputs(args.out_dir, "ramanujan-check", _payload(args, results, checks))
    return checks.status


def _cmd_divisor_check(args) -> int:
    checks = _Check()
    rows = []
    worst = 0.0
    numtheory.CheckParams(D=min(args.D), B=args.B, tau=args.tau)  # validates positivity
    for Q in args.Q:
        counts = {}
        for D in args.D:
            count, report = numtheory.divisor_level_count(args.N, Q, D, args.B, args.tau)
            ratio = report.values["ratio"]
            worst = max(worst, ratio)
            rows.append({"N": args.N, "Q": Q, "D": D, "count": count, "ratio": repr(ratio)})
            counts[D] = count
        ascending = [counts[D] for D in sorted(counts)]
        checks.record(
            f"counts nonincreasing in D at Q={Q}",
            all(b <= a for a, b in zip(ascending, ascending[1:])),
        )
        zero, _ = numtheory.divisor_level_count(args.N, Q, float(Q))
        checks.record(f"D >= Q forces zero count at Q={Q}", zero == 0)
    checks.record("level-set ratio recorded", math.isfinite(worst), f"max {worst:.4f}")
    _write_outputs(
        args.out_dir,
        "divisor-check",
        _payload(args, {"max_ratio": worst}, checks),
        rows,
        ["N", "Q", "D", "count", "ratio"],
    )
    return checks.status


def _cmd_norm_scan(args) -> int:
    checks = _Check()
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
        worst = 0.0
        for _ in range(args.falsify):
            pts = rng.integers(-2 * N, 2 * N, size=(8, args.n))
            f = delta(tuple(int(c) for c in pts[0]), args.n)
            for row in pts[1:]:
                f = f + float(rng.random()) * delta(tuple(int(c) for c in row), args.n)
            worst = max(worst, exp_mod.rayleigh_quotient(f, params))
        checks.record(
            f"N={N}: random Rayleigh quotients below the norm",
            worst <= value + 1e-9,
            f"max {worst:.6f} vs {value:.6f}",
        )
        results[str(N)] = {"l1_linf": l1, "l2_l2": value, "certificate": report.values["rayleigh_certificate"]}
    _write_outputs(args.out_dir, "norm-scan", _payload(args, results, checks))
    return checks.status


def _cmd_sharpness(args) -> int:
    checks = _Check()
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
    _write_outputs(args.out_dir, "sharpness", _payload(args, results, checks))
    return checks.status


def _default_tol(source: str) -> float:
    return 0.05 if source == "delta" else 0.15


def _cmd_scaling_fit(args) -> int:
    checks = _Check()
    tol = args.tol if args.tol is not None else _default_tol(args.source)
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
    path = _write_outputs(
        args.out_dir, "scaling-fit", _payload(args, results, checks), rows, ["n", "N", "p", "source", "value"]
    )
    if args.plot:
        svg = emit_plot(Path(args.out_dir) / "scaling-fit.csv", "loglog")
        print(f"wrote {svg}")
    else:
        print(f"wrote {path}")
    return checks.status


def _cmd_separation_probe(args) -> int:
    checks = _Check()
    params = OperatorParams.sharp(args.n, args.N)
    f = delta((0,) * args.n)
    shifts = [tuple([m * 10 * args.N**2] + [0] * (args.n - 1)) for m in (1, 2, 4)]
    report = exp_mod.two_bump_separation_probe(f, shifts, args.p, args.q, params)

    from .cutoff import average as _avg

    af = _avg(f, params)
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
    _write_outputs(args.out_dir, "separation-probe", _payload(args, {"gain": expected}, checks))
    return checks.status


# -- SVG plotting -----------------------------------------------------------------


def emit_plot(csv_path, kind: str, out_path=None) -> str:
    """Render a CSV produced by a run into a self-contained SVG.

    kind "loglog" plots value against N on log axes and overlays the
    predicted slope as a dashed reference through the first data point;
    kind "profile" is a linear polyline of (x, value) rows.  Deterministic:
    equal CSV bytes give equal SVG bytes.
    """
    csv_path = Path(csv_path)
    if kind not in ("loglog", "profile"):
        raise ValueError(f"unknown plot kind {kind!r}")
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no data rows in {csv_path}")

    width, height, margin = 480, 360, 50

    def poly(points):
        return " ".join(f"{x:.3f},{y:.3f}" for x, y in points)

    try:
        if kind == "loglog":
            xs = [math.log(float(r["N"])) for r in rows]
            ys = [math.log(float(r["value"])) for r in rows]
            n = int(rows[0]["n"])
            p = float(rows[0]["p"])
            slope = exp_mod.target_slope(n, p, rows[0].get("source", "box"))
            ref_ys = [ys[0] + slope * (x - xs[0]) for x in xs]
            label = f"reference slope {slope:.4f}"
        else:
            xs = [float(r["x"]) for r in rows]
            ys = [float(r["value"]) for r in rows]
            ref_ys = None
            label = ""
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed CSV for {kind} plot: {exc}") from exc

    x_lo, x_hi = min(xs), max(xs)
    all_y = ys + (ref_ys or [])
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
    if ref_ys is not None:
        parts.append(
            f'<polyline fill="none" stroke="gray" stroke-width="1" stroke-dasharray="6,4" '
            f'points="{poly([to_px(x, y) for x, y in zip(xs, ref_ys)])}"/>'
        )
        parts.append(
            f'<text x="{margin}" y="{margin - 12}" font-family="monospace" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    out_path = Path(out_path) if out_path else csv_path.with_suffix(".svg")
    with open(out_path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
    return str(out_path)


# -- parser ------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paravg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, n_default=2):
        sp.add_argument("--n", type=int, default=n_default)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out-dir", default="paravg-out")
        sp.add_argument("--config", default=None)
        sp.add_argument("--ramp-order", type=int, default=3)
        sp.add_argument("--order", type=int, default=8, help="bump spline order")

    sp = sub.add_parser("gauss-check", help="Gauss-sum bound constants over an N sweep")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[16, 32, 64, 128])
    sp.add_argument("--samples", type=_positive_int, default=10000)
    sp.add_argument("--dirichlet-samples", type=_positive_int, default=20000)
    sp.set_defaults(func=_cmd_gauss_check)

    sp = sub.add_parser("arcs-check", help="partition of unity and arc disjointness")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[16, 64])
    sp.add_argument("--samples", type=_positive_int, default=1000)
    sp.set_defaults(func=_cmd_arcs_check)

    sp = sub.add_parser("coeff-check", help="closed-form coefficients against the oracle")
    common(sp)
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--Q", type=_int_list, default=[1, 2])
    sp.add_argument("--l", type=_int_list, default=[0, 1])
    sp.add_argument("--count", type=_positive_int, default=50)
    sp.add_argument("--grid", type=int, default=4096)
    sp.set_defaults(func=_cmd_coeff_check)

    sp = sub.add_parser("ramanujan-check", help="direct vs arithmetic complete sums")
    common(sp)
    sp.add_argument("--qmax", type=int, default=128)
    sp.add_argument("--kmax", type=int, default=2048)
    sp.set_defaults(func=_cmd_ramanujan_check)

    sp = sub.add_parser("divisor-check", help="divisor level-set counting bounds")
    common(sp)
    sp.add_argument("--N", type=int, default=100000)
    sp.add_argument("--Q", type=_int_list, default=[16, 64])
    sp.add_argument("--D", type=_float_list, default=[2, 4, 8, 16, 32])
    sp.add_argument("--B", type=float, default=2.0)
    sp.add_argument("--tau", type=float, default=0.5)
    sp.set_defaults(func=_cmd_divisor_check)

    sp = sub.add_parser("norm-scan", help="l1->linf and l2->l2 operator norms")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[16, 32])
    sp.add_argument("--cutoff", choices=["sharp", "smooth"], default="sharp")
    sp.add_argument("--falsify", type=_positive_int, default=50)
    sp.set_defaults(func=_cmd_norm_scan)

    sp = sub.add_parser("sharpness", help="exactness of the extremizer families")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[8, 12, 16])
    sp.add_argument("--p", type=float, default=2.0)
    sp.set_defaults(func=_cmd_sharpness)

    sp = sub.add_parser("scaling-fit", help="log-log slope of a ratio family")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[8, 16, 32, 64, 128])
    sp.add_argument("--p", type=_float_list, default=[1.8])
    sp.add_argument("--source", choices=["box", "delta", "ascent", "l2"], default="box")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--iters", type=_positive_int, default=60)
    sp.add_argument("--plot", action="store_true")
    sp.set_defaults(func=_cmd_scaling_fit)

    sp = sub.add_parser("separation-probe", help="the q < p doubling obstruction")
    common(sp)
    sp.add_argument("--N", type=int, default=8)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--q", type=float, default=1.0)
    sp.set_defaults(func=_cmd_separation_probe)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)

    # first pass: pick up --config and use its values as defaults
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    try:
        if config_path:
            raw = _load_config(config_path)
            if argv and not argv[0].startswith("-"):
                subparser = parser._subparsers._group_actions[0].choices.get(argv[0])  # type: ignore[union-attr]
                if subparser is not None:
                    typed = {}
                    for action in subparser._actions:
                        if action.dest in raw:
                            value = raw[action.dest]
                            typed[action.dest] = action.type(value) if action.type else value
                    subparser.set_defaults(**typed)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR

    try:
        status = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AssertionError, RuntimeError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return INVARIANT_FAILURE
    print(f"status {status}")
    return status


if __name__ == "__main__":
    sys.exit(main())
