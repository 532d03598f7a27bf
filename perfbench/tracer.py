"""In-memory span tracer that wraps paravg's layer functions from outside.

The program has no tracing of its own, so the benchmark installs it: every
function named in LAYERS is rebound in each ``paravg.*`` module namespace
that holds it (modules import names with ``from .x import y``, so one
function can have several aliases), and every named method is replaced on
its class.  ``uninstall`` puts every original object back.

A span is ``[name, start, end, parent, job, info]``: ``parent`` is the index
of the enclosing span (-1 at the top), ``job`` the id of the job that ran it,
``info`` a dict of counts (and the problem size ``N``, ``n`` where a
scaling fit needs it) computed from the call's arguments or result.  Spans stay in
memory until the caller asks for them.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# -- counts computed from call arguments or results ---------------------------------


def _cli_main(args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or ())
    out_dir = argv[argv.index("--out-dir") + 1] if "--out-dir" in argv else "paravg-out"
    size = 0
    if os.path.isdir(out_dir):
        size = sum(entry.stat().st_size for entry in os.scandir(out_dir) if entry.is_file())
    return {"cli.bytes_out": size}


def _cli_record(args, kwargs, result):
    passed = _arg(args, kwargs, 2, "passed")
    return {"cli.checks": 1, "cli.checks_failed": 0 if passed else 1}


def _box_cells(n: int, N: int) -> int:
    """Lattice cells of the averaged-box support grid the counting engines cover."""
    if n == 2:
        return (3 * N - 1) * (3 * N * N - 1)
    return (3 * N - 1) ** (n - 1) * ((n + 2) * N * N - 1)


def _box_engine(args, kwargs, result):
    n, N = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "N")
    return {"experiments.box_cells": _box_cells(n, N), "N": N, "n": n}


def _box_core(args, kwargs, result):
    # n = 3 delegates to box_average_counts, whose own span counts the cells
    n, N = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "N")
    return {"experiments.box_cells": _box_cells(n, N)} if n == 2 else None


def _norm_l2_l2(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    t_points = _arg(args, kwargs, 1, "t_points") or 4 * params.N * params.N
    # grid scan plus three local refinements of 17 points each
    return {"experiments.norm_l2_l2.scan_points": t_points + 3 * 17, "N": params.N, "n": params.n}


def _ascent(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    iters = _arg(args, kwargs, 3, "iters", 200)
    # three starts, one proposal per iteration, each touching every kernel offset
    touches = 3 * iters * params.N ** (params.n - 1)
    return {"experiments.ascent.touches": touches, "N": params.N, "n": params.n}


def _kernel(args, kwargs, result):
    return {"cutoff.kernel_points": len(result)}


def _convolve(args, kwargs, result):
    f, g = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g")
    method = _arg(args, kwargs, 2, "method", "auto")
    pairs = len(f) * len(g)
    out = {"lattice.convolve.pairs": pairs, "lattice.convolve.out_points": len(result)}
    fft = method == "fft" or (method == "auto" and pairs > 1 << 22)
    if fft and f.is_integer_valued() and g.is_integer_valued():
        # the exact result is integer valued: entries that round to 0 are roundoff
        out["lattice.fft.spurious_points"] = sum(1 for _, v in result.items() if abs(v) < 0.5)
    return out


def _lp_norm(args, kwargs, result):
    return {"lattice.lp_norm.points": len(_arg(args, kwargs, 0, "f"))}


def _gauss_sum(args, kwargs, result):
    return {"expsums.gauss_sum.terms": len(_arg(args, kwargs, 2, "cutoff").support())}


def _row_max(args, kwargs, result):
    ts = _arg(args, kwargs, 0, "ts")
    return {"expsums.gauss_row_max.cells": int(np.size(ts)) * _arg(args, kwargs, 2, "y_grid")}


def _bound_report(args, kwargs, result):
    return {"expsums.gauss_bound_report.samples": _arg(args, kwargs, 1, "n_samples")}


def _points(key, index, name):
    def count(args, kwargs, result):
        return {key: int(np.size(_arg(args, kwargs, index, name)))}

    return count


def _ramanujan_table(args, kwargs, result):
    q_max, ks = _arg(args, kwargs, 0, "q_max"), _arg(args, kwargs, 1, "k_values")
    return {"numtheory.ramanujan_table.entries": q_max * int(np.size(ks))}


def _sieve(args, kwargs, result):
    return {"numtheory.sieve_cells": _arg(args, kwargs, 0, "limit") + 1}


# layer (module paravg.<layer>) -> [(attribute, span name, counter)]; methods as "Class.method".
# Public functions are wrapped; helpers only called from inside their own layer
# (bump_psi, _phases, ...) are not: such a call does not move the layer's self
# time, and wrapping the hot ones would only add overhead.
LAYERS = {
    "cli": [
        ("main", "main", _cli_main),
        ("emit_plot", "emit_plot", None),
        ("_Check.record", "record", _cli_record),
    ],
    "experiments": [
        ("sharp_threshold", "sharp_threshold", None),
        ("box_average_counts", "box_average_counts", _box_engine),
        ("box_core_is_one", "box_core_is_one", _box_core),
        ("box_power_sum", "box_power_sum", _box_engine),
        ("box_extremizer_ratio", "box_extremizer_ratio", None),
        ("delta_extremizer_ratio", "delta_extremizer_ratio", None),
        ("norm_l1_linf", "norm_l1_linf", None),
        ("norm_l2_l2", "norm_l2_l2", _norm_l2_l2),
        ("rayleigh_quotient", "rayleigh_quotient", None),
        ("random_ascent_lower_bound", "ascent", _ascent),
        ("scaling_fit", "scaling_fit", None),
        ("two_bump_separation_probe", "two_bump_separation_probe", None),
    ],
    "cutoff": [
        ("average", "average", None),
        ("paraboloid_kernel", "paraboloid_kernel", _kernel),
        ("cutoff_checks", "cutoff_checks", None),
    ],
    "lattice": [
        ("delta", "delta", None),
        ("box_indicator", "box_indicator", None),
        ("lp_norm", "lp_norm", _lp_norm),
        ("convolve", "convolve", _convolve),
        ("reflect", "reflect", None),
        ("shift", "shift", None),
        ("LatticeFunction.__init__", "LatticeFunction.__init__", None),
        ("LatticeFunction.__add__", "LatticeFunction.__add__", None),
        ("LatticeFunction.__mul__", "LatticeFunction.__mul__", None),
    ],
    "expsums": [
        ("e1", "e1", None),
        ("gauss_sum", "gauss_sum", _gauss_sum),
        ("multiplier", "multiplier", None),
        ("gauss_row_max", "gauss_row_max", _row_max),
        ("dirichlet_approx", "dirichlet_approx", None),
        ("gauss_bound_report", "gauss_bound_report", _bound_report),
        ("torus_distance", "torus_distance", None),
    ],
    "arcs": [
        ("totatives", "totatives", None),
        ("major_arcs", "major_arcs", None),
        ("dyadic_block", "dyadic_block", None),
        ("arc_system", "arc_system", None),
        ("piece_multiplier", "piece_multiplier", None),
        ("write_arc_table", "write_arc_table", None),
        ("ArcSystem.weight_sum", "weight_sum", _points("arcs.weight_sum.points", 1, "t")),
        ("ArcSystem.piece_weight", "piece_weight", _points("arcs.piece_weight.points", 2, "t")),
        ("BumpLadder.eta", "eta", None),
        ("BumpLadder.eta_hat", "eta_hat", _points("arcs.eta_hat.points", 2, "t")),
    ],
    "coefficients": [
        ("piece_coefficient", "piece_coefficient", None),
        ("piece_coefficient_oracle", "oracle", None),
        ("kernel_coefficient", "kernel_coefficient", None),
        ("maj_coefficient", "maj_coefficient", None),
        ("minor_coefficient", "minor_coefficient", None),
        ("coefficient_scale", "coefficient_scale", None),
        ("coefficient_decay_report", "coefficient_decay_report", None),
        ("minor_coefficient_report", "minor_coefficient_report", None),
        ("piece_sup_report", "piece_sup_report", None),
        ("write_decay_table", "write_decay_table", None),
    ],
    "numtheory": [
        ("divisor_count", "divisor_count", None),
        ("truncated_divisor_count", "truncated_divisor_count", None),
        ("divisor_count_sieve", "divisor_count_sieve", _sieve),
        ("truncated_divisor_sieve", "truncated_divisor_sieve", _sieve),
        ("mobius", "mobius", None),
        ("ramanujan_sum", "ramanujan_sum", None),
        ("ramanujan_sum_direct", "ramanujan_sum_direct", None),
        ("ramanujan_table", "ramanujan_table", _ramanujan_table),
        ("ramanujan_block_report", "ramanujan_block_report", None),
        ("divisor_level_count", "divisor_level_count", None),
        ("paraboloid_divisor_count", "paraboloid_divisor_count", None),
        ("square_histogram", "square_histogram", None),
    ],
}


def _paravg_modules():
    return [m for name, m in list(sys.modules.items()) if name == "paravg" or name.startswith("paravg.")]


class Tracer:
    """Records spans around paravg's layer boundaries while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.job: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._seen_systems: set[int] = set()

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _arc_system_counter(self, args, kwargs, result):
        # the lru-cached constructor returns the same object on a hit
        hit = id(result) in self._seen_systems
        self._seen_systems.add(id(result))
        return {"arcs.arc_system.hits": int(hit)}

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        modules = _paravg_modules()
        for layer, entries in LAYERS.items():
            module = sys.modules[f"paravg.{layer}"]
            for attr, short, counter in entries:
                if attr == "arc_system":  # its count needs the tracer's memory of results
                    counter = self._arc_system_counter
                name = f"{layer}.{short}"
                if "." in attr:
                    self._patch_method(module, attr, name, counter)
                elif hasattr(module, attr):
                    original = getattr(module, attr)
                    wrapped = self._wrap(name, original, counter)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patches.append((mod, key, original))
                                setattr(mod, key, wrapped)

    def _patch_method(self, module, attr, name, counter):
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or method not in vars(cls):
            return
        original = vars(cls)[method]
        wrapped = self._wrap(name, original, counter)
        # class-level aliases too (LatticeFunction.__rmul__ is __mul__)
        for key, value in list(vars(cls).items()):
            if value is original:
                self._patches.append((cls, key, original))
                setattr(cls, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- per-layer metrics from spans -----------------------------------------------------

# metric name -> (unit, kind, source); kind "s" is inclusive time of the named span,
# "calls" its span count, "self_s" a layer's self time, "layer_calls" a layer's span
# count, "count" a sum of computed counts, "exp" a time-vs-N slope.
SPAN_METRICS = {
    "cli.self_s": ("s", "self_s", "cli"),
    "cli.checks": ("count", "count", "cli.checks"),
    "cli.checks_failed": ("count", "count", "cli.checks_failed"),
    "cli.bytes_out": ("bytes", "count", "cli.bytes_out"),
    "experiments.self_s": ("s", "self_s", "experiments"),
    "experiments.calls": ("count", "layer_calls", "experiments"),
    "experiments.box_power_sum.s": ("s", "s", "experiments.box_power_sum"),
    "experiments.box_cells": ("count", "count", "experiments.box_cells"),
    "experiments.norm_l2_l2.s": ("s", "s", "experiments.norm_l2_l2"),
    "experiments.norm_l2_l2.scan_points": ("count", "count", "experiments.norm_l2_l2.scan_points"),
    "experiments.ascent.s": ("s", "s", "experiments.ascent"),
    "experiments.ascent.touches": ("count", "count", "experiments.ascent.touches"),
    "experiments.rayleigh_quotient.calls": ("count", "calls", "experiments.rayleigh_quotient"),
    "experiments.box_average_counts.s": ("s", "s", "experiments.box_average_counts"),
    "experiments.box_power_sum.time_exp": ("exponent", "exp", "experiments.box_power_sum"),
    "experiments.norm_l2_l2.time_exp": ("exponent", "exp", "experiments.norm_l2_l2"),
    "experiments.ascent.time_exp": ("exponent", "exp", "experiments.ascent"),
    "cutoff.self_s": ("s", "self_s", "cutoff"),
    "cutoff.average.s": ("s", "s", "cutoff.average"),
    "cutoff.average.calls": ("count", "calls", "cutoff.average"),
    "cutoff.paraboloid_kernel.s": ("s", "s", "cutoff.paraboloid_kernel"),
    "cutoff.kernel_points": ("count", "count", "cutoff.kernel_points"),
    "lattice.self_s": ("s", "self_s", "lattice"),
    "lattice.convolve.s": ("s", "s", "lattice.convolve"),
    "lattice.convolve.calls": ("count", "calls", "lattice.convolve"),
    "lattice.convolve.pairs": ("count", "count", "lattice.convolve.pairs"),
    "lattice.convolve.out_points": ("count", "count", "lattice.convolve.out_points"),
    "lattice.lp_norm.s": ("s", "s", "lattice.lp_norm"),
    "lattice.lp_norm.points": ("count", "count", "lattice.lp_norm.points"),
    "lattice.fft.spurious_points": ("count", "count", "lattice.fft.spurious_points"),
    "expsums.self_s": ("s", "self_s", "expsums"),
    "expsums.gauss_sum.calls": ("count", "calls", "expsums.gauss_sum"),
    "expsums.gauss_sum.s": ("s", "s", "expsums.gauss_sum"),
    "expsums.gauss_sum.terms": ("count", "count", "expsums.gauss_sum.terms"),
    "expsums.multiplier.calls": ("count", "calls", "expsums.multiplier"),
    "expsums.gauss_row_max.s": ("s", "s", "expsums.gauss_row_max"),
    "expsums.gauss_row_max.cells": ("count", "count", "expsums.gauss_row_max.cells"),
    "expsums.dirichlet_approx.calls": ("count", "calls", "expsums.dirichlet_approx"),
    "expsums.gauss_bound_report.s": ("s", "s", "expsums.gauss_bound_report"),
    "expsums.gauss_bound_report.samples": ("count", "count", "expsums.gauss_bound_report.samples"),
    "arcs.self_s": ("s", "self_s", "arcs"),
    "arcs.piece_multiplier.calls": ("count", "calls", "arcs.piece_multiplier"),
    "arcs.piece_multiplier.s": ("s", "s", "arcs.piece_multiplier"),
    "arcs.weight_sum.s": ("s", "s", "arcs.weight_sum"),
    "arcs.weight_sum.points": ("count", "count", "arcs.weight_sum.points"),
    "arcs.piece_weight.s": ("s", "s", "arcs.piece_weight"),
    "arcs.piece_weight.points": ("count", "count", "arcs.piece_weight.points"),
    "arcs.eta_hat.points": ("count", "count", "arcs.eta_hat.points"),
    "arcs.arc_system.calls": ("count", "calls", "arcs.arc_system"),
    "coefficients.self_s": ("s", "self_s", "coefficients"),
    "coefficients.piece_coefficient.s": ("s", "s", "coefficients.piece_coefficient"),
    "coefficients.oracle.s": ("s", "s", "coefficients.oracle"),
    "coefficients.oracle.calls": ("count", "calls", "coefficients.oracle"),
    "coefficients.piece_sup_report.s": ("s", "s", "coefficients.piece_sup_report"),
    "numtheory.self_s": ("s", "self_s", "numtheory"),
    "numtheory.ramanujan_table.s": ("s", "s", "numtheory.ramanujan_table"),
    "numtheory.ramanujan_table.entries": ("count", "count", "numtheory.ramanujan_table.entries"),
    "numtheory.divisor_level_count.s": ("s", "s", "numtheory.divisor_level_count"),
    "numtheory.sieve_cells": ("count", "count", "numtheory.sieve_cells"),
}

# derived from the spans after aggregation
DERIVED_METRICS = {
    "arcs.arc_system.hit_ratio": "ratio",
    "coefficients.oracle.grid_points": "count",
    "coefficients.oracle.points_per_query": "points/query",
}

# metrics whose value is a count computed from call arguments or results
# (the rest are span times, span counts, or ratios and slopes of those)
COMPUTED = {name for name, (_, kind, _) in SPAN_METRICS.items() if kind == "count"} | {
    "arcs.arc_system.hit_ratio",
    "coefficients.oracle.grid_points",
    "coefficients.oracle.points_per_query",
}


def time_exponent(pairs) -> float:
    """Least-squares slope of log(seconds) against log(N); 0 with < 2 distinct N."""
    pairs = [(N, s) for N, s in pairs if s > 0]
    if len({N for N, _ in pairs}) < 2:
        return 0.0
    x = np.log([N for N, _ in pairs])
    y = np.log([s for _, s in pairs])
    return float(np.polyfit(x, y, 1)[0])


def span_metrics(spans) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics above (0 where nothing ran)."""
    durations = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += durations[i]

    def outermost(i):
        # exclude spans nested in a span of the same name (no double counting)
        name, parent = spans[i][0], spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    inclusive, calls, self_s, layer_calls, counts = {}, {}, {}, {}, {}
    by_name_n: dict[str, list] = {}
    for i, s in enumerate(spans):
        name = s[0]
        layer = name.split(".", 1)[0]
        calls[name] = calls.get(name, 0) + 1
        layer_calls[layer] = layer_calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + durations[i] - child_time[i]
        if outermost(i):
            inclusive[name] = inclusive.get(name, 0.0) + durations[i]
        info = s[5] or {}
        for key, value in info.items():
            if key == "N":
                by_name_n.setdefault(name, []).append((value, info.get("n"), durations[i]))
            elif key != "n":
                counts[key] = counts.get(key, 0) + value

    out = {}
    for metric, (_, kind, source) in SPAN_METRICS.items():
        if kind == "s":
            out[metric] = inclusive.get(source, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(source, 0)
        elif kind == "self_s":
            out[metric] = self_s.get(source, 0.0)
        elif kind == "layer_calls":
            out[metric] = layer_calls.get(source, 0)
        elif kind == "count":
            out[metric] = counts.get(source, 0)
        else:
            # n = 2, the dimension of the scaling baselines in the ROADMAP
            samples = by_name_n.get(source, [])
            out[metric] = time_exponent([(N, d) for N, n, d in samples if n == 2])

    system_calls = calls.get("arcs.arc_system", 0)
    out["arcs.arc_system.hit_ratio"] = (
        counts.get("arcs.arc_system.hits", 0) / system_calls if system_calls else 0.0
    )
    grid = sum(
        (spans[i][5] or {}).get("arcs.piece_weight.points", 0)
        for i, s in enumerate(spans)
        if s[0] == "arcs.piece_weight" and s[3] >= 0 and spans[s[3]][0] == "coefficients.oracle"
    )
    out["coefficients.oracle.grid_points"] = grid
    oracle_calls = calls.get("coefficients.oracle", 0)
    out["coefficients.oracle.points_per_query"] = grid / oracle_calls if oracle_calls else 0.0
    return out


def metric_units() -> dict[str, str]:
    units = {name: unit for name, (unit, _, _) in SPAN_METRICS.items()}
    units.update(DERIVED_METRICS)
    return units
