"""Fourier coefficients of the multiplier pieces, with a quadrature oracle.

For a piece W(xi_n) * m(xi) (W a sum of mean-zero ladder bumps) the
coefficient at r = (r', r_n) collapses, by orthogonality in the first n-1
coordinates, to

    coef(r) = sigma(r_1) ... sigma(r_{n-1}) * sum_{q,a} eta_hat(|r'|^2 - r_n),

so every piece coefficient vanishes identically on the paraboloid
|r'|^2 = r_n (the bracket in eta_hat is zero at frequency 0).  The oracle
reproduces the remaining one-dimensional integral numerically: a periodic
rectangle rule (equivalent to the trapezoid rule on the torus), refined by
doubling until two successive grids agree.

The whole-kernel coefficient is exact: coefficients of m recover the kernel
itself, sigma(r_1)...sigma(r_{n-1}) 1{r_n = |r'|^2}.  The minor-arc
coefficient is that minus the arc-localized part.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arcs import (
    DEFAULT_SPLINE_ORDER,
    PieceSpec,
    arc_system,
    bump_psi_hat,
    dyadic_block,
    piece_system,
)
from .cutoff import OperatorParams
from .expsums import e1, gauss_row_max
from .reports import ExperimentReport, substream_seed

__all__ = [
    "CoefficientQuery",
    "piece_coefficient",
    "piece_coefficient_oracle",
    "kernel_coefficient",
    "maj_coefficient",
    "minor_coefficient",
    "coefficient_decay_report",
    "minor_coefficient_report",
    "piece_sup_report",
    "write_decay_table",
]


@dataclass(frozen=True)
class CoefficientQuery:
    """One coefficient request: a dyadic/core piece, a lattice point, params."""

    spec: PieceSpec
    r: tuple
    params: OperatorParams

    def __post_init__(self):
        if self.spec.kind not in ("dyadic", "core"):
            raise ValueError("coefficient queries take dyadic or core pieces")
        if len(self.r) != self.params.n:
            raise ValueError("r must have the ambient dimension")
        if self.params.cutoff.kind != "smooth":
            raise ValueError("piece coefficients are defined for the smooth cutoff")

    @property
    def residual(self) -> int:
        """|r'|^2 - r_n, the only frequency the last coordinate sees."""
        rp = self.r[:-1]
        return int(sum(c * c for c in rp) - self.r[-1])


def _sigma_product(params: OperatorParams, r_perp) -> float:
    out = 1.0
    for c in r_perp:
        out *= params.cutoff.value(int(c))
        if out == 0.0:
            return 0.0
    return out


def piece_coefficient(query: CoefficientQuery, order: int = DEFAULT_SPLINE_ORDER) -> complex:
    """Closed-form coefficient of one dyadic/core piece at r."""
    sig = _sigma_product(query.params, query.r[:-1])
    if sig == 0.0:
        return 0j
    t = query.residual
    level = "core" if query.spec.kind == "core" else query.spec.level
    acc = 0j
    for lad in piece_system(query.spec, query.params, order).piece_ladders(query.spec):
        acc += lad.eta_hat(level, np.int64(t))
    return sig * acc


@lru_cache(maxsize=64)
def _oracle_weights(N: int, order: int, q_limit: int, spec: PieceSpec, M: int) -> np.ndarray:
    """piece_weight(spec, j/M) for 0 <= j < M, read-only.

    The oracle's rectangle-rule weights depend on a query only through its
    arc system, spec and grid size, so queries that share them share one
    grid; the cache holds at most 64 grids.
    """
    w = arc_system(N, order, q_limit).piece_weight(spec, np.arange(M, dtype=np.int64) / M)
    w.flags.writeable = False
    return w


def piece_coefficient_oracle(
    query: CoefficientQuery,
    grid_size: int = 4096,
    order: int = DEFAULT_SPLINE_ORDER,
    tol: float = 1e-9,
) -> complex:
    """Quadrature oracle for the same coefficient.

    The first n-1 torus integrals are exact by orthogonality (they reduce to
    the sigma factors), leaving the one-dimensional integral of
    W(xi) e(t xi) over the bump supports.  That is computed by the periodic
    rectangle rule and refined by doubling until two successive grid sizes
    agree to `tol`; failure to converge within 4 refinements is an error.
    """
    if grid_size < 4096 or (grid_size & (grid_size - 1)) != 0:
        raise ValueError("grid_size must be a power of two >= 4096")
    sig = _sigma_product(query.params, query.r[:-1])
    t = query.residual
    system = piece_system(query.spec, query.params, order)

    def rect(M: int) -> complex:
        j = np.arange(M, dtype=np.int64)
        w = _oracle_weights(query.params.N, order, system.q_limit, query.spec, M)
        phases = ((t * j) % M) / M
        return complex(np.sum(w * e1(phases)) / M)

    prev = rect(grid_size)
    M = grid_size
    for _ in range(4):
        M *= 2
        cur = rect(M)
        if abs(cur - prev) <= tol:
            return sig * cur
        prev = cur
    raise RuntimeError(f"oracle did not converge at grid {M} (query residual {t})")


def coefficient_scale(spec: PieceSpec, params: OperatorParams) -> float:
    """Natural size of a piece's coefficients: (N 2^l)^-1 dyadic, (N^2/Q)^-1 core.

    Oracle comparisons measure against max(|oracle|, this scale): the
    quadrature oracle carries an absolute roundoff floor near 1e-16, so a
    pure relative tolerance is unattainable for coefficients deep in the
    spline tail (values below ~1e-10) even though the closed form is exact
    there.
    """
    N = params.N
    if spec.kind == "dyadic":
        return 1.0 / (N * 2**spec.level)
    if spec.kind == "core":
        return spec.Q / (N * N)
    raise ValueError("scale applies to dyadic or core pieces")


def _decay_bound(spec: PieceSpec, params: OperatorParams, eps: float) -> float:
    """Decay bound (N 2^l)^-1 (QN)^eps for dyadic pieces, (N^2/Q)^-1 (QN)^eps for core."""
    N = params.N
    if spec.kind == "dyadic":
        return (N * 2**spec.level) ** (-1.0) * (spec.Q * N) ** eps
    return (N * N / spec.Q) ** (-1.0) * (spec.Q * N) ** eps


def kernel_coefficient(params: OperatorParams, r) -> float:
    """Coefficient of the whole multiplier at r: the kernel value itself."""
    rp, rn = tuple(r[:-1]), int(r[-1])
    if sum(c * c for c in rp) != rn:
        return 0.0
    return _sigma_product(params, rp)


def maj_coefficient(
    params: OperatorParams, r, order: int = DEFAULT_SPLINE_ORDER
) -> complex:
    """Closed-form coefficient of the arc-localized part at r.

    Per fraction the ladder telescopes, so the sum over levels collapses to
    the scale-Nq bump transform times the mean-zero bracket.
    """
    sig = _sigma_product(params, r[:-1])
    if sig == 0.0:
        return 0j
    t = int(sum(c * c for c in r[:-1]) - r[-1])
    system = arc_system(params.N, order)
    acc = 0j
    for (q, a), lad in system.ladders.items():
        s = params.N * q
        r1 = ((a * t) % q) / q
        r2 = ((3 * t) % s) / s
        acc += bump_psi_hat(t / s, order) / s * (e1(r1) - e1(r1 + r2))
    return sig * acc


def minor_coefficient(
    params: OperatorParams, r, order: int = DEFAULT_SPLINE_ORDER
) -> complex:
    return kernel_coefficient(params, r) - maj_coefficient(params, r, order)


# -- reports ---------------------------------------------------------------------


def _residual_profile(
    spec: PieceSpec, params: OperatorParams, order: int
) -> tuple[np.ndarray, int]:
    """|sum eta_hat| on the integer residual range of the scan box.

    Returns (H, t_lo) with H[i] = |sum_{q,a} eta_hat(t_lo + i)| for residuals
    t = |r'|^2 - r_n covering |r_i| <= 2N, |r_n| <= 5 N^2.
    """
    N, n = params.N, params.n
    s_max = (n - 1) * (2 * N - 1) ** 2
    t_lo = -5 * N * N
    t_hi = s_max + 5 * N * N
    ts = np.arange(t_lo, t_hi + 1, dtype=np.int64)
    level = "core" if spec.kind == "core" else spec.level
    acc = np.zeros(len(ts), dtype=np.complex128)
    for lad in piece_system(spec, params, order).piece_ladders(spec):
        acc += lad.eta_hat(level, ts)
    return np.abs(acc), t_lo


def coefficient_decay_report(
    spec: PieceSpec,
    params: OperatorParams,
    eps: float = 0.2,
    order: int = DEFAULT_SPLINE_ORDER,
) -> ExperimentReport:
    """Sup of |coefficient| over the scan box, normalized by the decay bound.

    Dyadic pieces are normalized by (N 2^l)^{-1} (QN)^eps, core pieces by
    (N^2/Q)^{-1} (QN)^eps.  The scan box |r_i| <= 2N, |r_n| <= 5 N^2
    truncates the lattice; beyond it the spline decay (order m+1 >= 9 in the
    residual) contributes below 1e-10 of the sup.  Also records where the
    sup is attained.
    """
    N, n = params.N, params.n
    H, t_lo = _residual_profile(spec, params, order)
    cutoff = params.cutoff

    best = 0.0
    best_r = None
    rn_lo, rn_hi = -5 * N * N, 5 * N * N
    r_range = np.arange(-(2 * N - 1), 2 * N)
    sigma = np.asarray(cutoff.value(r_range), dtype=float)
    if n == 2:
        for r1, sig in zip(r_range, sigma):
            if sig == 0.0:
                continue
            s = int(r1) * int(r1)
            # residuals t = s - r_n for r_n in [rn_lo, rn_hi]
            idx_hi = s - rn_lo - t_lo
            idx_lo = s - rn_hi - t_lo
            window = H[idx_lo : idx_hi + 1]
            i = int(np.argmax(window))
            val = sig * float(window[i])
            if val > best:
                best = val
                best_r = (int(r1), s - (idx_lo + i + t_lo))
    else:
        grids = np.meshgrid(*([r_range] * (n - 1)), indexing="ij")
        flat = [g.ravel() for g in grids]
        weights = np.ones(len(flat[0]))
        ssum = np.zeros(len(flat[0]), dtype=np.int64)
        for g in flat:
            weights *= np.asarray(cutoff.value(g), dtype=float)
            ssum += g.astype(np.int64) ** 2
        for w, s, *rp in zip(weights, ssum, *flat):
            if w == 0.0:
                continue
            idx_hi = int(s) - rn_lo - t_lo
            idx_lo = int(s) - rn_hi - t_lo
            window = H[idx_lo : idx_hi + 1]
            i = int(np.argmax(window))
            val = w * float(window[i])
            if val > best:
                best = val
                best_r = tuple(int(c) for c in rp) + (int(s) - (idx_lo + i + t_lo),)

    bound = _decay_bound(spec, params, eps)
    residual = (
        sum(c * c for c in best_r[:-1]) - best_r[-1] if best_r is not None else None
    )
    return ExperimentReport(
        name="coefficient_decay",
        params={"n": n, "N": N, "kind": spec.kind, "Q": spec.Q, "l": spec.level, "eps": eps},
        constant=best / bound,
        values={
            "sup": best,
            "bound": bound,
            "argmax_residual": float(residual) if residual is not None else math.nan,
        },
        notes=f"argmax at r={best_r}; decay exponent in the residual is order+1={order + 1}",
    )


def minor_coefficient_report(
    params: OperatorParams,
    eps: float = 0.2,
    n_samples: int = 400,
    seed: int = 0,
    order: int = DEFAULT_SPLINE_ORDER,
) -> ExperimentReport:
    """Sup of |minor coefficient| over sampled r, normalized by N^eps.

    The sup sits on the paraboloid itself: there the whole-kernel coefficient
    is the sigma product while the arc part vanishes (mean zero), so the
    minor coefficient is ~1 uniformly in N.  Paraboloid points are included
    deterministically; random samples cover nearby residuals and background.
    """
    N, n = params.N, params.n
    rng = np.random.default_rng(substream_seed(seed, f"minor_coef:{N}"))
    sup = 0.0
    probes = [(0,) * n] + [
        (k,) + (0,) * (n - 2) + (k * k,) for k in (1, N // 2, N - 1)
    ]
    for r in probes:
        sup = max(sup, abs(minor_coefficient(params, r, order)))
    for _ in range(n_samples):
        rp = tuple(int(c) for c in rng.integers(-2 * N + 1, 2 * N, size=n - 1))
        s = sum(c * c for c in rp)
        if rng.random() < 0.5:
            rn = int(s - rng.integers(-8 * N, 8 * N + 1))  # near-paraboloid residuals
        else:
            rn = int(rng.integers(-5 * N * N, 5 * N * N + 1))
        val = abs(minor_coefficient(params, rp + (rn,), order))
        sup = max(sup, val)
    return ExperimentReport(
        name="minor_coefficient_sup",
        params={"n": n, "N": N, "eps": eps},
        constant=sup / N**eps,
        samples=n_samples,
        seed=seed,
        values={"sup": sup},
    )


# -- sup-norm reports over the torus ----------------------------------------------


def _scan_points(params: OperatorParams, spec: PieceSpec, order: int) -> np.ndarray:
    """t-grid resolving the bump scales: 1/(8 N^2) steps inside the support
    clusters, 1/(4 N^2) globally (min piece and whole need the full torus)."""
    N = params.N
    if spec.kind in ("dyadic", "core"):
        system = piece_system(spec, params, order)
        qs = set(q for q in dyadic_block(spec.Q) if q <= system.q_limit)
        pieces = []
        for (q, a), lad in system.ladders.items():
            if q in qs:
                lo, hi = lad.cluster()
                step = 1.0 / (8 * N * N)
                pieces.append(np.arange(lo - 4 * step, hi + 4 * step, step))
        return np.concatenate(pieces) % 1.0
    ts = [np.arange(0.0, 1.0, 1.0 / (4 * N * N))]
    if spec.kind in ("maj", "min"):
        system = arc_system(params.N, order)
        for lad in system.ladders.values():
            lo, hi = lad.cluster()
            step = 1.0 / (8 * N * N)
            ts.append(np.arange(lo - 4 * step, hi + 4 * step, step) % 1.0)
    return np.concatenate(ts)


def piece_sup_report(
    spec: PieceSpec,
    params: OperatorParams,
    y_grid: int | None = None,
    eps: float = 0.2,
    order: int = DEFAULT_SPLINE_ORDER,
) -> ExperimentReport:
    """Grid sup of |piece|, normalized by its size bound.

    The sup over the first n-1 coordinates factorizes into the row maximum
    of |G(t, .)|, so the scan is one-dimensional in t = xi_n.  Bounds:
    (N 2^l)^((n-1)/2) dyadic, (N^2/Q)^((n-1)/2) core, N^((n-1)/2 + eps)
    minor, N^(n-1) whole.
    """
    N, n = params.N, params.n
    if y_grid is None:
        y_grid = max(8 * N, 64)
    ts = _scan_points(params, spec, order)
    g = gauss_row_max(ts, params.cutoff, y_grid)

    if spec.kind == "whole":
        weight = np.ones_like(ts)
        bound = float(N ** (n - 1))
    elif spec.kind in ("dyadic", "core"):
        system = piece_system(spec, params, order)
        weight = np.abs(system.piece_weight(spec, ts))
        if spec.kind == "dyadic":
            bound = float((N * 2**spec.level) ** ((n - 1) / 2))
        else:
            bound = float((N * N / spec.Q) ** ((n - 1) / 2))
    elif spec.kind in ("maj", "min"):
        system = arc_system(params.N, order)
        w = system.weight_sum(ts)
        weight = np.abs(w) if spec.kind == "maj" else np.abs(1.0 - w)
        bound = float(N ** ((n - 1) / 2 + eps)) if spec.kind == "min" else float(N ** (n - 1))
    else:  # pragma: no cover
        raise ValueError(spec.kind)

    vals = weight * g ** (n - 1)
    i = int(np.argmax(vals))
    return ExperimentReport(
        name="piece_sup",
        params={
            "n": n,
            "N": N,
            "kind": spec.kind,
            "Q": spec.Q,
            "l": spec.level,
            "eps": eps,
            "y_grid": y_grid,
            "t_points": len(ts),
        },
        constant=float(vals[i]) / bound,
        values={"sup": float(vals[i]), "bound": bound, "argmax_t": float(ts[i])},
    )


def write_decay_table(
    spec: PieceSpec,
    params: OperatorParams,
    path,
    eps: float = 0.2,
    order: int = DEFAULT_SPLINE_ORDER,
    max_rows: int = 2000,
) -> None:
    """CSV decay table: r, residual, |coefficient|, bound, ratio."""
    N, n = params.N, params.n
    bound = _decay_bound(spec, params, eps)
    H, t_lo = _residual_profile(spec, params, order)
    rows = []
    r1_range = range(-(2 * N - 1), 2 * N)
    rn_step = max(1, (10 * N * N) // max(1, max_rows // len(list(r1_range))))
    for r1 in r1_range:
        sig = _sigma_product(params, (r1,) * (n - 1))
        if sig == 0.0:
            continue
        s = (n - 1) * r1 * r1
        for rn in range(-5 * N * N, 5 * N * N + 1, rn_step):
            t = s - rn
            coef = sig * H[t - t_lo]
            rows.append(((r1,) * (n - 1) + (rn,), t, coef, bound, coef / bound))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "residual", "abs_coefficient", "bound", "ratio"])
        for r, t, coef, bnd, ratio in rows[:max_rows]:
            writer.writerow([" ".join(map(str, r)), t, repr(float(coef)), repr(float(bnd)), repr(float(ratio))])
