"""Fourier coefficients of the multiplier pieces, with a quadrature oracle.

For a piece W(xi_n) * m(xi) (W a sum of mean-zero ladder bumps) the
coefficient at r = (r', r_n) collapses, by orthogonality in the first n-1
coordinates, to

    coef(r) = sigma(r_1) ... sigma(r_{n-1}) * sum_{q,a} eta_hat(|r'|^2 - r_n),

so every piece coefficient vanishes identically on the paraboloid
|r'|^2 = r_n (the bracket in eta_hat is zero at frequency 0).  The sum is
ArcSystem.piece_hat, the same ladder sum that gives the piece weights: a
dyadic or core piece sums its block's ladders, and the arc-localized part
sums every ladder at its telescoped level.  The oracle
reproduces the remaining one-dimensional integral numerically: a periodic
rectangle rule (equivalent to the trapezoid rule on the torus), refined by
doubling until two successive grids agree.

The whole-kernel coefficient is exact: coefficients of m recover the kernel
itself, sigma(r_1)...sigma(r_{n-1}) 1{r_n = |r'|^2}.  The minor-arc
coefficient is that minus the arc-localized part.

So every coefficient is a sigma product times H(|r'|^2 - r_n), with H the
piece_hat sum (and H(t) = [t = 0] - H_maj(t) for min), and a sup over a box
of r is a max over s = |r'|^2 of two factors: the sigma product of r', and
the max of |H| over the residual window s - r_n that the r_n range selects.
Both coefficient reports take that sup exactly, with one sliding-window max
of |H| serving every s.  The reports normalize by losses (QN)^EPS and
N^EPS with the fixed EPS = 0.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arcs import SPLINE_ORDER, PieceSpec, arc_system, piece_system
from .cutoff import OperatorParams
from .expsums import e1, gauss_row_max, screen_row_max, sup_candidates
from .lattice import check_alloc
from .reports import ExperimentReport

__all__ = [
    "EPS",
    "CoefficientQuery",
    "piece_coefficient",
    "piece_coefficient_oracle",
    "coefficient_scale",
    "coefficient_decay_report",
    "minor_coefficient_report",
    "piece_sup_report",
]

# The epsilon of the (QN)^eps and N^eps losses the coefficient and sup
# reports normalize by; each report records it in its params.
EPS = 0.2
# The oracle's first grid size, a power of two; each refinement doubles it.
_ORACLE_GRID = 4096
# Two successive oracle grids must agree to this absolute tolerance.
_ORACLE_TOL = 1e-9


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


def piece_coefficient(query: CoefficientQuery) -> complex:
    """Closed-form coefficient of one dyadic/core piece at r."""
    sig = _sigma_product(query.params, query.r[:-1])
    if sig == 0.0:
        return 0j
    system = piece_system(query.spec, query.params)
    return sig * system.piece_hat(query.spec, np.int64(query.residual))


@lru_cache(maxsize=64)
def _oracle_weights(N: int, q_limit: int, spec: PieceSpec, M: int) -> np.ndarray:
    """piece_weight(spec, j/M) for 0 <= j < M, read-only.

    The oracle's rectangle-rule weights depend on a query only through its
    arc system, spec and grid size, so queries that share them share one
    grid; the cache holds at most 64 grids.
    """
    w = arc_system(N, q_limit).piece_weight(spec, np.arange(M, dtype=np.int64) / M)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=8)
def _roots_of_unity(M: int) -> np.ndarray:
    """e1(i/M) for 0 <= i < M, read-only.

    The oracle's phases ((t j) mod M)/M are the floats i/M, so reading this
    table at i = (t j) mod M gives the values e1 computes from them.
    """
    roots = e1(np.arange(M, dtype=np.int64) / M)
    roots.flags.writeable = False
    return roots


def piece_coefficient_oracle(query: CoefficientQuery) -> complex:
    """Quadrature oracle for the same coefficient.

    The first n-1 torus integrals are exact by orthogonality (they reduce to
    the sigma factors), leaving the one-dimensional integral of
    W(xi) e(t xi) over the bump supports.  That is computed by the periodic
    rectangle rule on _ORACLE_GRID (4096) points and refined by doubling
    until two successive grid sizes agree to _ORACLE_TOL (1e-9); failure to
    converge within 4 refinements is an error.
    Each grid of size M reads its weights and its M-th roots of unity from
    two small caches, so a query evaluates no exponential of its own.
    Every M is _ORACLE_GRID 2^i, a power of two, so the root index
    (t j) mod M is (j (t mod M)) & (M - 1): the same index for any int t,
    negative or |t| >= M included, with no product beyond M^2.
    """
    sig = _sigma_product(query.params, query.r[:-1])
    t = query.residual
    system = piece_system(query.spec, query.params)

    def rect(M: int) -> complex:
        j = np.arange(M, dtype=np.int64)
        w = _oracle_weights(query.params.N, system.q_limit, query.spec, M)
        return complex(np.sum(w * _roots_of_unity(M)[np.multiply(j, t % M, out=j) & (M - 1)]) / M)

    M = _ORACLE_GRID
    prev = rect(M)
    for _ in range(4):
        M *= 2
        cur = rect(M)
        if abs(cur - prev) <= _ORACLE_TOL:
            return sig * cur
        prev = cur
    raise RuntimeError(f"oracle did not converge at grid {M} (query residual {t})")


def _piece_size(spec: PieceSpec, N: int) -> int | float:
    """Frequency scale of a piece: N 2^l (an int) dyadic, N^2/Q (a float) core."""
    if spec.kind == "dyadic":
        return N * 2**spec.level
    if spec.kind == "core":
        return N * N / spec.Q
    raise ValueError("scale applies to dyadic or core pieces")


def coefficient_scale(spec: PieceSpec, params: OperatorParams) -> float:
    """Natural size of a piece's coefficients: (N 2^l)^-1 dyadic, (N^2/Q)^-1 core.

    Oracle comparisons measure against max(|oracle|, this scale): the
    quadrature oracle carries an absolute roundoff floor near 1e-16, so a
    pure relative tolerance is unattainable for coefficients deep in the
    spline tail (values below ~1e-10) even though the closed form is exact
    there.
    """
    return 1.0 / _piece_size(spec, params.N)


def _decay_bound(spec: PieceSpec, params: OperatorParams) -> float:
    """Decay bound (N 2^l)^-1 (QN)^EPS for dyadic pieces, (N^2/Q)^-1 (QN)^EPS for core."""
    return _piece_size(spec, params.N) ** (-1.0) * (spec.Q * params.N) ** EPS


# -- reports ---------------------------------------------------------------------


def _coefficient_sup(spec: PieceSpec, params: OperatorParams) -> tuple[float, tuple | None]:
    """Sup of |coefficient| over the scan box |r_i| < 2N, |r_n| <= 5 N^2, and the first r attaining it.

    dyadic, core and maj read H = |piece_hat|, min reads H = |[t = 0] - maj hat|,
    on the residuals t = s - r_n with s = |r'|^2.  The r_n range gives every s
    the window t in [s - 5N^2, s + 5N^2], so the sup at s is the sigma product
    times one sliding-window max, taken for every s at once from blockwise
    prefix and suffix maxima.  Ties go to the first r' in ij order, then to
    the largest r_n.  r is None when every coefficient in the box is zero.
    """
    N, n = params.N, params.n
    R = 5 * N * N
    width = 2 * R + 1
    r_range = np.arange(1 - 2 * N, 2 * N, dtype=np.int64)
    shape = (len(r_range),) * (n - 1)
    s_max = (n - 1) * (2 * N - 1) ** 2
    check_alloc(shape, np.float64, f"coefficient sup r' grid n={n} N={N}")
    check_alloc((s_max + 2 * width,), np.complex128, f"coefficient sup residual profile n={n} N={N}")
    sigma = np.asarray(params.cutoff.value(r_range), dtype=float)
    weights, ssum = np.ones(shape), np.zeros(shape, dtype=np.int64)
    for axis in range(n - 1):  # the product is taken in axis order, as the scalar path takes it
        along = (-1,) + (1,) * (n - 2 - axis)
        weights = weights * sigma.reshape(along)
        ssum = ssum + (r_range * r_range).reshape(along)

    ts = np.arange(-R, s_max + R + 1, dtype=np.int64)
    hat = piece_system(spec, params).piece_hat(spec, ts)
    H = np.abs((ts == 0) - hat) if spec.kind == "min" else np.abs(hat)
    blocks = np.pad(H, (0, -len(H) % width)).reshape(-1, width)
    prefix = np.maximum.accumulate(blocks, axis=1).ravel()
    suffix = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()

    vals = weights * np.maximum(suffix[ssum], prefix[ssum + width - 1])
    k = int(np.argmax(vals))
    best = float(vals.flat[k])
    if best == 0.0:
        return best, None
    rp = tuple(int(r_range[i]) for i in np.unravel_index(k, shape))
    s = int(ssum.flat[k])
    return best, rp + (R - int(np.argmax(H[s : s + width])),)


def coefficient_decay_report(spec: PieceSpec, params: OperatorParams) -> ExperimentReport:
    """Sup of |coefficient| over the scan box, normalized by the decay bound.

    Dyadic pieces are normalized by (N 2^l)^{-1} (QN)^EPS, core pieces by
    (N^2/Q)^{-1} (QN)^EPS.  The scan box |r_i| < 2N, |r_n| <= 5 N^2
    truncates the lattice; beyond it the spline decay (order
    SPLINE_ORDER + 1 = 9 in the residual) contributes below 1e-10 of the
    sup.  Also records where the sup is attained.
    """
    N, n = params.N, params.n
    best, best_r = _coefficient_sup(spec, params)
    bound = _decay_bound(spec, params)
    residual = (
        sum(c * c for c in best_r[:-1]) - best_r[-1] if best_r is not None else None
    )
    return ExperimentReport(
        name="coefficient_decay",
        params={"n": n, "N": N, "kind": spec.kind, "Q": spec.Q, "l": spec.level, "eps": EPS},
        constant=best / bound,
        values={
            "sup": best,
            "bound": bound,
            "argmax_residual": float(residual) if residual is not None else math.nan,
        },
        notes=f"argmax at r={best_r}; decay exponent in the residual is order+1={SPLINE_ORDER + 1}",
    )


def minor_coefficient_report(params: OperatorParams) -> ExperimentReport:
    """Exact sup of |minor coefficient| over the scan box, normalized by N^EPS.

    The box is the decay report's, |r_i| < 2N, |r_n| <= 5 N^2, and every r in
    it counts; notes record the first r attaining the sup.  The sup sits on
    the paraboloid itself: there the whole-kernel coefficient is the sigma
    product while the arc part vanishes (its bumps have mean zero), so the
    minor coefficient is 1 wherever sigma(r_1)...sigma(r_{n-1}) = 1, uniformly
    in N.
    """
    sup, r = _coefficient_sup(PieceSpec("min"), params)
    return ExperimentReport(
        name="minor_coefficient_sup",
        params={"n": params.n, "N": params.N, "eps": EPS},
        constant=sup / params.N**EPS,
        values={"sup": sup},
        notes=f"argmax at r={r}",
    )


# -- sup-norm reports over the torus ----------------------------------------------


def _scan_points(params: OperatorParams, spec: PieceSpec) -> np.ndarray:
    """t-grid resolving the bump scales: 1/(8 N^2) steps inside the support
    clusters of every ladder of the piece's block (or of the arc system for
    maj and min), 1/(4 N^2) globally (maj, min and whole need the full torus)."""
    N = params.N
    step = 1.0 / (8 * N * N)
    if spec.kind in ("dyadic", "core"):
        ts, block = [], PieceSpec("core", spec.Q)  # the whole block, whatever each ladder's top level
    else:
        ts, block = [np.arange(0.0, 1.0, 1.0 / (4 * N * N))], spec
    if block.kind != "whole":
        for lad in piece_system(spec, params).terms(block)[1]:
            lo, hi = lad.cluster()
            ts.append(np.arange(lo - 4 * step, hi + 4 * step, step))
    return np.concatenate(ts) % 1.0


def _sup_bound(spec: PieceSpec, params: OperatorParams) -> float:
    """The size bound piece_sup_report normalizes a piece's sup by."""
    N, n = params.N, params.n
    if spec.kind in ("dyadic", "core"):
        return float(_piece_size(spec, N) ** ((n - 1) / 2))
    if spec.kind == "min":
        return float(N ** ((n - 1) / 2 + EPS))
    return float(N ** (n - 1))


def piece_sup_report(spec: PieceSpec, params: OperatorParams) -> ExperimentReport:
    """Grid sup of |piece|, normalized by its size bound.

    The sup over the first n-1 coordinates factorizes into the row maximum
    of |G(t, .)|, so the scan is one-dimensional in t = xi_n.  The row
    maximum is taken only where the piece weight is nonzero; elsewhere g
    stays 0, and 0 * g^(n-1) is +0.0 either way.  screen_row_max screens
    those rows by real matmuls, with no FFT, and gauss_row_max's FFT
    re-evaluates only the candidates (sup_candidates, with beta carried
    through weight * g^(n-1)); every other row keeps g = 0 and lies
    strictly below the max, so the sup and its first argmax have the bits
    of the scan with every row through gauss_row_max.  The row maxima are
    taken on the y grid j / max(8N, 64).  Bounds: (N 2^l)^((n-1)/2) dyadic, (N^2/Q)^((n-1)/2) core,
    N^((n-1)/2 + EPS) minor, N^(n-1) maj and whole.
    """
    N, n = params.N, params.n
    y_grid = max(8 * N, 64)
    ts = _scan_points(params, spec)

    if spec.kind == "whole":
        weight = np.ones_like(ts)
    else:
        w = piece_system(spec, params).piece_weight(spec, ts)
        weight = np.abs(1.0 - w) if spec.kind == "min" else np.abs(w)
    g = np.zeros_like(ts)
    live = np.flatnonzero(weight)
    screen, beta = screen_row_max(ts[live], params.cutoff, y_grid)
    w_live = weight[live]
    rows = live[sup_candidates(w_live * np.maximum(screen - beta, 0.0) ** (n - 1), w_live * (screen + beta) ** (n - 1))]
    g[rows] = gauss_row_max(ts[rows], params.cutoff, y_grid)
    bound = _sup_bound(spec, params)

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
            "eps": EPS,
            "y_grid": y_grid,
            "t_points": len(ts),
        },
        constant=float(vals[i]) / bound,
        values={"sup": float(vals[i]), "bound": bound, "argmax_t": float(ts[i])},
    )
