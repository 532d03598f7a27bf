"""Quadratic exponential sums, the kernel multiplier, and rational approximation.

The basic object is the one-dimensional sum

    G(t, y) = sum_k sigma(k) e(y k + t k^2),        e(x) = exp(2 pi i x),

whose product over the first n-1 frequency coordinates (sharing t = xi_n)
is the Fourier transform of the paraboloid kernel:

    m(xi) = prod_{i<n} G(xi_n, xi_i) = sum_x K(x) e(x . xi).

Phases are reduced mod 1 in extended precision (80-bit long double where
available) before exponentiation: k^2 reaches 4 N^2, and a plain double
accumulation of y k + t k^2 loses digits that the coefficient-oracle
comparisons downstream can see.

Batched evaluation.  Every Gauss sum goes through one evaluator over paired
arrays of (t, y), _gauss_sums: gauss_sum is a one-element call, multiplier
one call per coordinate over its rows, gauss_bound_report one call over its
samples.  It forms the rows in chunks of at most _CHUNK_CELLS phases
(gauss_row_max chunks its FFT rows the same way), which bounds the peak
memory, and np.sum(axis=1) reproduces the one-row sum exactly, so a value
does not depend on its batch.

Workspace.  Each call allocates its chunk buffers once, sized to the first
chunk, and each chunk runs the same ufunc sequence in their leading rows
with out=: y k, (t k) k, the add, the remainder, the cast to complex,
2 pi i *, exp, the weights, the row sum.  A ufunc writing into a
C-contiguous out computes what it would write to a fresh array, so every
value keeps the bits of the expression form (kept in the tests as the
oracle).  gauss_row_max writes its zero-padded FFT input once and refills
only the support columns per chunk.  It computes the phase t k^2 mod 1 and
its exponential once per distinct |k| and gathers them to the support
columns: negation is exact and rounding is sign-symmetric, so (t (-k)) (-k)
has the bits of (t k) k.  It keeps that order, since t (k^2) rounds once
instead of twice and gives other bits once |k| >= 2^11.

np.abs on a complex array can differ from Python's abs in the last ulp
(about a third of the rows), so |G| is taken as np.hypot of the parts,
which is what Python's abs computes (equal on 4e6 random sums, over 600
decades).  dirichlet_approx_batch runs the continued-fraction recurrence on
a whole array and agrees element for element with the scalar
dirichlet_approx, its test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cutoff import CutoffProfile, OperatorParams
from .reports import ExperimentReport, substream_seed

__all__ = [
    "e1",
    "gauss_sum",
    "multiplier",
    "RationalApprox",
    "dirichlet_approx",
    "dirichlet_approx_batch",
    "gauss_bound_report",
    "gauss_row_max",
]

_LONG = np.longdouble
# cells per chunk of a batched Gauss-sum evaluation (4 MiB of long-double phases,
# or 4 MiB of complex FFT input in gauss_row_max); rows are independent, so the
# chunking changes no value, only the peak memory
_CHUNK_CELLS = 1 << 18


def e1(x) -> complex | np.ndarray:
    """e(x) = exp(2 pi i x) with the argument reduced mod 1 first."""
    frac = np.asarray(x) % 1.0
    out = np.exp(2j * np.pi * np.asarray(frac, dtype=float))
    return out if out.ndim else complex(out)


def _exp_phases(ph: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e(ph) for long-double phases ph in [0, 1), computed in the complex buffer out.

    The cast gives float(ph) + 0j, the operand 2 pi i * float(ph) promotes
    the float to, so the product and the exp are the ones a float
    intermediate would give.
    """
    np.copyto(out, ph, casting="same_kind")
    np.multiply(2j * np.pi, out, out=out)
    return np.exp(out, out=out)


def _gauss_sums(ts: np.ndarray, ys: np.ndarray, cutoff: CutoffProfile) -> np.ndarray:
    """G(ts[i], ys[i]) for paired 1-D arrays, in row chunks of at most _CHUNK_CELLS phases."""
    k = cutoff.support()
    w = cutoff.weights()
    kl = k.astype(_LONG)
    out = np.empty(len(ts), dtype=complex)
    rows = max(1, _CHUNK_CELLS // len(k))
    shape = (min(rows, len(ts)), len(k))
    lin, quad, terms = np.empty(shape, _LONG), np.empty(shape, _LONG), np.empty(shape, complex)
    for start in range(0, len(ts), rows):
        tt = ts[start : start + rows, None].astype(_LONG)
        yy = ys[start : start + rows, None].astype(_LONG)
        m = len(tt)
        ph = np.multiply(yy, kl, out=lin[:m])
        np.multiply(tt, kl, out=quad[:m])
        np.multiply(quad[:m], kl, out=quad[:m])  # (t k) k, as t * k * k rounds it
        np.add(ph, quad[:m], out=ph)
        np.remainder(ph, _LONG(1.0), out=ph)
        e = _exp_phases(ph, terms[:m])
        np.sum(np.multiply(w, e, out=e), axis=1, out=out[start : start + m])
    return out


def gauss_sum(t: float, y: float, cutoff: CutoffProfile) -> complex:
    """G(t, y) = sum_k sigma(k) e(y k + t k^2), a finite exact sum."""
    return complex(_gauss_sums(np.array([float(t)]), np.array([float(y)]), cutoff)[0])


def multiplier(xi, params: OperatorParams) -> complex | np.ndarray:
    """m(xi) = prod_{i=1}^{n-1} G(xi_n, xi_i) at a point of the n-torus, or at each row of an (m, n) array.

    Each factor is one batched Gauss-sum call over the rows; the product of
    a row's factors is taken in Python complex arithmetic, left to right
    from 1 (np.multiply on complex arrays can differ from it in the last
    ulp), so every entry equals the single-point call on its row.
    """
    rows = np.asarray(xi, dtype=float)
    if rows.ndim not in (1, 2) or rows.shape[-1] != params.n:
        raise ValueError(f"xi has shape {rows.shape}, expected a point or rows of length {params.n}")
    pts = rows.reshape(-1, params.n)
    factors = [_gauss_sums(pts[:, -1], pts[:, i], params.cutoff).tolist() for i in range(params.n - 1)]
    out = [math.prod(row, start=1.0 + 0.0j) for row in zip(*factors)]
    return np.array(out, dtype=complex) if rows.ndim == 2 else out[0]


def gauss_row_max(ts: np.ndarray, cutoff: CutoffProfile, y_grid: int) -> np.ndarray:
    """max over a uniform y-grid of |G(t, y)|, vectorized over many t.

    For each t the sum over k is a trigonometric polynomial in y with
    coefficients sigma(k) e(t k^2); evaluating it on y_j = j / y_grid is one
    FFT of length y_grid.  Used by the multiplier sup scans, where the sup
    over the first n-1 coordinates factorizes into this row maximum.
    """
    k = cutoff.support()
    w = cutoff.weights()
    ts = np.asarray(ts, dtype=float)
    if y_grid < len(k):
        raise ValueError("y grid too coarse for the coefficient support")
    out = np.empty(len(ts))
    kmod = np.mod(k, y_grid)  # k spans a contiguous range < y_grid, so no clashes
    # (t k) k has the bits of (t |k|) |k|: one phase per distinct |k|, gathered by `back`
    ku, back = np.unique(np.abs(k), return_inverse=True)
    chunk = max(1, _CHUNK_CELLS // y_grid)
    rows = min(chunk, len(ts))
    phases, unit = np.empty((rows, len(ku)), _LONG), np.empty((rows, len(ku)), complex)
    terms = np.empty((rows, len(k)), complex)
    buf = np.zeros((rows, y_grid), complex)  # the zero padding is written once
    vals, mags = np.empty((rows, y_grid), complex), np.empty((rows, y_grid))
    for start in range(0, len(ts), chunk):
        tt = ts[start : start + chunk, None].astype(_LONG)
        m = len(tt)
        ph = np.multiply(tt, ku, out=phases[:m])
        np.multiply(ph, ku, out=ph)
        np.remainder(ph, _LONG(1.0), out=ph)
        # back is in range, and mode='clip' lets take write to out without a buffer
        np.take(_exp_phases(ph, unit[:m]), back, axis=1, out=terms[:m], mode="clip")
        buf[:m, kmod] = np.multiply(w, terms[:m], out=terms[:m])
        np.fft.fft(buf[:m], axis=1, out=vals[:m])
        np.max(np.abs(vals[:m], out=mags[:m]), axis=1, out=out[start : start + m])
    return out


# -- rational approximation ----------------------------------------------------


def _torus_signed(x):
    """Representative of x mod 1 in [-1/2, 1/2), elementwise; 0-d input gives a float."""
    r = np.asarray(x) % 1.0
    out = np.where(r >= 0.5, r - 1.0, r)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RationalApprox:
    """Reduced fraction a/q with q <= N and |t - a/q| <= 1/(qN) on the torus.

    q = 1 is represented by the fraction 0/1; err is the torus-signed
    difference t - a/q.
    """

    a: int
    q: int
    err: float

    def __post_init__(self):
        if self.q < 1 or not (0 <= self.a < self.q or (self.a, self.q) == (0, 1)):
            raise ValueError(f"bad fraction {self.a}/{self.q}")
        if math.gcd(self.a, self.q) != 1 and self.a != 0:
            raise ValueError(f"{self.a}/{self.q} not in lowest terms")


def dirichlet_approx(t: float, N: int) -> RationalApprox:
    """Best-certificate rational a/q, q <= N, with |t - a/q| <= 1/(qN).

    Computed from the continued-fraction convergents of t; the last
    convergent with denominator <= N carries the classical certificate
    |t - p/q| <= 1/(q (N+1)).  Fractions are reduced mod 1 so the torus
    wraparound identifies 1/1 with 0/1.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError("t must lie in [0, 1)")
    if N < 1:
        raise ValueError("N must be >= 1")
    # convergents of t via the Euclidean recurrence
    p_prev, q_prev, p_cur, q_cur = 1, 0, 0, 1  # p_cur/q_cur = 0/1
    x = t
    best_p, best_q = 0, 1
    for _ in range(64):
        if q_cur > N:
            break
        best_p, best_q = p_cur, q_cur
        if x == 0.0:
            break
        inv = 1.0 / x
        if inv >= N + 1:  # the next denominator would exceed N (and inv may be inf)
            break
        a = int(inv)
        x = inv - a
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, a * p_cur + p_prev, a * q_cur + q_prev
    a_red = best_p % best_q
    g = math.gcd(a_red, best_q)
    if g > 1:  # only possible via the wraparound reduction
        a_red //= g
        best_q //= g
    err = _torus_signed(t - a_red / best_q)
    return RationalApprox(a_red, best_q, err)


def dirichlet_approx_batch(ts, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dirichlet_approx over a 1-D array of t, as (a, q, err) arrays.

    Runs the same convergent recurrence on every t at once and agrees with
    the scalar path element for element.  A partial quotient of N + 1 or
    more ends a t's recurrence (the next denominator exceeds N), so
    quotients are capped at N + 1 before the integer update, which keeps
    every a q + q' below (N + 1)^2 + N, far inside int64.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be a 1-D array")
    if not np.all((ts >= 0.0) & (ts < 1.0)):
        raise ValueError("t must lie in [0, 1)")
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > 2**31:
        raise ValueError("N must be <= 2**31 for int64 convergents")
    p_prev, q_prev = np.ones(len(ts), np.int64), np.zeros(len(ts), np.int64)
    p_cur, q_cur = np.zeros(len(ts), np.int64), np.ones(len(ts), np.int64)
    best_p, best_q = p_cur, q_cur
    x = ts
    live = np.ones(len(ts), dtype=bool)
    for _ in range(64):
        live &= q_cur <= N
        best_p, best_q = np.where(live, p_cur, best_p), np.where(live, q_cur, best_q)
        live &= x != 0.0
        if not live.any():
            break
        with np.errstate(all="ignore"):  # retired entries may divide by 0 or overflow
            inv = 1.0 / x
            quot = np.trunc(inv)
            x = inv - quot
        a = np.where(live, np.minimum(quot, N + 1), 0).astype(np.int64)
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, a * p_cur + p_prev, a * q_cur + q_prev
    a_red = best_p % best_q
    g = np.gcd(a_red, best_q)  # > 1 only via the wraparound reduction
    a_red, q_red = a_red // g, best_q // g
    return a_red, q_red, _torus_signed(ts - a_red / q_red)


# -- empirical constant for the major-arc sum bound -----------------------------


def gauss_bound_report(
    params: OperatorParams, n_samples: int, seed: int
) -> ExperimentReport:
    """Empirical constant in |G(t,y)| <= c q^{-1/2} min(N, |t - a/q|^{-1/2}).

    Samples concentrate where the bound bites: t within 10/(qN) of a
    fraction a/q with q <= N/10 (a coprime to q, a = 0 for q = 1) and y
    uniform; one exact-center sample t = a/q is always included, where the
    comparison value is N (the min(..., inf) convention).  The certificate
    at each t uses t's own rational approximant with denominator <= N,
    which is the pair the bound is about: the fattened window around a/q
    contains other rationals a'/q' (necessarily q' > N/10), and near those
    the sum is governed by (a', q'), not (a, q).  The reported constant is
    the max ratio over all samples; it must stay uniformly bounded over an
    N sweep.
    """
    if params.cutoff.kind != "smooth":
        raise ValueError("the bound is stated for the smooth cutoff")
    from .arcs import totatives  # local import to avoid a cycle

    N = params.N
    rng = np.random.default_rng(substream_seed(seed, f"gauss_bound:{N}"))
    q_max = max(1, N // 10)
    qs = rng.integers(1, q_max + 1, size=n_samples)
    ys = rng.random(n_samples)
    ts = np.empty(n_samples)
    tot_cache = {q: totatives(q) for q in range(1, q_max + 1)}
    for i, q in enumerate(qs):
        tots = tot_cache[int(q)]
        a = tots[rng.integers(0, len(tots))]
        u = (2 * rng.random() - 1) * 10.0 / (int(q) * N)
        if i == 0:
            u = 0.0  # exact-center sample: min(N, inf) = N
        ts[i] = (a / int(q) + u) % 1.0

    sums = _gauss_sums(ts, ys, params.cutoff)
    g = np.hypot(sums.real, sums.imag)
    _, q, err = dirichlet_approx_batch(ts, N)
    with np.errstate(divide="ignore"):  # err = 0 (exact center): cap = min(N, inf) = N
        cap = np.minimum(N, 1.0 / np.sqrt(np.abs(err)))
    # a NumPy scalar, as the scalar loop left it: gauss-check's CSV writes its repr
    worst = np.max(g * np.sqrt(q) / cap, initial=0.0)

    return ExperimentReport(
        name="gauss_bound",
        params={"n": params.n, "N": N, "q_max": q_max},
        constant=worst,
        samples=n_samples,
        seed=seed,
    )
