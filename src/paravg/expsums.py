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

Screening.  gauss_bound_report and piece_sup_report report one max over
10^4 samples or more, and only the argmax sample's bits reach the report.
So they screen every sample with a cheaper float64 evaluator and re-run
the long-double kernels above, unchanged, on the candidates only.
_quadratic_exps fills e(t j^2 + y j), j = 0..m, by the recurrence
z_{j+1} = z_j r_j, r_{j+1} = r_j e(2t), r_0 = e(t + y): two complex
products per column and no exponential past the first column.
screen_gauss_abs sums it over both sides of the support (y for k >= 0, -y
for k < 0); screen_row_max takes it at y = 0 for the distinct |k|, puts
it in the same FFT rows as gauss_row_max and takes the row max of
re^2 + im^2 before one sqrt.  Each returns beta with |screen - kernel| <=
beta for every sample, derived in _screen_error.  A sample is a candidate
when its screened value + beta, carried through the report's arithmetic,
reaches the largest screened value - beta (sup_candidates).  Any other
sample lies strictly below the max, so the max, the first argmax and every
tie are among the candidates, and the report takes them from the
long-double kernels in original order with the bits it had when every
sample ran through them.  A loose beta only sends more samples to the
exact path; a wrong one can change a report, which the tests show.

Draws.  gauss_bound_report draws each sample's numerator index and offset
as the pair rng.integers(0, phi(q)), rng.random().  _index_then_double
draws all the pairs in one batch with the bits of those scalar calls and
leaves the generator where they leave it: it lays out the 64-bit PCG64
words the calls would consume, applies numpy's Lemire step, and hands a
rejected draw back to numpy's own calls.  The stream matters because
perfbench/reference.json pins the seed-0 constants of gauss-check.  The
scalar loop lives on in the tests as the oracle.

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
    "screen_gauss_abs",
    "screen_row_max",
    "sup_candidates",
]

_LONG = np.longdouble
# cells per chunk of a batched Gauss-sum evaluation (4 MiB of long-double phases,
# or 4 MiB of complex FFT input in gauss_row_max and the screens); the kernels'
# rows are independent, so the chunking changes no kernel value, only the peak
# memory (a screen's bits may move with it, within its beta)
_CHUNK_CELLS = 1 << 18
_U = 2.0**-53  # unit roundoff of float64
# relative room for the few roundings of the float expressions that carry beta
# into a report's units (a power n - 1 of a row max takes n + 2 of them)
_SLACK = 1e-12


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


# -- screening: exp-free sums that pick the samples the kernels re-evaluate -----


def _quadratic_exps(t: np.ndarray, y, out: np.ndarray) -> np.ndarray:
    """e(t j^2 + y j) for j = 0..m in the columns of out, shape (len(t), m + 1).

    Column j + 1 is column j times r_j = e(t (2j + 1) + y), and
    r_{j+1} = r_j e(2t).  out may be a transposed view, so that each column
    is contiguous.
    """
    out[:, 0] = 1.0
    ratio, step = e1(t + y), e1(2.0 * t)
    for j in range(out.shape[1] - 1):
        np.multiply(out[:, j], ratio, out=out[:, j + 1])
        np.multiply(ratio, step, out=ratio)
    return out


def _fft_roundoff(M: int) -> float:
    """eta(M) of _screen_error: 8 u p^(3/2) summed over the prime factors p of M, with multiplicity."""
    total, p = 0.0, 2
    while p * p <= M:
        while M % p == 0:
            total, M = total + p**1.5, M // p
        p += 1
    return 8 * _U * (total + (M**1.5 if M > 1 else 0.0))


def _screen_error(cutoff: CutoffProfile, y_grid: int | None = None) -> float:
    """beta >= |screen - kernel| at every sample: the Gauss sums, or the row maxima on y_grid.

    With u = 2^-53, m = max |k|, S0 = sum |sigma(k)| and
    S2 = sum |sigma(k)| (1 + k^2), to first order in u:

    - e1 of an argument |x| < 2 errs by eps0 <= 8 pi u + sqrt(2) u < 27 u:
      2u in x mod 1, 2 pi u each from the rounded 2 pi and the product,
      u each from cos and sin.  A complex product rounds by <= sqrt(5) u.
      So r_j errs by <= (j + 1)(eps0 + sqrt(5) u), and column j of
      _quadratic_exps by <= (eps0 + sqrt(5) u) j (j + 1) / 2 <= 22 u (1 + j^2),
      as j (j + 1) / 2 <= (3/4)(1 + j^2).  c = 24 covers the higher orders.
    - The kernel's phase y k + (t k) k, reduced mod 1 in long double and
      rounded to float64, errs by <= 5 eps_L (1 + k^2) + u/2, with
      eps_L = finfo(longdouble).eps (2u where long double is float64), so
      each of its terms errs by <= 10 pi eps_L (1 + k^2) + 18 u.
    - A sum of l unit-modulus terms errs by <= 1.5 l u S0: np.sum over the
      support in the kernel, one matmul of length m + 1 per side in the
      screen.  The weights, the sum of the two sides, hypot and the
      magnitudes of the FFT outputs add <= 6 u S0.

    So beta = (24 u + 10 pi eps_L) S2 + (2m + 2 len(k) + 24) u S0 for the
    sums.  The row maxima have FFTs in place of the sums: one FFT of length
    M errs in each entry by at most its normwise error
    eta(M) sqrt(M) ||sigma||_2, where a radix-p pass adds
    ((p + 3) sqrt(p) + 4) u <= 8 p^(3/2) u (Higham's radix-2 bound for
    p = 2); pocketfft turns to Bluestein's algorithm only for prime factors
    near 100 and up, where 8 p^(3/2) u is far above its error.  Both row
    maxima take an FFT, and two maxima differ by at most the largest
    entrywise gap.
    """
    k, w = cutoff.support(), np.abs(cutoff.weights())
    s0 = float(np.sum(w))
    m = int(np.max(np.abs(k)))
    beta = (24 * _U + 10 * np.pi * float(np.finfo(_LONG).eps)) * float(np.sum(w * (1.0 + k * k)))
    beta += (2 * m + 2 * len(k) + 24) * _U * s0
    if y_grid is not None:
        beta += 2 * _fft_roundoff(y_grid) * math.sqrt(y_grid * float(np.sum(w * w)))
    return beta


def screen_gauss_abs(ts: np.ndarray, ys: np.ndarray, cutoff: CutoffProfile) -> tuple[np.ndarray, float]:
    """|G(ts[i], ys[i])| screened, and beta >= its distance to the hypot of _gauss_sums at every i.

    beta holds for ts and ys in [0, 1).  _quadratic_exps fills one table
    of at most _CHUNK_CELLS cells per chunk, once at y for k >= 0 and once
    at -y for k < 0, and one matmul with each side's weights sums it.
    """
    k, w = cutoff.support(), cutoff.weights()
    m = int(np.max(np.abs(k)))
    pos, neg = np.zeros(m + 1), np.zeros(m + 1)
    pos[k[k >= 0]] = w[k >= 0]
    neg[-k[k < 0]] = w[k < 0]
    out = np.empty(len(ts))
    rows = max(1, _CHUNK_CELLS // (m + 1))
    cells = np.empty((m + 1) * min(rows, len(ts)), complex)
    for start in range(0, len(ts), rows):
        tt, yy = ts[start : start + rows], ys[start : start + rows]
        table = cells[: (m + 1) * len(tt)].reshape(m + 1, len(tt))  # contiguous, for the matmul
        g = pos @ _quadratic_exps(tt, yy, table.T).T
        if k[0] < 0:
            g += neg @ _quadratic_exps(tt, -yy, table.T).T
        np.hypot(g.real, g.imag, out=out[start : start + len(tt)])
    return out, _screen_error(cutoff)


def screen_row_max(ts: np.ndarray, cutoff: CutoffProfile, y_grid: int) -> tuple[np.ndarray, float]:
    """gauss_row_max screened, and beta >= its distance to gauss_row_max at every t.

    beta holds for ts in [0, 1).  _quadratic_exps at y = 0 writes e(t j^2),
    j = 0..max |k|, straight into the head columns of the FFT rows; column
    y_grid + k of each k < 0 is then read from column -k, and the head is
    weighted in place.  The row max is taken of re^2 + im^2, squared in
    place in the FFT output, before one sqrt.  The support is a contiguous
    range, so the head and the columns of k < 0 fit side by side once
    y_grid > max |k| + max(-k_min, 0).
    """
    k, w = cutoff.support(), cutoff.weights()
    m, lo = int(np.max(np.abs(k))), int(k[0])
    if y_grid <= m - min(lo, 0):
        raise ValueError("y grid too coarse for the coefficient support")
    ts = np.asarray(ts, dtype=float)
    head = np.zeros(m + 1)
    head[k[k >= 0]] = w[k >= 0]
    out = np.empty(len(ts))
    chunk = max(1, _CHUNK_CELLS // y_grid)
    rows = min(chunk, len(ts))
    buf = np.zeros((rows, y_grid), complex)  # columns between the head and the k < 0 block stay zero
    vals, mags = np.empty((rows, y_grid), complex), np.empty((rows, y_grid))
    for start in range(0, len(ts), chunk):
        tt = ts[start : start + chunk]
        n = len(tt)
        z = _quadratic_exps(tt, 0.0, buf[:n, : m + 1])
        if lo < 0:
            np.multiply(w[k < 0], z[:, -lo:0:-1], out=buf[:n, y_grid + lo :])
        np.multiply(head, z, out=z)
        parts = np.fft.fft(buf[:n], axis=1, out=vals[:n]).view(float)
        np.square(parts, out=parts)
        np.add(parts[:, ::2], parts[:, 1::2], out=mags[:n])
        np.max(mags[:n], axis=1, out=out[start : start + n])
    return np.sqrt(out, out=out), _screen_error(cutoff, y_grid)


def sup_candidates(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Indices i whose hi[i] reaches max(lo): every sample that can hold a max.

    lo >= 0 and hi are a report's value at screen - beta and screen + beta,
    computed by float expressions; _SLACK widens both for their roundings.
    An index left out lies strictly below the max, so it is neither the
    first argmax nor tied with it.
    """
    return np.flatnonzero(hi * (1.0 + _SLACK) >= np.max(lo, initial=0.0) * (1.0 - _SLACK))


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


def _index_then_double(rng: np.random.Generator, sizes) -> tuple[np.ndarray, np.ndarray]:
    """The pairs [(rng.integers(0, s), rng.random()) for s in sizes], drawn in one batch.

    Returns the indices (int64) and the doubles with the bits the scalar
    calls give, and leaves rng where they leave it.  It reproduces numpy's
    PCG64 stream: integers(0, s) draws nothing for s = 1 and otherwise one
    uint32, the low half of a fresh 64-bit word with the high half buffered
    for the next uint32 (the state's has_uint32 and uinteger), mapped by
    Lemire's multiply-shift (u32 s) >> 32; random() is (word >> 11) 2^-53
    and leaves the buffer alone.  One random_raw call on a clone takes the
    words the calls would consume.  Lemire rejects a uint32 whose low
    product (u32 s) mod 2^32 is below 2^32 mod s and draws again; at the
    first rejection the generator is set to the state just before that
    sample, numpy's own calls draw it, and the batch resumes after it.
    """
    bitgen = rng.bit_generator
    if type(bitgen) is not np.random.PCG64:
        raise TypeError(f"the batched draw reproduces PCG64 only, not {type(bitgen).__name__}")
    sizes = np.asarray(sizes, dtype=np.int64)
    if sizes.size and not (sizes.min() >= 1 and sizes.max() <= 2**32):
        raise ValueError("need 1 <= s <= 2**32 for every size")
    sizes = sizes.astype(np.uint64)
    idx, dbl = np.empty(len(sizes), dtype=np.int64), np.empty(len(sizes))
    start = 0
    while start < len(sizes):
        state = bitgen.state
        s = sizes[start:]
        draws = s > 1
        earlier = np.cumsum(draws) - draws  # uint32 draws before each sample
        fresh = draws & ((state["has_uint32"] + earlier) % 2 == 0)  # else the buffered high half
        ends = np.cumsum(fresh + 1)  # words consumed through each sample
        firsts = ends - 1 - fresh  # words consumed before each sample
        clone = np.random.PCG64()
        clone.state = state
        raw = clone.random_raw(int(ends[-1]))
        last = np.maximum.accumulate(np.where(fresh, firsts, -1))  # latest fresh word
        high = np.where(last >= 0, raw[last] >> 32, state["uinteger"])
        m = np.where(fresh, raw[firsts] & 0xFFFFFFFF, high) * s
        reject = draws & ((m & 0xFFFFFFFF) < (2**32 - s) % s)
        j = int(np.argmax(reject)) if reject.any() else len(s)
        idx[start : start + j] = m[:j] >> 32
        dbl[start : start + j] = (raw[ends[:j] - 1] >> 11) * 2.0**-53
        # the state before sample j (after the last one when j = len(s))
        buffered = int(last[j - 1]) if j else -1
        clone.state = state
        clone.advance(int(firsts[j]) if j < len(s) else int(ends[-1]))
        before = clone.state
        before["has_uint32"] = (state["has_uint32"] + int(np.count_nonzero(draws[:j]))) % 2
        before["uinteger"] = int(raw[buffered] >> 32) if buffered >= 0 else state["uinteger"]
        bitgen.state = before
        if j < len(s):
            idx[start + j], dbl[start + j] = rng.integers(0, int(s[j])), rng.random()
        start += j + 1
    return idx, dbl


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
    N sweep.  screen_gauss_abs screens every sample, and _gauss_sums
    re-evaluates only the candidates (sup_candidates, with beta carried
    through g sqrt(q) / cap), so the constant has the bits of the max over
    every sample through _gauss_sums.

    Draws: the numerators and offsets come from one _index_then_double
    batch, which reproduces the per-sample rng.integers(0, phi(q)),
    rng.random() calls bit for bit, so the seeded constants that
    perfbench/reference.json pins keep their bits; that scalar loop is the
    tests' oracle.
    """
    if params.cutoff.kind != "smooth":
        raise ValueError("the bound is stated for the smooth cutoff")
    from .arcs import totatives  # local import to avoid a cycle

    N = params.N
    rng = np.random.default_rng(substream_seed(seed, f"gauss_bound:{N}"))
    q_max = max(1, N // 10)
    qs = rng.integers(1, q_max + 1, size=n_samples)
    ys = rng.random(n_samples)
    rows_by_q = [[0], *(totatives(q) for q in range(1, q_max + 1))]  # row 0 pads, qs >= 1
    phi = np.array([len(row) for row in rows_by_q])
    numerators = np.zeros((q_max + 1, phi.max()), dtype=np.int64)
    for q, row in enumerate(rows_by_q):
        numerators[q, : len(row)] = row
    idx, r = _index_then_double(rng, phi[qs])
    u = (2 * r - 1) * 10.0 / (qs * N)
    u[:1] = 0.0  # exact-center sample: min(N, inf) = N
    ts = (numerators[qs, idx] / qs + u) % 1.0

    screen, beta = screen_gauss_abs(ts, ys, params.cutoff)
    _, q, err = dirichlet_approx_batch(ts, N)
    with np.errstate(divide="ignore"):  # err = 0 (exact center): cap = min(N, inf) = N
        cap = np.minimum(N, 1.0 / np.sqrt(np.abs(err)))
    scale = np.sqrt(q) / cap
    rows = sup_candidates(np.maximum(screen - beta, 0.0) * scale, (screen + beta) * scale)
    sums = _gauss_sums(ts[rows], ys[rows], params.cutoff)
    g = np.hypot(sums.real, sums.imag)
    # a NumPy scalar, as the scalar loop left it: gauss-check's CSV writes its repr
    worst = np.max(g * np.sqrt(q[rows]) / cap[rows], initial=0.0)

    return ExperimentReport(
        name="gauss_bound",
        params={"n": params.n, "N": N, "q_max": q_max},
        constant=worst,
        samples=n_samples,
        seed=seed,
    )
