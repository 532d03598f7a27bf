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
(gauss_row_max and screen_row_max chunk their rows of y_grid cells the
same way), which bounds the peak memory, and np.sum(axis=1) reproduces
the one-row sum exactly, so a value does not depend on its batch.

Expression form.  Each chunk is one plain expression over fresh arrays, as
the tests' oracles are: y k + (t k) k in long double, e1, the weights, the
row sum or the FFT.  The screens below leave these kernels only candidate
rows (a spectral benchmark pass makes 8 _gauss_sums calls of at most 400
rows and one gauss_row_max call of 5), one chunk each, so a per-call
workspace would never be reused.  Both kernels keep the order (t k) k,
since t (k^2) rounds once instead of twice and gives other bits once
|k| >= 2^11.

Screening.  gauss_bound_report and piece_sup_report report one max over
10^4 samples or more, and only the argmax sample's bits reach the report.
So they screen every sample with a cheaper float64 evaluator and re-run
the long-double kernels above, unchanged, on the candidates only.
_quadratic_exps fills e(t j^2 + y j), j = 0..m, by the recurrence
z_{j+1} = z_j r_j, r_{j+1} = r_j e(2t), r_0 = e(t + y): two complex
products per column and no exponential past the first column.
Both screens run it on contiguous columns, one sample a column entry.
screen_gauss_abs sums it over both sides of the support (y for k >= 0, -y
for k < 0); screen_row_max takes it at y = 0 for the distinct |k|, sums
it against a table of cosines and sines by one real matmul per parity of
j, with no FFT (_square_row_max), and takes the row max of re^2 + im^2
before one sqrt.  It also folds the torus: for real weights
G(1 - t, y) = conj G(t, -y) and the y grid is closed under negation, so
the row max at 1 - t is the row max at t.  Each t is folded to f = 1 - t
when t > 1/2 (exact on [1/2, 1), by Sterbenz), and each distinct f is
screened once; the ~4 N^2 scan grid of piece_sup_report is mirrored
exactly at N a power of two, so about half its rows reach the matmuls.
Each screen returns beta with |screen - kernel| <= beta for every
sample, derived in _screen_error; the fold leaves it as it is, since a
row's kernel value is that of its f.  A sample is a candidate
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
a whole array and agrees element for element with a scalar loop over the
convergents, its test oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .cutoff import CutoffProfile, OperatorParams
from .reports import ExperimentReport, substream_seed

__all__ = [
    "e1",
    "gauss_sum",
    "multiplier",
    "dirichlet_approx_batch",
    "gauss_bound_report",
    "gauss_row_max",
    "screen_gauss_abs",
    "screen_row_max",
    "sup_candidates",
]

_LONG = np.longdouble
# cells per chunk of a batched Gauss-sum evaluation (4 MiB of long-double phases, or of complex
# FFT input in gauss_row_max, or of y grid in screen_row_max); the kernels' rows are independent,
# so the chunking changes no kernel value, only the peak memory (and a screen's bits, within beta)
_CHUNK_CELLS = 1 << 18
_U = 2.0**-53  # unit roundoff of float64
# relative room for the few roundings of the float expressions that carry beta
# into a report's units (a power n - 1 of a row max takes n + 2 of them)
_SLACK = 1e-12


def e1(x) -> complex | np.ndarray:
    """e(x) = exp(2 pi i x), x reduced mod 1 in its own precision (a long double's) before the float cast."""
    out = np.exp(2j * np.pi * np.asarray(np.asarray(x) % 1.0, dtype=float))
    return out if out.ndim else complex(out)


def _gauss_sums(ts: np.ndarray, ys: np.ndarray, cutoff: CutoffProfile) -> np.ndarray:
    """G(ts[i], ys[i]) for paired 1-D arrays, in row chunks of at most _CHUNK_CELLS phases."""
    k = cutoff.support()
    w = cutoff.weights()
    out = np.empty(len(ts), dtype=complex)
    rows = max(1, _CHUNK_CELLS // len(k))
    for start in range(0, len(ts), rows):
        ph = ys[start : start + rows, None].astype(_LONG) * k
        ph += (ts[start : start + rows, None].astype(_LONG) * k) * k  # (t k) k, as t * k * k rounds it
        out[start : start + rows] = np.sum(w * e1(ph), axis=1)
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
    over the first n-1 coordinates factorizes into this row maximum, on the
    few candidate rows that screen_row_max leaves (sup_candidates).
    """
    k = cutoff.support()
    w = cutoff.weights()
    ts = np.asarray(ts, dtype=float)
    if y_grid < len(k):
        raise ValueError("y grid too coarse for the coefficient support")
    out = np.empty(len(ts))
    kmod = np.mod(k, y_grid)  # k spans a contiguous range < y_grid, so no clashes
    chunk = max(1, _CHUNK_CELLS // y_grid)
    for start in range(0, len(ts), chunk):
        tt = ts[start : start + chunk, None].astype(_LONG)
        buf = np.zeros((len(tt), y_grid), complex)
        buf[:, kmod] = w * e1((tt * k) * k)
        out[start : start + len(tt)] = np.max(np.abs(np.fft.fft(buf, axis=1)), axis=1)
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
      u each from cos and sin.  A complex product rounds by <= sqrt(5) u
      without FMA (Brent, Percival and Zimmermann 2007) and by <= 2u with
      it (Jeannerod, Kornerup, Louvet and Muller 2017), so sqrt(5) u holds
      whichever loop numpy picks for a row or a column.
      So r_j errs by <= (j + 1)(eps0 + sqrt(5) u), and column j of
      _quadratic_exps by <= (eps0 + sqrt(5) u) j (j + 1) / 2 <= 22 u (1 + j^2),
      as j (j + 1) / 2 <= (3/4)(1 + j^2).  c = 24 covers the higher orders.
    - The kernel's phase y k + (t k) k, reduced mod 1 in long double and
      rounded to float64, errs by <= 5 eps_L (1 + k^2) + u/2, with
      eps_L = finfo(longdouble).eps (2u where long double is float64), so
      each of its terms errs by <= 10 pi eps_L (1 + k^2) + 18 u.
    - A sum of l unit-modulus terms errs by <= 1.5 l u S0: np.sum over the
      support in the kernel, one matmul of length m + 1 per side in the
      screen.  The weights, the sum of the two sides and hypot add <= 6 u S0.

    So beta = (24 u + 10 pi eps_L) S2 + (2m + 2 len(k) + 24) u S0 for the
    sums.  The row maxima keep it, which covers their columns and terms and
    the 20 u S0 of gauss_row_max's weights and magnitudes, and add the
    errors of their sums on the M = y_grid points.  gauss_row_max's FFT
    errs in each entry by <= eta(M) sqrt(M) ||sigma||_2: a radix-p pass adds
    ((p + 3) sqrt(p) + 4) u <= 8 p^(3/2) u (Higham's radix-2 bound for
    p = 2; pocketfft takes Bluestein only for prime factors near 100 and
    up, far above its error).  A table entry of _square_row_max errs by
    <= 30 u |a_j| or |b_j|: 19 u from 2 pi (j l mod M) / M, 8 u from cos or
    sin (4 ulp, numpy's SIMD loops included), u from a_j, u from the
    product.  As sum |a_j|, sum |b_j| <= S0, a real part of A_l or B_l errs
    by <= (m + 33) u S0: gamma_h for h <= m/2 + 1 terms in any order, BLAS
    blocking, FMA or thread count, 2u from joining the parities, and the
    table.  A +- i B, |.| (sqrt 2 times the worst part), the squares, their
    sum and the sqrt make it (2 sqrt(2) (m + 34) + 2) u S0 <= (3m + 99) u S0.
    The row maxima add both: two maxima differ by <= the largest entrywise gap.
    """
    k, w = cutoff.support(), np.abs(cutoff.weights())
    s0 = float(np.sum(w))
    m = int(np.max(np.abs(k)))
    beta = (24 * _U + 10 * np.pi * float(np.finfo(_LONG).eps)) * float(np.sum(w * (1.0 + k * k)))
    beta += (2 * m + 2 * len(k) + 24) * _U * s0
    if y_grid is not None:
        beta += (3 * m + 99) * _U * s0 + _fft_roundoff(y_grid) * math.sqrt(y_grid * float(np.sum(w * w)))
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


def _fold_runs(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ts folded to f = t, or 1 - t where t > 1/2, and sorted: (order, f[order], starts).

    1 - t is exact for t in [1/2, 2] (Sterbenz).  starts marks the first of
    each run of equal f; a nan is a run of its own.
    """
    f = np.where(ts > 0.5, 1.0 - ts, ts)
    order = np.argsort(f)
    f = f[order]
    starts = np.ones(len(f), dtype=bool)
    np.not_equal(f[1:], f[:-1], out=starts[1:])
    return order, f, starts


def screen_row_max(ts: np.ndarray, cutoff: CutoffProfile, y_grid: int) -> tuple[np.ndarray, float]:
    """gauss_row_max screened, and beta >= its distance to gauss_row_max at every t.

    beta holds for ts in [0, 1).  Each distinct folded f (_fold_runs) is
    screened once, sorted, in the prefix of the result, and the rows map to
    them once the screen's buffers are freed: no ts-sized array beside them.
    """
    ts = np.asarray(ts, dtype=float)
    out = np.empty(len(ts))
    f, starts = _fold_runs(ts)[1:]
    reps = out[: np.count_nonzero(starts)]
    reps[:] = f[starts]
    del f, starts
    _square_row_max(reps, cutoff, y_grid)
    np.sqrt(reps, out=reps)
    order, _, starts = _fold_runs(ts)
    out[order] = reps[np.cumsum(starts) - 1]
    return out, _screen_error(cutoff, y_grid)


def _square_row_max(rs: np.ndarray, cutoff: CutoffProfile, y_grid: int) -> None:
    """Overwrite each r of rs with the max over the y grid of |G(r, y)|^2, screened.

    With E_j = e(r j^2), M = y_grid, a_j = sigma(j) + sigma(-j) and
    b_j = sigma(j) - sigma(-j) for j > 0 (a_0 = sigma(0), b_0 = 0),
    G(r, +-l/M) = A_l +- i B_l for A_l = sum_j a_j E_j cos(2 pi j l/M) and
    B_l = sum_j b_j E_j sin(2 pi j l/M), l <= M/2.  For even M, cos and sin
    at M/2 - l are +-(-1)^j times their values at l, so the sums X_e over
    even j and X_o over odd j at l <= M/4 give those at l (X_e + X_o) and
    M/2 - l (2 X_e - (X_e + X_o), B up to a sign).  One real matmul per
    parity applies the (a cos; b sin) table, j l mod M an exact integer, to
    _quadratic_exps's contiguous columns; b = 0 (even weights) has no sines.
    """
    k, w = cutoff.support(), cutoff.weights()
    if y_grid < len(k):
        raise ValueError("y grid too coarse for the coefficient support")
    m, odd = int(np.max(np.abs(k))), y_grid % 2
    a, b = (np.bincount(np.abs(k), v, minlength=m + 1) for v in (w, np.sign(k) * w))
    L = y_grid // (4 - 2 * odd) + 1  # rows l = 0..L-1, and M/2 - l when M is even
    s = L if b.any() else 0
    j, h = np.r_[0 : m + 1 : 2, 1 : m + 1 : 2], m // 2 + 1  # the h even j first
    angles = (2 * np.pi / y_grid) * (np.arange(L)[:, None] * j % y_grid)
    table = np.concatenate([a[j] * np.cos(angles), b[j] * np.sin(angles[:s])])
    chunk = max(1, _CHUNK_CELLS // y_grid)
    rows = min(chunk, len(rs))
    cells, work = np.empty((m + 1) * rows, complex), np.empty(4 * (L + s) * rows)
    for start in range(0, len(rs), chunk):
        rr = rs[start : start + chunk]  # read before the chunk's maxima overwrite it
        n = len(rr)
        z = _quadratic_exps(rr, 0.0, cells[: (m + 1) * n].reshape(m + 1, n).T).T.view(float)
        x = work[: 4 * (L + s) * n].reshape(2, L + s, 2 * n)
        np.matmul(table[:, :h], z[0::2], out=x[0])
        np.matmul(table[:, h:], z[1::2], out=x[1])
        np.add(x[0], x[1], out=x[1])  # the sums at l
        np.subtract(np.add(x[0], x[0], out=x[0]), x[1], out=x[0])  # at M/2 - l, unused for odd M
        g = x[odd:].view(complex)
        ib = 1j * g[:, L:]
        np.subtract(g[:, :s], ib, out=g[:, L:])
        np.add(g[:, :s], ib, out=g[:, :s])
        parts = np.square(x[odd:], out=x[odd:])
        squares = np.add(parts[..., ::2], parts[..., 1::2], out=parts[..., ::2])
        np.max(squares.reshape(-1, n), axis=0, out=rr)


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


def dirichlet_approx_batch(ts, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced a/q with q <= N and |t - a/q| <= 1/(qN) for each t of a 1-D array in [0, 1), as (a, q, err) arrays.

    a/q is the last continued-fraction convergent of t with denominator
    <= N, which carries the classical certificate |t - a/q| <= 1/(q (N+1)),
    reduced mod 1 so that the torus wraparound gives 1/1 as 0/1; err is the
    torus-signed t - a/q.  The recurrence runs on every t at once, and a
    scalar loop over the convergents is its test oracle.  A partial
    quotient of N + 1 or more ends a t's recurrence (the next denominator
    exceeds N), so quotients are capped at N + 1 before the integer update,
    which keeps every a q + q' below (N + 1)^2 + N, far inside int64.
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
