"""Operator-norm estimation, extremizer families, and scaling-exponent fits.

The improving inequality predicts growth exponents, not constants, so the
scientific output here is log-log slopes of exactly computed ratios:

* box family: the indicator of {1..2N}^(n-1) x {1..nN^2}.  Its average is
  exactly 1 on {1..N}^(n-1) x {1..N^2}, and the ratio of norms decays like
  N^(-(n+1)(2/p - 1)).
* delta family: the point mass at 0, whose average spreads N^(n-1) values
  of size N^(1-n) over a reflected paraboloid patch; ratio N^(-(n-1)/p).

The two families cross over at p = (n+3)/(n+1): above it the box family
dominates asymptotically, below it the delta, which is the claimed sharp
range boundary.

Count arithmetic is exact: the averaged box is evaluated by interval and
histogram counting in integers (never by floating kernel sums), and floats
enter only at the final power sum, rounded once, and its root.

Costs.  Every engine covers every n >= 2.  The box counts read one interval
engine: x_i enters only through its clipped k-interval, 2N - 1 of them per
side, and the count is symmetric in the intervals, so one cumulative
histogram of square sums serves each multiset of n - 1 intervals:
O(N^(2n-2)) time, in blocks of at most _BLOCK_CELLS cells, one block alive
at a time.  A box power sum reads only the count histogram h[c], the number
of cells whose count is c (at n = 2 built from the 2N - 1 square windows of
x_2, which are the intervals again: O(N^2)), and sums h[c] c^e as one
math.fsum of exact terms, so its float depends on libm pow alone.  The
wave-packet certificate of the 2 -> 2 norm is the packet's Gram sum, which
factors over the coordinates into one histogram of O(N^2) pairs, n - 2
convolutions in a fixed elementwise order and one weighted sum, for both
cutoffs.  The max Rayleigh quotient of a batch of B test functions of m
points screens every member in Gram form, m(m - 1)/2 lookups of the
kernel's autocorrelation (O(S^(n-2)) each, S = |supp sigma|, closed form at
n = 2) plus its diagonal, into an interval of proven width around its exact
quotient, and averages only the members that can reach the max.  The ascent
keeps the box and the delta as their extents and a value array, and the
cloud as a sorted point array; lattice._apply_offsets applies the kernel by
slices to the box and on numbered distinct cells to the others.  Every
dense array, and every ascent start as a whole, is checked against
lattice.ALLOC_BUDGET_BYTES before it is allocated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .cutoff import OperatorParams, _kernel, average, paraboloid_kernel
from .lattice import LatticeFunction, _apply_offsets, _canonical, _check_bytes, _from_sorted, _power_sum, _power_terms, _real, check_alloc, lp_norm, shift
from .reports import ExperimentReport, substream_seed

__all__ = [
    "ScalingFit",
    "sharp_threshold",
    "box_average_counts",
    "box_core_is_one",
    "box_power_sum",
    "box_extremizer_ratio",
    "delta_extremizer_ratio",
    "norm_l1_linf",
    "norm_l2_l2",
    "max_rayleigh_quotient",
    "random_ascent_lower_bound",
    "scaling_fit",
    "target_slope",
    "two_bump_separation_probe",
]


def sharp_threshold(n: int) -> float:
    """The crossover exponent (n+3)/(n+1) separating the two extremizers."""
    return (n + 3) / (n + 1)


def _require_four_scales(Ns) -> None:
    if len(set(Ns)) < 4:
        raise ValueError(f"need at least 4 distinct scales for a slope fit (got {sorted(set(Ns))})")


@dataclass
class ScalingFit:
    """Least-squares slope of log(value) against log(N)."""

    Ns: list[int]
    values: list[float]
    slope: float
    target: float

    @property
    def residual(self) -> float:
        return abs(self.slope - self.target)

    @staticmethod
    def fit(Ns, values, target: float) -> "ScalingFit":
        """Fit over at least 4 distinct N; repeated N leave the slope underdetermined."""
        _require_four_scales(Ns)
        slope = float(
            np.polyfit(np.log(np.asarray(Ns, float)), np.log(np.asarray(values, float)), 1)[0]
        )
        return ScalingFit(list(map(int, Ns)), list(map(float, values)), slope, target)


# -- the interval engine: the averaged box ---------------------------------------------
#
# For f = 1 on {1..2N}^(n-1) x {1..nN^2} the raw count at x counts the k in
# prod K(x_i) with 1 <= x_n + |k|^2 <= nN^2, K(x_i) = [max(1, 1 - x_i), min(N, 2N - x_i)]:
# x_i enters only through its clipped k-interval (_intervals), and the count is
# symmetric in the intervals, so one row over x_n serves every order of a multiset
# of them, read off the cumulative histogram of its square sums (_count_blocks builds
# them a block at a time, _multiset_row one row at any x_n).


def _intervals(N: int):
    """Distinct clipped k-intervals [max(1, 1 - x), min(N, 2N - x)] of one box side.

    x runs over [1 - N, 2N - 1], where no interval is empty.  Returns
    (intervals, inverse, mult), the 2N - 1 intervals in sorted order, [1, B]
    for B = 1..N and then [A, N] for A = 2..N: coordinate x = 1 - N + j has
    the interval intervals[inverse[j]], and mult counts the coordinates of
    each, N + 1 for [1, N] (x in [0, N]) and 1 for every other.  Both ends
    fall as x rises, so x ascending meets the intervals in reverse sorted
    order.
    """
    j = np.arange(2 * N - 1, dtype=np.int64)
    intervals = np.stack([np.maximum(1, j - N + 2), np.minimum(N, j + 1)], axis=1)
    x = np.arange(1 - N, 2 * N, dtype=np.int64)
    inverse = N - 1 - np.minimum(x, 0) - np.maximum(x - N, 0)
    return intervals, inverse, np.bincount(inverse)


def _multiset_row(multiset, x_n: np.ndarray, M_n: int) -> np.ndarray:
    """Raw count over x_n for one multiset of k-intervals [A, B]: 1 <= x_n + |k|^2 <= M_n.

    One bincount of the square sums over the product of the intervals, in
    exact int64, and its cumulative sum read at both ends of the window;
    the square sums are checked against the allocation budget first.
    """
    check_alloc((math.prod(B - A + 1 for A, B in multiset),), np.int64, "square sums of an interval multiset")
    sums = np.zeros(1, dtype=np.int64)
    for A, B in multiset:
        sums = (sums[:, None] + np.arange(A, B + 1, dtype=np.int64) ** 2).ravel()
    cum = np.concatenate([[0], np.cumsum(np.bincount(sums))])
    top = np.minimum(np.maximum(M_n - x_n + 1, 0), len(cum) - 1)
    bot = np.minimum(np.maximum(1 - x_n, 0), len(cum) - 1)
    return cum[top] - cum[bot]


# A block of multisets holds at most _BLOCK_CELLS cells of count rows and of square sums, or one multiset.
_BLOCK_CELLS = 1 << 15


def _count_blocks(n: int, N: int, intervals: np.ndarray):
    """The cumulative square-sum histograms of the box's multisets in blocks: yields (idx, cum).

    idx is an (r, n-1) array of interval multisets in
    itertools.combinations_with_replacement order, cum the (r, S + 1) int64
    array whose row holds c[s], the number of the multiset's square sums
    <= s, for s in [0, S], S = (n-1) N^2 the largest square sum, so
    cum[:, S] is their total T.  The square sums of the whole block go into
    one bincount, each multiset's keys offset by its row.  The multiset's
    raw count over x_n in [1 - S, n N^2 - n + 1], W values, is T - c[-x_n]
    for x_n <= 0, T for x_n in [1, N^2] and c[M_n - x_n] after.  r is fixed
    by _BLOCK_CELLS against the larger of W and the N^(n-1) square sums of
    the biggest multiset, and every block's square sums are checked against
    the allocation budget before they are built.
    """
    S = (n - 1) * N * N
    W = (2 * n - 1) * N * N - n + 1
    sizes = intervals[:, 1] - intervals[:, 0] + 1
    multisets = itertools.combinations_with_replacement(range(len(intervals)), n - 1)
    rows = max(1, _BLOCK_CELLS // max(W, N ** (n - 1)))
    while block := list(itertools.islice(multisets, rows)):
        idx = np.array(block, dtype=np.int64)
        r = len(idx)
        check_alloc((int(np.prod(sizes[idx], axis=1).sum()),), np.int64, "square sums of an interval multiset")
        sums, owner = np.arange(r, dtype=np.int64) * (S + 1), np.arange(r)
        for c in range(n - 1):  # sums of the first c + 1 squares, grouped by multiset, each k ascending
            reps = sizes[idx[owner, c]]
            ends = np.cumsum(reps)
            k = np.arange(ends[-1]) + np.repeat(intervals[idx[owner, c], 0] - (ends - reps), reps)
            sums, owner = np.repeat(sums, reps) + k * k, np.repeat(owner, reps)
        yield idx, np.cumsum(np.bincount(sums, minlength=r * (S + 1)).reshape(r, S + 1), axis=1)


def box_average_counts(n: int, N: int):
    """Dense integer counts N^(n-1) * A(box indicator) over the full support.

    Returns (counts, lo): counts[idx] is the raw count at lattice point
    idx + lo.  Exact integers throughout.  The array spans x_i in
    [1 - N, 2N - 1] and x_n in [1 - (n-1) N^2, n N^2 - n + 1], so it has
    (3N-1)^(n-1) ((2n-1) N^2 - n + 1) entries (~45 N^4 for n = 3), checked
    against the allocation budget first; the slope fits go through
    box_power_sum, which never builds it.  Each block of _count_blocks is
    sliced into the count rows of its multisets, two reversed slices and no
    clipping, and each row is scattered into the cells of each distinct
    order of its multiset.
    """
    shape = (3 * N - 1,) * (n - 1) + ((2 * n - 1) * N * N - n + 1,)
    check_alloc(shape, np.int64, f"averaged box counts n={n} N={N}")
    intervals, inverse, mult = _intervals(N)
    S = (n - 1) * N * N
    xs = [np.flatnonzero(inverse == i) for i in range(len(mult))]
    counts = np.zeros(shape, dtype=np.int64)
    for block, cum in _count_blocks(n, N, intervals):
        total = cum[:, S:]
        rows = np.hstack([total - cum[:, S - 1 :: -1], np.repeat(total, N * N, axis=1), cum[:, S - 1 : n - 2 : -1]])
        for idx, row in zip(block.tolist(), rows):
            for order in set(itertools.permutations(idx)):
                counts[np.ix_(*(xs[i] for i in order))] = row
    return counts, (1 - N,) * (n - 1) + (1 - (n - 1) * N * N,)


def box_core_is_one(n: int, N: int) -> bool:
    """Exact check: the averaged box equals 1 on {1..N}^(n-1) x {1..N^2}.

    Equivalently the raw count equals N^(n-1) there, which is an integer
    identity, tested without any division.  Every core coordinate x_i in
    [1, N] has the k-interval [1, N], so the check reads the row of that
    interval taken n - 1 times over x_n in [1, N^2].
    """
    x_n = np.arange(1, N * N + 1, dtype=np.int64)
    return bool(np.all(_multiset_row([(1, N)] * (n - 1), x_n, n * N * N) == N ** (n - 1)))


def _count_histogram(n: int, N: int) -> np.ndarray:
    """h[c], the number of cells of the box_average_counts array whose raw count is c.

    Exact int64 over c in [0, N^(n-1)], without the dense array.  At n = 2
    the count at (x_1, x_2) is |K(x_1) cap [kmin, kmax]|, x_2's square
    window clipped to [1, N], and those windows are the intervals again:
    [A, N] for the 2A - 1 values of x_2 with isqrt(-x_2) = A - 1 >= 1,
    [1, B] for the 2B + 1 with isqrt(2N^2 - x_2) = B < N, and [1, N] for
    the other N^2 + 1.  So h sweeps intervals x windows, O(N^2), in chunks
    of intervals of at most _BLOCK_CELLS cells, a cell weighted by its
    interval's multiplicity x its window's length.  n >= 3 reads the blocks
    of _count_blocks without building rows: T - c[s] for s in [0, S), T
    N^2 times and c[s] for s in [n - 1, S), weighted by the multiset's
    distinct orders x m_i1 ... m_i(n-1).  np.bincount sums the weights in
    float64, exactly: every weight and bin is an integer at most the number
    of cells, checked below 2^53 first.  The mass identity
    sum_c c h[c] = 2^(n-1) n N^(2n) is checked last; an AssertionError says
    it failed.
    """
    C = N ** (n - 1)
    cells = (3 * N - 1) ** (n - 1) * ((2 * n - 1) * N * N - n + 1)
    if cells >= 1 << 53:
        raise ValueError(f"the n={n} N={N} box has {cells} cells, too many to count exactly in float64")
    check_alloc((C + 1,), np.float64, f"count histogram n={n} N={N}")
    intervals, _, mult = _intervals(N)
    h = np.zeros(C + 1)
    if n == 2:
        lo, hi = intervals.T
        lengths = np.where(hi < N, 2 * hi + 1, 2 * lo - 1) + N * N * (lo == 1) * (hi == N)
        step = max(1, _BLOCK_CELLS // len(intervals))
        for start in range(0, len(intervals), step):
            A, B = intervals[start : start + step].T[:, :, None]
            counts = np.maximum(np.minimum(B, hi) - np.maximum(A, lo) + 1, 0)
            h += np.bincount(counts.ravel(), (mult[start : start + step, None] * lengths).ravel(), C + 1)
    else:
        S = (n - 1) * N * N
        for idx, cum in _count_blocks(n, N, intervals):
            orders, run = np.full(len(idx), math.factorial(n - 1)), np.ones(len(idx), dtype=np.int64)
            for j in range(1, n - 1):  # a multiset ascends: divide by the factorial of each run of equal intervals
                run = np.where(idx[:, j] == idx[:, j - 1], run + 1, 1)
                orders //= run
            w = (orders * np.prod(mult[idx], axis=1)).astype(float)
            total = cum[:, S:]
            h += np.bincount((total - cum[:, :S]).ravel(), np.repeat(w, S), C + 1)
            h += np.bincount(total.ravel(), w * (N * N), C + 1)
            h += np.bincount(cum[:, n - 1 : S].ravel(), np.repeat(w, S - n + 1), C + 1)
    h = h.astype(np.int64)
    mass = sum(c * k for c, k in enumerate(h.tolist()))
    if mass != 2 ** (n - 1) * n * N ** (2 * n):
        raise AssertionError(f"n={n} N={N}: the count histogram has mass {mass}, not 2^(n-1) n N^(2n)")
    return h


def box_power_sum(n: int, N: int, exponent: float) -> float:
    """sum over x of cnt(x)^exponent for the extremizer box, correctly rounded.

    The counts are integers c in [0, N^(n-1)], so the sum is sum_c h[c] c^e
    over the count histogram (_count_histogram): one math.fsum of the exact
    terms of lattice._power_terms, one math.pow per distinct count.  The
    result is the exact sum of those libm powers, rounded once, so no block
    size, summation order or NumPy build moves it.  n = 2 costs O(N^2) time
    and O(N + _BLOCK_CELLS) memory, n >= 3 O(N^(2n-2)) time and
    O(N^(n-1) + _BLOCK_CELLS) memory.  A power or a sum beyond the float64
    range raises OverflowError.
    """
    h = _count_histogram(n, N)
    c = np.flatnonzero(h[1:]) + 1
    return math.fsum(chain.from_iterable(_power_terms(c.astype(float), h[c], exponent)))


def _power_overflow(p: float, N: int) -> ValueError:
    """The error for a p' = p / (p - 1) power sum beyond the float64 range, which p near 1 gives."""
    return ValueError(f"p = {p}, N = {N}: a power sum at p' = {p / (p - 1.0):.6g} overflows float64")


def box_extremizer_ratio(params: OperatorParams, p: float) -> float:
    """Exact ratio |A(box)|_p' / |box|_p for the sharp average; ValueError where its power sum overflows."""
    if params.cutoff.kind != "sharp":
        raise ValueError("the box extremizer ratio is defined for the sharp average")
    if not 1.0 < p <= 2.0:
        raise ValueError("p must lie in (1, 2]")
    n, N = params.n, params.N
    pp = p / (p - 1.0)
    try:
        total = box_power_sum(n, N, pp)
    except OverflowError as exc:
        raise _power_overflow(p, N) from exc
    numerator = total ** (1.0 / pp) / N ** (n - 1)
    denominator = (2 ** (n - 1) * n * N ** (n + 1)) ** (1.0 / p)
    return float(numerator / denominator)


def delta_extremizer_ratio(params: OperatorParams, p: float) -> float:
    """Exact ratio |A delta_0|_p' / |delta_0|_p = N^(-(n-1)/p), measured.

    The averaged delta is read off the kernel: N^(n-1) points of amplitude
    N^(1-n); the support count is verified before the norm is taken.
    """
    if params.cutoff.kind != "sharp":
        raise ValueError("the delta extremizer ratio is defined for the sharp average")
    if not p >= 1.0:  # nan too
        raise ValueError(f"p must be >= 1 (got {p})")
    n, N = params.n, params.N
    count = len(paraboloid_kernel(params))
    if count != N ** (n - 1):
        raise AssertionError("kernel support count is off")
    value = 1.0 / N ** (n - 1)
    if p == 1.0:
        return value  # p' = inf: the sup of the averaged delta
    if p == math.inf:
        return count / N ** (n - 1)  # p' = 1: the l^1 norm of the averaged delta, exactly 1
    pp = p / (p - 1.0)
    return float(count ** (1.0 / pp) * value)


# -- operator norms ------------------------------------------------------------------


def norm_l1_linf(params: OperatorParams) -> float:
    """Exact l^1 -> l^infty norm: N^(1-n) times the largest kernel weight.

    The kernel is nonnegative and a delta at the heaviest point attains the
    bound, so this is the norm itself.  Sharp cutoff: exactly N^(1-n).
    """
    top = float(np.max(params.cutoff.weights())) ** (params.n - 1)
    return top / params.N ** (params.n - 1)


# Terms one block of the Rayleigh screen may hold: pairs of points times the free tuples of each pair.
_PAIR_CELLS = 1 << 16


# Square sums outside [2^-960, 2^960] are not screened: inside it no term
# overflows, and an underflow costs far less than the precision of gamma.
_SCREEN_RANGE = (2.0**-960, 2.0**960)


def max_rayleigh_quotient(points, values, params: OperatorParams) -> float:
    """max_b |A f_b|_2 / |f_b|_2 over a batch of B >= 1 test functions, bit for bit.

    points has shape (B, m, n) and values shape (B, m); f_b sums values[b, i]
    over repeated points, as LatticeFunction(n, zip(points[b], values[b]))
    does.  The result equals the max of lp_norm(average(f_b), 2) /
    lp_norm(f_b, 2) over b, and is nan when one of them is.

    Gram form.  For f = sum_i f_i delta_(y_i) on distinct points,

        N^(2(n-1)) |A f|_2^2 = G = sum over i, j of f_i f_j K(y_i - y_j)
                                 = s K(0) + 2 sum over i < j of f_i f_j K(y_i - y_j),

    K(d) = N^(2(n-1)) <A delta_0, A delta_d> the kernel's autocorrelation
    (_autocorrelation), which is even, and s = sum f_i^2.  So a member costs
    m(m - 1)/2 lookups of K and no average.

    Error.  Let u = 2^-53, m the points per function of the batch, M =
    m(m - 1)/2, T = sum over i, j of |f_i| |f_j| K(y_i - y_j) >= |G|, r =
    sqrt(G / s) / N^(n-1) the quotient of the stored values and R =
    sqrt(T / s) / N^(n-1) >= r.  kappa bounds the relative error of one
    computed K: 0 for the sharp cutoff, whose K are integer counts, and
    (S^(n-2) + 5n) u for the smooth one (_autocorrelation).  To first order
    in u:

    * The computed s~ (a square per point, a sum of m terms) is within m u
      of s, relative.  G~ is the sum of the diagonal s~ K(0), within (m +
      1) u + kappa of s K(0), and twice the sum of the M pair terms f_i f_j
      K, each two products, 2u + kappa, summed in any order, which adds
      (M - 1) u of the sum of their moduli; doubling is exact, and the final
      add costs u.  So each part is within (M + m + 2) u + kappa of its
      moduli, which sum to T: G~ is within ((m(m + 1)/2 + 2) u + kappa) T
      of G.  The computed T~ (|f_i| exact, the same operations on
      nonnegative terms) is within (m(m + 1)/2 + 2) u + kappa of T,
      relative.
    * The exact quotient e = lp_norm(average(f), 2) / lp_norm(f, 2) is within
      (m + 9) u R of r.  A point of the average adds at most m products of
      a weight and a value and divides once by N^(n-1), so it is within
      (m + 1) u A|f| of the exact one, and the average within (m + 1) u
      |A |f||_2 = (m + 1) u R |f|_2 of A f in l^2.  An lp_norm is within
      3.5u (pow, <= 1 ulp, on each square; fsum u; halved by the root; the
      final power <= 1 ulp), or 1.5u on its exact integer branch, and the
      division adds u: 8u of r <= R.
    * As G <= T, sqrt(G + g T) >= sqrt(G) + (g / 2)(1 - g / 2) sqrt(T) and,
      where G >= g T, sqrt(G - g T) <= sqrt(G) - (g / 2) sqrt(T): g T under
      the root moves the quotient by at least (g / 2) R.

    So the interval

        q_lo = sqrt(max(G~ - gamma T~, 0) / s~ / N^(2(n-1))),  q_hi = sqrt((G~ + gamma T~) / s~ / N^(2(n-1)))

    holds e when gamma = (m(m + 1)/2 + 2) u + kappa + g and g / 2 covers
    e's (m + 9) u R, s~'s m u R / 2 and 3u R for evaluating the bounds (an
    add, two divisions, the root): g = (3m + 24) u.  The code takes gamma =
    1.01 ((m(m + 7)/2 + 26) u + kappa), m(m + 7) being even.  The
    allocation budget on the pair arrays keeps M below 2^27, and the
    kernel's size limit S^(n-1) below
    2 10^7, so gamma < 10^-7, and its extra 1% covers every second-order
    term.  Inside _SCREEN_RANGE (s~ and T~ in [2^-960, 2^960]; T >= K(0) s
    >= s, and T <= m K(0) s) no term overflows, and an underflow costs at
    most 2^-1075 per operation, far below u T.  A member outside it
    (extreme magnitudes, a nan or inf value) gets q_lo = q_hi = nan.

    Candidates.  Every member whose q_hi reaches the largest q_lo, and every
    nan one, goes through the exact quotient e; every other member lies
    below the member with the largest q_lo.  The result is the max of the
    exact candidates.  Raises ValueError for an empty batch, naming a
    member that is zero after its repeated points are summed, and naming a
    complex value: test functions are real, as |f| reaches every quotient
    that a complex f does.
    """
    f, cuts, q_lo, q_hi = _rayleigh_intervals(points, values, params)
    floor = float(np.fmax.reduce(q_lo, initial=-math.inf))  # fmax skips the nan bounds
    exact = []
    for b in np.flatnonzero(~(q_hi < floor)).tolist():
        member = _member(f, cuts, b)
        exact.append(lp_norm(average(member, params), 2) / lp_norm(member, 2))
    if not exact:  # a batch of B >= 1 has a candidate: the member whose q_lo is the floor
        raise ValueError("an empty batch has no max Rayleigh quotient")
    return float(np.max(exact))


def _rayleigh_intervals(points, values, params: OperatorParams):
    """The members of a batch and an interval [q_lo, q_hi] around each exact quotient.

    The batch is canonicalized as one function on Z^(n+1) whose leading
    coordinate is the member; member b is rows cuts[b]:cuts[b + 1] of f.  Its
    points are laid out on m slots, the unused slots repeating its first
    point with value 0.  Its m(m - 1)/2 pairs i < j enter G~ and T~ twice,
    in blocks of at most _PAIR_CELLS pairs, and its diagonal as s_f K(0).
    max_rayleigh_quotient derives the bounds.
    """
    points, values = np.asarray(points, dtype=np.int64), _real(values)
    B, m, n = points.shape
    if n != params.n:
        raise ValueError(f"function dim {n} != operator dim {params.n}")
    check_alloc((B * m, n + 1), np.int64, "stacked Rayleigh test functions")
    stacked = np.empty((B * m, n + 1), dtype=np.int64)
    stacked[:, 0] = np.repeat(np.arange(B, dtype=np.int64), m)
    stacked[:, 1:] = points.reshape(-1, n)
    f = _canonical(n + 1, stacked, values.reshape(-1))
    cuts = np.searchsorted(f._points[:, 0], np.arange(B + 1))
    empty = np.flatnonzero(cuts[1:] == cuts[:-1])
    if len(empty):
        raise ValueError(f"test function {int(empty[0])} of the batch is zero: no Rayleigh quotient")
    owner = f._points[:, 0]
    slot = np.arange(len(f)) - cuts[owner]
    y = np.repeat(f._points[cuts[:-1], 1:].T[:, :, None], m, axis=2)  # (n, B, m)
    y[:, owner, slot] = f._points[:, 1:].T
    v = np.zeros((B, m))
    v[owner, slot] = f._values

    i, j = np.triu_indices(m, 1)
    gram, total = np.empty(B), np.empty(B)
    step = max(1, _PAIR_CELLS // max(1, len(i)))
    with np.errstate(all="ignore"):  # a nan or inf value leaves the screen range below
        s_f = np.sum(v * v, axis=1)
        diagonal = s_f * _autocorrelation(params, np.zeros((n, 1), dtype=np.int64))[0]
        for lo in range(0, B, step):
            c = min(step, B - lo)
            check_alloc((n, c * len(i)), np.int64, "Rayleigh screen pairs")
            pairs = (y[:, lo : lo + c, i] - y[:, lo : lo + c, j]).reshape(n, -1)
            K = _autocorrelation(params, pairs).reshape(c, len(i))
            x, mod = v[lo : lo + c], np.abs(v[lo : lo + c])
            gram[lo : lo + c] = diagonal[lo : lo + c] + 2 * np.sum(x[:, i] * x[:, j] * K, axis=1)
            total[lo : lo + c] = diagonal[lo : lo + c] + 2 * np.sum(mod[:, i] * mod[:, j] * K, axis=1)
        gamma = 1.01 * ((m * (m + 7) // 2 + 26) * 2.0**-53 + _kappa(params))
        scale = float(params.N ** (2 * (n - 1)))
        q_lo = np.sqrt(np.maximum(gram - gamma * total, 0.0) / s_f / scale)
        q_hi = np.sqrt((gram + gamma * total) / s_f / scale)
    sums = np.stack([s_f, total])  # min and max carry a nan, which then fails both tests
    outside = ~((sums.min(0) >= _SCREEN_RANGE[0]) & (sums.max(0) <= _SCREEN_RANGE[1]))
    q_lo[outside] = q_hi[outside] = math.nan
    return f, cuts, q_lo, q_hi


def _kappa(params: OperatorParams) -> float:
    """Relative error bound of one _autocorrelation value: 0 sharp, (S^(n-2) + 5n) u smooth."""
    if params.cutoff.kind == "sharp":
        return 0.0
    return (len(params.cutoff.support()) ** (params.n - 2) + 5 * params.n) * 2.0**-53


def _autocorrelation(params: OperatorParams, d: np.ndarray) -> np.ndarray:
    """K(d) = N^(2(n-1)) <A delta_0, A delta_d> at each column d of an (n, P) int64 array.

    K(d) sums w(k) w(k') over the kernel points with v_k - v_k' = d, v_k =
    (k, |k|^2): k' = k - d' and 2 k.d' = d_n + |d'|^2, d' the first n - 1
    coordinates.  The weights factor over the coordinates, so a coordinate
    with d_i = 0 drops out of the constraint and contributes Q = sum
    sigma(k)^2 (math.fsum), and the constraint fixes k_j at the first j with
    d_j != 0: with r coordinates d_i != 0 a column sums S^(r-1) terms over
    the other r - 1, S = |supp sigma|, and at n = 2 it is one closed-form k.
    k_j is the rounded float quotient, kept where it times 2 d_j gives the
    integer back (both below 2^53, so an integer quotient is exact).  A
    column with some |d_i| >= S, or |d_n| > (n - 1) max k^2, is 0.  Columns
    go in blocks of at most _PAIR_CELLS terms, each checked against the
    allocation budget.

    The sharp cutoff counts in integers, exactly.  For the smooth one a term
    multiplies 2r weights, (2r - 1) u, the sum adds (S^(r-1) - 1) u, Q^z with
    z = n - 1 - r carries (3z - 1) u and its product u, and the kernel's own
    weights are products of n - 1 factors, (n - 2) u each: (S^(n-2) + 5n) u
    relative (_kappa).
    """
    n = params.n
    ks, ws = params.cutoff.support().astype(np.int64), params.cutoff.weights()
    S, off = len(ks), int(ks[0]) - 1
    table = np.concatenate([[0.0], ws, [0.0]])  # sigma(k) = table[k - off], clipped onto the zero ends
    q, q_pows = math.fsum((ws * ws).tolist()), [1.0]
    for _ in range(n - 1):
        q_pows.append(q_pows[-1] * q)

    out = np.zeros(d.shape[1])
    live = np.abs(d[-1]) <= (n - 1) * int(np.max(ks * ks))  # |d_n| = ||k|^2 - |k'|^2|
    for row in d[:-1]:
        live &= np.abs(row) < S
    live = np.flatnonzero(live)
    dp = d[:-1, live]
    c = d[-1, live] + np.sum(dp * dp, axis=0)
    pattern = np.zeros(len(live), dtype=np.int64)
    for i, row in enumerate(dp):
        pattern += (row != 0) * (1 << i)
    for mask in range(1 << (n - 1)):
        cols = np.flatnonzero(pattern == mask)
        if not len(cols):
            continue
        nonzero = [i for i in range(n - 1) if mask >> i & 1]
        if not nonzero:  # d' = 0: the constraint reads d_n = 0
            out[live[cols]] = np.where(c[cols] == 0, q_pows[n - 1], 0.0)
            continue
        j, free = nonzero[0], nonzero[1:]
        grid = ks[np.indices((S,) * len(free)).reshape(len(free), S ** len(free))]  # (r - 1, S^(r-1))
        step = max(1, _PAIR_CELLS // grid.shape[1])
        for lo in range(0, len(cols), step):
            cb = cols[lo : lo + step]
            check_alloc((grid.shape[1], len(cb)), np.float64, "autocorrelation terms")
            den = 2 * dp[j, cb]
            num = c[cb] - 2 * (grid.T @ dp[free][:, cb])
            kj = np.rint(num / den).astype(np.int64)
            pair = table.take(kj - off, mode="clip") * table.take(kj - dp[j, cb] - off, mode="clip")
            w = np.where(kj * den == num, pair, 0.0)
            for i, k in zip(free, grid):
                w *= ws[k - off - 1, None] * table.take(k[:, None] - dp[i, cb] - off, mode="clip")
            out[live[cb]] = np.sum(w, axis=0) * q_pows[n - 1 - len(nonzero)]
    return out


def _member(g: LatticeFunction, cuts: np.ndarray, b: int) -> LatticeFunction:
    """Member b of a stacked function, rows cuts[b]:cuts[b + 1], without its batch coordinate."""
    return _from_sorted(g.dim - 1, g._points[cuts[b] : cuts[b + 1], 1:], g._values[cuts[b] : cuts[b + 1]])


def _box_packet_quotient(params: OperatorParams) -> float:
    """Rayleigh quotient of the flat wave packet 1_P on P = {1..M}^(n-1) x {1..M_n}, M = wN, M_n = wN^2.

    w = max(8, 4(n-1)): each of the n - 1 kernel coordinates costs the
    quotient a factor, so the width grows with them (norm_l2_l2 gives the
    quotients).  In Gram form, with v_k = (k, |k|^2) and the kernel
    weight sigma(k_1)...sigma(k_(n-1)),

        N^(2(n-1)) |A 1_P|^2 = sum over k, k' of the weights of k and k' times |P cap (P + v_k - v_k')|,

    and |P cap (P + d)| = prod_(i<n) (M - |d_i|)_+ (M_n - |d_n|)_+.  Every
    |k_i - k'_i| < 4N < M, so the sum factors over the coordinates: H1[d]
    sums sigma(k) sigma(k') (M - |k - k'|) over the pairs with
    k^2 - k'^2 = d, H is H1 convolved with itself n - 2 times, and the sum
    is that of H[D] (M_n - |D|)_+, taken by math.fsum.  For the sharp cutoff
    every term is an integer, exact below 2^53.
    """
    n, N = params.n, params.N
    w = max(8, 4 * (n - 1))
    M, M_n = w * N, w * N * N
    ks, ws = params.cutoff.support().astype(np.int64), params.cutoff.weights()
    check_alloc((len(ks), len(ks)), np.float64, f"wave-packet pairs n={n} N={N}")
    k, kp = ks[:, None], ks[None, :]
    d = k * k - kp * kp
    h = h1 = np.bincount((d - d.min()).ravel(), weights=(ws[:, None] * ws[None, :] * (M - np.abs(k - kp))).ravel())
    for _ in range(n - 2):  # elementwise in ascending j, not np.convolve (a BLAS dot), so no kernel picks the bits
        h, prev = np.zeros(len(h) + len(h1) - 1), h
        for j in np.flatnonzero(h1).tolist():
            h[j : j + len(prev)] += h1[j] * prev
    D = np.arange(len(h)) + (n - 1) * int(d.min())
    total_sq = math.fsum((h * np.clip(M_n - np.abs(D), 0, None)).tolist())
    return math.sqrt(total_sq) / N ** (n - 1) / math.sqrt(M ** (n - 1) * M_n)  # |A f|_2 / |f|_2


def norm_l2_l2(params: OperatorParams) -> ExperimentReport:
    """l^2 -> l^2 norm in closed form: mass(sigma)^(n-1) / N^(n-1).

    The norm is N^(1-n) sup |m|.  Both cutoffs have nonnegative weights, so
    by the triangle inequality sup |m| = m(0) = mass(sigma)^(n-1), and the
    value is exact (sharp cutoff: exactly 1).  The certificate checks the
    value from the other side: the Rayleigh quotient of a flat wave packet
    must reach at least 0.8 of it, or an AssertionError is raised.  For the
    smooth cutoff a packet of width 8 reaches 0.807 of it at n = 3 but only
    0.739 at n = 4, so the width is max(8, 4(n-1)): at N = 4, 8, 16 it reaches
    0.821 at n = 4 (width 12), 0.830 at n = 5 (16) and 0.835 at n = 6 (20).
    """
    n, N = params.n, params.N
    value = params.cutoff.mass() ** (n - 1) / N ** (n - 1)
    quotient = _box_packet_quotient(params)
    if quotient < 0.8 * value:
        raise AssertionError(
            f"wave packet reaches only {quotient:.6f} of reported norm {value:.6f}"
        )
    return ExperimentReport(
        name="norm_l2_l2",
        params={"n": n, "N": N, "cutoff": params.cutoff.kind},
        constant=value,
        values={"rayleigh_certificate": quotient},
    )


# -- seeded coordinate ascent ----------------------------------------------------------


# Proposals per ascent start.
_ASCENT_ITERS = 60


def random_ascent_lower_bound(params: OperatorParams, p: float, seed: int = 0) -> ExperimentReport:
    """Certified lower bound on the p -> p' ratio by multiplicative ascent, p in (1, 2].

    Starts from the box and delta extremizers plus a seeded random cloud in
    the window [-2N, 2N)^(n-1) x [-4N^2, 4N^2); each of _ASCENT_ITERS
    proposals per start scales one support coordinate up or down and is kept
    when the ratio improves.  Deterministic for a fixed seed and never
    reported as the norm: the constant is the best start's ratio evaluated
    afresh from its final values.

    Each start has one float64 value array, which the accepted proposals
    update in place.  The box and the delta fill their bounding boxes and
    are given by their extents alone, with no point array; the cloud is a
    lexicographically sorted array of distinct points.  Its convolution with
    the kernel is lattice._apply_offsets with the kernel's weights, all 1.0:
    by slices for the box, and on the numbered distinct cells for the delta
    and the cloud, whose windows are sparse, O(|start| N^(n-1)) numpy work
    either way, where the box start has 2^(n-1) n N^(n+1) points.  A
    proposal updates its N^(n-1) cells in a scalar loop, on Python floats.
    The full power sums go through lattice._power_sum, math.fsum of
    math.pow with one pow per distinct value (the float ** of finite
    positive operands is the same libm pow).  Near p = 1 the incremental
    sums can cancel: a proposal whose updated sum is not positive is
    rejected.  The final evaluation runs after the loop's sums and cell
    numbers are dropped.  Before any start is built, the bytes that each
    start holds at once are checked against the allocation budget, and a
    power sum beyond the float64 range raises ValueError.
    """
    if params.cutoff.kind != "sharp":
        raise ValueError("ascent drives the sharp average")
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2] (got {p})")
    n, N = params.n, params.N
    pp = p / (p - 1.0)
    scale = float(N ** (n - 1))

    window_lo = (-2 * N,) * (n - 1) + (-4 * N * N,)
    window_hi = (2 * N,) * (n - 1) + (4 * N * N,)
    box_hi = (2 * N,) * (n - 1) + (n * N * N,)
    cloud_size = max(8, 4 * N)
    cloud_keys = cloud_size * N ** (n - 1)
    # kernel offsets -(k, |k|^2) span [-N, -1]^(n-1) x [-(n-1) N^2, -(n-1)]
    reach = (N - 1,) * (n - 1) + ((n - 1) * (N * N - 1),)
    box_window = tuple(h + r for h, r in zip(box_hi, reach))
    # Bytes a start holds at once: 16 a point for its values and their power-sum
    # copy, and 8n more a sparse point for the point itself; 17 a window cell for
    # the sums, their nonzero mask and the nonzero sums' copy; 25 a cell key for
    # the numbering at its peak (the argsort, the neighbour flags, the running
    # count and the numbers), which covers the numbers, the compact sums and their
    # power-sum mask and copy.  The delta, one point against N^(n-1) offsets, takes
    # numbered cells too, and its N^(n-1) cell keys are fewer than the cloud's.
    _check_bytes(16 * math.prod(box_hi) + 17 * math.prod(box_window),
                 f"ascent n={n} N={N}: a dense start of shape {box_hi} with its window of shape {box_window}")
    _check_bytes(8 * (n + 2) * cloud_size + 25 * cloud_keys,
                 f"ascent n={n} N={N}: a sparse start of {cloud_size} points with {cloud_keys} cell keys")

    rng = np.random.default_rng(substream_seed(seed, f"ascent:{n}:{N}:{p}"))
    kernel = _kernel(params)
    offsets, weights = -kernel._points, kernel._values  # the weights are all 1.0, and 1.0 v = v exactly

    def power_sum(grid: np.ndarray) -> float:
        return _power_sum(grid[grid != 0], pp)

    def ascend(start, values: np.ndarray) -> float:
        grid, cells_of, points_of = _apply_offsets(start, values, offsets, weights)
        s_p = _power_sum(values.copy(), p)
        s_pp = power_sum(grid)
        cur = (s_pp ** (1.0 / pp) / scale) / s_p ** (1.0 / p)
        for _ in range(_ASCENT_ITERS):
            i = int(rng.integers(0, len(values)))
            factor = 1.5 if rng.random() < 0.5 else 1 / 1.5
            old = float(values[i])  # a Python float, so ** below is libm pow
            delta = old * (factor - 1.0)
            new_sp = s_p - old**p + (old * factor) ** p
            new_spp = s_pp
            cells = cells_of(i)
            touched = []
            for before in grid[cells].tolist():
                after = before + delta
                new_spp += after**pp - before**pp
                touched.append(after)
            if new_sp <= 0 or new_spp <= 0:  # cancelled below zero, whose ** 1/p would be complex
                continue
            val = (new_spp ** (1.0 / pp) / scale) / new_sp ** (1.0 / p)
            if val > cur:
                values[i] = old * factor
                s_p, s_pp, cur = new_sp, new_spp, val
                grid[cells] = touched
        del grid, cells_of, points_of  # the final evaluation builds its own
        final = power_sum(_apply_offsets(start, values, offsets, weights)[0])
        return (final ** (1.0 / pp) / scale) / _power_sum(values.copy(), p) ** (1.0 / p)

    cloud_pts = rng.integers(low=window_lo, high=window_hi, size=(cloud_size, n))
    cloud = {
        tuple(int(c) for c in row): float(w)
        for row, w in zip(cloud_pts, 1.0 + rng.random(len(cloud_pts)))
    }
    cloud_items = sorted(cloud.items())
    starts = (
        (box_hi, np.ones(math.prod(box_hi))),
        ((1,) * n, np.ones(1)),
        (np.array([x for x, _ in cloud_items], dtype=np.int64), np.array([v for _, v in cloud_items])),
    )

    best_ratio, best_size = -1.0, 0
    for start, values in starts:
        try:
            ratio = ascend(start, values)
        except OverflowError as exc:
            raise _power_overflow(p, N) from exc
        if ratio > best_ratio:
            best_ratio, best_size = ratio, len(values)
    return ExperimentReport(
        name="ascent_lower_bound",
        params={
            "n": n,
            "N": N,
            "p": p,
            "iters": _ASCENT_ITERS,
            "window": [list(window_lo), list(window_hi)],
        },
        constant=best_ratio,
        seed=seed,
        values={"support_size": float(best_size)},
        notes="certified lower bound on the p -> p' ratio; not a norm estimate",
    )


# -- scaling fits -----------------------------------------------------------------------


def target_slope(n: int, p: float, source: str) -> float:
    """Predicted log-log slope of a ratio family against N.

    -(n-1)/p for delta; 0 for l2, since the 2 -> 2 norm is p-free and
    bounded in N; -(n+1)(2/p - 1) for the box family.  The ascent keeps the
    better of its box and delta starts, so its bounds follow the larger of
    the two exponents: the delta one below p* = (n+3)/(n+1), the box one above.
    """
    box, delta = -(n + 1) * (2.0 / p - 1.0), -(n - 1) / p
    return {"delta": delta, "l2": 0.0, "ascent": max(box, delta)}.get(source, box)


def scaling_fit(Ns, n: int, p: float, source: str, seed: int = 0) -> ScalingFit:
    """Fit the log-log slope of a ratio family against its predicted exponent.

    Sources: box and delta (exact ratios), ascent (certified lower bounds,
    _ASCENT_ITERS proposals per start), l2 (the 2 -> 2 norm).  The target is
    target_slope(n, p, source).  A sweep with fewer than 4 distinct N is
    refused before any ratio is computed.
    """
    Ns = list(Ns)
    _require_four_scales(Ns)
    values = []
    for N in Ns:
        params = OperatorParams.sharp(n, N)
        if source == "box":
            values.append(box_extremizer_ratio(params, p))
        elif source == "delta":
            values.append(delta_extremizer_ratio(params, p))
        elif source == "ascent":
            values.append(random_ascent_lower_bound(params, p, seed).constant)
        elif source == "l2":
            values.append(norm_l2_l2(params).constant)
        else:
            raise ValueError(f"unknown source {source!r}")
    return ScalingFit.fit(Ns, values, target_slope(n, p, source))


# -- the q < p obstruction ----------------------------------------------------------------


def two_bump_separation_probe(
    f: LatticeFunction, shifts, p: float, q: float, params: OperatorParams
) -> tuple[ExperimentReport, dict]:
    """Measure the norm growth of f_h = f + f(. + h) under separation.

    For h separating both f and A f into disjoint copies, the p-th power sum
    of f_h is exactly twice that of f (likewise for A f_h at exponent q), so
    one doubling multiplies the ratio |A f_h|_q / |f_h|_p by 2^(1/q - 1/p).
    For q < p the gain repeats without bound across further doublings: no
    p -> q estimate with q < p can hold.

    Returns the report, whose values hold the gain at each shift (nan at a
    shift whose translates overlap, flagged in its notes), and the doubling
    measured over every shift: "undoubled_supports" counts the sums f_h and
    A f_h whose support is not twice that of f and A f, "p_deviation" is the
    largest | |f_h|_p - 2^(1/p) |f|_p | and "q_deviation" the largest
    | |A f_h|_q - 2^(1/q) |A f|_q |, and "Af_q" is |A f|_q.
    """
    if len(f) == 0:
        raise ValueError("f must be nonzero")
    shifts = [tuple(int(c) for c in h) for h in shifts]
    if not shifts:
        raise ValueError("shifts must be nonempty")
    af = average(f, params)
    base_p = lp_norm(f, p)
    base_q = lp_norm(af, q)
    gains = {}
    overlaps = []
    undoubled, p_devs, q_devs = 0, [], []
    for h in shifts:
        fh = f + shift(f, h)
        afh = af + shift(af, h)
        misses = (len(fh) != 2 * len(f)) + (len(afh) != 2 * len(af))
        undoubled += misses
        norm_p, norm_q = lp_norm(fh, p), lp_norm(afh, q)
        p_devs.append(abs(norm_p - 2 ** (1.0 / p) * base_p))
        q_devs.append(abs(norm_q - 2 ** (1.0 / q) * base_q))
        if misses:
            overlaps.append(h)
            gains[f"gain@{h}"] = math.nan
            continue
        gains[f"gain@{h}"] = norm_q / norm_p / (base_q / base_p)
    report = ExperimentReport(
        name="separation_probe",
        params={"n": params.n, "N": params.N, "p": p, "q": q},
        constant=2 ** (1.0 / q - 1.0 / p),
        values=gains,
        notes=f"overlapping shifts: {overlaps}" if overlaps else "",
    )
    # np.max carries a nan through
    doubling = {"undoubled_supports": undoubled, "p_deviation": np.max(p_devs),
                "q_deviation": np.max(q_devs), "Af_q": base_q}
    return report, doubling
