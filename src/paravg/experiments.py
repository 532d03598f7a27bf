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
enter only at the final root.

Costs.  Every engine covers every n >= 2.  The box counts read one interval
engine: x_i enters only through its clipped k-interval, 2N - 1 of them per
side, and the count is symmetric in the intervals, so one row over x_n
serves each multiset of n - 1 intervals: O(N^(2n-2)) time, the rows built
in blocks of at most _BLOCK_CELLS cells, one block alive at a time.  n = 2
power sums also use the square window of x_2, constant on O(N) runs:
O(N^2).  The wave-packet certificate of the 2 -> 2 norm is the packet's Gram
sum, which factors over the coordinates into one histogram of O(N^2) pairs,
n - 2 convolutions in a fixed elementwise order and one weighted sum, for
both cutoffs.  The max Rayleigh quotient of a batch of test functions
averages a chunk of them as one stacked function in one direct sum, screens
every member with square sums of proven relative error, and takes exact
norms only of the members that can reach the max; a chunk holds at most
_CHUNK_TERMS terms.  The ascent keeps each start as sorted point and value
arrays and its convolution on a dense window, and every dense array is
checked against lattice.ALLOC_BUDGET_BYTES before it is allocated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cutoff import OperatorParams, _average_points, _kernel, average, paraboloid_kernel
from .lattice import LatticeFunction, _canonical, _from_sorted, _power_sum, check_alloc, lp_norm, shift
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
# of them (_count_blocks builds the box's rows a block at a time, _multiset_row one
# row at any x_n).  n = 2 box power sums also resolve the square window by exact
# integer square roots (_square_runs).


def _square_runs(x_lo: int, x_hi: int, top: int):
    """Split [x_lo, x_hi) into runs of x sharing every square-window key.

    The keys are kmax = isqrt(max(top - x, 0)), the largest k with
    x + k^2 <= top; kmin, the least k >= 1 with x + k^2 >= 1; and the signs
    of x - 1 and top - x.  kmax steps where top - x crosses a square and
    kmin where -x does, so there are O(sqrt(x_hi - x_lo)) runs, found
    without touching each x.  Returns (starts, lengths, kmin, kmax) as int64
    arrays, one entry per run.
    """
    js = np.arange(math.isqrt(max(top - x_lo, 0)) + 2, dtype=np.int64)
    jm = np.arange(math.isqrt(max(1 - x_lo, 0)) + 2, dtype=np.int64)
    cuts = np.concatenate([top + 1 - js * js, 1 - jm * jm])
    cuts = cuts[(cuts > x_lo) & (cuts < x_hi)]
    starts = np.unique(np.concatenate([[x_lo], cuts]))
    lengths = np.diff(np.append(starts, x_hi))
    kmax = np.array([math.isqrt(max(top - x, 0)) for x in starts.tolist()], dtype=np.int64)
    kmin = np.array([1 if x >= 0 else math.isqrt(-x) + 1 for x in starts.tolist()], dtype=np.int64)
    return starts, lengths, kmin, kmax


def _intervals(N: int):
    """Distinct clipped k-intervals [max(1, 1 - x), min(N, 2N - x)] of one box side.

    x runs over [1 - N, 2N - 1], where no interval is empty.  Returns
    (intervals, inverse, mult), the intervals in sorted order: coordinate
    x = 1 - N + j has the interval intervals[inverse[j]], and mult counts
    the coordinates of each.  Both ends fall as x rises, so x ascending meets
    the intervals in reverse sorted order.
    """
    x = np.arange(1 - N, 2 * N, dtype=np.int64)
    intervals, inverse, mult = np.unique(
        np.stack([np.maximum(1, 1 - x), np.minimum(N, 2 * N - x)], axis=1),
        axis=0,
        return_inverse=True,
        return_counts=True,
    )
    return intervals, inverse.reshape(-1), mult


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


# A block of box rows holds at most _BLOCK_CELLS cells of counts and of square sums, or one row.
_BLOCK_CELLS = 1 << 15


def _count_blocks(n: int, N: int, intervals: np.ndarray):
    """The multiset rows of the box in blocks: yields (idx, counts) per block.

    idx is an (r, n-1) array of interval multisets in
    itertools.combinations_with_replacement order, counts the (r, W) int64
    rows over x_n in [1 - S, n N^2 - n + 1], S = (n-1) N^2 the largest square
    sum.  The square sums of the whole block go into one bincount, each
    multiset's keys offset by its row, whose cumulative sum along the row
    holds c[s], the number of square sums <= s, padded with their total T up
    to s = S.  A row is then T - c[-x_n] for x_n <= 0, T for x_n in
    [1, N^2] and c[M_n - x_n] after, two reversed slices and no clipping.
    r is fixed by _BLOCK_CELLS against the larger of W and the N^(n-1) square
    sums of the biggest multiset, and every block's square sums are checked
    against the allocation budget before they are built.
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
        cum = np.cumsum(np.bincount(sums, minlength=r * (S + 1)).reshape(r, S + 1), axis=1)
        counts = np.empty((r, W), dtype=np.int64)
        total = cum[:, S:]
        np.subtract(total, cum[:, S - 1 :: -1], out=counts[:, :S])
        counts[:, S : S + N * N] = total
        counts[:, S + N * N :] = cum[:, S - 1 : n - 2 : -1]
        yield idx, counts


def _multiset_rows(n: int, N: int):
    """The box on the interval engine: (inverse, mult, a pass over the multisets).

    The pass yields (idx, row) once per multiset idx of n - 1 interval
    indices (a tuple, ascending, itertools.combinations_with_replacement),
    row being its int64 count over x_n in [1 - (n-1) N^2, n N^2 - n + 1].
    The rows are views into the blocks of _count_blocks, built when their
    block is reached, so one block (at most _BLOCK_CELLS cells) is alive at
    a time.
    """
    intervals, inverse, mult = _intervals(N)
    rows = (
        (tuple(idx), row)
        for block, counts in _count_blocks(n, N, intervals)
        for idx, row in zip(block.tolist(), counts)
    )
    return inverse, mult, rows


def box_average_counts(n: int, N: int):
    """Dense integer counts N^(n-1) * A(box indicator) over the full support.

    Returns (counts, lo): counts[idx] is the raw count at lattice point
    idx + lo.  Exact integers throughout.  The array spans x_i in
    [1 - N, 2N - 1] and x_n in [1 - (n-1) N^2, n N^2 - n + 1], so it has
    (3N-1)^(n-1) ((2n-1) N^2 - n + 1) entries (~45 N^4 for n = 3), checked
    against the allocation budget first; the slope fits go through
    box_power_sum, which never builds it.  The row of each interval
    multiset is scattered into the cells of each of its distinct orders.
    """
    shape = (3 * N - 1,) * (n - 1) + ((2 * n - 1) * N * N - n + 1,)
    check_alloc(shape, np.int64, f"averaged box counts n={n} N={N}")
    inverse, mult, rows = _multiset_rows(n, N)
    xs = [np.flatnonzero(inverse == i) for i in range(len(mult))]
    counts = np.zeros(shape, dtype=np.int64)
    for idx, row in rows:
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


def box_power_sum(n: int, N: int, exponent: float) -> float:
    """sum over x of cnt(x)^exponent for the extremizer box.

    n = 2 is run-length counting, O(N^2) time and O(N) memory: the count at
    (x1, x2) depends on x1 only through its k-interval [A, B] (one interval
    serves the whole bulk x1 in [0, N]) and on x2 only through its square
    window (kmin, kmax), which is constant on O(N) runs of x2 (_square_runs).
    So the sum runs over distinct intervals x runs, weighted by multiplicity
    x run length, in sorted interval order; the intervals go in chunks, one
    broadcast (intervals x runs) count block each, at most _BLOCK_CELLS cells.
    n >= 3 streams the interval multisets in the row blocks of _count_blocks,
    O(N^(2n-2)) time and O(N^(n-1) + _BLOCK_CELLS) memory: each block is
    powered by one gather from a table of c^exponent, c <= N^(n-1), and its
    rows summed to one float per multiset, added with weight
    m_i1 ... m_i(n-1) for each tuple of intervals in first-appearance order
    (itertools.product).  Each block is C-contiguous and reduced by one
    np.sum along its rows, which runs the pairwise sum of a 1-D np.sum on
    each whole row, so the row sums are those of the row-at-a-time engine
    and no reduction order depends on the block.

    Partial sums are exact for integer exponents at desk scale (counts are
    <= N^(n-1) and every partial sum stays below 2^53 up to N ~ 200).
    """
    M_n = n * N * N
    total = 0.0
    intervals, _, mult = _intervals(N)
    check_alloc((N ** (n - 1) + 1,), np.float64, f"count powers n={n} N={N}")
    powers = np.arange(N ** (n - 1) + 1, dtype=float) ** exponent
    if n == 2:
        _, lengths, kmin, kmax = _square_runs(1 - N * N, M_n, M_n)
        step = max(1, _BLOCK_CELLS // len(lengths))
        for start in range(0, len(intervals), step):
            A, B = intervals[start : start + step].T[:, :, None]
            counts = np.maximum(np.minimum(B, kmax) - np.maximum(A, kmin) + 1, 0)
            row_sums = np.sum(lengths * powers[counts], axis=1)
            for m, row_sum in zip(mult[start : start + step].tolist(), row_sums.tolist()):
                total += m * row_sum
        return total
    sums = {}
    for idx, counts in _count_blocks(n, N, intervals):
        sums.update(zip(map(tuple, idx.tolist()), np.sum(powers[counts], axis=1).tolist()))
    m, first_seen = mult.tolist(), range(len(mult) - 1, -1, -1)  # reverse sorted order (_intervals)
    for idx in itertools.product(first_seen, repeat=n - 1):
        total += math.prod(m[i] for i in idx) * sums[tuple(sorted(idx))]
    return total


def box_extremizer_ratio(params: OperatorParams, p: float) -> float:
    """Exact ratio |A(box)|_p' / |box|_p for the sharp average."""
    if params.cutoff.kind != "sharp":
        raise ValueError("the box extremizer ratio is defined for the sharp average")
    if not 1.0 < p <= 2.0:
        raise ValueError("p must lie in (1, 2]")
    n, N = params.n, params.N
    pp = p / (p - 1.0)
    numerator = box_power_sum(n, N, pp) ** (1.0 / pp) / N ** (n - 1)
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


# Kernel-point pairs one chunk of the stacked Rayleigh averages may hold.
# Sized so that the batched path does not raise the peak RSS of the unbatched loop.
_CHUNK_TERMS = 1 << 15


# Square sums outside [2^-960, 2^960] (and quotients of them) are not screened:
# inside it no term's underflow or overflow matters at the precision of beta.
_SCREEN_RANGE = (2.0**-960, 2.0**960)


def max_rayleigh_quotient(points, values, params: OperatorParams) -> float:
    """max_b |A f_b|_2 / |f_b|_2 over a batch of B >= 1 test functions, bit for bit.

    points has shape (B, m, n) and values shape (B, m); f_b sums values[b, i]
    over repeated points, as LatticeFunction(n, zip(points[b], values[b]))
    does.  The result equals the max of lp_norm(average(f_b), 2) /
    lp_norm(f_b, 2) over b, and is nan when one of them is.

    The functions of a chunk are stacked into one function on Z^(n+1) with
    the batch index as the leading coordinate, so one canonicalization and
    one direct sum against the kernel lifted by a zero batch coordinate
    serve the whole chunk; each output point still adds its terms in
    ascending k.  A chunk holds at most _CHUNK_TERMS kernel pairs (but
    always one function).

    Screen.  One np.add.reduceat of re*re + im*im over each stacked function,
    at the batch cuts, gives every member's square sums s_A and s_f and the
    screened quotient q = sqrt(s_A / s_f).  With u = 2^-53 and a, m_b the
    supports of A f_b and f_b, the exact quotient e (two lp_norm calls and a
    division) lies in [q (1 - beta), q (1 + beta)] for

        beta = (a + m_b + 20) u.

    To first order in u: a term re*re + im*im takes <= 2u (two products,
    one add) and a sum of k nonnegative terms in any order <= (k - 1) u, so
    s_A and s_f are within (a + 1) u and (m_b + 1) u of the exact square
    sums of the stored values; the division and the root add u each and the
    root halves the rest, so q is within ((a + m_b)/2 + 2.5) u of the true
    quotient.  An lp_norm is within 5u (hypot <= 1 ulp, so 5u on its square
    with the rounding of the square; fsum u; halved by the root; the final
    power <= 1 ulp), or u on its exact integer branch, and the division adds
    u, so e is within 11u.  The total ((a + m_b)/2 + 13.5) u, plus 2u for
    rounding each product q (1 -+ beta), leaves (a + m_b)/2 + 4.5 units of
    slack in beta, which covers the second-order terms and taking the bound
    relative to q instead of the true quotient.  Inside _SCREEN_RANGE no
    underflow reaches that precision; a member whose sums or quotient fall
    outside it (extreme magnitudes, a zero average, a nan or inf value)
    gets q = nan.

    Candidates.  A running floor is the max of q (1 - beta) over the members
    screened so far; a member with q (1 + beta) >= floor, or a nan q, goes
    through the exact lp_norm quotient, and every other member lies below
    a screened one.  The result is the max of the exact candidates.  Raises
    ValueError for an empty batch and naming a member that is zero after its
    repeated points are summed.
    """
    floor, exact = -math.inf, []
    for af, af_cuts, f, f_cuts in _stacked_chunks(points, values, params):
        q, beta = _screen(af, af_cuts, f, f_cuts)
        floor = float(np.fmax.reduce(q * (1.0 - beta), initial=floor))  # fmax skips the nan q
        for b in np.flatnonzero(~(q * (1.0 + beta) < floor)).tolist():
            exact.append(lp_norm(_member(af, af_cuts, b), 2) / lp_norm(_member(f, f_cuts, b), 2))
    if not exact:  # a batch of B >= 1 has a candidate: the member whose q (1 - beta) is the floor
        raise ValueError("an empty batch has no max Rayleigh quotient")
    return float(np.max(exact))


def _stacked_chunks(points, values, params: OperatorParams):
    """Yield (A f, its cuts, f, its cuts) per chunk: f stacks the chunk's functions on Z^(n+1).

    Member b of a chunk is rows cuts[b]:cuts[b + 1] of each stacked function.
    """
    points, values = np.asarray(points, dtype=np.int64), np.asarray(values, dtype=np.complex128)
    B, m, n = points.shape
    if n != params.n:
        raise ValueError(f"function dim {n} != operator dim {params.n}")
    chunk = max(1, _CHUNK_TERMS // max(1, m * len(_kernel(params))))
    for lo in range(0, B, chunk):
        c = min(chunk, B - lo)
        check_alloc((c * m, n + 1), np.int64, "stacked Rayleigh test functions")
        stacked = np.empty((c * m, n + 1), dtype=np.int64)
        stacked[:, 0] = np.repeat(np.arange(c, dtype=np.int64), m)
        stacked[:, 1:] = points[lo : lo + c].reshape(-1, n)
        f = _canonical(n + 1, stacked, values[lo : lo + c].reshape(-1))
        f_cuts = np.searchsorted(f._points[:, 0], np.arange(c + 1))
        empty = np.flatnonzero(f_cuts[1:] == f_cuts[:-1])
        if len(empty):
            raise ValueError(f"test function {lo + int(empty[0])} of the batch is zero: no Rayleigh quotient")
        af = _average_points(f._points, f._values, params)
        yield af, np.searchsorted(af._points[:, 0], np.arange(c + 1)), f, f_cuts


def _screen(af: LatticeFunction, af_cuts: np.ndarray, f: LatticeFunction, f_cuts: np.ndarray):
    """Screened quotients q of the members of a stacked chunk and their relative bounds beta.

    q is nan where the square sums or their quotient leave _SCREEN_RANGE;
    max_rayleigh_quotient derives beta.
    """
    with np.errstate(all="ignore"):
        s_a, s_f = _square_sums(af, af_cuts), _square_sums(f, f_cuts)
        ratio = s_a / s_f
        q = np.sqrt(ratio)
    sums = np.stack([s_a, s_f, ratio])  # min and max carry a nan, which then fails both tests
    q[~((sums.min(0) >= _SCREEN_RANGE[0]) & (sums.max(0) <= _SCREEN_RANGE[1]))] = math.nan
    beta = (np.diff(af_cuts) + np.diff(f_cuts) + 20) * 2.0**-53
    return q, beta


def _square_sums(g: LatticeFunction, cuts: np.ndarray) -> np.ndarray:
    """sum of re*re + im*im over each member of a stacked function, 0.0 for an empty one."""
    re, im = g._values.real, g._values.imag
    sums = np.zeros(len(cuts) - 1)
    full = cuts[1:] > cuts[:-1]
    if full.any():  # reduceat runs from each start to the next, so the empty members drop out
        sums[full] = np.add.reduceat(re * re + im * im, cuts[:-1][full])
    return sums


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


def random_ascent_lower_bound(
    params: OperatorParams, p: float, seed: int = 0, iters: int = 200
) -> ExperimentReport:
    """Certified lower bound on the p -> p' ratio by multiplicative ascent, p in (1, 2].

    Starts from the box and delta extremizers plus a seeded random cloud in
    the window [-2N, 2N)^(n-1) x [-4N^2, 4N^2); each proposal scales one
    support coordinate up or down and is kept when the ratio improves.
    Deterministic for a fixed seed, monotone within each start, and never
    reported as the norm.

    Each start is a lexicographically sorted point array with its values.
    Its convolution with the kernel lives on a dense window (the start's
    bounding box widened by the kernel offsets) and is built by one fancy-index
    add per offset, grid[cells] += values, whose cells are distinct, so each
    cell takes one add per offset in kernel order: O(|start| N^(n-1)) numpy
    work, where the box start has 2^(n-1) n N^(n+1) points.  A proposal
    updates its N^(n-1) cells in a scalar loop.  The full power sums go
    through lattice._power_sum, math.fsum of math.pow with one pow per
    distinct value (the float ** of finite positive operands is the same
    libm pow).  The window and the box are checked against the allocation
    budget before any start is built.
    """
    if params.cutoff.kind != "sharp":
        raise ValueError("ascent drives the sharp average")
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2] (got {p})")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    n, N = params.n, params.N
    pp = p / (p - 1.0)
    scale = float(N ** (n - 1))

    window_lo = (-2 * N,) * (n - 1) + (-4 * N * N,)
    window_hi = (2 * N,) * (n - 1) + (4 * N * N,)
    box_hi = (2 * N,) * (n - 1) + (n * N * N,)
    # kernel offsets -(k, |k|^2) span [-N, -1]^(n-1) x [-(n-1) N^2, -(n-1)]
    reach = (N - 1,) * (n - 1) + ((n - 1) * (N * N - 1),)
    check_alloc((math.prod(box_hi), n), np.int64, f"ascent box start n={n} N={N}")
    for grid in (
        tuple(h + r for h, r in zip(box_hi, reach)),
        tuple(h - l + r for l, h, r in zip(window_lo, window_hi, reach)),
    ):
        check_alloc(grid, np.float64, f"ascent convolution window n={n} N={N}")

    rng = np.random.default_rng(substream_seed(seed, f"ascent:{n}:{N}:{p}"))
    offsets = -_kernel(params)._points
    off_lo, off_hi = offsets.min(0), offsets.max(0)

    def convolution(points: np.ndarray, values: np.ndarray):
        """Dense f * kernel over the window, flattened.

        Returns the grid, the flat index of each point and the flat step of
        each offset.  A cell collects its terms in kernel order, which is
        ascending lexicographic order of the source points.
        """
        lo = points.min(0) + off_lo
        shape = (points.max(0) + off_hi - lo + 1).tolist()
        strides = np.array([math.prod(shape[i + 1 :]) for i in range(n)], dtype=np.int64)
        grid = np.zeros(math.prod(shape))
        base = (points - lo) @ strides
        steps = offsets @ strides
        for step in steps.tolist():  # base holds distinct cells, so one add per cell and offset
            grid[base + step] += values
        return grid, base, steps

    def power_sum(grid: np.ndarray) -> float:
        return _power_sum(grid[grid != 0], pp)

    def ascend(points: np.ndarray, values: list) -> tuple[float, int, list]:
        grid, base, steps = convolution(points, np.array(values))
        s_p = _power_sum(np.array(values), p)
        s_pp = power_sum(grid)
        cur = (s_pp ** (1.0 / pp) / scale) / s_p ** (1.0 / p)
        history = [cur]
        for _ in range(iters):
            i = int(rng.integers(0, len(values)))
            factor = 1.5 if rng.random() < 0.5 else 1 / 1.5
            old = values[i]
            delta = old * (factor - 1.0)
            new_sp = s_p - old**p + (old * factor) ** p
            new_spp = s_pp
            cells = base[i] + steps
            touched = []
            for before in grid[cells].tolist():
                after = before + delta
                new_spp += after**pp - before**pp
                touched.append(after)
            val = (new_spp ** (1.0 / pp) / scale) / new_sp ** (1.0 / p)
            if val > cur:
                values[i] = old * factor
                s_p, s_pp, cur = new_sp, new_spp, val
                grid[cells] = touched
            history.append(cur)
        final = power_sum(convolution(points, np.array(values))[0])
        ratio = (final ** (1.0 / pp) / scale) / _power_sum(np.array(values), p) ** (1.0 / p)
        return ratio, len(values), history

    box = np.indices(box_hi, dtype=np.int64).reshape(n, -1).T + 1
    cloud_pts = rng.integers(low=window_lo, high=window_hi, size=(max(8, 4 * N), n))
    cloud = {
        tuple(int(c) for c in row): float(w)
        for row, w in zip(cloud_pts, 1.0 + rng.random(len(cloud_pts)))
    }
    cloud_items = sorted(cloud.items())
    starts = (
        (box, [1.0] * len(box)),
        (np.zeros((1, n), dtype=np.int64), [1.0]),
        (np.array([x for x, _ in cloud_items], dtype=np.int64), [v for _, v in cloud_items]),
    )

    best_ratio, best_size, monotone = -1.0, 0, True
    for points, values in starts:
        ratio, size, history = ascend(points, values)
        monotone &= all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        if ratio > best_ratio:
            best_ratio, best_size = ratio, size
    return ExperimentReport(
        name="ascent_lower_bound",
        params={
            "n": n,
            "N": N,
            "p": p,
            "iters": iters,
            "window": [list(window_lo), list(window_hi)],
        },
        constant=best_ratio,
        seed=seed,
        values={"support_size": float(best_size), "monotone": float(monotone)},
        notes="certified lower bound on the p -> p' ratio; not a norm estimate",
    )


# -- scaling fits -----------------------------------------------------------------------


def target_slope(n: int, p: float, source: str) -> float:
    """Predicted log-log slope of a ratio family against N.

    -(n-1)/p for delta; 0 for l2, since the 2 -> 2 norm is p-free and
    bounded in N; -(n+1)(2/p - 1) for the box family and its ascent bounds.
    """
    if source == "delta":
        return -(n - 1) / p
    if source == "l2":
        return 0.0
    return -(n + 1) * (2.0 / p - 1.0)


# Proposals per ascent start in a scaling fit over the ascent lower bounds.
_ASCENT_ITERS = 60


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
            values.append(random_ascent_lower_bound(params, p, seed, _ASCENT_ITERS).constant)
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
