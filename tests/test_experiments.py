"""Extremizer ratios, operator norms, scaling fits, and the q < p probe."""

import collections
import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from paravg import experiments, lattice
from paravg.cutoff import OperatorParams, average, paraboloid_kernel
from paravg.experiments import (
    ScalingFit,
    box_average_counts,
    box_core_is_one,
    box_extremizer_ratio,
    box_power_sum,
    delta_extremizer_ratio,
    max_rayleigh_quotient,
    norm_l1_linf,
    norm_l2_l2,
    random_ascent_lower_bound,
    scaling_fit,
    sharp_threshold,
    target_slope,
    two_bump_separation_probe,
)
from paravg.expsums import gauss_row_max
from paravg.lattice import LatticeFunction, box_indicator, delta, lp_norm, shift
from paravg.reports import substream_seed


def test_sharp_threshold():
    assert sharp_threshold(2) == 5 / 3
    assert sharp_threshold(3) == 1.5


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ascent_target_is_the_larger_of_box_and_delta(n):
    p_star = sharp_threshold(n)
    for p in (1.01, 1.5, p_star, 1.8, 2.0):
        box, delta = target_slope(n, p, "box"), target_slope(n, p, "delta")
        assert target_slope(n, p, "ascent") == max(box, delta)
        assert (delta >= box) == (p <= p_star) or math.isclose(box, delta)


def test_box_counts_match_direct_average():
    for n, N in ((2, 3), (2, 5), (2, 8), (2, 24), (3, 2), (3, 3), (3, 4), (3, 6), (3, 8), (4, 1), (4, 2), (4, 3), (4, 4)):
        f = box_indicator((1,) * n, (2 * N,) * (n - 1) + (n * N * N,))
        af = average(f, OperatorParams.sharp(n, N))
        counts, lo = box_average_counts(n, N)
        dense, _ = af.to_dense([(l, l + s - 1) for l, s in zip(lo, counts.shape)])
        assert np.array_equal(dense, counts / N ** (n - 1))
        assert len(af) == np.count_nonzero(counts)


def _isqrt_table(limit: int) -> np.ndarray:
    """floor(sqrt(v)) for 0 <= v <= limit, exact."""
    roots = np.arange(math.isqrt(limit) + 2, dtype=np.int64)
    return (np.searchsorted(roots * roots, np.arange(limit + 1), side="right") - 1).astype(np.int64)


def _count_rows_2d(N: int, M: int, M_n: int):
    """Oracle: (x1, counts over every x2) rows of the raw n = 2 box count, by square-root tables."""
    x2 = np.arange(1 - N * N, M_n)  # x2 support: [1 - N^2, M_n - 1]
    lo_val = 1 - x2
    hi_val = M_n - x2
    isq = _isqrt_table(M_n + N * N)
    kmax_sq = isq[np.clip(hi_val, 0, None)]
    kmin_sq = np.where(lo_val <= 1, 1, isq[np.clip(lo_val - 1, 0, None)] + 1)
    for x1 in range(1 - N, M):
        A = max(1, 1 - x1)
        B = min(N, M - x1)
        counts = np.clip(np.minimum(B, kmax_sq) - np.maximum(A, kmin_sq) + 1, 0, None)
        yield x1, counts


def _dense_box_counts_3d(N: int) -> np.ndarray:
    """Oracle: the n = 3 counts with one pair histogram per (x1, x2), none shared."""
    M, M_n = 2 * N, 3 * N * N
    keys = [(max(1, 1 - x), min(N, M - x)) for x in range(1 - N, M)]
    x3 = np.arange(1 - 2 * N * N, M_n - 1, dtype=np.int64)
    counts = np.zeros((3 * N - 1, 3 * N - 1, 5 * N * N - 2), dtype=np.int64)
    for i, (a1, b1) in enumerate(keys):
        k1 = np.arange(a1, b1 + 1, dtype=np.int64)
        for j, (a2, b2) in enumerate(keys):
            k2 = np.arange(a2, b2 + 1, dtype=np.int64)
            hist = np.bincount((k1[:, None] ** 2 + k2[None, :] ** 2).ravel(), minlength=2 * N * N + 1)
            cum = np.concatenate([[0], np.cumsum(hist)])
            top = np.clip(M_n - x3 + 1, 0, len(cum) - 1)
            bot = np.clip(1 - x3, 0, len(cum) - 1)
            counts[i, j] = cum[top] - cum[bot]
    return counts


@pytest.mark.parametrize("N", [1, 2, 3, 16, 64])
def test_box_counts_2d_match_dense_rows(N):
    counts, lo = box_average_counts(2, N)
    rows = np.stack([row for _, row in _count_rows_2d(N, 2 * N, 2 * N * N)])
    assert lo == (1 - N, 1 - N * N)
    assert counts.dtype == np.int64 and np.array_equal(counts, rows)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 12])
def test_box_counts_3d_match_unshared_histograms(N):
    counts, lo = box_average_counts(3, N)
    assert lo == (1 - N, 1 - N, 1 - 2 * N * N)
    assert counts.dtype == np.int64 and np.array_equal(counts, _dense_box_counts_3d(N))


@pytest.mark.parametrize("n, N", [(2, 1), (2, 2), (2, 7), (3, 1), (3, 2), (3, 5), (4, 1), (4, 2), (4, 3)])
def test_box_counts_array_is_the_support_box(n, N):
    # no slice of the dense array is all zero at either end of any axis
    counts, _ = box_average_counts(n, N)
    assert counts.shape == (3 * N - 1,) * (n - 1) + ((2 * n - 1) * N * N - n + 1,)
    for axis in range(n):
        for end in (0, -1):
            assert np.count_nonzero(np.take(counts, end, axis=axis)), (axis, end)


@pytest.mark.parametrize("n, N", [(2, 1), (2, 5), (2, 16), (3, 1), (3, 4), (3, 9), (4, 1), (4, 3), (4, 5)])
def test_box_mass_identity(n, N):
    # every k moves the whole box: sum of counts = N^(n-1) |box| = 2^(n-1) n N^(2n)
    mass = 2 ** (n - 1) * n * N ** (2 * n)
    assert int(box_average_counts(n, N)[0].sum()) == mass
    assert box_power_sum(n, N, 1.0) == mass


@pytest.mark.parametrize("N", [1, 2, 3, 8, 16, 33])
def test_intervals_match_clipped_coordinates(N):
    intervals, inverse, mult = experiments._intervals(N)
    xs = range(1 - N, 2 * N)
    clipped = [(max(1, 1 - x), min(N, 2 * N - x)) for x in xs]
    assert all(a <= b for a, b in clipped)  # no coordinate has an empty interval
    keys = [tuple(key) for key in intervals.tolist()]
    assert keys == sorted(set(clipped)) and len(keys) == 2 * N - 1
    assert [keys[i] for i in inverse] == clipped
    assert mult.tolist() == [clipped.count(key) for key in keys]
    # x ascending meets the intervals in reverse sorted order
    assert list(dict.fromkeys(inverse.tolist())) == list(range(len(intervals) - 1, -1, -1))


def _convolved_cum(multiset) -> np.ndarray:
    """Oracle: the multiset's cumulative square-sum histogram as np.convolve of one square histogram per interval."""
    hist = np.ones(1, dtype=np.int64)
    for A, B in multiset:
        hist = np.convolve(hist, np.bincount(np.arange(A, B + 1, dtype=np.int64) ** 2))
    return np.concatenate([[0], np.cumsum(hist)])


def _multisets(n: int, N: int) -> list:
    """(multiset, cumulative square-sum row) of every block of _count_blocks, in order."""
    blocks = experiments._count_blocks(n, N, experiments._intervals(N)[0])
    return [(tuple(idx), row) for block, cum in blocks for idx, row in zip(block.tolist(), cum)]


@pytest.mark.parametrize("n, N", [(2, 8), (3, 4), (3, 8), (3, 16), (3, 24), (4, 3), (4, 5)])
def test_count_blocks_match_convolved_histograms(n, N):
    # every multiset of the box's intervals, exact integers, in combinations_with_replacement
    # order; c[s] counts the square sums <= s up to S = (n-1) N^2, padded with their total
    intervals, inverse, mult = experiments._intervals(N)
    S = (n - 1) * N * N
    seen = []
    for idx, row in _multisets(n, N):
        want = _convolved_cum([intervals[i] for i in idx])[1:]
        want = np.concatenate([want, np.full(S + 1 - len(want), want[-1])])
        assert row.dtype == np.int64 and np.array_equal(row, want), idx
        seen.append(idx)
    assert seen == list(itertools.combinations_with_replacement(range(2 * N - 1), n - 1))
    assert mult.sum() == len(inverse) == 3 * N - 1


def test_box_core_exactness():
    for n, top in ((2, 16), (3, 16), (4, 8)):
        for N in range(1, top + 1):
            assert box_core_is_one(n, N)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_box_core_check_fails_on_one_wrong_count(n, monkeypatch):
    # the core check reads the counts it is given: one count off must fail it
    original = experiments._multiset_row

    def one_off(*args):
        out = original(*args).copy()
        out[len(out) // 2] -= 1
        return out

    monkeypatch.setattr(experiments, "_multiset_row", one_off)
    for N in (1, 2, 5, 8, 16):
        assert not box_core_is_one(n, N)


def _streamed_box_power_sum_2d(N: int, exponent: float) -> float:
    """Oracle: the n = 2 power sum row by row over the dense count rows, O(N^3)."""
    total = 0.0
    for _, row in _count_rows_2d(N, 2 * N, 2 * N * N):
        total += float(np.sum(row.astype(float) ** exponent))
    return total


@pytest.mark.parametrize("N", [1, 2, 3, 16, 64, 200])
@pytest.mark.parametrize("p", [1.8, 2.0])
def test_box_power_sum_runs_match_streamed_rows(N, p):
    exponent = p / (p - 1.0)
    fast = box_power_sum(2, N, exponent)
    slow = _streamed_box_power_sum_2d(N, exponent)
    if exponent == 2.0:
        assert fast == slow
    else:
        assert abs(fast - slow) <= 1e-12 * slow


@pytest.mark.parametrize("n, N", [(3, 1), (3, 5), (4, 1), (4, 2), (4, 4)])
def test_box_power_sum_matches_dense_counts(n, N):
    counts = box_average_counts(n, N)[0].astype(float)
    for exponent in (2.0, 3.0):  # integer powers: every sum is exact
        assert box_power_sum(n, N, exponent) == np.sum(counts**exponent)
    want = np.sum(counts**2.25)
    assert abs(box_power_sum(n, N, 2.25) - want) <= 1e-13 * want


def test_box_power_sum_n3_streams_the_pairs():
    # one block of multiset histograms alive at a time: holding all of them at once
    # peaks at 34.0 MB under tracemalloc at N=32, streaming them at 0.47 MB
    box_power_sum(3, 2, 2.25)
    tracemalloc.start()
    try:
        box_power_sum(3, 32, 2.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


def _dense_cells(n: int, N: int) -> list:
    """Every cell of the dense counts, as Python ints."""
    return box_average_counts(n, N)[0].ravel().tolist()


def _fsum_of_powers(cells: list, exponent: float) -> float:
    """Oracle: math.fsum of math.pow over every cell, the exact sum of the libm powers rounded once."""
    return math.fsum(map(math.pow, cells, itertools.repeat(exponent)))


_EXPONENTS = (2.25, 2.0, 3.0, 8 / 3, 1.0, 5)


@pytest.mark.parametrize(
    "n, N",
    [(2, N) for N in (1, 2, 3, 5, 16, 64)]
    + [(3, N) for N in (1, 2, 4, 5, 8, 12, 16)]
    + [(4, N) for N in (1, 2, 3, 4, 5)],
)
def test_box_power_sum_is_the_per_cell_fsum(n, N):
    cells = _dense_cells(n, N)
    assert np.array_equal(experiments._count_histogram(n, N), np.bincount(cells, minlength=N ** (n - 1) + 1))
    for exponent in _EXPONENTS:
        assert box_power_sum(n, N, exponent) == _fsum_of_powers(cells, exponent), exponent


@pytest.mark.parametrize("n, N", [(2, 3), (2, 8), (3, 2), (3, 4), (4, 2)])
def test_box_power_sum_is_the_exact_sum_of_libm_powers_rounded_once(n, N):
    # Fraction sums the libm powers with no rounding; float() of a Fraction rounds once, to nearest
    counts = collections.Counter(_dense_cells(n, N))
    for exponent in (2.25, 8 / 3, 1.8 / 0.8, 5.5, 1.5 / 0.5):
        exact = sum(Fraction(math.pow(c, exponent)) * k for c, k in counts.items())
        assert box_power_sum(n, N, exponent) == float(exact), exponent


def _block_cells(n: int, N: int, rows: int) -> int:
    """The _BLOCK_CELLS that gives a block of `rows` intervals (n = 2) or multisets."""
    width = 2 * N - 1 if n == 2 else max((2 * n - 1) * N * N - n + 1, N ** (n - 1))
    return rows * width


# (n, N, rows of a block that does not divide the sweep, so a block ends mid-sweep)
_SPLIT_BLOCKS = [(2, 5, 4), (2, 64, 5), (3, 2, 4), (3, 5, 7), (3, 8, 7), (4, 3, 4)]


@pytest.mark.parametrize("n, N, rows", _SPLIT_BLOCKS)
@pytest.mark.parametrize("one_row", [True, False])
def test_box_power_sum_keeps_its_bits_across_block_edges(n, N, rows, one_row, monkeypatch):
    sweep = 2 * N - 1 if n == 2 else math.comb(2 * N - 2 + n - 1, n - 1)  # intervals or multisets
    assert sweep % rows and sweep > rows
    cells = _dense_cells(n, N)
    monkeypatch.setattr(experiments, "_BLOCK_CELLS", 1 if one_row else _block_cells(n, N, rows))
    assert np.array_equal(experiments._count_histogram(n, N), np.bincount(cells, minlength=N ** (n - 1) + 1))
    for exponent in _EXPONENTS:
        assert box_power_sum(n, N, exponent) == _fsum_of_powers(cells, exponent), exponent


@pytest.mark.parametrize("n, N, rows", [case for case in _SPLIT_BLOCKS if case[0] > 2])
@pytest.mark.parametrize("one_row", [True, False])
def test_count_blocks_are_the_same_across_block_edges(n, N, rows, one_row, monkeypatch):
    want, counts = _multisets(n, N), box_average_counts(n, N)[0]
    monkeypatch.setattr(experiments, "_BLOCK_CELLS", 1 if one_row else _block_cells(n, N, rows))
    got = _multisets(n, N)
    assert [idx for idx, _ in got] == [idx for idx, _ in want]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))
    assert np.array_equal(box_average_counts(n, N)[0], counts)


def test_count_blocks_check_the_square_sums_before_building_them(monkeypatch):
    # one multiset per block: the full multiset [1, 8]^2 has 64 square sums, one more
    # than the budget allows, and is refused when its block is reached
    monkeypatch.setattr(experiments, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(lattice, "ALLOC_BUDGET_BYTES", 63 * 8)
    blocks = experiments._count_blocks(3, 8, experiments._intervals(8)[0])
    assert next(blocks)[0].tolist() == [[0, 0]]
    with pytest.raises(ValueError, match="square sums of an interval multiset.*allocation budget"):
        list(blocks)


def test_box_power_sum_n2_streams_the_intervals():
    # 4095 intervals x 4095 square windows at N=2048: every count row at once is 134 MB
    # of int64; blocks of _BLOCK_CELLS cells peak at 1.2 MB under tracemalloc
    box_power_sum(2, 2, 2.25)
    tracemalloc.start()
    try:
        box_power_sum(2, 2048, 2.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("p", [1.8, 2.0])
def test_box_fit_reaches_thousands(p):
    fit = scaling_fit([256, 512, 1024, 2048], 2, p, "box")
    assert fit.residual <= 0.15


def test_box_ratio_lower_bound():
    # the core block alone gives ratio >= N^{(n+1)/p'} / |f|_p
    for n, N, p in ((2, 8, 1.8), (2, 16, 2.0), (3, 6, 1.7)):
        params = OperatorParams.sharp(n, N)
        ratio = box_extremizer_ratio(params, p)
        pp = p / (p - 1)
        lower = N ** ((n + 1) / pp) / (2 ** (n - 1) * n * N ** (n + 1)) ** (1 / p)
        assert ratio >= lower * (1 - 1e-12)


def test_delta_ratio_values():
    assert delta_extremizer_ratio(OperatorParams.sharp(2, 16), 2.0) == 0.25
    assert delta_extremizer_ratio(OperatorParams.sharp(2, 8), 1.0) == norm_l1_linf(
        OperatorParams.sharp(2, 8)
    )
    r = delta_extremizer_ratio(OperatorParams.sharp(3, 4), 2.0)
    assert abs(r - 4 ** (-1.0)) < 1e-15
    # p = inf: p' = 1, the l^1 norm of the averaged delta, N^(n-1) values of N^(1-n)
    for n, N in ((2, 4), (2, 49), (3, 7)):
        assert delta_extremizer_ratio(OperatorParams.sharp(n, N), math.inf) == 1.0
    for p in (0.5, math.nan):
        with pytest.raises(ValueError, match="p must be >= 1"):
            delta_extremizer_ratio(OperatorParams.sharp(2, 4), p)


def test_crossover_inequality():
    # -(n-1)/p <= -(n+1)(2/p - 1) exactly when p >= (n+3)/(n+1)
    for n in (2, 3):
        thr = sharp_threshold(n)
        for p in (1.2, 1.4, thr, 1.8, 2.0):
            delta_exp = -(n - 1) / p
            box_exp = -(n + 1) * (2 / p - 1)
            if p > thr + 1e-12:
                assert delta_exp < box_exp
            elif p < thr - 1e-12:
                assert delta_exp > box_exp
            else:
                assert abs(delta_exp - box_exp) < 1e-12


def test_crossover_measured_slopes():
    for n, Ns in ((2, [8, 16, 32, 64]), (3, [6, 8, 12, 16])):
        thr = sharp_threshold(n)
        above = scaling_fit(Ns, n, min(2.0, thr + 0.25), "box")
        below_delta = scaling_fit(Ns, n, thr - 0.25, "delta")
        below_box = scaling_fit(Ns, n, thr - 0.25, "box")
        # below the threshold the delta family decays slower (dominates)
        assert below_delta.slope > below_box.slope + 0.1
        assert above.residual <= 0.15


def test_norm_l1_linf():
    assert norm_l1_linf(OperatorParams.sharp(2, 8)) == 1 / 8
    assert norm_l1_linf(OperatorParams.sharp(3, 4)) == 1 / 16
    smooth = norm_l1_linf(OperatorParams.smooth(2, 8))
    assert smooth == 1 / 8  # max weight is 1 at k = 0


def test_norm_l2_l2_sharp_exact():
    rep = norm_l2_l2(OperatorParams.sharp(2, 16))
    assert rep.constant == 1.0
    assert rep.values["rayleigh_certificate"] >= 0.8


def test_norm_l2_l2_n3():
    rep = norm_l2_l2(OperatorParams.sharp(3, 6))
    assert rep.constant == 1.0
    assert rep.values["rayleigh_certificate"] >= 0.8


def test_norm_l2_l2_smooth_matches_mass():
    params = OperatorParams.smooth(2, 16)
    rep = norm_l2_l2(params)
    assert abs(rep.constant - params.cutoff.mass() / 16) < 1e-9
    assert rep.values["rayleigh_certificate"] >= 0.8 * rep.constant


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("N", [4, 8])
def test_norm_l2_l2_smooth_certificate_holds_from_n4(n, N):
    # the packet widens with n; at the fixed width 8 it fell to 0.74 (n = 4), 0.68, 0.62
    rep = norm_l2_l2(OperatorParams.smooth(n, N))
    assert 0.82 * rep.constant <= rep.values["rayleigh_certificate"] <= rep.constant


def _scan_norm_l2_l2(params: OperatorParams) -> tuple[float, float]:
    """Oracle: N^(1-n) sup |m| by a grid scan of the row maximum of |G(t, .)|.

    4 N^2 points in t = xi_n, then three local refinements around the best
    point.  Returns (norm, argmax t).
    """
    n, N = params.n, params.N
    t_points = 4 * N * N
    ts = np.arange(t_points) / t_points
    y_grid = max(8 * N, 64)
    g = gauss_row_max(ts, params.cutoff, y_grid)
    i = int(np.argmax(g))
    best_t, best_val = float(ts[i]), float(g[i])
    step = 1.0 / t_points
    for _ in range(3):
        cand = np.array([best_t + d * step / 8 for d in range(-8, 9)]) % 1.0
        vals = gauss_row_max(cand, params.cutoff, 4 * y_grid)
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val, best_t = float(vals[j]), float(cand[j])
        step /= 8
    return best_val ** (n - 1) / N ** (n - 1), best_t


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("n, N", [(2, 8), (2, 16), (2, 32), (2, 64), (3, 4), (3, 8)])
def test_norm_l2_l2_closed_form_matches_scan(kind, n, N):
    params = OperatorParams.sharp(n, N) if kind == "sharp" else OperatorParams.smooth(n, N)
    scanned, argmax_t = _scan_norm_l2_l2(params)
    assert norm_l2_l2(params).constant == scanned
    assert argmax_t == 0.0


def _streamed_packet_quotient_2d(params: OperatorParams, width: int = 8) -> float:
    """Oracle: the n = 2 wave-packet quotient row by row over every x2, O(N^3)."""
    N, cutoff = params.N, params.cutoff
    M, M_n = width * N, width * N * N
    ks, ws = cutoff.support(), cutoff.weights()
    k_lo, k_hi = int(ks[0]), int(ks[-1])
    prefix = np.concatenate([[0.0], np.cumsum(ws)])

    def wsum(a, b):
        ia = np.clip(a - k_lo, 0, len(ws))
        ib = np.clip(b - k_lo + 1, 0, len(ws))
        return prefix[np.maximum(ib, ia)] - prefix[ia]

    x_last = np.arange(1 - 4 * N * N, M_n + 4 * N * N)
    isq = _isqrt_table(M_n + 4 * N * N + 4)
    lo_val = 1 - x_last
    hi_val = np.clip(M_n - x_last, -1, len(isq) - 1)
    rmax = isq[np.clip(hi_val, 0, None)]
    rmin = np.where(lo_val <= 1, 1, isq[np.clip(lo_val - 1, 0, None)] + 1)
    neg_ok = hi_val >= 0
    total_sq = 0.0
    for x1 in range(1 - k_hi, M - k_lo + 1):
        a, b = 1 - x1, M - x1
        pos = wsum(np.maximum(a, rmin), np.minimum(b, rmax))
        neg = wsum(np.maximum(a, -rmax), np.minimum(b, -rmin))
        zero = wsum(np.maximum(a, 0), np.minimum(b, 0)) * (lo_val <= 0) * neg_ok
        row = np.where(neg_ok, pos + neg + zero, 0.0)
        total_sq += float(np.sum(row * row))
    return (math.sqrt(total_sq) / N) / math.sqrt(M * M_n)


# The float oracles add the rounded squares of their rows one after another; at these N
# (n <= 3, N <= 64) they stay within 4.8e-15 relative of the Gram form, which equals the
# exact value where test_packet_quotient_is_the_exact_gram_sum checks it.  Sharp rows and
# squares are integers, so there the oracles are exact.
_SMOOTH_ORACLE_RTOL = 1e-14


def _assert_matches_oracle(params: OperatorParams, oracle: float) -> None:
    value = experiments._box_packet_quotient(params)
    if params.cutoff.kind == "sharp":
        assert value == oracle
    else:
        assert abs(value - oracle) <= _SMOOTH_ORACLE_RTOL * oracle


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("N", [8, 16, 20, 32, 64])
def test_packet_quotient_runs_match_streamed_rows(kind, N):
    params = OperatorParams.sharp(2, N) if kind == "sharp" else OperatorParams.smooth(2, N)
    _assert_matches_oracle(params, _streamed_packet_quotient_2d(params))


def _square_runs(x_lo: int, x_hi: int, top: int):
    """Split [x_lo, x_hi) into runs of x sharing every square-window key.

    The keys are kmax = isqrt(max(top - x, 0)), the largest k with
    x + k^2 <= top; kmin, the least k >= 1 with x + k^2 >= 1; and the signs
    of x - 1 and top - x.  kmax steps where top - x crosses a square and
    kmin where -x does, so there are O(sqrt(x_hi - x_lo)) runs.  Returns
    (starts, lengths, kmin, kmax) as int64 arrays, one entry per run.
    """
    js = np.arange(math.isqrt(max(top - x_lo, 0)) + 2, dtype=np.int64)
    jm = np.arange(math.isqrt(max(1 - x_lo, 0)) + 2, dtype=np.int64)
    cuts = np.concatenate([top + 1 - js * js, 1 - jm * jm])
    starts = np.unique(np.concatenate([[x_lo], cuts[(cuts > x_lo) & (cuts < x_hi)]]))
    lengths = np.diff(np.append(starts, x_hi))
    kmax = np.array([math.isqrt(max(top - x, 0)) for x in starts.tolist()], dtype=np.int64)
    kmin = np.array([1 if x >= 0 else math.isqrt(-x) + 1 for x in starts.tolist()], dtype=np.int64)
    return starts, lengths, kmin, kmax


def _run_rows_packet_quotient_2d(params: OperatorParams, width: int = 8) -> float:
    """Oracle: the n = 2 wave-packet quotient over the square-window runs, every x1 row in x1 order."""
    N, cutoff = params.N, params.cutoff
    M, M_n = width * N, width * N * N
    ks, ws = cutoff.support(), cutoff.weights()
    k_lo, k_hi = int(ks[0]), int(ks[-1])
    prefix = np.concatenate([[0.0], np.cumsum(ws)])

    def wsum(a, b):
        ia = np.clip(a - k_lo, 0, len(ws))
        return prefix[np.maximum(np.clip(b - k_lo + 1, 0, len(ws)), ia)] - prefix[ia]

    starts, lengths, rmin, rmax = _square_runs(1 - 4 * N * N, M_n + 4 * N * N, M_n)
    neg_ok = starts <= M_n
    total_sq = 0.0
    for x1 in range(1 - k_hi, M - k_lo + 1):
        a, b = 1 - x1, M - x1
        pos = wsum(np.maximum(a, rmin), np.minimum(b, rmax))
        neg = wsum(np.maximum(a, -rmax), np.minimum(b, -rmin))
        zero = wsum(np.maximum(a, 0), np.minimum(b, 0)) * ((starts >= 1) & neg_ok)
        row = np.where(neg_ok, pos + neg + zero, 0.0)
        total_sq += float(np.sum(lengths * (row * row)))
    return (math.sqrt(total_sq) / N) / math.sqrt(M * M_n)


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("N", [8, 20, 42, 48])
def test_packet_quotient_intervals_match_every_row(kind, N):
    params = OperatorParams.sharp(2, N) if kind == "sharp" else OperatorParams.smooth(2, N)
    _assert_matches_oracle(params, _run_rows_packet_quotient_2d(params))


def test_norm_l2_l2_rejects_weak_certificate(monkeypatch):
    monkeypatch.setattr(experiments, "_box_packet_quotient", lambda params: 0.79)
    with pytest.raises(AssertionError, match="wave packet"):
        norm_l2_l2(OperatorParams.sharp(2, 8))


def _looped_packet_quotient_3d(params: OperatorParams, width: int = 8) -> float:
    """Oracle: the n = 3 wave-packet quotient with one weighted pair histogram per (x1, x2)."""
    N, cutoff = params.N, params.cutoff
    M, M_n = width * N, width * N * N
    ks = cutoff.support()
    k_lo, k_hi = int(ks[0]), int(ks[-1])
    x_last = np.arange(1 - 8 * N * N, M_n + 8 * N * N)
    total_sq = 0.0
    for x1 in range(1 - k_hi, M - k_lo + 1):
        k1 = np.arange(max(k_lo, 1 - x1), min(k_hi, M - x1) + 1)
        w1 = np.asarray(cutoff.value(k1), dtype=float)
        for x2 in range(1 - k_hi, M - k_lo + 1):
            k2 = np.arange(max(k_lo, 1 - x2), min(k_hi, M - x2) + 1)
            w2 = np.asarray(cutoff.value(k2), dtype=float)
            sq = (k1[:, None] ** 2 + k2[None, :] ** 2).ravel()
            hist = np.bincount(sq, weights=(w1[:, None] * w2[None, :]).ravel())
            cum = np.concatenate([[0.0], np.cumsum(hist)])
            top = np.clip(M_n - x_last + 1, 0, len(cum) - 1)
            bot = np.clip(1 - x_last, 0, len(cum) - 1)
            row = cum[top] - cum[bot]
            total_sq += float(np.sum(row * row))
    return (math.sqrt(total_sq) / N**2) / math.sqrt(M**2 * M_n)


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("N", [4, 6, 8])
def test_packet_quotient_n3_pairs_match_looped_rows(kind, N):
    params = OperatorParams.sharp(3, N) if kind == "sharp" else OperatorParams.smooth(3, N)
    _assert_matches_oracle(params, _looped_packet_quotient_3d(params))


def _packet_width(n: int) -> int:
    """The packet spans 8 boxes up to n = 3 and 4 per kernel coordinate after."""
    return max(8, 4 * (n - 1))


def _exact_packet_quotient(params: OperatorParams, width: int = 8) -> float:
    """Oracle: the Gram sum in exact rationals, each float weight read exactly, rounded once at the end.

    The final root and divisions are the engine's own float steps.
    """
    n, N = params.n, params.N
    M, M_n = width * N, width * N * N
    pairs = [(k, Fraction(w)) for k, w in zip(params.cutoff.support().tolist(), params.cutoff.weights().tolist())]
    h1 = collections.Counter()
    for k, a in pairs:
        for kp, b in pairs:
            h1[k * k - kp * kp] += a * b * (M - abs(k - kp))
    h = h1
    for _ in range(n - 2):
        h, prev = collections.Counter(), h
        for d, v in prev.items():
            for d1, v1 in h1.items():
                h[d + d1] += v * v1
    total = sum(v * max(M_n - abs(D), 0) for D, v in h.items())
    return math.sqrt(float(total)) / N ** (n - 1) / math.sqrt(M ** (n - 1) * M_n)


@pytest.mark.parametrize(
    "kind, n, N",
    [("smooth", 2, 8), ("smooth", 2, 16), ("smooth", 2, 32), ("smooth", 3, 4), ("smooth", 3, 8), ("smooth", 4, 4),
     ("sharp", 2, 1), ("sharp", 2, 2), ("sharp", 2, 128), ("sharp", 3, 1), ("sharp", 3, 16), ("sharp", 4, 1),
     ("sharp", 4, 4)],
)
def test_packet_quotient_is_the_exact_gram_sum(kind, n, N):
    params = OperatorParams.sharp(n, N) if kind == "sharp" else OperatorParams.smooth(n, N)
    assert experiments._box_packet_quotient(params) == _exact_packet_quotient(params, _packet_width(n))


@pytest.mark.parametrize("kind, n, N", [("sharp", 2, 4), ("smooth", 2, 4), ("sharp", 3, 4), ("smooth", 3, 4), ("sharp", 4, 2)])
def test_packet_quotient_matches_the_averaged_packet(kind, n, N):
    # the definition itself: |A 1_P|_2 / |1_P|_2 through average and lp_norm (smooth needs N >= 4)
    params = OperatorParams.sharp(n, N) if kind == "sharp" else OperatorParams.smooth(n, N)
    w = _packet_width(n)
    packet = box_indicator((1,) * n, (w * N,) * (n - 1) + (w * N * N,))
    want = lp_norm(average(packet, params), 2) / lp_norm(packet, 2)
    assert abs(experiments._box_packet_quotient(params) - want) <= 1e-14 * want


def _rayleigh_oracle(f, params: OperatorParams) -> float:
    """Oracle: the quotient of one function through average and lp_norm."""
    return lp_norm(average(f, params), 2) / lp_norm(f, 2)


def _rayleigh_quotient(f, params: OperatorParams) -> float:
    """The batched path on a batch of one function."""
    return max_rayleigh_quotient(f._points[None], f._values[None], params)


def _falsification_batch(params: OperatorParams, B: int, m: int, seed: int, twins: bool = False):
    """Seeded points and signed values with repeated points, a cancelling pair and an integer member.

    twins copies the first half of the batch onto the second, so every quotient, the max included, is tied.
    """
    rng = np.random.default_rng(seed)
    N, n = params.N, params.n
    points = rng.integers(-2 * N, 2 * N, size=(B, m, n))
    values = rng.standard_normal((B, m)) * (rng.random((B, m)) < 0.8)
    values[:, 0] = 1.0
    points[::3, 2] = points[::3, 1]  # repeated points sum in input order
    points[1, 4], values[1, 3:5] = points[1, 3], (0.75, -0.75)  # a point that cancels
    values[2] = rng.integers(-3, 4, m)  # the exact branch of lp_norm
    values[2, 0] = -2.0
    if twins:
        points[B - B // 2 :], values[B - B // 2 :] = points[: B // 2], values[: B // 2]
    return points, values


def _batch_oracle(points, values, params: OperatorParams) -> list:
    n = params.n
    return [_rayleigh_oracle(LatticeFunction(n, zip(p.tolist(), v.tolist())), params) for p, v in zip(points, values)]


_BATCH_SHAPES = [OperatorParams.sharp(2, 8), OperatorParams.sharp(2, 32), OperatorParams.smooth(2, 8),
                 OperatorParams.sharp(3, 4), OperatorParams.smooth(3, 4)]


def _screened(points, values, params: OperatorParams):
    """Every member's screen interval (q_lo, q_hi)."""
    _, _, q_lo, q_hi = experiments._rayleigh_intervals(points, values, params)
    return q_lo, q_hi


def _autocorrelation_oracle(params: OperatorParams, d) -> Fraction:
    """N^(2(n-1)) <A delta_0, A delta_d>, exactly, from the two averages (N a power of two: exact values)."""
    n = params.n
    a0, ad = average(delta((0,) * n), params), average(delta(tuple(d)), params)
    at_d = dict(zip(ad.support(), ad._values.tolist()))
    pairs = ((v, at_d[x]) for x, v in zip(a0.support(), a0._values.tolist()) if x in at_d)
    inner = sum((Fraction(v) * Fraction(w) for v, w in pairs), Fraction(0))
    return inner * params.N ** (2 * (n - 1))


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_autocorrelation_matches_the_averaged_deltas(kind, n):
    params = OperatorParams.sharp(n, 4) if kind == "sharp" else OperatorParams.smooth(n, 4)
    ks = params.cutoff.support()
    S, rng = len(ks), np.random.default_rng(n)
    top, low = int(ks[-1]), int(ks[0])
    ds = [(0,) * n, (top - low,) + (0,) * (n - 2) + (top * top - low * low,),  # |d_1| = S - 1 still meets
          (S,) + (0,) * (n - 1), (0,) * (n - 2) + (-S, 5),  # |d_i| >= S
          (1,) + (0,) * (n - 1),  # 2k = 1: no integer k
          (2,) * (n - 1) + (1,),  # 4 (k_1 + ... + k_(n-1)) = 1 + 4 (n - 1): no integer k
          (1,) + (0,) * (n - 2) + (10**12,), (0,) * (n - 1) + (1,)]
    for _ in range(25):  # differences v_k - v_k' of kernel points, so that K > 0
        k, kp = rng.choice(ks, n - 1), rng.choice(ks, n - 1)
        ds.append(tuple((k - kp).tolist()) + (int(k @ k - kp @ kp),))
    ds += [tuple(rng.integers(-2 * S, 2 * S, n).tolist()) for _ in range(10)]
    K = experiments._autocorrelation(params, np.array(ds, dtype=np.int64).T.copy())
    exact = [_autocorrelation_oracle(params, d) for d in ds]
    assert K[0] == max(K) > K[1] > 0 and not K[2:8].any()
    assert sum(e > 0 for e in exact) >= 25
    kappa = experiments._kappa(params)
    for d, k, e in zip(ds, K.tolist(), exact):
        if kind == "sharp":
            assert kappa == 0 and Fraction(k) == e, d
        else:
            assert abs(Fraction(k) - e) <= Fraction(kappa) * e, d


@pytest.mark.parametrize("params", _BATCH_SHAPES, ids=lambda p: f"{p.cutoff.kind}-n{p.n}-N{p.N}")
def test_rayleigh_quotients_match_one_at_a_time(params):
    points, values = _falsification_batch(params, 40, 7, seed=params.n * 1000 + params.N)
    oracle = _batch_oracle(points, values, params)
    worst = max_rayleigh_quotient(points, values, params)
    assert type(worst) is float and worst == max(oracle)
    assert LatticeFunction(params.n, zip(points[2].tolist(), values[2].tolist())).is_integer_valued()
    for b in (1, 2):  # the cancelling member and the integer one, alone
        f = LatticeFunction(params.n, zip(points[b].tolist(), values[b].tolist()))
        assert _rayleigh_quotient(f, params) == _rayleigh_oracle(f, params) == oracle[b]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("params", _BATCH_SHAPES, ids=lambda p: f"{p.cutoff.kind}-n{p.n}-N{p.N}")
def test_max_rayleigh_quotient_is_the_oracle_max_and_the_screen_holds(params, seed):
    # 50 batches; the odd seeds tie every member with a twin
    points, values = _falsification_batch(params, 40, 7, seed=seed * 7919 + params.N, twins=seed % 2 == 1)
    oracle = np.array(_batch_oracle(points, values, params))
    assert max_rayleigh_quotient(points, values, params) == np.max(oracle)
    q_lo, q_hi = _screened(points, values, params)
    assert np.all((q_lo <= oracle) & (oracle <= q_hi))


@pytest.mark.parametrize("params", _BATCH_SHAPES, ids=lambda p: f"{p.cutoff.kind}-n{p.n}-N{p.N}")
def test_rayleigh_screen_is_tight_on_positive_values(params):
    points, _ = _falsification_batch(params, 40, 7, seed=params.N)
    values = 0.5 + np.random.default_rng(params.N).random((40, 7))
    oracle = np.array(_batch_oracle(points, values, params))
    q_lo, q_hi = _screened(points, values, params)
    assert np.all((q_lo <= oracle) & (oracle <= q_hi))
    assert np.max((q_hi - q_lo) / oracle) <= 1e-13


def test_a_cancelling_member_widens_its_interval_and_the_exact_path_decides():
    # f = delta_a - delta_b with a - b = v_k - v_k': its Gram sum cancels K(a - b) against K(0)
    params = OperatorParams.sharp(2, 8)
    a, b = (3, 40), (3 - (5 - 2), 40 - (25 - 4))  # k = 5, k' = 2
    points = np.array([[a, b], [a, b], [(a[0] + 7, a[1] - 3), (b[0] + 7, b[1] - 3)]], dtype=np.int64)
    values = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]])  # a positive pair, then two cancelling ones
    assert experiments._autocorrelation(params, np.subtract(a, b)[:, None])[0] == 1
    oracle = _batch_oracle(points, values, params)
    q_lo, q_hi = _screened(points, values, params)
    assert np.all((q_lo <= oracle) & (oracle <= q_hi))
    width = (q_hi - q_lo) / oracle
    assert width[1] > width[0] and width[2] > width[0]
    calls = []
    real = experiments.lp_norm
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "lp_norm", lambda *a: calls.append(1) or real(*a))
        assert max_rayleigh_quotient(points[1:], values[1:], params) == max(oracle[1:]) == oracle[1]
    assert len(calls) == 4  # the two translates tie: both go through the exact quotient


@pytest.mark.parametrize("B", [4, 5, 6, 11])
def test_rayleigh_quotients_chunk_boundaries(B, monkeypatch):
    # screen blocks of 5 functions: one short block, one full, one full and one function, two full and one
    params, m = OperatorParams.sharp(2, 8), 6
    points, values = _falsification_batch(params, B, m, seed=B)
    monkeypatch.setattr(experiments, "_PAIR_CELLS", 5 * m * m)
    calls = []
    lookup = experiments._autocorrelation
    monkeypatch.setattr(experiments, "_autocorrelation", lambda *a: calls.append(1) or lookup(*a))
    oracle = _batch_oracle(points, values, params)
    assert max_rayleigh_quotient(points, values, params) == max(oracle)
    assert len(calls) == -(-B // 5)
    top = int(np.argmax(oracle))
    for b in range(B):  # the max in every position, across every block boundary
        moved = np.roll(points, b - top, axis=0), np.roll(values, b - top, axis=0)
        assert max_rayleigh_quotient(*moved, params) == max(oracle)
        q_lo, q_hi = _screened(*moved, params)
        assert np.all((q_lo <= np.roll(oracle, b - top)) & (np.roll(oracle, b - top) <= q_hi))


def test_rayleigh_screen_leaves_few_exact_norms(monkeypatch):
    # the norm-scan sweep at N=64, seed 0: every function through lp_norm would be 1,200 calls
    params = OperatorParams.sharp(2, 64)
    rng = np.random.default_rng(substream_seed(0, "norm-falsify:64"))
    points, values = np.empty((600, 8, 2), dtype=np.int64), np.ones((600, 8))
    for i in range(600):
        points[i] = rng.integers(-128, 128, size=(8, 2))
        values[i, 1:] = rng.random(7)
    calls = []
    real = experiments.lp_norm
    monkeypatch.setattr(experiments, "lp_norm", lambda *a: calls.append(1) or real(*a))
    worst = max_rayleigh_quotient(points, values, params)
    assert 2 <= len(calls) <= 4, len(calls)  # it measured 2: one candidate
    monkeypatch.setattr(experiments, "lp_norm", real)
    assert worst == max(_batch_oracle(points, values, params))


def test_max_rayleigh_quotient_refuses_complex_values():
    # np.asarray(values, float64) would drop the imaginary part with only a ComplexWarning
    params = OperatorParams.sharp(2, 8)
    points, values = _falsification_batch(params, 4, 6, seed=5)
    values_bad = values.astype(complex)
    values_bad[2, 1] = 0.5j
    for batch in (values_bad, values_bad.tolist()):
        with pytest.raises(ValueError, match=re.escape("complex amplitude 0.5j")):
            max_rayleigh_quotient(points, batch, params)
    with pytest.raises(ValueError, match=re.escape("complex amplitude (1+0j)")):  # no imaginary part: the first
        max_rayleigh_quotient(points, values.astype(complex), params)


def _complex_average(f: dict, params: OperatorParams) -> dict:
    """A f of a complex dict f: dict sums over the real kernel, then one division per value."""
    out = {}
    for k, w in paraboloid_kernel(params).items():
        for y, v in f.items():
            z = tuple(a - b for a, b in zip(y, k))
            out[z] = out.get(z, 0j) + w * v
    return {z: v / params.N ** (params.n - 1) for z, v in out.items()}


def _dict_norm(f: dict, p: float) -> float:
    return math.fsum(abs(v) ** p for v in f.values()) ** (1.0 / p)


@pytest.mark.parametrize("params", _BATCH_SHAPES, ids=lambda p: f"{p.cutoff.kind}-n{p.n}-N{p.N}")
def test_the_modulus_reaches_every_complex_quotient(params):
    # the kernel is nonnegative, so |A f| <= A|f| pointwise and |f| has the norms of f: each
    # p -> p' and 2 -> 2 quotient of a complex f is at most that of |f|, and real test
    # functions lose no falsification power; with one phase throughout the two agree
    p, pp = 1.8, 2.25
    rng = np.random.default_rng(params.n * 100 + params.N)
    points = rng.integers(-3, 4, size=(12, 7, params.n))  # close enough for the averages to overlap
    values = rng.standard_normal((12, 7)) * np.exp(2j * np.pi * rng.random((12, 7)))
    values[:3] = np.abs(values[:3]) * values[:3, :1] / np.abs(values[:3, :1])  # one phase per member
    strict = 0
    for b, (pts, vals) in enumerate(zip(points.tolist(), values.tolist())):
        f = collections.defaultdict(complex)
        for y, v in zip(pts, vals):
            f[tuple(y)] += v
        f = {y: v for y, v in f.items() if v != 0}
        g = LatticeFunction(params.n, {y: abs(v) for y, v in f.items()})
        af = _complex_average(f, params)
        quotients = [
            (lp_norm(average(g, params), pp) / lp_norm(g, p), _dict_norm(af, pp) / _dict_norm(f, p)),
            (max_rayleigh_quotient(g._points[None], g._values[None], params), _dict_norm(af, 2) / _dict_norm(f, 2)),
        ]
        for modulus, complex_f in quotients:
            assert modulus >= complex_f * (1 - 1e-13), b
            if b < 3:
                assert modulus == pytest.approx(complex_f, rel=1e-13, abs=0.0), b
            strict += modulus > complex_f * (1 + 1e-6)
    assert strict >= 5  # of the 18 quotients with mixed phases; 6 to 18 measured


def test_a_nan_member_makes_the_max_nan(monkeypatch):
    params = OperatorParams.sharp(2, 8)
    points, values = _falsification_batch(params, 11, 6, seed=3)
    monkeypatch.setattr(experiments, "_PAIR_CELLS", 5 * 6 * 6)
    low = int(np.argmin(_batch_oracle(points, values, params)[5:])) + 5  # past the first block, never the max
    for bad in (math.nan, math.inf, -math.inf):
        values_bad = values.copy()
        values_bad[low, 3] = bad
        q_lo, q_hi = _screened(points, values_bad, params)
        assert np.isnan(q_lo[low]) and np.isnan(q_hi[low])
        assert np.isfinite(np.delete(q_lo, low)).all() and np.isfinite(np.delete(q_hi, low)).all()
        assert math.isnan(max_rayleigh_quotient(points, values_bad, params))


def test_screen_sends_extreme_magnitudes_to_the_exact_norms():
    # square sums outside [2^-960, 2^960] are not screened; the max keeps its bits
    params = OperatorParams.sharp(2, 8)
    points, values = _falsification_batch(params, 12, 6, seed=4)
    values[3] *= 1e-150  # its square sums fall below 2^-960
    values[4] *= 1e150  # its square sums pass 2^960
    q_lo, q_hi = _screened(points, values, params)
    assert np.isnan(q_lo[[3, 4]]).all() and np.isnan(q_hi[[3, 4]]).all()
    assert np.isfinite(np.delete(q_lo, [3, 4])).all() and np.isfinite(np.delete(q_hi, [3, 4])).all()
    oracle = _batch_oracle(points, values, params)
    assert max_rayleigh_quotient(points, values, params) == max(oracle)
    values[4] *= 1e3  # now member 4 holds the max
    assert max_rayleigh_quotient(points, values, params) == max(_batch_oracle(points, values, params))


def test_rayleigh_max_with_a_member_scaled_below_the_square_range():
    # its squares underflow to 0; the exact norms scale it and keep the quotient
    params = OperatorParams.sharp(2, 8)
    points, values = _falsification_batch(params, 12, 6, seed=4)
    unscaled = _batch_oracle(points, values, params)[5]
    values[5] *= 1e-170
    oracle = _batch_oracle(points, values, params)
    assert oracle[5] == pytest.approx(unscaled, rel=1e-13)
    assert max_rayleigh_quotient(points, values, params) == max(oracle)


def test_rayleigh_quotient_of_zero_is_an_error():
    params = OperatorParams.sharp(2, 8)
    with pytest.raises(ValueError, match="test function 0 of the batch is zero"):
        _rayleigh_quotient(LatticeFunction(2), params)
    points, values = _falsification_batch(params, 12, 5, seed=1)
    points[9] = points[9, 0]
    values[9] = (1.0, -0.5, -0.25, -0.125, -0.125)  # sums to exactly 0 at its one point
    with pytest.raises(ValueError, match="test function 9 of the batch is zero"):
        max_rayleigh_quotient(points, values, params)
    with pytest.raises(ValueError, match="dim"):
        max_rayleigh_quotient(points[:, :, :1], values, params)
    with pytest.raises(ValueError, match="empty batch"):
        max_rayleigh_quotient(points[:0], values[:0], params)


def test_rayleigh_quotients_memory_is_bounded():
    # the norm-scan sweep at N=64: the stacked average of 600 functions (307,200
    # pairs) peaked at ~33 MB unchunked; the Gram screen's 38,400 pairs measured 2.9 MB
    params = OperatorParams.sharp(2, 64)
    rng = np.random.default_rng(0)
    points = rng.integers(-128, 128, size=(600, 8, 2))
    values = np.ones((600, 8))
    values[:, 1:] = rng.random((600, 7))
    max_rayleigh_quotient(points[:1], values[:1], params)  # the cached kernel is not part of the peak
    tracemalloc.start()
    try:
        max_rayleigh_quotient(points, values, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak


def test_rayleigh_never_exceeds_norm():
    params = OperatorParams.sharp(2, 16)
    value = norm_l2_l2(params).constant
    rng = np.random.default_rng(5)
    for _ in range(25):
        pts = rng.integers(-32, 32, size=(6, 2))
        f = delta(tuple(map(int, pts[0])))
        for row in pts[1:]:
            f = f + float(rng.random()) * delta(tuple(map(int, row)))
        assert _rayleigh_quotient(f, params) <= value + 1e-9


def test_ascent_properties():
    params = OperatorParams.sharp(2, 8)
    p = 1.8
    rep = random_ascent_lower_bound(params, p, seed=3)
    box_r = box_extremizer_ratio(params, p)
    delta_r = delta_extremizer_ratio(params, p)
    assert rep.constant >= max(box_r, delta_r) - 1e-12
    rep2 = random_ascent_lower_bound(params, p, seed=3)
    assert rep2.constant == rep.constant
    rep3 = random_ascent_lower_bound(params, p, seed=4)
    assert rep3.constant >= max(box_r, delta_r) - 1e-12


def _dict_convolve(fd: dict, kernel_offsets: list[tuple]) -> dict:
    conv: dict[tuple, float] = {}
    for x, v in fd.items():
        for off in kernel_offsets:
            y = tuple(a + b for a, b in zip(x, off))
            conv[y] = conv.get(y, 0.0) + v
    return conv


def _dict_box(params: OperatorParams) -> dict:
    n, N = params.n, params.N
    return {tuple(c + 1 for c in x): 1.0 for x in np.ndindex(*((2 * N,) * (n - 1) + (n * N * N,)))}


@functools.lru_cache(maxsize=1)  # the seeds of one operator run back to back
def _dict_box_convolution(params: OperatorParams) -> dict:
    """The box start's first convolution, which does not depend on the seed; callers copy it."""
    kernel_offsets = [tuple(-c for c in point) for point in paraboloid_kernel(params)]
    return _dict_convolve(_dict_box(params), kernel_offsets)


def _dict_ascent(params: OperatorParams, p: float, seed: int) -> tuple[float, int]:
    """Oracle: the ascent on dicts of tuples, every kernel offset scattered in Python.

    Returns (constant, support size) as random_ascent_lower_bound reports them.
    """
    n, N = params.n, params.N
    pp = p / (p - 1.0)
    rng = np.random.default_rng(substream_seed(seed, f"ascent:{n}:{N}:{p}"))
    kernel_offsets = [tuple(-c for c in point) for point in paraboloid_kernel(params)]
    scale = float(N ** (n - 1))

    def convolve(fd: dict) -> dict:
        return _dict_convolve(fd, kernel_offsets)

    def ascend(start: dict, conv: dict):
        f = dict(start)
        s_p = math.fsum(v**p for v in f.values())
        s_pp = math.fsum(v**pp for v in conv.values())
        cur = (s_pp ** (1.0 / pp) / scale) / s_p ** (1.0 / p)
        keys = sorted(f)
        for _ in range(experiments._ASCENT_ITERS):
            x = keys[int(rng.integers(0, len(keys)))]
            factor = 1.5 if rng.random() < 0.5 else 1 / 1.5
            old = f[x]
            delta = old * (factor - 1.0)
            new_sp = s_p - old**p + (old * factor) ** p
            new_spp = s_pp
            touched = []
            for off in kernel_offsets:
                y = tuple(a + b for a, b in zip(x, off))
                after = conv[y] + delta
                new_spp += after**pp - conv[y] ** pp
                touched.append((y, after))
            if new_sp <= 0 or new_spp <= 0:
                continue
            val = (new_spp ** (1.0 / pp) / scale) / new_sp ** (1.0 / p)
            if val > cur:
                f[x] = old * factor
                s_p, s_pp, cur = new_sp, new_spp, val
                conv.update(touched)
        num = math.fsum(v**pp for v in convolve(f).values()) ** (1.0 / pp) / scale
        den = math.fsum(v**p for v in f.values()) ** (1.0 / p)
        return num / den, len(f)

    box = _dict_box(params)
    window_lo = (-2 * N,) * (n - 1) + (-4 * N * N,)
    window_hi = (2 * N,) * (n - 1) + (4 * N * N,)
    cloud_pts = rng.integers(low=window_lo, high=window_hi, size=(max(8, 4 * N), n))
    cloud = {tuple(int(c) for c in row): float(w) for row, w in zip(cloud_pts, 1.0 + rng.random(len(cloud_pts)))}
    best_ratio, best_size = -1.0, 0
    delta_start = {(0,) * n: 1.0}
    box_conv = dict(_dict_box_convolution(params))  # a copy, since conv.update mutates it
    for start, conv in ((box, box_conv), (delta_start, convolve(delta_start)), (cloud, convolve(cloud))):
        ratio, size = ascend(start, conv)
        if ratio > best_ratio:
            best_ratio, best_size = ratio, size
    return best_ratio, best_size


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n, N", [(2, 4), (2, 8), (2, 16), (2, 24), (3, 3), (3, 4), (3, 6)])
def test_ascent_dense_window_matches_dict_ascent(n, N, seed):
    params = OperatorParams.sharp(n, N)
    rep = random_ascent_lower_bound(params, 1.8, seed=seed)
    assert (rep.constant, rep.values["support_size"]) == _dict_ascent(params, 1.8, seed)


def test_ascent_rejects_oversized_window_before_allocating():
    with pytest.raises(ValueError, match=r"shape \(.*\) needs \d+ bytes"):
        random_ascent_lower_bound(OperatorParams.sharp(3, 128), 1.8)


def test_box_average_counts_rejects_oversized_array():
    with pytest.raises(ValueError, match="allocation budget"):
        box_average_counts(3, 128)


def test_box_engines_refuse_an_oversized_multiset_before_allocating():
    # the core multiset at n = 7, N = 64 has 64^6 square sums, 549 GB of int64; every
    # row of the multiset pass goes through the same _multiset_row
    x_n = np.arange(1, 64 * 64 + 1, dtype=np.int64)
    for engine in (lambda: box_core_is_one(7, 64), lambda: experiments._multiset_row([(1, 64)] * 6, x_n, 7 * 64 * 64)):
        with pytest.raises(ValueError, match="square sums of an interval multiset.*allocation budget"):
            engine()


def test_scaling_fit_requires_four_scales():
    for Ns in ([8, 16, 32], [8, 8, 8, 8], [8, 16, 16, 8, 32]):  # repeated N leave np.polyfit rank-deficient
        with pytest.raises(ValueError, match="4 distinct scales"):
            ScalingFit.fit(Ns, [1.0 + i for i in range(len(Ns))], 0.0)
    assert ScalingFit.fit([8, 8, 16, 32, 64], [1.0, 1.0, 2.0, 4.0, 8.0], 1.0).slope == pytest.approx(1.0)


def test_scaling_fit_refuses_repeated_scales_before_any_ratio(monkeypatch):
    def refuse(*a):
        raise AssertionError("an engine ran")

    for engine in ("box_extremizer_ratio", "delta_extremizer_ratio", "random_ascent_lower_bound", "norm_l2_l2"):
        monkeypatch.setattr(experiments, engine, refuse)
    for source in ("box", "delta", "ascent", "l2"):
        with pytest.raises(ValueError, match="4 distinct scales"):
            scaling_fit([24, 24, 24, 24], 2, 1.8, source)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.5, math.inf, math.nan])
def test_ascent_takes_p_in_one_to_two(p):
    with pytest.raises(ValueError, match=r"p must lie in \(1, 2\]"):
        random_ascent_lower_bound(OperatorParams.sharp(2, 4), p)


def test_scaling_fit_box_and_delta():
    Ns = [8, 16, 32, 64, 128]
    fit = scaling_fit(Ns, 2, 1.8, "box")
    assert abs(fit.slope + 1 / 3) <= 0.15
    fit = scaling_fit(Ns, 2, 2.0, "box")
    assert abs(fit.slope) <= 0.15
    fit = scaling_fit(Ns, 2, 5 / 3, "delta")
    assert abs(fit.slope + 3 / 5) <= 0.05
    fit = scaling_fit(Ns, 3, 2.0, "delta")
    assert abs(fit.slope + 1.0) <= 0.05


def test_interpolation_consistency():
    # measured box ratios obey the two-endpoint interpolation bound
    for N in (8, 16):
        params = OperatorParams.sharp(2, N)
        l1 = norm_l1_linf(params)
        l2 = norm_l2_l2(params).constant
        for p in (1.25, 1.5, 1.8):
            theta = 2 / p - 1
            bound = l1**theta * l2 ** (1 - theta)
            assert box_extremizer_ratio(params, p) <= bound * (1 + 1e-9)


def test_separation_probe_exact_gains():
    params = OperatorParams.sharp(2, 8)
    f = delta((0, 0))
    shifts = [(10 * 64, 0), (20 * 64, 0), (40 * 64, 0)]
    rep, doubling = two_bump_separation_probe(f, shifts, 2.0, 1.0, params)
    expected = 2 ** (1.0 - 0.5)
    for key, gain in rep.values.items():
        assert abs(gain - expected) <= 1e-12, key
    # every shift doubles both supports; a delta's 2-norm doubles exactly
    assert doubling["undoubled_supports"] == 0 and doubling["p_deviation"] == 0.0
    assert doubling["Af_q"] == 1.0 and doubling["q_deviation"] <= 4e-16
    # q = p: no gain
    rep_eq, _ = two_bump_separation_probe(f, shifts[:1], 2.0, 2.0, params)
    assert abs(list(rep_eq.values.values())[0] - 1.0) <= 1e-12


def test_separation_probe_power_sum_exactness():
    params = OperatorParams.sharp(2, 8)
    f = delta((0, 0))
    af = average(f, params)
    h = (640, 0)
    fh = f + shift(f, h)
    afh = af + shift(af, h)
    assert len(fh) == 2 * len(f) and len(afh) == 2 * len(af)
    assert lp_norm(fh, 2.0) == math.sqrt(2.0)
    # doubling at the power-sum level is exact: A(delta) has 8 equal values
    assert abs(lp_norm(afh, 1.0) - 2 * lp_norm(af, 1.0)) <= 4e-16


def test_separation_probe_overlap_flagged():
    # h = (1, 3) maps the averaged-delta point at k = 2 onto the one at k = 1
    params = OperatorParams.sharp(2, 4)
    f = delta((0, 0))
    rep, doubling = two_bump_separation_probe(f, [(1, 3)], 2.0, 1.0, params)
    assert math.isnan(list(rep.values.values())[0])
    assert "overlap" in rep.notes
    assert doubling["undoubled_supports"] == 1  # f + f_h doubles, A f + A f_h does not
    with pytest.raises(ValueError, match="shifts"):
        two_bump_separation_probe(f, [], 2.0, 1.0, params)


def test_iterated_doubling_multiplies_gain():
    params = OperatorParams.sharp(2, 6)
    p, q = 2.0, 1.0
    f = delta((0, 0))
    af = average(f, params)
    base = lp_norm(af, q) / lp_norm(f, p)
    g = f
    ag = af
    for k in (1, 2):
        h = (10**k * 1000, 0)
        g = g + shift(g, h)
        ag = ag + shift(ag, h)
        ratio = lp_norm(ag, q) / lp_norm(g, p)
        assert abs(ratio / base - 2 ** (k * (1 / q - 1 / p))) <= 1e-12
