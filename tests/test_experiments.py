"""Extremizer ratios, operator norms, scaling fits, and the q < p probe."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from paravg import experiments
from paravg.cutoff import OperatorParams, average, paraboloid_kernel
from paravg.experiments import (
    ScalingFit,
    box_average_counts,
    box_core_is_one,
    box_extremizer_ratio,
    box_power_sum,
    delta_extremizer_ratio,
    norm_l1_linf,
    norm_l2_l2,
    random_ascent_lower_bound,
    rayleigh_quotient,
    rayleigh_quotients,
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


def test_box_counts_match_direct_average():
    for n, N in ((2, 3), (2, 5), (2, 8), (2, 24), (3, 2), (3, 3), (3, 4), (3, 6), (3, 8)):
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


@pytest.mark.parametrize("n, N", [(2, 1), (2, 2), (2, 7), (3, 1), (3, 2), (3, 5)])
def test_box_counts_array_is_the_support_box(n, N):
    # no slice of the dense array is all zero at either end of any axis
    counts, _ = box_average_counts(n, N)
    assert counts.shape == (3 * N - 1,) * (n - 1) + ((2 * n - 1) * N * N - n + 1,)
    for axis in range(n):
        for end in (0, -1):
            assert np.count_nonzero(np.take(counts, end, axis=axis)), (axis, end)


@pytest.mark.parametrize(
    "k_lo, k_hi, M", [(1, 1, 2), (1, 4, 8), (1, 16, 32), (1, 8, 64), (-7, 7, 32), (-15, 15, 64), (3, 5, 1)]
)
def test_intervals_match_clipped_coordinates(k_lo, k_hi, M):
    intervals, inverse, mult = experiments._intervals(k_lo, k_hi, M)
    xs = range(1 - k_hi, M - k_lo + 1)
    clipped = [(max(k_lo, 1 - x), min(k_hi, M - x)) for x in xs]
    assert all(a <= b for a, b in clipped)  # no coordinate has an empty interval
    keys = [tuple(key) for key in intervals.tolist()]
    assert keys == sorted(set(clipped))
    assert [keys[i] for i in inverse] == clipped
    assert mult.tolist() == [clipped.count(key) for key in keys]
    # x ascending meets the intervals in reverse sorted order
    assert list(dict.fromkeys(inverse.tolist())) == list(range(len(intervals) - 1, -1, -1))


def _convolved_pair_cum(I1, I2, weights=None, k_lo: int = 1) -> np.ndarray:
    """Oracle: the pair histogram as np.convolve of two (weighted) square histograms."""
    hists = []
    for A, B in (I1, I2):
        k = np.arange(A, B + 1, dtype=np.int64)
        w = None if weights is None else weights[A - k_lo : B - k_lo + 1]
        hists.append(np.bincount(k * k, weights=w))
    return np.concatenate([[0], np.cumsum(np.convolve(*hists))])


@pytest.mark.parametrize("N", [4, 8, 16, 24])
def test_pair_cum_bincount_matches_convolution(N):
    # every interval pair of the box, with unit weights: exact integers
    intervals = experiments._intervals(1, N, 2 * N)[0].tolist()
    assert len(intervals) == 2 * N - 1
    for I1 in intervals:
        for I2 in intervals:
            cum, want = experiments._pair_cum(I1, I2), _convolved_pair_cum(I1, I2)
            assert cum.dtype == want.dtype == np.int64 and np.array_equal(cum, want[: len(cum)])
            assert np.all(want[len(cum) :] == cum[-1])  # constant past the largest square sum
    # the smooth cutoff's sigma-weighted intervals of the wave packet, a stride of them
    cutoff = OperatorParams.smooth(3, N).cutoff
    ks, ws = cutoff.support(), cutoff.weights()
    k_lo = int(ks[0])
    intervals = experiments._intervals(k_lo, int(ks[-1]), 8 * N)[0].tolist()
    assert len(intervals) == 8 * N - 3
    for I1 in intervals[:: N // 2]:
        for I2 in intervals[:: N // 2]:
            cum, want = experiments._pair_cum(I1, I2, ws, k_lo), _convolved_pair_cum(I1, I2, ws, k_lo)
            assert cum.dtype == np.float64 and cum[0] == 0.0
            assert np.allclose(cum, want[: len(cum)], rtol=1e-12, atol=1e-12)
            assert np.allclose(want[len(cum) :], cum[-1], rtol=1e-12, atol=1e-12)


def test_box_core_exactness():
    for n in (2, 3):
        for N in range(1, 17):
            assert box_core_is_one(n, N)
    with pytest.raises(ValueError):
        box_core_is_one(4, 2)


@pytest.mark.parametrize("n, helper", [(2, "_run_counts"), (3, "_pair_row")])
def test_box_core_check_fails_on_one_wrong_count(n, helper, monkeypatch):
    # the core check reads the counts it is given: one count off must fail it
    original = getattr(experiments, helper)

    def one_off(*args):
        out = original(*args).copy()
        out[len(out) // 2] -= 1
        return out

    monkeypatch.setattr(experiments, helper, one_off)
    for N in (1, 2, 5, 16):
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


def _box_power_sum_3d_full_axis(N: int, exponent: float) -> float:
    """Oracle: the n = 3 power sum over x3 in [1 - 2N^2, 3N^2], with the all-zero last slice.

    One histogram per ordered pair of k-intervals, in first-appearance order of x1 and x2.
    """
    mult = {}
    for x in range(1 - N, 2 * N):
        key = (max(1, 1 - x), min(N, 2 * N - x))
        mult[key] = mult.get(key, 0) + 1
    x3 = np.arange(1 - 2 * N * N, 3 * N * N, dtype=np.int64)
    total = 0.0
    for k1, m1 in mult.items():
        for k2, m2 in mult.items():
            cum = _convolved_pair_cum(k1, k2)
            row = experiments._pair_row(cum, x3, 3 * N * N).astype(float)
            total += m1 * m2 * float(np.sum(row**exponent))
    return total


@pytest.mark.parametrize("N", [2, 4, 8, 12, 16])
def test_box_power_sum_n3_keeps_its_bits_without_the_zero_slice(N):
    for exponent in (2.25, 2.0, 3.0, 8 / 3):
        assert box_power_sum(3, N, exponent) == _box_power_sum_3d_full_axis(N, exponent), exponent


def test_box_power_sum_n3_streams_the_pairs():
    # one pair histogram alive at a time: holding all of them at once peaks at
    # 34.0 MB under tracemalloc at N=32, streaming them at 0.34 MB
    box_power_sum(3, 2, 2.25)
    tracemalloc.start()
    try:
        box_power_sum(3, 32, 2.25)
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


def _assert_within_ulps(value: float, oracle: float, ulps: int = 4) -> None:
    """The streamed oracle sums every x2 of a row, not lengths times runs, so the two agree to a few ulps, not bits."""
    assert abs(value - oracle) <= ulps * math.ulp(oracle)


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("N", [8, 16, 20, 32, 64])  # smooth N = 20: the two sums differ in the last bit
def test_packet_quotient_runs_match_streamed_rows(kind, N):
    params = OperatorParams.sharp(2, N) if kind == "sharp" else OperatorParams.smooth(2, N)
    _assert_within_ulps(experiments._box_packet_quotient(params), _streamed_packet_quotient_2d(params))


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

    starts, lengths, rmin, rmax = experiments._square_runs(1 - 4 * N * N, M_n + 4 * N * N, M_n)
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
@pytest.mark.parametrize("N", [8, 20, 42, 48])  # smooth N = 20, 42, 48: another order of the sums changes the bits
def test_packet_quotient_intervals_match_every_row(kind, N):
    params = OperatorParams.sharp(2, N) if kind == "sharp" else OperatorParams.smooth(2, N)
    assert experiments._box_packet_quotient(params) == _run_rows_packet_quotient_2d(params)


def test_norm_l2_l2_rejects_weak_certificate(monkeypatch):
    monkeypatch.setattr(experiments, "_box_packet_quotient", lambda params, width=8: 0.79)
    with pytest.raises(AssertionError, match="wave packet"):
        norm_l2_l2(OperatorParams.sharp(2, 8))


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("N", [8, 20, 32])
def test_packet_quotient_blocks_match_streamed_rows(kind, N, monkeypatch):
    # blocks of 6 rows: several blocks and a partial last one
    params = OperatorParams.sharp(2, N) if kind == "sharp" else OperatorParams.smooth(2, N)
    ks = params.cutoff.support()
    intervals = len(experiments._intervals(int(ks[0]), int(ks[-1]), 8 * N)[0])
    runs = len(experiments._square_runs(1 - 4 * N * N, 12 * N * N, 8 * N * N)[0])
    assert intervals > 12 and intervals % 6
    monkeypatch.setattr(experiments, "_CHUNK_TERMS", 6 * runs)
    _assert_within_ulps(experiments._box_packet_quotient(params), _streamed_packet_quotient_2d(params))


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
    assert experiments._box_packet_quotient(params) == _looped_packet_quotient_3d(params)


def _rayleigh_oracle(f, params: OperatorParams) -> float:
    """Oracle: the quotient of one function through average and lp_norm."""
    return lp_norm(average(f, params), 2) / lp_norm(f, 2)


def _falsification_batch(params: OperatorParams, B: int, m: int, seed: int):
    """Seeded points and values with repeated points, a cancelling pair and a Gaussian-integer member."""
    rng = np.random.default_rng(seed)
    N, n = params.N, params.n
    points = rng.integers(-2 * N, 2 * N, size=(B, m, n))
    values = (rng.random((B, m)) + 1j * rng.standard_normal((B, m))) * (rng.random((B, m)) < 0.8)
    values[:, 0] = 1.0
    points[::3, 2] = points[::3, 1]  # repeated points sum in input order
    points[1, 4], values[1, 3:5] = points[1, 3], (0.25 - 0.5j, -0.25 + 0.5j)  # a point that cancels
    values[2] = rng.integers(-3, 4, m) + 1j * rng.integers(-3, 4, m)  # the exact branch of lp_norm
    values[2, 0] = 2 - 1j
    return points, values


def _batch_oracle(points, values, params: OperatorParams) -> list:
    n = params.n
    return [_rayleigh_oracle(LatticeFunction(n, zip(p.tolist(), v.tolist())), params) for p, v in zip(points, values)]


@pytest.mark.parametrize(
    "params",
    [OperatorParams.sharp(2, 8), OperatorParams.sharp(2, 32), OperatorParams.smooth(2, 8), OperatorParams.sharp(3, 4),
     OperatorParams.smooth(3, 4)],
    ids=lambda p: f"{p.cutoff.kind}-n{p.n}-N{p.N}",
)
def test_rayleigh_quotients_match_one_at_a_time(params):
    points, values = _falsification_batch(params, 40, 7, seed=params.n * 1000 + params.N)
    quotients = rayleigh_quotients(points, values, params)
    assert all(type(q) is float for q in quotients)
    assert quotients == _batch_oracle(points, values, params)
    assert LatticeFunction(params.n, zip(points[2].tolist(), values[2].tolist())).is_integer_valued()
    f = LatticeFunction(params.n, zip(points[1].tolist(), values[1].tolist()))
    assert rayleigh_quotient(f, params) == _rayleigh_oracle(f, params)


@pytest.mark.parametrize("B", [4, 5, 6, 11])
def test_rayleigh_quotients_chunk_boundaries(B, monkeypatch):
    # chunks of 5 functions: one short chunk, one full, one full and one function, two full and one
    params, m = OperatorParams.sharp(2, 8), 6
    points, values = _falsification_batch(params, B, m, seed=B)
    monkeypatch.setattr(experiments, "_CHUNK_TERMS", 5 * m * len(paraboloid_kernel(params)))
    calls = []
    stacked_average = experiments._average_points
    monkeypatch.setattr(experiments, "_average_points", lambda *a: calls.append(1) or stacked_average(*a))
    assert rayleigh_quotients(points, values, params) == _batch_oracle(points, values, params)
    assert len(calls) == -(-B // 5)


def test_rayleigh_quotient_of_zero_is_an_error():
    params = OperatorParams.sharp(2, 8)
    with pytest.raises(ValueError, match="test function 0 of the batch is zero"):
        rayleigh_quotient(LatticeFunction(2), params)
    points, values = _falsification_batch(params, 12, 5, seed=1)
    points[9] = points[9, 0]
    values[9] = (1.0, -0.5, -0.25, -0.125, -0.125)  # sums to exactly 0 at its one point
    with pytest.raises(ValueError, match="test function 9 of the batch is zero"):
        rayleigh_quotients(points, values, params)
    with pytest.raises(ValueError, match="dim"):
        rayleigh_quotients(points[:, :, :1], values, params)


def test_rayleigh_quotients_memory_is_bounded():
    # the norm-scan sweep at N=64: unchunked, the stacked average of 600
    # functions (307,200 pairs) peaks at ~33 MB; chunked it measured ~5 MB
    params = OperatorParams.sharp(2, 64)
    rng = np.random.default_rng(0)
    points = rng.integers(-128, 128, size=(600, 8, 2))
    values = np.ones((600, 8))
    values[:, 1:] = rng.random((600, 7))
    rayleigh_quotients(points[:1], values[:1], params)  # the cached kernel is not part of the peak
    tracemalloc.start()
    try:
        rayleigh_quotients(points, values, params)
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
        assert rayleigh_quotient(f, params) <= value + 1e-9


def test_ascent_properties():
    params = OperatorParams.sharp(2, 8)
    p = 1.8
    rep = random_ascent_lower_bound(params, p, seed=3, iters=80)
    box_r = box_extremizer_ratio(params, p)
    delta_r = delta_extremizer_ratio(params, p)
    assert rep.constant >= max(box_r, delta_r) - 1e-12
    assert rep.values["monotone"] == 1.0
    rep2 = random_ascent_lower_bound(params, p, seed=3, iters=80)
    assert rep2.constant == rep.constant
    rep3 = random_ascent_lower_bound(params, p, seed=4, iters=80)
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


def _dict_ascent(params: OperatorParams, p: float, seed: int, iters: int) -> tuple[float, int, bool]:
    """Oracle: the ascent on dicts of tuples, every kernel offset scattered in Python.

    Returns (constant, support size, monotone) as random_ascent_lower_bound reports them.
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
        history = [cur]
        for _ in range(iters):
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
            val = (new_spp ** (1.0 / pp) / scale) / new_sp ** (1.0 / p)
            if val > cur:
                f[x] = old * factor
                s_p, s_pp, cur = new_sp, new_spp, val
                conv.update(touched)
            history.append(cur)
        num = math.fsum(v**pp for v in convolve(f).values()) ** (1.0 / pp) / scale
        den = math.fsum(v**p for v in f.values()) ** (1.0 / p)
        return num / den, len(f), history

    box = _dict_box(params)
    window_lo = (-2 * N,) * (n - 1) + (-4 * N * N,)
    window_hi = (2 * N,) * (n - 1) + (4 * N * N,)
    cloud_pts = rng.integers(low=window_lo, high=window_hi, size=(max(8, 4 * N), n))
    cloud = {tuple(int(c) for c in row): float(w) for row, w in zip(cloud_pts, 1.0 + rng.random(len(cloud_pts)))}
    best_ratio, best_size, monotone = -1.0, 0, True
    delta_start = {(0,) * n: 1.0}
    box_conv = dict(_dict_box_convolution(params))  # a copy, since conv.update mutates it
    for start, conv in ((box, box_conv), (delta_start, convolve(delta_start)), (cloud, convolve(cloud))):
        ratio, size, history = ascend(start, conv)
        monotone &= all(b >= a - 1e-12 for a, b in zip(history, history[1:]))
        if ratio > best_ratio:
            best_ratio, best_size = ratio, size
    return best_ratio, best_size, monotone


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n, N", [(2, 4), (2, 8), (2, 16), (2, 24), (3, 3), (3, 4), (3, 6)])
def test_ascent_dense_window_matches_dict_ascent(n, N, seed):
    params = OperatorParams.sharp(n, N)
    rep = random_ascent_lower_bound(params, 1.8, seed=seed, iters=60)
    constant, size, monotone = _dict_ascent(params, 1.8, seed, 60)
    assert rep.constant == constant
    assert rep.values["support_size"] == size
    assert rep.values["monotone"] == float(monotone)


def test_ascent_rejects_oversized_window_before_allocating():
    with pytest.raises(ValueError, match=r"shape \(.*\) needs \d+ bytes"):
        random_ascent_lower_bound(OperatorParams.sharp(3, 128), 1.8, iters=60)


def test_box_average_counts_rejects_oversized_array():
    with pytest.raises(ValueError, match="allocation budget"):
        box_average_counts(3, 128)


def test_scaling_fit_requires_four_scales():
    with pytest.raises(ValueError):
        ScalingFit.fit([8, 16, 32], [1, 2, 3], 0.0)


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
    rep = two_bump_separation_probe(f, shifts, 2.0, 1.0, params)
    expected = 2 ** (1.0 - 0.5)
    for key, gain in rep.values.items():
        assert abs(gain - expected) <= 1e-12, key
    # q = p: no gain
    rep_eq = two_bump_separation_probe(f, shifts[:1], 2.0, 2.0, params)
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
    rep = two_bump_separation_probe(f, [(1, 3)], 2.0, 1.0, params)
    assert math.isnan(list(rep.values.values())[0])
    assert "overlap" in rep.notes


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
