"""Divisor statistics and complete exponential sums."""

import math
from itertools import product

import numpy as np
import pytest

from paravg.arcs import totatives
from paravg.numtheory import (
    _ramanujan_arith,
    _ramanujan_rows,
    divisor_count,
    divisor_count_sieve,
    divisor_level_count,
    divisor_level_counts,
    mobius,
    paraboloid_divisor_count,
    ramanujan_block_report,
    ramanujan_sum,
    ramanujan_sum_direct,
    ramanujan_table,
    square_histogram,
    truncated_divisor_count,
    truncated_divisor_sieve,
)


def test_divisor_count_basics():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(97) == 2
    assert divisor_count(-12) == 6
    with pytest.raises(ValueError):
        divisor_count(0)


def test_divisor_count_matches_sieve():
    sieve = divisor_count_sieve(2000)
    for k in range(1, 2001):
        assert sieve[k] == divisor_count(k)


def test_truncated_divisor_count():
    assert truncated_divisor_count(12, 4) == 4  # 1, 2, 3, 4
    assert truncated_divisor_count(999, 1) == 1
    assert truncated_divisor_count(12, 100) == divisor_count(12)
    assert truncated_divisor_count(-12, 4) == 4
    with pytest.raises(ValueError):
        truncated_divisor_count(0, 4)
    sieve = truncated_divisor_sieve(500, 7)
    for k in range(1, 501):
        assert sieve[k] == truncated_divisor_count(k, 7)


def test_mobius_small():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 30: -1}
    for q, mu in expected.items():
        assert mobius(q) == mu


def test_ramanujan_values():
    assert ramanujan_sum(1, 5) == 1
    assert ramanujan_sum(5, 0) == 4
    assert ramanujan_sum(6, 1) == 1  # 2 cos(pi/3)
    assert ramanujan_sum(4, 2) == -2


def test_ramanujan_direct_vs_arithmetic_block():
    ks = np.arange(-256, 257)
    ramanujan_table(64, ks)  # raises if the two computations disagree
    # spot-check against the slow direct sum
    for q in (7, 12, 36):
        for k in (-5, 0, 3, 17):
            assert abs(ramanujan_sum_direct(q, k) - ramanujan_sum(q, k)) < 1e-9


def test_ramanujan_rows_match_per_k_evaluation():
    # the per-k direct sums and gcd lookups ramanujan_table used before it
    # evaluated one residue class at a time
    ks = np.arange(-2048, 2049, dtype=np.int64)
    table = ramanujan_table(128, ks)
    for q in range(1, 129):
        tots = np.array(totatives(q), dtype=np.int64)
        direct_old = np.exp(2j * np.pi * (((tots[:, None] * ks[None, :]) % q) / q)).sum(axis=0)
        by_gcd = {g: _ramanujan_arith(q, g) for g in range(1, q + 1) if q % g == 0}
        arith_old = np.array([by_gcd[int(g)] for g in np.gcd(q, np.abs(ks))], dtype=np.int64)
        direct, arith = _ramanujan_rows(q, ks)
        assert np.array_equal(direct, direct_old), q
        assert np.array_equal(arith, arith_old), q
        assert np.array_equal(table[q - 1], arith_old), q


def test_ramanujan_multiplicativity():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 25:
        q1, q2 = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        if math.gcd(q1, q2) != 1:
            continue
        k = int(rng.integers(-100, 101))
        assert ramanujan_sum(q1 * q2, k) == ramanujan_sum(q1, k) * ramanujan_sum(q2, k)
        checked += 1


def test_ramanujan_block_report():
    rep = ramanujan_block_report(1, 42, 0.1)
    assert rep.constant == 1.0  # single q = 1 term over d(42, 1) = 1
    rep = ramanujan_block_report(8, math.factorial(6), 0.1)
    assert 0 < rep.constant < 10
    # coprime block: numerator is sum of |mu(q)| over the block
    k = 1
    rep = ramanujan_block_report(8, k, 0.0)
    numerator = sum(abs(mobius(q)) for q in range(4, 9))
    assert rep.values["numerator"] == numerator


def test_divisor_level_counts():
    count, rep = divisor_level_count(10**4, 16, 1.0, B=2.0, tau=0.5)
    manual = sum(1 for k in range(1, 10**4 + 1) if truncated_divisor_count(k, 16) > 1)
    assert count == manual
    assert rep.values["ratio"] == count * 1.0 / (16**0.5 * 10**4)
    assert divisor_level_count(10**4, 16, 16.0)[0] == 0  # D >= Q kills everything
    prev = None
    for D in (1, 2, 4, 8):
        c, _ = divisor_level_count(5000, 8, float(D))
        if prev is not None:
            assert c <= prev
        prev = c


def _edge_ds(Q):
    return [1.0, 2.5] + [D for D in (Q - 1.0, float(Q), Q + 0.5) if D > 0] + [1e300, math.inf, math.nan]


@pytest.mark.parametrize("N, Q", [(1, 1), (10, 1), (5000, 8), (20000, 16), (30, 64)])
def test_divisor_level_counts_match_the_sieve_comparison(N, Q):
    sieve = truncated_divisor_sieve(N, Q)
    Ds = _edge_ds(Q)
    results = divisor_level_counts(N, Q, Ds)
    assert len(results) == len(Ds)
    for D, (count, report) in zip(Ds, results):
        assert type(count) is int
        assert count == int(np.count_nonzero(sieve[1:] > D)), D
        assert report.values == {"count": float(count)}
        assert report.params == {"N": N, "Q": Q, "D": D, "B": None, "tau": None}
        assert divisor_level_count(N, Q, D) == (count, report) or math.isnan(D)
    assert [c for c, _ in results][-3:] == [0, 0, 0]  # 1e300, inf, nan


def test_divisor_level_counts_keep_every_ratio_bit():
    N, Q, B, tau = 20000, 16, 2.0, 0.5
    sieve = truncated_divisor_sieve(N, Q)
    Ds = _edge_ds(Q)
    # 1e300 ** 2.0 overflows a float, and an inf or nan D has no ratio: both raise below
    finite = [D for D in Ds if math.isfinite(D) and D != 1e300]
    for D, (count, report) in zip(finite, divisor_level_counts(N, Q, finite, B, tau)):
        expected = int(np.count_nonzero(sieve[1:] > D)) * D**B / (Q**tau * N)
        assert repr(report.values["ratio"]) == repr(expected), D
    with pytest.raises(ValueError, match="overflows"):
        divisor_level_counts(N, Q, [2.0, 1e300], B, tau)
    with pytest.raises(ValueError, match="overflows"):
        divisor_level_counts(N, Q, [2.0], 2000.0, tau)
    for bad in ([2.0, math.inf], [math.nan], [math.nan, 4.0]):
        with pytest.raises(ValueError, match="finite D"):
            divisor_level_counts(N, Q, bad, B, tau)
        counts = [c for c, _ in divisor_level_counts(N, Q, bad)]  # a count alone needs no ratio
        assert all(c == 0 for D, c in zip(bad, counts) if not math.isfinite(D))
    for bad in ([2.0, 0.0], [-1.0], [4.0, -math.inf]):
        with pytest.raises(ValueError, match="D > 0"):
            divisor_level_counts(N, Q, bad, B, tau)


def test_divisor_growth_sweep():
    sieve = divisor_count_sieve(10**6)
    ratio = float(np.max(sieve[1:] / np.arange(1, 10**6 + 1) ** 0.3))
    assert ratio < 10.0  # recorded constant for eps = 0.3


def test_level_count_moment_identity():
    # sum_k d(k, Q)^B <= N sum_{q <= Q^B} d(q)^B / q, the counting chain
    # behind the level-set bound, at N = 1e4, Q = 8, B = 2
    N, Q, B = 10**4, 8, 2
    lhs = int(np.sum(truncated_divisor_sieve(N, Q)[1:].astype(np.int64) ** B))
    d = divisor_count_sieve(Q**B)
    rhs = N * float(np.sum(d[1:].astype(float) ** B / np.arange(1, Q**B + 1)))
    assert lhs <= rhs


def _brute_paraboloid_count(N, K, Q, D, n):
    count = 0
    for rp in product(range(-N, N + 1), repeat=n - 1):
        s = sum(c * c for c in rp)
        for rn in range(-K, K + 1):
            v = rn - s
            if v != 0 and truncated_divisor_count(v, Q) > D:
                count += 1
    return count


def test_paraboloid_divisor_count_vs_brute():
    for args in ((4, 16, 4, 1, 2), (3, 10, 3, 1, 3), (5, 30, 4, 2, 2), (2, 5, 2, 1, 2)):
        assert paraboloid_divisor_count(*args) == _brute_paraboloid_count(*args)


def test_paraboloid_divisor_count_bounds():
    N, K, Q, n = 6, 40, 5, 2
    total = paraboloid_divisor_count(N, K, Q, 1, n)
    assert total <= (2 * N + 1) ** (n - 1) * (2 * K + 1)
    assert paraboloid_divisor_count(N, K, Q, float(Q), n) == 0


def test_square_histogram():
    h = square_histogram(3, 1)
    assert h[0] == 1 and h[1] == 2 and h[4] == 2 and h[9] == 2
    h2 = square_histogram(2, 2)
    assert h2[0] == 1  # only (0, 0)
    assert h2[1] == 4  # four unit vectors
    assert int(h2.sum()) == 25


def test_paraboloid_count_budget_guard():
    with pytest.raises(ValueError):
        paraboloid_divisor_count(10**4, 10**6, 4, 1.0, 3)


def test_divisor_level_count_rejects_nonpositive_parameters():
    count, report = divisor_level_count(1000, 16, 2.0, 2.0, 0.5)
    assert report.values["ratio"] == count * 2.0**2.0 / (16**0.5 * 1000)
    for bad in ((0, 16, 2.0), (1000, 0, 2.0), (1000, 16, 0.0), (1000, 16, -1.0)):
        with pytest.raises(ValueError):
            divisor_level_count(*bad)
    for B, tau in ((0.0, 0.5), (-2.0, 0.5), (2.0, 0.0), (2.0, -0.5)):
        with pytest.raises(ValueError, match="B > 0 and tau > 0"):
            divisor_level_count(1000, 16, 2.0, B, tau)


def test_ramanujan_table_rejects_empty_arguments():
    assert ramanujan_table(1, np.array([0])).tolist() == [[1]]
    for q_max in (0, -3):
        with pytest.raises(ValueError, match="q_max"):
            ramanujan_table(q_max, np.arange(-4, 5))
    with pytest.raises(ValueError, match="k_values"):
        ramanujan_table(8, np.array([], dtype=np.int64))
