"""Divisor statistics and complete exponential sums."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from paravg.arcs import totatives
from paravg.numtheory import (
    _ramanujan_arith,
    _ramanujan_rows,
    divisor_level_counts,
    mobius,
    paraboloid_divisor_count,
    ramanujan_block_report,
    ramanujan_sum,
    ramanujan_table,
    square_histogram,
    truncated_divisor_count,
    truncated_divisor_sieve,
)


def divisor_count(k):
    """Number of positive divisors of |k|: the truncated count with Q = |k|."""
    return truncated_divisor_count(k, abs(k))


def divisor_count_sieve(limit):
    """d(k) for 0 <= k <= limit (d[0] = 0), via the hyperbola split.

    d(k) = 2 #{q <= sqrt(k) : q | k} - 1_{k square}, so only sqrt(limit)
    sieve passes are needed.
    """
    d = np.zeros(limit + 1, dtype=np.int64)
    root = math.isqrt(limit)
    for q in range(1, root + 1):
        d[q * q :: q] += 2
    d[np.arange(1, root + 1) ** 2] -= 1
    return d


def test_divisor_count_basics():
    assert divisor_count(1) == 1
    assert divisor_count(12) == 6
    assert divisor_count(97) == 2
    assert divisor_count(-12) == 6
    with pytest.raises(ValueError):
        divisor_count(0)


def _divisor_count_trial(k):
    """d(|k|) by trial division up to sqrt, as divisor_count computed it before."""
    k = abs(int(k))
    count = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            count += 1 if d * d == k else 2
        d += 1
    return count


def test_divisor_count_matches_trial_division():
    ks = list(range(-300, 0)) + list(range(1, 3001)) + [2**31 - 1, 720720, 10**9 + 7, -(6**10)]
    for k in ks:
        assert divisor_count(k) == _divisor_count_trial(k), k


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
    assert ramanujan_table(64, ks)[1] <= 1e-9  # the two computations agree
    # spot-check against the slow direct sum
    for q in (7, 12, 36):
        for k in (-5, 0, 3, 17):
            assert abs(_ramanujan_sum_direct(q, k) - ramanujan_sum(q, k)) < 1e-9


def _ramanujan_sum_direct(q, k):
    """sum_{a in A_q} e(a k / q) by the scalar cos/sin loop."""
    acc = 0j
    for a in totatives(q):
        acc += complex(math.cos(2 * math.pi * ((a * k) % q) / q), math.sin(2 * math.pi * ((a * k) % q) / q))
    return acc


def test_ramanujan_sum_matches_the_scalar_loop():
    # any int k, beyond int64 too: ramanujan_sum reduces k mod q in Python first
    big = [2**63 + 5, -(2**70) - 3, 10**30 + 7]
    for q in range(1, 61):
        for k in list(range(-2 * q - 3, 2 * q + 4)) + big:
            value = ramanujan_sum(q, k)
            assert type(value) is int
            assert abs(_ramanujan_sum_direct(q, k) - value) < 1e-9, (q, k)
            assert value == _ramanujan_arith(q, k), (q, k)


def test_ramanujan_sum_raises_when_the_two_ways_disagree(monkeypatch):
    import paravg.numtheory as nt

    rows = nt._ramanujan_rows
    monkeypatch.setattr(nt, "_ramanujan_rows", lambda q, ks: (rows(q, ks)[0] + 2e-9, rows(q, ks)[1]))
    with pytest.raises(AssertionError, match="disagree"):
        ramanujan_sum(6, 1)
    with pytest.raises(ValueError):
        ramanujan_sum(0, 1)


def test_ramanujan_rows_match_per_k_evaluation():
    # the per-k direct sums and gcd lookups ramanujan_table used before it
    # evaluated one residue class at a time
    ks = np.arange(-2048, 2049, dtype=np.int64)
    table, _ = ramanujan_table(128, ks)
    for q in range(1, 129):
        tots = np.array(totatives(q), dtype=np.int64)
        direct_old = np.exp(2j * np.pi * (((tots[:, None] * ks[None, :]) % q) / q)).sum(axis=0)
        by_gcd = {g: _ramanujan_arith(q, g) for g in range(1, q + 1) if q % g == 0}
        arith_old = np.array([by_gcd[int(g)] for g in np.gcd(q, np.abs(ks))], dtype=np.int64)
        direct, arith = _ramanujan_rows(q, ks)
        assert np.array_equal(direct, direct_old), q
        assert np.array_equal(arith, arith_old), q
        assert np.array_equal(table[q - 1], arith_old), q


def _ramanujan_rows_full(q):
    """_ramanujan_rows as it was before, at every residue 0..q-1: each one evaluated."""
    tots = np.array(totatives(q), dtype=np.int64)
    residues = np.arange(q, dtype=np.int64)
    phases = ((tots[:, None] * residues[None, :]) % q) / q
    by_gcd = np.zeros(q + 1, dtype=np.int64)
    for g in range(1, q + 1):
        if q % g == 0:
            by_gcd[g] = _ramanujan_arith(q, g)
    return np.exp(2j * np.pi * phases).sum(axis=0), by_gcd[np.gcd(q, residues)]


def test_ramanujan_rows_keep_the_bits_of_the_full_residue_table():
    # only the residues ks reaches are evaluated, one of them for ramanujan_sum
    rng = np.random.default_rng(5)
    for q in [*range(1, 200), 997, 1000, 3000]:
        direct_full, arith_full = _ramanujan_rows_full(q)
        for ks in ([0], [q - 1], [7, 7, -7], rng.integers(-10**9, 10**9, 5), np.arange(-q - 3, q + 4)):
            ks = np.asarray(ks, dtype=np.int64)
            direct, arith = _ramanujan_rows(q, ks)
            assert direct.tobytes() == direct_full[ks % q].tobytes(), (q, ks)
            assert np.array_equal(arith, arith_full[ks % q]), (q, ks)


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


def _level_count(N, Q, D):
    """The count and report of one D."""
    return divisor_level_counts(N, Q, [D])[0]


def test_divisor_level_counts():
    count, rep = _level_count(10**4, 16, 1.0)
    manual = sum(1 for k in range(1, 10**4 + 1) if truncated_divisor_count(k, 16) > 1)
    assert count == manual
    assert rep.values["ratio"] == count * 1.0 / (16**0.5 * 10**4)
    assert _level_count(10**4, 16, 16.0)[0] == 0  # D >= Q kills everything
    prev = None
    for D in (1, 2, 4, 8):
        c, _ = _level_count(5000, 8, float(D))
        if prev is not None:
            assert c <= prev
        prev = c


def _reference_sieve(limit, Q):
    """d(k, Q) for 0 <= k <= limit in int64, the sieve before its counts were narrowed."""
    counts = np.zeros(limit + 1, dtype=np.int64)
    for q in range(1, min(Q, limit) + 1):
        counts[q::q] += 1
    return counts


@pytest.mark.parametrize("limit, Q, dtype", [(1000, 1, np.uint8), (1000, 255, np.uint8), (1000, 256, np.uint16),
                                             (200, 256, np.uint8), (255, 10**6, np.uint8), (256, 10**6, np.uint16)])
def test_sieve_takes_the_narrowest_dtype_that_holds_min_q_limit(limit, Q, dtype):
    # min(Q, limit) bounds every count; it crosses the uint8 edge at 256
    sieve = truncated_divisor_sieve(limit, Q)
    assert sieve.dtype == dtype
    assert (sieve == _reference_sieve(limit, Q)).all()


@pytest.mark.parametrize("N", [2**16 - 1, 2**16, 2**16 + 1, 3 * 2**16 + 5])
def test_level_histogram_across_block_edges(N):
    # the histogram is added up over blocks of 2^16 cells; the counts read its suffix sums
    hist = np.bincount(_reference_sieve(N, 16)[1:])
    Ds = [0.5 + v for v in range(len(hist) + 1)]
    above = [int(hist[v:].sum()) for v in range(1, len(hist) + 1)] + [0]
    assert [count for count, _ in divisor_level_counts(N, 16, Ds)] == above


def test_level_counts_hold_no_wide_sieve():
    # the int64 sieve alone was 8 MB at N = 10^6; the byte-wide one is 1 MB, plus one block cast to intp
    divisor_level_counts(10**4, 64, [2.0])
    tracemalloc.start()
    try:
        divisor_level_counts(10**6, 64, [2.0, 8.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 10**6, peak


def _edge_ds(Q):
    return [1.0, 2.5] + [D for D in (Q - 1.0, float(Q), Q + 0.5) if D > 0] + [1e150]


@pytest.mark.parametrize("N, Q", [(1, 1), (10, 1), (5000, 8), (20000, 16), (30, 64)])
def test_divisor_level_counts_match_the_sieve_comparison(N, Q):
    sieve = truncated_divisor_sieve(N, Q)
    Ds = _edge_ds(Q)
    results = divisor_level_counts(N, Q, Ds)
    assert len(results) == len(Ds)
    for D, (count, report) in zip(Ds, results):
        assert type(count) is int
        assert count == int(np.count_nonzero(sieve[1:] > D)), D
        assert report.values["count"] == float(count)
        assert report.params == {"N": N, "Q": Q, "D": D, "B": 2.0, "tau": 0.5}
        assert _level_count(N, Q, D) == (count, report)
    assert all(c == 0 for D, (c, _) in zip(Ds, results) if D >= Q)  # d(k, Q) <= Q


def test_divisor_level_counts_keep_every_ratio_bit():
    N, Q, B, tau = 20000, 16, 2.0, 0.5
    sieve = truncated_divisor_sieve(N, Q)
    Ds = _edge_ds(Q)
    for D, (count, report) in zip(Ds, divisor_level_counts(N, Q, Ds)):
        expected = int(np.count_nonzero(sieve[1:] > D)) * D**B / (Q**tau * N)
        assert repr(report.values["ratio"]) == repr(expected), D
    # 1e300 ** 2.0 overflows a float, and an inf or nan D has no ratio
    with pytest.raises(ValueError, match="overflows"):
        divisor_level_counts(N, Q, [2.0, 1e300])
    for bad in ([2.0, math.inf], [math.nan], [math.nan, 4.0]):
        with pytest.raises(ValueError, match="finite D"):
            divisor_level_counts(N, Q, bad)
    for bad in ([2.0, 0.0], [-1.0], [4.0, -math.inf]):
        with pytest.raises(ValueError, match="D > 0"):
            divisor_level_counts(N, Q, bad)


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


def test_paraboloid_divisor_count_holds_one_wide_prefix():
    # v_max = 10^6 + 10^4: the int64 prefix is 8 bytes a residual and the uint8 sieve one; the flags, their
    # cumsum and a concatenated copy held 24 bytes a residual (24.3 MB)
    N, K, Q, D = 100, 10**6, 16, 3.0
    paraboloid_divisor_count(N, 100, Q, D, 2)
    tracemalloc.start()
    try:
        count = paraboloid_divisor_count(N, K, Q, D, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 156435280 and peak <= 10 * (K + N * N + 1), peak


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
    count, report = _level_count(1000, 16, 2.0)
    assert report.values["ratio"] == count * 2.0**2.0 / (16**0.5 * 1000)
    for bad in ((0, 16, 2.0), (1000, 0, 2.0), (1000, 16, 0.0), (1000, 16, -1.0)):
        with pytest.raises(ValueError):
            _level_count(*bad)


def test_ramanujan_table_rejects_empty_arguments():
    table, residual = ramanujan_table(1, np.array([0]))
    assert table.tolist() == [[1]] and residual == 0.0
    for q_max in (0, -3):
        with pytest.raises(ValueError, match="q_max"):
            ramanujan_table(q_max, np.arange(-4, 5))
    with pytest.raises(ValueError, match="k_values"):
        ramanujan_table(8, np.array([], dtype=np.int64))



@pytest.mark.parametrize("bad_q", [1, 5])
def test_ramanujan_table_residual_carries_a_nan(monkeypatch, bad_q):
    # a nan direct sum in any row, first or later, leaves the residual nan, not 0.0
    import paravg.numtheory as nt

    ks = np.arange(-8, 9)
    clean, _ = ramanujan_table(8, ks)
    real = nt._ramanujan_rows

    def patched(q, k_values):
        direct, arith = real(q, k_values)
        if q == bad_q:
            direct = direct.copy()
            direct[2] = math.nan
        return direct, arith

    monkeypatch.setattr(nt, "_ramanujan_rows", patched)
    table, residual = ramanujan_table(8, ks)
    assert math.isnan(residual)
    assert np.array_equal(table, clean)
