"""Divisor statistics and complete exponential (Ramanujan) sums.

Everything here is exact integer arithmetic: divisor counts come from trial
division or sieves, and the complete sums c_q(k) = sum_{a in A_q} e(a k / q)
are integers computed two independent ways (direct complex summation and
the Moebius-divisor formula) that are required to agree.

Conventions
-----------
* d(k, Q) counts divisors <= Q inclusively (the level-set argument sums the
  indicators 1_{q | k} over 1 <= q <= Q, which is the inclusive count).
* k = 0 is rejected by the divisor counters; the truncated count of 0 is
  deliberately excluded from every level-set statistic because the
  mean-zero bumps kill the corresponding frequency.
* A_1 = {0}, so c_1(k) = 1 for every k.

Costs.  A level count #{k <= N : d(k, Q) > D} reads one truncated sieve
(min(Q, N) strided passes over N + 1 int64 cells) through one histogram of
its values, which are at most Q, so every further D costs one lookup in the
histogram's suffix sums: divisor_level_counts serves a whole D sweep from
one sieve.  The Ramanujan table evaluates each q once per residue k mod q.
"""

from __future__ import annotations

import math
import numpy as np

from .arcs import totatives
from .reports import ExperimentReport

__all__ = [
    "divisor_count",
    "truncated_divisor_count",
    "divisor_count_sieve",
    "truncated_divisor_sieve",
    "mobius",
    "ramanujan_sum",
    "ramanujan_sum_direct",
    "ramanujan_table",
    "ramanujan_block_report",
    "divisor_level_count",
    "divisor_level_counts",
    "paraboloid_divisor_count",
    "square_histogram",
]

DEFAULT_SIEVE_CAP = 10**7


def divisor_count(k: int) -> int:
    """Number of positive divisors of |k|, by trial division up to sqrt."""
    if k == 0:
        raise ValueError("divisor count of 0 is undefined here")
    k = abs(int(k))
    count = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            count += 1 if d * d == k else 2
        d += 1
    return count


def truncated_divisor_count(k: int, Q: int) -> int:
    """#{d >= 1 : d | |k|, d <= Q} (inclusive threshold)."""
    if k == 0:
        raise ValueError("truncated divisor count of 0 is excluded")
    if Q < 1:
        raise ValueError("Q must be >= 1")
    k = abs(int(k))
    count = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            if d <= Q:
                count += 1
            e = k // d
            if e != d and e <= Q:
                count += 1
        d += 1
    return count


def divisor_count_sieve(limit: int) -> np.ndarray:
    """d(k) for 0 <= k <= limit (d[0] = 0), via the hyperbola split.

    d(k) = 2 #{q <= sqrt(k) : q | k} - 1_{k square}, so only sqrt(limit)
    sieve passes are needed.
    """
    if limit > DEFAULT_SIEVE_CAP:
        raise ValueError(f"sieve limit {limit} exceeds the cap {DEFAULT_SIEVE_CAP}")
    d = np.zeros(limit + 1, dtype=np.int64)
    root = math.isqrt(limit)
    for q in range(1, root + 1):
        d[q * q :: q] += 2
    squares = np.arange(1, root + 1) ** 2
    d[squares] -= 1
    return d


def truncated_divisor_sieve(limit: int, Q: int) -> np.ndarray:
    """d(k, Q) for 0 <= k <= limit (entry 0 unused)."""
    if limit > DEFAULT_SIEVE_CAP:
        raise ValueError(f"sieve limit {limit} exceeds the cap {DEFAULT_SIEVE_CAP}")
    counts = np.zeros(limit + 1, dtype=np.int64)
    for q in range(1, min(Q, limit) + 1):
        counts[q::q] += 1
    return counts


def mobius(q: int) -> int:
    if q < 1:
        raise ValueError("q must be positive")
    mu, p, n = 1, 2, q
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    if n > 1:
        mu = -mu
    return mu


def ramanujan_sum_direct(q: int, k: int) -> complex:
    """sum_{a in A_q} e(a k / q) by direct complex summation."""
    acc = 0j
    for a in totatives(q):
        acc += complex(math.cos(2 * math.pi * ((a * k) % q) / q),
                       math.sin(2 * math.pi * ((a * k) % q) / q))
    return acc


def _ramanujan_arith(q: int, k: int) -> int:
    """Moebius form: sum over d | gcd(q, k) of mu(q/d) d; gcd(q, 0) = q."""
    g = math.gcd(q, abs(k))
    total = 0
    d = 1
    while d * d <= g:
        if g % d == 0:
            total += mobius(q // d) * d
            e = g // d
            if e != d:
                total += mobius(q // e) * e
        d += 1
    return total


def ramanujan_sum(q: int, k: int) -> int:
    """c_q(k), computed by the Moebius formula and checked against the
    direct summation (rounding residual must be <= 1e-9)."""
    if q < 1:
        raise ValueError("q must be positive")
    if q == 1:
        return 1
    exact = _ramanujan_arith(q, k)
    direct = ramanujan_sum_direct(q, k)
    if abs(direct - exact) > 1e-9:
        raise AssertionError(
            f"c_{q}({k}): direct {direct} vs arithmetic {exact} disagree"
        )
    return exact


def _ramanujan_rows(q: int, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c_q(k) over the int64 array ks, as (direct complex sums, Moebius integers).

    Both depend on k only through k mod q (the phases ((a k) mod q)/q, and
    gcd(q, k)), so each is evaluated once per residue and gathered by ks % q.
    """
    tots = np.array(totatives(q), dtype=np.int64)
    residues = np.arange(q, dtype=np.int64)
    phases = ((tots[:, None] * residues[None, :]) % q) / q
    by_gcd = np.zeros(q + 1, dtype=np.int64)
    for g in range(1, q + 1):
        if q % g == 0:
            by_gcd[g] = _ramanujan_arith(q, g)
    idx = ks % q
    return np.exp(2j * np.pi * phases).sum(axis=0)[idx], by_gcd[np.gcd(q, residues)][idx]


def ramanujan_table(q_max: int, k_values: np.ndarray) -> np.ndarray:
    """c_q(k) for all 1 <= q <= q_max and the given k array, both ways.

    Row q-1 holds the integer values from the Moebius formula; the direct
    complex summation must round to the same integers with residual <= 1e-9
    at every (q, k), else this raises.
    """
    ks = np.asarray(k_values, dtype=np.int64)
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1 (got {q_max})")
    if ks.ndim != 1 or len(ks) == 0:
        raise ValueError("k_values must be a nonempty 1-D array")
    out = np.empty((q_max, len(ks)), dtype=np.int64)
    for q in range(1, q_max + 1):
        direct, arith = _ramanujan_rows(q, ks)
        if np.max(np.abs(direct - arith)) > 1e-9:
            raise AssertionError(f"direct and arithmetic c_q disagree at q={q}")
        out[q - 1] = arith
    return out


def ramanujan_block_report(Q: int, k: int, eps: float) -> ExperimentReport:
    """Ratio of sum_{Q/2 <= q <= Q} |c_q(k)| to Q^(1+eps) d(k, Q).

    The closed range ceil(Q/2)..Q is the literal block of the bound being
    probed (so Q = 1 means just q = 1); the recorded max ratio over a sweep
    is the empirical constant.
    """
    if Q < 1 or k == 0:
        raise ValueError("need Q >= 1 and k != 0")
    numerator = sum(
        abs(_ramanujan_arith(q, k)) for q in range(max(1, (Q + 1) // 2), Q + 1)
    )
    denominator = Q ** (1.0 + eps) * truncated_divisor_count(k, Q)
    ratio = numerator / denominator
    return ExperimentReport(
        name="ramanujan_block",
        params={"Q": Q, "k": k, "eps": eps},
        constant=ratio,
        values={"numerator": float(numerator), "denominator": denominator},
    )


def divisor_level_counts(
    N: int, Q: int, Ds, B: float | None = None, tau: float | None = None
) -> list[tuple[int, ExperimentReport]]:
    """Exact #{1 <= k <= N : d(k, Q) > D} for every D in Ds, each with its normalized-ratio report.

    One truncated sieve and one np.bincount histogram of its values serve
    every D: the level is the suffix sum of the histogram from the first
    value v > D, found by searchsorted over the values 0..max, so a D past
    every value (D >= Q, inf) or a nan D reads the empty suffix 0, as the
    comparison sieve > D does.  Each report carries count * D^B / (Q^tau N)
    for caller-supplied positive (B, tau); monotonicity in D and the D >= Q
    vanishing are structural and tested.  A ratio needs a finite D (an inf
    D would read 0 inf = nan) and float-sized D^B and Q^tau: anything else
    raises ValueError, the CLI's bad-parameter status.
    """
    if N < 1 or Q < 1 or any(D <= 0 for D in Ds):
        raise ValueError("need N, Q >= 1 and D > 0")
    if (B is not None and B <= 0) or (tau is not None and tau <= 0):
        raise ValueError(f"need B > 0 and tau > 0 (got B={B}, tau={tau})")
    ratios = B is not None and tau is not None
    if ratios and not all(math.isfinite(D) for D in Ds):
        raise ValueError(f"need a finite D for the ratio (got {[D for D in Ds if not math.isfinite(D)]})")
    hist = np.bincount(truncated_divisor_sieve(N, Q)[1:])
    above = np.append(np.cumsum(hist[::-1])[::-1], 0)  # above[v] = #{k : d(k, Q) >= v}
    firsts = np.searchsorted(np.arange(len(hist)), np.asarray(Ds, dtype=float), side="right")
    out = []
    for D, first in zip(Ds, firsts.tolist()):
        level = int(above[first])
        values = {"count": float(level)}
        if ratios:
            try:
                values["ratio"] = level * D**B / (Q**tau * N)
            except OverflowError:
                raise ValueError(f"the ratio overflows a float at D={D}, B={B}, Q={Q}, tau={tau}") from None
        report = ExperimentReport(
            name="divisor_level_count",
            params={"N": N, "Q": Q, "D": D, "B": B, "tau": tau},
            values=values,
        )
        out.append((level, report))
    return out


def divisor_level_count(
    N: int, Q: int, D: float, B: float | None = None, tau: float | None = None
) -> tuple[int, ExperimentReport]:
    """Exact #{1 <= k <= N : d(k, Q) > D} with its report: the one-D call of divisor_level_counts."""
    return divisor_level_counts(N, Q, [D], B, tau)[0]


def square_histogram(N: int, folds: int) -> np.ndarray:
    """hist[s] = #{r in [-N, N]^folds : r_1^2 + ... + r_folds^2 = s}."""
    base = np.bincount(np.arange(-N, N + 1) ** 2)
    hist = base
    for _ in range(folds - 1):
        hist = np.convolve(hist, base)
    return hist


def paraboloid_divisor_count(N: int, K: int, Q: int, D: float, n: int) -> int:
    """Exact count of (r', r_n), |r_i| <= N, |r_n| <= K, with
    d(r_n - |r'|^2, Q) > D over the nonzero residuals.

    Iterates over the value s = |r'|^2 weighted by its representation count,
    which turns the (2N+1)^(n-1) (2K+1) grid into a 1-D prefix-sum scan.
    """
    if n < 2:
        raise ValueError("need ambient dimension n >= 2")
    if (2 * N + 1) ** (n - 1) * max(K, N * N) > 10**9:
        raise ValueError("desk-scale budget exceeded")
    hist = square_histogram(N, n - 1)
    s_max = len(hist) - 1
    v_max = K + s_max
    flags = (truncated_divisor_sieve(v_max, Q) > D).astype(np.int64)
    prefix = np.concatenate([[0], np.cumsum(flags[1:])])  # prefix[x] = #{1<=v<=x}

    def P(x: int) -> int:
        return int(prefix[min(max(x, 0), v_max)])

    total = 0
    for s in range(s_max + 1):
        reps = int(hist[s])
        if reps == 0:
            continue
        total += reps * (P(K - s) + P(K + s) - P(s - K - 1))
    return total
