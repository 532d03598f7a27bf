"""Farey fractions, major arcs, bump ladders, and multiplier pieces.

The frequency torus is dissected around reduced fractions a/q.  Each
fraction carries a ladder of dyadically scaled bumps that partitions unity
on its arc, and each ladder level is made mean-zero by subtracting a copy
translated 3/(Nq) to the right.  Multiplier pieces are the kernel
multiplier m(xi) localized by these ladder levels; summing every piece over
all fractions with q <= N/10 gives the arc-localized part of m, and the
remainder is the minor-arc part.

Major arcs.  The arc of a/q at scale N has radius 1/(qN); ArcSystem holds
one ladder per fraction with q <= q_limit (N/10 by default), and is the
only arc set.  Its arcs_4i_disjoint and clusters_disjoint sweep the 4I
arcs a/q -+ 4/(qN) and the ladders' support clusters for pairwise
disjointness on the torus.

Bump construction.  psi is the convolution of the indicator of
[-3/2, 3/2] with the m-fold autoconvolution of m * 1_{[-1/(2m), 1/(2m)]}
(a centered unit-mass B-spline), so

    1_(-1,1) <= psi <= 1_(-2,2),   psi in C^(m-1),
    psi_hat(u) = (sin(3 pi u) / (pi u)) * (sin(pi u / m) / (pi u / m))^m

with decay (1+|u|)^(-(m+1)).  A spline (rather than a C-infinity mollifier)
keeps psi_hat in closed form, which the coefficient identities need.  The
order is fixed at m = SPLINE_ORDER = 8: any fixed smoothness serves the
estimate, and the coefficient reports' truncation argument is recorded for
decay order m+1 = 9.

Ladder scales.  For a fraction a/q at scale N the ladder uses

    S_l = 2^l N q  for l = 0..L,  S_(L+1) = N^2,
    L = max{l >= 0 : 2^l q < N},

and pieces p_l(u) = psi(S_l u) - psi(S_(l+1) u) plus the core psi(N^2 u).
The pieces telescope to psi(N q u) exactly, hence sum to 1 for
|u| <= 1/(Nq) to machine precision for every (q, N); a plain dyadic stack
closes exactly only when N/q is a power of two.

One ladder sum.  ArcSystem.terms maps a PieceSpec to the ladder level it
reads and the ladders it sums: a core piece takes "core" on its whole
block, a dyadic piece (Q, l) takes l on the block's ladders that carry l,
and maj/min take the telescoped level "total", psi(N q u), on every ladder.
piece_weight sums eta and piece_hat sums eta_hat over them, so every piece
weight, the arc weight W(t) and every piece or maj coefficient is one sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoff import OperatorParams
from .expsums import _torus_signed, e1, multiplier

__all__ = [
    "SPLINE_ORDER",
    "totatives",
    "FareyFraction",
    "bump_psi",
    "bump_psi_hat",
    "BumpLadder",
    "PieceSpec",
    "dyadic_block",
    "ArcSystem",
    "arc_system",
    "piece_system",
    "piece_multipliers",
]

SPLINE_ORDER = 8  # psi in C^7, psi_hat decaying like (1+|u|)^-9


def totatives(q: int) -> list[int]:
    """A_q = {1 <= a <= q-1 : gcd(a, q) = 1}; by convention A_1 = {0}.

    The q = 1 convention gives the fraction 0/1 so the arc at the origin
    exists (rational approximation of xi_n near 0 lands there) and the
    q = 1 complete exponential sum equals 1.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    if q == 1:
        return [0]
    return [a for a in range(1, q) if math.gcd(a, q) == 1]


@dataclass(frozen=True)
class FareyFraction:
    a: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be positive")
        if self.q == 1:
            if self.a != 0:
                raise ValueError("the q = 1 fraction is 0/1")
        elif not (1 <= self.a < self.q and math.gcd(self.a, self.q) == 1):
            raise ValueError(f"{self.a}/{self.q} is not a reduced fraction in (0, 1)")

    @property
    def center(self) -> float:
        return self.a / self.q


def _intervals_disjoint_mod1(intervals: list[tuple[float, float]]) -> bool:
    """Pairwise disjointness of closed [lo, hi] intervals (lo <= hi) on the torus.

    Each pair i < j is compared through the representative shifts -1, 0, +1
    of j: [lo_i, hi_i] against [lo_j + s, hi_j + s], touching ends counting
    as overlap.  A sorted sweep makes exactly these comparisons.  Sorted by
    lo, the unshifted intervals are disjoint iff each lo exceeds the hi
    before it, and then their hi ascend too, so the ones a shifted interval
    meets are one contiguous run, found by two binary searches; only a run
    that is not empty is scanned for an index i < j.
    """
    lo, hi = np.array(intervals, dtype=float).reshape(-1, 2).T
    order = np.argsort(lo, kind="stable")
    lo_s, hi_s = lo[order], hi[order]
    if np.any(lo_s[1:] <= hi_s[:-1]):
        return False
    for s in (-1.0, 1.0):
        first = np.searchsorted(hi_s, lo + s, side="left")  # first i with lo_j + s <= hi_i
        last = np.searchsorted(lo_s, hi + s, side="right")  # past the last i with lo_i <= hi_j + s
        for j in np.flatnonzero(first < last).tolist():
            if order[first[j] : last[j]].min() < j:
                return False
    return True


# -- the mother bump ------------------------------------------------------------


@lru_cache(maxsize=None)
def _irwin_hall_coeffs(m: int) -> tuple[tuple[float, ...], float]:
    signs = tuple((-1.0) ** k * math.comb(m, k) for k in range(m + 1))
    return signs, float(math.factorial(m))


def _ipow(base, m: int):
    """base^m by square-and-multiply, LSB first.

    Vectorized SIMD pow differs from scalar libm pow by ulps.  The bump
    values, and every recorded output built on them, were first computed
    with these products, so keeping them keeps those outputs bit-identical.
    """
    acc = None
    sq = base
    e = m
    while e:
        if e & 1:
            acc = sq if acc is None else acc * sq
        e >>= 1
        if e:
            sq = sq * sq
    return acc


def _irwin_hall_cdf(x: np.ndarray, m: int) -> np.ndarray:
    """CDF of a sum of m iid uniform [0,1] variables, vectorized."""
    signs, fact = _irwin_hall_coeffs(m)
    x = np.clip(x, 0.0, float(m))
    acc = np.zeros_like(x)
    for k, s in enumerate(signs):
        acc += s * _ipow(np.clip(x - k, 0.0, None), m)
    return acc / fact


def bump_psi(t):
    """The plateau bump: 1 on [-1, 1], 0 outside [-2, 2], C^(m-1) between (m = SPLINE_ORDER).

    The alternating spline sum can stray ~1e-14 outside [0, 1]; clipping
    restores the sandwich exactly and cannot hurt the telescoping identities
    (equal arguments still give equal values).  nan gives nan, so a piece
    weight at nan is nan; +-inf gives 0.
    """
    m = SPLINE_ORDER
    a = np.abs(np.asarray(t, dtype=float))
    out = np.where(a <= 1.0, 1.0, np.where(np.isnan(a), np.nan, 0.0))
    ramp = (a > 1.0) & (a < 2.0)  # elsewhere the spline sum is exactly 1 or exactly 0
    if ramp.any():
        out[ramp] = np.clip(1.0 - _irwin_hall_cdf(m * (a[ramp] - 1.0), m), 0.0, 1.0)
    return out if out.ndim else float(out)


def bump_psi_hat(u):
    """psi_hat(u) = 3 sinc(3u) sinc(u/m)^m (m = SPLINE_ORDER) under g_hat(u) = int g(x) e(ux) dx."""
    m = SPLINE_ORDER
    u = np.asarray(u, dtype=float)
    out = 3.0 * np.sinc(3.0 * u) * np.sinc(u / m) ** m
    return out if out.ndim else float(out)


# -- bump ladders ----------------------------------------------------------------


def _level_etas(scales: list[int], shift: float, centers, xi) -> np.ndarray:
    """Every level's mean-zero bump at the centers, as an array (levels, *xi.shape).

    The ladders of one denominator q share their scales and shift, so the
    partition check evaluates all of them at once: centers holds a/q per
    row of xi (a float for one ladder).  Each scale's bump is evaluated
    once on the arc offsets and once on the translated offsets (one
    bump_psi call each over scales x points), and the rows are differenced
    as piece and eta difference them, so entry [i, ...] equals
    eta(levels()[i], xi) at its center bit for bit.
    """
    xi = np.asarray(xi, dtype=float)
    s = np.array(scales, dtype=float).reshape(-1, *(1,) * xi.ndim)
    bu = bump_psi(s * _torus_signed(xi - centers))
    bv = bump_psi(s * _torus_signed(xi - centers - shift))
    pu = np.concatenate([bu[:-1] - bu[1:], bu[-1:]])
    pv = np.concatenate([bv[:-1] - bv[1:], bv[-1:]])
    return pu - pv


class BumpLadder:
    """Per-fraction dyadic bump family with exact telescoping.

    Levels are the integers 0..top_level (dyadic scales S_l = 2^l N q) plus
    "core" (scale N^2); levels() lists these, the partition of the arc.
    The level "total" is their sum, the bump psi(N q u) the ladder
    telescopes to.  The mean-zero bumps subtract the translate by
    shift = 3/(Nq).
    """

    def __init__(self, frac: FareyFraction, N: int):
        if frac.q >= N:
            raise ValueError("ladder needs q < N")
        self.frac = frac
        self.N = N
        self.shift = 3.0 / (N * frac.q)
        scales = []
        l = 0
        while (1 << l) * frac.q < N:
            scales.append((1 << l) * N * frac.q)
            l += 1
        scales.append(N * N)
        self.scales = scales  # S_0 < S_1 < ... < S_(L+1) = N^2

    @property
    def top_level(self) -> int:
        return len(self.scales) - 2

    def levels(self) -> list:
        return list(range(self.top_level + 1)) + ["core"]

    def _level_scales(self, level) -> tuple[int, int | None]:
        """(outer, inner) scales: the level's piece is psi(outer u) - psi(inner u); core and total have no inner."""
        if level == "core":
            return self.scales[-1], None
        if level == "total":
            return self.scales[0], None
        if not (isinstance(level, int) and 0 <= level <= self.top_level):
            raise ValueError(f"level {level!r} not in this ladder (top {self.top_level})")
        return self.scales[level], self.scales[level + 1]

    def piece(self, level, u):
        """Ladder piece p_level(u); the pieces plus the core telescope to psi(Nq u), the total."""
        outer, inner = self._level_scales(level)
        u = np.asarray(u, dtype=float)
        out = bump_psi(outer * u)
        return out if inner is None else out - bump_psi(inner * u)

    def piece_hat(self, level, t):
        outer, inner = self._level_scales(level)
        t = np.asarray(t, dtype=float)
        s0 = float(outer)
        out = bump_psi_hat(t / s0) / s0
        if inner is None:
            return out
        s1 = float(inner)
        return out - bump_psi_hat(t / s1) / s1

    def eta(self, level, xi):
        """Mean-zero bump at this fraction: piece minus its 3/(Nq) translate."""
        c = self.frac.center
        u = _torus_signed(np.asarray(xi, dtype=float) - c)
        v = _torus_signed(np.asarray(xi, dtype=float) - c - self.shift)
        return self.piece(level, u) - self.piece(level, v)

    def eta_hat(self, level, t):
        """Closed-form transform at integer t: piece_hat(t) [e((a/q)t) - e((a/q + 3/(Nq))t)].

        The two phases are reduced as exact rationals in int64 before
        exponentiation, so the value is reliable for |t| far beyond where
        double-precision products of a/q with t lose digits; once
        max(a, 3) |t| >= 2^62 the reduction could wrap, and OverflowError is
        raised instead.  At t = 0 the bracket vanishes identically (the
        mean-zero property).
        """
        a, q, N = self.frac.a, self.frac.q, self.N
        t_arr = np.asarray(t)
        python_ints = t_arr.dtype == object and all(isinstance(v, (int, np.integer)) for v in t_arr.flat)
        if not (python_ints or np.issubdtype(t_arr.dtype, np.integer)):
            raise ValueError("eta_hat takes integer frequencies")
        # bound the exact extremes before the int64 cast, which would wrap a uint64 or Python int
        if t_arr.size and max(a, 3) * max(abs(int(t_arr.min())), abs(int(t_arr.max()))) >= 2**62:
            raise OverflowError("integer frequency too large for exact phases")
        ti = t_arr.astype(np.int64)
        r1 = ((a * ti) % q) / q
        r2 = ((3 * ti) % (N * q)) / (N * q)
        out = self.piece_hat(level, ti) * (e1(r1) - e1(r1 + r2))
        return out if np.ndim(out) else complex(out)

    def cluster(self) -> tuple[float, float]:
        """Interval containing the supports of every eta of this ladder.

        Main bumps live within 2/(Nq) of a/q, translates within 2/(Nq) of
        a/q + 3/(Nq); union contained in [c - 2/(Nq), c + 5/(Nq)].
        """
        c = self.frac.center
        w = 1.0 / (self.N * self.frac.q)
        return (c - 2.0 * w, c + 5.0 * w)


# -- piece specifications ---------------------------------------------------------


@dataclass(frozen=True)
class PieceSpec:
    """Identifies one multiplier piece.

    kind "dyadic" needs (Q, l); "core" needs Q; "whole", "maj", "min" stand
    alone.  Q is a dyadic block label: the block at Q covers denominators
    Q/2 < q <= Q (just {1} for Q = 1), a partition of the q range.
    """

    kind: str
    Q: int | None = None
    level: int | None = None

    def __post_init__(self):
        if self.kind not in ("dyadic", "core", "maj", "min", "whole"):
            raise ValueError(f"unknown piece kind {self.kind!r}")
        if self.kind in ("dyadic", "core"):
            if self.Q is None or self.Q < 1 or (self.Q & (self.Q - 1)) != 0:
                raise ValueError("Q must be a dyadic integer >= 1")
        if self.kind == "dyadic" and (self.level is None or self.level < 0):
            raise ValueError("dyadic pieces need a level l >= 0")


def dyadic_block(Q: int) -> list[int]:
    """Denominators of the block at dyadic Q: (Q/2, Q], i.e. {1} for Q = 1."""
    if Q < 1 or (Q & (Q - 1)) != 0:
        raise ValueError("Q must be a dyadic integer >= 1")
    return [1] if Q == 1 else list(range(Q // 2 + 1, Q + 1))


# -- the assembled arc system ------------------------------------------------------


class ArcSystem:
    """All ladders at scale N, with piece and major/minor weight evaluation.

    q_limit defaults to floor(N/10) (the arc range of the decomposition);
    every q <= q_limit belongs to exactly one dyadic block, the top block
    being truncated at q_limit so no arc is left uncovered.
    """

    def __init__(self, N: int, q_limit: int | None = None):
        if q_limit is None:
            q_limit = N // 10
        if q_limit < 1:
            raise ValueError("arc system needs q_limit >= 1 (N >= 10 for the default)")
        if q_limit >= N:
            raise ValueError("q_limit must be < N")
        self.N = N
        self.q_limit = q_limit
        self.ladders: dict[tuple[int, int], BumpLadder] = {}
        for q in range(1, q_limit + 1):
            for a in totatives(q):
                self.ladders[(q, a)] = BumpLadder(FareyFraction(a, q), N)

    def terms(self, spec: PieceSpec) -> tuple[int | str, list[BumpLadder]]:
        """The ladder level a piece reads and the ladders it sums.

        core: "core" on every ladder of its block; dyadic (Q, l): l on the
        block's ladders that carry it; maj and min: "total" on every ladder,
        so their weight is W(t), the whole arc weight.  A block with no
        denominator q <= q_limit, or no ladder at the dyadic level, is a
        ValueError.
        """
        if spec.kind in ("maj", "min"):
            return "total", list(self.ladders.values())
        if spec.kind == "whole":
            raise ValueError("the whole multiplier has no ladder weight")
        qs = [q for q in dyadic_block(spec.Q) if q <= self.q_limit]
        ladders = [self.ladders[(q, a)] for q in qs for a in totatives(q)]
        if not ladders:
            raise ValueError(f"block Q={spec.Q} has no denominator q <= q_limit = {self.q_limit} at N={self.N}")
        if spec.kind == "core":
            return "core", ladders
        ladders = [lad for lad in ladders if spec.level <= lad.top_level]
        if not ladders:
            raise ValueError(f"no ladder in block Q={spec.Q} has dyadic level {spec.level}")
        return spec.level, ladders

    def piece_weight(self, spec: PieceSpec, t):
        """Sum of eta(level, t) over the spec's ladders; W(t) for maj and min.

        Each ladder is evaluated only at the points of its cluster() widened
        by w = 1/(Nq) on each side (mod 1), found by one batched searchsorted
        of the sorted t mod 1, and its values are added in ladder order, as
        a sum over every ladder adds them.  The result keeps that sum's bits:
        for |t| < 2 the arguments of eta carry a few ulps of 1 of rounding,
        far below w (>= 1/N^2), so eta is exactly +0.0 outside the widened
        cluster, and the sum, started at +0.0, is never -0.0, so adding +0.0
        leaves it as it is.  Points with |t| >= 2 or not finite go through
        every ladder, so they keep those bits too.
        """
        t = np.asarray(t, dtype=float)
        level, ladders = self.terms(spec)
        flat = t.ravel()
        acc = np.zeros(flat.shape)
        screened = np.abs(flat) < 2.0
        near, rest = np.flatnonzero(screened), np.flatnonzero(~screened)
        r = flat[near] % 1.0
        order = np.argsort(r, kind="stable")
        r, near = r[order], near[order]
        w = 1.0 / (self.N * np.array([lad.frac.q for lad in ladders]))
        lo, hi = (np.array([lad.cluster() for lad in ladders]) + np.stack([-w, w], axis=1)).T
        shifts = np.array([-1.0, 0.0, 1.0])  # a cluster may wrap past 0 or 1
        first = np.searchsorted(r, lo[:, None] + shifts, side="left")
        last = np.searchsorted(r, hi[:, None] + shifts, side="right")
        for i, lad in enumerate(ladders):
            if hi[i] - lo[i] >= 1.0:
                idx = near  # the widened cluster covers the torus
            else:
                idx = np.concatenate([near[a:b] for a, b in zip(first[i].tolist(), last[i].tolist())])
            idx = np.concatenate([idx, rest])
            if len(idx):
                acc[idx] = acc[idx] + lad.eta(level, flat[idx])
        acc = acc.reshape(t.shape)
        return acc if np.ndim(acc) else float(acc)

    def piece_hat(self, spec: PieceSpec, t):
        """Sum of eta_hat(level, t) over the spec's ladders, at integer t."""
        t = np.asarray(t)
        level, ladders = self.terms(spec)
        acc = np.zeros(t.shape, dtype=complex)
        for lad in ladders:
            acc = acc + lad.eta_hat(level, t)
        return acc if np.ndim(acc) else complex(acc)

    def denominator_etas(self, q: int, xi) -> np.ndarray:
        """eta(level, xi) of every ladder with denominator q at every level, from one bump_psi pair.

        xi is a (phi(q), m) array whose row j is read by the ladder of the
        j-th numerator in totatives(q); entry [i, j] equals that ladder's
        eta(levels()[i], xi[j]) bit for bit.
        """
        ladders = [self.ladders[(q, a)] for a in totatives(q)]
        centers = np.array([lad.frac.center for lad in ladders])[:, None]
        return _level_etas(ladders[0].scales, ladders[0].shift, centers, xi)

    def clusters(self) -> list[tuple[float, float]]:
        return [lad.cluster() for lad in self.ladders.values()]

    def clusters_disjoint(self) -> bool:
        """Interval-arithmetic check that per-fraction support clusters are disjoint."""
        return _intervals_disjoint_mod1(self.clusters())

    def arcs_4i_disjoint(self) -> bool:
        """Pairwise disjointness on the torus of the 4I arcs a/q -+ 4/(qN), in ladder order."""
        arcs = [(lad.frac.center, 4.0 / (lad.frac.q * self.N)) for lad in self.ladders.values()]
        return _intervals_disjoint_mod1([(c - r, c + r) for c, r in arcs])


def arc_system(N: int, q_limit: int | None = None) -> ArcSystem:
    """The cached ArcSystem(N, q_limit); an omitted q_limit is floor(N/10) before the cache."""
    return _arc_system(N, N // 10 if q_limit is None else q_limit)


@lru_cache(maxsize=32)
def _arc_system(N: int, q_limit: int) -> ArcSystem:
    return ArcSystem(N, q_limit)


def piece_system(spec: PieceSpec, params: OperatorParams) -> ArcSystem:
    """The arc system a piece is evaluated in.

    maj and min read the arc family q <= floor(N/10).  A standalone
    dyadic/core piece's q range reaches the spec's block even past
    floor(N/10) (capped at N - 1): the coefficient and decay identities are
    integrals and do not need the arcs to be disjoint.
    """
    if spec.Q is None:
        return arc_system(params.N)
    return arc_system(params.N, min(max(spec.Q, params.N // 10), params.N - 1))


def piece_multipliers(specs: list[PieceSpec], xi, params: OperatorParams) -> list:
    """Evaluate pieces of the multiplier at each row of an (m, n) array, or at one torus point.

    whole = m(xi); maj = m(xi) W(xi_n); min = whole - maj.  Dyadic and core
    pieces localize m by their block's mean-zero bumps, in the system
    piece_system gives them.  maj/min require N >= 10 so the arc family
    exists.  m comes from one batched multiplier call over the rows, and
    each distinct ArcSystem.terms weight from one piece_weight call on the
    array of xi_n, so maj and min share W.  Returns one array per spec (one
    complex per spec for a point); each equals the spec's own evaluation.
    """
    rows = np.atleast_2d(np.asarray(xi, dtype=float))
    whole = multiplier(rows, params)
    weights = {}
    out = []
    for spec in specs:
        if spec.kind == "whole":
            out.append(whole)
            continue
        system = piece_system(spec, params)
        level, ladders = system.terms(spec)
        key = (level, tuple(ladders))
        if key not in weights:
            weights[key] = system.piece_weight(spec, rows[:, -1])
        w = weights[key]
        out.append(whole - whole * w if spec.kind == "min" else whole * w)
    return out if np.ndim(xi) == 2 else [complex(v[0]) for v in out]
