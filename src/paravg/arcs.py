"""Farey fractions, major arcs, bump ladders, and multiplier pieces.

The frequency torus is dissected around reduced fractions a/q.  Each
fraction carries a ladder of dyadically scaled bumps that partitions unity
on its arc, and each ladder level is made mean-zero by subtracting a copy
translated 3/(Nq) to the right.  Multiplier pieces are the kernel
multiplier m(xi) localized by these ladder levels; summing every piece over
all fractions with q <= N/10 gives the arc-localized part of m, and the
remainder is the minor-arc part.

Bump construction.  psi is the convolution of the indicator of
[-3/2, 3/2] with the m-fold autoconvolution of m * 1_{[-1/(2m), 1/(2m)]}
(a centered unit-mass B-spline), so

    1_(-1,1) <= psi <= 1_(-2,2),   psi in C^(m-1),
    psi_hat(u) = (sin(3 pi u) / (pi u)) * (sin(pi u / m) / (pi u / m))^m

with decay (1+|u|)^(-(m+1)).  A spline (rather than a C-infinity mollifier)
keeps psi_hat in closed form, which the coefficient identities need.

Ladder scales.  For a fraction a/q at scale N the ladder uses

    S_l = 2^l N q  for l = 0..L,  S_(L+1) = N^2,
    L = max{l >= 0 : 2^l q < N},

and pieces p_l(u) = psi(S_l u) - psi(S_(l+1) u) plus the core psi(N^2 u).
The pieces telescope to psi(N q u) exactly, hence sum to 1 for
|u| <= 1/(Nq) to machine precision for every (q, N); a plain dyadic stack
closes exactly only when N/q is a power of two.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cutoff import OperatorParams
from .expsums import _torus_signed, e1, multiplier

__all__ = [
    "totatives",
    "FareyFraction",
    "MajorArc",
    "arcs_4i_disjoint",
    "major_arcs",
    "bump_psi",
    "bump_psi_hat",
    "BumpLadder",
    "PieceSpec",
    "dyadic_block",
    "ArcSystem",
    "arc_system",
    "piece_system",
    "piece_multiplier",
    "write_arc_table",
]

DEFAULT_SPLINE_ORDER = 8


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


@dataclass(frozen=True)
class MajorArc:
    """The interval of radius 1/(qN) around a/q, with its 4x enlargement."""

    frac: FareyFraction
    N: int

    @property
    def center(self) -> float:
        return self.frac.center

    @property
    def radius(self) -> float:
        return 1.0 / (self.frac.q * self.N)

    @property
    def radius4(self) -> float:
        return 4.0 / (self.frac.q * self.N)


def _intervals_disjoint_mod1(intervals: list[tuple[float, float]]) -> bool:
    """Pairwise disjointness of [lo, hi] intervals on the torus.

    Each interval is short (length < 1/2); compare every pair through the
    representative shifts -1, 0, +1.
    """
    for i in range(len(intervals)):
        lo1, hi1 = intervals[i]
        for j in range(i + 1, len(intervals)):
            lo2, hi2 = intervals[j]
            for s in (-1.0, 0.0, 1.0):
                if lo1 <= hi2 + s and lo2 + s <= hi1:
                    return False
    return True


def arcs_4i_disjoint(arcs: list[MajorArc]) -> bool:
    """Pairwise disjointness of the arcs' 4I intervals on the torus."""
    return _intervals_disjoint_mod1(
        [(arc.center - arc.radius4, arc.center + arc.radius4) for arc in arcs]
    )


def major_arcs(N: int) -> list[MajorArc]:
    """All arcs with q <= N/10; verifies the 4I intervals are disjoint."""
    if N < 10:
        raise ValueError("major arcs need N >= 10")
    arcs = [
        MajorArc(FareyFraction(a, q), N)
        for q in range(1, N // 10 + 1)
        for a in totatives(q)
    ]
    if not arcs_4i_disjoint(arcs):
        raise AssertionError("4I arcs are not pairwise disjoint")
    return arcs


# -- the mother bump ------------------------------------------------------------


@lru_cache(maxsize=None)
def _irwin_hall_coeffs(m: int) -> tuple[tuple[float, ...], float]:
    signs = tuple((-1.0) ** k * math.comb(m, k) for k in range(m + 1))
    return signs, float(math.factorial(m))


def _ipow(base, m: int):
    """base^m by square-and-multiply, LSB first.

    Works identically on python floats and numpy arrays; pow routines do
    not (vectorized SIMD pow differs from scalar libm pow by ulps), and the
    scalar and vectorized bump evaluations below must agree bit for bit.
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


def _bump_psi_scalar(t: float, m: int) -> float:
    # scalar fast path: the vectorized route costs ~50x more on 0-d input,
    # and the arc weight sums evaluate psi pointwise in hot loops
    t = abs(t)
    if t <= 1.0:
        return 1.0
    if t >= 2.0:
        return 0.0
    signs, fact = _irwin_hall_coeffs(m)
    x = m * (t - 1.0)
    acc = 0.0
    for k, s in enumerate(signs):
        if x <= k:
            break
        acc += s * _ipow(x - k, m)
    return min(1.0, max(0.0, 1.0 - acc / fact))


def bump_psi(t, m: int = DEFAULT_SPLINE_ORDER):
    """The plateau bump: 1 on [-1, 1], 0 outside [-2, 2], C^(m-1) between.

    The alternating spline sum can stray ~1e-14 outside [0, 1]; clipping
    restores the sandwich exactly and cannot hurt the telescoping identities
    (equal arguments still give equal values).
    """
    if m < 4:
        raise ValueError("spline order must be >= 4")
    if np.ndim(t) == 0:
        return _bump_psi_scalar(float(t), m)
    out = np.clip(1.0 - _irwin_hall_cdf(m * (np.abs(np.asarray(t, dtype=float)) - 1.0), m), 0.0, 1.0)
    return out


def bump_psi_hat(u, m: int = DEFAULT_SPLINE_ORDER):
    """psi_hat(u) = 3 sinc(3u) sinc(u/m)^m under g_hat(u) = int g(x) e(ux) dx."""
    if m < 4:
        raise ValueError("spline order must be >= 4")
    u = np.asarray(u, dtype=float)
    out = 3.0 * np.sinc(3.0 * u) * np.sinc(u / m) ** m
    return out if out.ndim else float(out)


# -- bump ladders ----------------------------------------------------------------


class BumpLadder:
    """Per-fraction dyadic bump family with exact telescoping.

    Levels are the integers 0..top_level (dyadic scales S_l = 2^l N q) plus
    "core" (scale N^2).  The mean-zero bumps subtract the translate by
    shift = 3/(Nq).
    """

    def __init__(self, frac: FareyFraction, N: int, order: int = DEFAULT_SPLINE_ORDER):
        if frac.q >= N:
            raise ValueError("ladder needs q < N")
        if order < 4:
            raise ValueError("spline order must be >= 4")
        self.frac = frac
        self.N = N
        self.order = order
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

    def _check_level(self, level):
        if level == "core":
            return
        if not (isinstance(level, int) and 0 <= level <= self.top_level):
            raise ValueError(f"level {level!r} not in this ladder (top {self.top_level})")

    def piece(self, level, u):
        """Ladder piece p_level(u); the pieces plus the core telescope to psi(Nq u)."""
        self._check_level(level)
        u = np.asarray(u, dtype=float)
        if level == "core":
            return bump_psi(self.N * self.N * u, self.order)
        return bump_psi(self.scales[level] * u, self.order) - bump_psi(
            self.scales[level + 1] * u, self.order
        )

    def piece_hat(self, level, t):
        self._check_level(level)
        t = np.asarray(t, dtype=float)
        if level == "core":
            s = float(self.N * self.N)
            return bump_psi_hat(t / s, self.order) / s
        s0 = float(self.scales[level])
        s1 = float(self.scales[level + 1])
        return bump_psi_hat(t / s0, self.order) / s0 - bump_psi_hat(t / s1, self.order) / s1

    def eta(self, level, xi):
        """Mean-zero bump at this fraction: piece minus its 3/(Nq) translate."""
        c = self.frac.center
        u = _torus_signed(np.asarray(xi, dtype=float) - c)
        v = _torus_signed(np.asarray(xi, dtype=float) - c - self.shift)
        return self.piece(level, u) - self.piece(level, v)

    def level_etas(self, xi) -> np.ndarray:
        """eta(level, xi) for every level, in levels() order, as the rows of one array.

        Each scale's bump is evaluated once on the arc offsets and once on
        the translated offsets (one bump_psi call each over scales x points),
        and the rows are differenced as piece and eta difference them, so
        row i equals eta(levels()[i], xi) bit for bit.
        """
        xi = np.asarray(xi, dtype=float)
        c = self.frac.center
        scales = np.array(self.scales, dtype=float)[:, None]
        bu = bump_psi(scales * _torus_signed(xi - c), self.order)
        bv = bump_psi(scales * _torus_signed(xi - c - self.shift), self.order)
        pu = np.concatenate([bu[:-1] - bu[1:], bu[-1:]])
        pv = np.concatenate([bv[:-1] - bv[1:], bv[-1:]])
        return pu - pv

    def eta_hat(self, level, t):
        """Closed-form transform: piece_hat(t) [e((a/q)t) - e((a/q + 3/(Nq))t)].

        For integer t the two phases are reduced as exact rationals before
        exponentiation, so the value is reliable for |t| far beyond where
        double-precision products of a/q with t lose digits.  At t = 0 the
        bracket vanishes identically (the mean-zero property).
        """
        a, q, N = self.frac.a, self.frac.q, self.N
        t_arr = np.asarray(t)
        if np.issubdtype(t_arr.dtype, np.integer):
            ti = t_arr.astype(np.int64)
            if ti.size and max(a, 3) * int(np.max(np.abs(ti))) >= 2**62:
                raise OverflowError("integer frequency too large for exact phases")
            r1 = ((a * ti) % q) / q
            r2 = ((3 * ti) % (N * q)) / (N * q)
            bracket = e1(r1) - e1(r1 + r2)
        else:
            tf = t_arr.astype(np.longdouble)
            ph1 = np.asarray((np.longdouble(a) / q * tf) % 1.0, dtype=float)
            ph2 = np.asarray(
                ((np.longdouble(a) / q + np.longdouble(3.0) / (N * q)) * tf) % 1.0,
                dtype=float,
            )
            bracket = e1(ph1) - e1(ph2)
        out = self.piece_hat(level, np.asarray(t, dtype=float)) * bracket
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

    def __init__(self, N: int, order: int = DEFAULT_SPLINE_ORDER, q_limit: int | None = None):
        if q_limit is None:
            q_limit = N // 10
        if q_limit < 1:
            raise ValueError("arc system needs q_limit >= 1 (N >= 10 for the default)")
        if q_limit >= N:
            raise ValueError("q_limit must be < N")
        self.N = N
        self.order = order
        self.q_limit = q_limit
        self.ladders: dict[tuple[int, int], BumpLadder] = {}
        for q in range(1, q_limit + 1):
            for a in totatives(q):
                self.ladders[(q, a)] = BumpLadder(FareyFraction(a, q), N, order)

    def blocks(self) -> list[tuple[int, list[int]]]:
        """Dyadic blocks (Q, [q...]) partitioning 1..q_limit."""
        out = []
        Q = 1
        while Q // 2 < self.q_limit:
            qs = [q for q in dyadic_block(Q) if q <= self.q_limit]
            if qs:
                out.append((Q, qs))
            Q *= 2
        return out

    def piece_specs(self) -> list[PieceSpec]:
        """Every (core + dyadic) piece of the arc-localized decomposition."""
        specs = []
        for Q, qs in self.blocks():
            specs.append(PieceSpec("core", Q))
            top = max(self.ladders[(q, totatives(q)[0])].top_level for q in qs)
            for l in range(top + 1):
                specs.append(PieceSpec("dyadic", Q, l))
        return specs

    def piece_ladders(self, spec: PieceSpec) -> list[BumpLadder]:
        """Ladders of the spec's block that carry its level (all of them for core)."""
        if spec.kind not in ("dyadic", "core"):
            raise ValueError("piece ladders exist for dyadic or core specs")
        qs = [q for q in dyadic_block(spec.Q) if q <= self.q_limit]
        ladders = [self.ladders[(q, a)] for q in qs for a in totatives(q)]
        if spec.kind == "dyadic":
            ladders = [lad for lad in ladders if spec.level <= lad.top_level]
            if not ladders:
                raise ValueError(f"no ladder in block Q={spec.Q} has dyadic level {spec.level}")
        return ladders

    def piece_weight(self, spec: PieceSpec, t):
        """sum over the block of eta(t) for one (Q, l) or core piece."""
        t = np.asarray(t, dtype=float)
        level = "core" if spec.kind == "core" else spec.level
        acc = np.zeros(t.shape if t.ndim else ())
        for lad in self.piece_ladders(spec):
            acc = acc + lad.eta(level, t)
        return acc if np.ndim(acc) else float(acc)

    def weight_sum(self, t):
        """Total arc weight W(t) = sum over all fractions and levels of eta.

        Uses the telescoped form psi(Nq u) - psi(Nq (u - 3/(Nq))) per
        fraction, which the per-piece sum reproduces to ~1e-15.
        """
        t = np.asarray(t, dtype=float)
        acc = np.zeros(t.shape if t.ndim else ())
        for (q, a), lad in self.ladders.items():
            c = a / q
            u = _torus_signed(t - c)
            v = _torus_signed(t - c - lad.shift)
            s = float(self.N * q)
            acc = acc + bump_psi(s * u, self.order) - bump_psi(s * v, self.order)
        return acc if np.ndim(acc) else float(acc)

    def clusters(self) -> list[tuple[float, float]]:
        return [lad.cluster() for lad in self.ladders.values()]

    def clusters_disjoint(self) -> bool:
        """Interval-arithmetic check that per-fraction support clusters are disjoint."""
        return _intervals_disjoint_mod1(self.clusters())


@lru_cache(maxsize=32)
def arc_system(N: int, order: int = DEFAULT_SPLINE_ORDER, q_limit: int | None = None) -> ArcSystem:
    return ArcSystem(N, order, q_limit)


def piece_system(spec: PieceSpec, params: OperatorParams, order: int = DEFAULT_SPLINE_ORDER) -> ArcSystem:
    """The arc system a standalone dyadic/core piece is evaluated in.

    Its q range reaches the spec's block even past floor(N/10) (capped at
    N - 1): the coefficient and decay identities are integrals and do not
    need the arcs to be disjoint.
    """
    return arc_system(params.N, order, min(max(spec.Q, params.N // 10), params.N - 1))


def piece_multiplier(
    spec: PieceSpec,
    xi,
    params: OperatorParams,
    order: int = DEFAULT_SPLINE_ORDER,
    q_limit: int | None = None,
) -> complex | np.ndarray:
    """Evaluate one piece of the multiplier at a torus point, or at each row of an (m, n) array.

    whole = m(xi); maj = m(xi) W(xi_n); min = whole - maj.  Dyadic and core
    pieces localize m by their block's mean-zero bumps.  Standalone
    dyadic/core specs accept any block with q < N (the coefficient and
    decay identities do not need the arcs to be disjoint); pass
    q_limit = floor(N/10) to reproduce exactly the pieces the maj assembly
    sums (its top block is truncated there).  maj/min require N >= 10 so
    the arc family exists.  For an array of rows, m is evaluated once per
    row and the bump weight once on the array of xi_n; each entry equals
    the single-point call on its row.
    """
    rows = np.asarray(xi, dtype=float)
    if rows.ndim == 2:
        t = rows[:, -1]
        whole = np.array([multiplier(row, params) for row in rows], dtype=complex)
    else:
        xi = tuple(float(c) for c in xi)
        t = xi[-1]
        whole = multiplier(xi, params)
    if spec.kind == "whole":
        return whole
    if spec.kind in ("maj", "min"):
        system = arc_system(params.N, order)
        w = system.weight_sum(t)
        return whole * w if spec.kind == "maj" else whole - whole * w
    system = piece_system(spec, params, order) if q_limit is None else arc_system(params.N, order, q_limit)
    return whole * system.piece_weight(spec, t)


def write_arc_table(N: int, path, order: int = DEFAULT_SPLINE_ORDER) -> None:
    """CSV of the arc family: q, a, center, I-radius, ladder scales."""
    system = arc_system(N, order)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "a", "center", "radius", "scales"])
        for (q, a), lad in sorted(system.ladders.items()):
            writer.writerow([q, a, repr(a / q), repr(1.0 / (q * N)), " ".join(map(str, lad.scales))])
