"""Cutoff profiles, paraboloid kernels, and the averaging operator.

Two cutoffs are supported on Z:

* sharp: weight 1 on {1, ..., N}, 0 elsewhere.  This reproduces the plain
  paraboloid average exactly (integer counts).
* smooth: a [0,1]-valued even profile equal to 1 on (-N, N), vanishing
  outside (-2N, 2N), whose discrete derivative s_k has sup <= C1/N and
  total variation <= C2/N with recorded constants C1 = 2, C2 = 16.

The smooth ramp is the fixed quintic smoothstep 6u^5 - 15u^4 + 10u^3,
evaluated as u^3 (10 - 15u + 6u^2): two vanishing derivatives at both
ends, so the profile is C^2.  Over N = 16..256 cutoff_checks measures
N sup|s_k| <= 1.875 <= 2 and N TV(s) <= 7.50 <= 16, and gauss-check
records both for every N of its sweep.  The constants belong to this ramp:
N TV(s) is 4.0, 6.0 and 7.5 for the smoothsteps of degree 1, 3 and 5, but
N sup|s_k| grows with the degree, to 2.15-2.19 at degree 7, past C1.

The kernel places weight sigma(k_1)...sigma(k_{n-1}) at the lattice point
(k_1, ..., k_{n-1}, k_1^2 + ... + k_{n-1}^2); averaging divides the
convolution with the reflected kernel by N^(n-1), which matches the
forward-translate convention A f(x) = N^{1-n} sum_k w(k) f(x + (k, |k|^2)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .lattice import LatticeFunction, _canonical, _from_sorted, _offset_sum
from .reports import ExperimentReport

__all__ = [
    "CutoffProfile",
    "OperatorParams",
    "cutoff_checks",
    "paraboloid_kernel",
    "average",
    "RAMP_SUP_CONSTANT",
    "RAMP_TV_CONSTANT",
]

# Recorded absolute constants for the quintic ramp:
#   N * sup_k |s_k| <= 2  and  N * sum_k |s_{k+1} - s_k| <= 16.
RAMP_SUP_CONSTANT = 2.0
RAMP_TV_CONSTANT = 16.0


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """The quintic step 6u^5 - 15u^4 + 10u^3 on u clipped to [0, 1]: 0 -> 1, C^2.

    Written u^3 (10 - 15u + 6u^2), it has the bits of the general
    smoothstep formula at order 3, which the tests keep as its oracle.
    """
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * (u * u))


@dataclass(frozen=True)
class CutoffProfile:
    """The weight profile sigma: Z -> [0, 1] at scale N."""

    kind: str  # "sharp" | "smooth"
    N: int

    def __post_init__(self):
        if self.kind not in ("sharp", "smooth"):
            raise ValueError(f"kind must be 'sharp' or 'smooth', got {self.kind!r}")
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.kind == "smooth" and self.N < 4:
            raise ValueError("smooth cutoff needs N >= 4 so the ramps have room")

    def value(self, k) -> float | np.ndarray:
        k = np.asarray(k)
        if self.kind == "sharp":
            out = ((k >= 1) & (k <= self.N)).astype(float)
        else:
            u = (np.abs(k) - self.N) / self.N
            out = 1.0 - _smoothstep(u)
            out = np.where(np.abs(k) >= 2 * self.N, 0.0, out)
            out = np.where(np.abs(k) < self.N, 1.0, out)
        return out if out.ndim else float(out)

    def support(self) -> np.ndarray:
        """Integers where sigma is nonzero."""
        return _support_weights(self)[0]

    def weights(self) -> np.ndarray:
        return _support_weights(self)[1]

    def mass(self) -> float:
        """l^1 norm of sigma (exactly N for the sharp kind)."""
        if self.kind == "sharp":
            return float(self.N)
        return float(np.sum(self.weights()))


@lru_cache(maxsize=256)
def _support_weights(profile: CutoffProfile) -> tuple[np.ndarray, np.ndarray]:
    """Cached (support, weights) arrays; hot paths evaluate sums per call."""
    if profile.kind == "sharp":
        ks = np.arange(1, profile.N + 1)
    else:
        ks = np.arange(-2 * profile.N + 1, 2 * profile.N)
    ws = np.asarray(profile.value(ks), dtype=float)
    ks.setflags(write=False)
    ws.setflags(write=False)
    return ks, ws


def cutoff_checks(profile: CutoffProfile) -> ExperimentReport:
    """Measure the discrete-derivative bounds of a smooth profile.

    Reports N*sup|s_k| and N*TV(s) for s_k = sigma(k+1) - sigma(k) with the
    recorded constants they must stay below for every N; gauss-check records
    each ratio against its constant.  The sharp profile is rejected: its
    derivative has O(1) jumps, not O(1/N).
    """
    if profile.kind != "smooth":
        raise ValueError("cutoff_checks requires a smooth profile")
    N = profile.N
    ks = np.arange(-2 * N - 2, 2 * N + 2)
    sigma = np.asarray(profile.value(ks), dtype=float)
    s = sigma[1:] - sigma[:-1]
    sup_ratio = N * float(np.max(np.abs(s)))
    tv_ratio = N * float(np.sum(np.abs(s[1:] - s[:-1])))
    return ExperimentReport(
        name="cutoff_checks",
        params={"N": N},
        values={
            "sup_ratio": sup_ratio,
            "tv_ratio": tv_ratio,
            "sup_constant": RAMP_SUP_CONSTANT,
            "tv_constant": RAMP_TV_CONSTANT,
        },
    )


@dataclass(frozen=True)
class OperatorParams:
    """Ambient dimension n >= 2, scale N, and the cutoff profile."""

    n: int
    N: int
    cutoff: CutoffProfile = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("ambient dimension n must be >= 2")
        if self.N < 1:
            raise ValueError("N must be a positive integer")
        if self.cutoff is None:
            object.__setattr__(self, "cutoff", CutoffProfile("sharp", self.N))
        if self.cutoff.N != self.N:
            raise ValueError("cutoff scale differs from operator scale")

    @staticmethod
    def sharp(n: int, N: int) -> "OperatorParams":
        return OperatorParams(n, N, CutoffProfile("sharp", N))

    @staticmethod
    def smooth(n: int, N: int) -> "OperatorParams":
        return OperatorParams(n, N, CutoffProfile("smooth", N))


def paraboloid_kernel(params: OperatorParams) -> LatticeFunction:
    """Kernel with weight prod_i sigma(k_i) at (k_1,...,k_{n-1}, |k|^2).

    The first n-1 coordinates determine the point, so the support size is
    (#supp sigma)^(n-1) and the sup norm is the largest single weight (= 1).
    Points come out in ascending order of k = (k_1, ..., k_{n-1}).
    """
    n, cutoff = params.n, params.cutoff
    ks = cutoff.support()
    ws = cutoff.weights()
    if len(ks) ** (n - 1) > 20_000_000:
        raise ValueError("kernel support too large to enumerate")
    combos = np.indices((len(ks),) * (n - 1)).reshape(n - 1, -1)
    kp = ks[combos].astype(np.int64)
    weights = ws[combos[0]]
    for axis in combos[1:]:  # left to right, as a product over the coordinates
        weights = weights * ws[axis]
    points = np.concatenate([kp, (kp * kp).sum(axis=0, keepdims=True)]).T
    return _canonical(n, points, weights)


@lru_cache(maxsize=32)
def _kernel(params: OperatorParams) -> LatticeFunction:
    """paraboloid_kernel(params), built once per parameter set and shared."""
    return paraboloid_kernel(params)


def average(f: LatticeFunction, params: OperatorParams) -> LatticeFunction:
    """A f(x) = N^{1-n} sum_k w(k) f(x + (k, |k|^2)), exact on every input.

    The sum runs directly over every pair of a kernel point and a point of
    f, by lattice._apply_offsets with f as the start and the reflected
    kernel as the weighted offsets.  There is no FFT fallback, so no
    roundoff entries appear.  Each output point accumulates its terms in
    ascending k and is then divided by N^(n-1) once, so the result is
    correctly rounded from the exact sum on integer-valued f with the sharp
    cutoff.  The kernel is cached per OperatorParams (LatticeFunction values
    are immutable, so every call shares it), and points whose average
    cancels to exactly 0 are dropped from the support.
    """
    if f.dim != params.n:
        raise ValueError(f"function dim {f.dim} != operator dim {params.n}")
    kernel = _kernel(params)
    raw = _offset_sum(f, -kernel._points, kernel._values)
    values = raw._values / float(params.N ** (params.n - 1))
    # the points are distinct and sorted already: drop what underflowed to
    # +-0 (indexing the column-major points only then)
    points, keep = raw._points, values != 0
    if not keep.all():
        points, values = points[keep], values[keep]
    return _from_sorted(raw.dim, points, values)
