"""Finitely supported complex functions on Z^n.

This is the function space everything else acts on: kernels, test functions,
and averages are all LatticeFunction values.  Functions are immutable; every
operation returns a new value, so they are safe to share across workers.

Norm and convolution arithmetic is exact on integer-valued inputs: power
sums for p in {1, 2, inf} accumulate in Python integers when every stored
amplitude is a Gaussian integer, and the direct convolution path multiplies
and adds integer-valued doubles without rounding (products stay below 2^53
at desk scale).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "ALLOC_BUDGET_BYTES",
    "check_alloc",
    "LatticeFunction",
    "delta",
    "box_indicator",
    "lp_norm",
    "convolve",
    "reflect",
    "shift",
    "dumps_text",
    "loads_text",
]

# Largest single array any engine may allocate.  Sizes are checked against it
# before allocating, so an oversized run stops with a ValueError (exit 2 in
# the CLI) instead of growing towards an out-of-memory kill.
ALLOC_BUDGET_BYTES = 1 << 30


def check_alloc(shape, dtype, what: str) -> None:
    """Raise ValueError when an array of `shape` and `dtype` would exceed the budget."""
    shape = tuple(int(s) for s in shape)
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > ALLOC_BUDGET_BYTES:
        raise ValueError(
            f"{what}: array of shape {shape} needs {nbytes} bytes, "
            f"over the {ALLOC_BUDGET_BYTES}-byte allocation budget"
        )


class LatticeFunction:
    """A finitely supported function Z^n -> C, stored sparsely.

    The internal map holds only nonzero amplitudes; evaluation anywhere else
    returns exactly 0.  Construction drops exact zeros so the stored support
    is the true support.
    """

    __slots__ = ("dim", "_data")

    def __init__(self, dim: int, data: dict | Iterable = ()):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        items = data.items() if isinstance(data, dict) else data
        clean: dict[tuple, complex] = {}
        for point, value in items:
            point = tuple(int(c) for c in point)
            if len(point) != dim:
                raise ValueError(f"point {point} has length {len(point)}, expected {dim}")
            value = complex(value)
            if value != 0:
                clean[point] = clean.get(point, 0) + value
                if clean[point] == 0:
                    del clean[point]
        self.dim = dim
        self._data = clean

    @classmethod
    def _trusted(cls, dim: int, items) -> "LatticeFunction":
        """Wrap (point, value) pairs that are already valid, dropping exact zeros.

        Points must be distinct tuples of Python ints of length dim and values
        Python complex numbers; nothing else is checked.  For internal results
        built from validated inputs, where revalidation would dominate the cost.
        """
        f = object.__new__(cls)
        f.dim = dim
        f._data = {p: v for p, v in items if v != 0}
        return f

    # -- basic queries ------------------------------------------------------

    def __call__(self, point) -> complex:
        return self._data.get(tuple(int(c) for c in point), 0j)

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._data)

    def items(self):
        return self._data.items()

    def sorted_items(self):
        return sorted(self._data.items())

    def support(self) -> list[tuple]:
        return list(self._data)

    def support_box(self) -> tuple[tuple[int, int], ...]:
        """Per-axis inclusive ranges covering the support; errors if empty."""
        if not self._data:
            raise ValueError("empty function has no support box")
        points = np.array(list(self._data), dtype=np.int64)
        return tuple((int(lo), int(hi)) for lo, hi in zip(points.min(0), points.max(0)))

    def is_integer_valued(self) -> bool:
        """True when every amplitude is a Gaussian integer (exact check)."""
        for v in self._data.values():
            if v.real != int(v.real) or v.imag != int(v.imag):
                return False
        return True

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "LatticeFunction") -> "LatticeFunction":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        data = dict(self._data)
        for p, v in other._data.items():
            data[p] = data.get(p, 0) + v
        return LatticeFunction(self.dim, data)

    def __sub__(self, other: "LatticeFunction") -> "LatticeFunction":
        return self + (-1) * other

    def __mul__(self, scalar) -> "LatticeFunction":
        scalar = complex(scalar)
        return LatticeFunction(self.dim, {p: scalar * v for p, v in self._data.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticeFunction)
            and self.dim == other.dim
            and self._data == other._data
        )

    def __repr__(self) -> str:
        return f"LatticeFunction(dim={self.dim}, nnz={len(self._data)})"

    # -- dense interchange ---------------------------------------------------

    def to_dense(self, box=None):
        """Dense complex array over `box` (defaults to the support box).

        Returns (array, offset): array[idx] = f(idx + offset).  Dense and
        sparse views evaluate identically at every lattice point inside the
        box; outside it both are zero by the support invariant.
        """
        if box is None:
            box = self.support_box()
        lo = np.array([b[0] for b in box], dtype=np.int64)
        hi = np.array([b[1] for b in box], dtype=np.int64)
        shape = tuple(int(h - l + 1) for l, h in zip(lo, hi))
        out = np.zeros(shape, dtype=np.complex128)
        for p, v in self._data.items():
            idx = tuple(int(c - o) for c, o in zip(p, lo))
            if all(0 <= i < s for i, s in zip(idx, shape)):
                out[idx] = v
            else:
                raise ValueError(f"support point {p} outside box {box}")
        return out, tuple(int(x) for x in lo)

    @staticmethod
    def from_dense(array: np.ndarray, offset) -> "LatticeFunction":
        offset = tuple(int(c) for c in offset)
        data = {}
        for idx in np.argwhere(array != 0):
            point = tuple(int(i + o) for i, o in zip(idx, offset))
            data[point] = complex(array[tuple(idx)])
        return LatticeFunction(array.ndim, data)


# -- constructors -------------------------------------------------------------


def delta(point, dim: int | None = None) -> LatticeFunction:
    """Unit mass at a single lattice point."""
    point = tuple(int(c) for c in point)
    return LatticeFunction(dim or len(point), {point: 1.0})


def box_indicator(lo, hi) -> LatticeFunction:
    """Indicator of the product of inclusive integer ranges [lo_i, hi_i]."""
    lo = tuple(int(c) for c in lo)
    hi = tuple(int(c) for c in hi)
    if len(lo) != len(hi):
        raise ValueError("lo and hi must have equal length")
    for a, b in zip(lo, hi):
        if a > b:
            raise ValueError(f"empty range: lo {a} > hi {b}")
    dim = len(lo)
    grids = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    return LatticeFunction(dim, {tuple(int(c) for c in row): 1.0 for row in points})


# -- norms --------------------------------------------------------------------


def lp_norm(f: LatticeFunction, p) -> float:
    """(sum |f|^p)^(1/p), or sup |f| for p = inf.

    Exact integer accumulation is used for p in {1, 2, inf} whenever all
    amplitudes are Gaussian integers (real amplitudes for p = 1), so counting
    arguments in the tests are free of rounding.
    """
    if p != math.inf and p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if not f._data:
        return 0.0
    values = list(f._data.values())

    if p == math.inf:
        return math.sqrt(max((v.real * v.real + v.imag * v.imag) for v in values))

    if f.is_integer_valued():
        if p == 2:
            total = sum(int(v.real) ** 2 + int(v.imag) ** 2 for v in values)
            return math.sqrt(total)
        if p == 1 and all(v.imag == 0 for v in values):
            return float(sum(abs(int(v.real)) for v in values))

    return float(np.power(math.fsum(abs(v) ** p for v in values), 1.0 / p))


# -- convolution ---------------------------------------------------------------


def _convolve_direct(f: LatticeFunction, g: LatticeFunction) -> LatticeFunction:
    """Sparse direct summation.  Exact on integer-valued inputs."""
    pf = np.array(list(f._data), dtype=np.int64)
    vf = np.array(list(f._data.values()), dtype=np.complex128)
    pg = np.array(list(g._data), dtype=np.int64)
    vg = np.array(list(g._data.values()), dtype=np.complex128)
    sums = (pf[:, None, :] + pg[None, :, :]).reshape(-1, f.dim)
    prods = (vf[:, None] * vg[None, :]).ravel()
    uniq, inverse = np.unique(sums, axis=0, return_inverse=True)
    acc = np.zeros(len(uniq), dtype=np.complex128)
    np.add.at(acc, inverse, prods)
    return LatticeFunction._trusted(f.dim, zip(map(tuple, uniq.tolist()), acc.tolist()))


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def _convolve_fft(f: LatticeFunction, g: LatticeFunction) -> LatticeFunction:
    """Cyclic FFT on a zero-padded box covering the Minkowski sum.

    Each axis is padded to the next power of two at least as large as the
    Minkowski-sum extent, so the cyclic convolution has no wraparound
    aliasing and agrees with the direct path to ~1e-13 relative.
    """
    bf, bg = f.support_box(), g.support_box()
    lo = [a[0] + b[0] for a, b in zip(bf, bg)]
    extents = [
        (a[1] - a[0] + 1) + (b[1] - b[0] + 1) - 1 for a, b in zip(bf, bg)
    ]
    shape = tuple(_next_pow2(e) for e in extents)
    check_alloc(shape, np.complex128, "padded FFT buffer")
    df, off_f = f.to_dense(bf)
    dg, off_g = g.to_dense(bg)
    buf_f = np.zeros(shape, dtype=np.complex128)
    buf_f[tuple(slice(0, s) for s in df.shape)] = df
    buf_g = np.zeros(shape, dtype=np.complex128)
    buf_g[tuple(slice(0, s) for s in dg.shape)] = dg
    conv = np.fft.ifftn(np.fft.fftn(buf_f) * np.fft.fftn(buf_g))
    conv = conv[tuple(slice(0, e) for e in extents)]
    return LatticeFunction.from_dense(conv, tuple(lo))


def convolve(f: LatticeFunction, g: LatticeFunction, method: str = "auto") -> LatticeFunction:
    """(f*g)(x) = sum_y f(y) g(x-y), by direct summation or padded FFT.

    `method` is one of "auto", "direct", "fft".  Auto picks direct for small
    supports (where it is exact) and FFT when the pair count gets large.
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if not f._data or not g._data:
        return LatticeFunction(f.dim)
    if method == "direct":
        return _convolve_direct(f, g)
    if method == "fft":
        return _convolve_fft(f, g)
    if method != "auto":
        raise ValueError(f"unknown convolution method {method!r}")
    if len(f) * len(g) <= 1 << 22:
        return _convolve_direct(f, g)
    return _convolve_fft(f, g)


# -- symmetries ----------------------------------------------------------------


def reflect(f: LatticeFunction) -> LatticeFunction:
    """Rf(x) = f(-x).  Involution; preserves every lp norm."""
    return LatticeFunction(f.dim, {tuple(-c for c in p): v for p, v in f._data.items()})


def shift(f: LatticeFunction, h) -> LatticeFunction:
    """Translate: (shift(f, h))(x) = f(x + h)."""
    h = tuple(int(c) for c in h)
    if len(h) != f.dim:
        raise ValueError("shift vector dimension mismatch")
    return LatticeFunction(
        f.dim, {tuple(c - d for c, d in zip(p, h)): v for p, v in f._data.items()}
    )


# -- sparse text serialization --------------------------------------------------
#
# Format: header line "dim n", then one line per support point:
#     x_1 ... x_n re im
# Floats are written with repr, which round-trips exactly.


def dumps_text(f: LatticeFunction) -> str:
    lines = [f"dim {f.dim}"]
    for point, value in f.sorted_items():
        coords = " ".join(str(c) for c in point)
        lines.append(f"{coords} {value.real!r} {value.imag!r}")
    return "\n".join(lines) + "\n"


def loads_text(text: str) -> LatticeFunction:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("dim "):
        raise ValueError("missing 'dim n' header")
    dim = int(lines[0].split()[1])
    data = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != dim + 2:
            raise ValueError(f"bad line (expected {dim + 2} fields): {ln!r}")
        point = tuple(int(c) for c in parts[:dim])
        data[point] = complex(float(parts[dim]), float(parts[dim + 1]))
    return LatticeFunction(dim, data)
