"""Finitely supported real functions on Z^n.

This is the function space everything else acts on: kernels, test functions,
and averages are all LatticeFunction values.  They are real: the averaging
kernels are nonnegative, so |A f| <= A |f| pointwise and every norm ratio a
complex f reaches, |f| reaches too.  A complex amplitude is refused with a
ValueError.  A function is stored as two read-only arrays: its distinct
support points in lexicographic order and their nonzero float64 values.
One canonicalizer builds every function whose points may repeat or come
unsorted (box_indicator and from_dense produce theirs distinct and sorted,
and skip it).  It keys each point by its row-major index in the bounding
box of its input, an int64 whose order is the lexicographic order, and
sums the values per key.  The terms arrive in blocks.  When the box has at
most 2 cells per term and fits the budget, np.add.at adds each block into
one float64 histogram, so only one block of terms is alive at a time; else
the blocks are joined and summed by one stable argsort and np.add.at.  Both
add each point's terms in input order from +0.0, as a stable sort of the
points does, so the bits do not depend on the branch or the blocks; exact
zeros are dropped.  Functions are immutable, so safe to share.

Norm and convolution arithmetic is exact on integer-valued inputs: the
p = 2 power sum accumulates in Python integers when every stored amplitude
is an integer, and the direct convolution multiplies and adds
integer-valued doubles without rounding (products stay below 2^53 at desk
scale).  Any other power sum is math.fsum of math.pow(|v|, p), rounded
once from the exact sum (so exact too at p = 1), with one math.pow per
distinct modulus.  Those grouped exact terms (_power_terms) have two
callers: _power_sum, behind lp_norm and the ascent, and
experiments.box_power_sum, which sums the count histogram of the averaged
box.
"""

from __future__ import annotations

import math
from itertools import chain, repeat
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


def _bounds(points: np.ndarray) -> tuple[list, list]:
    """Per-axis min and max of (m, dim) points as Python ints; zeros when m = 0."""
    return (points.min(0).tolist(), points.max(0).tolist()) if len(points) else ([0] * points.shape[1],) * 2


def _row_major(lo: list, hi: list) -> tuple[list, list]:
    """Extents and row-major strides of the box [lo, hi], in Python ints."""
    extents = [b - a + 1 for a, b in zip(lo, hi)]
    if math.prod(extents) >= 1 << 63 or min(lo) < -(1 << 63) or max(hi) >= 1 << 63:
        raise ValueError(f"support box {list(zip(lo, hi))} has {math.prod(extents)} cells, beyond int64 keys")
    return extents, [math.prod(extents[i + 1 :]) for i in range(len(lo))]


def _canonical(dim: int, points: np.ndarray, values: np.ndarray) -> "LatticeFunction":
    """The function with amplitude sum(values[i] : points[i] = x) at each x; points are (m, dim) int64."""
    lo, hi = _bounds(points)
    extents, strides = _row_major(lo, hi)
    return _reduce(dim, lo, extents, len(points), [((points - lo) @ strides, values)])


def _reduce(dim: int, lo: list, extents: list, terms: int, blocks: Iterable) -> "LatticeFunction":
    """Sum values[i] into cell keys[i] of the box at lo, in input order from +0.0; drop exact zeros.

    `blocks` yields (keys, values) arrays in input order, `terms` terms in all.
    """
    cells = math.prod(extents)
    # <= 2 cells per term keeps the histogram (8 B/cell) within the sort's ~60 B/term
    if cells <= 2 * terms and 8 * cells <= ALLOC_BUDGET_BYTES:
        sums = np.zeros(cells)
        for keys, values in blocks:
            np.add.at(sums, keys, values)
        keys = np.flatnonzero(sums)
        sums = sums[keys]
    else:
        blocks = iter(blocks)
        keys, values = next(blocks, (np.empty(0, dtype=np.int64), np.empty(0)))
        if len(keys) < terms:  # join the blocks, checked against the budget first
            check_alloc((terms,), np.int64, "reduction keys")  # the float64 values are as large
            joined, at = (np.empty(terms, dtype=np.int64), np.empty(terms)), 0
            for block in chain([(keys, values)], blocks):
                for whole, part in zip(joined, block):
                    whole[at : at + len(part)] = part
                at += len(block[0])
            keys, values = joined
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.ones(len(keys), dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        sums = np.zeros(int(np.count_nonzero(new)))
        np.add.at(sums, np.cumsum(new) - 1, values[order])
        keys, sums = keys[new][sums != 0], sums[sums != 0]
    return _from_sorted(dim, np.array(np.unravel_index(keys, extents)).T + np.array(lo, dtype=np.int64), sums)


def _real(values) -> np.ndarray:
    """values as a float64 array; a complex one raises ValueError naming an amplitude.

    The amplitude named is the first with an imaginary part, else the first.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values):
        named = next(chain(values[values.imag != 0], values.flat), 0j)
        raise ValueError(f"lattice functions are real: got the complex amplitude {complex(named)!r}")
    return values.astype(np.float64, copy=False)


def _from_sorted(dim: int, points: np.ndarray, values: np.ndarray) -> "LatticeFunction":
    """The function on distinct, lexicographically sorted points with nonzero values, taken as is."""
    f = object.__new__(LatticeFunction)
    f.dim, f._points, f._values = dim, points, values
    f._points.setflags(write=False)
    f._values.setflags(write=False)
    return f


class LatticeFunction:
    """A finitely supported function Z^n -> R, stored sparsely.

    `data` is a dict or an iterable of (point, value) pairs; a repeated point
    gets the sum of its values, and a complex value raises a ValueError.
    Only nonzero amplitudes are stored, so the stored support is the true
    support and evaluation anywhere else returns exactly 0.  Points whose
    bounding box has 2^63 or more cells raise a ValueError: their row-major
    keys would not fit in int64.
    """

    __slots__ = ("dim", "_points", "_values")

    def __init__(self, dim: int, data: dict | Iterable = ()):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        items = list(data.items() if isinstance(data, dict) else data)
        for point, _ in items:
            if len(point) != dim:
                raise ValueError(f"point {tuple(point)} has length {len(point)}, expected {dim}")
        points = np.array([[int(c) for c in p] for p, _ in items], dtype=np.int64).reshape(-1, dim)
        values = _real([v for _, v in items])
        f = _canonical(dim, points, values)
        self.dim, self._points, self._values = dim, f._points, f._values

    # -- basic queries ------------------------------------------------------

    def __call__(self, point) -> float:
        point = [int(c) for c in point]
        if len(point) != self.dim:
            return 0.0
        lo, hi = 0, len(self._values)
        for axis, c in enumerate(point):  # narrow the lexicographic range one axis at a time
            column = self._points[lo:hi, axis]
            lo, hi = lo + int(np.searchsorted(column, c, "left")), lo + int(np.searchsorted(column, c, "right"))
        return float(self._values[lo]) if lo < hi else 0.0

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.support())

    def items(self) -> list[tuple[tuple, float]]:
        """(point, value) pairs in lexicographic order of the points."""
        return list(zip(self.support(), self._values.tolist()))

    def support(self) -> list[tuple]:
        return list(zip(*self._points.T.tolist()))  # column by column: one list per axis, not per point

    def support_box(self) -> tuple[tuple[int, int], ...]:
        """Per-axis inclusive ranges covering the support; errors if empty."""
        if not len(self):
            raise ValueError("empty function has no support box")
        return tuple((int(lo), int(hi)) for lo, hi in zip(self._points.min(0), self._points.max(0)))

    def is_integer_valued(self) -> bool:
        """True when every amplitude is a finite integer (exact check)."""
        return bool(np.all(np.isfinite(self._values) & (self._values == np.trunc(self._values))))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "LatticeFunction") -> "LatticeFunction":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        return _canonical(
            self.dim,
            np.concatenate([self._points, other._points]),
            np.concatenate([self._values, other._values]),
        )

    def __sub__(self, other: "LatticeFunction") -> "LatticeFunction":
        return self + (-1) * other

    def __mul__(self, scalar) -> "LatticeFunction":
        return _canonical(self.dim, self._points, self._values * _real(scalar))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LatticeFunction)
            and self.dim == other.dim
            and np.array_equal(self._points, other._points)
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:
        return f"LatticeFunction(dim={self.dim}, nnz={len(self)})"

    # -- dense interchange ---------------------------------------------------

    def to_dense(self, box=None):
        """Dense float64 array over `box` (defaults to the support box).

        Returns (array, offset): array[idx] = f(idx + offset).  Dense and
        sparse views evaluate identically at every lattice point inside the
        box; outside it both are zero by the support invariant.
        """
        if box is None:
            box = self.support_box()
        lo = np.array([b[0] for b in box], dtype=np.int64)
        shape = tuple(int(b[1] - b[0] + 1) for b in box)
        idx = self._points - lo
        outside = np.any((idx < 0) | (idx >= np.array(shape, dtype=np.int64)), axis=1)
        if outside.any():
            raise ValueError(f"support point {tuple(self._points[np.argmax(outside)].tolist())} outside box {box}")
        out = np.zeros(shape)
        out[tuple(idx.T)] = self._values
        return out, tuple(int(x) for x in lo)

    @staticmethod
    def from_dense(array: np.ndarray, offset) -> "LatticeFunction":
        array = _real(array)
        nonzero = array != 0
        # np.argwhere lists the nonzero cells once each, in lexicographic order
        points = np.argwhere(nonzero) + np.array([int(c) for c in offset], dtype=np.int64)
        return _from_sorted(array.ndim, points, array[nonzero])


# -- constructors -------------------------------------------------------------


def delta(point, dim: int | None = None) -> LatticeFunction:
    """Unit mass at a single lattice point."""
    point = tuple(int(c) for c in point)
    return LatticeFunction(dim or len(point), [(point, 1.0)])


def box_indicator(lo, hi) -> LatticeFunction:
    """Indicator of the product of inclusive integer ranges [lo_i, hi_i]."""
    lo = tuple(int(c) for c in lo)
    hi = tuple(int(c) for c in hi)
    if len(lo) != len(hi):
        raise ValueError("lo and hi must have equal length")
    for a, b in zip(lo, hi):
        if a > b:
            raise ValueError(f"empty range: lo {a} > hi {b}")
    grids = np.meshgrid(*[np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)], indexing="ij")
    points = np.array([g.ravel() for g in grids]).T  # distinct, in lexicographic order
    return _from_sorted(len(lo), points, np.ones(len(points)))


# -- norms --------------------------------------------------------------------


def _norm_exponent(moduli: np.ndarray, power: float) -> int:
    """0 when sum moduli^power can be summed as stored, else e with max(moduli) in [2^(e-1), 2^e).

    Inside, the largest term lies in [2^-1000, 2^1023 / len(moduli)], so the
    sum cannot overflow, and a term rounded below 2^-1022 errs by at most
    2^-1075, so n terms lose less than n 2^-75 of the sum.  An inf modulus
    gives 0; a nan one makes the norm nan either way.
    """
    e = math.frexp(float(moduli.max()))[1]
    if power * (e - 1) >= -1000 and power * e + len(moduli).bit_length() <= 1023:
        return 0
    return e


# Sorted values are grouped into runs, and their terms handed to math.fsum, this many at a time.
_POWER_CHUNK = 1 << 16


def _power_terms(values: np.ndarray, mult: np.ndarray, p: float):
    """Iterables of exact floats that sum to sum_i mult[i] math.pow(values[i], p); mult[i] >= 1.

    math.pow runs once per value.  A value with mult[i] = 1 gives its power;
    any other gives ldexp(power, b) for each set bit b of mult[i], exact
    unless it overflows, where math.ldexp raises OverflowError as math.fsum
    over the expanded terms would.
    """
    once = mult == 1
    yield map(math.pow, values[once].tolist(), repeat(p))
    if once.all():
        return
    values, mult = values[~once], mult[~once]
    powers = np.fromiter(map(math.pow, values.tolist(), repeat(p)), dtype=float, count=len(values))
    for b in range(int(mult.max()).bit_length()):
        yield map(math.ldexp, powers[(mult >> b) & 1 == 1].tolist(), repeat(b))


def _power_sum(x: np.ndarray, p: float) -> float:
    """math.fsum(map(math.pow, x.tolist(), repeat(p))), bit for bit; sorts x in place.

    math.fsum rounds the exact sum of its terms once, so any exact split of
    the terms gives the same float.  x is sorted and cut into chunks of
    _POWER_CHUNK values, and each run of equal values in a chunk is one
    value with its length as multiplicity (_power_terms): math.pow runs once
    per run, and a chunk's temporaries, not a list of every value, are all
    that is alive next to x.  The one exception is an inf among finite
    powers whose sum overflows: math.fsum then returns inf or raises
    OverflowError depending on where the inf stands among its terms, and
    the terms here do not come in the order of x.
    """
    x.sort()

    def chunk_terms():
        for lo in range(0, len(x), _POWER_CHUNK):
            chunk = x[lo : lo + _POWER_CHUNK]
            new = np.ones(len(chunk), dtype=bool)
            new[1:] = chunk[1:] != chunk[:-1]  # nan != nan, so each nan is its own run
            starts = np.flatnonzero(new)
            yield from _power_terms(chunk[starts], np.diff(starts, append=len(chunk)), p)

    return math.fsum(chain.from_iterable(chunk_terms()))


def lp_norm(f: LatticeFunction, p) -> float:
    """(sum |f|^p)^(1/p), or max |f| for p = inf.

    For p = 2 the squares of integer amplitudes accumulate exactly in Python
    integers, so counting arguments in the tests are free of rounding; the
    integer check runs only at p = 2.  Any other finite p sums by
    _power_sum, math.fsum of math.pow(|v|, p) with one pow per distinct
    modulus, rounded once from the exact sum (at p = 1 that is the integer
    sum, rounded once).  Amplitudes so small that |v|^p underflows, or so
    large that the sum overflows (_norm_exponent), are scaled by a power of
    two 2^-e first and the norm by 2^e after (inf where that overflows);
    inside that range the values are summed as they are.
    """
    if not p >= 1:  # nan too; inf passes
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    if not len(f):
        return 0.0
    moduli = np.abs(f._values)
    if p == math.inf:
        return float(moduli.max())
    e = _norm_exponent(moduli, p)
    if not e and p == 2 and f.is_integer_valued():
        return math.sqrt(sum(int(v) ** 2 for v in f._values.tolist()))
    if e:
        moduli = np.ldexp(moduli, -e)
    norm = float(np.power(_power_sum(moduli, p), 1.0 / p))
    with np.errstate(over="ignore"):  # inf where the scaled norm overflows
        return float(np.ldexp(norm, e))


# -- convolution ---------------------------------------------------------------


# The direct sum hands the reduction this many pairs at a time (one row of f at least).
_PAIR_BLOCK = 1 << 16


def _convolve_direct(dim: int, pf, vf, pg, vg) -> LatticeFunction:
    """Sum of vf[i] vg[j] at pf[i] + pg[j]; pairs are laid out f-major.

    So each output point accumulates its products in the order of f.  The
    pairs go to the reduction in blocks of whole rows of f, at most
    _PAIR_BLOCK pairs each unless one row is longer.  Exact on integer-valued
    inputs.
    """
    (lo_f, hi_f), (lo_g, hi_g) = _bounds(pf), _bounds(pg)
    lo, hi = [a + b for a, b in zip(lo_f, lo_g)], [a + b for a, b in zip(hi_f, hi_g)]
    extents, strides = _row_major(lo, hi)
    kf, kg = (pf - lo_f) @ strides, (pg - lo_g) @ strides
    rows = max(1, _PAIR_BLOCK // max(1, len(pg)))
    blocks = (
        ((kf[i : i + rows, None] + kg[None, :]).ravel(), (vf[i : i + rows, None] * vg[None, :]).ravel())
        for i in range(0, len(pf), rows)
    )
    return _reduce(dim, lo, extents, len(pf) * len(pg), blocks)


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
    check_alloc(shape, np.complex128, "padded FFT buffer")  # covers each half spectrum and the real output
    axes = tuple(range(len(shape)))
    spectrum = np.fft.rfftn(f.to_dense(bf)[0], shape, axes) * np.fft.rfftn(g.to_dense(bg)[0], shape, axes)
    conv = np.fft.irfftn(spectrum, shape, axes)[tuple(slice(0, e) for e in extents)]
    return LatticeFunction.from_dense(conv, tuple(lo))


def convolve(f: LatticeFunction, g: LatticeFunction, method: str = "direct") -> LatticeFunction:
    """(f*g)(x) = sum_y f(y) g(x-y), by direct summation or padded FFT.

    `method` is "direct" (exact on integer-valued inputs; each pair is an
    int64 key in the Minkowski box, which must have < 2^63 cells, and a
    float64 product, 16 bytes; a dense box sums one block of pairs at a time
    into its histogram, a sparse one holds all the pairs, checked against
    the budget first) or "fft" (real transforms; rounding leaves ~1e-15
    entries where the exact result is 0).
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if method not in ("direct", "fft"):
        raise ValueError(f"unknown convolution method {method!r}")
    if not len(f) or not len(g):
        return LatticeFunction(f.dim)
    if method == "fft":
        return _convolve_fft(f, g)
    return _convolve_direct(f.dim, f._points, f._values, g._points, g._values)


# -- symmetries ----------------------------------------------------------------


def reflect(f: LatticeFunction) -> LatticeFunction:
    """Rf(x) = f(-x).  Involution; preserves every lp norm."""
    return _canonical(f.dim, -f._points, f._values)


def shift(f: LatticeFunction, h) -> LatticeFunction:
    """Translate: (shift(f, h))(x) = f(x + h)."""
    h = tuple(int(c) for c in h)
    if len(h) != f.dim:
        raise ValueError("shift vector dimension mismatch")
    return _canonical(f.dim, f._points - np.array(h, dtype=np.int64), f._values)
