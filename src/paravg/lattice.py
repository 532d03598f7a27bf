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
sums the values per key: into one float64 histogram by np.add.at when the
box has at most 2 cells per term and fits the budget, else by one stable
argsort and np.add.at.  Both add each point's terms in input order from
+0.0, so the bits do not depend on the branch; exact zeros are dropped.
Functions are immutable, so safe to share.  The direct convolution, the
average and the ascent add their weighted terms by one apply,
_apply_offsets, which sums a window with the same histogram rule whole (by
slices or np.add.at) and numbers the distinct cells of a sparser one by an
argsort, each cell's terms in offset order either way.

Reading a function out (support, items, iteration) builds Python tuples.
Each coordinate column is gathered from one shared int per value of its
range when that range is no longer than the column (an averaged box's
column spans a few hundred values over 10^5 points), else it is the
column's own tolist().  The tuples are built with the cyclic collector
paused (_collector_paused): tuples of ints and floats hold no cycle, so a
collection during the build frees nothing, and the collections it would
set off cost more than the shared ints save.  Each call returns a fresh
list, with no cache: a held list would sit beside the next caller's
allocations and raise its peak.

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

import gc
import math
from contextlib import contextmanager
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
    _check_bytes(math.prod(shape) * np.dtype(dtype).itemsize, f"{what}: array of shape {shape}")


def _check_bytes(nbytes: int, what: str) -> None:
    """Raise ValueError when `what`, which holds nbytes at once, would exceed the budget."""
    if nbytes > ALLOC_BUDGET_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes, over the {ALLOC_BUDGET_BYTES}-byte allocation budget")


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
    keys = (points - lo) @ strides
    cells = math.prod(extents)
    # <= 2 cells per term keeps the histogram (8 B/cell) within the sort's ~60 B/term
    if cells <= 2 * len(keys) and 8 * cells <= ALLOC_BUDGET_BYTES:
        sums = np.zeros(cells)
        np.add.at(sums, keys, values)
        keys = np.flatnonzero(sums)
        sums = sums[keys]
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        new = np.ones(len(keys), dtype=bool)
        new[1:] = keys[1:] != keys[:-1]
        sums = np.zeros(int(np.count_nonzero(new)))
        np.add.at(sums, np.cumsum(new) - 1, values[order])
        keys, sums = keys[new][sums != 0], sums[sums != 0]
    return _from_sorted(dim, _points(keys, extents, lo), sums)


def _points(keys: np.ndarray, extents: list, lo: list) -> np.ndarray:
    """The (m, n) int64 points of row-major keys in the box of `extents` at lo, built column by column."""
    points = np.empty((len(keys), len(extents)), dtype=np.int64, order="F")
    for d, column in enumerate(points.T):
        np.floor_divide(keys, math.prod(extents[d + 1 :]), out=column)
        np.remainder(column, extents[d], out=column)
        column += lo[d]
    return points


def _column(column: np.ndarray) -> list:
    """column.tolist(), its equal values one shared int when its range is no longer than the column."""
    if len(column):
        lo, hi = int(column.min()), int(column.max())
        if hi - lo < len(column):
            # lo + arange, not arange(lo, hi + 1): the latter goes to float64 at 2^63 - 1
            atoms = (lo + np.arange(hi - lo + 1, dtype=np.int64)).astype(object)
            return atoms[column - lo].tolist()
    return column.tolist()


@contextmanager
def _collector_paused():
    """Run the block with the cyclic collector off, then restore the caller's state, also on an exception."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
        """(point, value) pairs in lexicographic order of the points, a fresh list each call.

        The points come from support(); the pairs are built with the
        collector paused, as there.
        """
        with _collector_paused():
            return list(zip(self.support(), self._values.tolist()))

    def support(self) -> list[tuple]:
        """The support points as int tuples in lexicographic order, a fresh list each call.

        Built column by column (_column: one shared int per value of a
        column's range when that range is no longer than the column) and
        zipped with the cyclic collector paused.  Nothing is cached, so
        the list lives only as long as the caller holds it.
        """
        with _collector_paused():
            return list(zip(*map(_column, self._points.T)))

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


# The apply's np.add.at adds this many terms at a time (one offset row at least).
_PAIR_BLOCK = 1 << 16


def _apply_offsets(start, values: np.ndarray, offsets: np.ndarray, weights: np.ndarray):
    """The sums of weights[j] values[i] at point i + offsets[j]: returns (sums, cells_of, points_of).

    start is an (m, n) array of distinct sorted points, or the extent (a
    tuple) of a box at the origin with values in row-major order; offsets
    is (K, n) int64.  Each cell takes its terms in offset order from +0.0,
    so no branch moves a bit.  cells_of(i) indexes point i's K cells in
    sums, in offset order; points_of(idx) gives the cells' points.  A window
    (the start's box widened by the offsets) of at most 2 cells per term
    that fits the budget, _canonical's histogram rule, is summed whole: by
    slices, one per offset, when the start fills its box and has at least
    as many points as there are offsets, else by np.add.at over blocks of
    _PAIR_BLOCK terms.  On a sparser window an argsort numbers the K m cell
    keys, and np.add.at adds into the distinct cells over the same blocks;
    its peak, 25 bytes a key and 16 a block term, is checked first.
    """
    n = offsets.shape[1]
    m, K = len(values), len(offsets)
    as_extent = isinstance(start, tuple)
    lo_o, hi_o = _bounds(offsets)
    lo_p, hi_p = ([0] * n, [e - 1 for e in start]) if as_extent else _bounds(start)
    lo = [a + b for a, b in zip(lo_p, lo_o)]
    shape, strides = _row_major(lo, [a + b for a, b in zip(hi_p, hi_o)])
    extent = [b - a + 1 for a, b in zip(lo_p, hi_p)]
    corners = offsets - np.array(lo_o, dtype=np.int64)  # each offset's cell from the window corner of the lowest point
    steps = corners @ strides
    window = math.prod(shape)
    dense = window <= 2 * K * m and 8 * window <= ALLOC_BUDGET_BYTES
    if dense and m == math.prod(extent) and m >= K:
        sums, block, term, last = np.zeros(shape), values.reshape(extent), np.empty(extent), None
        for corner, w in zip(corners.tolist(), weights.tolist()):
            if w != last:  # a run of equal weights, a sharp kernel's all 1.0, shares one product block
                np.multiply(block, w, out=term)
                last = w
            cells = sums[tuple(slice(c, c + e) for c, e in zip(corner, extent))]
            cells += term
        # point i of the box sits at (i // inner) % extent, in Python ints (np.unravel_index costs 3x)
        inner = [(math.prod(extent[d + 1 :]), e, s) for d, (e, s) in enumerate(zip(extent, strides))]
        return (sums.reshape(-1), lambda i: sum(i // a % e * s for a, e, s in inner) + steps,
                lambda idx: _points(idx, shape, lo))
    rows = max(1, _PAIR_BLOCK // max(1, m))
    points = np.indices(start).reshape(n, -1).T if as_extent else start
    base = (points - np.array(lo_p, dtype=np.int64)) @ strides

    def keys(j: int) -> np.ndarray:  # the window keys of offset rows j .. j + rows, offset-major
        return (steps[j : j + rows, None] + base).reshape(-1)

    if dense:  # a cell's number is its window key
        sums, number, cells_of = np.zeros(window), keys, lambda i: steps + base[i]
        points_of = lambda idx: _points(idx, shape, lo)
    else:
        _check_bytes(25 * K * m + 16 * min(K, rows) * m, f"the kernel apply of {K} offsets to {m} points")
        every = (steps[:, None] + base).reshape(-1)
        order = np.argsort(every)
        every = every[order]
        first = np.ones(len(every), dtype=bool)
        first[1:] = every[1:] != every[:-1]
        del every
        ids = np.cumsum(first)
        ids -= 1
        numbers = np.empty_like(ids)
        numbers[order] = ids
        del order, ids
        numbers = numbers.reshape(K, m)
        sums = np.zeros(int(np.count_nonzero(first)))
        del first
        number, cells_of = (lambda j: numbers[j : j + rows].reshape(-1)), (lambda i: numbers[:, i])
        distinct = len(sums)

        def points_of(idx: np.ndarray) -> np.ndarray:  # the numbered cells' window keys, built only when asked for
            cells = np.empty(distinct, dtype=np.int64)
            for j in range(0, K, rows):
                cells[number(j)] = keys(j)
            cells = cells[idx]
            return _points(cells, shape, lo)

    for j in range(0, K, rows):
        np.add.at(sums, number(j), (weights[j : j + rows, None] * values).reshape(-1))
    return sums, cells_of, points_of


def _offset_sum(f: "LatticeFunction", offsets: np.ndarray, weights: np.ndarray) -> "LatticeFunction":
    """x -> sum_j weights[j] f(x - offsets[j]), each point's terms in offset order; exact zeros dropped."""
    sums, _, points_of = _apply_offsets(f._points, f._values, offsets, weights)
    keep = np.flatnonzero(sums)
    values = sums[keep]
    del sums  # before points_of builds its cell keys
    return _from_sorted(f.dim, points_of(keep), values)


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

    `method` is "direct" (exact on integer-valued inputs: _apply_offsets
    with g as the start and f as the weighted offsets, so each point takes
    its products in the order of f; the Minkowski box must have < 2^63
    cells) or "fft" (real transforms; rounding leaves ~1e-15 entries where
    the exact result is 0).
    """
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim} vs {g.dim}")
    if method not in ("direct", "fft"):
        raise ValueError(f"unknown convolution method {method!r}")
    if not len(f) or not len(g):
        return LatticeFunction(f.dim)
    if method == "fft":
        return _convolve_fft(f, g)
    return _offset_sum(g, f._points, f._values)


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
