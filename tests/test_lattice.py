"""Function-space basics: storage, norms, convolution, reflection."""

import gc
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import chain, repeat

import numpy as np
import pytest

from paravg import cutoff, lattice
from paravg.cutoff import OperatorParams
from paravg.lattice import (
    LatticeFunction,
    box_indicator,
    convolve,
    delta,
    lp_norm,
    reflect,
    shift,
)


def random_sparse(rng, dim=2, count=100, span=20):
    pts = rng.integers(-span, span + 1, size=(count, dim))
    vals = rng.standard_normal(count)
    return LatticeFunction(dim, {tuple(map(int, p)): float(v) for p, v in zip(pts, vals)})


def test_delta_point_evaluation():
    d = delta((0, 0))
    assert d((0, 0)) == 1
    assert d((1, 0)) == 0
    for p in (1, 7 / 4, 2, math.inf):
        assert lp_norm(delta((3, -2)), p) == 1.0


def test_box_indicator_counts():
    b = box_indicator((1, 1), (2, 2))
    assert len(b) == 4
    big = box_indicator((1, 1), (6, 18))
    assert len(big) == 108
    assert lp_norm(big, 2) == math.sqrt(108)
    assert box_indicator((0, 0), (0, 0)) == delta((0, 0))
    with pytest.raises(ValueError):
        box_indicator((1, 5), (3, 4))


def test_lp_norm_examples_and_errors():
    N = 4
    b = box_indicator((1, 1), (N, N * N))
    assert lp_norm(b, 2) == 8.0  # (N^3)^(1/2) = 64^(1/2)
    assert lp_norm(b, 1) == 64.0
    assert lp_norm(b, math.inf) == 1.0
    two = 2 * delta((0, 0)) + 2 * delta((5, 5))
    assert lp_norm(two, 2) == 2 * math.sqrt(2)
    for p in (0.5, math.nan, -math.inf):
        with pytest.raises(ValueError, match="p must be >= 1"):
            lp_norm(b, p)


def test_lp_norm_checks_for_integers_only_at_p_2(monkeypatch):
    f = cutoff.average(box_indicator((1, 1), (16, 128)), OperatorParams.sharp(2, 8))
    g = 3 * delta((0, 0)) - 4 * delta((1, 2)) + 2 * delta((5, 5))
    ps = (1, 1.5, 1.8, math.inf)
    want = {p: lp_norm(h, p) for h in (f, g) for p in ps}

    def refuse(self):
        raise AssertionError("is_integer_valued runs off p = 2")

    monkeypatch.setattr(LatticeFunction, "is_integer_valued", refuse)
    assert {p: lp_norm(h, p) for h in (f, g) for p in ps} == want
    assert lp_norm(g, 1) == 9.0  # 3 + 4 + 2, by the correctly rounded fsum
    monkeypatch.undo()
    calls, real = [], LatticeFunction.is_integer_valued
    monkeypatch.setattr(LatticeFunction, "is_integer_valued", lambda self: calls.append(1) or real(self))
    # the exact integer branch: 9 + 16 + 4 = 29
    assert lp_norm(g, 2) == math.sqrt(29) and lp_norm(g, 2.0) == math.sqrt(29)
    assert len(calls) == 2


def test_convolve_delta_shifts():
    rng = np.random.default_rng(0)
    g = random_sparse(rng, count=30)
    moved = convolve(delta((2, -3)), g)
    for p, v in g.items():
        assert moved((p[0] + 2, p[1] - 3)) == v


def test_convolve_binomial():
    one = box_indicator((0,), (1,))
    c = convolve(one, one)
    assert [c((k,)) for k in (0, 1, 2)] == [1, 2, 1]


def test_convolve_direct_vs_fft():
    rng = np.random.default_rng(1)
    f = random_sparse(rng)
    g = random_sparse(rng)
    cd = convolve(f, g, "direct")
    cf = convolve(f, g, "fft")
    pts = set(cd.support()) | set(cf.support())
    scale = max(abs(v) for _, v in cd.items())
    worst = max(abs(cd(p) - cf(p)) for p in pts)
    assert worst <= 1e-10 * scale


def test_convolve_bilinear_commutative_exact():
    # integer amplitudes make the direct path exact, so equality is literal
    rng = np.random.default_rng(2)

    def int_sparse(count):
        pts = rng.integers(-5, 6, size=(count, 2))
        vals = rng.integers(-9, 10, size=count)
        return LatticeFunction(2, {tuple(map(int, p)): int(v) for p, v in zip(pts, vals)})

    f, g, h = int_sparse(15), int_sparse(10), int_sparse(10)
    assert convolve(f, g, "direct") == convolve(g, f, "direct")
    lhs = convolve(f, g + h, "direct")
    rhs = convolve(f, g, "direct") + convolve(f, h, "direct")
    assert lhs == rhs
    assert convolve(f, 3 * g, "direct") == 3 * convolve(f, g, "direct")


def test_convolve_young_inequalities():
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = random_sparse(rng, count=40)
        g = random_sparse(rng, count=40)
        c = convolve(f, g, "direct")
        assert lp_norm(c, math.inf) <= lp_norm(f, math.inf) * lp_norm(g, 1) * (1 + 1e-12)
        assert lp_norm(c, 2) <= lp_norm(f, 1) * lp_norm(g, 2) * (1 + 1e-12)


def test_convolve_dimension_mismatch():
    with pytest.raises(ValueError):
        convolve(delta((0, 0)), delta((0, 0, 0)))


def test_reflect_involution_and_isometry():
    rng = np.random.default_rng(4)
    f = random_sparse(rng, count=25)
    assert reflect(delta((1, 2))) == delta((-1, -2))
    assert reflect(reflect(f)) == f
    for p in (1, 1.3, 2, math.inf):
        assert lp_norm(reflect(f), p) == lp_norm(f, p)


def test_dense_sparse_equivalence():
    rng = np.random.default_rng(5)
    f = random_sparse(rng, count=40)
    arr, off = f.to_dense()
    for p, v in f.items():
        idx = tuple(c - o for c, o in zip(p, off))
        assert arr[idx] == v
    back = LatticeFunction.from_dense(arr, off)
    assert back == f


def test_shift_roundtrip():
    rng = np.random.default_rng(6)
    f = random_sparse(rng, count=20)
    assert shift(shift(f, (3, -1)), (-3, 1)) == f
    assert shift(f, (0, 0)) == f


def test_empty_function_behavior():
    f = LatticeFunction(2)
    assert lp_norm(f, 2) == 0.0
    assert lp_norm(f, math.inf) == 0.0
    assert len(convolve(f, delta((0, 0)))) == 0
    with pytest.raises(ValueError):
        f.support_box()


def test_zero_amplitudes_dropped():
    f = LatticeFunction(2, {(0, 0): 0.0, (1, 1): 2.0})
    assert len(f) == 1
    g = f + (-1) * f
    assert len(g) == 0
    assert 0 * f == LatticeFunction(2)


def test_repeated_points_sum_in_input_order():
    # 1e16 + 1 rounds back to 1e16, so the order of the three terms decides the sum
    big = [((0, 0), 1e16), ((0, 0), -1e16), ((0, 0), 1.0), ((2, 1), 5.0)]
    assert LatticeFunction(2, big).items() == [((0, 0), 1.0), ((2, 1), 5.0)]
    cancels = [((0, 0), 1e16), ((0, 0), 1.0), ((0, 0), -1e16), ((2, 1), 5.0)]
    assert LatticeFunction(2, cancels).items() == [((2, 1), 5.0)]


def _old_items(f):
    """The readout before shared ints: one int per coordinate per point."""
    return list(zip(list(zip(*f._points.T.tolist())), f._values.tolist()))


def _assert_readout_matches_the_old_expression(*functions):
    for f in functions:
        old, items, support = _old_items(f), f.items(), f.support()
        assert items == old and support == [p for p, _ in old] and list(f) == support
        assert all(type(c) is int for p, _ in items for c in p) and all(type(v) is float for _, v in items)
        assert f.support() is not support  # a fresh list each call


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_support_and_items_match_row_wise_tuples(dim):
    rng = np.random.default_rng(dim)
    _assert_readout_matches_the_old_expression(LatticeFunction(dim), random_sparse(rng, dim, 60),
                                               random_sparse(rng, dim, 1))


def test_averaged_boxes_read_out_as_the_old_expression():
    for n, N in ((2, 8), (3, 4), (4, 3), (5, 2)):
        sharp = cutoff.average(box_indicator((1,) * n, (2 * N,) * (n - 1) + (n * N**2,)), OperatorParams.sharp(n, N))
        # the smooth cutoff needs N >= 4, where its n = 5 kernel alone has ~5 * 10^4 points: a 2-point box
        smooth = cutoff.average(box_indicator((1,) * n, (1,) * (n - 1) + (2,)), OperatorParams.smooth(n, 4))
        _assert_readout_matches_the_old_expression(sharp, smooth)
    # column 0 spans 3 values over 3 points (shared ints); column 1 spans 10^12 + 6 (its own tolist)
    _assert_readout_matches_the_old_expression(LatticeFunction(2, {(0, 0): 1.0, (1, 10**12): -2.5, (2, -5): 0.25}))


def test_readout_shares_one_int_per_value_of_a_dense_column():
    f = shift(cutoff.average(box_indicator((1, 1), (16, 128)), OperatorParams.sharp(2, 8)), (-1000, -1000))
    for column, (lo, hi) in zip(zip(*f.support()), f.support_box()):
        assert hi - lo < len(column) and len({id(c) for c in column}) == hi - lo + 1


@pytest.mark.parametrize("c", [-(1 << 63), (1 << 63) - 1])
def test_readout_is_exact_at_the_int64_edges(c):
    for points in ([(c, c)], [(c, c), (c, c + 1 if c < 0 else c - 1)]):
        f = LatticeFunction(2, [(p, 1.5) for p in points])
        assert f.support() == sorted(points) and f.items() == [(p, 1.5) for p in sorted(points)]
        assert all(type(x) is int for p in f.support() for x in p)


@pytest.mark.parametrize("enabled", [True, False])
def test_readout_restores_the_collector_state(enabled, monkeypatch):
    f = random_sparse(np.random.default_rng(3), 2, 40)
    seen = []
    column = lattice._column

    def watched(values):
        seen.append(gc.isenabled())
        return column(values)

    def failing(values):
        raise RuntimeError("column")

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(lattice, "_column", watched)
        f.items(), f.support(), list(f)
        assert gc.isenabled() is enabled and seen and not any(seen)  # paused while the tuples are built
        monkeypatch.setattr(lattice, "_column", failing)
        for read in (f.items, f.support):
            with pytest.raises(RuntimeError, match="column"):
                read()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_readout_peaks_below_the_row_wise_expression():
    f = cutoff.average(box_indicator((1, 1), (48, 1152)), OperatorParams.sharp(2, 24))
    assert f.items() == _old_items(f)
    assert _traced_peak(f.items) <= 0.85 * _traced_peak(lambda: _old_items(f))


def test_storage_is_sorted_and_read_only():
    f = LatticeFunction(2, [((3, -1), 2.0), ((-4, 7), 1.0), ((3, -2), -1.0), ((-4, 7), 0.5)])
    assert f.support() == [(-4, 7), (3, -2), (3, -1)]
    assert f.items() == sorted(f.items())
    assert list(f) == f.support()
    built = (f, f + f, 2 * f, reflect(f), shift(f, (1, 1)), convolve(f, f), box_indicator((0, 0), (2, 2)),
             convolve(f, f, "fft"), LatticeFunction.from_dense(np.arange(4).reshape(2, 2), (0, 0)),
             cutoff.average(f, OperatorParams.smooth(2, 4)), cutoff.paraboloid_kernel(OperatorParams.sharp(2, 3)))
    for g in built:
        assert g.items() == sorted(g.items()) and g._values.dtype == np.float64
        for array in (g._points, g._values):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


def test_scalar_dimension_guards():
    with pytest.raises(ValueError):
        LatticeFunction(0)
    with pytest.raises(ValueError):
        LatticeFunction(2, {(1, 2, 3): 1.0})
    with pytest.raises(ValueError):
        shift(delta((0, 0)), (1,))


def _lexsort_canonical(dim, points, values):
    """The previous canonicalizer: a stable lexsort, np.add.at in input order, zeros dropped."""
    order = np.lexsort(points.T[::-1])
    points = points[order]
    new = np.ones(len(points), dtype=bool)
    new[1:] = np.any(points[1:] != points[:-1], axis=1)
    sums = np.zeros(int(np.count_nonzero(new)))
    np.add.at(sums, np.cumsum(new) - 1, values[order])
    keep = sums != 0
    return points[new][keep], sums[keep]


def _assert_canonical_matches(dim, points, values):
    f = lattice._canonical(dim, points, values)
    want_points, want_values = _lexsort_canonical(dim, points, values)
    assert f._points.dtype == np.int64 and f._points.shape == (len(want_values), dim)
    assert np.array_equal(f._points, want_points)
    assert f._values.dtype == np.float64 and f._values.tobytes() == want_values.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("span", [2, 6, 10**4])
def test_row_major_keys_match_lexsort(dim, span):
    rng = np.random.default_rng(dim * 31 + span % 97)
    for count in (0, 1, 7, 200, 3000):
        points = rng.integers(-span, span + 1, size=(count, dim))
        values = rng.standard_normal(count)
        # sums that cancel to exactly 0, signed zeros and terms whose order decides the sum
        values[: count // 4] = rng.choice([1e16, -1e16, 1.0, -1.0, 0.0, -0.0], size=count // 4)
        values[count // 4 : count // 3] = -0.0
        _assert_canonical_matches(dim, points, values)


_ADD = np.add


class _AddSpy:
    """np.add, logging the dtype of each np.add.at target."""

    def __init__(self, calls):
        self.calls = calls

    def at(self, target, *args):
        self.calls.append(f"add.at {target.dtype}")
        return _ADD.at(target, *args)

    def __call__(self, *args, **kwargs):
        return _ADD(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(_ADD, name)


def test_both_reductions_are_used(monkeypatch):
    calls = []
    monkeypatch.setattr(np, "add", _AddSpy(calls))
    real_argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append("argsort") or real_argsort(*a, **k))
    points = np.argwhere(np.ones((5, 6, 7), dtype=bool))[np.random.default_rng(3).permutation(210)]
    box = LatticeFunction(3, [(tuple(p), 1.0) for p in points.tolist()])
    assert calls == ["add.at float64"] and box == box_indicator((0, 0, 0), (4, 5, 6))
    calls.clear()
    far = LatticeFunction(2, [((10**9, 3), 1.0), ((0, -1), 2.0), ((10**9, 3), 0.5)])
    assert calls == ["argsort", "add.at float64"] and far.items() == [((0, -1), 2.0), ((10**9, 3), 1.5)]
    calls.clear()
    assert convolve(far, far).items() == [((0, -2), 4.0), ((10**9, 2), 6.0), ((2 * 10**9, 6), 2.25)]
    assert calls == ["argsort", "add.at float64"]


def _convolve_direct(dim, pf, vf, pg, vg):
    """The former direct sum, kept as the oracle: vf[i] vg[j] at pf[i] + pg[j], the pairs f-major, all at once."""
    points = (pf[:, None, :] + pg[None, :, :]).reshape(-1, dim)
    return lattice._canonical(dim, points, (vf[:, None] * vg[None, :]).ravel())


def _assert_direct_matches_pair_oracle(pf, vf, g):
    """The apply with g as the start and (pf, vf) as the weighted offsets, against both pair oracles."""
    h = lattice._offset_sum(g, pf, vf)
    _assert_same_function(h, _convolve_direct(g.dim, pf, vf, g._points, g._values))
    points = (pf[:, None, :] + g._points[None, :, :]).reshape(-1, g.dim)
    want_points, want_values = _lexsort_canonical(g.dim, points, (vf[:, None] * g._values[None, :]).ravel())
    assert np.array_equal(h._points, want_points) and h._values.tobytes() == want_values.tobytes()


def test_dense_and_sparse_convolution_match_pair_oracle(monkeypatch):
    rng = np.random.default_rng(7)
    dense, sparse = (random_sparse(rng, 3, 60, span) for span in (3, 10**4))
    # a dense box with repeated points and values whose sums depend on the order of their terms
    parts = [1e16, -1e16, 1.0, -1.0, 0.0, -0.0]
    pf, pg = rng.integers(-3, 4, size=(40, 2)), rng.integers(-3, 4, size=(50, 2))
    vf, vg = rng.choice(parts, 40), rng.choice(parts, 50)
    vf[:8] = rng.standard_normal(8)
    # a start that fills its box and outnumbers the offsets goes by slices on a dense window; the sparse
    # offsets widen it to ~8e12 cells, so the filled start goes by numbered cells there, as the other starts do
    filled = LatticeFunction.from_dense(rng.standard_normal((6, 7, 5)), (-2, 1, 0))
    # one block, blocks of a few offset rows, then of one row, as g is longer than a block
    for block in (lattice._PAIR_BLOCK, 128, 16):
        monkeypatch.setattr(lattice, "_PAIR_BLOCK", block)
        for f in (dense, sparse):
            g = f * 0.5 + random_sparse(rng, 3, 40, 3)
            _assert_direct_matches_pair_oracle(f._points, f._values, g)
            assert convolve(f, g) == _convolve_direct(3, f._points, f._values, g._points, g._values)
            _assert_direct_matches_pair_oracle(f._points, f._values, filled)
        # the offsets keep their repeated points; the start is a function, so its repeats are summed
        _assert_direct_matches_pair_oracle(pf, vf, LatticeFunction(2, zip(map(tuple, pg.tolist()), vg)))
        _assert_direct_matches_pair_oracle(pg, vg, LatticeFunction(2, zip(map(tuple, pf.tolist()), vf)))


def test_numbered_apply_checks_its_peak_against_the_budget(monkeypatch):
    f = LatticeFunction(1, [((0,), 1.0), ((10**9,), 2.0)])
    g = LatticeFunction(1, [((k * 10**6,), 1.0) for k in range(50)])
    # 2 x 50 cell keys at 25 bytes, and one block of products and their keys at 16 bytes a term:
    # both offset rows, then one row once the block is cut to 50 terms
    for block, need in ((lattice._PAIR_BLOCK, 25 * 100 + 16 * 100), (50, 25 * 100 + 16 * 50)):
        monkeypatch.setattr(lattice, "_PAIR_BLOCK", block)
        monkeypatch.setattr(lattice, "ALLOC_BUDGET_BYTES", need)
        assert len(convolve(f, g)) == 100
        monkeypatch.setattr(lattice, "ALLOC_BUDGET_BYTES", need - 1)
        with pytest.raises(ValueError, match=rf"kernel apply of 2 offsets to 50 points needs {need} bytes"):
            convolve(f, g)


def test_dense_window_is_added_whole_and_a_sparse_one_is_numbered(monkeypatch):
    sorts, real_argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or real_argsort(*a, **k))
    adds = []
    monkeypatch.setattr(np, "add", _AddSpy(adds))
    # 10^4 offsets on a start of 9801 points: a 198^2-cell window, too few points for slices, added by
    # np.add.at without a sort; numbering its 9.8e7 cell keys would need 2.45 GB
    h = convolve(box_indicator((0, 0), (99, 99)), box_indicator((0, 0), (98, 98)))
    side = np.convolve(np.ones(100), np.ones(99))
    assert not sorts and adds and h == LatticeFunction.from_dense(np.outer(side, side), (0, 0))
    adds.clear()
    assert convolve(box_indicator((0, 0), (98, 98)), box_indicator((0, 0), (99, 99))) == h  # by slices
    assert not sorts and not adds
    # a full 10 x 10 start outnumbers its 100 spread offsets, but their window of ~10^7 cells is sparse
    f = LatticeFunction(2, [((0, k * 10**4), 1.0 + k) for k in range(100)])
    g = LatticeFunction.from_dense(np.random.default_rng(5).standard_normal((10, 10)), (0, 0))
    sorts.clear()  # f's own points were sorted as it was built
    h = convolve(f, g)
    assert sorts == [1] and len(h) == 10_000
    _assert_same_function(h, _convolve_direct(2, f._points, f._values, g._points, g._values))


def _window_apply(points: np.ndarray, values: np.ndarray, offsets: np.ndarray, weights: np.ndarray):
    """Oracle: the fancy-index window, grid[cells] += weight * values once per offset over the start's whole window.

    Returns the flat window, each point's flat cells in offset order, and the window's corner and shape.
    """
    lo = points.min(0) + offsets.min(0)
    shape = (points.max(0) + offsets.max(0) - lo + 1).tolist()
    strides = np.array([math.prod(shape[i + 1 :]) for i in range(len(shape))], dtype=np.int64)
    grid = np.zeros(math.prod(shape))
    base, steps = (points - lo) @ strides, offsets @ strides
    for step, w in zip(steps.tolist(), weights.tolist()):  # base holds distinct cells, so one add per cell and offset
        grid[base + step] += w * values
    return grid, base[:, None] + steps, lo, shape


def _ascent_starts(n: int, N: int) -> dict:
    """The ascent's box, delta and cloud starts, and the box less one point, as sorted distinct points."""
    box = np.indices((2 * N,) * (n - 1) + (n * N * N,), dtype=np.int64).reshape(n, -1).T + 1
    rng = np.random.default_rng(n * 100 + N)
    cloud = rng.integers((-2 * N,) * (n - 1) + (-4 * N * N,), (2 * N,) * (n - 1) + (4 * N * N,), size=(4 * N, n))
    return {"box": box, "delta": np.zeros((1, n), dtype=np.int64), "cloud": np.unique(cloud, axis=0),
            "holed box": np.delete(box, len(box) // 3, axis=0)}


@pytest.mark.parametrize("kind, n, N", [("sharp", 2, 4), ("sharp", 2, 8), ("sharp", 2, 16), ("sharp", 2, 24),
                                        ("sharp", 3, 3), ("sharp", 3, 4), ("sharp", 3, 6),
                                        ("smooth", 2, 4), ("smooth", 2, 8), ("smooth", 3, 4)])
def test_apply_offsets_matches_the_fancy_index_window(kind, n, N, monkeypatch):
    kernel = cutoff.paraboloid_kernel(OperatorParams(n, N, cutoff.CutoffProfile(kind, N)))
    offsets, weights = -kernel._points, kernel._values
    sorts, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
    for name, points in _ascent_starts(n, N).items():
        values = 1.0 + np.random.default_rng(len(points)).random(len(points))  # not integers: the add order shows
        window, cells, lo, shape = _window_apply(points, values, offsets, weights)
        sorts.clear()
        # the box and the delta fill their bounding boxes and may go in as their extents
        start = tuple((points.max(0) - points.min(0) + 1).tolist()) if name in ("box", "delta") else points
        sums, cells_of, points_of = lattice._apply_offsets(start, values, offsets, weights)
        if name in ("box", "holed box"):  # a dense window, whole: by slices, or by np.add.at once a point is missing
            assert not sorts and len(sums) == len(window)
            assert sums.tobytes() == window.tobytes(), name
            reached = np.arange(len(window))
        else:  # one point against N^(n-1) offsets, a cloud: a sparse window, its distinct cells numbered in its order
            reached = np.flatnonzero(window)
            assert sorts and len(sums) == len(reached), name
            assert sums.tobytes() == window[reached].tobytes(), name
            cells = np.searchsorted(reached, cells)
        for i in np.unique(np.linspace(0, len(points) - 1, 300).astype(int)).tolist():
            assert (cells_of(i) == cells[i]).all(), (name, i)
        corner = points.min(0) if isinstance(start, tuple) else 0  # an extent is a box at the origin
        assert np.array_equal(points_of(np.arange(len(sums))) + corner, np.argwhere(np.ones(shape, dtype=bool))[reached] + lo)


def test_average_takes_slices_on_the_box_and_numbered_cells_on_the_delta(monkeypatch):
    # one point against 256 offsets by slices would add 256 windows of the kernel's span; numbered, it sorts 256 keys.
    # The box's window, 23 x 23 x 574 cells, has fewer than 2 cells per term.
    params = OperatorParams.sharp(3, 16)
    box, point = box_indicator((1, 1, 1), (8, 8, 64)), delta((0, 0, 0))
    # the oracles build and cache the kernel, which sorts its own points
    want_point, want_box = _averaged_by_pairs(point, params), _averaged_by_pairs(box, params)
    calls, real_argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or real_argsort(*a, **k))
    point_average = cutoff.average(point, params)
    assert calls == [1] and len(point_average) == 256
    calls.clear()
    box_average = cutoff.average(box, params)
    assert not calls
    _assert_same_function(point_average, want_point)
    _assert_same_function(box_average, want_box)


def _averaged_by_pairs(f, params):
    """The average from the pair oracle, divided once."""
    kernel = cutoff._kernel(params)
    raw = _convolve_direct(params.n, -kernel._points, kernel._values, f._points, f._values)
    return lattice._canonical(params.n, raw._points, raw._values / float(params.N ** (params.n - 1)))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sorted_constructors_match_the_reduction(dim):
    rng = np.random.default_rng(dim)
    lo = rng.integers(-5, 5, size=dim)
    box = box_indicator(tuple(lo), tuple(lo + rng.integers(0, 6, size=dim)))
    _assert_same_function(box, lattice._canonical(dim, np.array(box._points), box._values.copy()))
    # zeros, signed zeros and nan
    shape = (4,) * dim
    array = rng.choice([0.0, -0.0, 1.0, -2.5, np.nan], size=shape)
    offset = tuple(rng.integers(-9, 9, size=dim).tolist())
    nonzero = array != 0
    want = lattice._canonical(dim, np.argwhere(nonzero) + np.array(offset), array[nonzero])
    _assert_same_function(LatticeFunction.from_dense(array, offset), want)


def _assert_same_function(f, g):
    assert f.dim == g.dim and f._points.tobytes() == g._points.tobytes() and f._points.shape == g._points.shape
    assert f._values.tobytes() == g._values.tobytes()


def test_boxes_beyond_int64_keys_are_refused():
    with pytest.raises(ValueError, match="support box"):
        LatticeFunction(3, [((0, 0, 0), 1.0), ((2**40, 2**40, 2**40), 1.0)])
    for h in (2**62, -(2**62) - 1):  # the sum of the two boxes leaves int64
        with pytest.raises(ValueError, match="support box"):
            convolve(delta((h,)), delta((h,)))
    far = LatticeFunction(1, [((2**61,), 1.0), ((-(2**61),), 2.0)])
    assert far.items() == [((-(2**61),), 2.0), ((2**61,), 1.0)]
    assert reflect(far).items() == [((-(2**61),), 1.0), ((2**61,), 2.0)]


def test_histogram_over_budget_takes_the_sort_branch(monkeypatch):
    rng = np.random.default_rng(8)
    points = np.argwhere(np.ones((20, 20), dtype=bool))[rng.permutation(800) % 400]
    values = rng.standard_normal(800)
    monkeypatch.setattr(lattice, "ALLOC_BUDGET_BYTES", 8 * 400 - 1)
    calls = []
    real_argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append("argsort") or real_argsort(*a, **k))
    _assert_canonical_matches(2, points, values)  # the oracle sorts by np.lexsort
    assert calls == ["argsort"], "histogram used"


def _generator_lp_norm(values, p):
    """The previous general lp_norm path: Python abs and ** per value, then fsum."""
    values = values.tolist()
    if p == math.inf:
        return max(abs(v) for v in values)
    return float(np.power(math.fsum(abs(v) ** p for v in values), 1.0 / p))


_NORM_PS = (1.5, 1.8, 2.25, 3, math.inf)


def _averaged_boxes():
    """(f, the p in _NORM_PS at which the generator's |v|^p neither underflow nor overflow)."""
    for params in (OperatorParams.sharp(2, 24), OperatorParams.sharp(3, 6), OperatorParams.smooth(2, 8)):
        box = box_indicator((1,) * params.n, (2 * params.N,) * (params.n - 1) + (params.n * params.N**2,))
        yield cutoff.average(box, params), _NORM_PS
    box = box_indicator((1, 1), (32, 512))
    yield convolve(reflect(cutoff.paraboloid_kernel(OperatorParams.sharp(2, 16))), box, method="fft"), _NORM_PS
    rng = np.random.default_rng(5)
    # at 1e-200 only |v|^1.5 stays normal; the other p are test_lp_norm_scales_extreme_magnitudes'
    for scale, ps in ((1e-200, (1.5,)), (1.0, _NORM_PS), (1e100, _NORM_PS)):
        values = scale * rng.standard_normal(5000)
        yield LatticeFunction(1, zip(((i,) for i in range(5000)), values)), ps


def test_lp_norm_matches_generator_bitwise():
    for f, ps in _averaged_boxes():
        for p in ps:
            assert lp_norm(f, p) == _generator_lp_norm(f._values, p)
    # one point each, so a modulus one ulp off is not averaged away by the sum
    rng = np.random.default_rng(6)
    values = rng.standard_normal(400) * 10.0 ** rng.uniform(-80, 80, 400)
    for v in values.tolist():
        f = LatticeFunction(1, [((0,), v)])
        for p in _NORM_PS:
            assert lp_norm(f, p) == _generator_lp_norm(f._values, p)


@pytest.mark.parametrize("scale", [1e-200, 1e-170, 1e160])
def test_lp_norm_scales_extreme_magnitudes(scale):
    # unscaled, |v|^2 underflows to 0 below ~1.5e-162 and the square sums overflow
    # above ~1.3e154 (the exact integer branch too: 1e160 times an integer is one)
    rng = np.random.default_rng(7)
    points = [(i, -i) for i in range(300)]
    gaussian = rng.standard_normal(300)
    integers = rng.integers(-3, 4, 300).astype(float)
    for values in (gaussian, integers):
        f, g = LatticeFunction(2, zip(points, values)), LatticeFunction(2, zip(points, scale * values))
        for p in (1, 1.8, 2, math.inf):
            assert lp_norm(g, p) == pytest.approx(scale * lp_norm(f, p), rel=1e-13, abs=0.0), p


def _expanded_power_sum(x, p):
    """The power sum term by term: math.pow of every value, then one math.fsum."""
    return math.fsum(map(math.pow, x.tolist(), repeat(p)))


def _outcome(fn, *args):
    """fn's float, "nan" for a nan, or the type of the error it raised."""
    try:
        value = fn(*args)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return "nan" if value != value else value


def _repeated_values(rng):
    """Shuffled arrays of few distinct values each, with the edge values the sum must keep."""
    pools = [
        rng.random(24),
        np.array([0.0, 0.0, 1.0, 3.0]),
        np.array([5e-324, 1e-320, 2.2250738585072014e-308, 1e-310, 0.5]),
        np.array([math.inf, 2.0, 7.5]),
        np.array([math.nan, math.inf, 1.25]),
        np.array([2.0**1000 * 1.5, 1.0]),
        10.0 ** rng.uniform(-300, 300, 40),
    ]
    for pool in pools:
        for size in (1, 2, 7, 1000, 70_000):
            yield rng.permutation(np.resize(pool, size))
    yield np.array([2.0**1000 * 1.5] * 2)  # taken twice: 2^1001.6, still finite at p = 1
    yield np.array([1.5e308] * 2)  # the doubled term overflows, as the expanded sum does


@pytest.mark.parametrize("chunk", [None, 64])
def test_power_sum_matches_the_expanded_fsum(monkeypatch, chunk):
    if chunk:  # runs that span chunks are cut in two, which must not move a bit
        monkeypatch.setattr(lattice, "_POWER_CHUNK", chunk)
    rng = np.random.default_rng(11)
    for x in _repeated_values(rng):
        for p in (1.0, 1.5, 1.8, 2.0, 2.25, 3.0):
            expected = _outcome(_expanded_power_sum, x, p)
            assert _outcome(lattice._power_sum, x.copy(), p) == expected, (x[:5], len(x), p)


def test_power_terms_sum_weighted_values_correctly_rounded():
    rng = np.random.default_rng(12)
    for trial in range(200):
        k = int(rng.integers(1, 40))
        values = rng.random(k) * 10.0 ** rng.uniform(-30, 30, k)
        mult = rng.integers(1, 2 ** int(rng.integers(1, 41)), k, endpoint=True)
        mult[rng.random(k) < 0.3] = 1
        for p in (1.0, 1.8, 2.25):
            exact = sum(Fraction(int(m)) * Fraction(math.pow(v, p)) for v, m in zip(values.tolist(), mult))
            total = math.fsum(chain.from_iterable(lattice._power_terms(values, mult, p)))
            assert total == float(exact), (trial, p)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lp_norm_on_distinct_amplitudes_peaks_below_the_expanded_path():
    # 10^6 distinct moduli: the expanded path holds them as an array and as one list of
    # Python floats (40 MB); the grouped sum holds one chunk's temporaries next to the array
    values = 1.0 + np.random.default_rng(13).random(10**6)
    assert len(np.unique(values)) == len(values)
    f = LatticeFunction.from_dense(values, (0,))
    expanded = _traced_peak(lambda: _expanded_power_sum(np.abs(f._values), 1.8))
    assert _traced_peak(lambda: lp_norm(f, 1.8)) <= expanded
    moduli = np.abs(f._values)
    assert _traced_peak(lambda: lattice._power_sum(moduli, 1.8)) <= expanded / 4


def test_lp_norm_is_inf_where_the_scaled_norm_overflows():
    # each amplitude is finite, but the norm lies above the largest double
    f = LatticeFunction(2, [((0, 0), 1.5e308), ((0, 1), -1.5e308), ((1, 0), 1e308)])
    for p in (1, 1.8, 2):
        assert lp_norm(f, p) == math.inf, p
    assert lp_norm(f, math.inf) == 1.5e308
    # an inf amplitude is no integer, so p = 2 sums by fsum (inf) and never calls int(inf)
    g = LatticeFunction(1, [((0,), -math.inf), ((1,), 2.0)])
    assert not g.is_integer_valued()
    for p in (1, 1.8, 2, math.inf):
        assert lp_norm(g, p) == math.inf, p


def test_constructor_refuses_a_complex_amplitude():
    # the message names the first amplitude with an imaginary part, else the first amplitude
    for bad in (1 + 2j, np.complex128(-0.5j), np.complex64(3 + 1j)):
        with pytest.raises(ValueError, match=re.escape(f"complex amplitude {complex(bad)!r}")):
            LatticeFunction(2, [((0, 0), 2.0), ((1, 1), bad)])
    with pytest.raises(ValueError, match=re.escape("complex amplitude (2+0j)")):
        LatticeFunction(2, [((0, 0), 2.0), ((1, 1), 1 + 0j)])
    assert LatticeFunction(2, [((0, 0), np.float32(0.5)), ((1, 1), 2)]).items() == [((0, 0), 0.5), ((1, 1), 2.0)]


def test_from_dense_refuses_a_complex_array():
    with pytest.raises(ValueError, match=re.escape("complex amplitude (2+3j)")):
        LatticeFunction.from_dense(np.array([[0, 1], [2 + 3j, 4j]]), (0, 0))
    with pytest.raises(ValueError, match=re.escape("complex amplitude 0j")):
        LatticeFunction.from_dense(np.array([0, 1, 5], dtype=np.complex64), (0,))
    f = LatticeFunction.from_dense(np.array([0, 1, -3]), (4,))
    assert f._values.dtype == np.float64 and f.items() == [((5,), 1.0), ((6,), -3.0)]


def test_scaling_by_a_complex_scalar_is_refused():
    f = LatticeFunction(2, [((0, 0), 1.0), ((1, 1), -2.0)])
    for scale in (lambda: f * 1j, lambda: (2 + 0j) * f, lambda: f * np.complex128(1)):
        with pytest.raises(ValueError, match="complex amplitude"):
            scale()
    assert (f * np.float32(0.5)).items() == [((0, 0), 0.5), ((1, 1), -1.0)]


def test_lp_norm_at_p_1_is_the_exact_integer_sum_rounded_once():
    # the removed p = 1 branch returned float(sum |v|) over Python integers; the fsum path
    # rounds the same exact sum once, so it keeps those bits, past 2^53 too
    rng = np.random.default_rng(14)
    cases = [[2.0**53, 1.0], [2.0**53, 1.0, 1.0], [2.0**53 + 2, -1.0], [-(2.0**60), 3.0, -5.0, 7.0]]
    for _ in range(300):
        top = 2 ** int(rng.integers(1, 63))
        cases.append(rng.integers(-top, top, size=int(rng.integers(1, 300))).astype(float))
    rounded = 0
    for values in cases:
        f = LatticeFunction(1, zip(((i,) for i in range(len(values))), values))
        exact = sum(abs(int(v)) for v in f._values.tolist())
        assert f.is_integer_valued() and lp_norm(f, 1) == float(exact), values[:4]
        rounded += float(exact) != exact
    assert rounded >= 50  # 65 of these sums are not doubles


def _complex_era_sup_norm(values):
    """The removed p = inf path on real values: the root of the largest square, scaled by 2^-e if needed."""
    re, im = values, np.zeros_like(values)
    e = math.frexp(float(np.max(np.abs(re))))[1]
    if 2.0 * (e - 1) >= -1000 and 2.0 * (e + 0.5) + len(re).bit_length() <= 1023:
        e = 0
    else:
        re, im = np.ldexp(re, -e), np.ldexp(im, -e)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(float(np.max(re * re + im * im))), e))


def test_lp_norm_at_inf_is_the_old_root_of_the_largest_square():
    rng = np.random.default_rng(15)
    tiny, huge = 5e-324, 1.7976931348623157e308
    cases = [[1e308], [-1e308], [1e308, -huge], [tiny], [-tiny], [-tiny, 1e-310, 2.2250738585072014e-308],
             [tiny, 1.0], [-1e308, 2.0, -tiny]]
    for scale in (1e-320, 1e-310, 1e-160, 1.0, 1e160, 1e300):
        cases.append(scale * rng.standard_normal(50))
    cases += [rng.standard_normal(20) * 10.0 ** rng.uniform(-323, 308, 20) for _ in range(200)]
    for values in cases:
        f = LatticeFunction(1, zip(((i,) for i in range(len(values))), values))
        assert lp_norm(f, math.inf) == _complex_era_sup_norm(f._values), values[:3]
