"""Function-space basics: storage, norms, convolution, reflection."""

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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_support_and_items_match_row_wise_tuples(dim):
    rng = np.random.default_rng(dim)
    for f in (LatticeFunction(dim), random_sparse(rng, dim, 60), random_sparse(rng, dim, 1)):
        rows = [tuple(row) for row in f._points.tolist()]
        assert f.support() == rows and all(type(c) is int for p in f.support() for c in p)
        assert f.items() == list(zip(rows, f._values.tolist()))


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


def _assert_direct_matches_pair_oracle(pf, vf, pg, vg):
    points = (pf[:, None, :] + pg[None, :, :]).reshape(-1, pf.shape[1])
    values = (vf[:, None] * vg[None, :]).ravel()
    want_points, want_values = _lexsort_canonical(pf.shape[1], points, values)
    h = lattice._convolve_direct(pf.shape[1], pf, vf, pg, vg)
    assert np.array_equal(h._points, want_points) and h._values.tobytes() == want_values.tobytes()


def test_dense_and_sparse_convolution_match_pair_oracle(monkeypatch):
    rng = np.random.default_rng(7)
    dense, sparse = (random_sparse(rng, 3, 60, span) for span in (3, 10**4))
    # a dense box with repeated points and values whose sums depend on the order of their terms
    parts = [1e16, -1e16, 1.0, -1.0, 0.0, -0.0]
    pf, pg = rng.integers(-3, 4, size=(40, 2)), rng.integers(-3, 4, size=(50, 2))
    vf, vg = rng.choice(parts, 40), rng.choice(parts, 50)
    vf[:8] = rng.standard_normal(8)
    # one block, blocks of 2 rows of f, then of 1 row, as g is longer than a block
    for block in (lattice._PAIR_BLOCK, 128, 16):
        monkeypatch.setattr(lattice, "_PAIR_BLOCK", block)
        for f in (dense, sparse):
            g = f * 0.5 + random_sparse(rng, 3, 40, 3)
            _assert_direct_matches_pair_oracle(f._points, f._values, g._points, g._values)
        _assert_direct_matches_pair_oracle(pf, vf, pg, vg)
        _assert_direct_matches_pair_oracle(pg, vg, pf, vf)


def test_sort_branch_checks_the_joined_pairs_against_the_budget(monkeypatch):
    f = LatticeFunction(1, [((0,), 1.0), ((10**9,), 2.0)])
    g = LatticeFunction(1, [((k * 10**6,), 1.0) for k in range(50)])
    monkeypatch.setattr(lattice, "ALLOC_BUDGET_BYTES", 100 * 8 - 1)
    assert len(convolve(f, g)) == 100  # one block: its pairs exist already
    monkeypatch.setattr(lattice, "_PAIR_BLOCK", 50)
    with pytest.raises(ValueError, match="reduction keys"):
        convolve(f, g)


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
