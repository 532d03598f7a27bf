"""Function-space basics: storage, norms, convolution, reflection."""

import math

import numpy as np
import pytest

from paravg.lattice import (
    LatticeFunction,
    box_indicator,
    convolve,
    delta,
    lp_norm,
    reflect,
    shift,
)


def random_sparse(rng, dim=2, count=100, span=20, complex_vals=False):
    pts = rng.integers(-span, span + 1, size=(count, dim))
    if complex_vals:
        vals = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    else:
        vals = rng.standard_normal(count)
    return LatticeFunction(dim, {tuple(map(int, p)): complex(v) for p, v in zip(pts, vals)})


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
    with pytest.raises(ValueError):
        lp_norm(b, 0.5)


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
    f = random_sparse(rng, complex_vals=True)
    g = random_sparse(rng, complex_vals=True)
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
        f = random_sparse(rng, count=40, complex_vals=True)
        g = random_sparse(rng, count=40, complex_vals=True)
        c = convolve(f, g, "direct")
        assert lp_norm(c, math.inf) <= lp_norm(f, math.inf) * lp_norm(g, 1) * (1 + 1e-12)
        assert lp_norm(c, 2) <= lp_norm(f, 1) * lp_norm(g, 2) * (1 + 1e-12)


def test_convolve_dimension_mismatch():
    with pytest.raises(ValueError):
        convolve(delta((0, 0)), delta((0, 0, 0)))


def test_reflect_involution_and_isometry():
    rng = np.random.default_rng(4)
    f = random_sparse(rng, complex_vals=True, count=25)
    assert reflect(delta((1, 2))) == delta((-1, -2))
    assert reflect(reflect(f)) == f
    for p in (1, 1.3, 2, math.inf):
        assert lp_norm(reflect(f), p) == lp_norm(f, p)


def test_dense_sparse_equivalence():
    rng = np.random.default_rng(5)
    f = random_sparse(rng, count=40, complex_vals=True)
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
    assert LatticeFunction(2, big).items() == [((0, 0), 1 + 0j), ((2, 1), 5 + 0j)]
    cancels = [((0, 0), 1e16), ((0, 0), 1.0), ((0, 0), -1e16), ((2, 1), 5.0)]
    assert LatticeFunction(2, cancels).items() == [((2, 1), 5 + 0j)]


def test_storage_is_sorted_and_read_only():
    f = LatticeFunction(2, [((3, -1), 2.0), ((-4, 7), 1.0), ((3, -2), -1.0), ((-4, 7), 0.5)])
    assert f.support() == [(-4, 7), (3, -2), (3, -1)]
    assert f.items() == sorted(f.items())
    assert list(f) == f.support()
    for g in (f, f + f, 2 * f, reflect(f), shift(f, (1, 1)), convolve(f, f), box_indicator((0, 0), (2, 2))):
        assert g.items() == sorted(g.items())
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
