"""Quadratic exponential sums, the multiplier, and rational approximation."""

import math

import numpy as np
import pytest

import paravg.expsums as expsums
from paravg.arcs import totatives
from paravg.cutoff import CutoffProfile, OperatorParams, paraboloid_kernel
from paravg.expsums import (
    _torus_signed,
    dirichlet_approx,
    dirichlet_approx_batch,
    gauss_bound_report,
    gauss_row_max,
    gauss_sum,
    multiplier,
    torus_distance,
)


def test_gauss_sum_zero_frequency_is_mass():
    assert gauss_sum(0, 0, CutoffProfile("sharp", 5)) == 5
    sm = CutoffProfile("smooth", 8)
    assert abs(gauss_sum(0, 0, sm) - sm.mass()) < 1e-12


def test_gauss_sum_two_term_cancellation():
    # e(1/2) + e(2) = -1 + 1
    val = gauss_sum(0.5, 0.0, CutoffProfile("sharp", 2))
    assert abs(val) < 1e-14


def test_gauss_sum_periodicity_exact_dyadic():
    sm = CutoffProfile("smooth", 16)
    t, y = 0.375, 0.8125  # dyadic: t+1, y+1 representable exactly
    assert gauss_sum((t + 1) % 1, y, sm) == gauss_sum(t, y, sm)
    assert gauss_sum(t, (y + 1) % 1, sm) == gauss_sum(t, y, sm)


def test_gauss_sum_conjugate_symmetry():
    sm = CutoffProfile("smooth", 32)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        t, y = rng.random(), rng.random()
        lhs = gauss_sum((-t) % 1.0, (-y) % 1.0, sm)
        worst = max(worst, abs(lhs - gauss_sum(t, y, sm).conjugate()))
    assert worst <= 1e-12


def test_multiplier_zero_and_bound():
    assert multiplier((0, 0, 0), OperatorParams.sharp(3, 4)) == 16
    params = OperatorParams.smooth(2, 8)
    cap = params.cutoff.mass() ** (params.n - 1)
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert abs(multiplier(rng.random(2), params)) <= cap + 1e-9


def test_multiplier_equals_kernel_dft():
    params = OperatorParams.sharp(2, 8)
    kernel = paraboloid_kernel(params)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        xi = rng.random(2)
        direct = 0j
        for p, v in kernel.items():
            ph = (
                np.longdouble(p[0]) * np.longdouble(xi[0])
                + np.longdouble(p[1]) * np.longdouble(xi[1])
            ) % np.longdouble(1.0)
            direct += v * np.exp(2j * np.pi * float(ph))
        worst = max(worst, abs(multiplier(xi, params) - direct))
    assert worst <= 1e-10


def test_gauss_row_max_matches_brute():
    sm = CutoffProfile("smooth", 8)
    ts = np.array([0.0, 0.21, 0.5])
    rows = gauss_row_max(ts, sm, 64)
    for t, row in zip(ts, rows):
        brute = max(abs(gauss_sum(float(t), j / 64, sm)) for j in range(64))
        assert abs(row - brute) < 1e-10


def test_dirichlet_examples():
    assert (lambda r: (r.a, r.q))(dirichlet_approx(0.5, 10)) == (1, 2)
    r = dirichlet_approx(0.3, 3)
    assert (r.a, r.q) == (1, 3)
    assert abs(r.err + 1 / 30) < 1e-12
    assert abs(r.err) < 1 / (3 * 3)
    r = dirichlet_approx(0.1415926535, 10)
    assert (r.a, r.q) == (1, 7)
    assert abs(r.err) < 1 / 70


def test_dirichlet_wraparound():
    r = dirichlet_approx(0.999, 5)
    assert (r.a, r.q) == (0, 1)
    assert abs(r.err + 0.001) < 1e-12


def test_dirichlet_certificate_bulk():
    # 1e5 certificates across three scales
    rng = np.random.default_rng(4)
    for N in (10, 50, 513):
        for t in rng.random(34000):
            r = dirichlet_approx(float(t), N)
            assert r.q <= N
            assert math.gcd(r.a, r.q) == 1 or r.a == 0
            assert abs(r.err) <= 1.0 / (r.q * N)
            assert torus_distance(float(t), r.a / r.q) <= abs(r.err) + 1e-15


def test_dirichlet_vs_exhaustive_small():
    rng = np.random.default_rng(5)
    for N in (7, 23, 64):
        for t in rng.random(50):
            t = float(t)
            r = dirichlet_approx(t, N)
            # exhaustive: some fraction with q <= N satisfies the certificate,
            # and the returned one does too (it need not be the closest)
            best = min(
                torus_distance(t, a / q)
                for q in range(1, N + 1)
                for a in range(q)
                if math.gcd(a, q) == 1 or (a, q) == (0, 1)
            )
            assert abs(r.err) >= best - 1e-15
            assert abs(r.err) <= 1.0 / (r.q * N)


def test_gauss_bound_determinism_and_center_convention():
    params = OperatorParams.smooth(2, 32)
    r1 = gauss_bound_report(params, 500, seed=1)
    r2 = gauss_bound_report(params, 500, seed=1)
    assert r1.constant == r2.constant
    assert math.isfinite(r1.constant) and r1.constant > 0


def test_gauss_bound_sweep_uniformity():
    consts = {}
    for N in (16, 32, 64, 128):
        consts[N] = gauss_bound_report(OperatorParams.smooth(2, N), 2000, seed=1).constant
    spread = max(consts.values()) / min(consts.values())
    assert spread < 2.0


def test_gauss_bound_requires_smooth():
    with pytest.raises(ValueError):
        gauss_bound_report(OperatorParams.sharp(2, 32), 10, seed=0)


def test_dirichlet_exact_rationals():
    for a, q in ((0, 1), (1, 2), (2, 5), (3, 7)):
        r = dirichlet_approx(a / q, 10)
        assert (r.a, r.q) == (a, q)
        assert r.err == 0.0


def test_dirichlet_domain_errors():
    with pytest.raises(ValueError):
        dirichlet_approx(1.5, 10)
    with pytest.raises(ValueError):
        dirichlet_approx(0.3, 0)


def test_gauss_row_max_grid_guard():
    sm = CutoffProfile("smooth", 8)
    with pytest.raises(ValueError):
        gauss_row_max(np.array([0.1]), sm, 8)


def test_gauss_row_max_rows_do_not_depend_on_chunking():
    sm = CutoffProfile("smooth", 64)
    ts = np.random.default_rng(8).random(1500)
    rows = gauss_row_max(ts, sm, 512)  # 512 rows per chunk: three chunks, the last partial
    singles = np.concatenate([gauss_row_max(ts[i : i + 1], sm, 512) for i in range(0, 1500, 7)])
    assert np.array_equal(rows[::7], singles)


def _scalar_torus_signed(x: float) -> float:
    r = x % 1.0
    return r - 1.0 if r >= 0.5 else r


def test_torus_signed_matches_python_float_formula():
    boundary = [0.5, -0.5, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 0.0, -0.0, 1.0, -1.0, 0.25, -0.75,
                1e-300, -1e-300, 5e-324, -5e-324, 1.5, 2.5, -2.5, 1e17 + 0.5, -3.0000000000000004]
    xs = np.concatenate([boundary, np.random.default_rng(9).normal(0.0, 3.0, 20000)])
    arr = _torus_signed(xs)
    expected = np.array([_scalar_torus_signed(float(x)) for x in xs])
    assert np.array_equal(arr, expected)
    assert np.array_equal(np.signbit(arr), np.signbit(expected))
    for x in boundary:
        value = _torus_signed(x)
        assert type(value) is float and value == _scalar_torus_signed(x)
        assert -0.5 <= value < 0.5


def _scalar_approx_arrays(ts, N):
    approx = [dirichlet_approx(float(t), N) for t in ts]
    return (
        np.array([r.a for r in approx]),
        np.array([r.q for r in approx]),
        np.array([r.err for r in approx]),
    )


def test_dirichlet_batch_matches_scalar():
    rng = np.random.default_rng(10)
    tiny = [0.0, 5e-324, 1e-310, 2.0**-60, 1.0 - 2.0**-53, 1.0 - 1e-9, 0.999]
    for N in (1, 10, 128, 513):
        exact = [a / q for q in range(1, min(N, 40) + 1) for a in range(q)]
        ts = np.concatenate([rng.random(25_000), tiny, exact])
        a, q, err = dirichlet_approx_batch(ts, N)
        a_ref, q_ref, err_ref = _scalar_approx_arrays(ts, N)
        assert np.array_equal(a, a_ref) and np.array_equal(q, q_ref)
        assert np.array_equal(err, err_ref)
        assert np.all(q <= N) and np.all(np.abs(err) <= 1.0 / (q * N))


def test_dirichlet_handles_subnormal_t():
    # 1/t overflows to inf; the recurrence must stop at 0/1, not raise
    for t in (5e-324, 1e-310):
        r = dirichlet_approx(t, 100)
        assert (r.a, r.q, r.err) == (0, 1, t)


def test_dirichlet_batch_domain_errors():
    with pytest.raises(ValueError):
        dirichlet_approx_batch(np.array([0.2, 1.0]), 10)
    with pytest.raises(ValueError):
        dirichlet_approx_batch(np.array([np.nan]), 10)
    with pytest.raises(ValueError):
        dirichlet_approx_batch(np.array([[0.2]]), 10)
    with pytest.raises(ValueError):
        dirichlet_approx_batch(np.array([0.2]), 0)
    a, q, err = dirichlet_approx_batch(np.array([]), 10)
    assert a.size == q.size == err.size == 0


def _scalar_gauss_bound(params, n_samples, seed):
    """The per-sample loop gauss_bound_report ran before it was batched."""
    from paravg.reports import substream_seed

    N = params.N
    rng = np.random.default_rng(substream_seed(seed, f"gauss_bound:{N}"))
    q_max = max(1, N // 10)
    qs = rng.integers(1, q_max + 1, size=n_samples)
    ys = rng.random(n_samples)
    ts = np.empty(n_samples)
    tot_cache = {q: totatives(q) for q in range(1, q_max + 1)}
    for i, q in enumerate(qs):
        tots = tot_cache[int(q)]
        a = tots[rng.integers(0, len(tots))]
        u = (2 * rng.random() - 1) * 10.0 / (int(q) * N)
        if i == 0:
            u = 0.0
        ts[i] = (a / int(q) + u) % 1.0
    worst = 0.0
    k = params.cutoff.support()
    w = params.cutoff.weights()
    L = np.longdouble
    for i in range(n_samples):
        t = float(ts[i])
        approx = dirichlet_approx(t, N)
        kl = k.astype(L)
        ph = np.asarray((L(ys[i]) * kl + L(t) * kl * kl) % L(1.0), dtype=float)
        g = abs(np.sum(w * np.exp(2j * np.pi * ph)))
        cap = N if approx.err == 0.0 else min(N, 1.0 / math.sqrt(abs(approx.err)))
        worst = max(worst, g * math.sqrt(approx.q) / cap)
    return worst


@pytest.mark.parametrize("N", [16, 32, 64, 128])
def test_gauss_bound_batch_matches_scalar_loop(N, monkeypatch):
    # small chunks, so every run crosses several chunk boundaries
    monkeypatch.setattr(expsums, "_CHUNK_CELLS", 7 * 2 * N)
    params = OperatorParams.smooth(2, N)
    for seed in range(4):
        batched = gauss_bound_report(params, 400, seed).constant
        assert batched == _scalar_gauss_bound(params, 400, seed)


def test_gauss_bound_batch_matches_scalar_loop_10k():
    params = OperatorParams.smooth(2, 128)
    constant = gauss_bound_report(params, 10_000, 1).constant
    assert constant == _scalar_gauss_bound(params, 10_000, 1)
    assert repr(constant) == repr(np.float64(constant))  # the CLI's CSV writes this repr
