"""Quadratic exponential sums, the multiplier, and rational approximation."""

import math
import tracemalloc

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


def _phases_gauss_sum(t: float, y: float, cutoff) -> complex:
    """Oracle: the one-point sum over long-double phases frac(y k + t k^2)."""
    L = np.longdouble
    kl = cutoff.support().astype(L)
    ph = np.asarray((L(y) * kl + L(t) * kl * kl) % L(1.0), dtype=float)
    return complex(np.sum(cutoff.weights() * np.exp(2j * np.pi * ph)))


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("N", [5, 16, 128])
def test_gauss_sum_matches_one_point_phases(kind, N, monkeypatch):
    cutoff = CutoffProfile(kind, N)
    pts = np.random.default_rng(N).random((10_000, 2))
    pts[:4] = [(0.0, 0.0), (0.5, 0.5), (1.0 - 2.0**-53, 0.25), (2.0**-40, 1.0 - 2.0**-53)]
    expected = [_phases_gauss_sum(t, y, cutoff) for t, y in pts.tolist()]
    assert [gauss_sum(t, y, cutoff) for t, y in pts.tolist()] == expected
    # a batch crossing chunk boundaries gives the same values
    monkeypatch.setattr(expsums, "_CHUNK_CELLS", 97 * len(cutoff.support()))
    assert expsums._gauss_sums(pts[:, 0], pts[:, 1], cutoff).tolist() == expected


def _scalar_multiplier(xi, params) -> complex:
    """Oracle: the product of one-point Gauss sums, in Python complex arithmetic."""
    out = 1.0 + 0.0j
    for y in xi[:-1]:
        out *= gauss_sum(xi[-1], y, params.cutoff)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_multiplier_matches_scalar_loop(n):
    rng = np.random.default_rng(20 + n)
    for params in (OperatorParams.smooth(n, 24), OperatorParams.sharp(n, 7)):
        rows = rng.random((700, n))
        rows[0] = 0.0
        expected = [_scalar_multiplier(row, params) for row in rows.tolist()]
        batched = multiplier(rows, params)
        assert batched.dtype == complex and batched.tolist() == expected
        points = [multiplier(tuple(row), params) for row in rows[:50].tolist()]
        assert all(type(z) is complex for z in points) and points == expected[:50]
    assert multiplier(np.empty((0, n)), params).shape == (0,)


def test_multiplier_rejects_bad_shapes():
    params = OperatorParams.smooth(3, 8)
    for xi in ((0.1, 0.2), np.zeros((4, 2)), np.zeros((2, 2, 3)), 0.5):
        with pytest.raises(ValueError):
            multiplier(xi, params)


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
            assert abs(_torus_signed(float(t) - r.a / r.q)) <= abs(r.err) + 1e-15


def test_dirichlet_vs_exhaustive_small():
    rng = np.random.default_rng(5)
    for N in (7, 23, 64):
        for t in rng.random(50):
            t = float(t)
            r = dirichlet_approx(t, N)
            # exhaustive: some fraction with q <= N satisfies the certificate,
            # and the returned one does too (it need not be the closest)
            best = min(
                abs(_torus_signed(t - a / q))
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


def _per_chunk_row_max(ts, cutoff, y_grid):
    """Oracle: gauss_row_max as it ran with one phase per support column and fresh arrays per chunk."""
    k = cutoff.support()
    w = cutoff.weights()
    out = np.empty(len(ts))
    kmod = np.mod(k, y_grid)
    chunk = max(1, expsums._CHUNK_CELLS // y_grid)
    for start in range(0, len(ts), chunk):
        tt = ts[start : start + chunk, None].astype(np.longdouble)
        ph = np.asarray((tt * k * k) % np.longdouble(1.0), dtype=float)
        buf = np.zeros((len(tt), y_grid), dtype=np.complex128)
        buf[:, kmod] = w * np.exp(2j * np.pi * ph)
        vals = np.fft.fft(buf, axis=1)
        out[start : start + len(tt)] = np.max(np.abs(vals), axis=1)
    return out


# smooth: symmetric support -(2N-1)..2N-1, |k| >= 2^11 at N = 1100 (where a
# precomputed k^2 changes the phase bits); sharp: support 1..N
@pytest.mark.parametrize("kind,N,count", [("smooth", 5, 1000), ("smooth", 64, 1000), ("smooth", 1100, 100),
                                          ("sharp", 5, 1000), ("sharp", 64, 1000)])
def test_gauss_row_max_matches_per_chunk_form(kind, N, count, monkeypatch):
    cutoff = CutoffProfile(kind, N)
    y_grid = max(8 * N, 64)
    ts = np.concatenate([[0.0, 1.0 - 2.0**-53, 0.5, 2.0**-40], np.random.default_rng(N).random(count)])
    monkeypatch.setattr(expsums, "_CHUNK_CELLS", 37 * y_grid)  # 37 rows a chunk, the last one partial
    assert len(ts) % 37
    assert gauss_row_max(ts, cutoff, y_grid).tolist() == _per_chunk_row_max(ts, cutoff, y_grid).tolist()
    assert gauss_row_max(ts[1:2], cutoff, y_grid).tolist() == _per_chunk_row_max(ts[1:2], cutoff, y_grid).tolist()
    assert gauss_row_max(np.empty(0), cutoff, y_grid).shape == (0,)


def _peak_beyond_result(fn) -> int:
    """Bytes fn() holds at its tracemalloc peak, less the array it returns."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - result.nbytes


def test_kernels_work_in_a_fixed_number_of_chunks():
    # a chunk is _CHUNK_CELLS cells of 16 bytes (long double or complex);
    # _gauss_sums holds two long-double and one complex chunk, gauss_row_max
    # its FFT input, output and magnitudes (2.5 chunks) plus phases and
    # gathered terms (~1 chunk at y_grid = 8N); per-chunk temporaries on top
    # of that, or a buffer sized by the input, break these bounds
    cutoff = CutoffProfile("smooth", 16)
    rng = np.random.default_rng(11)
    ts, ys = rng.random(100_000), rng.random(100_000)
    chunk = 16 * expsums._CHUNK_CELLS
    assert _peak_beyond_result(lambda: expsums._gauss_sums(ts, ys, cutoff)) <= 3.25 * chunk
    assert _peak_beyond_result(lambda: gauss_row_max(ts, cutoff, 8 * 16)) <= 3.75 * chunk
    # the screens hold one table (sums) or the FFT input, output and squares
    # (2.5 chunks, row maxima), and row-sized temporaries per chunk
    assert _peak_beyond_result(lambda: expsums.screen_gauss_abs(ts, ys, cutoff)[0]) <= 1.25 * chunk
    assert _peak_beyond_result(lambda: expsums.screen_row_max(ts, cutoff, 8 * 16)[0]) <= 2.75 * chunk


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


@pytest.mark.parametrize("N", [16, 32, 64, 128, 256])
def test_gauss_bound_batch_matches_scalar_loop(N, monkeypatch):
    # small chunks, so every run crosses several chunk boundaries
    monkeypatch.setattr(expsums, "_CHUNK_CELLS", 7 * 2 * N)
    params = OperatorParams.smooth(2, N)
    for seed in range(10):
        batched = gauss_bound_report(params, 400, seed).constant
        assert batched == _scalar_gauss_bound(params, 400, seed)


def test_gauss_bound_batch_matches_scalar_loop_10k():
    params = OperatorParams.smooth(2, 128)
    constant = gauss_bound_report(params, 10_000, 1).constant
    assert constant == _scalar_gauss_bound(params, 10_000, 1)
    assert repr(constant) == repr(np.float64(constant))  # the CLI's CSV writes this repr


def _scalar_pairs(rng, sizes):
    """numpy's own calls: the oracle of _index_then_double."""
    pairs = [(rng.integers(0, int(s)), rng.random()) for s in sizes]
    return np.array([i for i, _ in pairs], dtype=np.int64), np.array([r for _, r in pairs])


# sizes near 2^31..2^32 make Lemire reject up to a quarter of the draws
_HEAVY = [1, 2, 3, 2**31 + 1, 3 * 2**30 + 7, 4_000_000_000, 2**32 - 1, 2**32]


@pytest.mark.parametrize("earlier_uint32", [0, 1, 2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_index_then_double_matches_numpy_calls(seed, earlier_uint32):
    # an odd number of earlier uint32 draws leaves a high half buffered
    sizes = np.random.default_rng(seed).choice(_HEAVY, size=150)
    ours, theirs = np.random.default_rng(seed + 50), np.random.default_rng(seed + 50)
    for _ in range(earlier_uint32):
        ours.integers(0, 10)
        theirs.integers(0, 10)
    assert ours.bit_generator.state["has_uint32"] == earlier_uint32 % 2
    idx, dbl = expsums._index_then_double(ours, sizes)
    want_idx, want_dbl = _scalar_pairs(theirs, sizes)
    assert idx.dtype == np.int64 and np.array_equal(idx, want_idx)
    assert dbl.tobytes() == want_dbl.tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.random() == theirs.random()
    assert ours.integers(0, 5) == theirs.integers(0, 5)


def test_index_then_double_rejects_where_numpy_does():
    # 3 * 2^30 + 7 rejects a quarter of the uint32 draws
    sizes = np.full(400, 3 * 2**30 + 7)
    ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
    idx, dbl = expsums._index_then_double(ours, sizes)
    assert [idx.tolist(), dbl.tolist()] == [a.tolist() for a in _scalar_pairs(theirs, sizes)]
    assert ours.bit_generator.state == theirs.bit_generator.state
    # without a rejection the draws take 400 doubles and 200 words of uint32 halves
    unrejected = np.random.PCG64(9).advance(600)
    assert ours.bit_generator.state["state"] != unrejected.state["state"]


def _pcg64_before(word: int) -> np.random.Generator:
    """A PCG64 generator whose next 64-bit output is word: its state one LCG step before (0, word)."""
    mult = (2549297995355413924 << 64) + 4865540595714422341  # PCG64's 128-bit multiplier
    inc = np.random.PCG64(0).state["state"]["inc"]
    state = (word - inc) * pow(mult, -1, 2**128) % 2**128
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bitgen)


@pytest.mark.parametrize("offset", [-1, 0])
def test_index_then_double_rejects_exactly_below_the_threshold(offset):
    # the first uint32 lands one below (rejected) or at (kept) Lemire's threshold 2^32 mod s;
    # a rejected one is redrawn from the buffered high half
    s, high = 3 * 2**30 + 7, 12345
    low = (2**32 % s + offset) * pow(s, -1, 2**32) % 2**32
    assert _pcg64_before((high << 32) | low).bit_generator.random_raw() == (high << 32) | low
    ours, theirs = _pcg64_before((high << 32) | low), _pcg64_before((high << 32) | low)
    idx, dbl = expsums._index_then_double(ours, [s, 5])
    assert [idx.tolist(), dbl.tolist()] == [a.tolist() for a in _scalar_pairs(theirs, [s, 5])]
    assert idx[0] == ((high if offset < 0 else low) * s) >> 32
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_index_then_double_edge_sizes():
    for sizes in ([], [1], [1, 1, 1], [2], [5, 1, 7]):
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        idx, dbl = expsums._index_then_double(ours, sizes)
        assert [idx.tolist(), dbl.tolist()] == [a.tolist() for a in _scalar_pairs(theirs, sizes)]
        assert ours.bit_generator.state == theirs.bit_generator.state
    for bad in ([0], [3, -1], [2**32 + 1]):
        with pytest.raises(ValueError):
            expsums._index_then_double(np.random.default_rng(0), bad)


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64])
def test_index_then_double_refuses_other_bit_generators(bitgen):
    rng = np.random.Generator(bitgen(0))
    with pytest.raises(TypeError, match="PCG64"):
        expsums._index_then_double(rng, [3, 4])
    assert rng.random() == np.random.Generator(bitgen(0)).random()  # nothing drawn


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("N", [16, 128, 512])
def test_screens_stay_within_beta(kind, N):
    cutoff = CutoffProfile(kind, N)
    pts = np.random.default_rng(N + 1).random((2000, 2))
    pts[:4] = [(0.0, 0.0), (0.5, 0.5), (1.0 - 2.0**-53, 1.0 - 2.0**-53), (2.0**-40, 0.25)]
    ts, ys = pts[:, 0], pts[:, 1]
    screen, beta = expsums.screen_gauss_abs(ts, ys, cutoff)
    exact = expsums._gauss_sums(ts, ys, cutoff)
    assert np.max(np.abs(screen - np.hypot(exact.real, exact.imag))) <= beta
    y_grid = max(8 * N, 64)
    rows, row_beta = expsums.screen_row_max(ts[:300], cutoff, y_grid)
    assert np.max(np.abs(rows - gauss_row_max(ts[:300], cutoff, y_grid))) <= row_beta
    # the bounds are far below the sums themselves, so the screens select
    mass = float(np.sum(cutoff.weights()))
    assert beta <= row_beta <= 1e-6 * mass


def test_screens_cross_chunk_boundaries(monkeypatch):
    cutoff = CutoffProfile("smooth", 24)
    ts, ys = np.random.default_rng(12).random((2, 1000))
    monkeypatch.setattr(expsums, "_CHUNK_CELLS", 37 * 192)  # 37 rows a chunk, the last one partial
    # a screen's bits may depend on the chunk's shape (the SIMD loops and the
    # matmul), its distance to the kernel may not
    sums, beta = expsums.screen_gauss_abs(ts, ys, cutoff)
    exact = expsums._gauss_sums(ts, ys, cutoff)
    assert np.max(np.abs(sums - np.hypot(exact.real, exact.imag))) <= beta
    rows, row_beta = expsums.screen_row_max(ts, cutoff, 192)
    assert np.max(np.abs(rows - gauss_row_max(ts, cutoff, 192))) <= row_beta
    assert expsums.screen_gauss_abs(ts[:0], ys[:0], cutoff)[0].shape == (0,)
    assert expsums.screen_row_max(ts[:0], cutoff, 192)[0].shape == (0,)


def test_screen_row_max_grid_guard():
    # the head columns 0..N of the sharp cutoff need y_grid > N
    with pytest.raises(ValueError):
        expsums.screen_row_max(np.array([0.1]), CutoffProfile("sharp", 8), 8)
    with pytest.raises(ValueError):
        expsums.screen_row_max(np.array([0.1]), CutoffProfile("smooth", 8), 30)
    assert expsums.screen_row_max(np.array([0.1]), CutoffProfile("smooth", 8), 31)[0].shape == (1,)


def test_gauss_bound_refines_a_few_samples(monkeypatch):
    refined = []
    gauss_sums = expsums._gauss_sums
    monkeypatch.setattr(expsums, "_gauss_sums", lambda ts, *a: refined.append(len(ts)) or gauss_sums(ts, *a))
    for N in (16, 32, 64, 128):
        for seed in range(4):
            gauss_bound_report(OperatorParams.smooth(2, N), 10_000, seed)
    assert len(refined) == 16 and 1 <= max(refined) <= 8
