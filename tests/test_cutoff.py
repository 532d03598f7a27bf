"""Cutoff profiles, kernels, and the averaging operator."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from paravg import cutoff, lattice
from paravg.cutoff import (
    RAMP_SUP_CONSTANT,
    RAMP_TV_CONSTANT,
    CutoffProfile,
    OperatorParams,
    average,
    cutoff_checks,
    paraboloid_kernel,
)
from paravg.lattice import LatticeFunction, box_indicator, convolve, delta, lp_norm, reflect


def test_smooth_values():
    p = CutoffProfile("smooth", 16)
    assert p.value(0) == 1.0
    assert p.value(40) == 0.0
    assert p.value(24) == 0.5  # midpoint of the symmetric ramp
    assert p.value(-24) == 0.5
    ks = np.arange(-40, 41)
    vals = p.value(ks)
    assert np.all((vals >= 0) & (vals <= 1))
    assert np.all(vals[np.abs(ks) < 16] == 1.0)
    assert np.all(vals[np.abs(ks) >= 32] == 0.0)


def test_sharp_values():
    p = CutoffProfile("sharp", 5)
    assert [p.value(k) for k in (0, 1, 5, 6, -2)] == [0, 1, 1, 0, 0]
    assert p.mass() == 5.0


def test_cutoff_checks_sweep():
    for N in (8, 16, 32, 64, 128):
        rep = cutoff_checks(CutoffProfile("smooth", N))
        assert rep.values["sup_ratio"] <= RAMP_SUP_CONSTANT
        assert rep.values["tv_ratio"] <= RAMP_TV_CONSTANT


def _smoothstep_general(u, order):
    """The smoothstep of degree 2 order - 1, summed term by term as the ramp was before it was fixed."""
    m = order - 1
    u = np.clip(u, 0.0, 1.0)
    acc = np.zeros_like(u)
    for k in range(m + 1):
        acc += math.comb(m + k, k) * math.comb(2 * m + 1, m - k) * (-u) ** k
    return u ** (m + 1) * acc


def test_quintic_ramp_has_the_bits_of_the_general_smoothstep():
    for N in range(4, 257):
        ks = CutoffProfile("smooth", N).support()
        u = (np.abs(ks) - N) / N
        assert cutoff._smoothstep(u).tobytes() == _smoothstep_general(u, 3).tobytes(), N
        for v in u[[0, N + 1, -1]]:  # the scalar path too
            assert float(cutoff._smoothstep(v)) == float(_smoothstep_general(v, 3))


def test_cutoff_checks_rejects_sharp():
    with pytest.raises(ValueError):
        cutoff_checks(CutoffProfile("sharp", 16))


def test_smooth_needs_room():
    with pytest.raises(ValueError):
        CutoffProfile("smooth", 2)


def test_kernel_sharp_small():
    k2 = paraboloid_kernel(OperatorParams.sharp(2, 2))
    assert sorted(k2.support()) == [(1, 1), (2, 4)]
    k3 = paraboloid_kernel(OperatorParams.sharp(3, 2))
    assert sorted(k3.support()) == [(1, 1, 2), (1, 2, 5), (2, 1, 5), (2, 2, 8)]


def test_kernel_mass_and_sup():
    for n, N in ((2, 7), (3, 4)):
        k = paraboloid_kernel(OperatorParams.sharp(n, N))
        assert len(k) == N ** (n - 1)
        assert lp_norm(k, math.inf) == 1.0
        assert lp_norm(k, 1) == N ** (n - 1)


def test_kernel_smooth_support_size():
    params = OperatorParams.smooth(2, 8)
    k = paraboloid_kernel(params)
    nonzero = int(np.count_nonzero(params.cutoff.weights()))
    assert len(k) == nonzero ** (params.n - 1)


def test_average_single_delta_hit():
    f = delta((1, 1))
    af = average(f, OperatorParams.sharp(2, 2))
    assert af((0, 0)) == 0.5


def test_average_box_core_block():
    # averaging the 2N x nN^2 box gives exactly 1 on the core block
    f = box_indicator((1, 1), (6, 18))
    af = average(f, OperatorParams.sharp(2, 3))
    for x1 in range(1, 4):
        for x2 in range(1, 10):
            assert af((x1, x2)) == 1.0


def test_average_delta_spread():
    for n, N in ((2, 4), (3, 3)):
        params = OperatorParams.sharp(n, N)
        af = average(delta((0,) * n), params)
        assert len(af) == N ** (n - 1)
        expected = 1.0 / N ** (n - 1)
        assert all(v == expected for _, v in af.items())
        # values sit at the reflected paraboloid points
        if n == 2:
            for k in range(1, N + 1):
                assert af((-k, -k * k)) == expected


def test_domination_of_sharp_by_smooth():
    rng = np.random.default_rng(0)
    params_sharp = OperatorParams.sharp(2, 4)
    params_smooth = OperatorParams.smooth(2, 4)
    pts = rng.integers(-6, 7, size=(25, 2))
    f = delta(tuple(map(int, pts[0])))
    for row in pts[1:]:
        f = f + float(rng.random()) * delta(tuple(map(int, row)))
    a_sharp = average(f, params_sharp)
    a_smooth = average(f, params_smooth)
    for p in set(a_sharp.support()) | set(a_smooth.support()):
        assert a_sharp(p) <= a_smooth(p) + 1e-12


def test_trivial_bound_random():
    rng = np.random.default_rng(1)
    params = OperatorParams.sharp(2, 5)
    smooth = OperatorParams.smooth(2, 5)
    bound_smooth = (smooth.cutoff.mass() / smooth.N) ** (smooth.n - 1)
    assert bound_smooth <= 4 ** (smooth.n - 1)
    for _ in range(5):
        pts = rng.integers(-8, 9, size=(30, 2))
        vals = rng.standard_normal(30)
        f = delta(tuple(map(int, pts[0]))) * float(vals[0])
        for row, v in zip(pts[1:], vals[1:]):
            f = f + float(v) * delta(tuple(map(int, row)))
        for p in (1, 1.5, 2, 3, math.inf):
            assert lp_norm(average(f, params), p) <= lp_norm(f, p) * (1 + 1e-12)
            assert lp_norm(average(f, smooth), p) <= bound_smooth * lp_norm(f, p) * (1 + 1e-12)


def _public_average(f, params):
    """The average by dict sums over a fresh kernel in ascending k, then one Python division per value."""
    raw = {}
    for k, w in paraboloid_kernel(params).items():
        for y, v in f.items():
            z = tuple(a - b for a, b in zip(y, k))
            raw[z] = raw.get(z, 0.0) + w * v
    scale = float(params.N ** (params.n - 1))
    return LatticeFunction(params.n, {p: v / scale for p, v in raw.items()})


def _dict_convolve(f, g):
    """Pairwise sums in the direct path's order (f outer, g inner), public constructor."""
    out = {}
    for x, v in f.items():
        for y, w in g.items():
            z = tuple(a + b for a, b in zip(x, y))
            out[z] = out.get(z, 0.0) + v * w
    return LatticeFunction(f.dim, out)


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("n, N", [(2, 4), (2, 8), (3, 4)])
def test_average_matches_public_constructor_path(kind, n, N):
    rng = np.random.default_rng(n * 100 + N)
    params = OperatorParams.sharp(n, N) if kind == "sharp" else OperatorParams.smooth(n, N)
    positive = {tuple(map(int, row)): float(rng.random()) for row in rng.integers(-2 * N, 2 * N, (12, n))}
    signed = {tuple(map(int, row + 500)): float(rng.standard_normal()) for row in rng.integers(-2 * N, 2 * N, (12, n))}
    # the average of delta_(1,1) - delta_(2,4) cancels to exactly 0 at the origin (k = 1 and 2)
    signed.update({(1, 1) + (0,) * (n - 2): 1.0, (2, 4) + (0,) * (n - 2): -1.0})
    kernel = reflect(paraboloid_kernel(params))
    for f in (LatticeFunction(n, positive), LatticeFunction(n, signed)):
        af = average(f, params)
        assert af == _public_average(f, params)
        assert convolve(kernel, f) == _dict_convolve(kernel, f)
        assert all(type(c) is int for p in af for c in p)
        assert all(type(v) is float and v != 0 for _, v in af.items())
    if n == 2:
        assert af((0, 0)) == 0 and (0, 0) not in af.support()


def _double_canonical_average(f, params):
    """The average with its divided values canonicalized a second time, as built before the mask.

    The raw sum is the former direct one: every (kernel point, point of f) pair, kernel-major, canonicalized at once.
    """
    kernel = cutoff._kernel(params)
    pairs = (-kernel._points[:, None, :] + f._points[None, :, :]).reshape(-1, params.n)
    raw = lattice._canonical(params.n, pairs, (kernel._values[:, None] * f._values[None, :]).ravel())
    scale = float(params.N ** (params.n - 1))
    return lattice._canonical(params.n, raw._points, raw._values / scale)


def _assert_same_bits(f, g):
    assert f._points.dtype == g._points.dtype and f._points.shape == g._points.shape
    assert f._points.tobytes() == g._points.tobytes()
    assert f._values.dtype == g._values.dtype and f._values.tobytes() == g._values.tobytes()


@pytest.mark.parametrize("kind, n, N", [("sharp", 2, 24), ("sharp", 3, 6), ("smooth", 2, 8), ("sharp", 2, 16)])
def test_average_bits_equal_the_double_canonical_form(kind, n, N):
    # the dense boxes of the averaging benchmark, unshifted
    params = OperatorParams.sharp(n, N) if kind == "sharp" else OperatorParams.smooth(n, N)
    box = box_indicator((1,) * n, (2 * N,) * (n - 1) + (n * N * N,))
    _assert_same_bits(average(box, params), _double_canonical_average(box, params))


def test_average_drops_underflow_and_negative_zero():
    # at N=2 each value is halved: 5e-324 underflows to 0 and -5e-324 to -0.0
    f = LatticeFunction(2, {(0, 0): 1.0, (5, 0): 5e-324, (9, 0): -5e-324})
    params = OperatorParams.sharp(2, 2)
    af = average(f, params)
    _assert_same_bits(af, _double_canonical_average(f, params))
    assert len(af) == 2 and af.support() == [(-2, -4), (-1, -1)]


def test_average_exact_on_a_large_input():
    # 64 kernel points x 67,200 box points is over 2^22 pairs; an FFT at this
    # size would keep ~1e-15 roundoff entries where the exact average is 0
    params = OperatorParams.sharp(2, 64)
    af = average(box_indicator((1, 1), (32, 2100)), params)
    assert len(paraboloid_kernel(params)) * 32 * 2100 > 1 << 22
    counts = np.array([v for _, v in af.items()]) * params.N
    assert np.all(counts == np.round(counts)) and counts.min() >= 1


def test_average_shares_one_cached_kernel():
    f = LatticeFunction(2, {(0, 0): 1.0, (3, -2): -0.5, (1, 7): 0.25})
    first, second = OperatorParams.smooth(2, 8), OperatorParams.smooth(2, 8)
    assert first is not second
    kernel = cutoff._kernel(first)
    result = average(f, first)
    assert average(f, second) == result
    assert cutoff._kernel(second) is kernel
    assert kernel == paraboloid_kernel(first)


def test_average_dimension_mismatch():
    with pytest.raises(ValueError):
        average(delta((0, 0, 0)), OperatorParams.sharp(2, 4))


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM and ru_maxrss are in KiB on Linux only")
def test_smooth_n3_average_peak_memory():
    # 8.2M terms, added by slices into one window of 404,600 cells (3.2 MB): holding a
    # key and a product per term peaked at 293 MB, a block of them at a time at ~65 MB.
    # The child's own VmHWM starts afresh at exec; its ru_maxrss starts at the peak of
    # the forking test process, so it is only the fallback where /proc is absent.
    code = (
        "import resource; from pathlib import Path; from paravg import cutoff, lattice\n"
        "f = cutoff.average(lattice.box_indicator((1, 1, 1), (12, 12, 108)), cutoff.OperatorParams.smooth(3, 6))\n"
        "status = Path('/proc/self/status')\n"
        "hwm = [line.split()[1] for line in status.read_text().splitlines() if line.startswith('VmHWM:')]"
        " if status.exists() else []\n"
        "print(len(f), hwm[0] if hwm else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    src = str(Path(cutoff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True)
    support, peak_kib = map(int, out.stdout.split())
    assert support == 298_384
    assert peak_kib <= 128 * 1024


def test_average_of_a_full_box_holds_its_window():
    # the averaging benchmark's n=2, N=24 box: 1,327,104 terms held at once peaked at
    # 42.4 MB under tracemalloc; by slices it holds the 122,617-cell window and the result
    params = OperatorParams.sharp(2, 24)
    box = box_indicator((1, 1), (48, 1152))
    cutoff._kernel(params)  # the cached kernel is not part of the peak
    tracemalloc.start()
    try:
        average(box, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 << 20, peak
