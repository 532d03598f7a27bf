"""Farey arcs, bump ladders, partition of unity, and multiplier pieces."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from paravg.arcs import (
    ArcSystem,
    BumpLadder,
    FareyFraction,
    PieceSpec,
    arc_system,
    bump_psi,
    bump_psi_hat,
    dyadic_block,
    major_arcs,
    piece_multiplier,
    totatives,
)
from paravg.cutoff import OperatorParams


def test_totatives():
    assert totatives(6) == [1, 5]
    assert totatives(1) == [0]
    assert len(totatives(12)) == 4
    for q in range(2, 40):
        assert len(totatives(q)) == sum(1 for a in range(1, q) if math.gcd(a, q) == 1)


def test_major_arcs_enumeration():
    assert len(major_arcs(20)) == 2  # 0/1 and 1/2
    arcs = major_arcs(40)  # q <= 4: 0/1, 1/2, 1/3, 2/3, 1/4, 3/4
    assert len(arcs) == 6
    assert {(a.frac.a, a.frac.q) for a in arcs} == {(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)}
    with pytest.raises(ValueError):
        major_arcs(9)


def test_major_arcs_disjoint_all_scales():
    for N in (10, 16, 50, 64, 100, 128):
        major_arcs(N)  # raises on overlap


def test_bump_psi_shape():
    assert bump_psi(0.0) == 1.0
    assert bump_psi(2.5) == 0.0 and bump_psi(-2.5) == 0.0
    xs = np.linspace(-3, 3, 2001)
    v = bump_psi(xs)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(bump_psi(np.linspace(-1, 1, 201)) == 1.0)
    assert np.all(bump_psi(np.linspace(2.0, 3.0, 101)) == 0.0)
    with pytest.raises(ValueError):
        bump_psi(0.0, m=3)


def test_bump_psi_scalar_and_vector_paths_agree_bitwise():
    xs = np.linspace(-2.5, 2.5, 4001)
    arr = bump_psi(xs)
    scalars = np.array([bump_psi(float(x)) for x in xs])
    assert np.array_equal(arr, scalars)


def test_bump_psi_hat_closed_form_vs_quadrature():
    assert bump_psi_hat(0.0) == 3.0
    for u in (0.3, 1.7):
        numeric = quad(lambda x: bump_psi(x) * math.cos(2 * math.pi * u * x), -2, 2, limit=300)[0]
        assert abs(bump_psi_hat(u) - numeric) < 1e-9


def test_bump_psi_hat_decay_order():
    # |psi_hat(u)| <= C (1+|u|)^{-(m+1)}: probe the envelope far out
    m = 8
    us = np.array([5.0, 10.0, 20.0, 40.0])
    vals = np.abs(bump_psi_hat(us, m))
    cap = 3.0 * (3 * m / math.pi / math.pi) ** m
    assert np.all(vals <= cap * (1 + us) ** (-(m + 1)))


def test_ladder_scales():
    lad = BumpLadder(FareyFraction(0, 1), 16)
    assert lad.scales == [16, 32, 64, 128, 256]
    assert lad.scales[0] == 16 * 1 and lad.scales[-1] == 16 * 16
    assert all(a < b for a, b in zip(lad.scales, lad.scales[1:]))
    # q with N/q a power of two still gets strictly increasing scales
    lad2 = BumpLadder(FareyFraction(1, 2), 8)
    assert lad2.scales == [16, 32, 64]
    lad3 = BumpLadder(FareyFraction(1, 3), 20)
    assert lad3.scales == [60, 120, 240, 400]


def test_ladder_partition_of_unity_exact():
    rng = np.random.default_rng(0)
    for N, q, a in ((16, 1, 0), (64, 3, 2), (40, 2, 1)):
        lad = BumpLadder(FareyFraction(a, q), N)
        u = (rng.random(1000) * 2 - 1) / (N * q)
        xi = (a / q + u) % 1.0
        total = sum(lad.eta(level, xi) for level in lad.levels())
        assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_eta_mean_zero_exact():
    lad = BumpLadder(FareyFraction(1, 2), 8)
    for level in lad.levels():
        assert lad.eta_hat(level, np.int64(0)) == 0j


def test_eta_vanishes_at_center_dyadic():
    lad = BumpLadder(FareyFraction(2, 3), 32)
    for level in range(lad.top_level + 1):
        assert lad.eta(level, 2 / 3) == 0.0


def test_eta_support_containment():
    rng = np.random.default_rng(1)
    N, q, a = 32, 2, 1
    lad = BumpLadder(FareyFraction(a, q), N)
    lo, hi = lad.cluster()
    far = rng.uniform(hi + 1e-9, lo + 1.0 - 1e-9, size=500) % 1.0
    for level in lad.levels():
        assert np.all(lad.eta(level, far) == 0.0)
    # levels past the first are narrower than the shift, so the band between
    # the main bump and its translate is dead
    for level in range(1, lad.top_level + 1):
        radius = 2.0 / lad.scales[level]
        assert 2 * radius < lad.shift
        band = rng.uniform(a / q + radius + 1e-12, a / q + lad.shift - radius - 1e-12, 200)
        assert np.all(lad.eta(level, band) == 0.0)


def test_eta_hat_against_quadrature():
    lad = BumpLadder(FareyFraction(1, 2), 8)
    c = 0.5
    for t in (1, 7, 50):
        for level in (0, "core"):
            closed = lad.eta_hat(level, np.int64(t))

            def integrand_re(x, lv=level):
                e = lad.piece(lv, x - c) - lad.piece(lv, x - c - lad.shift)
                return e * math.cos(2 * math.pi * t * x)

            def integrand_im(x, lv=level):
                e = lad.piece(lv, x - c) - lad.piece(lv, x - c - lad.shift)
                return e * math.sin(2 * math.pi * t * x)

            lo, hi = lad.cluster()
            numeric = complex(
                quad(integrand_re, lo, hi, limit=500)[0],
                quad(integrand_im, lo, hi, limit=500)[0],
            )
            assert abs(closed - numeric) <= 1e-8


def test_eta_hat_bracket_bound():
    lad = BumpLadder(FareyFraction(1, 3), 16)
    ts = np.arange(-300, 301)
    for level in lad.levels():
        vals = np.abs(lad.eta_hat(level, ts))
        caps = 2.0 * np.abs(lad.piece_hat(level, ts.astype(float)))
        assert np.all(vals <= caps + 1e-15)


def test_dyadic_blocks_partition():
    assert dyadic_block(1) == [1]
    assert dyadic_block(2) == [2]
    assert dyadic_block(8) == [5, 6, 7, 8]
    system = arc_system(64)
    covered = [q for _, qs in system.blocks() for q in qs]
    assert covered == list(range(1, 64 // 10 + 1))


def test_cluster_disjointness():
    for N in (16, 32, 64, 128):
        assert arc_system(N).clusters_disjoint()


def test_piece_decomposition_identity():
    params = OperatorParams.smooth(2, 16)
    rng = np.random.default_rng(2)
    for _ in range(50):
        xi = rng.random(2)
        whole = piece_multiplier(PieceSpec("whole"), xi, params)
        maj = piece_multiplier(PieceSpec("maj"), xi, params)
        mino = piece_multiplier(PieceSpec("min"), xi, params)
        assert abs(whole - maj - mino) <= 1e-12


def test_pieces_sum_to_maj():
    # the assembly's pieces (top block truncated at floor(N/10)) rebuild maj
    params = OperatorParams.smooth(2, 64)
    system = arc_system(64)
    rng = np.random.default_rng(3)
    for _ in range(10):
        xi = rng.random(2)
        total = sum(
            piece_multiplier(spec, xi, params, q_limit=system.q_limit)
            for spec in system.piece_specs()
        )
        maj = piece_multiplier(PieceSpec("maj"), xi, params)
        assert abs(total - maj) <= 1e-12 * max(1.0, abs(maj))


def test_dyadic_piece_vanishes_outside_supports():
    # the q = 1 cluster at N = 16 is [-2/16, 5/16]; probe beyond it
    params = OperatorParams.smooth(2, 16)
    spec = PieceSpec("dyadic", 1, 0)
    for t in (0.35, 0.5, 0.73):
        assert piece_multiplier(spec, (0.2, t), params) == 0j


def test_standalone_piece_uses_full_block():
    # outside the arc range the block is not truncated: Q = 2 exists at N = 16
    params = OperatorParams.smooth(2, 16)
    spec = PieceSpec("dyadic", 2, 0)
    lad = BumpLadder(FareyFraction(1, 2), 16)
    xi_t = 0.5 + 0.7 / (16 * 2)
    val = piece_multiplier(spec, (0.3, xi_t), params)
    from paravg.expsums import multiplier

    assert abs(val - multiplier((0.3, xi_t), params) * lad.eta(0, xi_t)) <= 1e-12


def test_min_vanishes_on_arcs():
    # the minor part vanishes on each I(q, N, a) (the translated bumps sit
    # outside I, so the arc weight there is exactly 1)
    params = OperatorParams.smooth(2, 32)
    system = arc_system(32)
    rng = np.random.default_rng(4)
    for (q, a) in system.ladders:
        u = (rng.random(50) * 2 - 1) * 0.999 / (32 * q)
        for du in u:
            xi = (rng.random(), (a / q + du) % 1.0)
            mino = piece_multiplier(PieceSpec("min"), xi, params)
            whole = piece_multiplier(PieceSpec("whole"), xi, params)
            assert abs(mino) <= 1e-11 * max(1.0, abs(whole))


def test_maj_vanishes_far_from_arcs():
    params = OperatorParams.smooth(2, 32)
    system = arc_system(32)
    clusters = system.clusters()

    def in_cluster(t):
        return any(
            lo - 1e-6 <= t + s <= hi + 1e-6
            for lo, hi in clusters
            for s in (-1.0, 0.0, 1.0)
        )

    rng = np.random.default_rng(5)
    count = 0
    while count < 50:
        t = float(rng.random())
        if in_cluster(t):
            continue
        xi = (rng.random(), t)
        assert piece_multiplier(PieceSpec("maj"), xi, params) == 0j
        count += 1


def test_invalid_piece_specs():
    with pytest.raises(ValueError):
        PieceSpec("dyadic", 3, 0)  # Q not dyadic
    with pytest.raises(ValueError):
        PieceSpec("dyadic", 2)  # missing level
    with pytest.raises(ValueError):
        PieceSpec("frobnicate")
    params = OperatorParams.smooth(2, 16)
    with pytest.raises(ValueError):
        piece_multiplier(PieceSpec("dyadic", 1, 99), (0.1, 0.2), params)


def test_arc_system_rejects_tiny_N():
    with pytest.raises(ValueError):
        ArcSystem(8)  # default q_limit floor(N/10) = 0


def _scalar_weight_sum(system, t: float) -> float:
    """The per-point weight sum (the scalar path of ArcSystem.weight_sum)."""
    value = system.weight_sum(float(t))
    assert type(value) is float
    return value


@pytest.mark.parametrize("N", [16, 64, 256])
def test_batched_piece_multiplier_matches_rows(N):
    rows = 200 if N < 256 else 60
    params = OperatorParams.smooth(2, N)
    system = arc_system(N)
    xi = np.random.default_rng(N).random((rows, 2))
    xi[0, 1] = 0.0  # the centre of the 0/1 arc
    ws = system.weight_sum(xi[:, 1])
    assert np.array_equal(ws, [_scalar_weight_sum(system, t) for t in xi[:, 1]])
    specs = [PieceSpec("whole"), PieceSpec("maj"), PieceSpec("min"), PieceSpec("dyadic", 1, 0), PieceSpec("core", 1)]
    for spec in specs:
        batched = piece_multiplier(spec, xi, params)
        assert batched.shape == (rows,) and batched.dtype == complex
        assert np.array_equal(batched, [piece_multiplier(spec, row, params) for row in xi])


def test_batched_piece_multiplier_n3():
    params = OperatorParams.smooth(3, 16)
    xi = np.random.default_rng(3).random((50, 3))
    for kind in ("whole", "maj", "min"):
        batched = piece_multiplier(PieceSpec(kind), xi, params)
        assert np.array_equal(batched, [piece_multiplier(PieceSpec(kind), row, params) for row in xi])
    with pytest.raises(ValueError):
        piece_multiplier(PieceSpec("whole"), xi[:, :2], params)


@pytest.mark.parametrize("N", [16, 64, 256])
def test_level_etas_match_eta_per_level(N):
    system = arc_system(N)
    rng = np.random.default_rng(N + 1)
    for (q, a), ladder in system.ladders.items():
        u = (rng.random(200) * 2 - 1) / (N * q)
        xi = (a / q + u) % 1.0
        etas = ladder.level_etas(xi)
        assert etas.shape == (len(ladder.levels()), len(xi))
        old_total = np.zeros_like(xi)
        new_total = np.zeros_like(xi)
        for level, row in zip(ladder.levels(), etas):
            expected = ladder.eta(level, xi)
            assert np.array_equal(row, expected), (q, a, level)
            old_total += expected
            new_total += row
        assert np.array_equal(new_total, old_total)
        assert np.max(np.abs(new_total - 1.0)) <= 1e-12
