"""Farey arcs, bump ladders, partition of unity, and multiplier pieces."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from paravg import arcs
from paravg.arcs import (
    ArcSystem,
    BumpLadder,
    FareyFraction,
    PieceSpec,
    arc_system,
    bump_psi,
    bump_psi_hat,
    dyadic_block,
    piece_multipliers,
    totatives,
)
from paravg.cutoff import OperatorParams
from paravg.expsums import _torus_signed, multiplier


def blocks(system: ArcSystem) -> list[tuple[int, list[int]]]:
    """Dyadic blocks (Q, [q...]) partitioning 1..q_limit, the top one truncated at q_limit."""
    out = []
    Q = 1
    while Q // 2 < system.q_limit:
        qs = [q for q in dyadic_block(Q) if q <= system.q_limit]
        if qs:
            out.append((Q, qs))
        Q *= 2
    return out


def piece_specs(system: ArcSystem) -> list[PieceSpec]:
    """Every (core + dyadic) piece of the arc-localized decomposition."""
    specs = []
    for Q, qs in blocks(system):
        specs.append(PieceSpec("core", Q))
        top = max(system.ladders[(q, totatives(q)[0])].top_level for q in qs)
        specs += [PieceSpec("dyadic", Q, l) for l in range(top + 1)]
    return specs


def test_totatives():
    assert totatives(6) == [1, 5]
    assert totatives(1) == [0]
    assert len(totatives(12)) == 4
    for q in range(2, 40):
        assert len(totatives(q)) == sum(1 for a in range(1, q) if math.gcd(a, q) == 1)


def test_major_arcs_enumeration():
    # the arc set is the arc system's ladders, one per fraction a/q with q <= N/10
    assert len(arc_system(20).ladders) == 2  # 0/1 and 1/2
    ladders = arc_system(40).ladders  # q <= 4: 0/1, 1/2, 1/3, 2/3, 1/4, 3/4
    assert [(lad.frac.a, lad.frac.q) for lad in ladders.values()] == [(0, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4)]
    with pytest.raises(ValueError):
        arc_system(9)


def test_major_arcs_disjoint_all_scales():
    for N in (10, 16, 50, 64, 100, 128):
        assert arc_system(N).arcs_4i_disjoint() is True


def test_bump_psi_shape():
    assert bump_psi(0.0) == 1.0
    assert bump_psi(2.5) == 0.0 and bump_psi(-2.5) == 0.0
    xs = np.linspace(-3, 3, 2001)
    v = bump_psi(xs)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.all(bump_psi(np.linspace(-1, 1, 201)) == 1.0)
    assert np.all(bump_psi(np.linspace(2.0, 3.0, 101)) == 0.0)


@pytest.mark.parametrize("m", [arcs.SPLINE_ORDER])
def test_bump_psi_equals_the_full_spline(m):
    # only 1 < |t| < 2 evaluates the spline; elsewhere the full sum is exactly 1 or 0
    edges = np.array([1.0, 2.0])
    t = np.concatenate([np.linspace(0.0, 3.0, 3001), edges, np.nextafter(edges, 0.0), np.nextafter(edges, 3.0)])
    t = np.concatenate([t, -t])
    full = np.clip(1.0 - arcs._irwin_hall_cdf(m * (np.abs(t) - 1.0), m), 0.0, 1.0)
    assert np.array_equal(bump_psi(t), full)
    assert [bump_psi(float(x)) for x in t[-10:]] == full[-10:].tolist()


def test_bump_psi_hat_closed_form_vs_quadrature():
    assert bump_psi_hat(0.0) == 3.0
    for u in (0.3, 1.7):
        numeric = quad(lambda x: bump_psi(x) * math.cos(2 * math.pi * u * x), -2, 2, limit=300)[0]
        assert abs(bump_psi_hat(u) - numeric) < 1e-9


def test_bump_psi_hat_decay_order():
    # |psi_hat(u)| <= C (1+|u|)^{-(m+1)}: probe the envelope far out
    m = arcs.SPLINE_ORDER
    us = np.array([5.0, 10.0, 20.0, 40.0])
    vals = np.abs(bump_psi_hat(us))
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


def test_eta_hat_rejects_non_integer_t():
    lad = BumpLadder(FareyFraction(1, 3), 16)
    for t in (0.5, np.float64(3.0), np.array([1.0, 2.0]), 2j):
        with pytest.raises(ValueError):
            lad.eta_hat(0, t)


def test_total_level_is_the_telescoped_ladder():
    # "total" is psi(Nq u): its piece and transform are the ladder's sums over levels()
    lad = BumpLadder(FareyFraction(2, 5), 64)
    u = np.linspace(-3, 3, 2001) / (64 * 5)
    assert np.array_equal(lad.piece("total", u), bump_psi(64 * 5 * u))
    assert np.max(np.abs(sum(lad.piece(lv, u) for lv in lad.levels()) - lad.piece("total", u))) <= 1e-15
    ts = np.arange(-2000, 2001)
    parts = sum(lad.piece_hat(lv, ts) for lv in lad.levels())
    assert np.max(np.abs(parts - lad.piece_hat("total", ts))) <= 1e-15 / (64 * 5)
    with pytest.raises(ValueError):
        lad.piece("all", u)


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
    covered = [q for _, qs in blocks(system) for q in qs]
    assert covered == list(range(1, 64 // 10 + 1))


def test_cluster_disjointness():
    for N in (16, 32, 64, 128):
        assert arc_system(N).clusters_disjoint()


def _intervals_disjoint_loop(intervals):
    """The pairwise loop the sorted sweep replaced: unshifted i against j shifted by -1, 0, +1."""
    for i in range(len(intervals)):
        lo1, hi1 = intervals[i]
        for j in range(i + 1, len(intervals)):
            lo2, hi2 = intervals[j]
            for s in (-1.0, 0.0, 1.0):
                if lo1 <= hi2 + s and lo2 + s <= hi1:
                    return False
    return True


def _major_arc_4i_intervals(N, q_limit):
    """The 4I intervals centre -+ radius4 = a/q -+ 4/(qN) of the retired MajorArc list, q <= q_limit."""
    return [(a / q - 4.0 / (q * N), a / q + 4.0 / (q * N)) for q in range(1, q_limit + 1) for a in totatives(q)]


@pytest.mark.parametrize("N", [10, 16, 40, 64, 100, 256])
def test_arcs_4i_sweep_matches_the_major_arc_intervals(N):
    # q_limit past N/10 brings 4I intervals that touch or overlap, so both answers occur
    answers = set()
    for q_limit in range(1, min(N // 2, 40) + 1):
        expected = _intervals_disjoint_loop(_major_arc_4i_intervals(N, q_limit))
        assert ArcSystem(N, q_limit).arcs_4i_disjoint() is expected, q_limit
        answers.add(expected)
    assert answers == {True, False}


def test_disjointness_sweep_matches_the_loop_on_arc_families():
    for N in (10, 16, 64, 100, 256):
        system = arc_system(N)
        families = [system.clusters(), _major_arc_4i_intervals(N, N // 10)]
        for intervals in families:
            assert arcs._intervals_disjoint_mod1(intervals) is _intervals_disjoint_loop(intervals) is True
            doubled = intervals + intervals[:1]
            assert arcs._intervals_disjoint_mod1(doubled) is _intervals_disjoint_loop(doubled) is False


def test_disjointness_sweep_matches_the_loop_on_random_sets():
    rng = np.random.default_rng(11)
    ulp = np.spacing(1.0)
    seen = {True: 0, False: 0}
    for _ in range(3000):
        count = int(rng.integers(0, 9))
        # coarse grid ends, some nudged by an ulp, so touching and one-ulp gaps occur; some wrap past 0 or 1
        lo = rng.integers(-8, 72, count) / 64 + rng.integers(-1, 2, count) * ulp * (rng.random(count) < 0.3)
        width = rng.integers(0, 6, count) / 64 + rng.integers(-1, 2, count) * ulp * (rng.random(count) < 0.3)
        intervals = [(float(a), float(a + max(w, 0.0))) for a, w in zip(lo, width)]
        expected = _intervals_disjoint_loop(intervals)
        assert arcs._intervals_disjoint_mod1(intervals) is expected, intervals
        seen[expected] += 1
    assert min(seen.values()) > 300


def test_disjointness_sweep_edge_cases():
    sweep = arcs._intervals_disjoint_mod1
    up, down = np.nextafter(0.2, 1.0), np.nextafter(0.2, 0.0)
    cases = [
        ([], True),
        ([(0.1, 0.2)], True),
        ([(0.1, 0.2), (0.2, 0.3)], False),  # closed: touching ends overlap
        ([(0.1, 0.2), (up, 0.3)], True),  # a one-ulp gap
        ([(0.1, 0.2), (0.15, 0.15)], False),  # a point inside
        ([(0.1, 0.2), (0.1, 0.2)], False),
        ([(-0.05, 0.05), (0.94, 0.95)], True),  # wraps past 0, clear of the other
        ([(-0.05, 0.05), (0.95, 0.97)], False),  # wraps past 0 onto the other's end
        ([(0.9, 1.05), (0.05, 0.1)], False),  # wraps past 1 onto the other's start
        ([(0.9, 1.05), (np.nextafter(1.05, 2.0) - 1.0, 0.1)], True),  # one ulp past the end, once shifted
        ([(down, 0.3), (0.1, 0.2)], False),
        # the loop shifts only the later interval: 2^-60 + 1 rounds to 1.0 and meets the first
        # interval's end, while 1.0 - 1 = 0.0 stays below 2^-60 the other way round
        ([(0.5, 1.0), (2.0**-60, 0.1)], False),
        ([(2.0**-60, 0.1), (0.5, 1.0)], True),
    ]
    for intervals, expected in cases:
        assert _intervals_disjoint_loop(intervals) is expected, intervals
        assert sweep(intervals) is expected, intervals


def test_piece_decomposition_identity():
    params = OperatorParams.smooth(2, 16)
    rng = np.random.default_rng(2)
    for _ in range(50):
        xi = rng.random(2)
        whole = piece_multipliers([PieceSpec("whole")], xi, params)[0]
        maj = piece_multipliers([PieceSpec("maj")], xi, params)[0]
        mino = piece_multipliers([PieceSpec("min")], xi, params)[0]
        assert abs(whole - maj - mino) <= 1e-12


def test_pieces_sum_to_maj():
    # the assembly's pieces (top block truncated at floor(N/10)) rebuild maj
    params = OperatorParams.smooth(2, 64)
    system = arc_system(64)
    rng = np.random.default_rng(3)
    for _ in range(10):
        xi = rng.random(2)
        total = sum(multiplier(xi, params) * system.piece_weight(spec, xi[1]) for spec in piece_specs(system))
        maj = piece_multipliers([PieceSpec("maj")], xi, params)[0]
        assert abs(total - maj) <= 1e-12 * max(1.0, abs(maj))


def test_dyadic_piece_vanishes_outside_supports():
    # the q = 1 cluster at N = 16 is [-2/16, 5/16]; probe beyond it
    params = OperatorParams.smooth(2, 16)
    spec = PieceSpec("dyadic", 1, 0)
    for t in (0.35, 0.5, 0.73):
        assert piece_multipliers([spec], (0.2, t), params)[0] == 0j


def test_standalone_piece_uses_full_block():
    # outside the arc range the block is not truncated: Q = 2 exists at N = 16
    params = OperatorParams.smooth(2, 16)
    spec = PieceSpec("dyadic", 2, 0)
    lad = BumpLadder(FareyFraction(1, 2), 16)
    xi_t = 0.5 + 0.7 / (16 * 2)
    val = piece_multipliers([spec], (0.3, xi_t), params)[0]
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
            mino = piece_multipliers([PieceSpec("min")], xi, params)[0]
            whole = piece_multipliers([PieceSpec("whole")], xi, params)[0]
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
        assert piece_multipliers([PieceSpec("maj")], xi, params)[0] == 0j
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
        piece_multipliers([PieceSpec("dyadic", 1, 99)], (0.1, 0.2), params)
    with pytest.raises(ValueError):
        arc_system(16).piece_weight(PieceSpec("whole"), 0.2)  # m itself has no ladder weight


def test_a_block_past_q_limit_is_refused():
    # N = 8 caps the q range of a standalone piece at N - 1 = 7, below every q of block 64
    params = OperatorParams.smooth(2, 8)
    message = "block Q=64 has no denominator q <= q_limit = 7 at N=8"
    for spec in (PieceSpec("core", 64), PieceSpec("dyadic", 64, 0)):
        system = arcs.piece_system(spec, params)
        with pytest.raises(ValueError, match=message):
            system.terms(spec)
        with pytest.raises(ValueError, match=message):
            piece_multipliers([spec], (0.1, 0.2), params)


def test_arc_system_default_q_limit_shares_one_cache_entry():
    # maj reads arc_system(N), a standalone Q = 1 piece arc_system(N, N // 10)
    params = OperatorParams.smooth(2, 64)
    system = arcs.piece_system(PieceSpec("maj"), params)
    assert arcs.piece_system(PieceSpec("dyadic", 1, 0), params) is system
    assert arc_system(64) is arc_system(64, 6) is arc_system(64, q_limit=6) is system
    assert system.q_limit == 6 and arc_system(64, q_limit=5) is not system


def test_arc_system_rejects_tiny_N():
    with pytest.raises(ValueError):
        ArcSystem(8)  # default q_limit floor(N/10) = 0


def _telescoped_weight_sum(system, t):
    """W(t) in telescoped form: psi(Nq u) - psi(Nq v) per fraction, added to the sum one bump at a time."""
    t = np.asarray(t, dtype=float)
    acc = np.zeros(t.shape if t.ndim else ())
    for (q, a), lad in system.ladders.items():
        c = a / q
        u = _torus_signed(t - c)
        v = _torus_signed(t - c - lad.shift)
        s = float(system.N * q)
        acc = acc + bump_psi(s * u) - bump_psi(s * v)
    return acc if np.ndim(acc) else float(acc)


@pytest.mark.parametrize("N", [16, 64, 256])
def test_maj_weight_equals_telescoped_weight_sum(N):
    # at each t at most one ladder is nonzero, so the ladder sum of "total"
    # etas and the telescoped loop add the same terms in the same order
    system = arc_system(N)
    maj = PieceSpec("maj")
    rng = np.random.default_rng(N + 7)
    step = 1.0 / (8 * N * N)
    near = np.concatenate([np.arange(lo - 4 * step, hi + 4 * step, step) % 1.0 for lo, hi in system.clusters()])
    M = min(4 * N * N, 1 << 14)
    for t in (rng.random(2000), np.arange(M) / M, near[:: max(1, N // 16)]):
        assert np.array_equal(system.piece_weight(maj, t), _telescoped_weight_sum(system, t))
    for t in [0.0, 0.5, 1 / 3, *rng.random(50).tolist()]:
        value = system.piece_weight(maj, t)
        assert type(value) is float
        assert value == _telescoped_weight_sum(system, t)


def _dense_piece_weight(system, spec, t):
    """Oracle: every ladder's eta at every point, added in ladder order."""
    t = np.asarray(t, dtype=float)
    level, ladders = system.terms(spec)
    acc = np.zeros(t.shape)
    for lad in ladders:
        acc = acc + lad.eta(level, t)
    return acc if np.ndim(acc) else float(acc)


def _assert_weights_match_dense(system, specs, t):
    for spec in specs:
        fast, dense = system.piece_weight(spec, t), _dense_piece_weight(system, spec, t)
        assert fast.shape == dense.shape and fast.tobytes() == dense.tobytes(), spec  # bits, nan and -0.0 too


def _edge_points(system, rng):
    """Random t, t outside [0, 1), t at and near 0 and 1, and t at and around every cluster end."""
    ends = np.array(system.clusters()).ravel()
    w = 1.0 / (system.N * np.array([lad.frac.q for lad in system.ladders.values()]))
    around = np.concatenate([ends, ends + 1, ends - 1, *(ends + d * np.repeat(w, 2) for d in (-1.01, -0.99, 0.99, 1.01))])
    return np.concatenate([
        rng.random(1000), rng.uniform(-1.9, -0.1, 200), rng.uniform(1.0, 1.9, 200), around,
        [0.0, -0.0, 1.0, -1.0, 0.5, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0), -np.nextafter(0.0, 1.0),
         -1e-17, 1 - 1e-17, 1 + 1e-16, np.nextafter(2.0, 0.0), 2.0, -2.0, 3.25, -7.5, 1e15],
        np.arange(-50, 51) * 1e-13, 1 + np.arange(-50, 51) * 1e-13,
        2.0**40 + rng.random(100), -(2.0**44) - rng.random(100),  # t - a/q rounds by up to 2^-9
    ])


def test_piece_weight_matches_every_ladder_on_the_sup_scan_grid():
    # the 30,102-point scan of piece_sup_report at smooth n=2 N=64, every piece
    from paravg.coefficients import _scan_points

    params = OperatorParams.smooth(2, 64)
    ts = _scan_points(params, PieceSpec("maj"))
    assert len(ts) == 30102
    system = arc_system(64)
    _assert_weights_match_dense(system, [PieceSpec("maj"), *piece_specs(system)], ts)


@pytest.mark.parametrize("N", [16, 17, 32, 64, 100, 128, 256])
def test_piece_weight_matches_every_ladder_on_both_arc_families(N):
    rng = np.random.default_rng(N)
    params = OperatorParams.smooth(2, N)
    system = arc_system(N)
    specs = [PieceSpec("maj"), *piece_specs(system)]
    _assert_weights_match_dense(system, specs, _edge_points(system, rng))
    # the standalone family: a block's system reaches past floor(N/10)
    Q = 1 << (N // 10).bit_length()  # the first block past floor(N/10)
    block = arcs.piece_system(PieceSpec("core", Q), params)
    _assert_weights_match_dense(block, [PieceSpec("core", Q), PieceSpec("dyadic", Q, 0)], _edge_points(block, rng))


@pytest.mark.parametrize("N, q_limit", [(12, 11), (16, 5), (16, 15), (20, 9), (32, 12), (64, 31), (2, 1), (5, 4)])
def test_piece_weight_matches_every_ladder_where_clusters_overlap(N, q_limit):
    # q_limit > N/10: clusters overlap, and for N q <= 9 a widened cluster covers the torus
    system = ArcSystem(N, q_limit)
    assert not system.clusters_disjoint() or len(system.ladders) == 1
    rng = np.random.default_rng(N * 100 + q_limit)
    _assert_weights_match_dense(system, [PieceSpec("maj"), *piece_specs(system)], _edge_points(system, rng))


def test_piece_weight_sends_nan_and_inf_through_every_ladder():
    system = arc_system(64)
    t = np.array([0.25, np.nan, 0.0, np.inf, -np.inf, 1e300, 1 / 3])
    with np.errstate(invalid="ignore"):  # inf % 1.0
        _assert_weights_match_dense(system, [PieceSpec("maj"), PieceSpec("core", 1), PieceSpec("dyadic", 4, 1)], t)
        # a nan frequency has a nan weight, not a minor-arc one, and so has +-inf (inf mod 1 is nan)
        w = system.piece_weight(PieceSpec("maj"), t)
        assert np.array_equal(np.isnan(w), ~np.isfinite(t))
    assert math.isnan(bump_psi(math.nan)) and bump_psi(math.inf) == bump_psi(-math.inf) == 0.0
    for t in (0.0, 0.3, -0.7, 1.5, 2.5, math.nan):
        value = system.piece_weight(PieceSpec("maj"), t)
        assert type(value) is float and math.isnan(value) == math.isnan(t)
        assert np.array(value).tobytes() == np.array(_dense_piece_weight(system, PieceSpec("maj"), t)).tobytes()
    grid = np.random.default_rng(2).random((7, 9))  # any shape keeps its shape
    _assert_weights_match_dense(system, [PieceSpec("maj")], grid)


@pytest.mark.parametrize("N", [16, 64, 256])
def test_batched_piece_multiplier_matches_rows(N):
    rows = 200 if N < 256 else 60
    params = OperatorParams.smooth(2, N)
    system = arc_system(N)
    xi = np.random.default_rng(N).random((rows, 2))
    xi[0, 1] = 0.0  # the centre of the 0/1 arc
    ws = system.piece_weight(PieceSpec("maj"), xi[:, 1])
    assert np.array_equal(ws, [system.piece_weight(PieceSpec("maj"), float(t)) for t in xi[:, 1]])
    specs = [PieceSpec("whole"), PieceSpec("maj"), PieceSpec("min"), PieceSpec("dyadic", 1, 0), PieceSpec("core", 1)]
    for spec in specs:
        batched = piece_multipliers([spec], xi, params)[0]
        assert batched.shape == (rows,) and batched.dtype == complex
        assert np.array_equal(batched, [piece_multipliers([spec], row, params)[0] for row in xi])


def test_batched_piece_multiplier_n3():
    params = OperatorParams.smooth(3, 16)
    xi = np.random.default_rng(3).random((50, 3))
    for kind in ("whole", "maj", "min"):
        batched = piece_multipliers([PieceSpec(kind)], xi, params)[0]
        assert np.array_equal(batched, [piece_multipliers([PieceSpec(kind)], row, params)[0] for row in xi])
    with pytest.raises(ValueError):
        piece_multipliers([PieceSpec("whole")], xi[:, :2], params)


def _piece_multiplier_oracle(spec, rows, params):
    """One spec at a time: its own multiplier call and its own weight call."""
    whole = multiplier(rows, params)
    if spec.kind == "whole":
        return whole
    w = arcs.piece_system(spec, params).piece_weight(spec, rows[:, -1])
    return whole - whole * w if spec.kind == "min" else whole * w


@pytest.mark.parametrize("n, N", [(2, 16), (2, 64), (3, 16)])
def test_piece_multipliers_match_one_spec_at_a_time(n, N):
    params = OperatorParams.smooth(n, N)
    xi = np.random.default_rng(N + n).random((120, n))
    xi[0, -1] = 0.0
    specs = [PieceSpec("whole"), PieceSpec("maj"), PieceSpec("min"), PieceSpec("core", 1),
             PieceSpec("dyadic", 1, 0), PieceSpec("core", 2), PieceSpec("dyadic", 2, 1)]
    batched = piece_multipliers(specs, xi, params)
    for spec, values in zip(specs, batched):
        assert values.shape == (len(xi),) and values.dtype == complex
        assert np.array_equal(values, _piece_multiplier_oracle(spec, xi, params)), spec
        assert np.array_equal(values, piece_multipliers([spec], xi, params)[0]), spec
    points = piece_multipliers(specs, xi[5], params)
    assert [type(v) for v in points] == [complex] * len(specs)
    assert points == [complex(v[5]) for v in batched]


def test_piece_multipliers_share_the_multiplier_and_the_arc_weight(monkeypatch):
    params = OperatorParams.smooth(2, 64)
    xi = np.random.default_rng(1).random((50, 2))
    calls = []
    for owner, name in ((arcs, "multiplier"), (ArcSystem, "piece_weight")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    piece_multipliers([PieceSpec(kind) for kind in ("whole", "maj", "min")], xi, params)
    assert sorted(calls) == ["multiplier", "piece_weight"]  # maj and min read the same W
    calls.clear()
    specs = [PieceSpec("maj"), PieceSpec("core", 1), PieceSpec("dyadic", 1, 0), PieceSpec("min")]
    piece_multipliers(specs, xi, params)
    assert sorted(calls) == ["multiplier"] + ["piece_weight"] * 3


def _ladder_etas(ladder, xi):
    """eta(level, xi) for every level of one ladder, in levels() order, as the rows of one array."""
    return arcs._level_etas(ladder.scales, ladder.shift, ladder.frac.center, xi)


@pytest.mark.parametrize("N", [16, 64, 256])
def test_denominator_etas_match_level_etas_per_ladder(N):
    system = arc_system(N)
    rng = np.random.default_rng(N + 2)
    for q in range(1, system.q_limit + 1):
        a = np.array(totatives(q))
        u = (rng.random((len(a), 50)) * 2 - 1) / (N * q)
        xi = (a[:, None] / q + u) % 1.0
        grouped = system.denominator_etas(q, xi)
        assert grouped.shape == (len(system.ladders[(q, a[0])].levels()), len(a), 50)
        for j, numerator in enumerate(a.tolist()):
            assert np.array_equal(grouped[:, j], _ladder_etas(system.ladders[(q, numerator)], xi[j])), (q, numerator)


@pytest.mark.parametrize("N", [16, 64, 256])
def test_level_etas_match_eta_per_level(N):
    system = arc_system(N)
    rng = np.random.default_rng(N + 1)
    for (q, a), ladder in system.ladders.items():
        u = (rng.random(200) * 2 - 1) / (N * q)
        xi = (a / q + u) % 1.0
        etas = _ladder_etas(ladder, xi)
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
