"""Piece Fourier coefficients: closed form, oracle, decay and sup reports."""

import numpy as np
import pytest

from paravg.arcs import ArcSystem, PieceSpec, arc_system, bump_psi_hat, piece_system
from paravg.coefficients import (
    CoefficientQuery,
    _coefficient_sup,
    _decay_bound,
    _sigma_product,
    _sup_bound,
    coefficient_decay_report,
    coefficient_scale,
    minor_coefficient_report,
    piece_coefficient,
    piece_coefficient_oracle,
    piece_sup_report,
)
from paravg.cutoff import OperatorParams
from paravg.expsums import e1
from test_arcs import piece_specs


def kernel_coefficient(params: OperatorParams, r) -> float:
    """Coefficient of the whole multiplier at r: the kernel value itself."""
    rp, rn = tuple(r[:-1]), int(r[-1])
    if sum(c * c for c in rp) != rn:
        return 0.0
    return _sigma_product(params, rp)


def maj_coefficient(params: OperatorParams, r) -> complex:
    """Closed-form coefficient of the arc-localized part at r: sigma product times the maj piece_hat."""
    sig = _sigma_product(params, r[:-1])
    if sig == 0.0:
        return 0j
    t = np.int64(sum(c * c for c in r[:-1]) - r[-1])
    return sig * arc_system(params.N).piece_hat(PieceSpec("maj"), t)


def minor_coefficient(params: OperatorParams, r) -> complex:
    """Coefficient of the minor-arc part at r: the kernel value minus the arc-localized part."""
    return kernel_coefficient(params, r) - maj_coefficient(params, r)


def _random_specs(rng, Qs=(1, 2), ls=(0, 1)):
    kind = "core" if rng.random() < 0.3 else "dyadic"
    Q = int(rng.choice(Qs))
    if kind == "core":
        return PieceSpec("core", Q)
    return PieceSpec("dyadic", Q, int(rng.choice(ls)))


def test_paraboloid_vanishing_exact():
    params = OperatorParams.smooth(2, 8)
    for spec in (PieceSpec("dyadic", 2, 0), PieceSpec("core", 1)):
        for r1 in (-7, -3, 0, 2, 5):
            q = CoefficientQuery(spec, (r1, r1 * r1), params)
            assert piece_coefficient(q) == 0j


def test_cutoff_support_vanishing():
    params = OperatorParams.smooth(2, 8)
    q = CoefficientQuery(PieceSpec("dyadic", 1, 0), (16, 3), params)
    assert piece_coefficient(q) == 0j
    q = CoefficientQuery(PieceSpec("dyadic", 1, 0), (-20, 3), params)
    assert piece_coefficient(q) == 0j


def test_closed_form_vs_oracle_n2():
    params = OperatorParams.smooth(2, 8)
    rng = np.random.default_rng(11)
    for _ in range(30):
        spec = _random_specs(rng)
        r = (int(rng.integers(-15, 16)), int(rng.integers(-320, 321)))
        query = CoefficientQuery(spec, r, params)
        closed = piece_coefficient(query)
        oracle = piece_coefficient_oracle(query)
        scale = max(abs(oracle), coefficient_scale(spec, params))
        assert abs(closed - oracle) <= 1e-8 * scale


def test_closed_form_vs_oracle_n3():
    params = OperatorParams.smooth(3, 4)
    rng = np.random.default_rng(12)
    for _ in range(10):
        spec = PieceSpec("dyadic", 1, 0) if rng.random() < 0.7 else PieceSpec("core", 1)
        r = (
            int(rng.integers(-7, 8)),
            int(rng.integers(-7, 8)),
            int(rng.integers(-80, 81)),
        )
        query = CoefficientQuery(spec, r, params)
        closed = piece_coefficient(query)
        oracle = piece_coefficient_oracle(query)
        scale = max(abs(oracle), coefficient_scale(spec, params))
        assert abs(closed - oracle) <= 1e-8 * scale


def test_oracle_convergence_certificate():
    params = OperatorParams.smooth(2, 8)
    query = CoefficientQuery(PieceSpec("dyadic", 2, 0), (3, -100), params)
    a = piece_coefficient_oracle(query)
    b = _uncached_oracle(query, grid_size=8192)
    assert abs(a - b) < 1e-9


def test_oracle_vanishes_on_paraboloid():
    params = OperatorParams.smooth(2, 8)
    for r1 in (-3, 1, 4):
        query = CoefficientQuery(PieceSpec("dyadic", 1, 0), (r1, r1 * r1), params)
        assert abs(piece_coefficient_oracle(query)) <= 1e-9


def test_oracle_linearity_over_levels():
    # core + all dyadic coefficients = coefficient of the whole-arc weight
    params = OperatorParams.smooth(2, 8)
    system = arc_system(8, q_limit=1)
    lad = system.ladders[(1, 0)]
    r = (2, -9)
    t = 2 * 2 - (-9)
    total = sum(
        piece_coefficient(
            CoefficientQuery(
                PieceSpec("dyadic", 1, l) if l != "core" else PieceSpec("core", 1),
                r,
                params,
            )
        )
        for l in lad.levels()
    )
    sig = params.cutoff.value(2)
    s = 8 * 1
    telescoped = sig * bump_psi_hat(t / s) / s * (e1(0) - e1(((3 * t) % s) / s))
    assert abs(total - telescoped) <= 1e-12


def test_kernel_coefficient_exact():
    params = OperatorParams.smooth(2, 8)
    assert kernel_coefficient(params, (3, 9)) == 1.0
    assert kernel_coefficient(params, (3, 10)) == 0.0
    assert kernel_coefficient(params, (9, 81)) == params.cutoff.value(9)


def test_maj_coefficient_equals_piece_sum():
    params = OperatorParams.smooth(2, 16)
    system = arc_system(16)
    rng = np.random.default_rng(13)
    for _ in range(10):
        r = (int(rng.integers(-15, 16)), int(rng.integers(-300, 301)))
        total = sum(
            piece_coefficient(CoefficientQuery(spec, r, params))
            for spec in piece_specs(system)
        )
        assert abs(total - maj_coefficient(params, r)) <= 1e-12


def test_maj_coefficient_vs_oracle_truncation():
    # numerically integrate the full arc weight against e(t xi) and compare
    params = OperatorParams.smooth(2, 16)
    system = arc_system(16)
    rng = np.random.default_rng(14)
    for _ in range(5):
        r = (int(rng.integers(-15, 16)), int(rng.integers(-200, 201)))
        t = r[0] * r[0] - r[1]
        M = 1 << 14
        j = np.arange(M)
        w = system.piece_weight(PieceSpec("maj"), j / M)
        numeric = params.cutoff.value(r[0]) * complex(np.sum(w * e1(((t * j) % M) / M)) / M)
        assert abs(numeric - maj_coefficient(params, r)) <= 1e-7


def _bracket_maj_coefficient(params, r):
    """maj_coefficient as a Python-int loop over fractions: the telescoped transform times the bracket."""
    sig = _sigma_product(params, r[:-1])
    if sig == 0.0:
        return 0j
    t = int(sum(c * c for c in r[:-1]) - r[-1])
    acc = 0j
    for (q, a), lad in arc_system(params.N).ladders.items():
        s = params.N * q
        r1 = ((a * t) % q) / q
        r2 = ((3 * t) % s) / s
        acc += bump_psi_hat(t / s) / s * (e1(r1) - e1(r1 + r2))
    return sig * acc


@pytest.mark.parametrize("N", [16, 64, 256])
def test_maj_coefficient_equals_bracket_loop(N):
    params = OperatorParams.smooth(2, N)
    rng = np.random.default_rng(N + 15)
    rs = [(k, k * k) for k in (0, 1, N - 1)] + [(0, 0), (0, 1), (1, -1)]
    for _ in range(150):
        r1 = int(rng.integers(-2 * N + 1, 2 * N))
        rs.append((r1, r1 * r1 - int(rng.integers(-8 * N, 8 * N + 1))))  # near the paraboloid
        rs.append((r1, int(rng.integers(-5 * N * N, 5 * N * N + 1))))
    for r in rs:
        value = maj_coefficient(params, r)
        assert type(value) is complex
        assert value == _bracket_maj_coefficient(params, r), r


def test_maj_piece_hat_refuses_residuals_past_the_int64_bound():
    # at N = 16 the only fraction is 0/1, so the guard max(a, 3)|t| < 2^62 reads 3|t| < 2^62
    system = arc_system(16)
    t_max = (2**62 - 1) // 3
    assert np.isfinite(system.piece_hat(PieceSpec("maj"), t_max))
    # 2^63 arrives as uint64 and 2^70 as a Python-int object array: neither may wrap in the int64 cast
    for t in (t_max + 1, -(t_max + 1), 2**63, 2**70, np.int64(-(2**63)), np.array([0, t_max + 1]),
              np.array([2**63], dtype=np.uint64)):
        with pytest.raises(OverflowError):
            system.piece_hat(PieceSpec("maj"), t)


def test_minor_coefficient_sweep():
    consts = {}
    for N in (16, 32):
        rep = minor_coefficient_report(OperatorParams.smooth(2, N))
        consts[N] = rep.constant
        assert np.isfinite(rep.constant)
    assert max(consts.values()) / min(consts.values()) < 4.0


def test_decay_report_sweep_uniform_per_family():
    per_family = {}
    for N in (8, 16, 32):
        for Q in (1, 2):
            for l in (0, 1):
                rep = coefficient_decay_report(PieceSpec("dyadic", Q, l), OperatorParams.smooth(2, N))
                per_family.setdefault((Q, l), []).append(rep.constant)
                res = rep.values["argmax_residual"]
                assert 1 <= abs(res) <= 4 * (2**l) * N * Q  # sup sits in the bump's bulk
    for fam, consts in per_family.items():
        assert max(consts) / min(consts) < 3.0, fam


def test_decay_report_core():
    consts = []
    for N in (8, 16, 32):
        rep = coefficient_decay_report(PieceSpec("core", 1), OperatorParams.smooth(2, N))
        consts.append(rep.constant)
    assert max(consts) / min(consts) < 3.0


def _residuals(params):
    """The residuals t = |r'|^2 - r_n of the scan box |r_i| < 2N, |r_n| <= 5 N^2, ascending."""
    N, n = params.N, params.n
    return np.arange(-5 * N * N, (n - 1) * (2 * N - 1) ** 2 + 5 * N * N + 1, dtype=np.int64)


def _loop_sup(H, params):
    """Oracle: the decay report's scan as a loop over r', one window argmax each.

    H[i] is |coefficient / sigma product| at residual _residuals(params)[i].
    Returns (sup, first r attaining it), with r None when the sup is 0.
    """
    N, n = params.N, params.n
    t_lo = rn_lo = -5 * N * N
    rn_hi = 5 * N * N
    r_range = np.arange(-(2 * N - 1), 2 * N)
    flat = [g.ravel() for g in np.meshgrid(*([r_range] * (n - 1)), indexing="ij")]
    weights = np.ones(len(flat[0]))
    ssum = np.zeros(len(flat[0]), dtype=np.int64)
    for g in flat:
        weights *= np.asarray(params.cutoff.value(g), dtype=float)
        ssum += g.astype(np.int64) ** 2
    best, best_r = 0.0, None
    for w, s, *rp in zip(weights, ssum, *flat):
        if w == 0.0:
            continue
        idx_lo = int(s) - rn_hi - t_lo
        window = H[idx_lo : int(s) - rn_lo - t_lo + 1]
        i = int(np.argmax(window))
        val = w * float(window[i])
        if val > best:
            best = val
            best_r = tuple(int(c) for c in rp) + (int(s) - (idx_lo + i + t_lo),)
    return best, best_r


def _profile(spec, params):
    """|coefficient / sigma product| on the scan residuals, from piece_hat."""
    ts = _residuals(params)
    hat = piece_system(spec, params).piece_hat(spec, ts)
    return np.abs(np.where(ts == 0, 1.0, 0.0) - hat) if spec.kind == "min" else np.abs(hat)


_SUP_SPECS = [PieceSpec("core", 1), PieceSpec("core", 2), PieceSpec("dyadic", 1, 0),
              PieceSpec("dyadic", 2, 1), PieceSpec("dyadic", 1, 1)]


@pytest.mark.parametrize("kind", ["smooth", "sharp"])
@pytest.mark.parametrize("n,N", [(2, 8), (2, 16), (2, 32), (2, 64), (3, 8), (3, 16)])
def test_decay_report_matches_loop_oracle(kind, n, N):
    params = getattr(OperatorParams, kind)(n, N)
    for spec in _SUP_SPECS:
        sup, r = _loop_sup(_profile(spec, params), params)
        rep = coefficient_decay_report(spec, params)
        assert type(rep.values["sup"]) is float and type(rep.constant) is float
        assert rep.values["sup"] == sup and rep.constant == sup / _decay_bound(spec, params)
        assert rep.values["argmax_residual"] == float(sum(c * c for c in r[:-1]) - r[-1])
        assert rep.notes == f"argmax at r={r}; decay exponent in the residual is order+1=9"


@pytest.mark.parametrize("kind", ["smooth", "sharp"])
@pytest.mark.parametrize("N", [16, 32])
def test_maj_and_min_sup_match_loop_oracle(kind, N):
    params = getattr(OperatorParams, kind)(2, N)
    for spec in (PieceSpec("maj"), PieceSpec("min")):
        assert _coefficient_sup(spec, params) == _loop_sup(_profile(spec, params), params)


_PROFILES = {
    "rising": lambda t: (t + 10**6) / 3.0 + 0j,
    "falling": lambda t: (10**6 - t) * (1 - 1j),
    "flat": lambda t: np.full(t.shape, 0.5 + 0.5j),
    "scattered": lambda t: (np.sin(12.9898 * t) * 43758.5453) % 1.0 + 0j,
    "spike": lambda t: np.where(t == 7, 2.0, 0.25) + 0j,
    "steep": lambda t: np.exp(t / 20.0) + 0j,  # the last residuals outweigh the sigma ramp
}


@pytest.mark.parametrize("shape", sorted(_PROFILES))
def test_coefficient_sup_matches_loop_on_synthetic_profiles(shape, monkeypatch):
    # monotone profiles put every window max on a window edge, a flat one ties
    # every window and every r', a steep one moves the sup to the largest
    # |r'|^2 and residual; the loop oracle settles each case
    profile = _PROFILES[shape]
    monkeypatch.setattr(ArcSystem, "piece_hat", lambda self, spec, t: profile(np.asarray(t)))
    for params in (OperatorParams.smooth(2, 12), OperatorParams.sharp(2, 12), OperatorParams.sharp(3, 10)):
        ts = _residuals(params)
        for spec, H in ((PieceSpec("dyadic", 1, 0), np.abs(profile(ts))),
                        (PieceSpec("min"), np.abs(np.where(ts == 0, 1.0, 0.0) - profile(ts)))):
            assert _coefficient_sup(spec, params) == _loop_sup(H, params), (shape, params, spec)


@pytest.mark.parametrize("N", [16, 32])
def test_minor_sup_sharp_n3_sits_on_the_paraboloid(N):
    # sigma(0) = 0 for the sharp cutoff, so the sup needs r' with nonzero entries
    params = OperatorParams.sharp(3, N)
    rep = minor_coefficient_report(params)
    assert rep.values["sup"] == 1.0 == abs(minor_coefficient(params, (1, 1, 2)))
    assert rep.notes == "argmax at r=(1, 1, 2)"
    assert rep.constant == 1.0 / N**0.2


def test_minor_sup_equals_scalar_max_over_the_box():
    params = OperatorParams.sharp(2, 10)
    brute = max(
        abs(minor_coefficient(params, (r1, rn))) for r1 in range(-19, 20) for rn in range(-500, 501)
    )
    assert minor_coefficient_report(params).values["sup"] == brute


def test_coefficient_sup_refuses_boxes_over_the_budget():
    with pytest.raises(ValueError, match="r' grid n=5 N=64.*allocation budget"):
        coefficient_decay_report(PieceSpec("dyadic", 1, 0), OperatorParams.smooth(5, 64))
    with pytest.raises(ValueError, match="residual profile n=2 N=6000.*allocation budget"):
        minor_coefficient_report(OperatorParams.sharp(2, 6000))


def test_piece_sup_reports():
    params = OperatorParams.smooth(2, 16)
    whole = piece_sup_report(PieceSpec("whole"), params)
    assert 1.0 <= whole.constant <= 4.0  # (mass/N)^(n-1)
    dy = piece_sup_report(PieceSpec("dyadic", 1, 0), params)
    assert 0 < dy.constant < 50
    core = piece_sup_report(PieceSpec("core", 1), params)
    assert 0 < core.constant < 50


def _full_grid_sup_report(spec, params):
    """Oracle: piece_sup_report as it ran with the row max taken at every scan point."""
    from paravg.arcs import piece_system
    from paravg.coefficients import _scan_points
    from paravg.expsums import gauss_row_max

    y_grid = max(8 * params.N, 64)
    ts = _scan_points(params, spec)
    g = gauss_row_max(ts, params.cutoff, y_grid)
    if spec.kind == "whole":
        weight = np.ones_like(ts)
    else:
        w = piece_system(spec, params).piece_weight(spec, ts)
        weight = np.abs(1.0 - w) if spec.kind == "min" else np.abs(w)
    vals = weight * g ** (params.n - 1)
    i = int(np.argmax(vals))
    bound = _sup_bound(spec, params)
    return float(vals[i]) / bound, {"sup": float(vals[i]), "bound": bound, "argmax_t": float(ts[i])}, len(ts)


# (3, 20) and (4, 10) have pieces whose argmax of weight * g^(n-1) is not that of weight * g
@pytest.mark.parametrize("n,N", [(2, 32), (3, 12), (3, 20), (4, 10)])
def test_piece_sup_report_matches_full_grid(n, N, monkeypatch):
    from paravg import coefficients
    from paravg.arcs import arc_system

    rows = []
    screen = coefficients.screen_row_max
    monkeypatch.setattr(coefficients, "screen_row_max", lambda ts, *a: rows.append(len(ts)) or screen(ts, *a))
    params = OperatorParams.smooth(n, N)
    skipped = {}
    # every piece of the arc system, and the three sums of pieces
    for spec in [PieceSpec("whole"), PieceSpec("maj"), PieceSpec("min")] + piece_specs(arc_system(N)):
        rep = piece_sup_report(spec, params)
        assert (rep.constant, rep.values, rep.params["t_points"]) == _full_grid_sup_report(spec, params)
        skipped[spec.kind] = rep.params["t_points"] - rows[-1]
    assert skipped["whole"] == 0 and skipped["min"] > 0 and skipped["maj"] > 0


def test_piece_sup_report_with_every_weight_zero(monkeypatch):
    from paravg import arcs, coefficients

    calls = []
    screen = coefficients.screen_row_max
    monkeypatch.setattr(arcs.ArcSystem, "piece_weight", lambda self, spec, t: np.zeros(np.shape(t)))
    monkeypatch.setattr(coefficients, "screen_row_max", lambda ts, *a: calls.append(len(ts)) or screen(ts, *a))
    params = OperatorParams.smooth(2, 16)
    for spec in (PieceSpec("min"), PieceSpec("dyadic", 1, 0)):
        calls.clear()
        rep = piece_sup_report(spec, params)
        if spec.kind == "min":  # |1 - 0| = 1 everywhere: every point is live
            assert calls == [rep.params["t_points"]]
        else:
            assert calls == [0] and rep.constant == 0.0 and rep.values["sup"] == 0.0
        assert (rep.constant, rep.values, rep.params["t_points"]) == _full_grid_sup_report(spec, params)


def test_piece_sup_report_refines_a_few_rows(monkeypatch):
    from paravg import coefficients

    rows = []
    row_max = coefficients.gauss_row_max
    monkeypatch.setattr(coefficients, "gauss_row_max", lambda ts, *a: rows.append(len(ts)) or row_max(ts, *a))
    rep = piece_sup_report(PieceSpec("min"), OperatorParams.smooth(2, 64))
    assert len(rows) == 1 and 1 <= rows[0] <= 64 < rep.params["t_points"]


@pytest.mark.parametrize("N", [24, 48])
@pytest.mark.parametrize("kind", ["min", "maj"])
def test_piece_sup_report_keeps_its_bits_at_n_not_a_power_of_two(kind, N):
    # the scan grid is not mirrored exactly here, so the screen folds only some rows;
    # the oracle takes the row max at every row, the live ones among them
    spec, params = PieceSpec(kind), OperatorParams.smooth(2, N)
    rep = piece_sup_report(spec, params)
    assert (rep.constant, rep.values, rep.params["t_points"]) == _full_grid_sup_report(spec, params)


def test_piece_sup_report_screens_about_half_its_live_rows(monkeypatch):
    # 24,236 live rows at smooth N = 64; the fold screens 13,027 of them through the
    # screen's table of e(t j^2), and gauss_row_max's FFT re-evaluates a few candidates
    from paravg import expsums

    tables, ffts = [], []
    exps, fft = expsums._quadratic_exps, np.fft.fft
    monkeypatch.setattr(expsums, "_quadratic_exps", lambda t, y, out: tables.append(len(t)) or exps(t, y, out))
    monkeypatch.setattr(np.fft, "fft", lambda a, *args, **kw: ffts.append(a.shape[0]) or fft(a, *args, **kw))
    piece_sup_report(PieceSpec("min"), OperatorParams.smooth(2, 64))
    assert 1 <= sum(ffts) <= 64
    assert 13_027 < sum(tables) + sum(ffts) <= 13_100


@pytest.mark.parametrize("shift, changed", [(0.9, False), (2.0, True)])
def test_piece_sup_report_needs_its_screen_within_beta(shift, changed, monkeypatch):
    # lower the screened rows at the reported argmax by shift * beta and raise
    # every other row by as much: within beta the report keeps its bits; at
    # 2 beta the row at t = 3/8, whose value ties with the one at 1/8 up to
    # roundoff, hides the argmax, so the report changes
    from paravg import coefficients

    params = OperatorParams.smooth(2, 32)
    honest = piece_sup_report(PieceSpec("min"), params)
    screen = coefficients.screen_row_max

    def shifted(ts, *args):
        values, beta = screen(ts, *args)
        return np.where(ts == honest.values["argmax_t"], values - shift * beta, values + shift * beta), beta

    monkeypatch.setattr(coefficients, "screen_row_max", shifted)
    rep = piece_sup_report(PieceSpec("min"), params)
    assert ((rep.constant, rep.values) != (honest.constant, honest.values)) == changed
    if changed:
        assert (honest.values["argmax_t"], rep.values["argmax_t"]) == (0.125, 0.375)


def test_min_sup_sweep():
    consts = {}
    for N in (16, 32, 64):
        rep = piece_sup_report(PieceSpec("min"), OperatorParams.smooth(2, N))
        consts[N] = rep.constant
    assert max(consts.values()) / min(consts.values()) < 2.0


def test_piece_sizes_match_the_written_out_scales_and_bounds():
    # the scale, decay bound and sup bound as each was written out per kind
    def scale(spec, N):
        return 1.0 / (N * 2**spec.level) if spec.kind == "dyadic" else spec.Q / (N * N)

    def decay(spec, N):
        if spec.kind == "dyadic":
            return (N * 2**spec.level) ** (-1.0) * (spec.Q * N) ** 0.2
        return (N * N / spec.Q) ** (-1.0) * (spec.Q * N) ** 0.2

    def sup_bound(spec, N, n):
        if spec.kind == "dyadic":
            return float((N * 2**spec.level) ** ((n - 1) / 2))
        return float((N * N / spec.Q) ** ((n - 1) / 2))

    specs = [PieceSpec("core", Q) for Q in (1, 2, 4, 8, 16, 32)]
    specs += [PieceSpec("dyadic", Q, l) for Q in (1, 2, 4, 8, 16, 32) for l in range(6)]
    for N in range(4, 300):
        for n in (2, 3):
            params = OperatorParams.smooth(n, N)
            for spec in specs:
                assert coefficient_scale(spec, params) == scale(spec, N)
                assert _decay_bound(spec, params) == decay(spec, N)
                assert _sup_bound(spec, params) == sup_bound(spec, N, n)
    with pytest.raises(ValueError):
        coefficient_scale(PieceSpec("maj"), OperatorParams.smooth(2, 16))


def test_query_validation():
    params = OperatorParams.smooth(2, 8)
    with pytest.raises(ValueError):
        CoefficientQuery(PieceSpec("maj"), (1, 2), params)
    with pytest.raises(ValueError):
        CoefficientQuery(PieceSpec("dyadic", 1, 0), (1, 2, 3), params)
    with pytest.raises(ValueError):
        CoefficientQuery(PieceSpec("dyadic", 1, 0), (1, 2), OperatorParams.sharp(2, 8))


def test_whole_multiplier_coefficient_by_2d_quadrature():
    # rect-rule the full multiplier against e(-r.xi) on a torus grid; the
    # coefficient must recover the kernel weight (exactly sigma products on
    # the paraboloid, zero off it)
    params = OperatorParams.smooth(2, 4)
    cutoff = params.cutoff
    M = 128
    ks = cutoff.support()
    ws = cutoff.weights()
    ts = np.arange(M) / M
    # G(t, y_j) for all grid t and y via one FFT per t
    coeffs = np.zeros((M, M), dtype=np.complex128)
    kmod = np.mod(ks, M)
    phases = np.exp(2j * np.pi * ((ts[:, None] * (ks * ks)[None, :]) % 1.0))
    coeffs[:, kmod] = ws * phases
    G = np.fft.fft(coeffs, axis=1)  # bin j holds sum_k c_k e(-2pi i jk/M)
    G_pos = G[:, (-np.arange(M)) % M]  # reindex so column j is G(t, j/M)
    ys = np.arange(M) / M
    # coef = (1/M^2) sum_{t,y} G(t,y) e(-r1 y) e(-r2 t)
    for r in ((2, 4), (1, 1), (3, 9), (2, 5), (-3, 9), (0, 1), (0, 0)):
        ph = np.exp(-2j * np.pi * ((r[0] * ys)[None, :] + (r[1] * ts)[:, None]))
        coef = np.sum(G_pos * ph) / (M * M)
        assert abs(coef - kernel_coefficient(params, r)) <= 1e-10


def test_piece_sup_factorization_vs_brute_grid():
    # the scan factorizes the sup over the first coordinates into a row max;
    # a brute 2-D grid must never beat the reported sup
    params = OperatorParams.smooth(2, 16)
    from paravg.arcs import piece_multipliers

    for spec in (PieceSpec("dyadic", 1, 0), PieceSpec("min")):
        rep = piece_sup_report(spec, params)
        rng = np.random.default_rng(8)
        brute = 0.0
        for _ in range(300):
            xi = (rng.random(), rng.random())
            brute = max(brute, abs(piece_multipliers([spec], xi, params)[0]))
        # 5% slack: the scan grid is finite, so random points may edge it out
        assert brute <= rep.values["sup"] * 1.05 + 1e-9


def _uncached_oracle(query, grid_size=4096):
    """piece_coefficient_oracle as it ran before its weight grids were cached."""
    from paravg.arcs import piece_system
    from paravg.coefficients import _sigma_product
    from paravg.expsums import e1

    sig = _sigma_product(query.params, query.r[:-1])
    t = query.residual
    system = piece_system(query.spec, query.params)

    def rect(M):
        j = np.arange(M, dtype=np.int64)
        w = system.piece_weight(query.spec, j / M)
        return complex(np.sum(w * e1(((t * j) % M) / M)) / M)

    prev = rect(grid_size)
    M = grid_size
    for _ in range(4):
        M *= 2
        cur = rect(M)
        if abs(cur - prev) <= 1e-9:
            return sig * cur
        prev = cur
    raise RuntimeError("oracle did not converge")


def _c04_queries():
    """The oracle queries of acceptance criterion 4, drawn from its seed in its order."""
    rng = np.random.default_rng(1)
    params2 = OperatorParams.smooth(2, 8)
    specs2 = [PieceSpec("dyadic", Q, l) for Q in (1, 2) for l in (0, 1)]
    specs2 += [PieceSpec("core", 1), PieceSpec("core", 2)]
    params3 = OperatorParams.smooth(3, 4)
    specs3 = [PieceSpec("dyadic", 1, 0), PieceSpec("dyadic", 1, 1), PieceSpec("core", 1)]
    queries = []
    for _ in range(50):
        spec = specs2[int(rng.integers(0, len(specs2)))]
        queries.append(CoefficientQuery(spec, (int(rng.integers(-15, 16)), int(rng.integers(-320, 321))), params2))
    for _ in range(20):
        spec = specs3[int(rng.integers(0, len(specs3)))]
        r = (int(rng.integers(-7, 8)), int(rng.integers(-7, 8)), int(rng.integers(-80, 81)))
        queries.append(CoefficientQuery(spec, r, params3))
    return queries


def test_cached_oracle_matches_uncached_on_c04_queries():
    from paravg.coefficients import _oracle_weights

    _oracle_weights.cache_clear()
    for query in _c04_queries():
        expected = _uncached_oracle(query)
        assert piece_coefficient_oracle(query) == expected  # cold or warm grid
        assert piece_coefficient_oracle(query) == expected  # warm grid
    info = _oracle_weights.cache_info()
    assert info.hits > info.misses > 0


def test_oracle_root_table_matches_e1_rectangle_rule(monkeypatch):
    from paravg import coefficients

    table = coefficients._roots_of_unity
    grids = []
    monkeypatch.setattr(coefficients, "_roots_of_unity", lambda M: grids.append(M) or table(M))
    params = OperatorParams.smooth(2, 16)
    refined = set()
    for spec in (PieceSpec("core", 1), PieceSpec("dyadic", 2, 1)):
        for residual in (0, 5, -300, 3000, 5000, 20000, -9000, -40000):
            query = CoefficientQuery(spec, (0, -residual), params)
            grids.clear()
            assert piece_coefficient_oracle(query) == _uncached_oracle(query)
            for M in grids:  # every grid the oracle refined to
                i = (residual * np.arange(M, dtype=np.int64)) % M
                assert table(M)[i].tolist() == e1(i / M).tolist()
            refined.add(len(grids))
    assert refined == {2, 3}
    assert not table(4096).flags.writeable and table(4096) is table(4096)


def test_oracle_masked_index_is_the_remainder_at_every_grid(monkeypatch):
    # the oracle reads root (t j) mod M as (j (t mod M)) & (M - 1); never converging, it visits
    # all five grids 4096..65536, and each index it reads is the % rectangle rule's
    from paravg import coefficients

    table = coefficients._roots_of_unity
    reads = []

    class Spy:
        def __init__(self, M):
            self.M = M

        def __getitem__(self, i):
            reads.append((self.M, i.copy()))
            return table(self.M)[i]

    monkeypatch.setattr(coefficients, "_roots_of_unity", Spy)
    monkeypatch.setattr(coefficients, "_ORACLE_TOL", -1.0)
    params = OperatorParams.smooth(2, 16)
    for residual in (0, 1, 5, -1, -300, 4095, -4096, 4097, 70001, -65537, 3 * 2**40 + 7, -(2**40) - 3):
        reads.clear()
        with pytest.raises(RuntimeError, match="did not converge"):
            piece_coefficient_oracle(CoefficientQuery(PieceSpec("core", 1), (0, -residual), params))
        assert [M for M, _ in reads] == [4096 << i for i in range(5)]
        for M, i in reads:
            assert (i == (residual * np.arange(M, dtype=np.int64)) % M).all(), (residual, M)


def test_cached_oracle_grid_is_read_only_and_shared():
    from paravg.coefficients import _oracle_weights

    w = _oracle_weights(8, 1, PieceSpec("dyadic", 1, 0), 4096)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert _oracle_weights(8, 1, PieceSpec("dyadic", 1, 0), 4096) is w
    assert _oracle_weights.cache_info().maxsize == 64
