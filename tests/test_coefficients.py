"""Piece Fourier coefficients: closed form, oracle, decay and sup reports."""

import numpy as np
import pytest

from paravg.arcs import PieceSpec, arc_system
from paravg.coefficients import (
    CoefficientQuery,
    coefficient_decay_report,
    coefficient_scale,
    kernel_coefficient,
    maj_coefficient,
    minor_coefficient_report,
    piece_coefficient,
    piece_coefficient_oracle,
    piece_sup_report,
    write_decay_table,
)
from paravg.cutoff import OperatorParams


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
    a = piece_coefficient_oracle(query, grid_size=4096)
    b = piece_coefficient_oracle(query, grid_size=8192)
    assert abs(a - b) < 1e-9
    with pytest.raises(ValueError):
        piece_coefficient_oracle(query, grid_size=1000)


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
    from paravg.arcs import bump_psi_hat
    from paravg.expsums import e1

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
            for spec in system.piece_specs()
        )
        assert abs(total - maj_coefficient(params, r)) <= 1e-12


def test_maj_coefficient_vs_oracle_truncation():
    # numerically integrate the full arc weight against e(t xi) and compare
    params = OperatorParams.smooth(2, 16)
    system = arc_system(16)
    rng = np.random.default_rng(14)
    from paravg.expsums import e1

    for _ in range(5):
        r = (int(rng.integers(-15, 16)), int(rng.integers(-200, 201)))
        t = r[0] * r[0] - r[1]
        M = 1 << 14
        j = np.arange(M)
        w = system.weight_sum(j / M)
        numeric = params.cutoff.value(r[0]) * complex(np.sum(w * e1(((t * j) % M) / M)) / M)
        assert abs(numeric - maj_coefficient(params, r)) <= 1e-7


def test_minor_coefficient_sweep():
    consts = {}
    for N in (16, 32):
        rep = minor_coefficient_report(OperatorParams.smooth(2, N), n_samples=150, seed=2)
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


def test_piece_sup_reports():
    params = OperatorParams.smooth(2, 16)
    whole = piece_sup_report(PieceSpec("whole"), params)
    assert 1.0 <= whole.constant <= 4.0  # (mass/N)^(n-1)
    dy = piece_sup_report(PieceSpec("dyadic", 1, 0), params)
    assert 0 < dy.constant < 50
    core = piece_sup_report(PieceSpec("core", 1), params)
    assert 0 < core.constant < 50


def test_min_sup_sweep():
    consts = {}
    for N in (16, 32, 64):
        rep = piece_sup_report(PieceSpec("min"), OperatorParams.smooth(2, N))
        consts[N] = rep.constant
    assert max(consts.values()) / min(consts.values()) < 2.0


def test_decay_table_csv(tmp_path):
    params = OperatorParams.smooth(2, 8)
    path = tmp_path / "decay.csv"
    write_decay_table(PieceSpec("dyadic", 1, 0), params, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "r,residual,abs_coefficient,bound,ratio"
    assert len(lines) > 10


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
    from paravg.arcs import piece_multiplier

    for spec in (PieceSpec("dyadic", 1, 0), PieceSpec("min")):
        rep = piece_sup_report(spec, params)
        rng = np.random.default_rng(8)
        brute = 0.0
        for _ in range(300):
            xi = (rng.random(), rng.random())
            brute = max(brute, abs(piece_multiplier(spec, xi, params)))
        # 5% slack: the scan grid is finite, so random points may edge it out
        assert brute <= rep.values["sup"] * 1.05 + 1e-9


def _uncached_oracle(query, grid_size=4096, order=8, tol=1e-9):
    """piece_coefficient_oracle as it ran before its weight grids were cached."""
    from paravg.arcs import piece_system
    from paravg.coefficients import _sigma_product
    from paravg.expsums import e1

    sig = _sigma_product(query.params, query.r[:-1])
    t = query.residual
    system = piece_system(query.spec, query.params, order)

    def rect(M):
        j = np.arange(M, dtype=np.int64)
        w = system.piece_weight(query.spec, j / M)
        return complex(np.sum(w * e1(((t * j) % M) / M)) / M)

    prev = rect(grid_size)
    M = grid_size
    for _ in range(4):
        M *= 2
        cur = rect(M)
        if abs(cur - prev) <= tol:
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


def test_cached_oracle_grid_is_read_only_and_shared():
    from paravg.coefficients import _oracle_weights

    w = _oracle_weights(8, 8, 1, PieceSpec("dyadic", 1, 0), 4096)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0] = 1.0
    assert _oracle_weights(8, 8, 1, PieceSpec("dyadic", 1, 0), 4096) is w
    assert _oracle_weights.cache_info().maxsize == 64
