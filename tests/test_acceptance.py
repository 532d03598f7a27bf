"""Acceptance gate: every criterion at its stated tolerance and runtime budget.

A criterion that the CLI checks is an argv list per run, the names of the
checks it asserts, and a budget: its test runs `paravg <argv>` in process
into a temporary directory and asserts exit 0 and a `[PASS] <name>: ...`
line for each name.  The CLI records every check as a value against its
bound, so the tolerances live in one place, `paravg.cli`.  Three
assertions stay on the library: c05's maj + min split on 10,000 points
(arcs-check draws 200), and c09 and c10, which no subcommand runs.
For each CLI-backed criterion, test_criterion_fails_on_a_perturbed_computation
moves one library result past the bound of a check the criterion asserts
and expects that check, and only that one, to fail.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion; each test also prints an `ACCEPTANCE k: PASS` line with its
elapsed time (visible with -s or -rA).
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from paravg import arcs as arcs_mod
from paravg import cli, expsums
from paravg import coefficients as coef_mod
from paravg import experiments as exp_mod
from paravg import numtheory as nt
from paravg.arcs import PieceSpec, piece_multipliers
from paravg.coefficients import coefficient_decay_report, piece_sup_report
from paravg.cutoff import OperatorParams

UP_TO_32 = ",".join(map(str, range(1, 33)))


def _sharpness(check: str) -> list:
    return [(["sharpness", "--n", str(n), "--N", UP_TO_32], [f"n={n} N={N}: {check}" for N in range(1, 33)])
            for n in (2, 3)]


# criterion -> (what it shows, budget in seconds, [(argv, names of the checks it asserts)])
CRITERIA = {
    1: ("averaged box equals 1 on the core block, n in {2,3}, N <= 32", 10.0,
        _sharpness("averaged box differs from 1 on the core block")),
    2: ("averaged delta equals N^(1-n) at every reflected node, N <= 32", 5.0,
        _sharpness("averaged delta departures from N^(1-n) on the reflected nodes")),
    3: ("log-log slopes match the predicted exponents", 120.0, [
        (["scaling-fit", "--p", "1.8,2"],
         ["p=1.8: slope deviation from target -0.3333", "p=2.0: slope deviation from target -0.0000"]),
        (["scaling-fit", "--source", "delta", "--p", f"{5 / 3!r},2"],
         [f"p={5 / 3}: slope deviation from target -0.6000", "p=2.0: slope deviation from target -0.5000"]),
        (["scaling-fit", "--n", "3", "--source", "delta", "--p", "2"], ["p=2.0: slope deviation from target -1.0000"]),
    ]),
    4: ("50+20 oracle comparisons at 1e-8 and paraboloid vanishing", 60.0, [
        (["coeff-check", "--N", "8", "--count", "50"],
         ["closed form vs oracle relative error over 50 queries", "paraboloid vanishing |coefficient|"]),
        (["coeff-check", "--n", "3", "--N", "4", "--Q", "1", "--count", "20"],
         ["closed form vs oracle relative error over 20 queries", "paraboloid vanishing |coefficient|"]),
    ]),
    5: ("ladder partition of unity and maj+min split at 1e-12", 60.0, [
        (["arcs-check", "--N", "16,64"],
         [f"N={N}: {check}" for N in (16, 64) for check in ("partition of unity deviation on arcs",
                                                            "maj + min deviation from whole")]),
    ]),
    6: ("direct sums equal the arithmetic formula, q <= 128, |k| <= 2048", 30.0, [
        (["ramanujan-check"], ["direct vs Moebius residual for q <= 128, |k| <= 2048", "q with c_q(0) != phi(q)"]),
    ]),
    7: ("bound constant spread < 2 across N", 60.0, [
        (["gauss-check", "--seed", "1"], ["gauss bound constant spread across N"]),
    ]),
    8: ("level-set ratios below 1.2, counts monotone", 30.0, [
        (["divisor-check"], ["max level-set ratio", "Q=16: count increases in D", "Q=64: count increases in D"]),
    ]),
    11: ("sharp n=2 norm exactly 1; Rayleigh quotients never exceed it", 30.0, [
        (["norm-scan", "--N", "32", "--falsify", "50"],
         ["N=32: sharp n=2 l2 norm deviation from 1", "N=32: max random Rayleigh quotient"]),
    ]),
    12: ("doubling norms exactly; ratio gain 2^(1/q - 1/p)", 5.0, [
        (["separation-probe", "--N", "8"],
         ["shifted sums whose support does not double", "|f + f_h|_p deviation from 2^(1/p) |f|_p",
          "|Af + Af_h|_q deviation from 2^(1/q) |Af|_q", "ratio gain deviation from 2^(1/q - 1/p) = 1.414214"]),
    ]),
}


def _stamp(number: int, detail: str, t0: float, budget: float):
    elapsed = time.time() - t0
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    print(f"ACCEPTANCE {number}: PASS - {detail} ({elapsed:.2f}s)")


def _run(number: int, tmp_path, capsys):
    """Run every argv of a criterion; each must exit 0 with a [PASS] line per named check."""
    for i, (argv, names) in enumerate(CRITERIA[number][2]):
        assert cli.main([*argv, "--out-dir", str(tmp_path / str(i))]) == 0, argv
        lines = capsys.readouterr().out.splitlines()
        for name in names:
            assert any(line.startswith(f"[PASS] {name}: ") for line in lines), (argv, name)


def _gate(number: int, tmp_path, capsys):
    detail, budget, _ = CRITERIA[number]
    t0 = time.time()
    _run(number, tmp_path, capsys)
    _stamp(number, detail, t0, budget)


def test_c01_box_extremizer_exactness(tmp_path, capsys):
    _gate(1, tmp_path, capsys)


def test_c02_delta_extremizer_exactness(tmp_path, capsys):
    _gate(2, tmp_path, capsys)


def test_c03_scaling_exponents(tmp_path, capsys):
    _gate(3, tmp_path, capsys)


def test_c04_coefficient_closed_form_vs_oracle(tmp_path, capsys):
    _gate(4, tmp_path, capsys)


def test_c05_partition_of_unity(tmp_path, capsys):
    detail, budget, _ = CRITERIA[5]
    t0 = time.time()
    _run(5, tmp_path, capsys)
    # the split on 10,000 points per N, beyond arcs-check's 200
    rng = np.random.default_rng(2)
    for N in (16, 64):
        xi = rng.random((10_000, 2))  # the same draws as 10 000 calls of rng.random(2)
        specs = [PieceSpec(kind) for kind in ("whole", "maj", "min")]
        whole, maj, mino = piece_multipliers(specs, xi, OperatorParams.smooth(2, N))
        worst = max(abs(d) for d in (whole - (maj + mino)).tolist())
        assert worst <= 1e-12
    _stamp(5, detail, t0, budget)


def test_c06_ramanujan_sums(tmp_path, capsys):
    _gate(6, tmp_path, capsys)


def test_c07_gauss_bound_uniformity(tmp_path, capsys):
    _gate(7, tmp_path, capsys)


def test_c08_divisor_level_bound(tmp_path, capsys):
    _gate(8, tmp_path, capsys)


def test_c09_coefficient_decay():
    t0 = time.time()
    families = {}
    for N in (8, 16, 32):
        params = OperatorParams.smooth(2, N)
        for Q in (1, 2):
            for l in (0, 1):
                rep = coefficient_decay_report(PieceSpec("dyadic", Q, l), params)
                families.setdefault(("dyadic", Q, l), []).append(rep.constant)
            rep = coefficient_decay_report(PieceSpec("core", Q), params)
            families.setdefault(("core", Q), []).append(rep.constant)
    for family, consts in families.items():
        assert max(consts) / min(consts) < 3.0, (family, consts)
    _stamp(9, "decay constants vary < 3x across the N sweep per piece family", t0, 180.0)


def test_c10_minor_arc_sup():
    t0 = time.time()
    constants = {}
    for N in (16, 32, 64):
        rep = piece_sup_report(PieceSpec("min"), OperatorParams.smooth(2, N))
        constants[N] = rep.constant
    spread = max(constants.values()) / min(constants.values())
    assert spread < 2.0, constants
    _stamp(10, f"minor-arc sup constant spread {spread:.3f} < 2", t0, 120.0)


def test_c11_l2_endpoint(tmp_path, capsys):
    _gate(11, tmp_path, capsys)


def test_c12_separation_probe(tmp_path, capsys):
    _gate(12, tmp_path, capsys)


# criterion -> (a check its first argv asserts, and a library result moved past that check's
# bound: owner, name, change(result, *args) -> the moved result).  Each move sits where the
# CLI reads the library, so the gate's check has to see the computation move.
PERTURBED = {
    1: ("n=2 N=32: averaged box differs from 1 on the core block",  # one more count per x_n
        exp_mod, "_multiset_row", lambda row, multiset, *_: row + (multiset[0][1] == 32)),
    2: ("n=2 N=32: averaged delta departures from N^(1-n) on the reflected nodes",  # one ulp per node
        cli, "average", lambda af, f, params: af * (1 + 2**-52) if params.N == 32 else af),
    3: ("p=1.8: slope deviation from target -0.3333",  # the slope moves by 2x its tolerance 0.15
        exp_mod, "box_extremizer_ratio", lambda v, params, p: v * params.N**0.3 if p == 1.8 else v),
    4: ("closed form vs oracle relative error over 50 queries",  # the oracle moves by 2e-8 of the scale
        coef_mod, "piece_coefficient_oracle",
        lambda o, query: o + 2e-8 * coef_mod.coefficient_scale(query.spec, query.params)),
    5: ("N=16: partition of unity deviation on arcs",  # every eta at N=16 moves by 2e-12
        arcs_mod.ArcSystem, "denominator_etas", lambda etas, system, q, xi: etas + 2e-12 if system.N == 16 else etas),
    6: ("direct vs Moebius residual for q <= 128, |k| <= 2048",  # the direct sums at q=64 move by 2e-9
        nt, "_ramanujan_rows", lambda rows, q, ks: (rows[0] + 2e-9, rows[1]) if q == 64 else rows),
    7: ("gauss bound constant spread across N",  # the N=128 constant grows tenfold
        expsums, "gauss_bound_report",
        lambda r, params, *_: dataclasses.replace(r, constant=10 * r.constant) if params.N == 128 else r),
    8: ("max level-set ratio",  # every ratio doubles
        nt, "divisor_level_counts",
        lambda levels, *_: [(c, dataclasses.replace(r, values={**r.values, "ratio": 2 * r.values["ratio"]}))
                            for c, r in levels]),
    11: ("N=32: sharp n=2 l2 norm deviation from 1",  # one ulp
         exp_mod, "norm_l2_l2", lambda r, params: dataclasses.replace(r, constant=math.nextafter(r.constant, 2.0))),
    12: ("ratio gain deviation from 2^(1/q - 1/p) = 1.414214",  # every gain moves by 2e-12
         exp_mod, "two_bump_separation_probe",
         lambda r, *_: (dataclasses.replace(r[0], values={k: v + 2e-12 for k, v in r[0].values.items()}), r[1])),
}


@pytest.mark.parametrize("number", sorted(PERTURBED), ids=lambda k: f"c{k:02d}")
def test_criterion_fails_on_a_perturbed_computation(number, tmp_path, capsys, monkeypatch):
    # the moved result must fail the one check it feeds, and the gate must assert that check
    target, owner, name, change = PERTURBED[number]
    argv, names = CRITERIA[number][2][0]
    assert target in names
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: change(real(*a), *a))
    out = tmp_path / "o"
    assert cli.main([*argv, "--out-dir", str(out)]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL] ")]
    assert len(failed) == 1 and failed[0].startswith(f"[FAIL] {target}: "), failed
    (entry,) = [c for c in json.loads((out / f"{argv[0]}.json").read_text())["checks"] if c["name"] == target]
    assert entry["passed"] is False and entry["value"] > entry["bound"]
