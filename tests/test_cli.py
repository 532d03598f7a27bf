"""Batch front end: subcommands, exit codes, reports, determinism, plots."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from paravg import cli


def run(args):
    return cli.main(args)


def test_unknown_subcommand_usage_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_subcommand_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_scaling_fit_json_and_csv(tmp_path, capsys):
    out = tmp_path / "out"
    status = run(
        [
            "scaling-fit",
            "--n", "2", "--p", "1.8", "--N", "8,16,32,64,128",
            "--source", "box", "--out-dir", str(out),
        ]
    )
    assert status == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed
    payload = json.loads((out / "scaling-fit.json").read_text())
    slope = payload["results"]["1.8"]["slope"]
    assert abs(slope + 1 / 3) <= 0.15
    rows = (out / "scaling-fit.csv").read_text().splitlines()
    assert rows[0] == "n,N,p,source,value"
    assert len(rows) == 6


def test_scaling_fit_reruns_bitwise_identical(tmp_path, capsys):
    texts = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run(["scaling-fit", "--n", "2", "--p", "2.0", "--N", "8,16,32,64",
             "--source", "delta", "--out-dir", str(out)])
        payload = json.loads((out / "scaling-fit.json").read_text())
        payload["config"].pop("out_dir")
        texts.append(json.dumps(payload, sort_keys=True))
    capsys.readouterr()
    assert texts[0] == texts[1]


def test_coeff_check_passes(tmp_path, capsys):
    out = tmp_path / "out"
    status = run(
        ["coeff-check", "--n", "2", "--N", "8", "--Q", "1,2",
         "--count", "20", "--seed", "1", "--out-dir", str(out)]
    )
    assert status == 0
    payload = json.loads((out / "coeff-check.json").read_text())
    assert payload["results"]["worst_rel"] <= 1e-8
    capsys.readouterr()


def test_separation_probe(tmp_path, capsys):
    assert run(["separation-probe", "--n", "2", "--N", "8", "--p", "2",
                "--q", "1", "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_sharpness(tmp_path, capsys):
    assert run(["sharpness", "--n", "2", "--N", "8,12", "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_sharpness_n4(tmp_path, capsys):
    assert run(["sharpness", "--n", "4", "--N", "2,3,4", "--out-dir", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS] ") == 9 and "[FAIL]" not in out
    assert "[PASS] n=4 N=4: averaged box differs from 1 on the core block: 0 vs bound 0" in out


def test_norm_scan_n4(tmp_path, capsys):
    assert run(["norm-scan", "--n", "4", "--N", "4", "--falsify", "5", "--out-dir", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "[PASS] N=4: sharp l1->linf deviation from N^(1-n): 0 vs bound 0" in out
    assert "[PASS] N=4: max random Rayleigh quotient: " in out and "[FAIL]" not in out
    results = json.loads((tmp_path / "o" / "norm-scan.json").read_text())["results"]["4"]
    assert results["l2_l2"] == 1.0 and 0.8 <= results["certificate"] <= 1.0


def test_scaling_fit_n4_box_ends_by_its_check(tmp_path, capsys):
    # the slope is recorded as measured: the run may pass or fail its check, never refuse it
    status = run(["scaling-fit", "--n", "4", "--source", "box", "--N", "4,6,8,10", "--out-dir", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert status in (0, 1)
    assert f"{'[PASS]' if status == 0 else '[FAIL]'} p=1.8: slope deviation from target -0.5556: " in out


def test_scaling_fit_ascent_below_p_star_follows_the_delta_start(tmp_path, capsys):
    # below p* = 5/3 the delta start's N^(-1/p) beats the box's N^(-3(2/p-1)), and the ascent keeps it
    argv = ["scaling-fit", "--source", "ascent", "--p", "1.5", "--N", "4,8,16,24"]
    status = run(argv + ["--out-dir", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert status == 0
    assert "[PASS] p=1.5: slope deviation from target -0.6667: " in out


def test_coeff_check_refuses_a_block_past_q_limit(tmp_path, capsys):
    assert run(["coeff-check", "--N", "8", "--Q", "64", "--out-dir", str(tmp_path / "o")]) == 2
    assert "error: block Q=64 has no denominator q <= q_limit = 7 at N=8" in capsys.readouterr().err


def test_sharpness_at_p_inf(tmp_path, capsys):
    # p' = 1, so the delta ratio is N^0 = 1
    assert run(["sharpness", "--p", "inf", "--N", "4", "--out-dir", str(tmp_path / "o")]) == 0
    assert "[PASS] n=2 N=4: delta ratio relative deviation from N^(-(n-1)/p): 0 vs bound 1e-12" in capsys.readouterr().out


def test_divisor_check(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["divisor-check", "--N", "20000", "--out-dir", str(out)]) == 0
    rows = (out / "divisor-check.csv").read_text().splitlines()
    assert rows[0] == "N,Q,D,count,ratio"
    capsys.readouterr()


def test_invariant_failure_exit_code(tmp_path, capsys, monkeypatch):
    import paravg.numtheory as nt

    table = nt.ramanujan_table

    def broken(q_max, ks):
        return table(q_max, ks)[0], 1e-6  # the direct sums off by 1e-6 somewhere

    monkeypatch.setattr(nt, "ramanujan_table", broken)
    status = run(["ramanujan-check", "--out-dir", str(tmp_path / "o")])
    assert status == 1
    out = capsys.readouterr().out
    assert "[FAIL] direct vs Moebius residual for q <= 128, |k| <= 2048: 1e-06 vs bound 1e-09" in out
    assert "[PASS] q with c_q(0) != phi(q): 0 vs bound 0" in out


@pytest.mark.parametrize("bound", [0, 1e-12, 1.2, 5.0])
def test_check_passes_at_its_bound_and_fails_past_it(capsys, bound):
    checks = cli._Check()
    checks.record("at", bound, bound)
    assert checks.ok and checks.status == 0
    for value in (math.nextafter(bound, math.inf), math.nan, math.inf):
        past = cli._Check()
        past.record("past", value, bound)
        assert not past.ok and past.status == 1
        assert past.lines[0]["passed"] is False and past.lines[0]["bound"] == bound
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"[PASS] at: {bound:.6g} vs bound {bound:.6g}"
    assert [line[:12] for line in lines[1:]] == ["[FAIL] past:"] * 3
    assert lines[2] == f"[FAIL] past: nan vs bound {bound:.6g}"


def _nan_coefficient(k):
    import paravg.coefficients as coef_mod

    real, calls = coef_mod.piece_coefficient, []

    def patched(query):
        calls.append(query)
        return math.nan if len(calls) == k else real(query)

    return coef_mod, "piece_coefficient", patched


def _nan_partition():
    import paravg.arcs as arcs_mod

    real = arcs_mod.ArcSystem.denominator_etas

    def patched(self, q, xi):
        etas = np.array(real(self, q, xi))
        if q == 2:  # a denominator after the first
            etas[0, 0, 0] = math.nan
        return etas

    return arcs_mod.ArcSystem, "denominator_etas", patched


def _nan_split():
    import paravg.arcs as arcs_mod

    real = arcs_mod.piece_multipliers

    def patched(specs, *a):
        whole, maj, mino = (np.array(v) for v in real(specs, *a))
        maj[5] = math.nan
        return whole, maj, mino

    return arcs_mod, "piece_multipliers", patched


def _nan_divisor_ratio():
    import paravg.numtheory as nt
    from paravg.reports import ExperimentReport

    def patched(N, Q, Ds):
        return [(0, ExperimentReport("divisor_level_count", values={"ratio": math.nan if D == 4 else 0.5}))
                for D in Ds]

    return nt, "divisor_level_counts", patched


def _nan_rayleigh():
    import paravg.experiments as exp_mod

    real = exp_mod.max_rayleigh_quotient

    def patched(points, values, params):
        values = np.array(values, dtype=float)
        values[1, 3] = math.nan  # the second draw: the screen must not drop it
        return real(points, values, params)

    return exp_mod, "max_rayleigh_quotient", patched


def _nan_gain():
    import paravg.experiments as exp_mod

    real = exp_mod.two_bump_separation_probe

    def patched(*a):
        report, doubling = real(*a)
        second = list(report.values)[1]
        return dataclasses.replace(report, values={**report.values, second: math.nan}), doubling

    return exp_mod, "two_bump_separation_probe", patched


@pytest.mark.parametrize(
    "argv, patch, failed",
    [
        (["coeff-check", "--N", "8", "--count", "5"],
         lambda: _nan_coefficient(3),  # the third of five oracle queries
         "closed form vs oracle relative error over 5 queries"),
        (["coeff-check", "--N", "8", "--count", "5"],
         lambda: _nan_coefficient(8),  # the third paraboloid draw
         "paraboloid vanishing |coefficient|"),
        (["arcs-check", "--N", "32"], _nan_partition, "N=32: partition of unity deviation on arcs"),
        (["arcs-check", "--N", "16"], _nan_split, "N=16: maj + min deviation from whole"),
        (["divisor-check", "--N", "1000"], _nan_divisor_ratio, "max level-set ratio"),
        (["norm-scan", "--N", "16", "--falsify", "10"], _nan_rayleigh, "N=16: max random Rayleigh quotient"),
        (["separation-probe", "--N", "8"], _nan_gain, "ratio gain deviation from 2^(1/q - 1/p) = 1.414214"),
    ],
    ids=["closed-form", "paraboloid", "partition", "split", "divisor-ratio", "rayleigh", "gain"],
)
def test_a_nan_after_the_first_draw_fails_its_check(tmp_path, capsys, monkeypatch, argv, patch, failed):
    # each maximum over draws must carry a nan through: Python's max(0.0, nan) is 0.0
    monkeypatch.setattr(*patch())
    assert run([*argv, "--out-dir", str(tmp_path / "o")]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL] ")]
    assert len(fails) == 1 and fails[0].startswith(f"[FAIL] {failed}: nan vs bound "), fails


@pytest.mark.parametrize(
    "argv",
    [
        ["arcs-check", "--N", "5"],
        ["sharpness", "--n", "1"],
        ["coeff-check", "--N", "2"],
        ["divisor-check", "--N", "20000000"],
        ["coeff-check", "--count", "0"],
        ["norm-scan", "--falsify", "0"],
        ["norm-scan", "--fals", "3"],  # a prefix of a flag is not that flag
        ["norm-scan", "--cutoff", "shrap"],
        ["scaling-fit", "--N", "8,8,8,8"],  # one distinct N: no slope
        ["scaling-fit", "--source", "ascent", "--p", "1", "--N", "4,8,16,24"],
        ["scaling-fit", "--source", "ascent", "--p", "0.5", "--N", "4,8,16,24"],
        ["separation-probe", "--p", "nan"],
        ["separation-probe", "--q", "nan"],
    ],
    ids=" ".join,
)
def test_bad_parameter_exit_code(tmp_path, capsys, argv):
    assert run(argv + ["--out-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "invariant failure" not in err


def test_oversized_ascent_is_refused_before_allocating(tmp_path, capsys):
    # the n = 3 box start at N = 128 alone would need ~77 GB
    start = time.perf_counter()
    status = run(["scaling-fit", "--source", "ascent", "--n", "3", "--N", "128,256,512,1024",
                  "--out-dir", str(tmp_path / "o")])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error:") and "bytes" in err
    assert elapsed < 1.0


def test_divisor_check_fails_on_increasing_counts(tmp_path, capsys, monkeypatch):
    import paravg.numtheory as nt
    from paravg.reports import ExperimentReport

    def increasing(N, Q, Ds):
        return [(int(D) if D < Q else 0, ExperimentReport("divisor_level_count", values={"ratio": 0.0})) for D in Ds]

    monkeypatch.setattr(nt, "divisor_level_counts", increasing)
    assert run(["divisor-check", "--N", "1000", "--out-dir", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    # D = 2, 4, 8, 16, 32 counts D below Q and 0 from Q on
    assert "[FAIL] Q=16: count increases in D: 2 vs bound 0" in out
    assert "[FAIL] Q=64: count increases in D: 4 vs bound 0" in out


def test_divisor_check_fails_on_a_ratio_past_its_bound(tmp_path, capsys, monkeypatch):
    import paravg.numtheory as nt
    from paravg.reports import ExperimentReport

    def high(N, Q, Ds):
        return [(0, ExperimentReport("divisor_level_count", values={"ratio": 1.25 if D == 4 else 0.0})) for D in Ds]

    monkeypatch.setattr(nt, "divisor_level_counts", high)
    assert run(["divisor-check", "--N", "1000", "--out-dir", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert f"[FAIL] max level-set ratio: 1.25 vs bound {cli.DIVISOR_RATIO_BOUND}" in out
    assert "[PASS] Q=16: count increases in D: 0 vs bound 0" in out


@pytest.mark.parametrize("bad", [0.0, math.nan])
def test_gauss_check_fails_on_a_constant_outside_zero_inf(tmp_path, capsys, monkeypatch, bad):
    import paravg.expsums as expsums

    real = expsums.gauss_bound_report

    def forced(params, n_samples, seed):
        report = real(params, n_samples, seed)
        return dataclasses.replace(report, constant=bad) if params.N == 32 else report

    monkeypatch.setattr(expsums, "gauss_bound_report", forced)
    assert run(["gauss-check", "--N", "16,32", "--out-dir", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] gauss bound constant spread across N: inf vs bound 2" in out
    assert "[PASS] seeded rerun deviation: 0 vs bound 0" in out


def _counting(monkeypatch, module, name, counter):
    real = getattr(module, name)

    def wrapper(*a, **kw):
        counter.append(name)
        return real(*a, **kw)

    monkeypatch.setattr(module, name, wrapper)


def test_divisor_check_builds_one_sieve_per_Q(tmp_path, capsys, monkeypatch):
    import paravg.numtheory as nt

    sieves = []
    _counting(monkeypatch, nt, "truncated_divisor_sieve", sieves)
    assert run(["divisor-check", "--N", "20000", "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert len(sieves) == len(cli.DIVISOR_Q)


def test_arcs_check_evaluates_the_multiplier_and_arc_weight_once_per_N(tmp_path, capsys, monkeypatch):
    import paravg.arcs as arcs_mod
    import paravg.expsums as expsums

    calls = []
    _counting(monkeypatch, expsums, "_gauss_sums", calls)
    _counting(monkeypatch, arcs_mod.ArcSystem, "piece_weight", calls)
    assert run(["arcs-check", "--N", "16,64,100", "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert sorted(calls) == ["_gauss_sums"] * 3 + ["piece_weight"] * 3


def test_arcs_check_partition_takes_one_bump_pair_per_denominator(tmp_path, capsys, monkeypatch):
    import paravg.arcs as arcs_mod

    # the split check's own bump calls are kept out: its pieces read as zero
    monkeypatch.setattr(arcs_mod, "piece_multipliers", lambda specs, xi, *a: [np.zeros(len(xi), complex)] * 3)
    bumps = []
    _counting(monkeypatch, arcs_mod, "bump_psi", bumps)
    assert run(["arcs-check", "--N", "16,64,256", "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert len(bumps) == 2 * (1 + 6 + 25)  # q <= floor(N/10)


def test_arcs_check_fails_on_a_shifted_translate(tmp_path, capsys, monkeypatch):
    import paravg.arcs as arcs_mod

    level_etas = arcs_mod._level_etas
    monkeypatch.setattr(arcs_mod, "_level_etas", lambda scales, shift, *a: level_etas(scales, shift / 2, *a))
    assert run(["arcs-check", "--N", "16", "--out-dir", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] N=16: partition of unity deviation on arcs: " in out
    assert "[PASS] N=16: maj + min deviation from whole: " in out


def test_arcs_check_fails_on_a_perturbed_minor_piece(tmp_path, capsys, monkeypatch):
    import paravg.arcs as arcs_mod

    pieces = arcs_mod.piece_multipliers

    def perturbed(specs, *a):
        return [v * (1 + 1e-9) + 1e-9 if spec.kind == "min" else v for spec, v in zip(specs, pieces(specs, *a))]

    monkeypatch.setattr(arcs_mod, "piece_multipliers", perturbed)
    assert run(["arcs-check", "--N", "16", "--out-dir", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "[PASS] N=16: partition of unity deviation on arcs: " in out
    assert "[FAIL] N=16: maj + min deviation from whole: " in out


def test_arcs_check_fails_on_overlapping_arcs(tmp_path, capsys, monkeypatch):
    from paravg.arcs import ArcSystem

    # the real 4I sweep, run on the arcs q <= N/2, whose 4I intervals meet
    sweep = ArcSystem.arcs_4i_disjoint
    monkeypatch.setattr(ArcSystem, "arcs_4i_disjoint", lambda self: sweep(ArcSystem(self.N, self.N // 2)))
    assert run(["arcs-check", "--N", "16",
                "--out-dir", str(tmp_path / "o")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] N=16: 4I arcs not pairwise disjoint: 1 vs bound 0"]


def test_gauss_check_records_the_ramp_constants(tmp_path, capsys, monkeypatch):
    from paravg import cutoff

    argv = ["gauss-check", "--N", "16,32"]
    assert run(argv + ["--out-dir", str(tmp_path / "o1")]) == 0
    out = capsys.readouterr().out
    for N in (16, 32):
        assert f"[PASS] N={N}: ramp N sup|s_k|: " in out and f"[PASS] N={N}: ramp N TV(s): " in out
    # N TV(s) is 7.42 at N=16 and 7.48 at N=32: a bound of 7.45 fails N=32 only
    monkeypatch.setattr(cutoff, "RAMP_TV_CONSTANT", 7.45)
    assert run(argv + ["--out-dir", str(tmp_path / "o2")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] N=32: ramp N TV(s): 7.48049 vs bound 7.45"]


COMMANDS = ["gauss-check", "arcs-check", "coeff-check", "ramanujan-check", "divisor-check",
            "norm-scan", "sharpness", "scaling-fit", "separation-probe"]

# every option string of each subcommand, -h aside: only values some caller varies
OPTIONS = {
    "gauss-check": {"--n", "--N", "--seed", "--out-dir"},
    "arcs-check": {"--n", "--N", "--seed", "--out-dir"},
    "coeff-check": {"--n", "--N", "--seed", "--out-dir", "--Q", "--count"},
    "ramanujan-check": {"--seed", "--out-dir"},
    "divisor-check": {"--N", "--seed", "--out-dir"},
    "norm-scan": {"--n", "--N", "--seed", "--out-dir", "--cutoff", "--falsify"},
    "sharpness": {"--n", "--N", "--seed", "--out-dir", "--p"},
    "scaling-fit": {"--n", "--N", "--seed", "--out-dir", "--p", "--source", "--plot"},
    "separation-probe": {"--n", "--N", "--seed", "--out-dir", "--p", "--q"},
}


def test_each_subcommand_takes_exactly_its_options():
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == COMMANDS == list(OPTIONS)
    for command, parser in sub.choices.items():
        options = {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}
        assert options == OPTIONS[command], command
    # 67 settable values before the flags that nothing set became constants
    assert sum(map(len, OPTIONS.values())) == 43 == 67 - len(REMOVED)


def test_main_runs_share_one_parser_and_nothing_else(tmp_path, capsys):
    # the parser is built once per process; each main() call still parses its own argv
    parser = cli._build_parser()
    first, second, third = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert run(["sharpness", "--n", "3", "--N", "2,3", "--p", "1.8", "--out-dir", str(first)]) == 0
    assert run(["norm-scan", "--N", "4", "--falsify", "2", "--seed", "7", "--out-dir", str(second)]) == 0
    assert run(["sharpness", "--out-dir", str(third)]) == 0
    assert cli._build_parser() is parser
    capsys.readouterr()
    a, b, c = (json.loads((d / f"{cmd}.json").read_text())
               for d, cmd in ((first, "sharpness"), (second, "norm-scan"), (third, "sharpness")))
    assert a["config"]["n"] == 3 and a["config"]["N"] == [2, 3] and a["config"]["p"] == 1.8
    assert b["config"]["seed"] == 7 and b["config"]["N"] == [4] and b["config"]["falsify"] == 2
    assert c["config"]["n"] == 2 and c["config"]["N"] == [8, 12, 16] and c["config"]["p"] == 2.0 and c["config"]["seed"] == 0
    assert set(a["results"]) == {"2", "3"} and set(c["results"]) == {"8", "12", "16"}
    assert parser.parse_args(["sharpness"]).N == [8, 12, 16]  # no run changed a default


# the flags that became constants, each with a value it used to accept
REMOVED = [
    *((command, "--config", "run.cfg") for command in COMMANDS),
    ("ramanujan-check", "--n", "2"), ("divisor-check", "--n", "2"),
    ("gauss-check", "--samples", "100"), ("gauss-check", "--dirichlet-samples", "100"),
    ("arcs-check", "--samples", "10"), ("coeff-check", "--l", "0,1"), ("coeff-check", "--grid", "8192"),
    ("ramanujan-check", "--qmax", "32"), ("ramanujan-check", "--kmax", "64"),
    ("divisor-check", "--Q", "16"), ("divisor-check", "--D", "2,4"),
    ("divisor-check", "--B", "2"), ("divisor-check", "--tau", "0.5"),
    ("scaling-fit", "--tol", "1"), ("scaling-fit", "--iters", "60"),
]


@pytest.mark.parametrize("command, flag, value", REMOVED, ids=lambda v: v)
def test_a_removed_flag_is_a_usage_error(tmp_path, capsys, command, flag, value):
    out = tmp_path / "o"
    assert run([command, flag, value, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and "[PASS]" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--order 8", "--ramp-order 3"])
def test_spline_order_and_ramp_are_not_options(tmp_path, capsys, flag):
    # both are fixed in the library; a flag naming them is unknown
    for command in COMMANDS:
        out = tmp_path / command
        assert run([command, *flag.split(), "--out-dir", str(out)]) == 2, command
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out and not out.exists(), command


def test_sharpness_fails_on_a_perturbed_averaged_delta(tmp_path, capsys, monkeypatch):
    from paravg.lattice import delta

    real = cli.average

    def perturbed(f, params):
        af = real(f, params)
        return af + delta(tuple(int(c) for c in af._points[-1])) * 1e-9 if params.N == 12 else af

    monkeypatch.setattr(cli, "average", perturbed)
    assert run(["sharpness", "--N", "8,12", "--out-dir", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "[PASS] n=2 N=8: averaged delta departures from N^(1-n) on the reflected nodes: 0 vs bound 0" in out
    assert "[FAIL] n=2 N=12: averaged delta departures from N^(1-n) on the reflected nodes: 1 vs bound 0" in out
    assert "[PASS] n=2 N=12: delta ratio relative deviation from N^(-(n-1)/p): " in out


def test_plot_is_a_bare_flag(tmp_path, capsys):
    argv = ["scaling-fit", "--source", "delta", "--N", "8,16,32,64"]
    for extra, plot in (([], False), (["--plot"], True)):
        out = tmp_path / str(plot)
        assert run([*argv, *extra, "--out-dir", str(out)]) == 0
        assert (out / "scaling-fit.svg").exists() == plot
        assert json.loads((out / "scaling-fit.json").read_text())["config"]["plot"] is plot
    assert run([*argv, "--plot", "true", "--out-dir", str(tmp_path / "o")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["sharpness", "--N", ""],
        ["norm-scan", "--N", ""],
        ["arcs-check", "--N", ""],
        ["gauss-check", "--N", ""],
        ["gauss-check", "--N", ","],
        ["scaling-fit", "--N", ""],
        ["scaling-fit", "--p", ""],
        ["coeff-check", "--Q", ""],
    ],
    ids=" ".join,
)
def test_empty_list_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "empty list" in captured.err
    assert "[PASS]" not in captured.out and not out.exists()


def test_emit_plot_loglog_deterministic(tmp_path, capsys):
    out = tmp_path / "o"
    run(["scaling-fit", "--n", "2", "--p", "2.0", "--N", "8,16,32,64",
         "--source", "delta", "--out-dir", str(out)])
    capsys.readouterr()
    svg1 = cli.emit_plot(out / "scaling-fit.csv", out / "p1.svg")
    svg2 = cli.emit_plot(out / "scaling-fit.csv", out / "p2.svg")
    b1 = (out / "p1.svg").read_bytes()
    assert b1 == (out / "p2.svg").read_bytes()
    assert b"svg" in b1 and b"dasharray" in b1  # reference slope drawn dashed
    assert "p1.svg" in svg1 and "p2.svg" in svg2


def test_emit_plot_rejects_empty_csv(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("n,N,p,source,value\n")
    with pytest.raises(ValueError):
        cli.emit_plot(empty)
    assert not (tmp_path / "empty.svg").exists()


def test_scaling_fit_l2_target_is_zero(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["scaling-fit", "--source", "l2", "--N", "8,16,32,64",
                "--out-dir", str(out)]) == 0
    assert "[PASS] p=1.8: slope deviation from target 0.0000: " in capsys.readouterr().out
    payload = json.loads((out / "scaling-fit.json").read_text())
    assert payload["results"]["1.8"]["target"] == 0.0


def test_norm_scan(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["norm-scan", "--n", "2", "--N", "16", "--falsify", "10",
                "--out-dir", str(out)]) == 0
    payload = json.loads((out / "norm-scan.json").read_text())
    assert payload["results"]["16"]["l2_l2"] == 1.0
    capsys.readouterr()


@pytest.mark.parametrize("n, N", [(2, 8), (3, 4)])
def test_norm_scan_smooth_cutoff(tmp_path, capsys, n, N):
    from paravg.cutoff import OperatorParams

    out = tmp_path / "o"
    assert run(["norm-scan", "--cutoff", "smooth", "--n", str(n), "--N", str(N), "--out-dir", str(out)]) == 0
    assert f"[PASS] N={N}: max random Rayleigh quotient: " in capsys.readouterr().out
    result = json.loads((out / "norm-scan.json").read_text())["results"][str(N)]
    assert result["l2_l2"] == OperatorParams.smooth(n, N).cutoff.mass() ** (n - 1) / N ** (n - 1)
    assert 0.8 * result["l2_l2"] <= result["certificate"] <= result["l2_l2"]


# n = 5 stops at N = 4: its falsification sweep at N = 8 peaks at 1.2 GB (the certificate
# alone is tested there in test_experiments.py)
@pytest.mark.parametrize("n, Ns", [(4, "4,8"), (5, "4")])
def test_norm_scan_smooth_cutoff_certifies_from_n4(tmp_path, capsys, n, Ns):
    # a wave packet of fixed width 8 reached only 0.739 of the smooth norm at n = 4
    out = tmp_path / "o"
    assert run(["norm-scan", "--cutoff", "smooth", "--n", str(n), "--N", Ns, "--falsify", "1",
                "--out-dir", str(out)]) == 0
    assert "[FAIL]" not in capsys.readouterr().out
    for N, result in json.loads((out / "norm-scan.json").read_text())["results"].items():
        assert 0.8 * result["l2_l2"] <= result["certificate"] <= result["l2_l2"], N


@pytest.mark.parametrize("source, engine", [("box", "box_extremizer_ratio"), ("delta", "delta_extremizer_ratio"),
                                            ("ascent", "random_ascent_lower_bound"), ("l2", "norm_l2_l2")])
def test_scaling_fit_refuses_repeated_scales_before_any_engine_runs(tmp_path, capsys, monkeypatch, source, engine):
    import paravg.experiments as exp_mod

    def refuse(*a):
        raise AssertionError(f"{engine} ran")  # an invariant failure: exit 1

    monkeypatch.setattr(exp_mod, engine, refuse)
    assert run(["scaling-fit", "--source", source, "--N", "24,24,24,24", "--out-dir", str(tmp_path / "o")]) == 2
    assert "need at least 4 distinct scales" in capsys.readouterr().err


def test_arcs_check_small(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["arcs-check", "--N", "16",
                "--out-dir", str(out)]) == 0
    assert (out / "arc-table-N16.csv").read_bytes() == (
        b"q,a,center,radius,scales\r\n1,0,0.0,0.0625,16 32 64 128 256\r\n"
    )
    capsys.readouterr()


def test_gauss_check_small(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["gauss-check", "--N", "16,32", "--out-dir", str(out)]) == 0
    payload = json.loads((out / "gauss-check.json").read_text())
    consts = payload["results"]["constants"]
    assert set(consts) == {"16", "32"}
    capsys.readouterr()


def test_emit_plot_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError, match="malformed"):
        cli.emit_plot(bad)


ARC_HEADER = "q,a,center,radius,scales"
# each subcommand at a small size, with the header of every CSV the README lists for it
REPORTS = [
    (["gauss-check", "--N", "16,32"],
     {"gauss-check.csv": "N,constant"}),
    (["arcs-check", "--N", "16,64"],
     {"arc-table-N16.csv": ARC_HEADER, "arc-table-N64.csv": ARC_HEADER}),
    (["coeff-check", "--N", "8", "--count", "3"],
     {"coeff-check.csv": "kind,Q,l,r,closed,oracle,rel_err"}),
    (["ramanujan-check"], {}),
    (["divisor-check", "--N", "1000"],
     {"divisor-check.csv": "N,Q,D,count,ratio"}),
    (["norm-scan", "--N", "8", "--falsify", "2"], {}),
    (["sharpness", "--N", "8"], {}),
    (["scaling-fit", "--source", "delta", "--N", "8,16,32,64"],
     {"scaling-fit.csv": "n,N,p,source,value"}),
    (["separation-probe", "--N", "4"], {}),
]


@pytest.mark.parametrize("argv, headers", REPORTS, ids=[argv[0] for argv, _ in REPORTS])
def test_report_contract(tmp_path, capsys, argv, headers):
    # one report per run: <command>.json plus the CSVs the README lists, then
    # the check lines, "wrote <json>" and "status k" on stdout
    command, out = argv[0], tmp_path / "o"
    assert run(argv + ["--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([f"{command}.json", *headers])
    for name, header in headers.items():
        assert (out / name).read_text().splitlines()[0] == header
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == [f"wrote {out / f'{command}.json'}", "status 0"]
    assert lines[:-2] and all(line.startswith("[PASS] ") for line in lines[:-2])
    assert json.loads((out / f"{command}.json").read_text())["status"] == 0


def test_failed_run_writes_no_report(tmp_path, capsys):
    # N=5 is refused after the N=64 table is computed; nothing may be written
    out = tmp_path / "o"
    assert run(["arcs-check", "--N", "64,5", "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "wrote" not in captured.out
    assert not out.exists()


def test_unwritable_out_dir_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(["sharpness", "--N", "8", "--out-dir", str(blocker / "sub")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "invariant failure" not in captured.err
    assert "wrote" not in captured.out and "status" not in captured.out


# sha256 of each report file, the JSON with its out-dir string replaced; the
# values do not depend on the platform.  The JSON embeds the library version.
REPORT_DIGESTS = {
    "sharpness.json": "e6f69e9dee2c682a2b9784bddbb5948f322681f265cfd80c774b0b2278137927",
    "divisor-check.csv": "82b46e9f3c72094b51365dbe839f290356ebc4a4888198b7116a23fcd474f9ae",
    "divisor-check.json": "0baf08969cb3e36ed6efe4f9a44b330dad596da49d1805cc2d30eb93b8228ace",
    "ramanujan-check.json": "d3100cdfb7f2352c017ffca430d6d00df34fefe79d799c5c350b8fb590081427",
    "separation-probe.json": "11b7f89b78b3b6279f47c2b1c883b421851d9a2a3d0348918ec33f3cca3318ec",
    "scaling-fit.csv": "4e275960c4236e1eb97852ab99ae3067d2c4a313b6a16d66f853c2bbb89b98e2",
    "scaling-fit.json": "ed59d6332d6136e163297cf4fd9557b2cf64a6937b385dd8c2dc3985722bcb18",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["sharpness", "--N", "8,12"],
        ["divisor-check", "--N", "20000"],
        ["ramanujan-check"],
        ["separation-probe", "--N", "8"],
        ["scaling-fit", "--source", "delta", "--N", "8,16,32,64"],
    ],
    ids=lambda argv: argv[0],
)
def test_report_bytes_pinned(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert run(argv + ["--out-dir", str(out)]) == 0
    capsys.readouterr()
    files = sorted(out.iterdir())
    assert files and all(p.name in REPORT_DIGESTS for p in files)
    for path in files:
        data = path.read_bytes()
        if path.suffix == ".json":
            quoted = json.dumps(str(out)).encode()
            assert data.count(quoted) == 1
            data = data.replace(quoted, b'"<out-dir>"')
        assert hashlib.sha256(data).hexdigest() == REPORT_DIGESTS[path.name], path.name


def test_box_fit_and_norm_scan_leave_numpy_ma_unimported(tmp_path):
    # a plain np.unique imports numpy.ma on its first call: ~10 ms and ~1.3 MB of RSS in a fresh process
    code = (
        "import sys\nfrom paravg import cli\n"
        f"out = {str(tmp_path)!r}\n"
        "assert cli.main(['scaling-fit', '--source', 'box', '--N', '8,16,24,32', '--out-dir', out]) == 0\n"
        "assert cli.main(['norm-scan', '--N', '16', '--falsify', '5', '--out-dir', out]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300, check=True)
    assert out.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("source, Ns", [("box", "8,16,32,64"), ("ascent", "4,6,8,10")])
def test_a_power_sum_overflow_near_p_1_is_a_bad_parameter(tmp_path, capsys, source, Ns):
    # p' = 1001: 3^1001 overflows float64, where np.power once gave inf and a nan slope
    out = tmp_path / "o"
    assert run(["scaling-fit", "--source", source, "--p", "1.001", "--N", Ns, "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"error: p = 1.001, N = {Ns.split(',')[0]}: a power sum at p' = 1001 overflows float64" in captured.err
    assert "[PASS]" not in captured.out and not out.exists()


def test_ascent_near_p_1_rejects_cancelled_proposals(tmp_path, capsys):
    # p' = 101: the incremental p'-power sums cancel below zero, whose float ** once returned a complex
    out = tmp_path / "o"
    assert run(["scaling-fit", "--source", "ascent", "--p", "1.01", "--N", "4,6,8,10", "--out-dir", str(out)]) in (0, 1)
    capsys.readouterr()
    values = json.loads((out / "scaling-fit.json").read_text())["results"]["1.01"]["values"]
    assert len(values) == 4 and all(isinstance(v, float) and 0 < v < math.inf for v in values)


@pytest.mark.parametrize("n", [2, 3])
def test_a_moved_box_count_fails_the_mass_identity(tmp_path, capsys, monkeypatch, n):
    # n = 3: the first multiset's count at x_n = 0, T - c[0], rises by one; n = 2: the first
    # interval and square window [1, 1] widen to [1, 2], moving the counts that read it
    import paravg.experiments as exp_mod

    if n == 3:
        real = exp_mod._count_blocks

        def moved(*args):
            for block, (idx, cum) in enumerate(real(*args)):
                if block == 0:
                    cum[0, 0] -= 1
                yield idx, cum

        monkeypatch.setattr(exp_mod, "_count_blocks", moved)
    else:
        real = exp_mod._intervals

        def moved(N):
            intervals, inverse, mult = real(N)
            intervals[0, 1] += 1
            return intervals, inverse, mult

        monkeypatch.setattr(exp_mod, "_intervals", moved)
    out = tmp_path / "o"
    assert run(["scaling-fit", "--source", "box", "--n", str(n), "--N", "4,5,6,7", "--out-dir", str(out)]) == 1
    assert f"invariant failure: n={n} N=4: the count histogram has mass" in capsys.readouterr().err
    assert not out.exists()


def _float64_power_targets() -> set:
    from numpy.lib.introspect import opt_func_info

    return {t["current"] for t in opt_func_info(func_name="^power$", signature="float64").get("power", {}).values()}


# box power sums over these (n, N) and p, the benchmark's box fits and the spectral reports
# (Gauss sums, ladders, coefficients, Ramanujan tables), under two SIMD targets
PORTABLE_GRID = [(2, N) for N in (8, 64, 320)] + [(3, N) for N in (4, 8, 16, 24)] + [(4, 3)]
PORTABLE_P = (1.5, 1.6, 5 / 3, 1.8, 2.0)
PORTABLE_ARGV = [["scaling-fit", "--source", "box", "--N", "64,128,256,320"],
                 ["scaling-fit", "--source", "box", "--n", "3", "--N", "4,8,12,16"],
                 ["gauss-check", "--N", "16,32"],
                 ["arcs-check", "--N", "16,64"],
                 ["coeff-check", "--N", "8", "--count", "20"],
                 ["ramanujan-check"]]


@pytest.mark.skipif(not _float64_power_targets() & {"X86_V4", "X86_V3"},
                    reason="float64 power has no X86_V4 or X86_V3 target to narrow")
def test_reports_keep_their_bits_under_narrowed_simd_dispatch(tmp_path):
    code = (
        "from pathlib import Path\nfrom paravg import cli\nfrom paravg.experiments import box_power_sum\n"
        f"for n, N in {PORTABLE_GRID!r}:\n"
        f"    for p in {PORTABLE_P!r}:\n"
        "        print(n, N, p, repr(box_power_sum(n, N, p / (p - 1.0))))\n"
        f"for i, argv in enumerate({PORTABLE_ARGV!r}):\n"
        "    print(cli.main([*argv, '--out-dir', str(i)]))\n"
        "    for path in sorted(Path(str(i)).iterdir()):\n"
        "        print(path.name, path.read_text())\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    outputs = []
    for name, extra in (("default", {}), ("narrowed", {"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3"})):
        (tmp_path / name).mkdir()
        outputs.append(subprocess.run([sys.executable, "-c", code], env={**env, **extra}, cwd=tmp_path / name,
                                      capture_output=True, text=True, timeout=300, check=True).stdout)
    default, narrowed = (text.splitlines() for text in outputs)
    assert len(default) > len(PORTABLE_GRID) * len(PORTABLE_P)
    assert [a for a, b in zip(default, narrowed) if a != b] == [] and len(default) == len(narrowed)
