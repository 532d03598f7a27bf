"""Batch front end: subcommands, exit codes, reports, determinism, plots."""

import dataclasses
import hashlib
import json
import math
import time

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
        ["coeff-check", "--n", "2", "--N", "8", "--Q", "1,2", "--l", "0,1",
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


def test_sharpness_at_p_inf(tmp_path, capsys):
    # p' = 1, so the delta ratio is N^0 = 1
    assert run(["sharpness", "--p", "inf", "--N", "4", "--out-dir", str(tmp_path / "o")]) == 0
    assert "[PASS] n=2 N=4: delta ratio relative deviation from N^(-(n-1)/p): 0 vs bound 1e-12" in capsys.readouterr().out


def test_divisor_check(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["divisor-check", "--N", "20000", "--Q", "8,16",
                "--D", "2,4,8", "--out-dir", str(out)]) == 0
    rows = (out / "divisor-check.csv").read_text().splitlines()
    assert rows[0] == "N,Q,D,count,ratio"
    capsys.readouterr()


def test_ramanujan_check_small(tmp_path, capsys):
    assert run(["ramanujan-check", "--qmax", "32", "--kmax", "64",
                "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_invariant_failure_exit_code(tmp_path, capsys, monkeypatch):
    import paravg.numtheory as nt

    table = nt.ramanujan_table

    def broken(q_max, ks):
        return table(q_max, ks)[0], 1e-6  # the direct sums off by 1e-6 somewhere

    monkeypatch.setattr(nt, "ramanujan_table", broken)
    status = run(["ramanujan-check", "--qmax", "8", "--kmax", "8",
                  "--out-dir", str(tmp_path / "o")])
    assert status == 1
    out = capsys.readouterr().out
    assert "[FAIL] direct vs Moebius residual for q <= 8, |k| <= 8: 1e-06 vs bound 1e-09" in out
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

    def patched(N, Q, Ds, B=None, tau=None):
        return [(0, ExperimentReport("divisor_level_count", values={"ratio": math.nan if D == 4 else 0.5}))
                for D in Ds]

    return nt, "divisor_level_counts", patched


def _nan_rayleigh():
    import paravg.experiments as exp_mod

    real = exp_mod.max_rayleigh_quotient

    def patched(points, values, params):
        values = np.array(values, dtype=complex)
        values[1, 3] = math.nan  # the second draw: the screen must not drop it
        return real(points, values, params)

    return exp_mod, "max_rayleigh_quotient", patched


def _nan_gain():
    import paravg.experiments as exp_mod

    real = exp_mod.two_bump_separation_probe

    def patched(*a):
        report = real(*a)
        second = list(report.values)[1]
        return dataclasses.replace(report, values={**report.values, second: math.nan})

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
        (["arcs-check", "--N", "32", "--samples", "10"], _nan_partition, "N=32: partition of unity deviation on arcs"),
        (["arcs-check", "--N", "16", "--samples", "10"], _nan_split, "N=16: maj + min deviation from whole"),
        (["divisor-check", "--N", "1000", "--Q", "16", "--D", "2,4,8"], _nan_divisor_ratio, "max level-set ratio"),
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
    "argv, flag",
    [
        (["--qmax", "0"], "--qmax"),
        (["--qmax", "1"], "--qmax"),
        (["--kmax", "-1"], "--kmax"),
    ],
    ids=["qmax-0", "qmax-1", "kmax-minus-1"],
)
def test_ramanujan_check_rejects_empty_ranges(tmp_path, capsys, argv, flag):
    # q <= 1 leaves the phi(q) check no q to test, and k < 0 an empty k range
    assert run(["ramanujan-check", *argv, "--out-dir", str(tmp_path / "o")]) == 2
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    assert "error:" in captured.err and flag in captured.err
    assert not (tmp_path / "o" / "ramanujan-check.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["arcs-check", "--N", "5"],
        ["sharpness", "--n", "4"],
        ["coeff-check", "--N", "2"],
        ["divisor-check", "--N", "20000000"],
        ["divisor-check", "--B", "0"],
        ["gauss-check", "--N", "16", "--samples", "0"],
        ["gauss-check", "--N", "16,32", "--samples", "0"],
        ["gauss-check", "--dirichlet-samples", "0"],
        ["arcs-check", "--samples", "0"],
        ["coeff-check", "--count", "0"],
        ["norm-scan", "--falsify", "0"],
        ["norm-scan", "--fals", "3"],  # a prefix of a flag is not that flag
        ["scaling-fit", "--iters", "-1"],
        ["scaling-fit", "--N", "8,8,8,8"],  # one distinct N: no slope
        ["scaling-fit", "--source", "ascent", "--p", "1", "--N", "4,8,16,24"],
        ["scaling-fit", "--source", "ascent", "--p", "0.5", "--N", "4,8,16,24"],
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

    def increasing(N, Q, Ds, B=None, tau=None):
        return [(int(D) if D < Q else 0, ExperimentReport("divisor_level_count", values={"ratio": 0.0})) for D in Ds]

    monkeypatch.setattr(nt, "divisor_level_counts", increasing)
    assert run(["divisor-check", "--N", "1000", "--Q", "16", "--D", "2,4",
                "--out-dir", str(tmp_path / "o")]) == 1
    assert "[FAIL] Q=16: count increases in D: 1 vs bound 0" in capsys.readouterr().out


def test_divisor_check_fails_on_a_ratio_past_its_bound(tmp_path, capsys, monkeypatch):
    import paravg.numtheory as nt
    from paravg.reports import ExperimentReport

    def high(N, Q, Ds, B=None, tau=None):
        return [(0, ExperimentReport("divisor_level_count", values={"ratio": 1.25 if D == 4 else 0.0})) for D in Ds]

    monkeypatch.setattr(nt, "divisor_level_counts", high)
    assert run(["divisor-check", "--N", "1000", "--Q", "16", "--D", "2,4",
                "--out-dir", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert f"[FAIL] max level-set ratio: 1.25 vs bound {cli.DIVISOR_RATIO_BOUND}" in out
    assert "[PASS] Q=16: count increases in D: 0 vs bound 0" in out


@pytest.mark.parametrize("D", ["1e300", "inf", "nan"])
def test_divisor_check_refuses_a_non_finite_ratio(tmp_path, capsys, D):
    # 1e300 ** B overflows a float; inf and nan would read a nan ratio
    out = tmp_path / "o"
    assert run(["divisor-check", "--N", "1000", "--Q", "8", "--D", f"2,{D}", "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "invariant failure" not in captured.err
    assert "[PASS]" not in captured.out and not out.exists()


@pytest.mark.parametrize("bad", [0.0, math.nan])
def test_gauss_check_fails_on_a_constant_outside_zero_inf(tmp_path, capsys, monkeypatch, bad):
    import paravg.expsums as expsums

    real = expsums.gauss_bound_report

    def forced(params, n_samples, seed):
        report = real(params, n_samples, seed)
        return dataclasses.replace(report, constant=bad) if params.N == 32 else report

    monkeypatch.setattr(expsums, "gauss_bound_report", forced)
    assert run(["gauss-check", "--N", "16,32", "--samples", "200", "--dirichlet-samples", "200",
                "--out-dir", str(tmp_path / "o")]) == 1
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
    assert run(["divisor-check", "--N", "20000", "--Q", "8,16,32", "--D", "2,4,8",
                "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert len(sieves) == 3


def test_arcs_check_evaluates_the_multiplier_and_arc_weight_once_per_N(tmp_path, capsys, monkeypatch):
    import paravg.arcs as arcs_mod
    import paravg.expsums as expsums

    calls = []
    _counting(monkeypatch, expsums, "_gauss_sums", calls)
    _counting(monkeypatch, arcs_mod.ArcSystem, "piece_weight", calls)
    assert run(["arcs-check", "--N", "16,64,100", "--samples", "10", "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert sorted(calls) == ["_gauss_sums"] * 3 + ["piece_weight"] * 3


def test_arcs_check_partition_takes_one_bump_pair_per_denominator(tmp_path, capsys, monkeypatch):
    import paravg.arcs as arcs_mod

    # the split check's own bump calls are kept out: its pieces read as zero
    monkeypatch.setattr(arcs_mod, "piece_multipliers", lambda specs, xi, *a: [np.zeros(len(xi), complex)] * 3)
    bumps = []
    _counting(monkeypatch, arcs_mod, "bump_psi", bumps)
    assert run(["arcs-check", "--N", "16,64,256", "--samples", "10", "--out-dir", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert len(bumps) == 2 * (1 + 6 + 25)  # q <= floor(N/10)


def test_arcs_check_fails_on_a_shifted_translate(tmp_path, capsys, monkeypatch):
    import paravg.arcs as arcs_mod

    level_etas = arcs_mod._level_etas
    monkeypatch.setattr(arcs_mod, "_level_etas", lambda scales, shift, *a: level_etas(scales, shift / 2, *a))
    assert run(["arcs-check", "--N", "16", "--samples", "10", "--out-dir", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] N=16: partition of unity deviation on arcs: " in out
    assert "[PASS] N=16: maj + min deviation from whole: " in out


def test_arcs_check_fails_on_a_perturbed_minor_piece(tmp_path, capsys, monkeypatch):
    import paravg.arcs as arcs_mod

    pieces = arcs_mod.piece_multipliers

    def perturbed(specs, *a):
        return [v * (1 + 1e-9) + 1e-9 if spec.kind == "min" else v for spec, v in zip(specs, pieces(specs, *a))]

    monkeypatch.setattr(arcs_mod, "piece_multipliers", perturbed)
    assert run(["arcs-check", "--N", "16", "--samples", "10", "--out-dir", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "[PASS] N=16: partition of unity deviation on arcs: " in out
    assert "[FAIL] N=16: maj + min deviation from whole: " in out


def test_arcs_check_fails_on_overlapping_arcs(tmp_path, capsys, monkeypatch):
    from paravg.arcs import ArcSystem

    # the real 4I sweep, run on the arcs q <= N/2, whose 4I intervals meet
    sweep = ArcSystem.arcs_4i_disjoint
    monkeypatch.setattr(ArcSystem, "arcs_4i_disjoint", lambda self: sweep(ArcSystem(self.N, self.N // 2)))
    assert run(["arcs-check", "--N", "16", "--samples", "10",
                "--out-dir", str(tmp_path / "o")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] N=16: 4I arcs not pairwise disjoint: 1 vs bound 0"]


def test_gauss_check_records_the_ramp_constants(tmp_path, capsys, monkeypatch):
    from paravg import cutoff

    argv = ["gauss-check", "--N", "16,32", "--samples", "100", "--dirichlet-samples", "100"]
    assert run(argv + ["--out-dir", str(tmp_path / "o1")]) == 0
    out = capsys.readouterr().out
    for N in (16, 32):
        assert f"[PASS] N={N}: ramp N sup|s_k|: " in out and f"[PASS] N={N}: ramp N TV(s): " in out
    # N TV(s) is 7.42 at N=16 and 7.48 at N=32: a bound of 7.45 fails N=32 only
    monkeypatch.setattr(cutoff, "RAMP_TV_CONSTANT", 7.45)
    assert run(argv + ["--out-dir", str(tmp_path / "o2")]) == 1
    failed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("[FAIL]")]
    assert failed == ["[FAIL] N=32: ramp N TV(s): 7.48049 vs bound 7.45"]


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep config\nN=8,12\nseed=9\n")
    out1 = tmp_path / "o1"
    assert run(["sharpness", "--config", str(cfg), "--out-dir", str(out1)]) == 0
    payload = json.loads((out1 / "sharpness.json").read_text())
    assert payload["config"]["N"] == [8, 12]
    assert payload["config"]["seed"] == 9
    out2 = tmp_path / "o2"
    assert run(["sharpness", "--config", str(cfg), "--N", "16", "--out-dir", str(out2)]) == 0
    payload2 = json.loads((out2 / "sharpness.json").read_text())
    assert payload2["config"]["N"] == [16]
    capsys.readouterr()


COMMANDS = ["gauss-check", "arcs-check", "coeff-check", "ramanujan-check", "divisor-check",
            "norm-scan", "sharpness", "scaling-fit", "separation-probe"]


@pytest.mark.parametrize("flag", ["--order 8", "--ramp-order 3", "order=8", "ramp_order=3"])
def test_spline_order_and_ramp_are_not_options(tmp_path, capsys, flag):
    # both are fixed in the library; a flag or config line naming them is unknown
    cfg = tmp_path / "run.cfg"
    cfg.write_text(flag + "\n")
    extra = flag.split() if flag.startswith("--") else ["--config", str(cfg)]
    for command in COMMANDS:
        out = tmp_path / command
        assert run([command, *extra, "--out-dir", str(out)]) == 2, command
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


def test_bad_config_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not key value\n")
    assert run(["sharpness", "--config", str(cfg)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, line",
    [
        ("norm-scan", "cutoff=shrap"),
        ("sharpness", "bogus_key=3"),
        ("sharpness", "N="),
        ("scaling-fit", "plot=maybe"),
        ("norm-scan", "falsify=0"),
        ("norm-scan", "fals=3"),
        ("divisor-check", "D=2,x"),
    ],
    ids=lambda v: v,
)
def test_bad_config_value_is_usage_error(tmp_path, capsys, command, line):
    # config values go through the same types, choices and flag names as flags
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    assert run([command, "--config", str(cfg), "--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "[PASS]" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("value, plot", [("false", False), ("true", True), ("FALSE", False)])
def test_config_plot_boolean(tmp_path, capsys, value, plot):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"plot={value}\nsource=delta\nN=8,16,32,64\n")
    out = tmp_path / "o"
    assert run(["scaling-fit", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "scaling-fit.svg").exists() == plot
    assert json.loads((out / "scaling-fit.json").read_text())["config"]["plot"] is plot
    # the bare flag still turns the plot on, over the config
    out2 = tmp_path / "o2"
    assert run(["scaling-fit", "--config", str(cfg), "--plot", "--out-dir", str(out2)]) == 0
    assert (out2 / "scaling-fit.svg").exists()
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
        ["divisor-check", "--Q", ""],
        ["divisor-check", "--D", ""],
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


def test_coeff_check_empty_levels_means_core_pieces(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["coeff-check", "--N", "8", "--l", "", "--count", "5", "--out-dir", str(out)]) == 0
    assert json.loads((out / "coeff-check.json").read_text())["config"]["l"] == []
    rows = (out / "coeff-check.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and all(row.startswith("core,") for row in rows)
    capsys.readouterr()


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


def test_arcs_check_small(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["arcs-check", "--N", "16", "--samples", "200",
                "--out-dir", str(out)]) == 0
    assert (out / "arc-table-N16.csv").read_bytes() == (
        b"q,a,center,radius,scales\r\n1,0,0.0,0.0625,16 32 64 128 256\r\n"
    )
    capsys.readouterr()


def test_gauss_check_small(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["gauss-check", "--N", "16,32", "--samples", "500",
                "--dirichlet-samples", "1000", "--out-dir", str(out)]) == 0
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
    (["gauss-check", "--N", "16,32", "--samples", "200", "--dirichlet-samples", "200"],
     {"gauss-check.csv": "N,constant"}),
    (["arcs-check", "--N", "16,64", "--samples", "10"],
     {"arc-table-N16.csv": ARC_HEADER, "arc-table-N64.csv": ARC_HEADER}),
    (["coeff-check", "--N", "8", "--count", "3"],
     {"coeff-check.csv": "kind,Q,l,r,closed,oracle,rel_err"}),
    (["ramanujan-check", "--qmax", "8", "--kmax", "8"], {}),
    (["divisor-check", "--N", "1000", "--Q", "8", "--D", "2,4"],
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
    assert run(["arcs-check", "--N", "64,5", "--samples", "10", "--out-dir", str(out)]) == 2
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
    "sharpness.json": "695750d9e44a658073853b20c4c13b553f397785fb813d9b0b273a43ff4795ad",
    "divisor-check.csv": "0c7a48fa30a7ded0d20ef9ee9c0c95ff7ebacdef50183134e030abb46a288b60",
    "divisor-check.json": "8a576c9a81b9f5fe68fdef6213d2adf6f1c6b2c07647c3ac3e4885ba4bf9da8d",
    "ramanujan-check.json": "0a8f03868cf0efdd17e227bbddfa53729e80b73eb6b7efe91c9de1b353b76ffb",
    "separation-probe.json": "2c72ec7f01d6104e8c4d8deb76e618c20469f2dfd8c9663cf054f00bbdc6c62f",
    "scaling-fit.csv": "4e275960c4236e1eb97852ab99ae3067d2c4a313b6a16d66f853c2bbb89b98e2",
    "scaling-fit.json": "ee276d7850d708118f99ef25ce7bc751d1191213aabd129ef08096a68d5f5440",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["sharpness", "--N", "8,12"],
        ["divisor-check", "--N", "20000", "--Q", "8,16", "--D", "2,4,8"],
        ["ramanujan-check", "--qmax", "32", "--kmax", "64"],
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
