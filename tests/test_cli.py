"""Batch front end: subcommands, exit codes, reports, determinism, plots."""

import json
import time

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

    def broken(q_max, ks):
        raise AssertionError("forced disagreement")

    monkeypatch.setattr(nt, "ramanujan_table", broken)
    status = run(["ramanujan-check", "--qmax", "8", "--kmax", "8",
                  "--out-dir", str(tmp_path / "o")])
    assert status == 1
    assert "[FAIL]" in capsys.readouterr().out


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

    def increasing(N, Q, D, B=None, tau=None):
        count = int(D) if D < Q else 0
        return count, ExperimentReport("divisor_level_count", values={"ratio": 0.0})

    monkeypatch.setattr(nt, "divisor_level_count", increasing)
    assert run(["divisor-check", "--N", "1000", "--Q", "16", "--D", "2,4",
                "--out-dir", str(tmp_path / "o")]) == 1
    assert "[FAIL] counts nonincreasing in D at Q=16" in capsys.readouterr().out


def test_arcs_check_fails_on_overlapping_arcs(tmp_path, capsys, monkeypatch):
    import paravg.arcs as arcs_mod

    major_arcs = arcs_mod.major_arcs
    monkeypatch.setattr(arcs_mod, "major_arcs", lambda N: major_arcs(N) * 2)
    assert run(["arcs-check", "--N", "16", "--samples", "10",
                "--out-dir", str(tmp_path / "o")]) == 1
    assert "[FAIL] N=16: 4I arcs pairwise disjoint" in capsys.readouterr().out


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
    svg1 = cli.emit_plot(out / "scaling-fit.csv", "loglog", out / "p1.svg")
    svg2 = cli.emit_plot(out / "scaling-fit.csv", "loglog", out / "p2.svg")
    b1 = (out / "p1.svg").read_bytes()
    assert b1 == (out / "p2.svg").read_bytes()
    assert b"svg" in b1 and b"dasharray" in b1  # reference slope drawn dashed
    assert "p1.svg" in svg1 and "p2.svg" in svg2


def test_emit_plot_rejects_empty_and_unknown(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("n,N,p,source,value\n")
    with pytest.raises(ValueError):
        cli.emit_plot(empty, "loglog")
    assert not (tmp_path / "empty.svg").exists()
    ok = tmp_path / "ok.csv"
    ok.write_text("x,value\n0,1\n1,2\n")
    with pytest.raises(ValueError):
        cli.emit_plot(ok, "sideways")
    cli.emit_plot(ok, "profile")
    assert (tmp_path / "ok.svg").exists()


def test_scaling_fit_l2_target_is_zero(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["scaling-fit", "--source", "l2", "--N", "8,16,32,64",
                "--out-dir", str(out)]) == 0
    assert "[PASS] slope at p=1.8 within 0.15 of target 0.0000" in capsys.readouterr().out
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
        cli.emit_plot(bad, "loglog")
