"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/test_harness.py -q

They run real passes of every workload (about two minutes on two cores).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every paravg module, and of every class defined there."""
    out = {}
    for module in tracer._paravg_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(module.__name__, key, attr)] = member
    return out


def test_traced_pass_restores_every_binding(tmp_path):
    import paravg

    before = _bindings()
    t = tracer.Tracer()
    with t:
        patches = list(t._patches)
        # every alias of a traced function is the same wrapper
        assert paravg.lp_norm is paravg.lattice.lp_norm is paravg.experiments.lp_norm is paravg.cli.lp_norm
        assert paravg.lp_norm is not before[("paravg.lattice", "lp_norm")]
        assert paravg.lattice.LatticeFunction.__rmul__ is paravg.lattice.LatticeFunction.__mul__
        jobs, _ = workloads.run_pass("averaging", 0, tmp_path / "work", t)
    assert not any(job["incorrect"] for job in jobs)
    assert {span[0] for span in t.spans} >= {"cutoff.average", "lattice.convolve", "lattice.lp_norm"}
    assert len(patches) > 50
    after = _bindings()
    assert before.keys() == after.keys()
    assert [key for key in before if before[key] is not after[key]] == []


def _pass(workload: str, seed: int, trace: int, work: Path) -> dict:
    runner = run.Runner(ROOT, perf_counter())
    return runner.spawn("--workload", workload, "--seed", str(seed), "--trace", str(trace), "--work", str(work))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tracing_changes_no_output_and_counts_repeat(workload, tmp_path):
    seed = 5
    plain = _pass(workload, seed, 0, tmp_path / "work")
    traced = [_pass(workload, seed, 1, tmp_path / "work") for _ in range(2)]
    outputs = [[(job["id"], job["digest"], job["values"]) for job in p["jobs"]] for p in (plain, *traced)]
    assert outputs[0] == outputs[1] == outputs[2]
    assert all(job["digest"] for job in plain["jobs"])
    # calls, pairs, cells, points, terms, entries, samples: everything but times
    counts = [name for name, unit in tracer.metric_units().items() if unit not in ("s", "exponent")]
    first, second = (p["metrics"] for p in traced)
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    assert any(first[name] for name in tracer.COMPUTED)


def test_spans_nest_and_self_time_adds_up():
    spans = [
        ["cli.main", 0.0, 10.0, -1, "j", None],
        ["experiments.box_power_sum", 1.0, 4.0, 0, "j", {"experiments.box_cells": 7, "N": 8, "n": 2}],
        ["experiments.box_power_sum", 5.0, 9.0, 0, "j", {"experiments.box_cells": 9, "N": 16, "n": 2}],
        ["lattice.lp_norm", 2.0, 3.0, 1, "j", {"lattice.lp_norm.points": 4}],
    ]
    m = tracer.span_metrics(spans)
    assert m["cli.self_s"] == 3.0
    assert m["experiments.self_s"] == 6.0
    assert m["lattice.self_s"] == 1.0
    assert m["experiments.box_power_sum.s"] == 7.0
    assert m["experiments.box_cells"] == 16
    assert m["experiments.box_power_sum.time_exp"] == pytest.approx(math.log(4 / 3) / math.log(2))


def test_reference_departures():
    job = workloads.CliJob("x", (), "x", seeded=("results.s",), bounds=(("results.dev", 1e-12),))
    ref = {"results.a": 1, "results.f": 0.5, "results.s": 3.0}
    ok = {"results.a": 1, "results.f": 0.5 * (1 + 1e-14), "results.s": 4.0, "results.dev": 1e-13}
    assert workloads.departures(job, ok, ref, seed=1, reference_seed=0) == []
    assert workloads.departures(job, ok, ref, seed=0, reference_seed=0) != []  # seeded value compared at seed 0
    bad = dict(ok, **{"results.a": 2, "results.dev": 1e-9})
    assert len(workloads.departures(job, bad, ref, seed=1, reference_seed=0)) == 2
