"""Every public function has a caller: a CLI run reaches it, or a demo or the benchmark calls it.

The test traces small runs of every subcommand and of each variant the
acceptance gate and the benchmark use (n = 3, the smooth cutoff, each
scaling-fit source, the plot) under sys.setprofile.  Every function in a
module's __all__, and every public method and property of a class there,
must be entered by those runs or appear in ALLOWED with the demo or
benchmark file that calls it by name.  The public functions that such an
allowed entry point calls in turn are reached by tracing one small call of
that entry point (ENTRY_RUNS).  A name that only its own tests reach leaves
the package for the test file that uses it.
"""

import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import paravg
from paravg import cli

ROOT = Path(__file__).resolve().parents[1]

RUNS = [
    ["gauss-check", "--N", "16,32"],
    ["arcs-check", "--N", "16,64"],
    ["coeff-check", "--N", "8", "--count", "5"],
    ["coeff-check", "--n", "3", "--N", "4", "--Q", "1", "--count", "3"],
    ["ramanujan-check"],
    ["divisor-check", "--N", "1000"],
    ["norm-scan", "--N", "16", "--falsify", "5"],
    ["norm-scan", "--cutoff", "smooth", "--n", "3", "--N", "4", "--falsify", "5"],
    ["sharpness", "--N", "8"],
    ["sharpness", "--n", "3", "--N", "4"],
    ["scaling-fit", "--N", "8,16,32,64", "--plot"],
    ["scaling-fit", "--n", "3", "--N", "4,6,8,10"],
    ["scaling-fit", "--source", "delta", "--N", "8,16,32,64"],
    ["scaling-fit", "--source", "ascent", "--N", "4,6,8,10"],
    ["scaling-fit", "--source", "l2", "--N", "8,16,32,64"],
    ["separation-probe", "--N", "8"],
]

# public name -> the demo or benchmark file that calls it, for the names no CLI run reaches
ALLOWED = {
    "paravg.arcs.BumpLadder.levels": "demos/03_arcs_and_partition.py",
    "paravg.coefficients.coefficient_decay_report": "demos/04_coefficients.py",
    "paravg.coefficients.minor_coefficient_report": "demos/04_coefficients.py",
    "paravg.coefficients.piece_sup_report": "perfbench/workloads.py",
    "paravg.experiments.box_average_counts": "perfbench/workloads.py",
    "paravg.experiments.sharp_threshold": "demos/06_sharpness_scaling.py",
    "paravg.expsums.gauss_sum": "demos/02_multiplier_and_gauss_sums.py",
    "paravg.lattice.LatticeFunction.items": "perfbench/workloads.py",
    "paravg.lattice.box_indicator": "demos/01_averaging_basics.py",
    "paravg.lattice.convolve": "perfbench/workloads.py",
    "paravg.lattice.reflect": "perfbench/workloads.py",
    "paravg.numtheory.paraboloid_divisor_count": "demos/05_number_theory.py",
    "paravg.numtheory.ramanujan_block_report": "demos/05_number_theory.py",
    "paravg.numtheory.ramanujan_sum": "demos/05_number_theory.py",
    "paravg.numtheory.truncated_divisor_count": "demos/05_number_theory.py",
}

# one small call of each allowed entry point whose public callees no CLI run reaches, as its caller makes it
ENTRY_RUNS = {
    "paravg.coefficients.piece_sup_report":  # gauss_row_max, screen_row_max
        lambda: paravg.piece_sup_report(paravg.PieceSpec("min"), paravg.OperatorParams.smooth(2, 16)),
    "paravg.lattice.LatticeFunction.items":  # support
        lambda: paravg.delta((0, 0)).items(),
    "paravg.lattice.convolve":  # the FFT path: support_box, to_dense, from_dense
        lambda: paravg.convolve(paravg.delta((0, 0)), paravg.box_indicator((0, 0), (2, 2)), method="fft"),
    "paravg.numtheory.paraboloid_divisor_count":  # square_histogram
        lambda: paravg.paraboloid_divisor_count(N=16, K=256, Q=8, D=2.0, n=2),
}


def _modules():
    return [importlib.import_module(f"paravg.{info.name}") for info in pkgutil.iter_modules(paravg.__path__)]


def _public_code():
    """{qualified name: code object} of every public function, method and property in a module's __all__."""
    out = {}
    for module in _modules():
        for name in module.__all__:
            obj = getattr(module, name)
            members = [(name, obj)]
            if inspect.isclass(obj):
                members = [(f"{name}.{attr}", member) for attr, member in vars(obj).items() if not attr.startswith("_")]
            for qualname, member in members:
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                member = inspect.unwrap(member) if callable(member) else member
                if inspect.isfunction(member):
                    out[f"{module.__name__}.{qualname}"] = member.__code__
    return out


def _trace(calls) -> set:
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for call in calls:
            call()
    finally:
        sys.setprofile(None)
    return codes


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    statuses = []
    cli_codes = _trace([lambda i=i, argv=argv: statuses.append(cli.main([*argv, "--out-dir", str(out / str(i))]))
                        for i, argv in enumerate(RUNS)])
    assert statuses == [0] * len(RUNS)
    return cli_codes, _trace(ENTRY_RUNS.values())


def test_every_public_function_is_reached_or_has_a_named_caller(reached, capsys):
    capsys.readouterr()
    cli_codes, entry_codes = reached
    public = _public_code()
    unreached = sorted(name for name, code in public.items() if code not in cli_codes)
    assert [name for name in unreached if name not in ALLOWED and public[name] not in entry_codes] == []
    # an entry for a name that a run reaches, or that no longer exists, is stale
    assert set(ALLOWED) <= set(unreached)
    assert set(ENTRY_RUNS) <= set(ALLOWED)


def _called_names(path: Path) -> set:
    """Names the file calls: f(...) and obj.f(...)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
    return names


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_each_allowed_name_is_called_by_its_caller(name):
    assert name.rsplit(".", 1)[-1] in _called_names(ROOT / ALLOWED[name]), (name, ALLOWED[name])
