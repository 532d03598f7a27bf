"""The public surface: every listed or re-exported name resolves, and every public function is listed."""

import ast
import importlib
import inspect
import pkgutil

import paravg


def test_public_names_resolve_and_are_listed():
    for info in pkgutil.iter_modules(paravg.__path__):
        module = importlib.import_module(f"paravg.{info.name}")
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], info.name
        defined = [
            name
            for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
        ]
        assert sorted(set(defined) - set(module.__all__)) == [], info.name

    tree = ast.parse(inspect.getsource(paravg))
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    ]
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"paravg.{module_name}")
        assert name in module.__all__, (module_name, name)
        assert getattr(paravg, name) is getattr(module, name), (module_name, name)


def test_the_rayleigh_sweep_is_one_max():
    # norm-scan needs only the max quotient; the per-member list is not public
    from paravg import experiments

    assert "max_rayleigh_quotient" in experiments.__all__
    assert not hasattr(experiments, "rayleigh_quotients")
    assert list(inspect.signature(experiments.max_rayleigh_quotient).parameters) == ["points", "values", "params"]


def _signatures(obj):
    """(qualified name, signature) of a public function, or of a class's constructor and public methods."""
    if inspect.isfunction(obj):
        yield obj.__qualname__, inspect.signature(obj)
    elif inspect.isclass(obj):
        yield f"{obj.__qualname__}.__init__", inspect.signature(obj.__init__)
        for name, member in vars(obj).items():
            func = member.__func__ if isinstance(member, (staticmethod, classmethod)) else member
            if not name.startswith("_") and inspect.isfunction(func):
                yield func.__qualname__, inspect.signature(func)


def test_no_public_signature_selects_the_spline_order_or_the_ramp():
    # the bump spline order and the cutoff ramp are module constants, not knobs
    seen = set()
    for info in pkgutil.iter_modules(paravg.__path__):
        module = importlib.import_module(f"paravg.{info.name}")
        for name in module.__all__:
            for qualname, signature in _signatures(getattr(module, name)):
                seen.add(qualname)
                assert not {"order", "ramp_order"} & set(signature.parameters), qualname
    assert {"bump_psi", "ArcSystem.__init__", "OperatorParams.smooth", "CutoffProfile.__init__"} <= seen
    assert list(inspect.signature(paravg.bump_psi).parameters) == ["t"]
    assert list(inspect.signature(paravg.bump_psi_hat).parameters) == ["u"]


def test_the_retired_paths_are_gone():
    # one arc set (ArcSystem), one Ramanujan evaluator, and a fixed quintic ramp
    modules = [paravg, *(importlib.import_module(f"paravg.{info.name}") for info in pkgutil.iter_modules(paravg.__path__))]
    for name in ("MajorArc", "major_arcs", "arcs_4i_disjoint", "ramanujan_sum_direct", "RAMP_ORDER"):
        assert [m.__name__ for m in modules if hasattr(m, name)] == [], name
    assert hasattr(paravg.arcs.ArcSystem, "arcs_4i_disjoint")


def test_the_test_only_functions_left_the_package():
    # each lives on as an oracle in the test file that uses it
    modules = [paravg, *(importlib.import_module(f"paravg.{info.name}") for info in pkgutil.iter_modules(paravg.__path__))]
    for name in ("kernel_coefficient", "maj_coefficient", "minor_coefficient", "divisor_count", "divisor_count_sieve"):
        assert [m.__name__ for m in modules if hasattr(m, name)] == [], name
    assert not {"blocks", "piece_specs"} & set(vars(paravg.arcs.ArcSystem))
    assert sum(len(m.__all__) for m in modules[1:]) == 72
    assert len([n for n, v in vars(paravg).items() if not n.startswith("_") and not inspect.ismodule(v)]) == 39


def test_no_report_or_oracle_signature_takes_a_one_value_knob():
    # eps, the y grid and the oracle tolerance are module constants, recorded in the report params
    from paravg import coefficients

    for func in (coefficients.piece_sup_report, coefficients.coefficient_decay_report,
                 coefficients.minor_coefficient_report, coefficients.piece_coefficient_oracle):
        assert not {"eps", "y_grid", "tol"} & set(inspect.signature(func).parameters), func.__name__
    assert coefficients.EPS == 0.2
    # the oracle's grid, the level-set exponents and the fit's ascent length have one value each
    from paravg import experiments, numtheory

    assert list(inspect.signature(coefficients.piece_coefficient_oracle).parameters) == ["query"]
    assert list(inspect.signature(numtheory.divisor_level_counts).parameters) == ["N", "Q", "Ds"]
    assert list(inspect.signature(experiments.scaling_fit).parameters) == ["Ns", "n", "p", "source", "seed"]
