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
