"""The package namespace: submodules stay reachable under their own names."""

from __future__ import annotations

import importlib
import runpy
import types
from pathlib import Path

import secwitness


def test_submodule_imports_bind_modules():
    import secwitness.derive as derive_module
    import secwitness.unify as unify_module

    assert isinstance(unify_module, types.ModuleType)
    assert isinstance(derive_module, types.ModuleType)
    assert unify_module.unify_all is not None
    assert derive_module.contribution_of is not None


def test_all_names_exist():
    for name in secwitness.__all__:
        assert hasattr(secwitness, name), name


def test_every_traced_function_resolves():
    # benchmark/tracing.py wraps these by name, and a missing one ends a
    # traced benchmark run with an AttributeError; the file is only read
    tracing = runpy.run_path(str(Path(__file__).parents[1] / "benchmark" / "tracing.py"))
    for span, targets in tracing["TRACED"].items():
        for module_name, func_name in targets:
            module = importlib.import_module(f"{tracing['PACKAGE']}.{module_name}")
            assert callable(getattr(module, func_name, None)), (span, module_name, func_name)
