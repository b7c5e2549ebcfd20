"""The package namespace: submodules stay reachable under their own names."""

from __future__ import annotations

import types

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
