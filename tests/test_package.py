"""The package namespace: submodules stay reachable under their own names,
and every public name of `src/` has a caller outside the tests."""

from __future__ import annotations

import ast
import importlib
import runpy
import types
from collections import Counter
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


# Public names of the package that nothing but the tests call.  Each is kept
# on purpose: the acceptance tests state the paper's laws on it.
UNCALLED_ON_PURPOSE = {
    ("rewrite", "access"): "the guard family of an atom, as the paper defines well protection",
    ("context", "join"): "the lattice join; the acceptance tests check the lattice laws on it",
}


def _self_stores(method: ast.FunctionDef):
    """The `self.<name> = ...` stores in a method: each sets a field."""
    for node in ast.walk(method):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for t in targets:
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self":
                yield t.attr, node


def _slot_names(item: ast.stmt) -> list[str]:
    """The entries of a class body's `__slots__ = (...)`; none for any other
    statement."""
    if (isinstance(item, ast.Assign) and len(item.targets) == 1
            and isinstance(item.targets[0], ast.Name) and item.targets[0].id == "__slots__"
            and isinstance(item.value, (ast.Tuple, ast.List))):
        return [e.value for e in item.value.elts if isinstance(e, ast.Constant)]
    return []


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name, defining node, whether it is a field) for
    every public top-level name, every public method of a public class,
    every public field of a public record (a `NamedTuple` class body or a
    dataclass), every public `__slots__` entry and every public attribute
    that a method of a public class stores on `self`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, name, node, False
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        record = (any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                  or any(ast.unparse(b).endswith("NamedTuple") for b in node.bases))
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                members = [(item.name, item, False)] + [(a, store, True) for a, store in _self_stores(item)]
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and record:
                members = [(item.target.id, item, True)]
            else:
                members = [(name, item, True) for name in _slot_names(item)]
            for name, defining, is_field in members:
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", name, defining, is_field


def _references(tree: ast.AST) -> Counter:
    """How often each name is read, as a name, an attribute or a keyword."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif isinstance(node, ast.keyword) and node.arg is not None:
            out[node.arg] += 1
    return out


def _field_reads(tree: ast.AST) -> Counter:
    """How often each name is read as an attribute, by `x.name` or by
    `getattr(x, "name")`; a keyword or a bare name does not read a field."""
    out: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out[node.attr] += 1
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            out[node.args[1].value] += 1
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    # A field counts as read when an attribute of that name is read on
    # anything: one read of `x.name` keeps every class's `name`, so a field
    # that shares its name with one read elsewhere still passes.
    root = Path(__file__).parents[1]
    package = root / "src" / "secwitness"
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in (root / "src", root / "scripts", root / "benchmark")
             for path in sorted(folder.rglob("*.py"))}
    read: Counter = Counter()
    field_read: Counter = Counter()
    for tree in trees.values():
        read += _references(tree)
        field_read += _field_reads(tree)
    tracing = runpy.run_path(str(root / "benchmark" / "tracing.py"))
    traced = {target for targets in tracing["TRACED"].values() for target in targets}
    uncalled = []
    for path, tree in trees.items():
        if package not in path.parents:
            continue
        module = path.relative_to(package).with_suffix("").as_posix().replace("/", ".")
        for qualified, name, node, is_field in _public_definitions(tree):
            if (module, qualified) in traced or (module, qualified) in UNCALLED_ON_PURPOSE:
                continue
            unread = not field_read[name] if is_field else read[name] <= _references(node)[name]
            if unread:
                uncalled.append(f"{module}.{qualified}")
    assert not uncalled, "public names that only the tests call: " + ", ".join(uncalled)


def _imported_names(tree: ast.Module):
    """The names bound by the module's top-level imports, `__future__` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_read():
    # the package's __init__ imports to re-export, so it is left out
    root = Path(__file__).parents[1]
    paths = [p for p in sorted((root / "src" / "secwitness").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((root / "scripts").glob("*.py"))
    paths += sorted((root / "tests").glob("*.py"))
    unread = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread += [f"{path.relative_to(root)}: {name}"
                   for name in _imported_names(tree) if name not in used]
    assert not unread, "imports that nothing reads: " + ", ".join(unread)
