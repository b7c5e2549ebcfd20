#!/usr/bin/env python3
"""A small mutation audit: which changes to a module do its tests miss?

Each mutant is the module with one small change inside the named
functions (nested functions included):

- a comparison flipped (`<` and `>=`, `>` and `<=`, `==` and `!=`, `in`
  and `not in`, `is` and `is not`);
- the condition of an `if`, a `while` or a conditional expression forced
  true, and forced false;
- an integer constant plus one.

The module is rewritten with `ast.unparse`, one mutant at a time, into a
copy of the checkout, and the given tests run there with `pytest -x`.  A
mutant that every test passes survived: it is equivalent to the program,
changes only speed, sits in code nothing reaches, or shows a gap in the
tests.  The checkout itself is never written.

    python3 scripts/mutation_audit.py src/secwitness/oracle.py \\
        --functions _deduce,_draw,check_full_invariance,check_non_disclosure \\
        --tests tests/test_oracle.py tests/test_oracle_golden.py \\
                tests/test_closure_reference.py \\
        --workdir /tmp/mutation-audit

It prints one line per mutant that survived or ran past `--timeout`, and
the counts.  A mutant that runs past it, a loop that never ends for
example, is one the tests notice; it is counted apart from the killed
ones.  The audit is not part of the test suite; each run takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import copy
import functools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parent.parent
FLIP = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
        ast.Is: ast.IsNot, ast.IsNot: ast.Is}


def _targets(tree: ast.Module, names: set[str]) -> list[ast.FunctionDef]:
    found = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in names]
    missing = names - {node.name for node in found}
    if missing:
        sys.exit(f"no top-level function named {', '.join(sorted(missing))}")
    return found


def _mutations(tree: ast.Module, names: set[str]) -> Iterator[tuple[str, int, str, Callable]]:
    """Every mutation as (function, line, description, make), in walk
    order; make() makes it in this tree."""
    for fn in _targets(tree, names):
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                for i, op in enumerate(node.ops):
                    flipped = FLIP[type(op)]
                    yield (fn.name, node.lineno, f"{type(op).__name__} -> {flipped.__name__}",
                           functools.partial(node.ops.__setitem__, i, flipped()))
            elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
                kind = type(node).__name__.lower()
                for forced in (True, False):
                    yield (fn.name, node.lineno,
                           f"{kind} condition forced {'true' if forced else 'false'}",
                           functools.partial(setattr, node, "test", ast.Constant(forced)))
            elif isinstance(node, ast.Constant) and type(node.value) is int:
                yield (fn.name, node.lineno, f"{node.value} -> {node.value + 1}",
                       functools.partial(setattr, node, "value", node.value + 1))


def _mutant(tree: ast.Module, names: set[str], which: int) -> str:
    """The source of the module with mutation number `which` made; the
    same walk over a copy of the tree finds its node again."""
    tree = copy.deepcopy(tree)
    make = list(_mutations(tree, names))[which][3]
    make()
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def _run(workdir: Path, tests: list[str], timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                               *tests], cwd=workdir, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="the module to mutate, relative to the checkout")
    parser.add_argument("--functions", required=True, help="comma-separated top-level names")
    parser.add_argument("--tests", nargs="+", required=True, help="test files, fastest first")
    parser.add_argument("--workdir", help="where the copy goes (default: a new temporary folder)")
    parser.add_argument("--timeout", type=float, default=60.0, help="seconds per mutant")
    args = parser.parse_args()

    names = set(args.functions.split(","))
    source = (ROOT / args.module).read_text(encoding="utf-8")
    tree = ast.parse(source)
    sites = [(fn, line, what) for fn, line, what, _ in _mutations(tree, names)]
    workdir = Path(args.workdir or tempfile.mkdtemp(prefix="mutation-audit-"))
    if workdir.resolve() == ROOT or ROOT in workdir.resolve().parents:
        sys.exit("the work folder must lie outside the checkout")
    shutil.rmtree(workdir / "checkout", ignore_errors=True)
    copy_root = workdir / "checkout"
    shutil.copytree(ROOT, copy_root, ignore=shutil.ignore_patterns(".git", "__pycache__", "out"))
    target = copy_root / args.module

    # the unparsed module, unmutated, must pass, or every mutant would look killed
    target.write_text(ast.unparse(tree) + "\n", encoding="utf-8")
    if _run(copy_root, args.tests, args.timeout) != "survived":
        sys.exit("the tests fail on the unmutated module")

    start = time.monotonic()
    counts = {"killed": 0, "survived": 0, "timeout": 0}
    for which, (fn, line, what) in enumerate(sites):
        target.write_text(_mutant(tree, names, which), encoding="utf-8")
        outcome = _run(copy_root, args.tests, args.timeout)
        counts[outcome] += 1
        if outcome != "killed":
            text = source.splitlines()[line - 1].strip()
            print(f"{outcome}: {args.module}:{line} in {fn}: {what}: {text}", flush=True)
    target.write_text(source, encoding="utf-8")
    print(f"{len(sites)} mutants, {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['timeout']} timed out, {time.monotonic() - start:.0f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
