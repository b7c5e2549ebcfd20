"""Shared fixtures: bundled protocols and the small hand-built contexts
used across the example-driven tests."""

from __future__ import annotations

import pytest
from hypothesis import settings

from secwitness.context import make_context
from secwitness.protocols import load_bundled
from secwitness.roles import pattern_space, roles_for
from secwitness.terms import Atom, Sort, SymbolTable, parse_message

# every property test draws the same examples on every run; a test's own
# @settings start from this profile
settings.register_profile("seeded", derandomize=True)
settings.load_profile("seeded")


def table(*atoms: Atom) -> SymbolTable:
    return SymbolTable({a.name: a for a in atoms})


def msg(text: str, symbols: SymbolTable):
    return parse_message(text, symbols)


@pytest.fixture(scope="session")
def ns():
    return load_bundled("ns")


@pytest.fixture(scope="session")
def nsl():
    return load_bundled("nsl")


@pytest.fixture(scope="session")
def ns_roles(ns):
    return roles_for(ns, "manual")


@pytest.fixture(scope="session")
def ns_pool(ns, ns_roles):
    return pattern_space(ns, ns_roles)


@pytest.fixture(scope="session")
def nsl_roles(nsl):
    return roles_for(nsl, "manual")


@pytest.fixture(scope="session")
def nsl_pool(nsl, nsl_roles):
    return pattern_space(nsl, nsl_roles)


# Three-key context for the access / clear examples.  alpha is a shared
# secret of A and C; kef-1 is held by E and F.
@pytest.fixture(scope="session")
def access_ctx():
    return make_context(
        principals=["A", "B", "C", "D", "E", "F", "S", "I"],
        intruder="I",
        levels={
            "alpha": ["A", "C"],
            "kab-1": ["A", "B"],
            "kac-1": ["A", "C"],
            "kef-1": ["E", "F"],
        },
        keys=[
            ("kab", "kab-1"),
            ("kac", "kac-1"),
            ("kef", "kef-1"),
        ],
    )


@pytest.fixture(scope="session")
def access_symbols():
    return table(
        Atom("A"), Atom("B"), Atom("C"), Atom("D"), Atom("E"), Atom("F"),
        Atom("S"), Atom("I"), Atom("alpha"),
        Atom("kab"), Atom("kab-1"), Atom("kac"), Atom("kac-1"),
        Atom("kef"), Atom("kef-1"),
    )


# Adds kad (inverse held by A and D) so the outermost key of the nested
# selection example does not qualify as protective for alpha.
@pytest.fixture(scope="session")
def selection_ctx():
    return make_context(
        principals=["A", "B", "C", "D", "E", "F", "S", "I"],
        intruder="I",
        levels={
            "alpha": ["A", "C"],
            "kab-1": ["A", "B"],
            "kac-1": ["A", "C"],
            "kad-1": ["A", "D"],
            "kef-1": ["E", "F"],
        },
        keys=[
            ("kab", "kab-1"),
            ("kac", "kac-1"),
            ("kad", "kad-1"),
            ("kef", "kef-1"),
        ],
    )


@pytest.fixture(scope="session")
def selection_symbols():
    return table(
        Atom("A"), Atom("B"), Atom("C"), Atom("D"), Atom("E"), Atom("F"),
        Atom("S"), Atom("I"), Atom("alpha"),
        Atom("kab"), Atom("kab-1"), Atom("kac"), Atom("kac-1"),
        Atom("kad"), Atom("kad-1"), Atom("kef"), Atom("kef-1"),
    )


# Flat context for the valuation examples: one key whose inverse is held
# by A, B and the server S.
@pytest.fixture(scope="session")
def valuation_ctx():
    return make_context(
        principals=["A", "B", "C", "D", "S", "I"],
        intruder="I",
        levels={"alpha": ["A", "B", "S"], "kab-1": ["A", "B", "S"]},
        keys=[("kab", "kab-1")],
    )


@pytest.fixture(scope="session")
def valuation_symbols():
    return table(
        Atom("A"), Atom("B"), Atom("C"), Atom("D"), Atom("S"), Atom("I"),
        Atom("alpha"), Atom("kab"), Atom("kab-1"),
    )


# Three-pattern space for the closed-message witness example.
@pytest.fixture(scope="session")
def witness_ctx():
    return make_context(
        principals=["A", "B", "C", "D", "I"],
        intruder="I",
        levels={"alpha": ["A", "D"], "kad-1": ["A", "D"], "kbc-1": ["B", "C"]},
        keys=[
            ("kad", "kad-1"),
            ("kbc", "kbc-1"),
        ],
    )


@pytest.fixture(scope="session")
def witness_symbols():
    return table(
        Atom("A"), Atom("B"), Atom("C"), Atom("D"), Atom("I"), Atom("alpha"),
        Atom("kad"), Atom("kad-1"), Atom("kbc"), Atom("kbc-1"),
        Atom("X", Sort.VARIABLE), Atom("Y", Sort.VARIABLE),
        Atom("Z", Sort.VARIABLE),
    )


@pytest.fixture(scope="session")
def witness_pool(witness_symbols):
    return [
        msg("{alpha.B.X}_kad", witness_symbols),
        msg("{alpha.Y.C}_kad", witness_symbols),
        msg("{A.Z}_kbc", witness_symbols),
    ]
