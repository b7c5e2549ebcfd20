"""Message algebra: parsing, printing, atoms, substitution."""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from message_helpers import random_message
from secwitness.context import inverse_key, make_context
from secwitness.errors import (
    MessageSyntaxError,
    NotAKey,
    SubstitutedIntoKeyPosition,
    UndeclaredIdentifier,
    VariableInKeyPosition,
)
from secwitness.roles import parse_protocol
from secwitness.terms import (
    CONSTANT,
    EMPTY,
    MAX_NESTING,
    PARAMETER,
    VARIABLE,
    Atom,
    Concat,
    Empty,
    Enc,
    Message,
    SymbolTable,
    atoms,
    concat,
    flatten,
    map_atoms,
    parse_message,
    print_message,
    substitute,
    subterms,
    variables_of,
)

A = Atom("A")
B = Atom("B")
NA = Atom("Na")
NB = Atom("Nb")
KA = Atom("ka")
KB = Atom("kb")
X = Atom("X", VARIABLE)
Y = Atom("Y", VARIABLE)
A1 = Atom("A", PARAMETER, index=1)
NA1 = Atom("Na", PARAMETER, index=1)
KB1 = Atom("kb", PARAMETER, index=1)

SYMS = SymbolTable({a.name: a for a in (A, B, NA, NB, KA, KB, X, Y)})


def test_parse_enc_concat():
    m = parse_message("{A.Na}_kb", SYMS)
    assert m == Enc(concat(A, NA), KB)


def test_parse_with_variable():
    m = parse_message("{Na.X.B}_ka", SYMS)
    assert m == Enc(concat(NA, X, B), KA)


def test_parse_variable_in_key_position():
    with pytest.raises(VariableInKeyPosition):
        parse_message("{X}_Y", SYMS)


def test_parse_variable_decryption_key_in_a_rule():
    # d(k, m) stands for {m}_k, so its key is checked as every key is
    with pytest.raises(VariableInKeyPosition) as err:
        parse_protocol("principal A; intruder I; var X; rule d(X, Y) -> Y;")
    assert str(err.value) == "variable 'X' cannot be used as an encryption key"


def test_parse_undeclared():
    with pytest.raises(UndeclaredIdentifier):
        parse_message("{A.Nc}_kb", SYMS)


def test_parse_syntax_error_has_position():
    with pytest.raises(MessageSyntaxError) as e:
        parse_message("{A.}_kb", SYMS)
    assert "position" in str(e.value) or any(ch.isdigit() for ch in str(e.value))


def _nested(depth):
    return "{" * depth + "A.Na" + "}_kb" * depth


def test_parse_at_nesting_limit():
    m = parse_message(_nested(MAX_NESTING), SYMS)
    assert print_message(m) == _nested(MAX_NESTING)


def test_parse_past_nesting_limit():
    with pytest.raises(MessageSyntaxError):
        parse_message(_nested(MAX_NESTING + 1), SYMS)
    with pytest.raises(MessageSyntaxError):
        parse_message("d(kb, " * (MAX_NESTING + 1) + "A" + ")" * (MAX_NESTING + 1),
                      SYMS, allow_dec=True)


def test_parse_session_tag():
    m = parse_message("Na^i", SYMS)
    assert m == Atom("Na", session_tag="i")


def test_an_atom_is_a_message():
    # an atom occurrence in a message is the atom itself, with no node
    # around it; it prints as its display form and reprs with its marker
    assert isinstance(A, Message)
    assert parse_message("A", SYMS) == A
    assert flatten(parse_message("A.{X}_kb", SYMS))[0] == A
    assert str(Atom("Na", PARAMETER, "i")) == "Na^i"
    assert repr(Atom("Na", PARAMETER, "i")) == "'Na^i"
    assert repr(X) == "?X" and str(X) == "X"


def test_atoms_of_encryption():
    m = parse_message("{A.Na}_kb", SYMS)
    assert atoms(m) == {A, NA, KB}


def test_atoms_atomic_and_empty():
    assert atoms(A) == {A}
    assert atoms(EMPTY) == set()


def test_variables_of():
    assert variables_of(parse_message("{Na.X.B}_ka", SYMS)) == {X}
    assert variables_of(parse_message("{A.Na}_kb", SYMS)) == set()
    assert variables_of(concat(X, Y)) == {X, Y}


def test_substitute_variable():
    m = parse_message("{X}_kb", SYMS)
    s = {X: concat(A, NA)}
    assert substitute(m, s) == parse_message("{A.Na}_kb", SYMS)


def test_substitute_ground_identity():
    m = parse_message("{A.Na}_kb", SYMS)
    s = {X: A}
    assert substitute(m, s) == m
    assert substitute(m, {}) == m


def test_substitute_parameters():
    m = Enc(concat(A1, NA1), KB1)
    s = {A1: A, NA1: NA, KB1: KB}
    assert substitute(m, s) == parse_message("{A.Na}_kb", SYMS)


def test_substitute_compound_into_key_position():
    m = Enc(A, KB1)
    s = {KB1: concat(A, B)}
    with pytest.raises(SubstitutedIntoKeyPosition):
        substitute(m, s)


def test_inverse_key_involution():
    ctx = make_context(["A", "B", "I"], "I", {"ka-1": ["A"]},
                       [("ka", "ka-1")])
    ka, kainv = Atom("ka"), Atom("ka-1")
    assert inverse_key(ctx, ka) == kainv
    assert inverse_key(ctx, kainv) == ka
    assert inverse_key(ctx, inverse_key(ctx, ka)) == ka


def test_inverse_key_symmetric_self():
    ctx = make_context(["A", "B", "I"], "I", {"kab": ["A", "B"]},
                       [("kab", "kab")])
    kab = Atom("kab")
    assert inverse_key(ctx, kab) == kab


def test_inverse_key_not_a_key():
    ctx = make_context(["A", "B", "I"], "I", {"ka-1": ["A"]},
                       [("ka", "ka-1")])
    with pytest.raises(NotAKey):
        inverse_key(ctx, NA)




# --- algebraic laws -------------------------------------------------------

leaves = st.sampled_from([A, B, NA, NB, X, Y])
keys = st.sampled_from([KA, KB])


def messages(depth=3):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(lambda k, b: Enc(b, k), keys, kids),
            st.lists(kids, min_size=2, max_size=3).map(lambda ps: concat(*ps)),
        ),
        max_leaves=6,
    )


ground_images = st.sampled_from([
    A, B, NA,
    concat(A, NA),
    Enc(NA, KB),
])


@given(messages())
@settings(max_examples=200)
def test_print_parse_round_trip(m):
    assert parse_message(print_message(m), SYMS) == m


@given(messages(), messages(), messages())
def test_concat_flattening(a, b, c):
    assert concat(concat(a, b), c) == concat(a, concat(b, c))
    assert flatten(concat(a, b, c)) == flatten(concat(a, concat(b, c)))


@given(messages(), messages(), ground_images, ground_images)
def test_substitute_homomorphism(a, b, ix, iy):
    s = {X: ix, Y: iy}
    assert substitute(concat(a, b), s) == concat(substitute(a, s), substitute(b, s))
    assert substitute(Enc(a, KB), s) == Enc(substitute(a, s), KB)


@given(messages(), ground_images, ground_images)
def test_substitute_atoms_law(m, ix, iy):
    s = {X: ix, Y: iy}
    expected = set()
    for a in atoms(m):
        img = s.get(a)
        expected |= atoms(img) if img is not None else {a}
    assert atoms(substitute(m, s)) == expected


@given(messages())
def test_parse_is_inverse_on_printed_forms(m):
    # printing twice through a parse is stable
    once = print_message(parse_message(print_message(m), SYMS))
    assert once == print_message(m)


# --- slotted nodes with a cached hash ---------------------------------------


def _reference_atoms(m):
    """atoms() as a filter over the pre-order subterm walk: the
    straightforward form the explicit-stack loop must agree with."""
    out = set()
    for t in subterms(m):
        if isinstance(t, Atom):
            out.add(t)
        elif isinstance(t, Enc):
            out.add(t.key)
    return frozenset(out)


NA_I = Atom("Na", CONSTANT, "i")
RANDOM_POOL = [A, B, NA, NA_I, NB, X, Y, A1, NA1]
RANDOM_KEYS = [KA, KB, KB1, Atom("kab")]
RANDOM_SYMS = SymbolTable({a.display(): a for a in RANDOM_POOL + RANDOM_KEYS if a.session_tag is None})
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _random(seed):
    return random_message(random.Random(seed), RANDOM_POOL, RANDOM_KEYS, max_depth=4)


def _same(m, other):
    assert other == m
    assert hash(other) == hash(m)
    assert {m: 1}[other] == 1


@given(seeds)
@settings(max_examples=300)
def test_atoms_matches_the_subterm_walk(seed):
    m = _random(seed)
    assert atoms(m) == _reference_atoms(m)


@given(seeds)
@settings(max_examples=200)
def test_rebuilt_message_is_equal_with_equal_hash(seed):
    m = _random(seed)
    _same(m, map_atoms(m, lambda a: None))
    fresh = map_atoms(m, lambda a: Atom(a.name, a.sort, a.session_tag, a.index))
    _same(m, fresh)
    _same(m, parse_message(print_message(m), RANDOM_SYMS))


@given(seeds)
@settings(max_examples=100)
def test_copies_keep_equality_and_hash(seed):
    m = _random(seed)
    _same(m, copy.copy(m))
    _same(m, copy.deepcopy(m))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        _same(m, pickle.loads(pickle.dumps(m, protocol)))


def test_pickle_across_processes_recomputes_the_hash():
    # string hashes differ between interpreters started with different
    # seeds, so an unpickled node must not keep the hash it was saved with
    text = "{A.Na^i}_kb.{X}_{ka}.A_1"
    load = ("import pickle, sys\n"
            "from secwitness.terms import *\n"
            "A, NA, KA, KB = Atom('A'), Atom('Na'), Atom('ka'), Atom('kb')\n"
            "X, A1 = Atom('X', VARIABLE), Atom('A', PARAMETER, index=1)\n"
            "syms = SymbolTable({a.display(): a for a in (A, NA, KA, KB, X, A1)})\n"
            "m = parse_message(%r, syms)\n" % text)
    dump = load + "sys.stdout.buffer.write(pickle.dumps([m, m.parts[0].key, m.parts[-1], EMPTY]))\n"
    check = load + ("m2, key, a1, empty = pickle.loads(sys.stdin.buffer.read())\n"
                    "assert m2 == m and hash(m2) == hash(m)\n"
                    "assert key == KB and hash(key) == hash(KB)\n"
                    "assert a1 == A1 and hash(a1) == hash(A1) and a1.index == 1\n"
                    "assert empty == EMPTY and hash(empty) == hash(EMPTY)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    saved = subprocess.run([sys.executable, "-c", dump], capture_output=True, check=True,
                           env=dict(env, PYTHONHASHSEED="1")).stdout
    subprocess.run([sys.executable, "-c", check], input=saved, check=True,
                   env=dict(env, PYTHONHASHSEED="2"))


def test_a_set_of_atoms_iterates_in_the_same_order_under_one_seed():
    # the hash of an untagged or unindexed atom must not follow an address,
    # which differs between processes
    show = ("from secwitness.terms import PARAMETER, Atom\n"
            "names = ['A', 'B', 'Na', 'Nc', 'Nb', 'ka', 'kb', 'X']\n"
            "print(list(frozenset(Atom(n) for n in names)),"
            " list(frozenset(Atom(n, PARAMETER, 'i') for n in names)),"
            " list(frozenset(Atom(n, PARAMETER, index=2) for n in names)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED="0")
    first, second = (subprocess.run([sys.executable, "-c", show], capture_output=True,
                                    check=True, env=env).stdout for _ in range(2))
    assert first == second


NODES = [A, concat(A, B), Enc(A, KB), EMPTY]
FIRST_FIELD = {Atom: "name", Concat: "parts", Enc: "body", Empty: "_h"}


def node_ids(node):
    return type(node).__name__


@pytest.mark.parametrize("node", NODES, ids=node_ids)
def test_fields_cannot_be_assigned(node):
    before = hash(node)
    for name in (FIRST_FIELD[type(node)], "_h"):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
        with pytest.raises(AttributeError):
            delattr(node, name)
    # an unknown name is refused too
    with pytest.raises(AttributeError):
        node.extra = None
    assert not hasattr(node, "extra")
    assert hash(node) == before


@pytest.mark.parametrize("node", NODES, ids=node_ids)
def test_nodes_have_no_instance_dict(node):
    assert not hasattr(node, "__dict__")

