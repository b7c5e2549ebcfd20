"""Protocol files, role projection, and the freshened pattern space."""

from __future__ import annotations

import pytest

from secwitness.errors import MessageSyntaxError, UndeclaredIdentifier
from secwitness.protocols import bundled
from secwitness.roles import (
    RECV,
    SEND,
    check_role_variables,
    extract_generalized_roles,
    generalized_message_space,
    parse_protocol,
    pattern_shape,
    pattern_space,
    roles_for,
)
from secwitness.terms import Sort, atoms, variables_of

NS_TEXT = bundled("ns")

NS_POOL = [
    "{A_1.Na_1}_kb_1",
    "{Na_2.X_1.B_2}_ka_2",
    "{X_2}_kb_3",
    "{A_3.Y_1}_kb_4",
    "{Y_2.Nb_5.B_5}_ka_4",
    "{Nb_6}_kb_6",
]

# the responder's duplicate of the third shape is dropped, and the
# numbering keeps advancing past it
NSL_POOL = [
    "{Na_1.A_1}_kb_1",
    "{B_2.Na_2}_ka_2",
    "{B_3.X_1}_ka_3",
    "{X_2}_kb_4",
    "{Y_1.A_4}_kb_5",
    "{B_7.Nb_7}_ka_6",
    "{Nb_8}_kb_8",
]


def test_parse_ns_steps(ns):
    assert [s.step_id for s in ns.steps] == [1, 2, 3]
    assert str(ns.steps[0].message) == "{A.Na}_kb"
    assert ns.steps[0].sender.name == "A" and ns.steps[0].receiver.name == "B"


def test_parse_nsl_second_step(nsl):
    assert str(nsl.steps[1].message) == "{B.Na}_ka.{B.Nb}_ka"


def test_parse_undeclared_name():
    with pytest.raises(UndeclaredIdentifier):
        parse_protocol("""
protocol Bad;
principal A, B;
intruder I;
key kb inv kb-1 asym;
level kb-1 = {B};
step 1: A -> B : {A.Nc}_kb;
""")


def test_parse_duplicate_step_id():
    with pytest.raises(MessageSyntaxError):
        parse_protocol("""
protocol Bad;
principal A, B;
intruder I;
key kb inv kb-1 asym;
fresh Na by A;
level Na = {A,B};
level kb-1 = {B};
step 1: A -> B : {A.Na}_kb;
step 1: B -> A : {A.Na}_kb;
""")


@pytest.mark.parametrize("declaration,expected", [
    ("key kbinv kb-1;", "key declaration"),      # no space before inv
    ("key kb inv kb-1 asym;", None),
    ("key kb inv kb-1 sym;", None),
    ("key kb;", "inverse key or 'sym'"),
    ("key kbsym;", "inverse key or 'sym'"),
])
def test_key_declarations(declaration, expected):
    text = NS_TEXT.replace("key kb inv kb-1;", declaration)
    if expected is None:
        assert "kb" in parse_protocol(text).context.keys
        return
    with pytest.raises(MessageSyntaxError) as err:
        parse_protocol(text)
    assert f"expected {expected}, found" in str(err.value)


@pytest.mark.parametrize("declaration", ["var X, Y, X;", "var X, Y; var Y;"])
def test_repeated_names_are_read_once(declaration):
    # a repeated variable is not mistaken for a name as well, and a repeated
    # principal gets no second set of computed role views
    declared = NS_TEXT.split("\nrole ")[0]
    text = declared.replace("var X, Y;", declaration).replace("principal A, B;", "principal A, B, A;")
    assert declaration in text and "principal A, B, A;" in text
    protocol, plain = parse_protocol(text), parse_protocol(declared)
    assert protocol.context == plain.context
    assert protocol.steps == plain.steps
    assert roles_for(protocol) == roles_for(plain)


def test_extract_ns_role_family(ns):
    got = extract_generalized_roles(ns)
    assert [r.role_id for r in got] == ["A_G1", "A_G2", "B_G1", "B_G2"]
    a2 = got[1]
    assert [s.direction for s in a2.steps] == [SEND, RECV, SEND]
    assert [str(s.message) for s in a2.steps] == \
        ["{A.Na^i}_kb", "{Na^i.X.B}_ka", "{X}_kb"]


def test_extract_nsl_responder(nsl):
    got = {r.role_id: r for r in extract_generalized_roles(nsl)}
    b1 = got["B_G1"]
    assert [str(s.message) for s in b1.steps] == \
        ["{Y.A}_kb", "{B.Y}_ka.{B.Nb^i}_ka"]


def test_extraction_matches_declared_roles(ns, nsl):
    for p in (ns, nsl):
        auto = extract_generalized_roles(p)
        manual = roles_for(p, "manual")
        assert [(r.role_id, tuple((s.direction, str(s.message)) for s in r.steps))
                for r in auto] == \
               [(r.role_id, tuple((s.direction, str(s.message)) for s in r.steps))
                for r in manual]


def test_single_step_protocol_has_one_role():
    p = parse_protocol("""
protocol One;
principal A, B;
intruder I;
key kb inv kb-1 asym;
fresh Na by A;
level Na = {A,B};
level kb-1 = {B};
step 1: A -> B : {A.Na}_kb;
""")
    assert [r.role_id for r in extract_generalized_roles(p)] == ["A_G1"]


def test_role_views_parameterize_names(ns):
    a1 = extract_generalized_roles(ns)[0]
    m = a1.steps[0].message
    by_name = {a.name: a for a in atoms(m)}
    assert by_name["A"].sort is Sort.PARAMETER
    assert by_name["Na"].sort is Sort.PARAMETER and by_name["Na"].session_tag == "i"
    assert by_name["kb"].sort is Sort.PARAMETER


def test_received_before(ns):
    a2 = next(r for r in extract_generalized_roles(ns) if r.role_id == "A_G2")
    assert [str(m) for m in a2.received_before(2)] == ["{Na^i.X.B}_ka"]
    assert a2.received_before(0) == ()


def test_variables_first_appear_in_receives(ns, nsl):
    for p in (ns, nsl):
        for r in roles_for(p) + extract_generalized_roles(p):
            check_role_variables(r)


def test_prefix_family_shape(ns):
    # one role per send, plus the trailing-reception projection
    roles = extract_generalized_roles(ns)
    for agent in ("A", "B"):
        mine = [r for r in roles if r.agent.name == agent]
        sends = max(sum(s.direction is SEND for s in r.steps) for r in mine)
        trailing = sum(1 for r in mine if r.steps[-1].direction is RECV)
        assert len(mine) == sends + trailing


def test_ns_pattern_space_exact(ns_pool):
    assert [str(m) for m in ns_pool] == NS_POOL


def test_nsl_pattern_space_exact(nsl_pool):
    assert [str(m) for m in nsl_pool] == NSL_POOL


def test_pattern_space_auto_equals_manual(ns, nsl):
    for p in (ns, nsl):
        auto = pattern_space(p, extract_generalized_roles(p))
        manual = pattern_space(p, roles_for(p, "manual"))
        assert [str(m) for m in auto] == [str(m) for m in manual]


def test_pattern_space_dedups_by_shape(ns_pool, nsl_pool):
    for pool in (ns_pool, nsl_pool):
        shapes = [pattern_shape(m) for m in pool]
        assert len(shapes) == len(set(shapes))


def test_empty_roles_give_empty_space(ns):
    assert generalized_message_space([], ns.context, ns.fresh_owners) == []


def test_extraction_deterministic(ns):
    one = extract_generalized_roles(ns)
    two = extract_generalized_roles(ns)
    assert [(r.role_id, tuple(str(s.message) for s in r.steps)) for r in one] == \
           [(r.role_id, tuple(str(s.message) for s in r.steps)) for r in two]


def test_variable_namespaces_disjoint_across_agents(ns, nsl):
    for p in (ns, nsl):
        seen: dict[str, str] = {}
        for r in roles_for(p):
            for s in r.steps:
                for v in variables_of(s.message):
                    owner = seen.setdefault(v.name, r.agent.name)
                    assert owner == r.agent.name


def test_pool_atoms_disjoint_across_patterns(ns_pool, nsl_pool):
    # no renamed atom belongs to two candidate patterns
    for pool in (ns_pool, nsl_pool):
        for i, m in enumerate(pool):
            for other in pool[i + 1:]:
                assert not ({a.display() for a in atoms(m)}
                            & {a.display() for a in atoms(other)})
