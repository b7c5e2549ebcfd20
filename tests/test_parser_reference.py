"""`terms.parse_message` against the character-cursor parser kept in
`reference_parser`.

The parser under test reads each message from one token list; the reference
walks the text with a cursor.  On every text, under both `allow_dec` values
and with both a declared table and a rule table (which turns undeclared
names into metavariables, so the order in which names are resolved shows),
the two must give the same message, or the same exception type and text.
Texts are drawn from identifiers, punctuation, the blanks " \\t\\r\\n", and
characters that are not blanks (a vertical tab, a non-ASCII letter), either
freely or as a well-formed message with at most one token changed.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from secwitness.errors import MessageSyntaxError
from secwitness.roles import _RuleSymbols
from secwitness.terms import MAX_NESTING, VARIABLE, Atom, SymbolTable, parse_message

SYMS = SymbolTable({a.name: a for a in (
    Atom("A"), Atom("B"), Atom("Na"), Atom("ka"), Atom("ka-1"), Atom("kb"),
    Atom("X", VARIABLE))})

IDENTS = ["A", "Na^i", "ka-1", "kb", "d", "X", "Zq"]
PUNCTUATION = list("{}_.(),")
BLANKS = [" ", "\t", "\r", "\n"]
NON_BLANKS = ["\x0b", "é"]

blanks = st.text(st.sampled_from(BLANKS), max_size=2)


def _outcome(parse, text: str, allow_dec: bool, rule: bool):
    symbols = _RuleSymbols(SYMS) if rule else SYMS
    try:
        return parse(text, symbols, allow_dec)
    except Exception as err:  # the exception itself is what is compared
        return type(err), str(err)


def _same(text: str) -> None:
    for allow_dec in (False, True):
        for rule in (False, True):
            assert (_outcome(parse_message, text, allow_dec, rule)
                    == _outcome(reference_parser.parse_message, text, allow_dec, rule)), \
                (text, allow_dec, rule)


free_texts = st.lists(st.sampled_from(IDENTS + PUNCTUATION + BLANKS + NON_BLANKS),
                      max_size=24).map("".join)

# the tokens of a well-formed message, d(k, m) and {k} keys included
messages = st.recursive(
    st.sampled_from(IDENTS).map(lambda name: [name]),
    lambda inner: st.one_of(
        st.lists(inner, min_size=2, max_size=3).map(
            lambda parts: [tok for i, part in enumerate(parts) for tok in ["."] * (i > 0) + part]),
        st.tuples(inner, st.sampled_from(IDENTS), st.booleans()).map(
            lambda t: ["{", *t[0], "}", "_", *(["{", t[1], "}"] if t[2] else [t[1]])]),
        st.tuples(st.sampled_from(IDENTS), inner).map(
            lambda t: ["d", "(", t[0], ",", *t[1], ")"])),
    max_leaves=6)


@st.composite
def near_texts(draw) -> str:
    """A well-formed message with at most one token dropped, added or
    replaced, each token followed by a few blanks."""
    toks = draw(messages)
    edit = draw(st.sampled_from(["none", "drop", "add", "replace"]))
    if edit != "none":
        i = draw(st.integers(0, len(toks) - (edit != "add")))
        new = draw(st.sampled_from(IDENTS + PUNCTUATION + NON_BLANKS))
        toks = toks[:i] + ([new] if edit != "drop" else []) + toks[i + (edit != "add"):]
    return draw(blanks) + "".join(tok + draw(blanks) for tok in toks)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(free_texts)
def test_free_texts_parse_as_in_the_reference(text):
    _same(text)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(near_texts())
def test_near_well_formed_texts_parse_as_in_the_reference(text):
    _same(text)


@pytest.mark.parametrize("levels", [MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize("opener, closer", [("{ \t", "}_kb"), ("d( ka-1,\n ", ")")])
def test_nesting_bound_with_blanks_after_the_opener(opener, closer, levels):
    text = opener * levels + "A" + closer * levels
    _same(text)
    if levels == MAX_NESTING:
        parse_message(text, SYMS, allow_dec=True)
        return
    with pytest.raises(MessageSyntaxError) as err:
        parse_message(text, SYMS, allow_dec=True)
    # just after the last opener's "{" or ",", before its blanks
    offset = len(opener) * MAX_NESTING + len(opener.rstrip())
    assert str(err.value) == (f"at offset {offset}: expected at most {MAX_NESTING} nested levels, "
                              f"found {text[offset:offset + 12]!r}")
