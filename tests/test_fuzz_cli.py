"""Mutated and made-up protocol files never end in a traceback.

The bundled NS and NSL descriptions are mutated line by line (a line
deleted, duplicated or inserted) and token by token (a token inserted or
dropped).  Files are also made up from the parser's statement keywords,
each followed by random identifiers, non-identifiers and punctuation, or
by the keyword's own form with random names and messages in its slots.
Every command runs on the result.  Whatever the text, `main` returns one of the
documented exit codes.  The search is derandomized, so a failure replays.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from secwitness.cli import EXIT_FILE, EXIT_OK, EXIT_UNDECIDED, EXIT_USAGE, main
from secwitness.protocols import bundled
from secwitness.roles import _STATEMENTS

EXIT_CODES = {EXIT_OK, EXIT_FILE, EXIT_UNDECIDED, EXIT_USAGE}
COMMANDS = [["analyze"], ["check-wp"], ["roles"], ["oracle", "--trials", "1", "--depth", "1"]]

_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_^-]*|\S")
TOKENS = ["{", "}", ".", ";", ",", "_", "->", ":", "=", "#", "1", "3", "step", "role",
          "intruder", "principal", "key", "inv", "sym", "level", "var", "fresh", "by", "send",
          "recv", "rule", "d(", "A", "B", "I", "X", "Na", "Nb^i", "kb", "kb-1", "{A}"]
LINES = ["intruder ;", "intruder I J;", "principal ;", "key kb;", "level Na = {};",
         "var A;", "step 4: A -> B : X;", "step 1: A -> B : {A}_kb;", "role A 1: recv X;",
         "fresh Na by Q;", "rule {X}_kb -> X;", "level Q = {A};"]


@st.composite
def mutated(draw) -> str:
    lines = bundled(draw(st.sampled_from(["ns", "nsl"]))).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["delete", "duplicate", "insert line",
                                   "insert token", "drop token"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "insert line" or not lines:
            lines.insert(i, draw(st.sampled_from(LINES)))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            spans = [m.span() for m in _TOKEN.finditer(lines[i])]
            if not spans:
                continue
            start, end = spans[draw(st.integers(0, len(spans) - 1))]
            line = lines[i]
            if op == "drop token":
                lines[i] = line[:start] + line[end:]
            else:
                lines[i] = f"{line[:start]} {draw(st.sampled_from(TOKENS))} {line[start:]}"
    return "\n".join(lines) + "\n"


def _run_all(text: str, commands) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.proto"
        path.write_text(text, encoding="utf-8")
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], str(path), *command[1:]])
            assert code in EXIT_CODES, (command, code)
            assert "Traceback" not in err.getvalue()


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
@example(bundled("ns").replace("intruder I;", "intruder ;"))
@example(bundled("nsl").replace("intruder I;", "intruder I J;"))
def test_mutated_files_exit_with_a_documented_code(text):
    _run_all(text, COMMANDS)


IDENTIFIERS = ["A", "B", "I", "X", "Y", "Na", "Nb^i", "A_3", "kb", "kb-1", "ki", "ki-1"]
NON_IDENTIFIERS = ["C D", "1x", "_a", "-", "^i", "é", "*", "Na^", "3"]
PUNCTUATION = ["{", "}", ".", ",", ":", "->", "=", "_", "(", ")", "d(", "inv", "by", "sym",
               "asym", "send", "recv"]
# nothing, a bare intruder, or every NS declaration before its steps
HEADERS = ["", "principal A, B;\nintruder I;\n", bundled("ns").split("step 1")[0]]


# one well-formed instance of each statement, with slots for a name (@),
# a message (%) and a step or role number (#)
FORMS = {"protocol": "protocol @", "principal": "principal @, @", "intruder": "intruder @",
         "key": "key @ inv @", "fresh": "fresh @ by @", "var": "var @, @",
         "level": "level @ = {@, @}", "rule": "rule % -> %", "step": "step #: @ -> @ : %",
         "role": "role @ #: recv %, send %"}
MESSAGES = st.recursive(
    st.sampled_from(IDENTIFIERS),
    lambda inner: st.one_of(st.tuples(inner, inner).map(".".join),
                            st.tuples(inner, st.sampled_from(["kb", "kb-1", "ki"]))
                            .map(lambda t: "{%s}_%s" % t)),
    max_leaves=4)
SLOTS = {"@": st.sampled_from(IDENTIFIERS * 4 + NON_IDENTIFIERS), "%": MESSAGES,
         "#": st.sampled_from(["1", "2", "3"])}


def test_every_statement_keyword_has_a_form():
    assert set(FORMS) == set(_STATEMENTS)


@st.composite
def made_up(draw) -> str:
    """Statements that are a keyword followed by random words, or a
    keyword's form with its slots filled by random names and messages."""
    statements = [draw(st.sampled_from(HEADERS))]
    for _ in range(draw(st.integers(1, 6))):
        keyword = draw(st.sampled_from(sorted(_STATEMENTS)))
        if draw(st.integers(0, 3)):
            stmt = re.sub("[@%#]", lambda m: draw(SLOTS[m.group(0)]), FORMS[keyword])
        else:
            words = draw(st.lists(st.sampled_from(IDENTIFIERS + NON_IDENTIFIERS + PUNCTUATION),
                                  max_size=8))
            stmt = " ".join([keyword, *words])
        statements.append(stmt + ";")
    return "\n".join(statements) + "\n"


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(made_up())
@example("principal A, B;\nintruder I;\nrule A -> X;\n")
def test_made_up_statements_exit_with_a_documented_code(text):
    _run_all(text, COMMANDS[:3])
