"""Mutated protocol files never end in a traceback.

The bundled NS and NSL descriptions are mutated line by line (a line
deleted, duplicated or inserted) and token by token (a token inserted or
dropped), and every command runs on the result.  Whatever the text, `main`
returns one of the documented exit codes.  The search is derandomized, so
a failure replays.
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


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
@example(bundled("ns").replace("intruder I;", "intruder ;"))
@example(bundled("nsl").replace("intruder I;", "intruder I J;"))
def test_mutated_files_exit_with_a_documented_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutated.proto"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], str(path), *command[1:]])
            assert code in EXIT_CODES, (command, code)
