"""Metamorphic relations over whole runs (Chen, Cheung & Yiu, 1998): a
rewrite of a protocol file that cannot change its meaning must leave
stdout, stderr and the exit code byte-identical.

- Shuffling the `key`, `fresh`, `level` and `var` statements among the
  places they take: every declaration is read before anything is resolved.
- Adding a principal, a key pair with a level and a fresh nonce with a
  level, none of which any step, role or rule names.
- Writing every `key`, `level` and `var` statement twice.

Each relation runs on the commands in COMMANDS: `analyze` under every bound
with declared and with computed role views, `roles` and `check-wp`.  The
subjects are the bundled handshakes, the generated subjects that reach
either candidate search, and the corpus.  The shuffles are drawn by
hypothesis, derandomized, so a failure replays.
"""

from __future__ import annotations

import contextlib
import functools
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwitness.cli import main
from test_corpus import CORPUS
from test_shared_search import subject_text

SUBJECTS = ["ns", "nsl", "sym", "ns3", "ns-echo", "chain3", "nchain3", "nspk", "relay"]
FUNCTIONS = ("fmax", "fek", "fn")
COMMANDS = [["analyze", "--function", f, *roles]
            for f in FUNCTIONS for roles in ([], ["--roles", "auto"])] + [["roles"], ["check-wp"]]
DECLARATIONS = ("key", "fresh", "level", "var")
UNUSED = ["principal Unused", "key kunused inv kunused-1", "level kunused-1 = {Unused}",
          "fresh Nunused by Unused", "level Nunused = {Unused}"]


def _text(subject: str) -> str:
    path = CORPUS / f"{subject}.proto"
    return path.read_text(encoding="utf-8") if path.exists() else subject_text(subject)


def _statements(text: str) -> list[str]:
    """The file's statements in order, comments dropped, without their `;`."""
    code = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    return [s.strip() for s in code.split(";") if s.strip()]


def _head(statement: str) -> str:
    return statement.split(None, 1)[0]


def _join(statements: list[str]) -> str:
    return "".join(f"{s};\n" for s in statements)


@functools.lru_cache(maxsize=None)
def _outputs(text: str) -> tuple[tuple[int, str, str], ...]:
    """(exit code, stdout, stderr) of each command on the file."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "subject.proto"
        path.write_text(text, encoding="utf-8")
        for argv in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([argv[0], str(path), *argv[1:]])
            results.append((code, out.getvalue(), err.getvalue()))
    return tuple(results)


def _assert_same_runs(subject: str, changed: str) -> None:
    for argv, want, got in zip(COMMANDS, _outputs(_text(subject)), _outputs(changed)):
        assert got == want, (subject, argv, changed)


@pytest.mark.parametrize("subject", SUBJECTS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data())
def test_shuffling_declarations_changes_nothing(subject, data):
    statements = _statements(_text(subject))
    places = [i for i, s in enumerate(statements) if _head(s) in DECLARATIONS]
    order = data.draw(st.permutations(places))
    shuffled = list(statements)
    for place, source in zip(places, order):
        shuffled[place] = statements[source]
    _assert_same_runs(subject, _join(shuffled))


@pytest.mark.parametrize("subject", SUBJECTS)
def test_adding_unused_declarations_changes_nothing(subject):
    text = _text(subject)
    assert "nused" not in text
    statements = _statements(text)
    first_step = next(i for i, s in enumerate(statements) if _head(s) == "step")
    _assert_same_runs(subject, _join(statements[:first_step] + UNUSED + statements[first_step:]))


@pytest.mark.parametrize("subject", SUBJECTS)
def test_repeating_declarations_changes_nothing(subject):
    repeated = []
    for s in _statements(_text(subject)):
        repeated += [s, s] if _head(s) in ("key", "level", "var") else [s]
    _assert_same_runs(subject, _join(repeated))
