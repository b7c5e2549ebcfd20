"""Metamorphic relations over whole runs (Chen, Cheung & Yiu, 1998): a
rewrite of a protocol file that cannot change its meaning must leave
stdout, stderr and the exit code byte-identical.

- Shuffling the `key`, `fresh`, `level` and `var` statements among the
  places they take: every declaration is read before anything is resolved.
- Adding a principal, a key pair with a level and a fresh nonce with a
  level, none of which any step, role or rule names.
- Writing every `key`, `level` and `var` statement twice.
- Renaming declared names consistently: principals, the intruder, a key
  together with its inverse, nonces and variables.  Names are printed, so
  this one compares `analyze --format json-lines` once the new names are
  mapped back, with level members and blame as sets.

The first three relations run on the commands in COMMANDS: `analyze`
under every bound with declared and with computed role views, `roles` and
`check-wp`.  The subjects are the bundled handshakes, the generated
subjects that reach either candidate search, and the corpus.  The shuffles
and renamings are drawn by hypothesis, derandomized, so a failure replays.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwitness.cli import main
from secwitness.terms import IDENT
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
def _outputs(text: str, commands: tuple[tuple[str, ...], ...] = tuple(map(tuple, COMMANDS)),
             ) -> tuple[tuple[int, str, str], ...]:
    """(exit code, stdout, stderr) of each command on the file."""
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "subject.proto"
        path.write_text(text, encoding="utf-8")
        for argv in commands:
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


# --- renaming --------------------------------------------------------------

JSON_COMMANDS = tuple(("analyze", "--function", f, "--format", "json-lines", *roles)
                      for f in FUNCTIONS for roles in ((), ("--roles", "auto")))
KEYWORDS = {"protocol", "principal", "intruder", "key", "inv", "sym", "asym", "fresh", "by",
            "var", "level", "rule", "step", "role", "send", "recv", "d"}
# the computed stand-ins' spellings, which a declared name would push aside
STAND_IN = re.compile(r"[XYZWV][0-9]*")
_TOKEN = re.compile(IDENT)
# a session tag follows a name in a file; in output an index or a role
# number may too
FILE_TAIL, OUTPUT_TAIL = re.compile(r"\^"), re.compile(r"[_^]")


def _groups(text: str) -> list[tuple[str, ...]]:
    """The names one renaming moves together: each principal, the intruder,
    each key with its inverse, each nonce and each variable."""
    groups: dict[str, tuple[str, ...]] = {}
    for s in _statements(text):
        head, _, rest = s.partition(" ")
        if head in ("principal", "var"):
            names = [(n.strip(),) for n in rest.split(",")]
        elif head in ("intruder", "fresh"):
            names = [(rest.split()[0],)]
        elif head == "key":
            words = rest.split()
            names = [(words[0], words[2]) if words[1:2] == ["inv"] else (words[0],)]
        else:
            continue
        for group in names:
            groups.setdefault(group[0], group)
    return list(groups.values())


def _retoken(text: str, names: dict[str, str], tail: re.Pattern) -> str:
    """Each identifier whose name, the part before `tail`, is in `names`
    respelled; what follows the name (an index, a tag, a role number) stays."""
    def one(m: re.Match) -> str:
        token = m.group(0)
        base = tail.split(token, maxsplit=1)[0]
        return names[base] + token[len(base):] if base in names else token
    return _TOKEN.sub(one, text)


def _records(stdout: str, back: dict[str, str]) -> list[dict]:
    """The json-lines rows with every name mapped back, and members and
    blame as sets."""
    def mapped(value):
        if isinstance(value, str):
            return _retoken(value, back, OUTPUT_TAIL)
        if isinstance(value, list):
            return [mapped(v) for v in value]
        if isinstance(value, dict):
            return {k: sorted(mapped(v)) if k in ("members", "blame") else mapped(v)
                    for k, v in value.items()}
        return value
    return [mapped(json.loads(line)) for line in stdout.splitlines()]


@pytest.mark.parametrize("subject", SUBJECTS)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(data=st.data())
def test_renaming_declared_names_changes_nothing(subject, data):
    text = _join(_statements(_text(subject)))
    before = _outputs(text, JSON_COMMANDS)
    taken = set(_TOKEN.findall(text + "".join(out + err for _, out, err in before)))
    groups = data.draw(st.lists(st.sampled_from(_groups(text)), min_size=1, unique=True))
    old = [name for group in groups for name in group]
    spellings = st.from_regex(r"[A-Za-z][A-Za-z0-9-]{0,3}", fullmatch=True).filter(
        lambda n: n not in taken and n not in KEYWORDS and not STAND_IN.fullmatch(n))
    new = data.draw(st.lists(spellings, min_size=len(old), max_size=len(old), unique=True))
    renamed = _retoken(text, dict(zip(old, new)), FILE_TAIL)
    back = dict(zip(new, old))
    for argv, want, got in zip(JSON_COMMANDS, before, _outputs(renamed, JSON_COMMANDS)):
        assert (got[0], _retoken(got[2], back, OUTPUT_TAIL)) == want[::2], (subject, argv, renamed)
        assert _records(got[1], back) == _records(want[1], {}), (subject, argv, renamed)
