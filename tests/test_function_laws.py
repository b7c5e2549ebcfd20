"""The three bundled functions are one selection read three ways: `fek`
values the inverse key, `fn` the principal names and `fmax` both, so
`F_fmax = F_fek ⊓ F_fn` at every atom and argument (pinned on random
messages in test_set_fold.py).  Every lower bound and reception estimate
is a meet of F, so the law carries over to whole reports.

On every subject below, with the role views `analyze` takes by default
(declared where the file has them) and with computed ones:

- the three functions give the same rows in the same order, and on each
  row `lower_fmax = lower_fek ⊓ lower_fn` and
  `estimate_fmax = estimate_fek ⊓ estimate_fn`;
- a row that `fek` and `fn` both fulfil, `fmax` fulfils too, since meet is
  monotone.
"""

from __future__ import annotations

import functools

import pytest

from secwitness.context import meet
from secwitness.roles import parse_protocol, roles_for
from secwitness.witness import analyze
from test_corpus import CORPUS
from test_metamorphic import _text

SUBJECTS = (["ns", "nsl", "sym", "ns3", "ns-echo", "ns-secret-a"]
            + [f"chain{n}" for n in range(2, 9)] + [f"nchain{n}" for n in range(2, 7)]
            + sorted(path.stem for path in CORPUS.glob("*.proto")))
ROLE_MODES = (None, "auto")


@functools.lru_cache(maxsize=None)
def _reports(subject: str, mode):
    """The rows of `analyze` under fmax, fek and fn, in that order."""
    protocol = parse_protocol(_text(subject))
    roles = roles_for(protocol, mode)
    return tuple(analyze(protocol, function, roles).rows for function in ("fmax", "fek", "fn"))


def _place(row):
    return row.atom, row.role_id, row.agent, row.step, row.received, row.sent


@pytest.mark.parametrize("mode", ROLE_MODES, ids=["default", "auto"])
@pytest.mark.parametrize("subject", SUBJECTS)
def test_fmax_rows_are_the_meet_of_fek_and_fn_rows(subject, mode):
    both, key, names = _reports(subject, mode)
    assert both
    assert [_place(r) for r in both] == [_place(r) for r in key] == [_place(r) for r in names]
    for b, k, n in zip(both, key, names):
        assert b.lower == meet(k.lower, n.lower), _place(b)
        assert b.estimate == meet(k.estimate, n.estimate), _place(b)


@pytest.mark.parametrize("mode", ROLE_MODES, ids=["default", "auto"])
@pytest.mark.parametrize("subject", SUBJECTS)
def test_a_row_fulfilled_under_fek_and_fn_is_fulfilled_under_fmax(subject, mode):
    both, key, names = _reports(subject, mode)
    for b, k, n in zip(both, key, names):
        if k.fulfilled and n.fulfilled:
            assert b.fulfilled, _place(b)
