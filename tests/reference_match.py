"""A generate-and-test first match, kept as the reference for
`secwitness.rewrite._match`.

It proposes bindings in the order `_match_lists` walks a left side: parts
left to right, an encryption's key before its body, and for each variable
metavariable every run of consecutive parts, shortest run first.  A
parameter takes the atom at its place, and a declared name the
non-variable atom of its name there.  A metavariable met again covers as
many parts as its first image has, and keeps that image.  Nothing else is
checked while proposing: the first proposal under which the left side
becomes the term is the match, so a match is found wherever one exists.
"""

from __future__ import annotations

from typing import Iterator, Optional

from secwitness.terms import PARAMETER, VARIABLE, Atom, Concat, Empty, Enc, Message, concat, flatten, substitute

Bindings = dict[Atom, Message]


def first_match(lhs: Message, term: Message) -> Optional[Bindings]:
    for b in _proposals(lhs, term, {}):
        if substitute(lhs, b) == term:
            return b
    return None


def _proposals(p: Message, t: Message, b: Bindings) -> Iterator[Bindings]:
    if isinstance(p, Atom):
        if p.sort is VARIABLE or (isinstance(t, Atom) and (
                p.sort is PARAMETER or (t.sort is not VARIABLE and t.name == p.name))):
            yield b if p in b else {**b, p: t}
    elif isinstance(p, Enc):
        if isinstance(t, Enc):
            for keyed in _proposals(p.key, t.key, b):
                yield from _proposals(p.body, t.body, keyed)
    elif isinstance(p, Concat):
        if isinstance(t, Concat):
            yield from _list_proposals(list(p.parts), list(t.parts), b)
    elif isinstance(p, Empty) and isinstance(t, Empty):
        yield b


def _list_proposals(ps: list[Message], ts: list[Message], b: Bindings) -> Iterator[Bindings]:
    if not ps:
        if not ts:
            yield b
        return
    head = ps[0]
    if not (isinstance(head, Atom) and head.sort is VARIABLE):
        runs = [1]
    elif head in b:
        runs = [len(flatten(b[head]))]
    else:
        runs = range(1, len(ts) + 1)
    for k in runs:
        if k <= len(ts):
            for placed in _proposals(head, concat(*ts[:k]), b):
                yield from _list_proposals(ps[1:], ts[k:], placed)
