"""The normaliser as it was before it kept unchanged subterms, kept as the
reference for `secwitness.rewrite.normalize`.

This is the straightforward form: every pair and every ciphertext is
rebuilt through `concat` and `Enc` on each visit, whether or not a part or
the body changed.  `secwitness.rewrite.normalize` returns an unchanged
subterm as the same object; the tests check that the two give equal normal
forms and run out of steps on the same terms.
"""

from __future__ import annotations

from secwitness.context import VerificationContext
from secwitness.errors import NonTermination
from secwitness.rewrite import NORMALIZE_BUDGET, _cancel, _match
from secwitness.terms import Concat, Enc, Message, concat, substitute


def normalize(m: Message, ctx: VerificationContext) -> Message:
    try:
        return _norm(m, ctx, [0])
    except RecursionError:
        raise NonTermination(NORMALIZE_BUDGET) from None


def _norm(t: Message, ctx: VerificationContext, steps: list[int]) -> Message:
    while True:
        if isinstance(t, Concat):
            t = concat(*(_norm(p, ctx, steps) for p in t.parts))
        elif isinstance(t, Enc):
            t = Enc(_norm(t.body, ctx, steps), t.key)
        reduced = _cancel(t, ctx)
        if reduced is None:
            for rule in ctx.rewrite_rules:
                b = _match(rule.lhs, t, {})
                if b is not None:
                    reduced = substitute(rule.rhs, b)
                    break
            else:
                return t
        steps[0] += 1
        if steps[0] > NORMALIZE_BUDGET:
            raise NonTermination(NORMALIZE_BUDGET)
        t = reduced
