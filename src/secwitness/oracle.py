"""An independent attacker model used to sanity-check the bounds.

The closure of a message set is what an eavesdropper could compute from it:
split concatenations, strip encryptions whose inverse key is in reach, and
recombine what it has by pairing and by encrypting under keys it fully
controls (both halves of the pair derivable).  The closure is depth-bounded
and size-capped; caps mark the result truncated rather than pretending
completeness.

Against that model two statements are tested by randomized search: a bound
evaluated on anything derivable never reads below the bound on the original
set, and a well-protected set never puts a non-public atom in the clear.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .context import (
    SecurityLevel,
    VerificationContext,
    geq,
    intruder_allowed,
    intruder_knowledge,
    inverse_key,
    level_of,
    show,
)
from .derive import ValueFunction
from .errors import NotAKey, NoWellProtectedSample, WellProtectionViolation
from .rewrite import check_well_protected, normalize
from .terms import (
    Atom,
    Concat,
    Empty,
    Enc,
    Message,
    atoms,
    concat,
    flatten,
    print_message,
)


# Sizes no caller sets: the most atoms a closure term may hold, the most
# messages and the deepest nesting of a random well-protected set, and the
# most derived terms an invariance trial samples from a closure.
ATOM_CAP = 24
MAX_MESSAGES = 5
MAX_DEPTH = 3
SAMPLE_TERMS = 40


class DeductionResult(NamedTuple):
    terms: frozenset[Message]
    truncated: bool
    # the terms by size (atoms, plus one for a pair or a ciphertext), then
    # by printed text, ties in the order the closure found them
    sample_order: tuple[Message, ...]


def deduce_closure(M: Iterable[Message], ctx: VerificationContext,
                   depth_budget: int = 5, round_cap: int = 1500) -> DeductionResult:
    """Depth-tagged closure: a full take-apart pass to a fixpoint, one
    recombination round over what that produced, then take-apart again."""
    known, sample_order, truncated = _deduce(M, ctx, depth_budget, round_cap)
    return DeductionResult(frozenset(known), truncated, sample_order)


def _deduce(M: Iterable[Message], ctx: VerificationContext, depth_budget: int,
            round_cap: int) -> tuple[dict[Message, int], tuple[Message, ...], bool]:
    """The closure's depth table in the order terms were found, its sample
    order and whether a cap cut it short.

    Each take-apart pass visits terms by (depth, text), ties in the order
    they were found, but only those whose visit can still change something:
    a pair is split again only when its depth fell since it was last split,
    and a ciphertext is opened again only when that would give its body a
    smaller depth.  A repeated split or opening would add nothing, so the
    passes add the same terms at the same depths, in the same order, as
    visiting every term on every pass.  A term is walked for its atom count
    and printed once, when it is first found; recombined terms take both
    from their halves.

    A term that the recombination round makes or lowers counts as taken
    apart at its depth.  A recombined pair a.b has depth d = max(da, db) + 1
    and its parts are the top-level parts of a and of b.  Each of them is
    known at depth da + 1 or db + 1 at most, so below d + 1, once a and b
    are split at their depths; a half that the first pass left pending has
    a smaller depth than the pair, so the second pass splits it before it
    comes to the pair.  A recombined ciphertext {a}_k has depth
    d = max(da, dk) + 1, and opening it gives a depth of d + 1 or more to a,
    which is known at da.  Splitting or opening either adds no term and
    lowers no depth, so the second pass visits only the pairs the first
    left pending, the ciphertexts there before recombination and the terms
    it finds or lowers itself."""
    known: dict[Message, int] = {}     # term -> depth, in the order found
    text: dict[Message, str] = {}      # term -> printed form
    size: dict[Message, int] = {}      # term -> atoms, plus one for a pair or a ciphertext
    pending: set[Concat] = set()       # pairs not split at their current depth
    opened: dict[Enc, int] = {}        # ciphertext -> body depth it was last opened for
    inverses: dict[Atom, Optional[Atom]] = {}     # key -> its inverse, None if not a key
    truncated = False

    def add(t: Message, d: int, n: int = -1, txt: str = "", recombined: bool = False) -> bool:
        """Records t at depth d and says whether t is new.  A caller that
        knows t's atom count n and its text passes them.  A pair is queued
        to be split at its new depth, and a ciphertext is opened when a
        pass comes to it, unless recombination made t: then both count as
        done at d."""
        nonlocal truncated
        old = known.get(t)
        if old is None:
            if d > depth_budget:
                return False
            if n < 0:
                n = len(atoms(t))
            if n > ATOM_CAP:
                truncated = True
                return False
            text[t] = txt or print_message(t)
            size[t] = n + (type(t) is Concat or type(t) is Enc)
        elif d >= old:
            return False
        known[t] = d
        if not recombined:
            if type(t) is Concat:
                pending.add(t)
        elif type(t) is Enc:
            di = known[inverses[t.key]]
            opened[t] = (d if d > di else di) + 1
        return old is None

    def inverse_of(k: Atom) -> Optional[Atom]:
        if k not in inverses:
            try:
                inverses[k] = inverse_key(ctx, k)
            except NotAKey:
                inverses[k] = None
        return inverses[k]

    for m in M:
        add(normalize(m, ctx), 0)
    for a in intruder_knowledge(ctx):
        add(a, 0)

    def decompose() -> None:
        changed = True
        while changed:
            changed = False
            batch = [t for t in known if t in pending or type(t) is Enc]
            batch.sort(key=text.__getitem__)
            batch.sort(key=known.__getitem__)
            pending.clear()
            for t, d in [(t, known[t]) for t in batch]:
                if type(t) is Concat:
                    for p in t.parts:
                        changed |= add(p, d + 1)
                    continue
                inv = inverse_of(t.key)
                di = None if inv is None else known.get(inv)
                if di is None:
                    continue
                e = (d if d > di else di) + 1
                if opened.get(t) != e:
                    opened[t] = e
                    changed |= add(t.body, e)

    def by_size() -> list[Message]:
        order = list(known)
        order.sort(key=text.__getitem__)
        order.sort(key=size.__getitem__)
        return order

    decompose()

    order = by_size()
    bits: dict[Atom, int] = {}

    def mask(t: Message) -> int:
        out = 0
        for a in atoms(t):
            b = bits.get(a)
            if b is None:
                b = bits[a] = 1 << len(bits)
            out |= b
        return out

    # (term, depth, top-level parts or None for the empty message, atom mask, text)
    snapshot = [(t, known[t], None if type(t) is Empty else flatten(t), mask(t), text[t])
                for t in order]
    enc_keys = []
    for t in order:
        if type(t) is Atom and t.name in ctx.keys:
            inv = inverse_of(t)
            if inv is not None and inv in known:
                enc_keys.append((t, bits[t], "}_" + t.display()))
    fresh = 0
    for a, da, pa, ma, ta in snapshot:
        if fresh > round_cap:
            truncated = True
            break
        for b, db, pb, mb, tb in snapshot:
            if fresh > round_cap:
                truncated = True
                break
            if pa is None or pb is None:
                continue
            d = (da if da > db else db) + 1
            if d <= depth_budget and add(Concat(pa + pb), d, (ma | mb).bit_count(),
                                         ta + "." + tb, True):
                fresh += 1
        if pa is None:
            continue
        for k, kb, suffix in enc_keys:
            dk = known[k]
            d = (da if da > dk else dk) + 1
            if d <= depth_budget and add(Enc(a, k), d, (ma | kb).bit_count(),
                                         "{" + ta + suffix, True):
                fresh += 1

    decompose()
    return known, tuple(by_size()), truncated


# ---------------------------------------------------------------------------
# Random well-protected material


def _classify(ctx: VerificationContext) -> tuple[list[Atom], list[Atom], list[Atom]]:
    """(public atoms, secret atoms, encryption keys with known inverses);
    a principal whose declared level hides it from the intruder is secret."""
    public = [p for p in ctx.principals if intruder_allowed(ctx, p)]
    secret: list[Atom] = []
    enc_keys: list[Atom] = []
    named = set(ctx.levels) | set(ctx.keys)
    for name in sorted(named):
        a = Atom(name)
        if name in ctx.keys:
            enc_keys.append(a)
        if not intruder_allowed(ctx, a):
            secret.append(a)
        elif name not in ctx.principal_names:
            public.append(a)
    return public, secret, enc_keys


def _build(rng: random.Random, ctx: VerificationContext, pools: tuple[list[Atom], ...],
           depth: int, guards: tuple[SecurityLevel, ...]) -> Message:
    # module level: a nested function that calls itself is a reference
    # cycle, which every call would leave behind for the collector
    public, secret, enc_keys = pools
    roll = rng.random()
    allowed_secrets = [s for s in secret if any(geq(g, level_of(ctx, s)) for g in guards)]
    if depth <= 0 or roll < 0.35:
        if allowed_secrets and rng.random() < 0.5:
            return rng.choice(allowed_secrets)
        return rng.choice(public)
    if roll < 0.7 and enc_keys:
        k = rng.choice(enc_keys)
        guards += (level_of(ctx, inverse_key(ctx, k)),)
        return Enc(_build(rng, ctx, pools, depth - 1, guards), k)
    parts = [_build(rng, ctx, pools, depth - 1, guards) for _ in range(rng.randint(2, 3))]
    return concat(*parts)


def random_well_protected_set(rng: random.Random, ctx: VerificationContext) -> list[Message]:
    """Random message sets with every non-public atom under a key strong
    enough for it; checked, not merely constructed."""
    pools = _classify(ctx)
    if not pools[0]:
        raise NoWellProtectedSample()
    for _ in range(64):
        out: list[Message] = []
        for _ in range(rng.randint(1, MAX_MESSAGES)):
            m = _build(rng, ctx, pools, rng.randint(1, MAX_DEPTH), ())
            if m not in out:
                out.append(m)
        if check_well_protected(out, ctx).ok:
            return out
    raise NoWellProtectedSample()


# ---------------------------------------------------------------------------
# Property checks


class Failure(NamedTuple):
    derived: str
    atom: str
    detail: str


class PropertyReport(NamedTuple):
    ok: bool
    trials: int
    failures: tuple[Failure, ...] = ()
    precondition_failures: tuple[str, ...] = ()
    truncated_trials: int = 0


def check_full_invariance(funcs: Mapping[str, ValueFunction], ctx: VerificationContext,
                          trials: int = 500, depth: int = 4, seed: int = 0,
                          ) -> dict[str, PropertyReport]:
    """Randomized search, for each bound, for a derivable message on which
    the bound reads lower than on the originating set.  Derived terms are
    sampled when the closure is large; the sampling is seeded and reported.

    The bounds share one stream of trials: each random set, its closure and
    its sample are made once and read by every bound that has not failed
    yet.  A bound drops out after the trial it failed in.  The stream does
    not depend on the bounds, so each report is the one a run of that bound
    alone would give.  Reports come in the mapping's order."""
    rng = random.Random(seed)
    failures: dict[str, list[Failure]] = {name: [] for name in funcs}
    truncated = dict.fromkeys(funcs, 0)
    running = list(funcs)
    allowed: dict[Atom, bool] = {}  # intruder_allowed of each atom met in the run
    for _ in range(trials):
        if not running:
            break
        M = random_well_protected_set(rng, ctx)
        closure = deduce_closure(M, ctx, depth_budget=depth, round_cap=400)
        terms = closure.sample_order
        if len(terms) > SAMPLE_TERMS:
            terms = rng.sample(terms, SAMPLE_TERMS)
        # each sampled term with its secret atoms, in printed order; the
        # sort is stable, so sorting after the filter keeps ties in place
        secrets = []
        for t in terms:
            secret = []
            for a in atoms(t):
                public = allowed.get(a)
                if public is None:
                    public = allowed[a] = intruder_allowed(ctx, a)
                if not public:
                    secret.append(a)
            secret.sort(key=Atom.display)
            secrets.append((t, secret))
        for name in running:
            func, found = funcs[name], failures[name]
            truncated[name] += closure.truncated
            base_cache: dict[Atom, SecurityLevel] = {}
            for t, secret in secrets:
                for a in secret:
                    try:
                        on_derived = func(a, t, ctx)
                        if a not in base_cache:
                            base_cache[a] = func(a, M, ctx)
                        on_base = base_cache[a]
                    except WellProtectionViolation as err:
                        found.append(Failure(
                            str(t), a.display(), f"protection violated on derived term: {err}"))
                        continue
                    if not geq(on_derived, on_base):
                        found.append(Failure(
                            str(t), a.display(),
                            f"derived value {show(on_derived)} below base value {show(on_base)}"))
        running = [name for name in running if not failures[name]]
    return {name: PropertyReport(not failures[name], trials, tuple(failures[name]), (), truncated[name])
            for name in funcs}


def check_non_disclosure(M: Sequence[Message], ctx: VerificationContext,
                         depth: int = 5) -> PropertyReport:
    """A well-protected set must not make any non-public atom derivable;
    an ill-protected input is a precondition failure, not a refutation."""
    wp = check_well_protected(M, ctx)
    if not wp.ok:
        pre = tuple(f"{a.display()} unprotected in {m}" for a, m, _ in wp.violations)
        return PropertyReport(False, 0, (), pre, 0)
    closure = deduce_closure(M, ctx, depth_budget=depth)
    disclosed = [t for t in closure.terms
                 if isinstance(t, Atom) and not intruder_allowed(ctx, t)]
    failures = [Failure(str(t), t.display(), "secret atom in the clear")
                for t in sorted(disclosed, key=str)]
    return PropertyReport(not failures, 1, tuple(failures), (), 1 if closure.truncated else 0)
