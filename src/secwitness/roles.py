"""Protocol descriptions, role projection and the abstract message space.

A protocol file declares the principals, keys, level assignments and
numbered steps, and may pin down the per-agent role views explicitly.  When
it does not, the views are computed: each agent keeps its own steps, and
every received part it cannot recognize (no inverse key, not its own fresh
value, not a name or a held key) collapses to a variable, consistently, so
an echo of an opaque value reuses the variable that stands for it.

Each agent then contributes one view per send step (the history up to and
including that send) plus, when its last step is a receive, the whole
projection, which is what carries the final reception into the space of
patterns.  The pattern space itself is the set of encrypted subterms of
those views, with names and variables renumbered per originating party so
that distinct sessions cannot be conflated by accident.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .context import (
    VerificationContext,
    finite,
    inverse_key,
    is_identity,
    level_of,
    make_context,
    may_read,
)
from .errors import AnalyzerError, ContextError, MessageSyntaxError, NotAKey, UndeclaredIdentifier
from .rewrite import RewriteRule, keys_monotone
from .terms import (
    IDENT,
    Atom,
    Concat,
    Enc,
    Message,
    Sort,
    SymbolTable,
    atoms,
    concat,
    map_atoms,
    parse_message,
    subterms,
    variables_of,
)


class Direction(Enum):
    SEND = "send"
    RECV = "recv"


SEND = Direction.SEND
RECV = Direction.RECV


@dataclass(frozen=True)
class Step:
    """One numbered line of the protocol narration."""

    step_id: int
    sender: Atom
    receiver: Atom
    message: Message


@dataclass(frozen=True)
class RoleStep:
    direction: Direction
    message: Message
    peer: Optional[Atom] = None
    step_id: Optional[int] = None


@dataclass(frozen=True)
class GeneralizedRole:
    role_id: str
    agent: Atom
    steps: tuple[RoleStep, ...]

    def received_before(self, index: int) -> tuple[Message, ...]:
        return tuple(s.message for s in self.steps[:index] if s.direction is RECV)


@dataclass(frozen=True)
class Protocol:
    name: str
    context: VerificationContext
    steps: tuple[Step, ...]
    fresh_owners: Mapping[str, str]
    declared_roles: tuple[GeneralizedRole, ...] = ()


# ---------------------------------------------------------------------------
# File parsing

_ID = f"({IDENT})"

# the written index of the analyzer's stand-in copies, which a declared name
# may not imitate
_INDEXED = re.compile(r"_[0-9]+$")

# keyword -> (pattern of the statement after its keyword, what a mismatch
# expected); names in lists are checked one by one in _names
_STATEMENTS = {
    keyword: (re.compile(pattern, re.S), expected)
    for keyword, pattern, expected in (
        ("protocol", r"(.*)", "protocol name"),
        ("principal", r"(.*)", "principal names"),
        ("intruder", _ID, "intruder declaration"),
        ("key", rf"{_ID}(?:\s+inv\s+{_ID})?(?:\s+(sym|asym))?", "key declaration"),
        ("fresh", rf"{_ID}\s+by\s+{_ID}", "fresh declaration"),
        ("var", r"(.*)", "variable names"),
        ("level", rf"{_ID}\s*=\s*\{{([^}}]*)\}}", "level declaration"),
        ("rule", r"(.*?)\s*->\s*(.*)", "'->' in rule"),
        ("step", rf"(\d+)\s*:\s*{_ID}\s*->\s*{_ID}\s*:\s*(.*)", "step declaration"),
        ("role", rf"{_ID}\s+(\d+)\s*:\s*(.*)", "role declaration"),
    )
}


class _RuleSymbols(SymbolTable):
    """Rule bodies may use undeclared names as metavariables: message
    positions make them variables, key positions make them parameters."""

    def __init__(self, base: SymbolTable):
        super().__init__({})
        self._base = base
        self._meta: dict[str, Atom] = {}

    def resolve(self, ident: str, key: bool = False) -> Atom:
        try:
            return self._base.resolve(ident)
        except UndeclaredIdentifier:
            if ident not in self._meta:
                self._meta[ident] = Atom(ident, Sort.PARAMETER if key else Sort.VARIABLE)
            return self._meta[ident]


def _strip_comments(text: str) -> str:
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def _in_statement(statement: str, err: AnalyzerError) -> AnalyzerError:
    """The error, its text prefixed with the statement it came from, such
    as `step 4`.  Its offset stays where it was: in a declared list it
    counts from the start of the statement, in a message from the start of
    that message."""
    err.args = (f"{statement}: {err}",)
    return err


def _names(m: re.Match, group: int, statement: str) -> list[str]:
    """The identifiers of a comma-separated list in one group of a statement's
    match; empty entries are skipped.  A bad name is reported at its offset
    in the statement."""
    names = []
    pos = m.start(group)
    for entry in m.group(group).split(","):
        name = entry.strip()
        if name:
            if not re.fullmatch(IDENT, name):
                raise _in_statement(statement, MessageSyntaxError(
                    m.string, pos + entry.index(name), "identifier"))
            names.append(name)
        pos += len(entry) + 1
    return names


def _to_role_view(m: Message, agent: Atom, fresh_owners: Mapping[str, str]) -> Message:
    """Names in a role view are placeholders, and the agent's own fresh
    values carry the session mark."""

    def gen_atom(a: Atom) -> Atom:
        if a.sort is Sort.VARIABLE:
            return a
        tag = a.session_tag
        if fresh_owners.get(a.name) == agent.name:
            tag = tag or "i"
        return Atom(a.name, Sort.PARAMETER, tag, a.index)

    return map_atoms(m, gen_atom)


def parse_protocol(text: str) -> Protocol:
    """Parses a whole protocol description; raises an AnalyzerError on
    malformed or inconsistent input."""
    name = ""
    principal_names: list[str] = []
    intruder_name: Optional[str] = None
    key_decls: list[tuple[str, str]] = []
    levels: dict[str, frozenset] = {}
    fresh_owners: dict[str, str] = {}
    var_names: list[str] = []
    rule_specs: list[tuple[str, str]] = []
    step_specs: list[tuple[int, str, str, str]] = []
    role_specs: list[tuple[str, int, str]] = []

    for raw_stmt in _strip_comments(text).split(";"):
        stmt = raw_stmt.strip()
        if not stmt:
            continue
        head = stmt.split(None, 1)[0]
        if head not in _STATEMENTS:
            raise MessageSyntaxError(stmt, 0, "statement keyword")
        pattern, expected = _STATEMENTS[head]
        m = pattern.fullmatch(stmt, len(stmt) - len(stmt[len(head):].lstrip()))
        if m is None:
            raise MessageSyntaxError(stmt, 0, expected)
        g = m.groups()
        if head == "protocol":
            name = g[0]
        elif head == "principal":
            principal_names.extend(_names(m, 1, head))
        elif head == "intruder":
            if intruder_name is not None:
                raise ContextError(f"second intruder declaration: {stmt}")
            intruder_name = g[0]
            if intruder_name not in principal_names:
                principal_names.append(intruder_name)
        elif head == "key":
            key, inv, kind = g
            if inv is None and kind != "sym":
                raise MessageSyntaxError(stmt, 0, "inverse key or 'sym'")
            key_decls.append((key, inv or key))
        elif head == "fresh":
            owner = fresh_owners.setdefault(g[0], g[1])
            if owner != g[1]:
                raise ContextError(f"fresh value {g[0]} is declared with two owners, "
                                   f"{owner} and {g[1]}")
        elif head == "var":
            var_names.extend(_names(m, 1, head))
        elif head == "level":
            readers = frozenset(_names(m, 2, f"level {g[0]}"))
            bound = levels.setdefault(g[0], readers)
            if bound != readers:
                raise ContextError(f"{g[0]} is declared with two levels, "
                                   f"{finite(bound)!r} and {finite(readers)!r}")
        elif head == "rule":
            rule_specs.append(g)
        elif head == "step":
            step_specs.append((int(g[0]), g[1], g[2], g[3]))
        else:
            role_specs.append((g[0], int(g[1]), g[2]))

    if intruder_name is None:
        raise ContextError("no intruder declared")
    for value, owner in fresh_owners.items():
        if owner not in principal_names:
            raise ContextError(f"fresh value {value} is owned by {owner}, "
                               "which is not a declared principal")
    for value, readers in levels.items():
        for reader in sorted(readers):
            if reader not in principal_names:
                raise ContextError(f"level of {value} names {reader}, "
                                   "which is not a declared principal")

    named: dict[str, Atom] = {}
    for n in itertools.chain(principal_names, *key_decls, fresh_owners, levels):
        named.setdefault(n, Atom(n))
    for v in dict.fromkeys(var_names):
        if v in named:
            raise ContextError(f"{v} declared both as a name and a variable")
        named[v] = Atom(v, Sort.VARIABLE)
    for n in named:
        if _INDEXED.search(n):
            raise ContextError(f"declared name {n} ends in _<digits>, "
                               "which marks the analyzer's indexed copies")

    symbols = SymbolTable(named, keys=itertools.chain(*key_decls))

    parsed_rules: list[RewriteRule] = []
    for lhs_text, rhs_text in rule_specs:
        rsyms = _RuleSymbols(symbols)
        sides = []
        for side, side_text in (("left", lhs_text), ("right", rhs_text)):
            try:
                sides.append(parse_message(side_text, rsyms, allow_dec=True))
            except (MessageSyntaxError, UndeclaredIdentifier) as err:
                raise _in_statement(f"rule {lhs_text} -> {rhs_text}, {side} side", err)
        rule = RewriteRule(*sides)
        if not keys_monotone(rule):
            raise ContextError(f"rule {lhs_text} -> {rhs_text} is not keys-monotone: "
                               "its result adds a guarding key")
        parsed_rules.append(rule)

    ctx = make_context(principals=list(dict.fromkeys(principal_names)), intruder=intruder_name,
                       levels=levels, keys=key_decls, rewrite_rules=tuple(parsed_rules))

    steps = []
    for sid, snd, rcv, mtext in sorted(step_specs, key=lambda s: s[0]):
        if steps and sid <= steps[-1].step_id:
            raise MessageSyntaxError(f"step {sid}", 0, "a strictly increasing step id")
        if snd not in named or rcv not in named:
            missing = UndeclaredIdentifier(snd if snd not in named else rcv)
            raise _in_statement(f"step {sid}", missing)
        for who in (snd, rcv):
            if who not in principal_names:
                raise ContextError(f"step {sid}: {who} is not a declared principal")
        try:
            msg = parse_message(mtext, symbols)
        except (MessageSyntaxError, UndeclaredIdentifier, NotAKey) as err:
            raise _in_statement(f"step {sid}", err)
        steps.append(Step(sid, named[snd], named[rcv], msg))

    declared: list[GeneralizedRole] = []
    for agent_name, num, body in role_specs:
        if agent_name not in named:
            raise _in_statement(f"role {agent_name} {num}", UndeclaredIdentifier(agent_name))
        if agent_name not in principal_names:
            raise ContextError(f"role {agent_name} {num}: {agent_name} is not a declared principal")
        agent = named[agent_name]
        role_steps: list[RoleStep] = []
        k = 0
        for item in body.split(","):
            item = item.strip()
            if not item:
                continue
            k += 1
            kind, _, mtext = item.partition(" ")
            try:
                if kind not in ("send", "recv"):
                    raise MessageSyntaxError(item, 0, "'send' or 'recv'")
                msg = parse_message(mtext.strip(), symbols)
            except (MessageSyntaxError, UndeclaredIdentifier, NotAKey) as err:
                raise _in_statement(f"role {agent_name} {num}, message {k}", err)
            msg = _to_role_view(msg, agent, fresh_owners)
            role_steps.append(RoleStep(SEND if kind == "send" else RECV, msg))
        role = GeneralizedRole(f"{agent_name}_G{num}", agent, tuple(role_steps))
        if any(r.role_id == role.role_id for r in declared):
            raise ContextError(f"role {agent_name} {num} is declared twice")
        check_role_variables(role)
        declared.append(role)
    longest = _longest_views(declared)
    for role in declared:
        full = longest[role.agent.name]
        if full.steps[:len(role.steps)] != role.steps:
            raise ContextError(f"role {role.role_id} is not a prefix of {full.role_id}")

    return Protocol(
        name=name,
        context=ctx,
        steps=tuple(steps),
        fresh_owners=fresh_owners,
        declared_roles=tuple(declared),
    )


def load_protocol(path) -> Protocol:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_protocol(fh.read())


# ---------------------------------------------------------------------------
# Role computation


def _var_name_stream() -> Iterable[str]:
    for n in ("X", "Y", "Z", "W", "V"):
        yield n
    for i in itertools.count(2):
        for n in ("X", "Y", "Z", "W", "V"):
            yield f"{n}{i}"


def _knows(p: Protocol, agent: Atom, a: Atom) -> bool:
    ctx = p.context
    if is_identity(ctx, a):
        return True
    if p.fresh_owners.get(a.name) == agent.name:
        return True
    if a.name in ctx.keys:
        return may_read(ctx, agent.name, a)
    return level_of(ctx, a).is_bottom


def extract_generalized_roles(p: Protocol) -> tuple[GeneralizedRole, ...]:
    """The computed per-agent views; deterministic in declaration order.  A
    view that sends a variable before receiving it is a ContextError, as a
    declared one is.  A stand-in variable takes no name that a step uses or
    that is declared as a principal, key, fresh value or leveled name."""
    ctx = p.context
    agents = [
        a for a in ctx.principals
        if any(a in (s.sender, s.receiver) for s in p.steps)
    ]
    taken = (ctx.principal_names | set(ctx.keys) | set(ctx.levels) | set(p.fresh_owners)
             | {a.name for s in p.steps for a in atoms(s.message)})
    fresh_vars = (n for n in _var_name_stream() if n not in taken)
    roles: list[GeneralizedRole] = []

    for agent in agents:
        submap: dict[Message, Message] = {}

        def project(t: Message, receiving: bool) -> Message:
            """A send repeats what the agent holds; a reception keeps what
            the agent can recognize or open, and each other part becomes
            the variable that stands for it wherever it recurs."""
            if t in submap:
                return submap[t]
            if isinstance(t, Concat):
                return concat(*(project(part, receiving) for part in t.parts))
            if receiving and (isinstance(t, Atom) and not _knows(p, agent, t) or isinstance(t, Enc)
                              and not may_read(ctx, agent.name, inverse_key(ctx, t.key))):
                submap[t] = Atom(next(fresh_vars), Sort.VARIABLE)
                return submap[t]
            if isinstance(t, Enc):
                return Enc(project(t.body, receiving), t.key)
            return t

        steps: list[RoleStep] = []
        for s in p.steps:
            if agent in (s.sender, s.receiver):
                receiving = s.sender != agent
                msg = _to_role_view(project(s.message, receiving), agent, p.fresh_owners)
                steps.append(RoleStep(RECV if receiving else SEND, msg, step_id=s.step_id,
                                      peer=s.sender if receiving else s.receiver))

        views: list[tuple[RoleStep, ...]] = []
        for i, st in enumerate(steps):
            if st.direction is SEND:
                views.append(tuple(steps[: i + 1]))
        # the trailing reception matters only for a party that speaks at all
        if views and steps[-1].direction is RECV:
            views.append(tuple(steps))
        for n, chunk in enumerate(views, 1):
            role = GeneralizedRole(f"{agent.name}_G{n}", agent, chunk)
            check_role_variables(role)
            roles.append(role)

    return tuple(roles)


def roles_for(p: Protocol, mode: Optional[str] = None) -> tuple[GeneralizedRole, ...]:
    """mode 'manual' demands declared roles, 'auto' always computes; the
    default takes declared roles when the file has them."""
    if mode == "manual":
        if not p.declared_roles:
            raise AnalyzerError(f"protocol {p.name or '?'} declares no roles")
        return p.declared_roles
    if mode == "auto":
        return extract_generalized_roles(p)
    return p.declared_roles or extract_generalized_roles(p)


def check_role_variables(role: GeneralizedRole) -> None:
    """Every variable must enter through a receive before any send uses it;
    a ContextError otherwise."""
    seen: set[Atom] = set()
    for st in role.steps:
        vs = variables_of(st.message)
        if st.direction is SEND and not vs <= seen:
            raise ContextError(f"role {role.role_id} sends a variable it has not received")
        seen |= vs


# ---------------------------------------------------------------------------
# The abstract pattern space


def _owner(a: Atom, ctx: VerificationContext, fresh_owners: Mapping[str, str]) -> str:
    if a.name in fresh_owners:
        return fresh_owners[a.name]
    if a.name in ctx.keys and not is_identity(ctx, a):
        for k in (a, inverse_key(ctx, a)):
            readers = level_of(ctx, k).members
            if readers and len(readers) == 1:
                return next(iter(readers))
    return a.name


def pattern_shape(m: Message) -> Message:
    """Structural identity modulo numbering: each parameter becomes its
    bare name and each variable v0, v1, ... by order of first appearance;
    constants are kept."""
    order: dict[Atom, Atom] = {}

    def canonical(a: Atom) -> Optional[Atom]:
        if a.sort is Sort.VARIABLE:
            if a not in order:
                order[a] = Atom(f"v{len(order)}", Sort.VARIABLE)
            return order[a]
        if a.sort is Sort.PARAMETER:
            return Atom(a.name, Sort.PARAMETER)
        return None

    return map_atoms(m, canonical)


def _longest_views(roles: Iterable[GeneralizedRole]) -> dict[str, GeneralizedRole]:
    """Each agent's longest view (the first of equal length) by agent name.
    Declared and computed views are prefixes of it, so it holds every step
    the agent takes."""
    longest: dict[str, GeneralizedRole] = {}
    for r in roles:
        held = longest.get(r.agent.name)
        if held is None or len(r.steps) > len(held.steps):
            longest[r.agent.name] = r
    return longest


def generalized_message_space(roles: Sequence[GeneralizedRole],
                              ctx: VerificationContext,
                              fresh_owners: Mapping[str, str]) -> list[Message]:
    """Encrypted subterms of the full per-agent views, renumbered so that
    every originating party's names advance together, then deduplicated by
    shape keeping the first."""
    owner_counts: Counter[str] = Counter()
    var_counts: Counter[str] = Counter()

    def renumbered(pat: Enc) -> Message:
        pat_atoms = atoms(pat)
        owners = {a: _owner(a, ctx, fresh_owners) for a in pat_atoms if a.sort is not Sort.VARIABLE}
        owner_counts.update(set(owners.values()))
        var_counts.update({a.name for a in pat_atoms if a.sort is Sort.VARIABLE})

        def pick(a: Atom) -> Atom:
            if a.sort is Sort.VARIABLE:
                return Atom(a.name, Sort.VARIABLE, index=var_counts[a.name])
            return Atom(a.name, Sort.PARAMETER, index=owner_counts[owners[a]])

        return map_atoms(pat, pick)

    by_shape: dict[Message, Message] = {}
    for role in _longest_views(roles).values():
        for st in role.steps:
            for t in subterms(st.message):
                if isinstance(t, Enc):
                    pat = renumbered(t)
                    by_shape.setdefault(pattern_shape(pat), pat)
    return list(by_shape.values())


def pattern_space(p: Protocol, roles: Optional[Sequence[GeneralizedRole]] = None) -> list[Message]:
    if roles is None:
        roles = roles_for(p)
    return generalized_message_space(roles, p.context, p.fresh_owners)
