"""The secrecy criterion: per-send bounds, their comparison, and reports.

For every value an agent sends under protection, two levels are compared.
The sent-side bound asks: across everything this message could be an
instance of, who could the protected value have been addressed to?  The
reception-side estimate asks: who could have authored what the agent had
received by then?  The criterion holds when the sent-side bound reads at
least as restrictively as the declared level tightened by the estimate.
When it fails, the names on the sent side that the reception side cannot
justify are reported; a failure means no decision, not a proven leak.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .context import (
    BOTTOM,
    TOP,
    SecurityLevel,
    VerificationContext,
    geq,
    level_of,
    meet,
    meet_all,
)
from .derive import KEPT, ValueFunction, view
from .errors import NoProtectivePattern, WellProtectionViolation
from .rewrite import check_well_protected
from .roles import (
    SEND,
    GeneralizedRole,
    Protocol,
    generalized_message_space,
    roles_for,
)
from .selection import value_function
from .terms import (
    Atom,
    Message,
    Sort,
    Substitution,
    atoms,
    body_atoms_in_order,
    concat,
    flatten,
    members,
    print_message,
    substitute,
    variables_of,
)
from .unify import candidate_values


def _guarded(alpha: Atom, ctx: VerificationContext) -> bool:
    """Whether a sent occurrence of the atom needs a protecting pattern."""
    return alpha.sort is Sort.VARIABLE or not level_of(ctx, alpha).is_bottom


def lower_bounds(sent: Message, alphas: Sequence[Atom], pool: Sequence[Message],
                 F: ValueFunction, ctx: VerificationContext) -> dict[Atom, Optional[SecurityLevel]]:
    """Who the sent occurrences of each atom could be addressed to, folded
    over every pattern the protecting parts might instantiate.

    The atoms share one candidate search per distinct protecting part.  An
    atom that stands bare in the send, with a level to protect, maps to
    None: no pattern protects it, and later parts are not searched for it.
    """
    values: dict[Atom, SecurityLevel] = {}
    bare: set[Atom] = set()
    searched: set[Message] = set()
    for part in flatten(sent):
        if isinstance(part, Atom):
            if part in alphas and _guarded(part, ctx):
                bare.add(part)
            continue
        if part in searched:
            continue
        searched.add(part)
        inside = atoms(part)
        query = [alpha for alpha in alphas if alpha not in bare and alpha in inside]
        if query:
            for alpha, level in candidate_values(part, pool, ctx, query, F).items():
                values[alpha] = meet(values.get(alpha, TOP), level)
    return {alpha: None if alpha in bare else values.get(alpha, TOP) for alpha in alphas}


def lower_bound(alpha: Atom, sent: Message, pool: Sequence[Message],
                F: ValueFunction, ctx: VerificationContext) -> SecurityLevel:
    """The bound of one atom of a send; raises NoProtectivePattern when the
    atom stands bare in it."""
    bound = lower_bounds(sent, [alpha], pool, F, ctx)[alpha]
    if bound is None:
        raise NoProtectivePattern(alpha.display(), print_message(sent))
    return bound


def upper_bound(alpha: Atom, m: Union[Message, Iterable[Message]],
                F: ValueFunction, ctx: VerificationContext) -> SecurityLevel:
    """Who could have authored the atom's occurrences in a reception,
    with every variable but the atom itself erased; a variable is asked
    about as `KEPT`, the name it takes in its view."""
    probe = KEPT if alpha.sort is Sort.VARIABLE else alpha
    return meet_all([F(probe, view(t, {}, alpha), ctx) for t in members(m)])


def reception_estimate(alpha: Atom, received: Sequence[Message],
                       F: ValueFunction, ctx: VerificationContext) -> SecurityLevel:
    """The reception-side level for a row: for a variable, its own bound
    across the receptions; for a fixed atom, its bound tightened by the
    bound of every variable those receptions carry."""
    if not received:
        return TOP
    values: list[SecurityLevel] = []
    for m in received:
        values.append(upper_bound(alpha, m, F, ctx))
        if alpha.sort is not Sort.VARIABLE:
            for var in sorted(variables_of(m), key=Atom.display):
                values.append(upper_bound(var, m, F, ctx))
    return meet_all(values)


def witness_value(alpha: Atom, source: Message, sigma: Substitution,
                  pool: Sequence[Message], F: ValueFunction,
                  ctx: VerificationContext) -> SecurityLevel:
    """The bound of the atom in a closed instance of a sent message, folded
    over the patterns the instance matches."""
    closed = substitute(source, sigma)
    protected = concat(*(part for part in flatten(closed) if not isinstance(part, Atom)))
    return lower_bounds(protected, [alpha], pool, F, ctx)[alpha]


@dataclass(frozen=True)
class CriterionRow:
    atom: Atom
    role_id: str
    agent: str
    step: int
    received: tuple[Message, ...]
    sent: Message
    lower: SecurityLevel
    atom_level: Optional[SecurityLevel]  # None on a variable row
    estimate: SecurityLevel
    fulfilled: bool
    blame: frozenset[str]

    @property
    def is_variable(self) -> bool:
        return self.atom.sort is Sort.VARIABLE


@dataclass(frozen=True)
class AnalysisReport:
    protocol: str
    function: str
    rows: tuple[CriterionRow, ...]
    fulfilled: bool


def _row_for(alpha: Atom, role: GeneralizedRole, position: int,
             sent: Message, received: tuple[Message, ...],
             lower: Optional[SecurityLevel], F: ValueFunction,
             ctx: VerificationContext) -> CriterionRow:
    estimate = reception_estimate(alpha, received, F, ctx)
    atom_level = None if alpha.sort is Sort.VARIABLE else level_of(ctx, alpha)
    required = estimate if atom_level is None else meet(atom_level, estimate)
    if lower is None:  # bare in the send: no protective pattern
        lower = BOTTOM
        fulfilled = False
        blame: frozenset[str] = frozenset({alpha.display()})
    else:
        fulfilled = geq(lower, required)
        if fulfilled:
            blame = frozenset()
        elif lower.is_bottom or required.is_bottom:
            blame = frozenset({alpha.display()})
        else:
            blame = frozenset(lower.members - required.members)
    step = role.steps[position]
    return CriterionRow(
        atom=alpha,
        role_id=role.role_id,
        agent=role.agent.name,
        step=step.step_id if step.step_id is not None else position + 1,
        received=received,
        sent=sent,
        lower=lower,
        atom_level=atom_level,
        estimate=estimate,
        fulfilled=fulfilled,
        blame=blame,
    )


def _eligible(sent: Message, ctx: VerificationContext) -> list[Atom]:
    return [a for a in body_atoms_in_order(sent) if _guarded(a, ctx)]


def analyze(protocol: Protocol, function: str = "fmax",
            roles: Optional[Sequence[GeneralizedRole]] = None) -> AnalysisReport:
    """Runs the criterion over every distinct send position; the pattern
    space must be well protected or the analysis refuses to start."""
    ctx = protocol.context
    role_list = list(roles) if roles is not None else list(roles_for(protocol))
    pool = generalized_message_space(role_list, ctx, protocol.fresh_owners)
    wp = check_well_protected(pool, ctx)
    if not wp.ok:
        worst = wp.violations[0]
        raise WellProtectionViolation(worst[0].display(), print_message(worst[1]))
    # One run has one context, and a level depends only on the atom and the
    # message it is read in: views that read alike share one valuation,
    # across patterns, sends and rows.
    value = value_function(function)
    levels: dict[tuple[Atom, Message], SecurityLevel] = {}

    def F(alpha: Atom, m: Message, ctx: VerificationContext) -> SecurityLevel:
        key = (alpha, m)
        if key not in levels:
            levels[key] = value(alpha, m, ctx)
        return levels[key]

    rows: list[CriterionRow] = []
    seen: set[tuple[str, int, Atom]] = set()
    for role in role_list:
        for position, st in enumerate(role.steps):
            if st.direction is not SEND:
                continue
            fresh = [alpha for alpha in _eligible(st.message, ctx)
                     if (role.agent.name, position, alpha) not in seen]
            if not fresh:
                continue
            seen.update((role.agent.name, position, alpha) for alpha in fresh)
            received = role.received_before(position)
            bounds = lower_bounds(st.message, fresh, pool, F, ctx)
            for alpha in fresh:
                rows.append(_row_for(alpha, role, position, st.message, received,
                                     bounds[alpha], F, ctx))

    return AnalysisReport(
        protocol=protocol.name,
        function=function,
        rows=tuple(rows),
        fulfilled=all(r.fulfilled for r in rows),
    )


# ---------------------------------------------------------------------------
# Rendering


def _atom_cell(row: CriterionRow) -> str:
    return f"∀{row.atom.display()}" if row.is_variable else row.atom.display()


def _received_cell(row: CriterionRow) -> str:
    if not row.received:
        return "∅"
    return " , ".join(print_message(m) for m in row.received)


def render_table(report: AnalysisReport) -> str:
    headers = ("atom", "role", "received", "sent", "bound", "level", "estimate", "verdict")
    body = []
    for r in report.rows:
        body.append((
            _atom_cell(r),
            r.role_id,
            _received_cell(r),
            print_message(r.sent),
            repr(r.lower),
            "∀" if r.atom_level is None else repr(r.atom_level),
            repr(r.estimate),
            "Fulfilled" if r.fulfilled else "NotFulfilled",
        ))
    widths = [max(len(h), *(len(row[i]) for row in body)) if body else len(h)
              for i, h in enumerate(headers)]
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in body)
    for r in report.rows:
        if not r.fulfilled:
            lines.append(f"unjustified on {_atom_cell(r)} ({r.role_id}): {', '.join(sorted(r.blame))}")
    return "\n".join(lines)


def _level_json(level: Optional[SecurityLevel]) -> dict:
    if level is None:
        return {"unknown": True}
    if level.is_bottom:
        return {"bottom": True}
    return {"members": sorted(level.members)}


def row_record(r: CriterionRow) -> dict:
    """The json-lines object of a criterion row."""
    return {
        "atom": r.atom.display(),
        "variable": r.is_variable,
        "role": r.role_id,
        "agent": r.agent,
        "step": r.step,
        "received": [print_message(m) for m in r.received],
        "sent": print_message(r.sent),
        "lowerBound": _level_json(r.lower),
        "atomLevel": _level_json(r.atom_level),
        "receptionEstimate": _level_json(r.estimate),
        "verdict": "Fulfilled" if r.fulfilled else "NotFulfilled",
        "blame": sorted(r.blame),
    }


def to_json_lines(report: AnalysisReport) -> str:
    return "\n".join(json.dumps(row_record(r), sort_keys=True) for r in report.rows)
