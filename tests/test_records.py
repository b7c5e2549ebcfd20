"""Every record of the package is immutable: assigning one of its fields
raises AttributeError and leaves the value as it was."""

from __future__ import annotations

import pytest

from secwitness.oracle import (
    check_full_invariance,
    check_non_disclosure,
    deduce_closure,
)
from secwitness.protocols import bundled
from secwitness.rewrite import check_well_protected
from secwitness.roles import parse_protocol
from secwitness.terms import Message
from secwitness.witness import analyze


def _reads_bottom_when_derived(alpha, m, ctx):
    # ⊥ on a derived term and ⊤ on the set it came from, so the invariance
    # search reports a Failure on the first secret atom it samples
    return None if isinstance(m, Message) else frozenset()


@pytest.fixture(scope="module")
def records():
    # the rule restates the built-in cancellation, so NS gives a rewrite
    # rule and reads as it does without it
    protocol = parse_protocol(bundled("ns") + "rule {{M}_kb-1}_kb -> M;\n")
    ctx = protocol.context
    session = [s.message for s in protocol.steps]
    report = analyze(protocol)
    invariance = check_full_invariance({"low": _reads_bottom_when_derived}, ctx, trials=1)["low"]
    role = protocol.declared_roles[0]
    found = [protocol, ctx, protocol.steps[0], role, role.steps[0], ctx.rewrite_rules[0],
             report, report.rows[0], check_well_protected(session, ctx),
             deduce_closure(session, ctx), check_non_disclosure(session, ctx),
             invariance.failures[0]]
    return {type(r).__name__: r for r in found}


NAMES = sorted(["AnalysisReport", "CriterionRow", "DeductionResult", "Failure",
                "GeneralizedRole", "PropertyReport", "Protocol", "RewriteRule", "RoleStep",
                "Step", "VerificationContext", "WellProtectedReport"])


def test_every_record_is_covered(records):
    assert sorted(records) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_record_fields_cannot_be_assigned(records, name):
    record = records[name]
    for field in record._fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is before
