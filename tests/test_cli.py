"""Command line behaviour: exit codes, formats, and flag plumbing."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from secwitness.cli import EXIT_FILE, EXIT_OK, EXIT_UNDECIDED, EXIT_USAGE, main
from secwitness.protocols import bundled
from secwitness.witness import analyze, row_record

WEAK = (
    "protocol Weak;\n"
    "principal A, B, C;\n"
    "intruder I;\n"
    "key kc inv kc-1;\n"
    "fresh Na by A;\n"
    "level Na = {A, B};\n"
    "level kc-1 = {C};\n"
    "step 1: A -> B : {A.Na}_kc;\n"
)


@pytest.fixture()
def ns_file(tmp_path):
    f = tmp_path / "ns.proto"
    f.write_text(bundled("ns"), encoding="utf-8")
    return str(f)


@pytest.fixture()
def nsl_file(tmp_path):
    f = tmp_path / "nsl.proto"
    f.write_text(bundled("nsl"), encoding="utf-8")
    return str(f)


def test_analyze_ns_gives_no_decision(ns_file, capsys):
    assert main(["analyze", ns_file]) == EXIT_UNDECIDED
    captured = capsys.readouterr()
    assert "NotFulfilled" in captured.out
    assert "unjustified on Nb^i (B_G1): A_3" in captured.out
    assert "no decision" in captured.err


def test_analyze_nsl_passes(nsl_file, capsys):
    assert main(["analyze", nsl_file]) == EXIT_OK
    captured = capsys.readouterr()
    assert "Fulfilled" in captured.out
    assert captured.err == ""


def test_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.proto")]) == EXIT_FILE
    assert "error:" in capsys.readouterr().err


def test_unparsable_file(tmp_path, capsys):
    f = tmp_path / "bad.proto"
    f.write_text("protocol ???\nnot a statement\n", encoding="utf-8")
    assert main(["analyze", str(f)]) == EXIT_FILE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "check-wp", "roles", "oracle"])
@pytest.mark.parametrize("declaration", ["intruder ;", "intruder I J;", "intruder I; intruder J;"])
def test_intruder_declaration_names_one_principal(tmp_path, capsys, command, declaration):
    text = bundled("ns").replace("intruder I;", declaration)
    assert declaration in text
    f = tmp_path / "bad.proto"
    f.write_text(text, encoding="utf-8")
    argv = [command, str(f)] + (["--trials", "1", "--depth", "1"] if command == "oracle" else [])
    assert main(argv) == EXIT_FILE
    captured = capsys.readouterr()
    assert "error:" in captured.err and "intruder declaration" in captured.err
    assert captured.out == ""


def _run_bad(tmp_path, text, command="analyze"):
    f = tmp_path / "bad.proto"
    f.write_text(text, encoding="utf-8")
    argv = [command, str(f)] + (["--trials", "1", "--depth", "1"] if command == "oracle" else [])
    return main(argv)


# the statement an error names, where its bad name starts, and what the
# error quotes from there
_BAD_NAME = {
    "principal A, B, C D;": ("principal", 16, "C D"),
    "level Nb = {A,B, Q R};": ("level Nb", 17, "Q R}"),
    "var X Y;": ("var", 4, "X Y"),
}


@pytest.mark.parametrize("command", ["analyze", "check-wp", "roles", "oracle"])
@pytest.mark.parametrize("declaration,statement", [
    ("principal A, B;", "principal A, B, C D;"),
    ("level Nb = {A,B};", "level Nb = {A,B, Q R};"),
    ("var X, Y;", "var X Y;"),
])
def test_declared_names_must_be_identifiers(tmp_path, capsys, command, declaration, statement):
    text = bundled("ns").replace(declaration, statement)
    assert statement in text
    assert _run_bad(tmp_path, text, command) == EXIT_FILE
    captured = capsys.readouterr()
    named, offset, found = _BAD_NAME[statement]
    assert captured.err == (f"error: {named}: at offset {offset}: "
                            f"expected identifier, found {found!r}\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["analyze", "check-wp", "roles", "oracle"])
@pytest.mark.parametrize("statement,error", [
    ("step 4: A -> B : {A.}_kb;", "step 4: at offset 3: expected identifier, found '}_kb'"),
    ("step 4: A -> B : {A.Zz}_kb;", "step 4: identifier 'Zz' is not declared"),
    ("step 4: A -> Zz : {A}_kb;", "step 4: identifier 'Zz' is not declared"),
    ("role A 3: send {A.Na^i}_kb, recv {Na^i.X.}_ka;",
     "role A 3, message 2: at offset 8: expected identifier, found '}_ka'"),
    ("role A 3: send {A.Na^i}_kb, sned {Na^i.X}_ka;",
     "role A 3, message 2: at offset 0: expected 'send' or 'recv', found 'sned {Na^i.X'"),
    ("rule {A.}_kb -> X;",
     "rule {A.}_kb -> X, left side: at offset 3: expected identifier, found '}_kb'"),
    ("rule {X}_kb -> {X.}_kb;",
     "rule {X}_kb -> {X.}_kb, right side: at offset 3: expected identifier, found '}_kb'"),
])
def test_an_error_in_a_message_names_its_statement(tmp_path, capsys, command, statement, error):
    # the offset counts from the start of the message, so without the
    # statement it could not be placed in a file of many similar ones
    assert _run_bad(tmp_path, bundled("ns") + statement + "\n", command) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["analyze", "check-wp", "roles", "oracle"])
def test_a_key_declared_with_two_inverses_is_rejected(tmp_path, capsys, command):
    text = bundled("ns").replace("key kb inv kb-1;", "key kb inv kb-1;\nkey ka-1 inv kb;")
    assert "key ka-1 inv kb;" in text
    assert _run_bad(tmp_path, text, command) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == "error: key ka-1 is declared with two inverses, ka and kb\n"
    assert captured.out == ""


def _rename(text, renames):
    """The text with the given identifiers renamed at once; an indexed copy
    such as X_1 is renamed with its base name."""
    names = "|".join(map(re.escape, renames))
    return re.sub(rf"(?<![\w^-])({names})(?=_\d|[^\w^-]|$)", lambda m: renames[m[1]], text)


# a declared name ending in _<digits> would be read as an indexed copy: a
# variable Y_1 as a pattern variable, a principal B_2 as not an identity
_INDEXED = {
    "variables": ({"X": "Y_1", "Y": "X_1"}, "Y_1"),
    "principal": ({"B": "B_2"}, "B_2"),
}


@pytest.mark.parametrize("command", ["analyze", "check-wp", "roles", "oracle"])
@pytest.mark.parametrize("case", sorted(_INDEXED))
def test_a_declared_name_may_not_end_in_an_index(tmp_path, capsys, command, case):
    renames, reported = _INDEXED[case]
    assert _run_bad(tmp_path, _rename(bundled("ns"), renames), command) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == (f"error: declared name {reported} ends in _<digits>, "
                            "which marks the analyzer's indexed copies\n")
    assert captured.out == ""


@pytest.mark.parametrize("name", ["ns", "nsl"])
@pytest.mark.parametrize("function", ["fmax", "fek", "fn"])
def test_renaming_the_variables_renames_the_records(tmp_path, capsys, name, function):
    text = bundled(name)
    renamed = _rename(text, {"X": "U", "Y": "W"})
    assert renamed != text and not re.search(r"\b[XY]\b", renamed)
    outputs = []
    for body in (text, renamed):
        f = tmp_path / f"{name}.proto"
        f.write_text(body, encoding="utf-8")
        main(["analyze", str(f), "--function", function, "--format", "json-lines"])
        outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs[1] == _rename(outputs[0], {"X": "U", "Y": "W"})


# the nonce X is taken, so the computed views name their stand-ins Y, Z and
# W; spelled Q, it leaves X, Y and Z to them.  A variable's level never
# follows its name, so the stand-in X does not read the nonce's {A,B}
COLLIDING = (
    "protocol COL; principal A, B; intruder I; key ka inv ka-1; key kc inv kc-1;\n"
    "fresh X by A; fresh N by A; fresh Nb by B;\n"
    "level X = {A,B}; level N = {A,B,I}; level Nb = {A,B}; level ka-1 = {A}; level kc-1 = {B,I};\n"
    "step 1: A -> B : {N}_kc; step 2: B -> A : {Nb}_ka; step 3: A -> B : {X}_ka;\n"
)


@pytest.mark.parametrize("function, bound", [("fmax", ["B", "I"]), ("fek", ["B", "I"]), ("fn", [])])
def test_a_nonce_spelled_like_a_stand_in_reads_as_any_nonce(tmp_path, capsys, function, bound):
    runs = []
    for text in (COLLIDING, re.sub(r"\bX\b", "Q", COLLIDING)):
        f = tmp_path / "col.proto"
        f.write_text(text, encoding="utf-8")
        code = main(["analyze", str(f), "--function", function, "--format", "json-lines"])
        runs.append((code, capsys.readouterr().out))
    (code, out), (renamed_code, renamed_out) = runs
    names = {"X": "Q", "Y": "X", "Z": "Y", "W": "Z"}
    assert code == renamed_code == EXIT_OK
    assert renamed_out == re.sub(r"\b[XYZW]\b", lambda m: names[m[0]], out)
    record = json.loads(out.splitlines()[0])
    assert (record["atom"], record["lowerBound"]) == ("N^i", {"members": bound})


def test_stand_ins_skip_the_names_a_protocol_takes(tmp_path, capsys):
    f = tmp_path / "col.proto"
    f.write_text(COLLIDING, encoding="utf-8")
    assert main(["roles", str(f)]) == EXIT_OK
    out = capsys.readouterr().out
    for line in ("recv [B]: {Y}_ka", "send [B]: {X^i}_ka", "recv [A]: {Z}_kc", "recv [A]: W"):
        assert f"  {line}\n" in out


@pytest.mark.parametrize("command", ["analyze", "check-wp", "roles"])
def test_a_stand_in_never_takes_a_declared_variable_a_step_uses(tmp_path, capsys, command):
    # A's stand-in for Nb would be X, which step 3 sends as the declared X
    # that A never received
    text = "".join(line for line in bundled("ns").splitlines(keepends=True)
                   if not line.startswith("role "))
    text = text.replace("step 3: A -> B : {Nb}_kb;", "step 3: A -> B : {Nb.X}_kb;")
    assert "{Nb.X}_kb" in text and "role " not in text
    assert _run_bad(tmp_path, text, command) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == "error: role A_G2 sends a variable it has not received\n"
    assert captured.out == ""


# a second level or fresh statement for a name must repeat the first, and
# a fresh value's owner and a level's members must be declared principals
_CONTRADICTIONS = {
    "fresh": ("fresh Nb by B;", "fresh Na by B;",
              "error: fresh value Na is declared with two owners, A and B\n"),
    "level": ("level kb-1 = {B};", "level Nb = {A,B,I};",
              "error: Nb is declared with two levels, {A,B} and {A,B,I}\n"),
    "fresh-owner": ("fresh Nb by B;", "fresh Nc by b;",
                    "error: fresh value Nc is owned by b, which is not a declared principal\n"),
    "level-member": ("level kb-1 = {B};", "level Nc = {A,Q};",
                     "error: level of Nc names Q, which is not a declared principal\n"),
}


@pytest.mark.parametrize("command", ["analyze", "check-wp", "roles", "oracle"])
@pytest.mark.parametrize("case", sorted(_CONTRADICTIONS))
def test_a_contradicting_level_or_fresh_statement_is_rejected(tmp_path, capsys, command, case):
    anchor, statement, error = _CONTRADICTIONS[case]
    text = bundled("ns").replace(anchor, f"{anchor}\n{statement}")
    assert statement in text
    assert _run_bad(tmp_path, text, command) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == error
    assert captured.out == ""


def test_the_intruder_may_be_declared_after_it_is_named(tmp_path, capsys):
    golden = Path(__file__).parent / "golden"
    text = bundled("ns").replace("intruder I;\n", "") + "fresh Ni by I;\nintruder I;\n"
    f = tmp_path / "ns.proto"
    f.write_text(text, encoding="utf-8")
    assert main(["analyze", str(f)]) == EXIT_UNDECIDED
    assert capsys.readouterr().out == (golden / "ns-fmax-table.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("statement", ["fresh Na by A;", "level Nb = {B, A};"])
def test_a_repeated_level_or_fresh_statement_is_read_once(tmp_path, capsys, statement):
    golden = Path(__file__).parent / "golden"
    text = bundled("ns").replace("level kb-1 = {B};", f"level kb-1 = {{B}};\n{statement}")
    assert statement in text
    f = tmp_path / "ns.proto"
    f.write_text(text, encoding="utf-8")
    assert main(["analyze", str(f)]) == EXIT_UNDECIDED
    assert capsys.readouterr().out == (golden / "ns-fmax-table.stdout").read_text(encoding="utf-8")


def test_rule_that_adds_a_guarding_key_is_rejected(tmp_path, capsys):
    text = bundled("ns") + "rule {X}_kb -> {X}_ki;\n"
    assert _run_bad(tmp_path, text) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == ("error: rule {X}_kb -> {X}_ki is not keys-monotone: "
                            "its result adds a guarding key\n")
    assert captured.out == ""


def test_rule_with_an_unbound_right_hand_side_is_rejected(tmp_path, capsys):
    # Z is undeclared, so the rule reads it as a metavariable the left side never binds
    text = bundled("ns") + "rule A -> Z;\n"
    assert _run_bad(tmp_path, text) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == "error: rule A: rhs introduces metavariables\n"
    assert captured.out == ""


def test_declared_role_sending_an_unreceived_variable_is_rejected(tmp_path, capsys):
    text = bundled("ns").replace("role A 1: send {A.Na^i}_kb;", "role A 1: send {A.Na^i.Y}_kb;")
    assert "{A.Na^i.Y}_kb;" in text
    assert _run_bad(tmp_path, text) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == "error: role A_G1 sends a variable it has not received\n"
    assert captured.out == ""


# the variable X enters B's narration in a send, never in a receive
UNRECEIVED = (
    "protocol Unreceived;\n"
    "principal A, B;\n"
    "intruder I;\n"
    "key kb inv kb-1;\n"
    "fresh Na by A;\n"
    "var X;\n"
    "level Na = {A,B};\n"
    "level kb-1 = {B};\n"
    "step 1: A -> B : {A.Na}_kb;\n"
    "step 2: B -> A : {X}_kb;\n"
)


@pytest.mark.parametrize("command", ["analyze", "check-wp", "roles"])
def test_computed_role_sending_an_unreceived_variable_is_rejected(tmp_path, capsys, command):
    assert _run_bad(tmp_path, UNRECEIVED, command) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == "error: role B_G1 sends a variable it has not received\n"
    assert captured.out == ""


# the rule strips kw; in the pattern space Na_2 sits under kw's copy kw_2,
# which the rule strips too, leaving Na_2 bare
RULE_ON_A_DECLARED_KEY = (
    "protocol RuleConst;\n"
    "principal A, B;\n"
    "intruder I;\n"
    "key kb inv kb-1;\n"
    "key kw sym;\n"
    "fresh Na by A;\n"
    "level Na = {A,B};\n"
    "level kw = {A,B};\n"
    "level kb-1 = {B};\n"
    "rule {X}_kw -> X;\n"
    "step 1: A -> B : {{Na}_kw}_kb;\n"
)
RULE_EXPECTED = {
    "check-wp": (EXIT_UNDECIDED,
                 "  {{Na_1}_kw_1}_kb_1\n"
                 "  {Na_2}_kw_2\n"
                 "unprotected: Na_2 in {Na_2}_kw_2 (guards: no key)\n",
                 ""),
    "analyze": (EXIT_FILE, "", "error: Na_2 is not protected by any qualifying key "
                               "in {Na_2}_kw_2\n"),
}


@pytest.mark.parametrize("command", sorted(RULE_EXPECTED))
def test_a_rule_naming_a_declared_key_rewrites_its_copies(tmp_path, capsys, command):
    code = _run_bad(tmp_path, RULE_ON_A_DECLARED_KEY, command)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == RULE_EXPECTED[command]


# the rule's metavariables q and q-1 are two unrelated keys, so it strips
# any double encryption, whatever the spelling suggests
PAIR = (
    "protocol Pair;\n"
    "principal A, B;\n"
    "intruder I;\n"
    "key ka inv ka-1;\n"
    "key kb inv kb-1;\n"
    "fresh Na by A;\n"
    "level Na = {A,B};\n"
    "level ka-1 = {A};\n"
    "level kb-1 = {B};\n"
    "rule {{M}_q-1}_q -> M;\n"
    "step 1: A -> B : {{Na}_kb}_ka;\n"
)
PAIR_EXPECTED = {
    "check-wp": (EXIT_UNDECIDED,
                 "  {{Na_1}_kb_1}_ka_1\n"
                 "  {Na_2}_kb_2\n"
                 "unprotected: Na_1 in {{Na_1}_kb_1}_ka_1 (guards: no key)\n",
                 ""),
    "analyze": (EXIT_FILE, "", "error: Na_1 is not protected by any qualifying key "
                               "in {{Na_1}_kb_1}_ka_1\n"),
}


@pytest.mark.parametrize("command", sorted(PAIR_EXPECTED))
def test_a_metavariable_name_ties_no_keys_together(tmp_path, capsys, command):
    code = _run_bad(tmp_path, PAIR, command)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == PAIR_EXPECTED[command]


# the rule moves kb from X onto the declared name probe-0
PROBE = (
    "protocol Probe;\n"
    "principal A, B;\n"
    "intruder I;\n"
    "key kb inv kb-1;\n"
    "fresh Na by A;\n"
    "level Na = {A,B};\n"
    "level kb-1 = {B};\n"
    "level probe-0 = {A,B};\n"
    "rule {X}_kb.probe-0 -> X.{probe-0}_kb;\n"
    "step 1: A -> B : {Na}_kb.probe-0;\n"
)


@pytest.mark.parametrize("command", ["analyze", "check-wp", "roles"])
def test_a_declared_name_spelled_like_a_probe_is_checked_for_monotonicity(
        tmp_path, capsys, command):
    assert _run_bad(tmp_path, PROBE, command) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == ("error: rule {X}_kb.probe-0 -> X.{probe-0}_kb is not "
                            "keys-monotone: its result adds a guarding key\n")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["analyze", "check-wp", "roles"])
def test_declared_views_of_one_agent_must_be_prefixes(tmp_path, capsys, command):
    text = bundled("ns").replace("role A 2: send {A.Na^i}_kb,", "role A 2: send {Na^i.A}_kb,")
    assert "role A 2: send {Na^i.A}_kb," in text
    assert _run_bad(tmp_path, text, command) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == "error: role A_G1 is not a prefix of A_G2\n"
    assert captured.out == ""


@pytest.mark.parametrize("statement, error", [
    # a variable, a key and a fresh value, each declared but not a principal
    ("step 4: X -> B : {Na}_kb;", "step 4: X is not a declared principal"),
    ("step 4: A -> kb : {Na}_kb;", "step 4: kb is not a declared principal"),
    ("role Na 1: send {A.Na^i}_kb;", "role Na 1: Na is not a declared principal"),
    ("role A 1: send {A.Na^i}_kb;", "role A 1 is declared twice"),
    ("role C 1: send {A}_kb;", "role C 1: identifier 'C' is not declared"),
])
@pytest.mark.parametrize("command", ["analyze", "roles"])
def test_parties_are_declared_principals_and_role_ids_are_unique(tmp_path, capsys, statement, error, command):
    assert _run_bad(tmp_path, bundled("ns") + statement + "\n", command) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


@pytest.mark.parametrize("text, error", [
    # B's views encrypt under a principal's name; the first one read is named
    (bundled("ns").replace("send {Y.Nb^i.B}_ka", "send {Y}_A"),
     "role B 1, message 2: 'A' is not registered as a key"),
    # under the declared roles, which do not read the step, this exited 0
    # from roles, 2 from analyze and 1 from oracle
    (bundled("ns") + "step 4: A -> B : {Na}_B;\n", "step 4: 'B' is not registered as a key"),
], ids=["role", "step"])
@pytest.mark.parametrize("command", ["roles", "check-wp", "analyze", "oracle"])
def test_an_encryption_under_a_non_key_is_rejected(tmp_path, capsys, text, error, command):
    assert _run_bad(tmp_path, text, command) == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


def test_oracle_without_a_well_protected_sample(tmp_path, capsys):
    # the only principal's own name is secret from it, so every sample
    # puts a secret in the clear
    assert _run_bad(tmp_path, "intruder I;\nlevel I = {};\n", "oracle") == EXIT_FILE
    captured = capsys.readouterr()
    assert captured.err == ("error: could not build a well-protected sample; "
                            "context too restrictive\n")
    assert captured.out == ""


def test_invalid_utf8_file(tmp_path, capsys):
    f = tmp_path / "bad.proto"
    f.write_bytes(b"protocol Bad;\n\xff\xfe\n")
    assert main(["analyze", str(f)]) == EXIT_FILE
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {f}")
    assert "Traceback" not in err


def test_deeply_nested_message(tmp_path, capsys):
    deep = "{" * 3000 + "A.Na" + "}_kb" * 3000
    text = bundled("ns").replace("step 1: A -> B : {A.Na}_kb;", f"step 1: A -> B : {deep};")
    assert deep in text
    f = tmp_path / "deep.proto"
    f.write_text(text, encoding="utf-8")
    assert main(["analyze", str(f)]) == EXIT_FILE
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_unknown_subcommand(capsys):
    assert main(["frobnicate", "x"]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_no_arguments(capsys):
    assert main([]) == EXIT_USAGE


def test_bad_function_value(ns_file, capsys):
    assert main(["analyze", ns_file, "--function", "bogus"]) == EXIT_USAGE


def test_json_lines_round_trip_and_stability(ns, ns_file, capsys):
    assert main(["analyze", ns_file, "--format", "json-lines"]) == EXIT_UNDECIDED
    first = capsys.readouterr().out
    main(["analyze", ns_file, "--format", "json-lines"])
    second = capsys.readouterr().out
    assert first == second
    records = [json.loads(line) for line in first.splitlines()]
    assert records == [row_record(r) for r in analyze(ns).rows]


@pytest.mark.parametrize("name", ["fmax", "fek", "fn"])
def test_function_flag(ns, ns_file, capsys, name):
    want = EXIT_OK if analyze(ns, function=name).fulfilled else EXIT_UNDECIDED
    assert main(["analyze", ns_file, "--function", name]) == want
    assert f"function {name}" in capsys.readouterr().out


def test_repeated_calls_share_one_parser(ns_file, capsys):
    # the parser is built once per process; neither a usage error nor a
    # --function of one call leaves anything behind for the next call
    golden = Path(__file__).parent / "golden"
    assert main(["analyze", ns_file, "--trials", "3"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert main(["analyze", ns_file, "--function", "fek"]) == EXIT_UNDECIDED
    assert capsys.readouterr().out == (golden / "ns-fek-table.stdout").read_text(encoding="utf-8")
    assert main(["analyze", ns_file]) == EXIT_UNDECIDED
    assert capsys.readouterr().out == (golden / "ns-fmax-table.stdout").read_text(encoding="utf-8")


def test_check_wp_accepts_the_handshakes(ns_file, nsl_file, capsys):
    assert main(["check-wp", ns_file]) == EXIT_OK
    assert "well protected" in capsys.readouterr().out
    assert main(["check-wp", nsl_file]) == EXIT_OK


def test_check_wp_flags_a_weak_key(tmp_path, capsys):
    # the nonce is shared by A and B but travels under a key C can open
    f = tmp_path / "weak.proto"
    f.write_text(WEAK, encoding="utf-8")
    assert main(["check-wp", str(f)]) == EXIT_UNDECIDED
    assert "unprotected: Na" in capsys.readouterr().out


def test_roles_listing(ns_file, capsys):
    assert main(["roles", ns_file]) == EXIT_OK
    out = capsys.readouterr().out
    for needle in ("A_G1", "A_G2", "B_G1", "B_G2", "pattern space:", "{X_2}_kb_3"):
        assert needle in out


def test_roles_auto_agrees_with_declared(ns_file, capsys):
    assert main(["analyze", ns_file, "--roles", "manual", "--format", "json-lines"]) == EXIT_UNDECIDED
    declared = capsys.readouterr().out
    assert main(["analyze", ns_file, "--roles", "auto", "--format", "json-lines"]) == EXIT_UNDECIDED
    computed = capsys.readouterr().out
    assert declared == computed


def test_oracle_subcommand(nsl_file, capsys):
    assert main(["oracle", nsl_file, "--trials", "3", "--depth", "3", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "full-invariance[fmax]: ok" in out
    assert "full-invariance[fek]: ok" in out
    assert "full-invariance[fn]: ok" in out
    assert "non-disclosure[one honest session]: ok" in out


@pytest.mark.parametrize("flags", [
    ["--trials", "-3", "--depth", "-1"],
    ["--trials", "-1"],
    ["--depth", "-1"],
    ["--trials", "0"],
])
def test_oracle_rejects_negative_or_zero_counts(nsl_file, capsys, flags):
    assert main(["oracle", nsl_file, *flags]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert captured.out == ""


def test_oracle_rejects_a_function_flag(nsl_file, capsys):
    # oracle checks every bound, so a --function there would be ignored
    assert main(["oracle", nsl_file, "--trials", "1", "--function", "fek"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "usage error" in captured.err
    assert captured.out == ""


def test_oracle_accepts_depth_zero(nsl_file, capsys):
    assert main(["oracle", nsl_file, "--trials", "1", "--depth", "0"]) in (EXIT_OK, EXIT_UNDECIDED)
    assert "full-invariance[fmax]" in capsys.readouterr().out


# NS with a second secret of A's sent beside Na under the intruder's key:
# two violations in one pattern
TWO_VIOLATIONS = (bundled("ns")
                  .replace("fresh Nb by B;", "fresh Nb by B;\nfresh Nc by A;")
                  .replace("level Nb = {A,B};", "level Nb = {A,B};\nlevel Nc = {A,B};")
                  .replace("step 1: A -> B : {A.Na}_kb;", "step 1: A -> B : {A.Na.Nc}_ki;"))
WP_EXPECTED = {
    "check-wp": (EXIT_UNDECIDED,
                 "  {A_1.Na_1.Nc_1}_ki_1\n"
                 "  {Na_2.X_1.B_1}_ka_2\n"
                 "  {X_2}_kb_2\n"
                 "  {Na_3.Nb_3.B_3}_ka_3\n"
                 "  {Nb_4}_kb_4\n"
                 "unprotected: Na_1 in {A_1.Na_1.Nc_1}_ki_1 (guards: ki-1_1)\n"
                 "unprotected: Nc_1 in {A_1.Na_1.Nc_1}_ki_1 (guards: ki-1_1)\n",
                 ""),
    "analyze": (EXIT_FILE, "",
                "error: Na_1 is not protected by any qualifying key in {A_1.Na_1.Nc_1}_ki_1\n"),
}


@pytest.mark.parametrize("command", sorted(WP_EXPECTED))
def test_well_protection_report_is_independent_of_hash_seed(tmp_path, command):
    # violations come in occurrence order, whatever order a set of atoms
    # iterates in under the interpreter's string hash seed
    f = tmp_path / "two.proto"
    f.write_text(TWO_VIOLATIONS, encoding="utf-8")
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-m", "secwitness.cli", command, str(f),
                              "--roles", "auto"],
                             capture_output=True, text=True, env=env)
        assert (run.returncode, run.stdout, run.stderr) == WP_EXPECTED[command], seed


def test_closed_stdout_ends_without_a_traceback(ns_file):
    # stdout is a pipe whose reader is already gone, as when `| head` has
    # exited: the first write fails with EPIPE
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        run = subprocess.run([sys.executable, "-m", "secwitness.cli", "analyze", ns_file],
                             stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert run.returncode == EXIT_FILE
    assert "Traceback" not in run.stderr


def test_unleveled_key_error_is_independent_of_hash_seed(tmp_path):
    # two pairs have no level on either side; the error names the first
    # declared of them under every string hash seed
    f = tmp_path / "keys.proto"
    f.write_text("protocol Keys;\nprincipal A;\nintruder I;\nkey ka inv ka-1;\n"
                 "key kb inv kb-1;\nkey kc inv kc-1;\nlevel ka-1 = {A};\n", encoding="utf-8")
    for seed in range(6):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.pathsep.join(sys.path))
        run = subprocess.run([sys.executable, "-m", "secwitness.cli", "analyze", str(f)],
                             capture_output=True, text=True, env=env)
        assert (run.returncode, run.stdout, run.stderr) == (
            EXIT_FILE, "", "error: key pair kb/kb-1 has no declared level on either side\n"), seed
