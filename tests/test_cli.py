"""Command line behaviour: exit codes, formats, and flag plumbing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from secwitness.cli import EXIT_FILE, EXIT_OK, EXIT_UNDECIDED, EXIT_USAGE, main
from secwitness.protocols import bundled
from secwitness.witness import analyze, from_json_lines, row_record

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


# where each statement's bad name starts, and what the error quotes from there
_BAD_NAME = {
    "principal A, B, C D;": (16, "C D"),
    "level Nb = {A,B, Q R};": (17, "Q R}"),
    "var X Y;": (4, "X Y"),
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
    offset, found = _BAD_NAME[statement]
    assert captured.err == f"error: at offset {offset}: expected identifier, found {found!r}\n"
    assert captured.out == ""


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


def test_oracle_without_a_well_protected_sample(tmp_path, capsys):
    # the only principal's own name is secret from it, so every sample
    # puts a secret in the clear
    assert _run_bad(tmp_path, "intruder I;\nlevel I = {A};\n", "oracle") == EXIT_FILE
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
    assert from_json_lines(first) == [row_record(r) for r in analyze(ns).rows]


@pytest.mark.parametrize("name", ["fmax", "fek", "fn"])
def test_function_flag(ns, ns_file, capsys, name):
    want = EXIT_OK if analyze(ns, function=name).fulfilled else EXIT_UNDECIDED
    assert main(["analyze", ns_file, "--function", name]) == want
    assert f"function {name}" in capsys.readouterr().out


def test_function_env_default(ns_file, capsys, monkeypatch):
    monkeypatch.setenv("SECWITNESS_FUNCTION", "fek")
    main(["analyze", ns_file])
    assert "function fek" in capsys.readouterr().out
    # an explicit flag still wins
    main(["analyze", ns_file, "--function", "fmax"])
    assert "function fmax" in capsys.readouterr().out


def test_repeated_calls_share_one_parser(ns_file, capsys, monkeypatch):
    # the parser is built once per process; the variable is still read on
    # every call, and a usage error leaves nothing behind for the next call
    golden = Path(__file__).parent / "golden"
    assert main(["analyze", ns_file, "--trials", "3"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    monkeypatch.setenv("SECWITNESS_FUNCTION", "fek")
    assert main(["analyze", ns_file]) == EXIT_UNDECIDED
    assert capsys.readouterr().out == (golden / "ns-fek-table.stdout").read_text(encoding="utf-8")
    monkeypatch.delenv("SECWITNESS_FUNCTION")
    assert main(["analyze", ns_file]) == EXIT_UNDECIDED
    assert capsys.readouterr().out == (golden / "ns-fmax-table.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("value", ["bogus", "", "FEK"])
def test_function_env_unknown_is_a_usage_error(ns_file, capsys, monkeypatch, value):
    monkeypatch.setenv("SECWITNESS_FUNCTION", value)
    assert main(["analyze", ns_file]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert "SECWITNESS_FUNCTION" in captured.err
    assert "fek, fmax, fn" in captured.err
    # the variable is only consulted when no flag is given
    assert main(["analyze", ns_file, "--function", "fek"]) == EXIT_UNDECIDED


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
