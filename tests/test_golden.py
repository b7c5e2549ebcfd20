"""Pinned command-line output, compared byte for byte with the files in
tests/golden/:

- `analyze` on the bundled NS and NSL handshakes under every bound and in
  both formats (cases.json);
- `roles`, `roles --roles auto` and `check-wp` on NS and NSL, and `roles`
  and `analyze` under every bound on the n-party chains n=2…12
  (front-end-cases.json).  These pin the role listing and the pattern
  space, its renumbering and its deduplication included;
- `analyze` under every bound on the subjects whose pairs reach the
  `unify_all` fallback: the 3-party NS, NS with an echoed nonce and the
  nested chains n=2…8 (front-end-cases.json).

Each case pins stdout (in tests/golden/<case>.stdout) and the exit code and
stderr (in its cases file).  The analyze files on NS and NSL were written
by the analyzer before its candidate search was restructured, the others
before the protocol parser and the pattern space were rewritten, those
of chains 11 and 12 by the search that listed every unifier, and the
fallback subjects' by the search that valued their unifiers one at a time;
a change that is meant to alter the output rewrites them with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from secwitness.cli import FUNCTION_ENV, main
from test_shared_search import subject_text

GOLDEN = Path(__file__).parent / "golden"
FUNCTIONS = ("fmax", "fek", "fn")
CHAINS = range(2, 13)
FALLBACK = ["ns3", "ns-echo"] + [f"nchain{n}" for n in range(2, 9)]

# case name -> (protocol, command line without the file)
ANALYZE = {f"{p}-{f}-{fmt}": (p, ["analyze", "--function", f, "--format", fmt])
           for p in ("ns", "nsl") for f in FUNCTIONS for fmt in ("table", "json-lines")}
FRONT_END = {
    **{f"{cmd}-{p}": (p, argv) for p in ("ns", "nsl")
       for cmd, argv in (("roles", ["roles"]), ("roles-auto", ["roles", "--roles", "auto"]),
                         ("check-wp", ["check-wp"]))},
    **{f"roles-chain{n}": (f"chain{n}", ["roles"]) for n in CHAINS},
    **{f"chain{n}-{f}-table": (f"chain{n}", ["analyze", "--function", f])
       for n in CHAINS for f in FUNCTIONS},
    **{f"{p}-{f}-table": (p, ["analyze", "--function", f]) for p in FALLBACK for f in FUNCTIONS},
}
SUITES = {"cases.json": ANALYZE, "front-end-cases.json": FRONT_END}


def _run(protocol: str, argv: list[str], directory: Path) -> tuple[int, bytes, str]:
    path = directory / f"{protocol}.proto"
    path.write_text(subject_text(protocol), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(path), *argv[1:]])
    return code, out.getvalue().encode("utf-8"), err.getvalue()


def _check(cases_file: str, name: str, directory: Path) -> None:
    expected = json.loads((GOLDEN / cases_file).read_text(encoding="utf-8"))[name]
    code, stdout, stderr = _run(*SUITES[cases_file][name], directory)
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert stderr == expected["stderr"]
    assert code == expected["exit"]


@pytest.mark.parametrize("name", list(ANALYZE))
def test_analyze_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv(FUNCTION_ENV, raising=False)
    _check("cases.json", name, tmp_path)


@pytest.mark.parametrize("name", list(FRONT_END))
def test_front_end_output_matches_golden(name, tmp_path, monkeypatch):
    monkeypatch.delenv(FUNCTION_ENV, raising=False)
    _check("front-end-cases.json", name, tmp_path)


def _write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for cases_file, suite in SUITES.items():
            cases = {}
            for name, (protocol, argv) in suite.items():
                code, stdout, stderr = _run(protocol, argv, Path(tmp))
                (GOLDEN / f"{name}.stdout").write_bytes(stdout)
                cases[name] = {"exit": code, "stderr": stderr}
            (GOLDEN / cases_file).write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n",
                                             encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
