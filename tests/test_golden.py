"""Pinned command-line output: `analyze` on the bundled NS and NSL
handshakes under every bound and in both formats, compared byte for byte
with the files in tests/golden/.

Each case pins stdout (in tests/golden/<case>.stdout) and the exit code and
stderr (in tests/golden/cases.json).  The files were written by the
analyzer before its candidate search was restructured; a change that is
meant to alter the output rewrites them with

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
from secwitness.protocols import bundled

GOLDEN = Path(__file__).parent / "golden"
CASES = [(p, f, fmt) for p in ("ns", "nsl") for f in ("fmax", "fek", "fn")
         for fmt in ("table", "json-lines")]


def _case_name(protocol: str, function: str, fmt: str) -> str:
    return f"{protocol}-{function}-{fmt}"


def _run(protocol: str, function: str, fmt: str, directory: Path) -> tuple[int, bytes, str]:
    path = directory / f"{protocol}.proto"
    path.write_text(bundled(protocol), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(path), "--function", function, "--format", fmt])
    return code, out.getvalue().encode("utf-8"), err.getvalue()


@pytest.mark.parametrize("protocol,function,fmt", CASES,
                         ids=[_case_name(*c) for c in CASES])
def test_analyze_output_matches_golden(protocol, function, fmt, tmp_path, monkeypatch):
    monkeypatch.delenv(FUNCTION_ENV, raising=False)
    name = _case_name(protocol, function, fmt)
    expected = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))[name]
    code, stdout, stderr = _run(protocol, function, fmt, tmp_path)
    assert stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert stderr == expected["stderr"]
    assert code == expected["exit"]


def _write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for protocol, function, fmt in CASES:
            name = _case_name(protocol, function, fmt)
            code, stdout, stderr = _run(protocol, function, fmt, Path(tmp))
            (GOLDEN / f"{name}.stdout").write_bytes(stdout)
            cases[name] = {"exit": code, "stderr": stderr}
    (GOLDEN / "cases.json").write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n",
                                       encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
