"""Pinned command-line output of `oracle` (`--trials 10 --depth 4 --seed 0`)
on the bundled NS and NSL handshakes, on `sym`, a subject whose keys are
all symmetric, on `ns-secret-a`, NS with A's own name hidden from the
intruder, and on `chain6`, the six-party chain, the largest closures of
the five, compared byte for byte with the files in tests/golden/.

Each case pins stdout (in tests/golden/oracle-<protocol>.stdout) and the
exit code and stderr (in tests/golden/oracle-cases.json).  The files were
written by the pass-by-pass attacker closure that tests/reference_closure.py
keeps, the `sym` subject's by the closure that still stored a mode on every
ciphertext, the `ns-secret-a` subject's by the sampler that stopped
drawing hidden principals in the clear, and the `chain6` subject's by the
oracle that draws its pairs and ciphertexts instead of enumerating them:
the enumerated round's cap cut two of its ten trials short, and no trial
of the draw passes over a term for the atom cap.  A
change that is meant to alter the output rewrites them with

    PYTHONPATH=src python tests/test_oracle_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from secwitness.cli import main
from test_shared_search import subject_text

GOLDEN = Path(__file__).parent / "golden"
CASES_FILE = GOLDEN / "oracle-cases.json"
PROTOCOLS = ("ns", "nsl", "sym", "ns-secret-a", "chain6")
FLAGS = ["--trials", "10", "--depth", "4", "--seed", "0"]


def _run(protocol: str, directory: Path) -> tuple[int, bytes, str]:
    path = directory / f"{protocol}.proto"
    path.write_text(subject_text(protocol), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["oracle", str(path), *FLAGS])
    return code, out.getvalue().encode("utf-8"), err.getvalue()


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_oracle_output_matches_golden(protocol, tmp_path):
    expected = json.loads(CASES_FILE.read_text(encoding="utf-8"))[f"oracle-{protocol}"]
    code, stdout, stderr = _run(protocol, tmp_path)
    assert stdout == (GOLDEN / f"oracle-{protocol}.stdout").read_bytes()
    assert stderr == expected["stderr"]
    assert code == expected["exit"]


def _write() -> None:
    GOLDEN.mkdir(exist_ok=True)
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for protocol in PROTOCOLS:
            code, stdout, stderr = _run(protocol, Path(tmp))
            (GOLDEN / f"oracle-{protocol}.stdout").write_bytes(stdout)
            cases[f"oracle-{protocol}"] = {"exit": code, "stderr": stderr}
    CASES_FILE.write_text(json.dumps(cases, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_oracle_golden.py --write")
    _write()
