"""The three workloads: what one operation runs and how its outputs are checked.

An operation is a fixed list of command lines passed to
`secwitness.cli.main` in this process, with stdout and stderr captured.
Every operation of a workload runs the same command lines, so its time
varies only with the program and the machine.
"""

from __future__ import annotations

import contextlib
import functools
import io
from pathlib import Path

import chain
import checks

FUNCTIONS = ("fmax", "fek", "fn")
CHAIN_PARTIES = 8
CHAIN_CROSS_CHECK_PARTIES = 5
ORACLE_TRIALS = 10
ORACLE_DEPTH = 4
# The oracle's own seed.  The closure's work changes by up to 2x from one
# seed to the next, so it is fixed, like the inputs of the other two
# workloads; see README.md.
ORACLE_SEED = 0


def call(argv: list[str]) -> tuple[int, str, str]:
    """Runs the command line in process; returns exit code, stdout, stderr."""
    from secwitness.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class Workload:
    name = ""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.protocols = root / "src" / "secwitness" / "protocols"
        self.argvs: list[list[str]] = []

    def prepare(self) -> None:
        """Makes the input files and the command lines of one operation."""
        raise NotImplementedError

    def setup_args(self) -> list[str]:
        """Arguments of setup_child.py after the workload's name."""
        return []

    def op(self) -> tuple:
        """One operation; its outputs, as a hashable value."""
        return tuple(call(argv) for argv in self.argvs)

    def check(self, outputs: tuple) -> list[str]:
        """Problems with one operation's outputs; empty when correct."""
        raise NotImplementedError

    def check_run(self) -> list[str]:
        """Problems with the run's inputs, found once after the timed
        interval; empty when correct."""
        return []


class Bundled(Workload):
    """Every command on the two bundled handshakes: analyze under each
    function in both formats, check-wp and roles; 16 calls."""

    name = "bundled"
    FILES = (("ns", "NS"), ("nsl", "NSL"))

    def prepare(self) -> None:
        self.argvs = []
        for stem, _ in self.FILES:
            path = str(self.protocols / f"{stem}.proto")
            for fn in FUNCTIONS:
                for fmt in ("table", "json-lines"):
                    self.argvs.append(["analyze", path, "--function", fn, "--format", fmt])
            self.argvs.append(["check-wp", path])
            self.argvs.append(["roles", path])

    def check(self, outputs: tuple) -> list[str]:
        problems: list[str] = []
        per_file = len(self.argvs) // len(self.FILES)
        for k, (stem, protocol) in enumerate(self.FILES):
            res = outputs[k * per_file:(k + 1) * per_file]
            rows = {}
            for i, fn in enumerate(FUNCTIONS):
                (t_code, table, _), (j_code, lines, _) = res[2 * i], res[2 * i + 1]
                records = checks.parse_json_lines(lines)
                rows[fn] = records
                problems += checks.check_rows(records, j_code)
                problems += checks.check_table(table, records, protocol, fn)
                if t_code != j_code:
                    problems.append(f"{stem} {fn}: table exits {t_code}, json-lines {j_code}")
            problems += checks.check_paper_result(rows["fmax"], res[1][0], protocol)
            problems += checks.check_meet(rows["fmax"], rows["fek"], rows["fn"])
            problems += checks.check_wp(res[6][1], res[6][0])
            code, listing, _ = res[7]
            auto_code, auto_listing, _ = self._auto_roles[stem]
            problems += checks.check_roles(listing, auto_listing, code, auto_code)
        return problems

    @functools.cached_property
    def _auto_roles(self) -> dict[str, tuple[int, str, str]]:
        """The computed views the declared ones are compared with."""
        return {stem: call(["roles", str(self.protocols / f"{stem}.proto"), "--roles", "auto"])
                for stem, _ in self.FILES}


class Chain(Workload):
    """analyze --format json-lines (fmax) on the 8-party chain."""

    name = "chain"

    def __init__(self, root: Path, workdir: Path, parties: int = CHAIN_PARTIES):
        super().__init__(root, workdir)
        self.parties = parties

    def _path(self, n: int) -> str:
        return str(self.workdir / f"chain{n}.proto")

    def _write(self, n: int) -> str:
        path = self._path(n)
        Path(path).write_text(chain.chain_protocol(n), encoding="utf-8")
        return path

    def prepare(self) -> None:
        self.path = self._write(self.parties)
        self.argvs = [["analyze", self.path, "--format", "json-lines", "--function", "fmax"]]

    def setup_args(self) -> list[str]:
        return [self._path(self.parties), str(self.parties)]

    def check(self, outputs: tuple) -> list[str]:
        code, lines, _ = outputs[0]
        records = checks.parse_json_lines(lines)
        problems = checks.check_rows(records, code)
        got = [(r["role"], r["atom"], r["variable"]) for r in records]
        if got != chain.expected_row_keys(self.parties):
            problems.append(f"chain rows {got} differ from the generator's prediction")
        return problems

    def check_run(self) -> list[str]:
        code, text, _ = call(["check-wp", self.path])
        problems = checks.check_wp(text, code)
        small = self._write(CHAIN_CROSS_CHECK_PARTIES)
        rows = {}
        for fn in FUNCTIONS:
            code, lines, _ = call(["analyze", small, "--format", "json-lines", "--function", fn])
            rows[fn] = checks.parse_json_lines(lines)
            problems += checks.check_rows(rows[fn], code)
        problems += checks.check_meet(rows["fmax"], rows["fek"], rows["fn"])
        keys = [(r["role"], r["atom"], r["variable"]) for r in rows["fmax"]]
        if keys != chain.expected_row_keys(CHAIN_CROSS_CHECK_PARTIES):
            problems.append("small chain rows differ from the generator's prediction")
        return problems


class Oracle(Workload):
    """oracle ns.proto --trials 10 --depth 4 at a fixed seed."""

    name = "oracle"

    def prepare(self) -> None:
        self.path = str(self.protocols / "ns.proto")
        self.argvs = [["oracle", self.path, "--trials", str(ORACLE_TRIALS),
                       "--depth", str(ORACLE_DEPTH), "--seed", str(ORACLE_SEED)]]

    def check(self, outputs: tuple) -> list[str]:
        code, text, _ = outputs[0]
        return checks.check_oracle(text, code, ORACLE_TRIALS)

    def check_run(self) -> list[str]:
        # the program's "non-disclosure: ok" must agree with a closure of
        # the benchmark's own
        leaked = checks.disclosed_by_one_session(Path(self.path).read_text(encoding="utf-8"))
        problems = [f"one honest session discloses {leaked}"] if leaked else []
        code, text, _ = call(["check-wp", self.path])
        return problems + checks.check_wp(text, code)


WORKLOADS = {w.name: w for w in (Bundled, Chain, Oracle)}
