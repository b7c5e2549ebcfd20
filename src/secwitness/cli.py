"""Command line front end.

    secwitness analyze  <file> [--function fmax|fek|fn] [--format table|json-lines] [--roles auto|manual]
    secwitness check-wp <file> [--roles auto|manual]
    secwitness roles    <file> [--roles auto|manual]
    secwitness oracle   <file> [--trials N] [--depth N] [--seed N]

Exit codes: 0 when the criterion holds on every row, 2 when some row gives
no decision, when check-wp reports an unprotected pattern and when an
oracle check fails, 1 on unreadable, unparsable or inconsistent input
(analyze on a pattern space that is not well protected among it) and when
stdout is closed before the report is written, 64 on usage errors
(--trials below 1 and a negative --depth among them).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from .errors import AnalyzerError
from .oracle import check_full_invariance, check_non_disclosure
from .rewrite import check_well_protected
from .roles import Protocol, load_protocol, pattern_space, roles_for
from .selection import SIDES, value_functions
from .terms import print_message
from .witness import analyze, render_table, to_json_lines

EXIT_OK = 0
EXIT_FILE = 1
EXIT_UNDECIDED = 2
EXIT_USAGE = 64

NO_DECISION_BANNER = (
    "no decision: the criterion is one-sided, a failed row neither proves nor\n"
    "refutes secrecy; the flagged values say where the bound could not be met"
)


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); usage is 64 here
        raise _Usage(message)


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="secwitness", description="Protocol secrecy criterion checker")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, run):
        sp.set_defaults(run=run)
        sp.add_argument("file", help="protocol description")
        sp.add_argument("--roles", choices=("auto", "manual"), default=None,
                        help="force computed or declared roles (default: declared when present)")

    sp = sub.add_parser("analyze", help="run the criterion on every send")
    add_common(sp, _cmd_analyze)
    sp.add_argument("--function", choices=sorted(SIDES), default="fmax",
                    help="bound to use (default fmax)")
    sp.add_argument("--format", choices=("table", "json-lines"), default="table")

    sp = sub.add_parser("check-wp", help="check the pattern space is well protected")
    add_common(sp, _cmd_check_wp)

    sp = sub.add_parser("roles", help="print role views and the pattern space")
    add_common(sp, _cmd_roles)

    sp = sub.add_parser("oracle", help="randomized checks against the attacker model")
    add_common(sp, _cmd_oracle)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--depth", type=int, default=4)
    sp.add_argument("--seed", type=int, default=0)
    return p


def _load(path: str) -> Protocol:
    try:
        return load_protocol(path)
    except OSError as err:
        raise AnalyzerError(f"cannot read {path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise AnalyzerError(f"cannot read {path}: not UTF-8 text ({err.reason} at byte {err.start})") from err


def _cmd_analyze(args) -> int:
    protocol = _load(args.file)
    report = analyze(protocol, function=args.function, roles=roles_for(protocol, args.roles))
    if args.format == "json-lines":
        print(to_json_lines(report))
    else:
        print(f"protocol {report.protocol or args.file} / function {report.function}")
        print(render_table(report))
    if report.fulfilled:
        return EXIT_OK
    print(NO_DECISION_BANNER, file=sys.stderr)
    return EXIT_UNDECIDED


def _cmd_check_wp(args) -> int:
    protocol = _load(args.file)
    pool = pattern_space(protocol, roles_for(protocol, args.roles))
    report = check_well_protected(pool, protocol.context)
    for pat in pool:
        print(f"  {print_message(pat)}")
    if report.ok:
        print("well protected: every guarded value sits under a strong enough key")
        return EXIT_OK
    for atom, msg, keyset in report.violations:
        keys = ", ".join(sorted(k.display() for k in keyset)) or "no key"
        print(f"unprotected: {atom.display()} in {print_message(msg)} (guards: {keys})")
    return EXIT_UNDECIDED


def _cmd_roles(args) -> int:
    protocol = _load(args.file)
    roles = roles_for(protocol, args.roles)
    for role in roles:
        print(f"{role.role_id} ({role.agent.display()}):")
        for st in role.steps:
            peer = f" [{st.peer.display()}]" if st.peer is not None else ""
            print(f"  {st.direction}{peer}: {print_message(st.message)}")
    print("pattern space:")
    for pat in pattern_space(protocol, roles):
        print(f"  {print_message(pat)}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    protocol = _load(args.file)
    ctx = protocol.context
    failed = False
    reports = check_full_invariance(value_functions(sorted(SIDES)),
                                    ctx, trials=args.trials, depth=args.depth, seed=args.seed)
    for name, rep in reports.items():
        status = "ok" if rep.ok else "FAILED"
        print(f"full-invariance[{name}]: {status} "
              f"({rep.trials} trials, {rep.truncated_trials} truncated)")
        for f in rep.failures[:3]:
            print(f"  counterexample: {f.atom} in {f.derived}: {f.detail}")
        failed |= not rep.ok
    messages = [s.message for s in protocol.steps]
    rep = check_non_disclosure(messages, ctx, depth=args.depth)
    status = "ok" if rep.ok else "FAILED"
    print(f"non-disclosure[one honest session]: {status}")
    for f in rep.failures[:3]:
        print(f"  disclosed: {f.atom}")
    for p in rep.precondition_failures[:3]:
        print(f"  precondition: {p}")
    failed |= not rep.ok
    return EXIT_UNDECIDED if failed else EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "oracle" and (args.trials < 1 or args.depth < 0):
            parser.error("oracle needs --trials of at least 1 and --depth of at least 0")
    except _Usage as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args)
    except AnalyzerError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FILE


def entry() -> None:
    """The console script: exits with main's code, or with 1 when stdout
    is closed before the report is written."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again on its way out; pointed at
        # devnull, that flush cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_FILE
    sys.exit(code)


if __name__ == "__main__":
    entry()
