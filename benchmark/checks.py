"""Correctness checks built apart from the analyzer.

Nothing here imports the analyzer.  Levels, verdicts, role listings and the
attacker closure are recomputed from the printed output and the protocol
text with code of the benchmark's own, so a check cannot pass merely
because the analyzer agrees with itself.  Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
from typing import Optional

# ---------------------------------------------------------------------------
# The security lattice: a level is the set of principals that may read a
# value, None standing for bottom (everyone).  The empty set is top.

Level = Optional[frozenset]


def level_from_json(obj: dict) -> Level:
    if obj.get("bottom"):
        return None
    return frozenset(obj["members"])


def meet(a: Level, b: Level) -> Level:
    if a is None or b is None:
        return None
    return a | b


def geq(a: Level, b: Level) -> bool:
    """a is at least as restrictive as b."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


def _row_key(rec: dict) -> tuple:
    return (rec["role"], rec["atom"], rec["variable"])


# ---------------------------------------------------------------------------
# analyze output


def parse_json_lines(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def check_rows(records: list[dict], exit_code: int) -> list[str]:
    """Recomputes every verdict and blame set from the row's own levels, and
    checks the exit code: 0 exactly when every row is Fulfilled, else 2."""
    problems = []
    if not records:
        problems.append("no rows")
    for rec in records:
        lower = level_from_json(rec["lowerBound"])
        estimate = level_from_json(rec["receptionEstimate"])
        if rec["variable"]:
            if not rec["atomLevel"].get("unknown"):
                problems.append(f"{rec['atom']}: variable row with a declared level")
            required = estimate
        else:
            required = meet(level_from_json(rec["atomLevel"]), estimate)
        fulfilled = geq(lower, required)
        if rec["verdict"] != ("Fulfilled" if fulfilled else "NotFulfilled"):
            problems.append(f"{rec['atom']} ({rec['role']}): verdict {rec['verdict']} "
                            f"but the levels say {'Fulfilled' if fulfilled else 'NotFulfilled'}")
        if fulfilled:
            blame: set = set()
        elif lower is None or required is None:
            blame = {rec["atom"]}
        else:
            blame = set(lower - required)
        if set(rec["blame"]) != blame:
            problems.append(f"{rec['atom']} ({rec['role']}): blame {rec['blame']}, expected {sorted(blame)}")
    all_ok = all(r["verdict"] == "Fulfilled" for r in records)
    if exit_code != (0 if all_ok else 2):
        problems.append(f"exit code {exit_code} with {'all' if all_ok else 'not all'} rows Fulfilled")
    return problems


def check_table(text: str, records: list[dict], protocol: str, function: str) -> list[str]:
    """The table shows the same rows, in the same order and with the same
    verdicts, as the json-lines records of the same run."""
    lines = text.splitlines()
    problems = []
    if not lines or lines[0] != f"protocol {protocol} / function {function}":
        return [f"table title {lines[:1]}"]
    body = lines[3:3 + len(records)]
    if len(body) != len(records):
        return [f"table has {len(body)} rows, json-lines {len(records)}"]
    for line, rec in zip(body, records):
        cells = line.split()
        atom = ("∀" if rec["variable"] else "") + rec["atom"]
        if (cells[0], cells[1], cells[-1]) != (atom, rec["role"], rec["verdict"]):
            problems.append(f"table row {line!r} disagrees with {atom} {rec['role']} {rec['verdict']}")
    tail = lines[3 + len(records):]
    failed = [r for r in records if r["verdict"] != "Fulfilled"]
    if len(tail) != len(failed) or not all(t.startswith("unjustified on ") for t in tail):
        problems.append(f"table lists {len(tail)} unjustified lines for {len(failed)} failed rows")
    return problems


def check_meet(fmax: list[dict], fek: list[dict], fn: list[dict]) -> list[str]:
    """fmax selects the union of what fek and fn select, so its bound and
    estimate are the meet of theirs on every row."""
    problems = []
    by_fek = {_row_key(r): r for r in fek}
    by_fn = {_row_key(r): r for r in fn}
    if set(by_fek) != {_row_key(r) for r in fmax} or set(by_fn) != set(by_fek):
        return ["the three functions give different row sets"]
    for r in fmax:
        a, b = by_fek[_row_key(r)], by_fn[_row_key(r)]
        for field in ("lowerBound", "receptionEstimate"):
            want = meet(level_from_json(a[field]), level_from_json(b[field]))
            if level_from_json(r[field]) != want:
                problems.append(f"{r['atom']} ({r['role']}): fmax {field} {r[field]} "
                                f"is not the meet of fek {a[field]} and fn {b[field]}")
    return problems


def check_paper_result(records: list[dict], exit_code: int, protocol: str) -> list[str]:
    """NS under fmax fails exactly one row, the responder's nonce, blamed on
    the stand-in A_3; NSL under fmax fulfils every row."""
    failed = [(r["atom"], r["role"], r["blame"]) for r in records if r["verdict"] != "Fulfilled"]
    if protocol == "NS":
        want, code = [("Nb^i", "B_G1", ["A_3"])], 2
    else:
        want, code = [], 0
    if failed != want or exit_code != code:
        return [f"{protocol} fmax: failed rows {failed}, exit {exit_code}; expected {want}, exit {code}"]
    return []


# ---------------------------------------------------------------------------
# check-wp and roles output


def check_wp(text: str, exit_code: int) -> list[str]:
    lines = text.splitlines()
    if exit_code != 0 or not lines or not lines[-1].startswith("well protected"):
        return [f"check-wp exit {exit_code}: {lines[-1:]}"]
    return []


_PEER = re.compile(r" \[[^\]]*\]:")


def role_views(text: str) -> list[str]:
    """The roles listing without the peer annotations that only computed
    views carry."""
    return [_PEER.sub(":", line) for line in text.splitlines()]


def check_roles(manual: str, auto: str, exit_manual: int, exit_auto: int) -> list[str]:
    if (exit_manual, exit_auto) != (0, 0):
        return [f"roles exit codes {exit_manual}, {exit_auto}"]
    if role_views(manual) != role_views(auto):
        return ["computed role views differ from the declared ones"]
    if "pattern space:" not in manual.splitlines():
        return ["roles listing has no pattern space"]
    return []


# ---------------------------------------------------------------------------
# oracle output

_INVARIANCE = re.compile(r"^full-invariance\[(\w+)\]: ok \((\d+) trials, (\d+) truncated\)$")


def check_oracle(text: str, exit_code: int, trials: int) -> list[str]:
    lines = text.splitlines()
    problems = []
    if exit_code != 0:
        problems.append(f"oracle exit {exit_code}")
    if len(lines) != 4:
        return problems + [f"oracle printed {len(lines)} lines"]
    for line, name in zip(lines[:3], ("fek", "fmax", "fn")):
        m = _INVARIANCE.match(line)
        if m is None or m.group(1) != name or int(m.group(2)) != trials:
            problems.append(f"oracle line {line!r}")
    if lines[3] != "non-disclosure[one honest session]: ok":
        problems.append(f"oracle line {lines[3]!r}")
    return problems


# ---------------------------------------------------------------------------
# An attacker closure of the benchmark's own: split pairs, decrypt under
# known inverse keys, to a fixpoint.  Messages are ("atom", name),
# ("cat", parts) or ("enc", body, key).

_TOKEN = re.compile(r"\s*(}_|[{}.]|[A-Za-z][A-Za-z0-9_^-]*)")


def parse_message(text: str):
    tokens = []
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot read {text!r} at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    out, rest = _parse_seq(tokens)
    if rest:
        raise ValueError(f"trailing {rest} in {text!r}")
    return out


def _parse_seq(tokens):
    parts = []
    while True:
        part, tokens = _parse_part(tokens)
        parts.append(part)
        if not tokens or tokens[0] != ".":
            break
        tokens = tokens[1:]
    return (parts[0] if len(parts) == 1 else ("cat", tuple(parts))), tokens


def _parse_part(tokens):
    if tokens[0] == "{":
        body, tokens = _parse_seq(tokens[1:])
        if tokens[0] != "}_":
            raise ValueError("expected }_")
        return ("enc", body, tokens[1]), tokens[2:]
    return ("atom", tokens[0]), tokens[1:]


def read_protocol(text: str) -> dict:
    """Principals, intruder, key inverses, levels and step messages."""
    proto = {"principals": [], "intruder": None, "inverse": {}, "levels": {}, "steps": []}
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    for stmt in (s.strip() for s in body.split(";")):
        if not stmt:
            continue
        head, _, rest = stmt.partition(" ")
        rest = rest.strip()
        if head == "principal":
            proto["principals"] += [n.strip() for n in rest.split(",")]
        elif head == "intruder":
            proto["intruder"] = rest
            proto["principals"].append(rest)
        elif head == "key":
            k, _, inv = rest.partition(" inv ")
            proto["inverse"][k.strip()] = inv.strip()
            proto["inverse"][inv.strip()] = k.strip()
        elif head == "level":
            name, _, members = rest.partition("=")
            proto["levels"][name.strip()] = frozenset(
                n.strip() for n in members.strip().strip("{}").split(",") if n.strip())
        elif head == "step":
            proto["steps"].append(parse_message(rest.split(":", 2)[2]))
    return proto


def _secret(proto: dict, name: str) -> bool:
    level = proto["levels"].get(name)
    return level is not None and proto["intruder"] not in level


def disclosed_by_one_session(text: str) -> list[str]:
    """Secrets an eavesdropper on one honest run of the protocol gets in the
    clear, starting from every name it may read."""
    proto = read_protocol(text)
    names = set(proto["principals"]) | set(proto["inverse"]) | set(proto["levels"])
    known = {("atom", n) for n in names if not _secret(proto, n)}
    known |= set(proto["steps"])
    changed = True
    while changed:
        changed = False
        for t in list(known):
            if t[0] == "cat":
                new = set(t[1]) - known
            elif t[0] == "enc" and ("atom", proto["inverse"].get(t[2], "")) in known:
                new = {t[1]} - known
            else:
                continue
            if new:
                known |= new
                changed = True
    return sorted(t[1] for t in known if t[0] == "atom" and _secret(proto, t[1]))
