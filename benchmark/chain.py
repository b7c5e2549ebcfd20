"""The n-party chain protocol and the rows the analyzer must produce for it.

Step i sends every nonce so far plus the sender's name to the next party:

    step i: P_i -> P_{i+1} : {N_1.….N_i.P_i}_k_{i+1}

and the last step goes back to P_1.  Each N_i is fresh by P_i at level
{P_1..P_n}, and k_i-1 is held by P_i alone.  Names carry no underscore
(P3, N3, k3), because the analyzer reads a trailing "_<digits>" as an
index of a stand-in copy.

The generator is deterministic in n and imports nothing from the analyzer.
"""

from __future__ import annotations


def party(i: int) -> str:
    return f"P{i}"


def nonce(i: int) -> str:
    return f"N{i}"


def key(i: int) -> str:
    return f"k{i}"


def chain_protocol(n: int) -> str:
    """Text of the n-party chain, n >= 2."""
    if n < 2:
        raise ValueError("a chain needs at least two parties")
    parties = [party(i) for i in range(1, n + 1)]
    everyone = ",".join(parties)
    lines = [f"# {n}-party chain: each step forwards every nonce so far.",
             f"protocol CHAIN{n};", "",
             f"principal {', '.join(parties)};", "intruder I;", ""]
    for i in range(1, n + 1):
        lines.append(f"key {key(i)} inv {key(i)}-1;")
    lines.append("key ki inv ki-1;")
    lines.append("")
    for i in range(1, n + 1):
        lines.append(f"fresh {nonce(i)} by {party(i)};")
    lines.append("")
    for i in range(1, n + 1):
        lines.append(f"level {nonce(i)} = {{{everyone}}};")
    for i in range(1, n + 1):
        lines.append(f"level {key(i)}-1 = {{{party(i)}}};")
    lines.append("level ki-1 = {I};")
    lines.append("")
    for i in range(1, n + 1):
        nxt = i % n + 1
        body = ".".join([nonce(j) for j in range(1, i + 1)] + [party(i)])
        lines.append(f"step {i}: {party(i)} -> {party(nxt)} : {{{body}}}_{key(nxt)};")
    return "\n".join(lines) + "\n"


def expected_row_keys(n: int) -> list[tuple[str, str, bool]]:
    """(role, atom, is_variable) of every row, in the analyzer's order.

    With computed roles, P_i (i >= 2) receives step i-1 and sends step i in
    its one view P_i_G1; P_1 sends step 1 in P1_G1 and receives step n in the
    trailing view P1_G2, whose one send repeats step 1 and adds no row.  A
    party cannot open another party's nonce, so it reaches it as a variable
    from one stream X, Y, Z, W, V, X2, … shared in party order, P_1 first
    (for the n-1 nonces of the last step); a party's own nonce is the
    session-marked N_i^i.  Every send of step i thus has i rows: the i-1
    variables it echoes and its own nonce.
    """
    stream = _var_names()
    for _ in range(n - 1):  # P_1's reading of the last step comes first
        next(stream)
    keys: list[tuple[str, str, bool]] = [(f"{party(1)}_G1", f"{nonce(1)}^i", False)]
    for i in range(2, n + 1):
        role = f"{party(i)}_G1"
        keys.extend((role, next(stream), True) for _ in range(i - 1))
        keys.append((role, f"{nonce(i)}^i", False))
    return keys


def _var_names():
    names = ("X", "Y", "Z", "W", "V")
    yield from names
    i = 2
    while True:
        for n in names:
            yield f"{n}{i}"
        i += 1


if __name__ == "__main__":
    import sys

    print(chain_protocol(int(sys.argv[1]) if len(sys.argv) > 1 else 8), end="")
