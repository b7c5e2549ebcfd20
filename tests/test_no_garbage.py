"""A command leaves no reference cycle behind: every object it makes is
freed by reference counting as soon as the run ends, not by the cycle
collector.  A nested function that calls itself is such a cycle."""

from __future__ import annotations

import gc

import pytest

from secwitness.cli import main
from secwitness.protocols import bundled
from test_shared_search import chain_text

COMMANDS = {
    "oracle": (bundled("ns"), ["oracle", "--trials", "10", "--depth", "4", "--seed", "0"]),
    "analyze": (bundled("ns"), ["analyze"]),
    "chain8 analyze": (chain_text(8), ["analyze"]),
}


@pytest.mark.parametrize("name", COMMANDS)
def test_a_command_leaves_no_garbage(name, tmp_path, capsys):
    text, (command, *options) = COMMANDS[name]
    path = tmp_path / "p.proto"
    path.write_text(text, encoding="utf-8")
    argv = [command, str(path), *options]
    main(argv)  # the warm-up fills what the first run caches for good
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        main(argv)
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    capsys.readouterr()
    assert left == []
