"""History independence at the command line.

The one process-wide store of bases and ladders, ``series._LADDERS``,
makes every answer depend, in principle, on the calls made before it in
the process.  These tests run one fixed list of command lines, ``COMMANDS``, the
section of the golden corpus ``tests/golden/commands.txt`` between its
history markers, through ``cli.main`` in one process, in three orders and
under three budgets, and check that each command prints what it prints on
a cold store.  The comments of that section say what each group of lines
exercises.
"""

import contextlib
import io
import random
import shlex
from unittest import mock

import pytest

from stirnum import cli, series
from test_golden import GOLDEN, command_lines


MARKERS = ("# history: begin", "# history: end")


def history_commands() -> list[str]:
    """The command lines of the golden corpus between its ``MARKERS``, in
    order."""
    lines = (GOLDEN / "commands.txt").read_text().splitlines()
    begin, end = map(lines.index, MARKERS)
    return command_lines(lines[begin + 1 : end])


COMMANDS = history_commands()

# The recorded shuffle: a fixed seed gives the same order on every run.
SHUFFLED = random.Random(31).sample(COMMANDS, len(COMMANDS))

ORDERS = {"forward": COMMANDS, "reversed": COMMANDS[::-1], "shuffled": SHUFFLED}


def run(line):
    """(exit code, stdout) of one command line run through ``cli.main``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(shlex.split(line))
    return code, out.getvalue()


@pytest.fixture(scope="module")
def cold_results(cold_store):
    results = {}
    for line in COMMANDS:
        with cold_store():
            results[line] = run(line)
    return results


@pytest.mark.parametrize("budget", [series._LADDERS.budget, 0, 1 << 17])
@pytest.mark.parametrize("order", list(ORDERS))
def test_one_process_prints_what_a_cold_store_prints(cold_results, order, budget):
    store = series._Ladders(budget)
    with mock.patch.object(series, "_LADDERS", store):
        for line in ORDERS[order]:
            assert run(line) == cold_results[line], line
            assert store.bits == sum(bits for _, bits in store._entries.values()) <= budget


def test_the_corpus_marks_one_history_section():
    lines = (GOLDEN / "commands.txt").read_text().splitlines()
    assert [lines.count(marker) for marker in MARKERS] == [1, 1]
    assert lines.index(MARKERS[0]) < lines.index(MARKERS[1])
    assert COMMANDS
