"""History independence at the command line.

The one process-wide store of bases and ladders, ``series._LADDERS``,
makes every answer depend, in principle, on the calls made before it in
the process.  These tests run one fixed list of command lines through
``cli.main`` in one process, in three orders and under three budgets, and
check that each command prints what it prints on a cold store.  CI runs
the same list, ``COMMANDS``, as fresh processes and in one process, and
checks that both print the same bytes.
"""

import contextlib
import io
import random
import shlex
from unittest import mock

import pytest

from stirnum import cli, series

# The one lambda of the G checks, shared with `series dump apostol`.
LAMBDA = "--lambda 2/3"

COMMANDS = [
    # the short windows: orders 1 to 3 raise or read ladders they do not store
    *[
        f"verify {target} --k-max 2 --order {order}"
        for order in (1, 2, 3)
        for target in (
            "I1",
            "I5",
            "I7",
            "P2",
            f"G1 --alpha=-3/2 {LAMBDA}",
            f"G2 --alpha 1 {LAMBDA}",
            # a dilated base with lambda + c = 0
            "G2 --alpha 2 --lambda 1",
        )
    ],
    "verify I7 --k-max 1 --order 3",
    f"verify G1 --k-max 2 --alpha=-3/2 {LAMBDA} --order 2",
    "verify G2 --k-max 2 --alpha 2 --lambda 1 --order 1",
    # both sides of the split, where the base build changes route
    *[f"verify all --k-max 2 --order {order} --alpha=-3/2 {LAMBDA}" for order in range(103, 107)],
    *[f"verify G1 --k-max 2 --alpha 1 {LAMBDA} --order {order}" for order in (103, 106)],
    "verify I1 --k-max 2 --order 106",
    # G1/G2 at one lambda, at alpha = 1 and alpha != 1, shorter and longer
    f"verify G1 --k-max 4 --alpha 1 {LAMBDA}",
    f"verify G1 --k-max 6 --alpha=-3/2 {LAMBDA}",
    f"verify G2 --k-max 4 --alpha=-3/2 {LAMBDA} --format csv",
    f"verify G2 --k-max 6 --alpha 1 {LAMBDA} --format json",
    f"verify G1 --k-max 3 --alpha 2 {LAMBDA} --order 40",
    # stored powers read below the top they were built at, or dropped
    # when a longer check replaces their ladder
    "verify I6 --k-max 20",
    "verify I6 --k-max 3 --order 5",
    "verify I6 --k-max 3 --order 12",
    "verify P2 --k-max 14 --order 40",
    "verify P2 --k-max 6 --order 22",
    f"verify G2 --k-max 12 --alpha=-3/2 {LAMBDA}",
    f"verify G2 --k-max 2 --alpha=-3/2 {LAMBDA}",
    # every tag and named check at the default orders
    "verify all --k-max 4",
    "verify all --k-max 4 --format csv",
    "verify all --k-max 4 --format json",
    *[f"verify {check} --k-max 4" for check in ("det-relation", "alt-sum", "reductions")],
    # the reduction sweep and the two-parameter closed form, which share
    # the process-wide cache of alternating Stirling sums
    "verify reductions --k-max 12 --format csv",
    "verify reductions --k-max 3 --alpha=-3/7 --lambda 5/2",
    "two-param-euler 40 --alpha 2 --lambda 3",
    "verify reductions --k-max 6 --lambda 3",
    # the oracles, reading f = 1/(e^t - 1) at orders 103 to 109
    *[f"bernoulli {n}" for n in range(100, 107)],
    *[f"apostol-bernoulli {n} --lambda 1" for n in range(100, 107)],
    # long bases read off a longer stored build, or replaced by one
    "bernoulli 280",
    "bernoulli 150",
    f"series dump apostol {LAMBDA} --order 300 --format csv",
    f"series dump apostol {LAMBDA} --order 150 --format csv",
    f"series dump apostol {LAMBDA} --order 104 --format csv",
    "series dump recip-exp-minus-one --order 300 --format csv",
    # the bases themselves, G at alpha = 1 among them
    *[
        f"series dump {which} --order {order}"
        for order in (3, 103, 104, 300)
        for which in ("recip-exp-minus-one", f"apostol {LAMBDA}", "recip-exp-plus-one")
    ],
    # order 2, built without an error and not stored
    "series dump recip-exp-plus-one --order 2",
    f"series dump apostol {LAMBDA} --order 2",
    # error cases
    "series dump recip-exp-minus-one --order 1",
    "series dump recip-exp-minus-one --order 2",
    "series dump apostol --lambda 1 --order 2",
    "verify all --k-max 2 --lambda=-1",
    f"verify G1 --k-max 2 --alpha 0 {LAMBDA}",
    "verify G2 --k-max 2 --alpha 2 --lambda 0",
    "verify I1 --k-max 0",
    "apostol-bernoulli 2 --lambda 1/00",
    "series dump apostol --order 6",
]

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
