"""Golden corpus: every command line of ``tests/golden/commands.txt``, run
through ``cli.main`` in one process, prints the bytes and exits with the
code recorded in ``tests/golden/digests.txt``, in three orders (forward,
reversed and one fixed shuffle) on four stores of ladders: the process
store as the earlier tests left it, a fresh store of the same budget, a
store of 2**17 bits and a store that keeps nothing.

The one process-wide store, ``series._LADDERS``, makes every answer
depend, in principle, on the lines run before it in the process.  A store
that keeps nothing runs each line as on a cold store, so one set of
digests pins that every line prints, after any other lines and on any
store, what it prints cold.  After every line the store's charged bits
must equal the sum of its entries' charges and stay within its budget.
The comments of the corpus say what each group of lines exercises.

The digests pin the exit code and the sha256 of stdout and of stderr of
each line.  A usage error (exit 2) pins stdout and the exit code only:
argparse's usage and error text differ across Python versions.  The whole
corpus runs in about 1.5 s a pass on a 2-vCPU x86-64 host with
CPython 3.11; keep new lines within a 15 s budget a pass there.

``python tools/golden.py`` rewrites the digests from the tree it sits in.
Regenerate them only for a change of output that is meant, and name it in
CHANGES.md.  CI also runs every line as a fresh process of the installed
``stirnum`` against the same digests, with ``check_fresh_processes``.
"""

import contextlib
import hashlib
import io
import random
import shlex
import subprocess
from pathlib import Path
from unittest import mock

import pytest

from stirnum import cli, series

GOLDEN = Path(__file__).resolve().parent / "golden"
USAGE_ERROR = 2


def corpus_lines() -> list[str]:
    """The command lines of the corpus, in order: every line that is not
    blank and not a comment."""
    lines = (GOLDEN / "commands.txt").read_text().splitlines()
    return [line for line in lines if line and not line.startswith("#")]


def recorded_digests() -> list[str]:
    return (GOLDEN / "digests.txt").read_text().splitlines()


def digest_of(code: int, stdout: bytes, stderr: bytes) -> str:
    """'exit stdout-sha256 stderr-sha256' of one line's exit code and
    output; a usage error's stderr reads '-'."""
    err = "-" if code == USAGE_ERROR else hashlib.sha256(stderr).hexdigest()
    return f"{code} {hashlib.sha256(stdout).hexdigest()} {err}"


def digest(line: str) -> str:
    """The ``digest_of`` one line run through ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(line))
    return digest_of(code, out.getvalue().encode(), err.getvalue().encode())


def process_digest(line: str) -> str | None:
    """The ``digest_of`` one line run as a fresh process of the installed
    ``stirnum``; None for a usage error whose stderr is not argparse's
    usage text or holds a traceback."""
    done = subprocess.run(["stirnum", *shlex.split(line)], capture_output=True)
    if done.returncode == USAGE_ERROR and (
        not done.stderr.startswith(b"usage: ") or b"Traceback" in done.stderr
    ):
        return None
    return digest_of(done.returncode, done.stdout, done.stderr)


def check_fresh_processes() -> None:
    """Every corpus line, run as a fresh process of the installed
    ``stirnum``, prints what its recorded digest pins."""
    lines = zip(corpus_lines(), recorded_digests(), strict=True)
    changed = [line for line, want in lines if process_digest(line) != want]
    assert not changed, f"{len(changed)} lines changed: {changed}"


LINES = list(zip(corpus_lines(), recorded_digests()))
# The recorded shuffle: a fixed seed gives the same order on every run.
ORDERS = {
    "forward": LINES,
    "reversed": LINES[::-1],
    "shuffled": random.Random(31).sample(LINES, len(LINES)),
}
# The budget of the store each pass runs on; None is the process store.
STORES = {"process": None, "fresh": series._LADDERS.budget, "2**17": 1 << 17, "keeps-nothing": 0}


def test_every_line_has_one_recorded_digest():
    assert len(recorded_digests()) == len(corpus_lines())


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("budget", STORES.values(), ids=STORES)
def test_every_line_prints_its_recorded_bytes(budget, order):
    store = series._LADDERS if budget is None else series._Ladders(budget)
    changed = []
    with mock.patch.object(series, "_LADDERS", store):
        for line, want in ORDERS[order]:
            if digest(line) != want:
                changed.append(line[:120])
            assert store.bits == sum(bits for _, bits in store._entries.values()) <= store.budget, line
    assert not changed, f"{len(changed)} of {len(LINES)} lines changed: {changed}"
