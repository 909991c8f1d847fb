"""Golden corpus: every command line of ``tests/golden/commands.txt``, run
in order through ``cli.main`` in one process, prints the bytes and exits
with the code recorded in ``tests/golden/digests.txt``, on the process
store of ladders as the earlier tests left it, on a fresh store of the same
budget and on a store that keeps nothing.

The digests pin the exit code and the sha256 of stdout and of stderr of
each line.  A usage error (exit 2) pins stdout and the exit code only:
argparse's usage and error text differ across Python versions.  The whole
corpus runs in about 2 s on each store on a 2-vCPU x86-64 host with
CPython 3.11; keep new lines within a 15 s budget a pass there.

``python tools/golden.py`` rewrites the digests from the tree it sits in.
Regenerate them only for a change of output that is meant, and name it in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import shlex
from pathlib import Path
from unittest import mock

import pytest

from stirnum import cli, series
from test_history import COMMANDS

GOLDEN = Path(__file__).resolve().parent / "golden"
USAGE_ERROR = 2


def corpus_lines() -> list[str]:
    """The command lines of the corpus, in order: every line that is not
    blank and not a comment."""
    text = (GOLDEN / "commands.txt").read_text()
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def digest(line: str) -> str:
    """'exit stdout-sha256 stderr-sha256' of one line run through
    ``cli.main``; a usage error's stderr reads '-'."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(line))
    stdout = hashlib.sha256(out.getvalue().encode()).hexdigest()
    stderr = "-" if code == USAGE_ERROR else hashlib.sha256(err.getvalue().encode()).hexdigest()
    return f"{code} {stdout} {stderr}"


def recorded_digests() -> list[str]:
    return (GOLDEN / "digests.txt").read_text().splitlines()


def test_the_corpus_holds_every_history_command():
    assert set(COMMANDS) <= set(corpus_lines())


# The budget of the store each pass runs on; None is the process store.
STORES = {"process": None, "fresh": series._LADDERS.budget, "keeps-nothing": 0}


@pytest.mark.parametrize("budget", STORES.values(), ids=STORES)
def test_every_line_prints_its_recorded_bytes(budget):
    lines, recorded = corpus_lines(), recorded_digests()
    assert len(recorded) == len(lines)
    store = series._LADDERS if budget is None else series._Ladders(budget)
    with mock.patch.object(series, "_LADDERS", store):
        changed = [line[:120] for line, want in zip(lines, recorded) if digest(line) != want]
    assert not changed, f"{len(changed)} of {len(lines)} lines changed: {changed}"
