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
CHANGES.md.  CI also runs every line as a fresh process of the installed
``stirnum`` and checks it against the same digests with ``digest_of``.
"""

import contextlib
import hashlib
import io
import shlex
from pathlib import Path
from unittest import mock

import pytest

from stirnum import cli, series

GOLDEN = Path(__file__).resolve().parent / "golden"
USAGE_ERROR = 2


def command_lines(lines: list[str]) -> list[str]:
    """The command lines among ``lines`` of the corpus, in order: every
    line that is not blank and not a comment."""
    return [line for line in lines if line and not line.startswith("#")]


def corpus_lines() -> list[str]:
    """The command lines of the whole corpus, in order."""
    return command_lines((GOLDEN / "commands.txt").read_text().splitlines())


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


def recorded_digests() -> list[str]:
    return (GOLDEN / "digests.txt").read_text().splitlines()


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
