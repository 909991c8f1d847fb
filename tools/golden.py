"""Rewrite ``tests/golden/digests.txt`` from the code of this tree.

Runs every line of ``tests/golden/commands.txt`` through ``stirnum.cli.main``
in order in one process, with the helpers of ``tests/test_golden.py``, and
writes one digest line per command line.  Regenerate only for a change of output that is
meant, never to make the test pass on a change that is not.

    python tools/golden.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import GOLDEN, corpus_lines, digest  # noqa: E402


def main():
    lines = [digest(line) for line in corpus_lines()]
    (GOLDEN / "digests.txt").write_text("".join(line + "\n" for line in lines))
    print(f"{len(lines)} digests written to {GOLDEN / 'digests.txt'}")


if __name__ == "__main__":
    main()
