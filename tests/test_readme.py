"""Every `$ stirnum ...` example in README.md, run through the CLI.

The output shown under a command must be exactly what the command prints;
where the shown output ends in a `...` line, it is a prefix of it.  A
following `$ echo $?` shows the command's exit code.
"""

import re
import shlex
from pathlib import Path

import pytest

import stirnum.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"
_SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.MULTILINE | re.DOTALL)


def readme_examples():
    """(argv, shown output lines, shown exit code or None) per example."""
    examples = []
    for block in _SH_BLOCK.findall(README.read_text(encoding="utf-8")):
        example, awaiting_code = None, False
        for line in block.splitlines():
            if awaiting_code:
                example[2], awaiting_code = int(line), False
            elif line.startswith("$ stirnum "):
                example = [shlex.split(line[len("$ stirnum "):]), [], None]
                examples.append(example)
            elif line == "$ echo $?":
                awaiting_code = True
            elif line.startswith("$ "):
                example = None
            elif example is not None:
                example[1].append(line)
    return [tuple(example) for example in examples]


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 9
    assert any(lines and lines[-1] == "..." for _, lines, _ in EXAMPLES)
    assert any(code is not None for _, _, code in EXAMPLES)


@pytest.mark.parametrize("argv, lines, code", EXAMPLES, ids=[" ".join(e[0]) for e in EXAMPLES])
def test_readme_example(capsys, argv, lines, code):
    exit_code = cli.main(argv)
    out = capsys.readouterr().out
    if lines and lines[-1] == "...":
        assert out.startswith("".join(f"{line}\n" for line in lines[:-1]))
    else:
        assert out == "".join(f"{line}\n" for line in lines)
    assert exit_code == (0 if code is None else code)
