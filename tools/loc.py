"""Code lines of the ``stirnum`` package, per module and in all.

A code line is a line that holds at least one token of code: blank
lines, comments and docstrings do not count.  ``tokenize`` finds the
tokens and ``ast`` the docstrings, the string statements that open a
module, class or function body.

    python tools/loc.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers every docstring of ``tree`` spans."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in NOT_CODE:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in docstrings:
                lines.add(line)
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "stirnum").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6}  {path.name}")
    print(f"{total:6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
