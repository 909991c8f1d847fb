"""Command-line interface.

Every invocation builds one output record in the requested format
(plain, json, or csv) alone and writes it to stdout in one write.  A CSV
table is its cells joined by commas, unless a cell holds a comma, a double
quote, a carriage return or a line feed, or a row is one empty cell; then
``csv.writer`` writes it with the running interpreter's own quoting (3.13
quotes a carriage return, 3.10-3.12 do not).  Each call exits with:

    0  success
    1  domain error: pole, empty series window, or similar
    2  usage or literal-parse error
    3  a verification ran to completion and reported a failure
    4  two independent routes to one value disagreed (error[consistency]),
       which signals a bug in the package

Rationals on the command line use the literal form -?digits(/digits)?,
e.g. 3, -1/2, 7/3.  With option=value syntax (--lambda=-3/2) negative
values never collide with option parsing.

Each call parses its arguments once, one of two ways.  When the first
argument names a command other than ``series``, ``main`` tries the direct
parse, ``_parse_direct``: it reads the rest of the list from the actions
the command's subparser was built with, and fills the namespace that
subparser would fill.  It accepts one shape only: the command's
positionals, none starting with ``-``, then each option at most once under
its exact name, as ``--name value`` (a value not starting with ``-``) or
``--name=value``, every value taken through its action's type and choices
and every required option given.  Every other list, and any value its type
or choices reject, goes to the top-level argparse parser exactly as if
there were no direct parse, so every help text, usage line and error is
argparse's own.  Every command's namespace holds that command's parser,
which reports, with its usage line, the usage errors argparse does not:
``--`` read as a value (some argparse versions read ``--name=--`` as an
empty list) and the checks made after parsing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from .errors import (
    ConsistencyError,
    DomainError,
    PoleError,
    PrecisionExhaustedError,
    RationalParseError,
    ZeroSeriesError,
)
from .identities import VERIFY_OPTIONS, CheckRow, verify_target
from .rationals import format_rational, parse_rational
from .sequences import FAMILIES, Polynomial, apostol_bernoulli_series, sequence_value
from .series import recip_exp_linear
from .stirling import m_determinant, stirling1, stirling2

__all__ = ["VERIFY_CSV_HEADER", "build_parser", "main"]

# Command name -> (the library value it prints, its integer arguments, help
# line).  Each row looks its function up in this module when called, so a
# rebinding of the module name reaches the command.
_VALUE_COMMANDS = {
    "stirling2": (lambda *a: stirling2(*a), ("n", "k"), "Stirling number S(n, k), second kind"),
    "stirling1": (lambda *a: stirling1(*a), ("n", "k"), "signed Stirling number s(n, k), first kind"),
    "mdet": (lambda *a: m_determinant(*a), ("j", "k", "i"), "bordered Hessenberg determinant M_j(k, i)"),
}
# Command name -> (the sequence_value family it prints, help line).
_FAMILY_COMMANDS = {
    "bernoulli": ("bernoulli", "Bernoulli number B_n"),
    "apostol-bernoulli": ("apostol_bernoulli", "Apostol-Bernoulli number B_n(lambda)"),
    "euler-number": ("euler_number", "Euler number E_n"),
    "euler-poly": ("euler_polynomial", "Euler polynomial E_n(x)"),
    "two-param-euler": ("two_param_euler", "two-parameter Euler polynomial E_n(x; alpha, lambda)"),
}
# sequence_value parameter -> (option, the sequence_value keyword it sets,
# further add_argument settings).
_PARAMETER_OPTIONS = {
    "alpha": ("--alpha", "alpha", {"required": True}),
    "lambda": ("--lambda", "lam", {"required": True}),
    "x": ("--at", "x", {"default": None, "metavar": "AT", "help": "evaluate at this point"}),
}
VERIFY_CSV_HEADER = (
    "id",
    "k",
    "n",
    "alpha",
    "lambda",
    "order",
    "window_lo",
    "window_hi",
    "passed",
    "discrepancy_exponent",
    "discrepancy_lhs",
    "discrepancy_rhs",
)
_LAMBDA_ONE_NOTE = (
    "lambda = 1 is a pole of the closed form; B_n(1) = B_n is read from the "
    "generating series t/(e^t - 1)"
)

def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except RationalParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


# What the direct parse reads of one command: its positional actions in
# order (a tuple), each option action by its full name (a dict), the
# namespace a parse starts from (every action's default, and the subparser
# as ``parser``) and the required option actions (a frozenset).
_Spec = namedtuple("_Spec", ("positionals", "options", "defaults", "required"))


def _spec(p: argparse.ArgumentParser, actions) -> _Spec:
    """The spec of the subparser p from the actions its add_argument calls
    returned, the shared --format included; p is set as its own default
    ``parser``."""
    p.set_defaults(parser=p)
    return _Spec(
        tuple(action for action in actions if not action.option_strings),
        {name: action for action in actions for name in action.option_strings},
        {**{action.dest: action.default for action in actions}, "parser": p},
        frozenset(action for action in actions if action.option_strings and action.required),
    )


def build_parser() -> argparse.ArgumentParser:
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, dict[str, _Spec]]:
    """The top-level parser and the spec of each command but series."""
    common = argparse.ArgumentParser(add_help=False)
    fmt = common.add_argument(
        "--format",
        choices=("plain", "json", "csv"),
        default="plain",
        help="output format (default: plain)",
    )

    parser = argparse.ArgumentParser(
        prog="stirnum",
        description=(
            "Exact Stirling-number computation of Bernoulli/Euler-type "
            "families, with series-based verification"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    specs = {}

    for command, (_, names, help_line) in _VALUE_COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_line)
        specs[command] = _spec(p, [fmt, *(p.add_argument(name, type=int) for name in names)])

    for command, (family, help_line) in _FAMILY_COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_line)
        actions = [fmt, p.add_argument("n", type=int)]
        if command == "bernoulli":
            actions.append(p.add_argument(
                "--method",
                choices=("formula", "oracle"),
                default="oracle",
                help="closed Stirling form (even n >= 2 only) or generating series (default)",
            ))
        for name in FAMILIES[family]:
            option, keyword, settings = _PARAMETER_OPTIONS[name]
            actions.append(p.add_argument(option, dest=keyword, type=_rational, **settings))
        specs[command] = _spec(p, actions)

    # series names a nested command, which only argparse parses.
    p = sub.add_parser("series", help="inspect the underlying generating series")
    series_sub = p.add_subparsers(dest="series_command", required=True, metavar="action")
    p = series_sub.add_parser("dump", parents=[common], help="print a coefficient table")
    p.add_argument(
        "which",
        choices=("recip-exp-minus-one", "recip-exp-plus-one", "apostol"),
        help=(
            "1/(e^t-1), 1/(e^t+1), or the Apostol-Bernoulli generating "
            "function t/(lambda e^t - 1)"
        ),
    )
    p.add_argument("--lambda", dest="lam", type=_rational, default=None)
    p.add_argument("--order", type=int, required=True, help="truncation order of the source series")
    p.set_defaults(parser=p)

    p = sub.add_parser("verify", parents=[common], help="run identity verification sweeps")
    actions = [
        fmt,
        p.add_argument(
            "target",
            choices=tuple(VERIFY_OPTIONS),
            help="identity tag, named check, or 'all'",
        ),
        p.add_argument("--k-max", dest="k_max", type=int, default=8),
        p.add_argument("--alpha", type=_rational, default=None, help="restrict the parameter grid"),
        p.add_argument("--lambda", dest="lam", type=_rational, default=None, help="restrict the parameter grid"),
        p.add_argument("--order", type=int, default=None, help="override the truncation order"),
    ]
    specs["verify"] = _spec(p, actions)

    return parser, specs


# The parser main() shares across calls and each command's spec, built on
# the first call and not at import.  argparse keeps no per-parse state on a
# parser.
_parser = functools.cache(_build)


def _parse_direct(spec: _Spec, argv: Sequence[str]) -> argparse.Namespace | None:
    """The namespace the subparser of the command argv[0] fills from the
    rest of argv, if argv has the one shape this reads (module docstring)
    and every value passes its action's type and choices; else None."""
    count = len(spec.positionals) + 1
    if len(argv) < count or any(text.startswith("-") for text in argv[1:count]):
        return None
    given = dict(zip(spec.positionals, argv[1:count]))
    tokens = iter(argv[count:])
    for token in tokens:
        name, eq, text = token.partition("=")
        action = spec.options.get(name)
        if action is None:
            return None
        if not eq:
            # A missing value reads as one that starts with "-".
            text = next(tokens, "-")
            if text.startswith("-"):
                return None
        if action in given:
            return None
        given[action] = text
    if not spec.required.issubset(given):
        return None
    args = argparse.Namespace()
    values = vars(args)
    values.update(spec.defaults, command=argv[0])
    # argparse's own conversion: the type, whose TypeError, ValueError or
    # ArgumentTypeError is a usage error, then the choices.
    try:
        for action, text in given.items():
            value = action.type(text) if action.type else text
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return args


def _post_validate(args: argparse.Namespace) -> None:
    """The checks of series dump and verify that argparse cannot state,
    reported through that command's parser, args.parser."""
    if args.command == "series":
        if args.which == "apostol" and args.lam is None:
            args.parser.error("--lambda is required for the apostol series")
        if args.which != "apostol" and args.lam is not None:
            args.parser.error("--lambda applies only to the apostol series")
    if args.command == "verify" and args.k_max < 1:
        args.parser.error("--k-max must be >= 1")
    if getattr(args, "order", None) is not None and args.order < 1:
        args.parser.error("--order must be >= 1")
    if args.command == "verify":
        for name in _verify_options(args):
            if name not in VERIFY_OPTIONS[args.target]:
                args.parser.error(f"verify {args.target} does not read --{name}")


def _verify_options(args: argparse.Namespace) -> dict[str, object]:
    """The verify options given, by the names VERIFY_OPTIONS uses."""
    given = {"alpha": args.alpha, "lambda": args.lam, "order": args.order}
    return {name: value for name, value in given.items() if value is not None}


# -- output assembly ---------------------------------------------------------


# Both formatters test the exact type: isinstance(value, Fraction) goes
# through the numbers ABCs, several times slower on the ints most cells hold.
def _cell(value) -> str:
    """The plain and CSV text of one value: None is empty, a bool is
    lower case and a rational is its canonical literal."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return format_rational(value) if type(value) is Fraction else str(value)


def _json_value(value):
    """A rational as its canonical literal; any other value as it is."""
    return format_rational(value) if type(value) is Fraction else value


def _ok_output(fmt, argv, params, result, notes=(), exit_code=0) -> tuple[str, int]:
    """A command's success text in the format fmt, and its exit code;
    result is the JSON result, the CSV header and rows, or the plain text
    that the notes follow."""
    if fmt == "json":
        params = {name: _json_value(v) for name, v in params.items()}
        record = {"command": list(argv), "parameters": params, "result": result, "status": "ok"}
        if notes:
            record["notes"] = list(notes)
        return _json_text(record) + "\n", exit_code
    if fmt == "csv":
        return _csv_text(*result), exit_code
    return result + "".join(f"\nnote: {note}" for note in notes) + "\n", exit_code


def _value_output(fmt, argv, params, value, notes=()) -> tuple[str, int]:
    """A rational, or a polynomial as its coefficient table."""
    if isinstance(value, Polynomial):
        texts = [format_rational(c) for c in value.coeffs]
        if fmt == "json":
            result = {"coefficients": texts}
        elif fmt == "csv":
            result = (("degree", "coefficient"), [[str(i), text] for i, text in enumerate(texts)])
        else:
            powers = ["", "*x", *(f"*x^{i}" for i in range(2, len(texts)))]
            result = " + ".join(text + power for text, power in zip(texts, powers)) or "0"
    else:
        result = format_rational(value)
        if fmt == "csv":
            result = ((*params, "result"), [[*map(_cell, params.values()), result]])
    return _ok_output(fmt, argv, params, result, notes)


def _verify_row(row, fmt: str):
    """One verify row in the format asked for: its JSON record, plain line
    or CSV cells.  Each rational in the row becomes text once."""
    if isinstance(row, CheckRow):
        fields = {name: _json_value(v) for name, v in row.fields.items()}
        if fmt == "json":
            return {"check": row.check, **fields, "passed": row.passed}
        if fmt == "csv":
            fields["passed"] = row.passed
            return [row.check] + [_cell(fields.get(name)) for name in VERIFY_CSV_HEADER[1:]]
        line = " ".join([row.check] + [f"{name}={v}" for name, v in fields.items()])
        return line + (" ok" if row.passed else " FAIL")
    alpha, lam = _json_value(row.alpha), _json_value(row.lam)
    lo, hi = row.window
    e, lhs, rhs = row.first_discrepancy or (None, None, None)
    lhs, rhs = _json_value(lhs), _json_value(rhs)
    if fmt == "json":
        return {
            "identity_id": row.identity_id,
            "k": row.k,
            "alpha": alpha,
            "lambda": lam,
            "order": row.order,
            "window": [lo, hi],
            "passed": row.passed,
            "first_discrepancy": None if e is None else {"exponent": e, "lhs": lhs, "rhs": rhs},
        }
    if fmt == "csv":
        return [_cell(v) for v in (row.identity_id, row.k, None, alpha, lam, row.order)] + [
            _cell(v) for v in (lo, hi, row.passed, e, lhs, rhs)
        ]
    point = (f" alpha={alpha}" if alpha else "") + (f" lambda={lam}" if lam else "")
    line = f"{row.identity_id} k={row.k}{point} order={row.order} window=[{lo},{hi})"
    return line + (" ok" if row.passed else f" FAIL at t^{e}: lhs={lhs} rhs={rhs}")


def _error_output(fmt, argv, kind: str, message: str, exit_code: int = 1) -> tuple[str, int]:
    if fmt == "json":
        record = {"command": list(argv), "status": "error", "error_kind": kind, "message": message}
        return _json_text(record) + "\n", exit_code
    if fmt == "csv":
        return _csv_text(("status", "error_kind", "message"), [("error", kind, message)]), exit_code
    return f"error[{kind}]: {message}\n", exit_code


# -- handlers ----------------------------------------------------------------


def _handle_value(args, argv):
    function, names, _ = _VALUE_COMMANDS[args.command]
    params = {name: getattr(args, name) for name in names}
    return _value_output(args.format, argv, params, function(*params.values()))


def _handle_family(args, argv):
    family = _FAMILY_COMMANDS[args.command][0]
    # Only bernoulli has --method; every other command prints the closed form.
    provenance = getattr(args, "method", "formula")
    notes: tuple[str, ...] = ()
    if family == "apostol_bernoulli" and (args.n == 0 or args.lam == 1):
        # The closed form covers n >= 1 and has a pole at lambda = 1,
        # where B_n(1) = B_n is read from the generating series instead.
        provenance = "oracle"
        notes = (_LAMBDA_ONE_NOTE,) if args.n else ()
    keywords = [_PARAMETER_OPTIONS[name][1] for name in FAMILIES[family]]
    result = sequence_value(
        family, args.n, provenance, **{keyword: getattr(args, keyword) for keyword in keywords}
    )
    params = {"n": args.n, **dict(result.parameters)}
    if "method" in args:
        params["method"] = args.method
    return _value_output(args.format, argv, params, result.value, result.notes + notes)


def _handle_series_dump(args, argv):
    order = args.order
    if args.which == "apostol":
        series = apostol_bernoulli_series(args.lam, order)
        params = {"which": args.which, "lambda": args.lam, "order": order}
    else:
        c = -1 if args.which == "recip-exp-minus-one" else 1
        series = recip_exp_linear(1, 1, c, order)
        params = {"which": args.which, "order": order}
    pairs = [(e, format_rational(c)) for e, c in series.coefficients()]
    if args.format == "json":
        coefficients = [[e, text] for e, text in pairs]
        result = {"offset": series.offset, "precision": series.precision, "coefficients": coefficients}
    elif args.format == "csv":
        result = (("exponent", "coefficient"), [[str(e), text] for e, text in pairs])
    else:
        result = "\n".join(f"t^{e}: {text}" for e, text in pairs)
    return _ok_output(args.format, argv, params, result)


def _handle_verify(args, argv):
    rows = verify_target(args.target, args.k_max, args.alpha, args.lam, args.order)
    passed = sum(row.passed for row in rows)
    all_ok = passed == len(rows)
    params = {"target": args.target, "k_max": args.k_max, **_verify_options(args)}
    rendered = [_verify_row(row, args.format) for row in rows]
    if args.format == "json":
        result = {"passed": all_ok, "total": len(rows), "ok": passed, "checks": rendered}
    elif args.format == "csv":
        result = (VERIFY_CSV_HEADER, rendered)
    else:
        result = "\n".join([*rendered, f"{passed}/{len(rows)} ok"])
    return _ok_output(args.format, argv, params, result, exit_code=0 if all_ok else 3)


_HANDLERS = {
    **dict.fromkeys(_VALUE_COMMANDS, _handle_value),
    **dict.fromkeys(_FAMILY_COMMANDS, _handle_family),
    "series": _handle_series_dump,
    "verify": _handle_verify,
}


# The JSON text of each scalar a record holds, by exact type, so that a
# bool is never read as an int.
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the values of a record: dicts
    with string keys, lists, strings, ints, bools and None.  ``indent`` is
    the line break and indentation of the line that holds ``value``."""
    scalar = _JSON_SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = indent + "  "
    if type(value) is dict:
        items = [
            encode_basestring_ascii(key) + ": "
            + (scalar(item) if (scalar := _JSON_SCALARS.get(type(item))) else _json_text(item, inner))
            for key, item in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    items = [
        scalar(item) if (scalar := _JSON_SCALARS.get(type(item))) else _json_text(item, inner)
        for item in value
    ]
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


# A cell holding one of these, or a row of one empty cell, takes the csv
# module's quoting; every other table is its cells joined by commas.
_CSV_QUOTED = (",", '"', "\r", "\n")


def _csv_text(header, rows) -> str:
    """header and rows, each a sequence of strings, as the running
    interpreter's ``csv.writer`` writes them with a line feed after each."""
    table = [header, *rows]
    lines = [",".join(row) for row in table]
    cells = "".join(chain.from_iterable(table))
    if "" in lines or any(char in cells for char in _CSV_QUOTED):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(table)
        return buffer.getvalue()
    return "\n".join(lines) + "\n"


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, specs = _parser()
    spec = specs.get(argv[0]) if argv else None
    try:
        args = _parse_direct(spec, argv) if spec else None
        if args is None:
            args = parser.parse_args(argv)
            # No argument takes a list: one is "--" read as a value.
            if any(type(value) is list for value in vars(args).values()):
                args.parser.error("'--' cannot be a value")
        _post_validate(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        text, code = _HANDLERS[args.command](args, argv)
    except PoleError as exc:
        text, code = _error_output(args.format, argv, "pole", str(exc))
    except DomainError as exc:
        text, code = _error_output(args.format, argv, "domain", str(exc))
    except PrecisionExhaustedError as exc:
        text, code = _error_output(args.format, argv, "precision", str(exc))
    except ZeroSeriesError as exc:
        text, code = _error_output(args.format, argv, "zero-series", str(exc))
    except ConsistencyError as exc:
        text, code = _error_output(args.format, argv, "consistency", str(exc), 4)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
