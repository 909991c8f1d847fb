"""Command-line interface.

Every invocation writes one output record to stdout in the requested
format (plain, json, or csv) and exits with:

    0  success
    1  domain error: pole, empty series window, or similar
    2  usage or literal-parse error
    3  a verification ran to completion and reported a failure

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
from json.encoder import encode_basestring_ascii

from .errors import (
    DomainError,
    PoleError,
    PrecisionExhaustedError,
    RationalParseError,
    ZeroSeriesError,
)
from .identities import VERIFY_OPTIONS, CheckRow, verify_target
from .rationals import format_rational, parse_rational
from .sequences import FAMILIES, Polynomial, apostol_bernoulli_series, sequence_value
from .series import LaurentSeries, recip_exp_linear
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


class CommandOutput:
    """What one command prints: its JSON record, plain text and CSV table,
    and the exit code."""

    __slots__ = ("record", "plain", "csv_header", "csv_rows", "exit_code")

    def __init__(
        self,
        record: dict,
        plain: str,
        csv_header: Sequence[str],
        csv_rows: Sequence[Sequence[str]],
        exit_code: int = 0,
    ):
        self.record = record
        self.plain = plain
        self.csv_header = csv_header
        self.csv_rows = csv_rows
        self.exit_code = exit_code


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
    values = dict(spec.defaults, command=argv[0])
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
    return argparse.Namespace(**values)


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


def _ok_output(
    argv, params, result, plain, csv_header, csv_rows, notes=(), exit_code=0
) -> CommandOutput:
    """The success record of every command; notes follow the result."""
    record = {
        "command": list(argv),
        "parameters": {name: _json_value(v) for name, v in params.items()},
        "result": result,
        "status": "ok",
    }
    if notes:
        record["notes"] = list(notes)
        plain += "".join(f"\nnote: {note}" for note in notes)
    return CommandOutput(record, plain, csv_header, csv_rows, exit_code)


def _value_output(argv, params, value, notes=()) -> CommandOutput:
    """A rational, or a polynomial as its coefficient table."""
    if isinstance(value, Polynomial):
        texts = [format_rational(c) for c in value.coeffs]
        powers = ["", "*x", *(f"*x^{i}" for i in range(2, len(texts)))]
        plain = " + ".join(text + power for text, power in zip(texts, powers)) or "0"
        rows = [[str(i), text] for i, text in enumerate(texts)]
        return _ok_output(
            argv, params, {"coefficients": texts}, plain, ["degree", "coefficient"], rows, notes
        )
    text = format_rational(value)
    row = [_cell(v) for v in params.values()] + [text]
    return _ok_output(argv, params, text, text, [*params, "result"], [row], notes)


def _series_output(argv, params, series: LaurentSeries) -> CommandOutput:
    pairs = [(e, format_rational(c)) for e, c in series.coefficients()]
    result = {
        "offset": series.offset,
        "precision": series.precision,
        "coefficients": [[e, text] for e, text in pairs],
    }
    plain = "\n".join(f"t^{e}: {text}" for e, text in pairs)
    rows = [[str(e), text] for e, text in pairs]
    return _ok_output(argv, params, result, plain, ["exponent", "coefficient"], rows)


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


def _error_output(argv, kind: str, message: str) -> CommandOutput:
    record = {
        "command": list(argv),
        "status": "error",
        "error_kind": kind,
        "message": message,
    }
    plain = f"error[{kind}]: {message}"
    return CommandOutput(record, plain, ["status", "error_kind", "message"], [["error", kind, message]], 1)


# -- handlers ----------------------------------------------------------------


def _handle_value(args, argv):
    function, names, _ = _VALUE_COMMANDS[args.command]
    params = {name: getattr(args, name) for name in names}
    return _value_output(argv, params, function(*params.values()))


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
    return _value_output(argv, params, result.value, result.notes + notes)


def _handle_series_dump(args, argv):
    order = args.order
    if args.which == "apostol":
        series = apostol_bernoulli_series(args.lam, order)
        params = {"which": args.which, "lambda": args.lam, "order": order}
    else:
        c = -1 if args.which == "recip-exp-minus-one" else 1
        series = recip_exp_linear(1, 1, c, order)
        params = {"which": args.which, "order": order}
    return _series_output(argv, params, series)


def _handle_verify(args, argv):
    rows = verify_target(args.target, args.k_max, args.alpha, args.lam, args.order)
    passed = sum(row.passed for row in rows)
    all_ok = passed == len(rows)
    params = {"target": args.target, "k_max": args.k_max, **_verify_options(args)}
    # Only the format that is printed is built; the other two stay empty.
    rendered = [_verify_row(row, args.format) for row in rows]
    checks = rendered if args.format == "json" else []
    result = {"passed": all_ok, "total": len(rows), "ok": passed, "checks": checks}
    plain = "\n".join([*rendered, f"{passed}/{len(rows)} ok"]) if args.format == "plain" else ""
    csv_rows = rendered if args.format == "csv" else []
    exit_code = 0 if all_ok else 3
    return _ok_output(argv, params, result, plain, VERIFY_CSV_HEADER, csv_rows, exit_code=exit_code)


_HANDLERS = {
    **dict.fromkeys(_VALUE_COMMANDS, _handle_value),
    **dict.fromkeys(_FAMILY_COMMANDS, _handle_family),
    "series": _handle_series_dump,
    "verify": _handle_verify,
}


def _json_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` for the values of a record: dicts
    with string keys, lists, strings, ints, bools and None.  ``indent`` is
    the line break and indentation of the line that holds ``value``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(key)}: {_json_text(item, inner)}" for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    items = [_json_text(item, inner) for item in value]
    return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"


def _emit(out: CommandOutput, fmt: str) -> None:
    if fmt == "json":
        print(_json_text(out.record))
    elif fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(out.csv_header)
        writer.writerows(out.csv_rows)
        sys.stdout.write(buffer.getvalue())
    else:
        print(out.plain)


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
        out = _HANDLERS[args.command](args, argv)
    except PoleError as exc:
        out = _error_output(argv, "pole", str(exc))
    except DomainError as exc:
        out = _error_output(argv, "domain", str(exc))
    except PrecisionExhaustedError as exc:
        out = _error_output(argv, "precision", str(exc))
    except ZeroSeriesError as exc:
        out = _error_output(argv, "zero-series", str(exc))
    _emit(out, args.format)
    return out.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
