"""Command-line interface: formats, exit codes, and record shapes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
import types
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stirnum.cli as cli
import stirnum.sequences as sequences_module
from stirnum.cli import VERIFY_CSV_HEADER
from stirnum.identities import (
    _NAMED_CHECKS,
    VERIFY_OPTIONS,
    CheckRow,
    VerificationReport,
    core_identity_coefficients,
    default_order,
    verify_core_identity,
    verify_general_derivative,
    verify_general_power,
    verify_target,
)
from stirnum.rationals import format_rational
from stirnum.sequences import (
    FAMILIES,
    apostol_bernoulli_formula,
    apostol_bernoulli_oracle,
    apostol_bernoulli_series,
    bernoulli_formula,
    bernoulli_oracle,
    euler_number,
    euler_polynomial_formula,
    euler_polynomial_oracle,
    two_param_euler_formula,
    two_param_euler_oracle,
)
from stirnum.series import recip_exp_linear
from stirnum.stirling import m_determinant, stirling1, stirling2, stirling2_explicit


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def assert_command_usage_error(err, argv, message):
    """err is message as the parser of the command argv names reports it:
    that command's usage line first and its prog before the message."""
    prog = "stirnum series dump" if argv[0] == "series" else "stirnum verify"
    assert err.startswith(f"usage: {prog} ")
    assert err.endswith(f"{prog}: error: {message}\n")


# sha256 of `series dump NAME --order N --format F` (apostol at
# --lambda=-3/2), pinned before LaurentSeries moved to integer numerators
# over one denominator.  Order 120 runs the factorial-scaled kernels.
SERIES_DUMP_DIGESTS = {
    "recip-exp-minus-one": {
        ("40", "plain"): "de1a1940dfcbb1eb5b58e290d0f7d68933f7d8bc156e792e5817f7c5dc557ebb",
        ("40", "json"): "222bcbbd87aaff2845a1a3942f97c54191716ed18c445cde34108a8a8a3d2d09",
        ("40", "csv"): "7903963ee34dc47035b870205465f628aba9778d2e88f5ad4a162ba0ce5a1e1c",
        ("120", "plain"): "7a01457903038fdc63545dc832573ffb88c309e87a9c8d63f9064c425026f767",
        ("120", "json"): "6963268a27fd17ffe5f4cffb09792441eb2a57110c3c07ac367f845e1436fa2d",
        ("120", "csv"): "a107a95913271654f99ac2e41cc90f23b9d35c24152683428cc0b373279a801c",
    },
    "recip-exp-plus-one": {
        ("40", "plain"): "0c791d4833b761ed14190975c605fd4e743737d99196b1b0180c33488ca5b8a2",
        ("40", "json"): "4422a8c5e3aa6e353fb52a7b9a340e4d0dd7ff00f3cc738a6e4dbab38e7281f4",
        ("40", "csv"): "52e7b4b5420a5d68299d9d98a1adf240dded771ee26d89b48e70d421d43a2eb2",
        ("120", "plain"): "275a5a1db456c4ae1805f6131501e47ac55a0a6ae5ee04e4fef96c8b3607497b",
        ("120", "json"): "23239ac4a4350ff8ee7f065f5aadbc98d86fe3d7435d35137ae2ea04bbdec022",
        ("120", "csv"): "470b6d9a0e9405c71717e620b2c46380c8a9ed71dfe55a78dc77e8bff656c161",
    },
    "apostol": {
        ("40", "plain"): "d69d74f71e19f7abdf764a3f7f9e3574811915e4c7d8c79769a7d851ba0591ef",
        ("40", "json"): "444a433f6cf48bcd130571ad5b3ab8298c153d8623e926a51db4b6eba5645809",
        ("40", "csv"): "c7a63d6955d1a27323e66f2e5d373f513732d771bad329d35ada64eaef862ed1",
        ("120", "plain"): "9486acffe8e567199ef697c9b18ee4a8b787809677077a4a8a3d9a834510435c",
        ("120", "json"): "b840f0c857b6da236eef9377c30b24923b7bd4d7a3dfb63d1378b1dce0057fb8",
        ("120", "csv"): "9b60a80e7eaa6530e670446dfa3898f329431be4e472ab6b6df7b3f1474b6378",
    },
}

BERNOULLI_FORMULA_DOMAIN = (
    "error[domain]: the closed form covers even indices >= 2 only; use the oracle\n"
)

# One call of each integer command: its arguments, parameters and value.
VALUE_COMMANDS = [
    (["stirling2", "5", "3"], {"n": 5, "k": 3}, "25"),
    (["stirling1", "5", "2"], {"n": 5, "k": 2}, "-50"),
    (["mdet", "3", "4", "2"], {"j": 3, "k": 4, "i": 2}, "11/6"),
]
VALUE_IDS = [argv[0] for argv, _, _ in VALUE_COMMANDS]


class TestScalarCommands:
    def test_stirling2_plain(self, capsys):
        code, out, _ = run(capsys, "stirling2", "5", "3")
        assert code == 0
        assert out == "25\n"

    def test_stirling1_plain(self, capsys):
        code, out, _ = run(capsys, "stirling1", "5", "2")
        assert code == 0
        assert out == "-50\n"

    def test_mdet(self, capsys):
        code, out, _ = run(capsys, "mdet", "1", "3", "3")
        assert code == 0
        assert out == "1/2\n"

    @pytest.mark.parametrize("argv, params, value", VALUE_COMMANDS, ids=VALUE_IDS)
    def test_value_command_json(self, capsys, argv, params, value):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["parameters"] == params
        assert record["result"] == value
        assert record["status"] == "ok"
        assert record["command"][0] == argv[0]

    @pytest.mark.parametrize("argv, params, value", VALUE_COMMANDS, ids=VALUE_IDS)
    def test_value_command_csv(self, capsys, argv, params, value):
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows == [[*params, "result"], [*argv[1:], value]]

    def test_value_commands_call_the_module_names(self, capsys, monkeypatch):
        # Each command looks its function up in stirnum.cli when called, so
        # a rebinding there (the benchmark tracer's wrappers) reaches it.
        calls = []
        for name in ("stirling2", "stirling1", "m_determinant"):
            monkeypatch.setattr(cli, name, lambda *a, name=name: calls.append((name, a)) or 7)
        for argv, _, _ in VALUE_COMMANDS:
            assert run(capsys, *argv) == (0, "7\n", "")
        assert calls == [("stirling2", (5, 3)), ("stirling1", (5, 2)), ("m_determinant", (3, 4, 2))]

    def test_bernoulli_plain(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "4", "--format", "plain")
        assert code == 0
        assert out == "-1/30\n"

    def test_bernoulli_methods_agree(self, capsys):
        code, oracle_out, _ = run(capsys, "bernoulli", "12")
        assert code == 0
        code, formula_out, _ = run(capsys, "bernoulli", "12", "--method", "formula")
        assert code == 0
        assert oracle_out == formula_out == "-691/2730\n"

    def test_bernoulli_formula_odd_rejected(self, capsys):
        code, out, _ = run(capsys, "bernoulli", "3", "--method", "formula")
        assert code == 1
        assert out == BERNOULLI_FORMULA_DOMAIN

    def test_apostol(self, capsys):
        code, out, _ = run(capsys, "apostol-bernoulli", "2", "--lambda", "2")
        assert code == 0
        assert out == "-4\n"

    def test_apostol_negative_lambda_equals_form(self, capsys):
        code, out, _ = run(capsys, "apostol-bernoulli", "1", "--lambda=-3/2")
        assert code == 0
        assert out == f"{Fraction(1) / Fraction(-5, 2)}\n"

    @pytest.mark.parametrize("n, value", [(0, "1"), (1, "-1/2"), (2, "1/6"), (3, "0"), (4, "-1/30")])
    def test_apostol_lambda_one_is_bernoulli(self, capsys, n, value):
        # B_n(1) = B_n, read from the series at the closed form's pole.
        code, out, _ = run(capsys, "apostol-bernoulli", str(n), "--lambda", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == value
        assert lines[0] == run(capsys, "bernoulli", str(n))[1].strip()
        note = "note: lambda = 1 is a pole of the closed form"
        assert [line.startswith(note) for line in lines[1:]] == ([True] if n else [])
        code, out, _ = run(capsys, "apostol-bernoulli", str(n), "--lambda", "1", "--format", "json")
        record = json.loads(out)
        assert (code, record["status"], record["result"]) == (0, "ok", value)

    def test_euler_number(self, capsys):
        code, out, _ = run(capsys, "euler-number", "6")
        assert code == 0
        assert out == "-61\n"


class TestPolynomialCommands:
    # The plain layout of a polynomial: the constant alone, then c*x and c*x^i.
    @pytest.mark.parametrize(
        "argv, text",
        [
            (["euler-poly", "0"], "1"),
            (["euler-poly", "2"], "0 + -1*x + 1*x^2"),
            (["two-param-euler", "1", "--alpha", "2", "--lambda", "3"], "-3/4 + 1/2*x"),
        ],
    )
    def test_polynomial_plain_layout(self, capsys, argv, text):
        assert run(capsys, *argv) == (0, text + "\n", "")

    def test_euler_poly_at(self, capsys):
        code, out, _ = run(capsys, "euler-poly", "2", "--at", "3")
        assert code == 0
        assert out == "6\n"

    def test_euler_poly_json(self, capsys):
        code, out, _ = run(capsys, "euler-poly", "3", "--format", "json")
        record = json.loads(out)
        assert record["result"]["coefficients"] == ["1/4", "0", "-3/2", "1"]

    def test_euler_poly_csv(self, capsys):
        code, out, _ = run(capsys, "euler-poly", "2", "--format", "csv")
        rows = parse_csv(out)
        assert rows[0] == ["degree", "coefficient"]
        assert rows[1:] == [["0", "0"], ["1", "-1"], ["2", "1"]]

    def test_two_param_notes_in_json(self, capsys):
        code, out, _ = run(
            capsys, "two-param-euler", "1", "--alpha", "1", "--lambda=-3", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record["result"]["coefficients"] == ["3/2", "-1"]
        assert record["notes"] and "outside" in record["notes"][0]

    def test_two_param_at(self, capsys):
        code, out, _ = run(
            capsys, "two-param-euler", "1", "--alpha", "1", "--lambda", "1", "--at", "1/2"
        )
        assert code == 0
        assert out == "0\n"


def decimal_text(n):
    """Decimal text of an int of any length, in chunks of 1,000 digits that
    each stay under the interpreter's int/str digit cap."""
    sign, n = ("-" if n < 0 else ""), abs(n)
    chunks = []
    while True:
        n, chunk = divmod(n, 10**1000)
        chunks.append(chunk)
        if not n:
            break
    return sign + str(chunks[-1]) + "".join(f"{c:01000d}" for c in reversed(chunks[:-1]))


class TestLongNumbers:
    """Inputs and results past the interpreter's 4,300-digit int/str cap."""

    # x = 1 3...3 (1,500 digits) = (4 * 10**1499 - 1) / 3
    X_TEXT = "1" + "3" * 1499
    X = (4 * 10**1499 - 1) // 3

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    def test_euler_poly_at_long_point(self, capsys, fmt):
        # E_3(x) = x**3 - 3/2 x**2 + 1/4, about 4,500 digits over 4.
        x = self.X
        value = Fraction(x**3) - Fraction(3, 2) * x**2 + Fraction(1, 4)
        text = decimal_text(value.numerator) + "/" + decimal_text(value.denominator)
        assert len(text) > 4300
        code, out, _ = run(capsys, "euler-poly", "3", "--at", self.X_TEXT, "--format", fmt)
        assert code == 0
        if fmt == "plain":
            assert out == text + "\n"
        elif fmt == "json":
            record = json.loads(out)
            assert record["parameters"]["x"] == self.X_TEXT
            assert record["result"] == text
        else:
            assert parse_csv(out) == [["n", "x", "result"], ["3", self.X_TEXT, text]]

    def test_long_lambda_literal(self, capsys):
        # B_1(lam) = 1/(lam - 1) at lam = 7...7 (5,000 digits).
        sevens = "7" * 5000
        code, out, _ = run(capsys, "apostol-bernoulli", "1", "--lambda", sevens, "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["parameters"]["lambda"] == sevens
        assert record["result"] == "1/" + "7" * 4999 + "6"


    # alpha = 1 3...3 and lambda = -2 3...3/7, numerators of 4,401 digits.
    ALPHA_TEXT = "1" + "3" * 4400
    LAMBDA_TEXT = "-2" + "3" * 4400 + "/7"

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize(
        "alpha, lam", [(ALPHA_TEXT, "2"), ("2", LAMBDA_TEXT)], ids=["long-alpha", "long-lambda"]
    )
    def test_verify_general_identity_at_a_long_point(self, capsys, fmt, alpha, lam):
        argv = ["verify", "G1", "--k-max", "1", f"--alpha={alpha}", f"--lambda={lam}"]
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0 and err == ""
        if fmt == "plain":
            line, total = out.splitlines()
            assert line.startswith(f"G1 k=1 alpha={alpha} lambda={lam} order=12 window=[")
            assert line.endswith(" ok") and total == "1/1 ok"
        elif fmt == "json":
            record = json.loads(out)
            assert record["parameters"]["alpha"] == alpha
            assert record["parameters"]["lambda"] == lam
            [check] = record["result"]["checks"]
            assert (check["alpha"], check["lambda"], check["passed"]) == (alpha, lam, True)
        else:
            header, cells = parse_csv(out)
            assert cells[:5] == ["G1", "1", "", alpha, lam]
            assert cells[8] == "true"

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_two_param_note_at_a_long_lambda(self, capsys, fmt):
        lam = "-" + self.ALPHA_TEXT
        argv = ["two-param-euler", "1", "--alpha", "2", f"--lambda={lam}", "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        note = (
            f"lambda = {lam} lies outside the positive range the family is stated "
            "for; the value is computed formally from the same expressions"
        )
        if fmt == "plain":
            assert out.endswith(f"\nnote: {note}\n")
        else:
            record = json.loads(out)
            assert record["parameters"]["lambda"] == lam
            assert record["notes"] == [note]


class TestSeriesDump:
    def test_recip_exp_minus_one(self, capsys):
        code, out, _ = run(capsys, "series", "dump", "recip-exp-minus-one", "--order", "8")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t^-1: 1"
        assert lines[1] == "t^0: -1/2"
        assert lines[2] == "t^1: 1/12"

    def test_recip_exp_plus_one_json(self, capsys):
        code, out, _ = run(
            capsys, "series", "dump", "recip-exp-plus-one", "--order", "6", "--format", "json"
        )
        record = json.loads(out)
        assert record["result"]["offset"] == 0
        assert record["result"]["coefficients"][0] == [0, "1/2"]

    def test_apostol_requires_lambda(self, capsys):
        argv = ["series", "dump", "apostol", "--order", "6"]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert_command_usage_error(err, argv, "--lambda is required for the apostol series")

    def test_lambda_rejected_elsewhere(self, capsys):
        argv = ["series", "dump", "recip-exp-minus-one", "--lambda", "2", "--order", "6"]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert_command_usage_error(err, argv, "--lambda applies only to the apostol series")

    def test_apostol_zero_lambda_is_domain_error(self, capsys):
        code, out, _ = run(capsys, "series", "dump", "apostol", "--lambda", "0", "--order", "5")
        assert code == 1
        assert out == "error[domain]: lambda must be nonzero\n"

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_apostol_bernoulli_zero_lambda_is_domain_error(self, capsys, n):
        # the closed form (n >= 1) and the series (n = 0) share one domain
        code, out, _ = run(capsys, "apostol-bernoulli", str(n), "--lambda", "0")
        assert code == 1
        assert out == "error[domain]: lambda must be nonzero\n"

    def test_apostol_dump(self, capsys):
        code, out, _ = run(capsys, "series", "dump", "apostol", "--lambda", "2", "--order", "7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t^1: 1"
        assert lines[1] == "t^2: -2"


class TestVerifyCommand:
    def test_single_identity_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "I3", "--k-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "3/3 ok"
        assert all("ok" in line for line in lines)

    def test_json_reports(self, capsys):
        code, out, _ = run(capsys, "verify", "I5", "--k-max", "2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        checks = record["result"]["checks"]
        assert [c["k"] for c in checks] == [1, 2]
        assert all(c["passed"] for c in checks)
        assert record["result"]["passed"] is True

    def test_general_identity_with_explicit_point(self, capsys):
        code, out, _ = run(
            capsys, "verify", "G1", "--k-max", "2", "--alpha", "2", "--lambda", "1/2"
        )
        assert code == 0
        assert "alpha=2" in out and "lambda=1/2" in out

    def test_det_relation_target(self, capsys):
        code, out, _ = run(capsys, "verify", "det-relation", "--k-max", "5", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows[0][0] == "id"
        assert all(row[8] == "true" for row in rows[1:])
        assert len(rows) - 1 == 15  # pairs with 1 <= k <= n <= 5

    def test_alt_sum_target(self, capsys):
        code, out, _ = run(capsys, "verify", "alt-sum", "--k-max", "4")
        assert code == 0
        assert out.splitlines()[-1] == "4/4 ok"

    def test_reductions_target(self, capsys):
        code, out, _ = run(capsys, "verify", "reductions", "--k-max", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "27/27 ok"  # 3 indices x 3 alphas x 3 lambdas

    def test_reductions_pole_parameter(self, capsys):
        code, out, _ = run(capsys, "verify", "reductions", "--k-max", "2", "--lambda=-1")
        assert code == 1
        assert "error[pole]" in out

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["--alpha", "0"], "error[domain]: alpha must be nonzero"),
            (["--alpha", "1", "--lambda=-1"], "error[pole]: lambda = -1 is a pole of the two-parameter family"),
            (["--alpha", "0", "--lambda=-1"], "error[domain]: alpha must be nonzero"),
        ],
    )
    def test_all_rejects_a_bad_reductions_grid_before_the_sweep(self, capsys, monkeypatch, grid, message):
        def no_sweep(*args):
            raise AssertionError("the tags were swept on a bad reductions grid")

        monkeypatch.setattr("stirnum.identities.run_sweep", no_sweep)
        assert run(capsys, "verify", "all", "--k-max", "12", *grid) == (1, message + "\n", "")

    def test_verify_all_smoke(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--k-max", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].endswith("ok")
        # 10 single-parameter identities, 2 general ones on a 5x5 grid,
        # 1 det pair, 1 alt-sum row, 2x3x3 reduction rows
        assert len(lines) - 1 == 10 + 2 * 25 + 1 + 1 + 18

    # sha256 of `verify all --k-max 6`, pinned before the sweep shared its
    # series ladders across k: every report, window and format is fixed.
    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("plain", "767bf32defa6b8c86eaacff0a74b51a7c9a2e639136e2bbbd4a59e3ef2fde039"),
            ("json", "fe7b575ce3dda02b5e411a2fbf89452ba6c9c578c5301c64b7f5ca95c4d9114b"),
            ("csv", "aa8404955eb0c3cc6c749fa13d289ae6a112b98742970b9431bfb5472ad49483"),
        ],
    )
    def test_verify_all_output_is_pinned(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "verify", "all", "--k-max", "6", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of sweeps over G grids, pinned before the alphas of each
    # (tag, k, order, lambda) shared one stored right side.
    @pytest.mark.parametrize(
        "command, digest",
        [
            ("verify all --k-max 40 --format csv", "ac4a520c6cab4a975d27fed77b177cc9547cfbaa2ef53fe30aa3eb4a8b880379"),
            (
                "verify G1 --k-max 12 --alpha=-3/2 --lambda=2/3 --format json",
                "af8262def2f96d96bc49c28d5d2de94dd1e5263c37b2cf782ac1a8edc43600dd",
            ),
            ("verify G2 --k-max 12 --format plain", "af0fb7b156f34e20c903c2c63a609635e4301e37414873769b93eb8ef7490b8b"),
        ],
    )
    def test_g_grid_output_is_pinned(self, capsys, command, digest):
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # sha256 of `verify reductions --k-max 12`, pinned before the closed
    # forms and Polynomial.evaluate moved to integer numerators.
    @pytest.mark.parametrize(
        "fmt, digest",
        [
            ("plain", "86c05777726aa94e5545ab0af7f451eb303be71daadb9c907f188bf3ba4f4342"),
            ("json", "0cb7aba845e66af4ff97a1bad3e20e040e1fd6838c3ec680d44db20bedc03b64"),
            ("csv", "f01945eacbd2eb500b94fb71f286a0f5a9ade695cba945880e6b212fe227038f"),
        ],
    )
    def test_verify_reductions_output_is_pinned(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "verify", "reductions", "--k-max", "12", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, order, fmt, digest",
        [
            (name, order, fmt, digest)
            for name, table in SERIES_DUMP_DIGESTS.items()
            for (order, fmt), digest in table.items()
        ],
    )
    def test_series_dump_output_is_pinned(self, capsys, name, order, fmt, digest):
        argv = ["series", "dump", name, "--order", order, "--format", fmt]
        if name == "apostol":
            argv.append("--lambda=-3/2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


    # sha256 of long-order scalar commands, pinned with
    # SERIES_DUMP_DIGESTS: `bernoulli 400` and `bernoulli 800` read order-404
    # and order-804 reciprocals on the factorial-scaled kernel,
    # `euler-number 280` the closed forms.
    @pytest.mark.parametrize(
        "command, digest",
        [
            ("bernoulli 400", "de79820c18545d39964843969b60fef6983265f57a6971b123080a418aaff6a6"),
            ("euler-number 280", "f7b900e9cee82a48361db29a09fc94e812b675e82e1030837c406b98571c5c77"),
            ("bernoulli 800", "b8de231f177bb88ce52df82c1103dc2cf6e2697c849b4ad61c1413f9ef1c7401"),
        ],
    )
    def test_long_order_output_is_pinned(self, capsys, command, digest):
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verification_failure_exits_three(self, capsys, monkeypatch):
        def fake(identity_id, k, order=None, coeff_override=None, **_):
            return VerificationReport(
                identity_id=identity_id,
                k=k,
                alpha=None,
                lam=None,
                order=12,
                window=(-1, 9),
                passed=False,
                first_discrepancy=(0, Fraction(1, 2), Fraction(1, 3)),
            )

        monkeypatch.setattr("stirnum.identities.verify_core_identity", fake)
        code, out, _ = run(capsys, "verify", "I1", "--k-max", "2")
        assert code == 3
        assert "FAIL at t^0" in out
        assert "0/2 ok" in out

    def test_failed_named_check_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "stirnum.identities.alternating_sum_checks", lambda k_max: [(1, True), (2, False)]
        )
        code, out, _ = run(capsys, "verify", "alt-sum", "--k-max", "2")
        assert code == 3
        assert out == "alt-sum n=1 ok\nalt-sum n=2 FAIL\n1/2 ok\n"

    def test_failure_row_in_csv(self, capsys, monkeypatch):
        def fake(identity_id, k, order=None, coeff_override=None, **_):
            return VerificationReport(
                identity_id, k, None, None, 12, (-1, 9), False, (2, Fraction(1), Fraction(0))
            )

        monkeypatch.setattr("stirnum.identities.verify_core_identity", fake)
        code, out, _ = run(capsys, "verify", "I2", "--k-max", "1", "--format", "csv")
        assert code == 3
        rows = parse_csv(out)
        assert rows[1][8] == "false"
        assert rows[1][9:12] == ["2", "1", "0"]


class TestVerifyRows:
    """One verify row as the command line renders it: the JSON record, the
    plain line and the CSV cells."""

    def test_report_shape(self):
        report = verify_general_power(2, Fraction(1, 2), Fraction(-5, 3))
        record, line = cli._verify_row(report, "json"), cli._verify_row(report, "plain")
        assert record["identity_id"] == "G2"
        assert record["k"] == 2
        assert record["alpha"] == "1/2"
        assert record["lambda"] == "-5/3"
        assert record["passed"] is True
        assert record["first_discrepancy"] is None
        json.dumps(record)  # must be serializable as-is
        assert line == "G2 k=2 alpha=1/2 lambda=-5/3 order=14 window=[-1,12) ok"

    def test_plain_line_mentions_discrepancy(self):
        weights = core_identity_coefficients("I1", 2)
        weights[0] += 1
        report = verify_core_identity("I1", 2, coeff_override=weights)
        line = cli._verify_row(report, "plain")
        assert line == "I1 k=2 order=14 window=[-3,9) FAIL at t^-1: lhs=0 rhs=1"

    def test_failure_record_is_serializable(self):
        weights = core_identity_coefficients("I4", 3)
        weights[2] -= Fraction(1, 3)
        report = verify_core_identity("I4", 3, coeff_override=weights)
        record = cli._verify_row(report, "json")
        assert record["passed"] is False
        e, lhs, rhs = report.first_discrepancy
        assert record["first_discrepancy"] == {
            "exponent": e, "lhs": format_rational(lhs), "rhs": format_rational(rhs)
        }
        json.dumps(record)

    def test_csv_cells_follow_the_header(self):
        weights = core_identity_coefficients("I1", 2)
        weights[0] += 1
        failed = verify_core_identity("I1", 2, coeff_override=weights)
        assert failed.first_discrepancy == (-1, 0, 1)
        assert cli._verify_row(failed, "csv") == [
            "I1", "2", "", "", "", "14", "-3", "9", "false", "-1", "0", "1"
        ]
        general = verify_general_derivative(1, Fraction(-3, 2), 2)
        assert cli._verify_row(general, "csv") == [
            "G1", "1", "", "-3/2", "2", "12", "-1", "10", "true", "", "", ""
        ]

    def test_check_row_shapes(self):
        point = {"n": 3, "alpha": Fraction(1, 2), "lambda": Fraction(-5, 3)}
        row = CheckRow("reductions", point, False)
        record, line, cells = (cli._verify_row(row, fmt) for fmt in ("json", "plain", "csv"))
        assert record == {
            "check": "reductions", "n": 3, "alpha": "1/2", "lambda": "-5/3", "passed": False
        }
        assert line == "reductions n=3 alpha=1/2 lambda=-5/3 FAIL"
        assert cells == ["reductions", "", "3", "1/2", "-5/3", "", "", "", "false", "", "", ""]
        row = CheckRow("det-relation", {"n": 4, "k": 2}, True)
        line, cells = cli._verify_row(row, "plain"), cli._verify_row(row, "csv")
        assert line == "det-relation n=4 k=2 ok"
        assert cells[:3] == ["det-relation", "2", "4"]
        assert len(cells) == len(VERIFY_CSV_HEADER)


# Family -> an accepted invocation of its command.
FAMILY_ARGV = {
    "bernoulli": ["bernoulli", "2"],
    "apostol_bernoulli": ["apostol-bernoulli", "2", "--lambda", "2"],
    "euler_number": ["euler-number", "2"],
    "euler_polynomial": ["euler-poly", "2"],
    "two_param_euler": ["two-param-euler", "2", "--alpha", "2", "--lambda", "3"],
}
# sequence_value parameter -> the family-command option that sets it.
PARAMETER_OPTIONS = {"alpha": "--alpha", "lambda": "--lambda", "x": "--at"}
UNREAD_OPTIONS = [
    (argv, option)
    for family, argv in FAMILY_ARGV.items()
    for name, option in PARAMETER_OPTIONS.items()
    if name not in FAMILIES[family]
]


class TestErrorsAndUsage:
    def test_pole_exit_code(self, capsys):
        code, out, _ = run(capsys, "two-param-euler", "3", "--alpha", "2", "--lambda=-1")
        assert code == 1
        assert out.startswith("error[pole]")

    def test_pole_json_record(self, capsys):
        code, out, _ = run(
            capsys, "two-param-euler", "2", "--alpha", "1", "--lambda=-1", "--format", "json"
        )
        assert code == 1
        record = json.loads(out)
        assert record["status"] == "error"
        assert record["error_kind"] == "pole"
        assert "result" not in record

    def test_domain_error(self, capsys):
        code, out, _ = run(capsys, "stirling2", "-4", "2")
        assert code == 1
        assert out.startswith("error[domain]")

    def test_precision_error(self, capsys):
        code, out, _ = run(capsys, "verify", "I1", "--k-max", "4", "--order", "9")
        assert code == 1
        assert out.startswith("error[precision]")

    @pytest.mark.parametrize("tag", ["I7", "I8"])
    def test_a_constant_past_the_window_gives_the_window_error(self, capsys, tag):
        code, out, _ = run(capsys, "verify", tag, "--k-max", "1", "--order", "3")
        assert code == 1
        assert out == f"error[precision]: {tag} k=1: window [-1,0) holds 1 shared coefficients, need 8; raise the order\n"

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "G1", "--alpha=0"], "alpha must be nonzero"),
            (["verify", "G2", "--lambda=0"], "lambda must be nonzero"),
        ],
    )
    def test_general_identity_domain_errors(self, capsys, argv, message, fmt):
        argv = argv + ["--format", fmt]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        if fmt == "plain":
            assert out == f"error[domain]: {message}\n"
        elif fmt == "json":
            assert json.loads(out) == {
                "command": argv,
                "status": "error",
                "error_kind": "domain",
                "message": message,
            }
        else:
            assert parse_csv(out) == [
                ["status", "error_kind", "message"],
                ["error", "domain", message],
            ]

    @pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
    @pytest.mark.parametrize(
        "n, name, fault, message",
        [
            # the even-index route disagrees with the half-point route
            ("4", "_euler_even_direct", lambda real: lambda n: Fraction(7), "euler_number(4): half-point route 5 != even-index route 7"),
            # E_n(1/2) off by 2**-(n+1): a non-integral value at odd n
            (
                "3",
                "euler_polynomial_formula",
                lambda real: lambda n: types.SimpleNamespace(evaluate=lambda x: real(n).evaluate(x) + Fraction(1, 2 ** (n + 1))),
                "euler_number(3) came out non-integral: 1/2",
            ),
        ],
    )
    def test_routes_that_disagree_exit_four(self, capsys, monkeypatch, n, name, fault, message, fmt):
        # Fault injection at each ConsistencyError of euler_number: the
        # command prints an error[consistency] record and exits 4.
        monkeypatch.setattr(sequences_module, name, fault(getattr(sequences_module, name)))
        argv = ["euler-number", n, "--format", fmt]
        code, out, err = run(capsys, *argv)
        assert code == 4 and err == ""
        if fmt == "plain":
            assert out == f"error[consistency]: {message}\n"
        elif fmt == "json":
            assert json.loads(out) == {
                "command": argv,
                "status": "error",
                "error_kind": "consistency",
                "message": message,
            }
        else:
            assert parse_csv(out) == [
                ["status", "error_kind", "message"],
                ["error", "consistency", message],
            ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["bernoulli", "-1"],
            ["bernoulli", "-2", "--method", "formula"],
            ["apostol-bernoulli", "-1", "--lambda", "2"],
            ["euler-number", "-3"],
            ["euler-poly", "-1"],
            ["euler-poly", "-2", "--at", "1/2"],
            ["two-param-euler", "-1", "--alpha", "2", "--lambda", "3"],
        ],
    )
    def test_negative_index_is_one_domain_error(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert out == f"error[domain]: family index must be >= 0, got {argv[1]}\n"

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_bernoulli_formula_outside_even_indices(self, capsys, n):
        code, out, _ = run(capsys, "bernoulli", str(n), "--method", "formula")
        assert code == 1
        assert out == BERNOULLI_FORMULA_DOMAIN

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "I1", "--order", "0"],
            ["verify", "det-relation", "--k-max", "3", "--order=-2"],
            ["series", "dump", "recip-exp-minus-one", "--order", "0"],
            ["verify", "I1", "--k-max", "0"],
        ],
    )
    def test_order_below_one_is_usage_error(self, capsys, argv):
        # The last option given is the one below one.
        option = [arg for arg in argv if arg.startswith("--")][-1].split("=")[0]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert_command_usage_error(err, argv, f"{option} must be >= 1")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["verify", "alt-sum", "--k-max", "2", "--alpha", "0", "--lambda=-1"], "alpha"),
            (["verify", "I1", "--k-max", "1", "--alpha", "0"], "alpha"),
            (["verify", "P2", "--k-max", "1", "--lambda", "2"], "lambda"),
            (["verify", "det-relation", "--k-max", "1", "--order", "5"], "order"),
            (["verify", "reductions", "--k-max", "1", "--order", "3"], "order"),
        ],
    )
    def test_option_the_target_does_not_read_is_usage_error(self, capsys, argv, option):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, out) == (2, "")
        assert_command_usage_error(err, argv, f"verify {argv[1]} does not read --{option}")

    def test_bad_rational_is_usage_error(self, capsys):
        code, _, err = run(capsys, "apostol-bernoulli", "2", "--lambda", "1.5")
        assert code == 2
        assert "usage" in err

    @pytest.mark.parametrize("literal", ["1/00", "0/000", "-3/0000"])
    def test_zero_padded_denominator_is_usage_error(self, capsys, literal):
        code, out, err = run(capsys, "apostol-bernoulli", "2", f"--lambda={literal}")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument --lambda: zero denominator: {literal!r}\n")

    @pytest.mark.parametrize(
        "argv, option", UNREAD_OPTIONS, ids=[f"{argv[0]} {option}" for argv, option in UNREAD_OPTIONS]
    )
    def test_option_the_family_does_not_read_is_usage_error(self, capsys, argv, option):
        code, out, err = run(capsys, *argv, option, "1")
        assert (code, out) == (2, "")
        assert err.endswith(f"error: unrecognized arguments: {option} 1\n")

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "apostol-bernoulli", "2")
        assert code == 2

    def test_unknown_verify_target(self, capsys):
        code, _, err = run(capsys, "verify", "I9")
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "stirnum" in out


# sha256 of `stirnum [COMMAND] --help` at 80 columns, pinned before the
# family commands were built from one table.  From Python 3.13 argparse
# widens the top-level command column to fit `apostol-bernoulli`, so that
# text has one pin per layout; the command help texts are the same on both.
# Every pin below was checked on CPython 3.13.0 and 3.13.13.
HELP_SHA256 = {
    (): (
        "797ad1c34e24a3547f208339543d0cf9e20270ca069c0f83e46861a917d170b8"
        if sys.version_info < (3, 13)
        else "34b9f3502e42643d89123a2a01f24cc5f7eb6eaaf49a68e3b69ca55dc3ad2147"
    ),
    ("bernoulli",): "1a739ca7d4a0f0d5a469504710f15cf54fe1ca5374ad524a0bfa0471915bcbb2",
    ("apostol-bernoulli",): "9407afc850b28df47908010268d867d4c3f5dacacdaf861a308f741604568871",
    ("euler-number",): "9eb84f787a542d8b40329d7e52356e126a30b7e7a60b28d59bc86b89634b3317",
    ("euler-poly",): "d76cdf24d87f0ad72475dd8f90e41ff809c672cf9c7cd83a019b4575f6a125ad",
    ("two-param-euler",): "e5e85c16ba08b8ff6700a598afb8f7c4bc633d747d44e685761b7a3325221e1a",
}


@pytest.mark.parametrize("command", HELP_SHA256, ids=lambda command: " ".join(command) or "stirnum")
def test_help_text_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *command, "--help")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_SHA256[command]


# One or more command lines of every command, their error records among
# them, for the JSON writer.
JSON_COMMANDS = [
    "stirling2 7 3",
    "stirling1 7 3",
    "mdet 3 5 2",
    "mdet 0 5 2",
    "bernoulli 12",
    "bernoulli 3 --method formula",
    "bernoulli 12 --method oracle",
    "apostol-bernoulli 5 --lambda 1",
    "apostol-bernoulli 4 --lambda=-2/3",
    "euler-number 8",
    "euler-poly 4",
    "euler-poly 4 --at 1/3",
    "two-param-euler 3 --alpha 2 --lambda 3",
    "two-param-euler 3 --alpha 2 --lambda=-1",
    "series dump apostol --lambda 2/3 --order 6",
    "series dump recip-exp-minus-one --order 5",
    "series dump recip-exp-minus-one --order 1",
    "verify all --k-max 2",
    "verify reductions --k-max 2 --alpha 2",
    "verify G2 --k-max 2 --alpha=-3/2 --lambda 2/3 --order 14",
    "verify I1 --k-max 1 --order 9",
    "verify G1 --k-max 1 --alpha 0 --lambda 1",
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=24,
)


class TestJsonWriter:
    """The command line's JSON writer prints what ``json.dumps(record,
    indent=2)`` prints, byte for byte."""

    @pytest.mark.parametrize("line", JSON_COMMANDS)
    def test_every_command_record(self, capsys, monkeypatch, line):
        # The writer's first value is the record; the lists and dicts in it
        # come through the same name after it.
        values = []
        real = cli._json_text
        monkeypatch.setattr(cli, "_json_text", lambda value, *rest: values.append(value) or real(value, *rest))
        _, out, _ = run(capsys, *line.split(), "--format", "json")
        record = values[0]
        assert record["command"] == line.split() + ["--format", "json"]
        assert out == json.dumps(record, indent=2) + "\n"

    @settings(max_examples=300)
    @given(json_values)
    def test_drawn_records(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)


# Cells from the characters the csv module quotes or not, non-ASCII text
# among them; a row may be empty or one empty cell.
csv_cells = st.text(st.sampled_from(',"\r\n ab1-/\u00e9\u20ac\u2028'), max_size=5) | st.text(max_size=3)
csv_rows = st.lists(csv_cells, max_size=4)


class TestCsvWriter:
    """The command line's CSV writer prints what ``csv.writer`` of the
    running interpreter prints with line feeds ending its rows."""

    @settings(max_examples=300)
    @given(csv_rows, st.lists(csv_rows, max_size=5))
    @example(["a", "b"], [["1", '"']])
    @example(["a"], [["x,y"]])
    @example(["a"], [["x\ry"]])
    @example(["a"], [["x\ny"]])
    @example(["a"], [[""], ["", ""], []])
    @example(["status", "error_kind", "message"], [["error", "domain", "n >= 0, got n=-1"]])
    def test_drawn_tables(self, header, rows):
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
        assert cli._csv_text(header, rows) == buffer.getvalue()

    def test_a_message_with_a_comma_is_quoted(self, capsys):
        code, out, _ = run(capsys, "stirling2", "-1", "2", "--format", "csv")
        assert code == 1
        assert out == 'status,error_kind,message\nerror,domain,"Stirling numbers need n >= 0, got n=-1"\n'


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("argv", [["stirling2", "10", "5"], ["stirling2", "-1", "2"], ["euler-poly", "3"]])
def test_one_write_per_command(argv, fmt):
    writes = []
    with mock.patch.object(sys, "stdout", types.SimpleNamespace(write=writes.append)):
        cli.main([*argv, "--format", fmt])
    assert len(writes) == 1 and writes[0].endswith("\n")


# 7...7 with 5,000 digits, past the interpreter's 4,300-digit int/str cap.
SEVENS = 7 * (10**5000 - 1) // 9


@pytest.mark.parametrize(
    "value, text",
    [(0, "0"), (-1, "-1"), (-(10**30), "-1" + "0" * 30), (True, "1"), (False, "0"), (SEVENS, "7" * 5000),
     (-SEVENS, "-" + "7" * 5000)],
    ids=["0", "-1", "-10**30", "True", "False", "sevens", "-sevens"],
)
def test_format_rational_of_an_int(value, text):
    assert format_rational(value) == text


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        first = run(capsys, "verify", "all", "--k-max", "1", "--format", "json")
        second = run(capsys, "verify", "all", "--k-max", "1", "--format", "json")
        assert first == second
        code, out, _ = first
        assert code == 0
        record = json.loads(out)
        assert record["status"] == "ok"
        checks = record["result"]["checks"]
        assert len(checks) == 80
        assert all(check["passed"] for check in checks)

    def test_csv_line_termination(self, capsys):
        _, out, _ = run(capsys, "stirling2", "4", "2", "--format", "csv")
        assert out == "n,k,result\n4,2,7\n"


class TestParserReuse:
    # One sequence of calls on the parser main() keeps: every command and
    # format, options given and then omitted, each exit path, argument
    # lists that name no command, and arguments left over after a command.
    SEQUENCE = [
        ["stirling2", "7", "3"],
        ["stirling1", "7", "3", "--format", "json"],
        ["mdet", "3", "4", "2", "--format", "csv"],
        ["bernoulli", "6", "--method", "formula"],
        ["bernoulli", "6"],
        ["apostol-bernoulli", "3", "--lambda", "2", "--format", "json"],
        ["euler-number", "8", "--format", "csv"],
        ["euler-poly", "3", "--at", "1/2"],
        ["euler-poly", "3"],
        ["two-param-euler", "2", "--alpha", "2", "--lambda", "3", "--at", "1/3"],
        ["two-param-euler", "2", "--alpha", "2", "--lambda", "3", "--format", "csv"],
        ["series", "dump", "apostol", "--lambda=-3/2", "--order", "6"],
        ["series", "dump", "recip-exp-plus-one", "--order", "6", "--format", "json"],
        ["verify", "G1", "--k-max", "2", "--alpha", "2", "--lambda", "1/2", "--order", "16"],
        ["verify", "G1", "--k-max", "1", "--format", "csv"],
        ["verify", "reductions", "--k-max", "1", "--lambda", "3", "--format", "json"],
        ["verify", "reductions", "--k-max", "1"],
        ["apostol-bernoulli", "2", "--lambda", "1.5"],
        ["series", "dump", "apostol", "--order", "6"],
        ["--help"],
        ["verify", "--help"],
        ["stirling2", "-4", "2"],
        ["stirling2", "5", "3", "--format", "plain"],
        [],
        ["nope"],
        ["--format", "json", "stirling2", "5", "3"],
        ["stirling2", "5", "3", "extra"],
        ["series", "dump", "recip-exp-plus-one", "--order", "6", "extra"],
        ["series"],
        ["series", "--help"],
        ["series", "dump", "--help"],
        ["mdet", "--", "3", "4", "2"],
        ["stirling2", "5", "3", "-h"],
    ]

    def test_shared_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        shared = [run(capsys, *argv) for argv in self.SEQUENCE]
        assert cli._parser() is cli._parser()
        # With no command mapping, main() parses every argument list with
        # the top-level parse_args, here on a parser built fresh per call.
        monkeypatch.setattr(cli, "_parser", lambda: (cli.build_parser(), {}))
        reference = [run(capsys, *argv) for argv in self.SEQUENCE]
        for argv, got, want in zip(self.SEQUENCE, shared, reference):
            assert got == want, argv
        assert {code for code, _, _ in reference} == {0, 1, 2}

    # The lines of SEQUENCE that name a command but not in the one shape
    # the direct parse reads: a value its type rejects, help, "--", a
    # stray word, a negative-looking token, and every series line.
    FALLBACKS = [
        ["apostol-bernoulli", "2", "--lambda", "1.5"],
        ["verify", "--help"],
        ["stirling2", "-4", "2"],
        ["stirling2", "5", "3", "extra"],
        ["mdet", "--", "3", "4", "2"],
        ["stirling2", "5", "3", "-h"],
        *(argv for argv in SEQUENCE if argv[:1] == ["series"]),
    ]

    def test_only_other_shapes_reach_the_top_level_parse(self, capsys, monkeypatch):
        # Each well-formed command line is parsed without argparse; each
        # line that falls back, and each line that names no command, calls
        # the top-level parse_args exactly once.
        parser, _ = cli._parser()
        calls = []
        top_level = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda argv: calls.append(argv) or top_level(argv))
        counts = {}
        for argv in self.SEQUENCE:
            calls.clear()
            run(capsys, *argv)
            counts[tuple(argv)] = len(calls)
        assert counts == {
            tuple(argv): int(argv in self.FALLBACKS or not argv or argv[0] not in cli._HANDLERS)
            for argv in self.SEQUENCE
        }

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()


# -- the direct parse against argparse ----------------------------------------

# The values each kind of argument meets: (valid ones, malformed ones).
# Among them are values that start with "-" and values that int() reads
# though they are no plain decimal (" 4", "+3", "1_0", an Arabic-Indic 3).
DIRECT_VALUES = {
    "int": (["0", "1", "2", "3", "5", "+3", " 4", "1_0", "\u0663", "-1"], ["-4", "x", "", "1.5", "--7"]),
    "rational": (["0", "1", "2", "1/2", "2/3", "+1", " 1", "-1", "-3/2"], ["1/0", "x", "", "--"]),
    "format": (["plain", "json", "csv"], ["xml", "JSON", ""]),
    "method": (["formula", "oracle"], ["other"]),
    "target": (["I1", "I8", "alt-sum", "det-relation", "reductions", "G1", "all"], ["bogus"]),
    "k_max": (["1", "2", "+2"], ["0", "-1", "x"]),
    "order": (["16", "9"], ["1", "0", "-2", "x"]),
    "action": (["dump"], ["bogus"]),
    "which": (["apostol", "recip-exp-minus-one", "recip-exp-plus-one"], ["other"]),
}
# Command -> (the kinds of its positionals, its options besides --format
# and the kind each reads).
DIRECT_COMMANDS = {
    "stirling2": (["int", "int"], {}),
    "stirling1": (["int", "int"], {}),
    "mdet": (["int", "int", "int"], {}),
    "bernoulli": (["int"], {"--method": "method"}),
    "apostol-bernoulli": (["int"], {"--lambda": "rational"}),
    "euler-number": (["int"], {}),
    "euler-poly": (["int"], {"--at": "rational"}),
    "two-param-euler": (["int"], {"--alpha": "rational", "--lambda": "rational", "--at": "rational"}),
    "series": (["action", "which"], {"--lambda": "rational", "--order": "order"}),
    "verify": (
        ["target"],
        {"--k-max": "k_max", "--alpha": "rational", "--lambda": "rational", "--order": "order"},
    ),
}
# Tokens put anywhere in a list: "--", help, abbreviations, options with
# an empty value, negative-looking tokens, and stray words.
STRAY_TOKENS = ["--", "-h", "--help", "--form", "--k", "--format=", "--lambda=", "-4", "-", "+7", " 8", "1_0", "", "extra"]


@st.composite
def direct_argvs(draw):
    """An argument list for one command: its positionals, then each of its
    options or not, in any order, under its full name or a prefix of it,
    as "--name value" or "--name=value", with repeats; some lists have a
    token dropped or stray tokens put in."""
    command = draw(st.sampled_from(sorted(DIRECT_COMMANDS)))
    positionals, options = DIRECT_COMMANDS[command]
    options = {"--format": "format", **options}

    def drawn(kind):
        valid, malformed = DIRECT_VALUES[kind]
        return draw(st.sampled_from(malformed if draw(st.integers(0, 4)) == 4 else valid))

    argv = [command, *map(drawn, positionals)]
    names = [name for name in draw(st.permutations(sorted(options))) if draw(st.integers(0, 2))]
    names += draw(st.lists(st.sampled_from(sorted(options)), max_size=2))
    for name in names:
        text = drawn(options[name])
        if draw(st.integers(0, 4)) == 4:
            name = name[: draw(st.integers(3, len(name) - 1))]
        argv += [f"{name}={text}"] if draw(st.booleans()) else [name, text]
    if len(argv) > 1 and draw(st.integers(0, 5)) == 5:
        del argv[draw(st.integers(1, len(argv) - 1))]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(STRAY_TOKENS)))
    return argv


def outcome(argv):
    """(exit code, stdout, stderr) of cli.main(argv), with the exception it
    raised, if any, in place of the exit code: the direct parse must leave
    even a crash as argparse alone gives it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = repr(exc)
    return code, out.getvalue(), err.getvalue()


def argparse_namespace(argv):
    """(vars of the namespace, leftover arguments) of argv parsed by the
    top-level parser main() shares; None on a usage error."""
    parser, _ = cli._parser()
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args, extras = parser.parse_known_args(argv)
    except SystemExit:
        return None
    return vars(args), extras


class TestDirectParse:
    def test_the_drawn_commands_are_the_parser_commands(self):
        _, specs = cli._parser()
        assert set(specs) == set(DIRECT_COMMANDS) - {"series"}
        for command, spec in specs.items():
            assert set(spec.options) == {"--format", *DIRECT_COMMANDS[command][1]}

    @settings(max_examples=400, deadline=None)
    @given(argv=direct_argvs())
    @example(argv=["stirling2", "5", "3", "--format", "xml"])
    @example(argv=["verify", "bogus", "--k-max", "1"])
    @example(argv=["stirling2", "5", "3", "--format", "json", "--format", "csv"])
    @example(argv=["verify", "I1", "--k-max=1", "--k-max", "2"])
    @example(argv=["two-param-euler", "2", "--alpha", "2", "--lambda=-3/2", "--at=1/2"])
    def test_the_direct_parse_is_argparse(self, argv):
        # A list the direct parse reads gets the namespace the top-level
        # parser gives it, with nothing left over; and every list, read or not,
        # prints and exits as it does with argparse alone.
        spec = cli._parser()[1].get(argv[0])
        direct = spec and cli._parse_direct(spec, argv)
        if direct is not None:
            assert argparse_namespace(argv) == (vars(direct), [])
        got = outcome(argv)
        with mock.patch.object(cli, "_parse_direct", lambda spec, argv: None):
            assert outcome(argv) == got


# Command -> a line it accepts, to which an option is appended.
ACCEPTED_ARGV = {
    "stirling2": ["stirling2", "5", "3"],
    "stirling1": ["stirling1", "5", "3"],
    "mdet": ["mdet", "3", "4", "2"],
    **{argv[0]: argv for argv in FAMILY_ARGV.values()},
    "series": ["series", "dump", "apostol", "--lambda", "2", "--order", "6"],
    "verify": ["verify", "I1", "--k-max", "1"],
}


@pytest.mark.parametrize(
    "command, name",
    [(command, name) for command, (_, options) in DIRECT_COMMANDS.items() for name in ["--format", *options]],
)
def test_dashes_as_an_option_value_is_a_usage_error(capsys, command, name):
    # Some argparse versions, 3.11's among them, read --name=-- as an empty
    # list; every version must end in the command's usage error.
    assert run(capsys, *ACCEPTED_ARGV[command])[0] == 0
    code, out, err = run(capsys, *ACCEPTED_ARGV[command], f"{name}=--")
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: stirnum {command} ")
    assert "Traceback" not in err


def json_result(*argv):
    """The JSON ``result`` of a command that must succeed."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv) + ["--format", "json"])
    assert code == 0, argv
    return json.loads(buffer.getvalue())["result"]


def option(name, value):
    return f"--{name}={format_rational(value)}"


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestDifferential:
    """Each command against the library value it prints, and against an
    independent route where the library has one."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 30), k=st.integers(0, 30))
    def test_stirling2(self, n, k):
        result = json_result("stirling2", str(n), str(k))
        assert result == format_rational(stirling2(n, k))
        if 1 <= k <= n:
            assert result == format_rational(stirling2_explicit(n, k))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 30), k=st.integers(0, 30))
    def test_stirling1(self, n, k):
        result = json_result("stirling1", str(n), str(k))
        assert result == format_rational(stirling1(n, k))
        if 1 <= k <= n:
            # s(n, k) = (-1)**(n + k*k) (n-1)! M_{n-k+1}(n, k)
            relation = (-1) ** (n + k * k) * math.factorial(n - 1) * m_determinant(n - k + 1, n, k)
            assert result == format_rational(relation)

    @settings(max_examples=30, deadline=None)
    @given(j=st.integers(1, 12), k=st.integers(1, 20), i=st.integers(1, 12))
    def test_mdet(self, j, k, i):
        result = json_result("mdet", str(j), str(k), str(i))
        assert result == format_rational(m_determinant(j, k, i))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 40))
    def test_euler_number(self, n):
        result = json_result("euler-number", str(n))
        assert result == format_rational(euler_number(n))
        assert result == format_rational(2**n * euler_polynomial_oracle(n, Fraction(1, 2)))

    @settings(max_examples=30, deadline=None)
    @given(
        which=st.sampled_from(["recip-exp-minus-one", "recip-exp-plus-one", "apostol"]),
        order=st.integers(3, 40),
        lam=small_rationals.filter(bool),
    )
    def test_series_dump(self, which, order, lam):
        if which == "apostol":
            argv = ["series", "dump", which, option("lambda", lam)]
            series = apostol_bernoulli_series(lam, order)
        else:
            argv = ["series", "dump", which]
            series = recip_exp_linear(1, 1, -1 if which == "recip-exp-minus-one" else 1, order)
        result = json_result(*argv, "--order", str(order))
        assert result == {
            "offset": series.offset,
            "precision": series.precision,
            "coefficients": [[e, format_rational(c)] for e, c in series.coefficients()],
        }

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 40))
    def test_bernoulli_oracle(self, n):
        result = json_result("bernoulli", str(n), "--method", "oracle")
        assert result == format_rational(bernoulli_oracle(n))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 16), lam=small_rationals.filter(bool))
    def test_apostol_bernoulli(self, n, lam):
        result = json_result("apostol-bernoulli", str(n), option("lambda", lam))
        assert result == format_rational(apostol_bernoulli_oracle(n, lam))
        if n >= 1 and lam != 1:
            assert result == format_rational(apostol_bernoulli_formula(n, lam))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(0, 16), x=small_rationals)
    def test_euler_poly_at(self, n, x):
        result = json_result("euler-poly", str(n), option("at", x))
        assert result == format_rational(euler_polynomial_formula(n).evaluate(x))
        assert result == format_rational(euler_polynomial_oracle(n, x))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(0, 12),
        x=small_rationals,
        alpha=small_rationals.filter(bool),
        lam=small_rationals.filter(lambda v: v != -1),
    )
    def test_two_param_euler_at(self, n, x, alpha, lam):
        params = [option("alpha", alpha), option("lambda", lam), option("at", x)]
        result = json_result("two-param-euler", str(n), *params)
        assert result == format_rational(two_param_euler_formula(n, alpha, lam).evaluate(x))
        assert result == format_rational(two_param_euler_oracle(n, x, alpha, lam))

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 20))
    def test_bernoulli_formula(self, k):
        result = json_result("bernoulli", str(2 * k), "--method", "formula")
        assert result == format_rational(bernoulli_formula(k))
        assert result == format_rational(bernoulli_oracle(2 * k))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(0, 16))
    def test_euler_poly(self, n):
        result = json_result("euler-poly", str(n))
        poly = euler_polynomial_formula(n)
        assert result == {"coefficients": [format_rational(c) for c in poly.coeffs]}

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(0, 12),
        alpha=small_rationals.filter(bool),
        lam=small_rationals.filter(lambda v: v != -1),
    )
    def test_two_param_euler(self, n, alpha, lam):
        result = json_result("two-param-euler", str(n), option("alpha", alpha), option("lambda", lam))
        poly = two_param_euler_formula(n, alpha, lam)
        assert result == {"coefficients": [format_rational(c) for c in poly.coeffs]}

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), target=st.sampled_from(sorted(VERIFY_OPTIONS)), k_max=st.integers(1, 3))
    def test_verify(self, data, target, k_max):
        reads = VERIFY_OPTIONS[target]
        # Nonzero points off the reductions' pole lambda = -1.
        point = small_rationals.filter(lambda v: v not in (0, -1))
        alpha = data.draw(st.none() | point) if "alpha" in reads else None
        lam = data.draw(st.none() | point) if "lambda" in reads else None
        extra = data.draw(st.none() | st.integers(0, 4)) if "order" in reads else None
        order = None if extra is None else default_order(k_max) + extra
        given = {"alpha": alpha, "lambda": lam, "order": order}
        argv = ["verify", target, "--k-max", str(k_max)]
        argv += [option(name, v) for name, v in given.items() if v is not None]
        rows = verify_target(target, k_max, alpha, lam, order)

        checks = json_result(*argv)["checks"]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(argv + ["--format", "csv"]) == 0
        table = parse_csv(buffer.getvalue())
        assert table[0] == list(VERIFY_CSV_HEADER)
        # CSV writes a named check's fields by header name, so a field
        # outside the header would drop out of CSV and of the cells below
        # without notice, while plain and JSON still print it.
        assert all(set(fields) <= set(VERIFY_CSV_HEADER) for _, fields, _ in _NAMED_CHECKS.values())
        assert len(checks) == len(table) - 1 == len(rows)
        for row, record, cells in zip(rows, checks, table[1:]):
            assert row.passed and record["passed"] is True and cells[8] == "true"
            if isinstance(row, CheckRow):
                assert set(row.fields) <= set(VERIFY_CSV_HEADER)
                texts = {
                    name: format_rational(v) if isinstance(v, Fraction) else v
                    for name, v in row.fields.items()
                }
                assert list(record) == ["check", *row.fields, "passed"]
                assert record == {"check": row.check, **texts, "passed": True}
                columns = {"id": row.check, **texts, "passed": "true"}
                assert cells == [str(columns.get(name, "")) for name in VERIFY_CSV_HEADER]
            else:
                alpha_text = None if row.alpha is None else format_rational(row.alpha)
                lam_text = None if row.lam is None else format_rational(row.lam)
                assert record == {
                    "identity_id": row.identity_id,
                    "k": row.k,
                    "alpha": alpha_text,
                    "lambda": lam_text,
                    "order": row.order,
                    "window": list(row.window),
                    "passed": True,
                    "first_discrepancy": None,
                }
                assert cells == [
                    row.identity_id,
                    str(row.k),
                    "",
                    alpha_text or "",
                    lam_text or "",
                    str(row.order),
                    *map(str, row.window),
                    "true",
                    "",
                    "",
                    "",
                ]
        assert all(len(cells) == len(VERIFY_CSV_HEADER) for cells in table)


def long_digits(count):
    """A positive integer literal of ``count`` digits."""
    return st.integers(1, 9).map(lambda lead: str(lead) + "3" * (count - 1))


_LONG = st.integers(4301, 4500).flatmap(long_digits)
_SIGN = st.sampled_from(["", "-"])
# Every kind of literal the rational options meet: the special points 0,
# 1 and -1 (a pole of the two-parameter family and of the reductions),
# small fractions, integers and fractions past the 4,300-digit int/str
# cap, and zero denominators.
RATIONAL_LITERALS = st.one_of(
    st.sampled_from(["0", "1", "-1", "+1", "-0"]),
    small_rationals.map(format_rational),
    st.tuples(_SIGN, _LONG).map("".join),
    st.tuples(_SIGN, _LONG, st.integers(2, 9)).map(lambda t: f"{t[0]}{t[1]}/{t[2]}"),
    st.tuples(_SIGN, st.integers(1, 9), _LONG).map(lambda t: f"{t[0]}{t[1]}/{t[2]}"),
    st.tuples(_SIGN, st.integers(0, 9), st.integers(1, 3)).map(
        lambda t: f"{t[0]}{t[1]}/{'0' * t[2]}"
    ),
)
# Every option that reads a rational literal, by command; {n} is 0..3.
LITERAL_COMMANDS = [
    ["apostol-bernoulli", "{n}", "--lambda={lambda}"],
    ["euler-poly", "{n}", "--at={x}"],
    ["two-param-euler", "{n}", "--alpha={alpha}", "--lambda={lambda}"],
    ["two-param-euler", "{n}", "--alpha={alpha}", "--lambda={lambda}", "--at={x}"],
    ["series", "dump", "apostol", "--lambda={lambda}", "--order", "{order}"],
    ["verify", "G1", "--k-max", "1", "--alpha={alpha}", "--lambda={lambda}"],
    ["verify", "G2", "--k-max", "1", "--alpha={alpha}", "--lambda={lambda}"],
    ["verify", "reductions", "--k-max", "1", "--alpha={alpha}", "--lambda={lambda}"],
]


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(LITERAL_COMMANDS),
    literals=st.fixed_dictionaries(
        {"alpha": RATIONAL_LITERALS, "lambda": RATIONAL_LITERALS, "x": RATIONAL_LITERALS}
    ),
    n=st.integers(0, 3),
    fmt=st.sampled_from(["plain", "json"]),
)
def test_rational_literals_end_in_an_answer_or_a_typed_error(command, literals, n, fmt):
    argv = [arg.format(n=n, order=n + 1, **literals) for arg in command] + ["--format", fmt]
    assert_answer_or_typed_error(argv, fmt)


def assert_answer_or_typed_error(argv, fmt):
    """cli.main(argv) exits 0, 1 or 2 without a traceback: an answer, an
    error[...] record on stdout, or a usage error on stderr alone."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 0:
        assert err == ""
        if fmt == "json":
            assert json.loads(out)["status"] == "ok"
    elif code == 1:
        assert err == ""
        if fmt == "json":
            assert json.loads(out)["status"] == "error"
        else:
            assert out.startswith("error[")
    else:
        assert out == ""
        assert err.startswith("usage: stirnum ") and ": error: " in err


SMALL_LITERALS = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/0", "x"]), small_rationals.map(format_rational)
)
# The options of each family command besides --format.
FAMILY_OPTIONS = {
    "bernoulli": ["--method={method}"],
    "apostol-bernoulli": ["--lambda={lambda}"],
    "euler-number": [],
    "euler-poly": ["--at={x}"],
    "two-param-euler": ["--alpha={alpha}", "--lambda={lambda}", "--at={x}"],
}


@st.composite
def command_argvs(draw):
    """An argument list from one command's grammar, each option kept or
    left out, with at most one fault put in: a token dropped, a token that
    is no integer, an unknown or unread option, or one of the command's
    options given "--" as its value.  Integers stay small:
    n and k in -3..30, --k-max in 0..3 and --order in -1..40."""
    command = draw(
        st.sampled_from(["stirling2", "stirling1", "mdet", "series", "verify", *FAMILY_OPTIONS])
    )
    n = st.integers(-3, 30).map(str)
    if command in ("stirling2", "stirling1", "mdet"):
        args = [draw(n) for _ in range(3 if command == "mdet" else 2)]
    elif command == "series":
        which = ["recip-exp-minus-one", "recip-exp-plus-one", "apostol", "other"]
        args = ["dump", draw(st.sampled_from(which)), "--order", str(draw(st.integers(-1, 40)))]
        if draw(st.booleans()):
            args.append(f"--lambda={draw(SMALL_LITERALS)}")
    elif command == "verify":
        args = [draw(st.sampled_from([*VERIFY_OPTIONS, "other"]))]
        args += ["--k-max", str(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            args += ["--order", str(draw(st.integers(-1, 40)))]
        for option in ("--alpha", "--lambda"):
            if draw(st.booleans()):
                args.append(f"{option}={draw(SMALL_LITERALS)}")
    else:
        values = {
            "method": draw(st.sampled_from(["formula", "oracle", "other"])),
            **{name: draw(SMALL_LITERALS) for name in ("alpha", "lambda", "x")},
        }
        args = [draw(n)]
        for option in FAMILY_OPTIONS[command]:
            # The required options are mostly kept, so most draws compute.
            if draw(st.integers(0, 3)):
                args.append(option.format(**values))
    argv = [command, *args]
    fault = draw(st.sampled_from(["none", "none", "drop", "no integer", "unknown", "dashes"]))
    if fault == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif fault == "no integer":
        bad = draw(st.sampled_from(["", "x", "1.5", "1/2", "3e1", "0x1f", "--7"]))
        argv[draw(st.integers(1, len(argv) - 1))] = bad
    elif fault == "unknown":
        unknown = draw(st.sampled_from(["--bogus", "--bogus=1", "-q", "--k-max=2", "--at=1"]))
        argv.insert(draw(st.integers(0, len(argv))), unknown)
    elif fault == "dashes":
        # Put after the option's last use, so that argparse keeps it; the
        # --format the test appends still overrides a --format put here.
        name = draw(st.sampled_from(["--format", *DIRECT_COMMANDS[command][1]]))
        last = max((i for i, token in enumerate(argv) if token.split("=")[0] == name), default=0)
        at = draw(st.integers(last + 1, len(argv)))
        argv[at:at] = [f"{name}=--"] if draw(st.booleans()) else [name, "--"]
    return argv


@settings(max_examples=200, deadline=None)
@given(argv=command_argvs(), fmt=st.sampled_from(["plain", "json"]))
def test_command_arguments_end_in_an_answer_or_a_typed_error(argv, fmt):
    assert_answer_or_typed_error(argv + ["--format", fmt], fmt)
