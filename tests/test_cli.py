"""Command-line interface: formats, exit codes, and record shapes."""

import contextlib
import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stirnum.cli as cli
from stirnum.identities import (
    VERIFY_CSV_HEADER,
    VERIFY_OPTIONS,
    VerificationReport,
    default_order,
    verify_target,
)
from stirnum.rationals import factorial, format_rational
from stirnum.sequences import (
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

    def test_stirling2_json(self, capsys):
        code, out, _ = run(capsys, "stirling2", "5", "3", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["parameters"] == {"n": 5, "k": 3}
        assert record["result"] == "25"
        assert record["status"] == "ok"
        assert record["command"][0] == "stirling2"

    def test_stirling2_csv(self, capsys):
        code, out, _ = run(capsys, "stirling2", "5", "3", "--format", "csv")
        assert code == 0
        rows = parse_csv(out)
        assert rows == [["n", "k", "result"], ["5", "3", "25"]]

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
    def test_euler_poly_plain(self, capsys):
        code, out, _ = run(capsys, "euler-poly", "2")
        assert code == 0
        assert out == "0 + -1*x + 1*x^2\n"

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
        code, out, err = run(capsys, "series", "dump", "apostol", "--order", "6")
        assert code == 2
        assert "lambda" in err

    def test_lambda_rejected_elsewhere(self, capsys):
        code, _, err = run(
            capsys, "series", "dump", "recip-exp-minus-one", "--lambda", "2", "--order", "6"
        )
        assert code == 2

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


    # sha256 of two long-order scalar commands, pinned with
    # SERIES_DUMP_DIGESTS: `bernoulli 400` reads an order-404 reciprocal
    # on the factorial-scaled kernel, `euler-number 280` the closed forms.
    @pytest.mark.parametrize(
        "command, digest",
        [
            ("bernoulli 400", "de79820c18545d39964843969b60fef6983265f57a6971b123080a418aaff6a6"),
            ("euler-number 280", "f7b900e9cee82a48361db29a09fc94e812b675e82e1030837c406b98571c5c77"),
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
        ],
    )
    def test_order_below_one_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith("error: --order must be >= 1\n")

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
        assert err.endswith(f"error: verify {argv[1]} does not read --{option}\n")

    def test_bad_rational_is_usage_error(self, capsys):
        code, _, err = run(capsys, "apostol-bernoulli", "2", "--lambda", "1.5")
        assert code == 2
        assert "usage" in err

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
    # format, options given and then omitted, and each exit path.
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
    ]

    def test_shared_parser_matches_fresh_parsers(self, capsys, monkeypatch):
        shared = [run(capsys, *argv) for argv in self.SEQUENCE]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run(capsys, *argv) for argv in self.SEQUENCE]
        for argv, got, want in zip(self.SEQUENCE, shared, fresh):
            assert got == want, argv
        assert {code for code, _, _ in fresh} == {0, 1, 2}

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()



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
            relation = (-1) ** (n + k * k) * factorial(n - 1) * m_determinant(n - k + 1, n, k)
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

        assert json_result(*argv)["checks"] == [r.to_dict() for r in rows]
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(argv + ["--format", "csv"]) == 0
        table = parse_csv(buffer.getvalue())
        assert table[0] == list(VERIFY_CSV_HEADER)
        assert table[1:] == [r.csv_cells() for r in rows]
        assert all(len(cells) == len(VERIFY_CSV_HEADER) for cells in table)
