"""Identity verifier: positive sweeps, cross-checks, and fault injection."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirnum.errors import DomainError, PrecisionExhaustedError, ZeroSeriesError
from stirnum.identities import (
    ALL_IDENTITY_IDS,
    CORE_IDENTITY_IDS,
    DEFAULT_MIN_WINDOW,
    GENERAL_IDENTITY_IDS,
    PLUS_IDENTITY_IDS,
    VERIFY_CSV_HEADER,
    CheckRow,
    core_identity_coefficients,
    default_order,
    run_sweep,
    verify_core_identity,
    verify_general_derivative,
    verify_general_power,
    verify_plus_identity,
    verify_target,
)
from stirnum.identities import _SPECS, _Ladder
from stirnum.rationals import factorial
from stirnum.series import LaurentSeries, linear_combination, recip_exp_linear
from stirnum.stirling import b_coeff, lambda_coeff, stirling1, stirling2


def independent_sweep(targets, k_max, order, alphas, lambdas):
    """run_sweep's reports in its order, each from a standalone check."""
    reports = []
    for target in targets:
        for k in range(1, k_max + 1):
            if target in CORE_IDENTITY_IDS:
                reports.append(verify_core_identity(target, k, order))
            elif target in PLUS_IDENTITY_IDS:
                reports.append(verify_plus_identity(target, k, order))
            elif target in GENERAL_IDENTITY_IDS:
                check = verify_general_derivative if target == "G1" else verify_general_power
                for alpha in sorted(Fraction(a) for a in alphas):
                    for lam in sorted(Fraction(v) for v in lambdas):
                        reports.append(check(k, alpha, lam, order))
            else:
                raise DomainError(f"unknown identity tag {target!r}")
    return reports


def sweep_outcome(sweep, *args):
    """The reports, or the type and message of the error raised."""
    try:
        return sweep(*args)
    except (DomainError, PrecisionExhaustedError, ZeroSeriesError) as exc:
        return type(exc), str(exc)


class TestCoreIdentities:
    def test_all_pass_small(self):
        for identity_id in CORE_IDENTITY_IDS:
            for k in range(1, 7):
                report = verify_core_identity(identity_id, k)
                assert report.passed, report.describe()

    def test_window_is_wide_enough(self):
        for identity_id in CORE_IDENTITY_IDS:
            report = verify_core_identity(identity_id, 5)
            lo, hi = report.window
            assert hi - lo >= DEFAULT_MIN_WINDOW

    def test_hand_checked_weights(self):
        assert core_identity_coefficients("I1", 1) == [-1, -1]
        assert core_identity_coefficients("I2", 1) == [1, -1]
        assert core_identity_coefficients("I5", 3) == [1, Fraction(-3, 2), Fraction(1, 2)]
        assert core_identity_coefficients("I6", 2) == [-1, -1]
        assert core_identity_coefficients("I8", 3) == [1, Fraction(3, 2), Fraction(1, 2)]

    def test_derivative_forms_share_their_rhs(self):
        # I1 and I3 use the same right-hand side; so do I2 and I4.  The pairs
        # differ only in which function is differentiated on the left, and
        # both pass because f and g differ by the constant 1, which dies
        # under differentiation.
        for k in range(1, 11):
            assert core_identity_coefficients("I1", k) == core_identity_coefficients("I3", k)
            assert core_identity_coefficients("I2", k) == core_identity_coefficients("I4", k)
        for k in range(1, 9):
            order = default_order(k)
            f = recip_exp_linear(1, 1, -1, order)
            g = recip_exp_linear(-1, -1, 1, order)
            diff = g - f
            assert diff.coeff(0) == 1
            assert all(c == 0 for e, c in diff.coefficients() if e != 0)

    def test_eighth_identity_constant_is_not_plus_one(self):
        # replacing the (-1)**k constant with +1 must break every odd k
        for k in (1, 3, 5):
            weights = core_identity_coefficients("I8", k)
            report = verify_core_identity("I8", k, coeff_override=weights)
            assert report.passed
            # rebuild the right-hand side with the constant forced to +1;
            # for odd k it must miss the left-hand side by exactly 2 at t^0
            order = default_order(k)
            f = recip_exp_linear(1, 1, -1, order)
            g = recip_exp_linear(-1, -1, 1, order)
            lhs = f**k
            ladder = _Ladder(g).derivatives(k)
            rhs_printed = linear_combination(ladder, weights) + LaurentSeries.one(
                order - 1
            )
            # the printed variant misses lhs by the constant 2 at t^0
            delta = lhs - rhs_printed
            assert delta.coeff(0) == -2
            assert all(c == 0 for e, c in delta.coefficients() if e != 0)


class TestPlusIdentities:
    def test_all_pass_small(self):
        for identity_id in PLUS_IDENTITY_IDS:
            for k in range(1, 9):
                report = verify_plus_identity(identity_id, k)
                assert report.passed, report.describe()

    def test_base_series_value(self):
        h = (  # 1/(e^t + 1) starts at 1/2 - t/4
            recip_exp_linear(Fraction(1), Fraction(-1), -1, 10).scale(-1)
        )
        assert h.coeff(0) == Fraction(1, 2)
        assert h.coeff(1) == Fraction(-1, 4)


class TestGeneralIdentities:
    def test_spot_checks(self):
        report = verify_general_derivative(2, Fraction(-3, 2), Fraction(2), order=14)
        assert report.passed
        report = verify_general_power(3, Fraction(1, 2), Fraction(-5, 3))
        assert report.passed

    def test_laurent_branch_lambda_one(self):
        for k in (1, 2, 5):
            assert verify_general_derivative(k, Fraction(2), Fraction(1)).passed
            assert verify_general_power(k, Fraction(2), Fraction(1)).passed

    def test_specializes_to_core(self):
        # at alpha = lambda = 1 the base is f and G1/G2 coincide with I1/I6
        for k in range(1, 7):
            g1 = verify_general_derivative(k, 1, 1)
            i1 = verify_core_identity("I1", k)
            assert g1.passed and i1.passed
            g2 = verify_general_power(k, 1, 1)
            i6 = verify_core_identity("I6", k)
            assert g2.passed and i6.passed
        # the specialization is coefficient-level, not just pass/fail: the
        # base series agree and the derivative-sum weights collapse to lambda
        order = default_order(4)
        assert recip_exp_linear(Fraction(1), Fraction(1), -1, order) == recip_exp_linear(
            1, 1, -1, order
        )
        for k in range(1, 7):
            for m in range(1, k + 2):
                assert (-1) ** k * factorial(m - 1) * stirling2(k + 1, m) == lambda_coeff(k, m)

    def test_first_kind_weights_match_b_route(self):
        # the derivative-sum weights written through s(k, m) equal the ones
        # written through b_{k, m-1} once the alpha powers are absorbed
        for k in range(1, 9):
            for alpha in (Fraction(1), Fraction(2), Fraction(-1, 2)):
                for m in range(1, k + 1):
                    s_route = (
                        (-1) ** (m - 1)
                        * alpha ** (1 - m)
                        * Fraction(stirling1(k, m), factorial(k - 1))
                    )
                    b_route = b_coeff(k, m) * alpha ** (1 - m)
                    assert s_route == b_route

    def test_domain(self):
        with pytest.raises(DomainError):
            verify_general_derivative(0, 1, 2)
        with pytest.raises(DomainError):
            verify_general_derivative(2, 0, 2)
        with pytest.raises(DomainError):
            verify_general_power(2, 1, 0)


class TestFaultInjection:
    @pytest.mark.parametrize(
        "identity_id,k,position",
        [("I1", 4, 2), ("I3", 3, 0), ("I5", 5, 4), ("I6", 4, 1), ("I8", 6, 3)],
    )
    def test_corrupted_weight_detected(self, identity_id, k, position):
        weights = core_identity_coefficients(identity_id, k)
        weights[position] += 1
        report = verify_core_identity(identity_id, k, coeff_override=weights)
        assert not report.passed
        assert report.first_discrepancy is not None
        e, lhs, rhs = report.first_discrepancy
        assert lhs != rhs

    def test_corrupted_plus_weight_detected(self):
        good = verify_plus_identity("P1", 3)
        assert good.passed
        weights = [
            (-1) ** (m - 1) * Fraction(core_identity_coefficients("I1", 3)[m - 1])
            for m in range(1, 5)
        ]
        weights[1] += Fraction(1, 7)
        report = verify_plus_identity("P1", 3, coeff_override=weights)
        assert not report.passed

    def test_scaled_weights_detected(self):
        weights = [2 * w for w in core_identity_coefficients("I2", 5)]
        report = verify_core_identity("I2", 5, coeff_override=weights)
        assert not report.passed

    @pytest.mark.parametrize("identity_id, k", [("I1", 2), ("I7", 2), ("I7", 5), ("I8", 3), ("I8", 4)])
    def test_all_zero_weights_fail(self, identity_id, k):
        # The weighted sum is then the exact zero; on I7 and I8 the right
        # side is the constant alone, which the left power never equals.
        zeros = [0] * len(core_identity_coefficients(identity_id, k))
        report = verify_core_identity(identity_id, k, coeff_override=zeros)
        assert not report.passed
        lo, hi = report.window
        assert hi - lo >= DEFAULT_MIN_WINDOW
        e, lhs, rhs = report.first_discrepancy
        assert e == lo and lhs != rhs


class TestReports:
    def test_report_shape(self):
        report = verify_general_power(2, Fraction(1, 2), Fraction(-5, 3))
        d = report.to_dict()
        assert d["identity_id"] == "G2"
        assert d["k"] == 2
        assert d["alpha"] == "1/2"
        assert d["lambda"] == "-5/3"
        assert d["passed"] is True
        assert d["first_discrepancy"] is None
        json.dumps(d)  # must be serializable as-is

    def test_describe_mentions_discrepancy(self):
        weights = core_identity_coefficients("I1", 2)
        weights[0] += 1
        report = verify_core_identity("I1", 2, coeff_override=weights)
        text = report.describe()
        assert "FAIL" in text and "t^" in text

    def test_failure_report_is_serializable(self):
        weights = core_identity_coefficients("I4", 3)
        weights[2] -= Fraction(1, 3)
        report = verify_core_identity("I4", 3, coeff_override=weights)
        d = report.to_dict()
        assert d["passed"] is False
        assert set(d["first_discrepancy"]) == {"exponent", "lhs", "rhs"}
        json.dumps(d)

    def test_csv_cells_follow_the_header(self):
        weights = core_identity_coefficients("I1", 2)
        weights[0] += 1
        failed = verify_core_identity("I1", 2, coeff_override=weights)
        assert failed.first_discrepancy == (-1, 0, 1)
        assert failed.csv_cells() == [
            "I1", "2", "", "", "", "14", "-3", "9", "false", "-1", "0", "1"
        ]
        general = verify_general_derivative(1, Fraction(-3, 2), 2)
        assert general.csv_cells() == [
            "G1", "1", "", "-3/2", "2", "12", "-1", "10", "true", "", "", ""
        ]

    def test_check_row_shapes(self):
        row = CheckRow("reductions", {"n": 3, "alpha": "1/2", "lambda": "-5/3"}, False)
        assert row.to_dict() == {
            "check": "reductions", "n": 3, "alpha": "1/2", "lambda": "-5/3", "passed": False
        }
        assert row.describe() == "reductions n=3 alpha=1/2 lambda=-5/3 FAIL"
        assert row.csv_cells() == [
            "reductions", "", "3", "1/2", "-5/3", "", "", "", "false", "", "", ""
        ]
        det = CheckRow("det-relation", {"n": 4, "k": 2}, True)
        assert det.describe() == "det-relation n=4 k=2 ok"
        assert det.csv_cells()[:3] == ["det-relation", "2", "4"]
        assert len(det.csv_cells()) == len(VERIFY_CSV_HEADER)


class TestVerifyTarget:
    def test_rows_in_plan_order(self):
        rows = verify_target("all", 1, alpha=2, lam=Fraction(1, 2))
        kinds = [r.check if isinstance(r, CheckRow) else r.identity_id for r in rows]
        assert kinds == list(ALL_IDENTITY_IDS) + ["det-relation", "alt-sum"] + ["reductions"] * 2
        assert all(r.passed for r in rows)

    def test_single_tag_is_its_sweep(self):
        assert verify_target("P2", 3, order=20) == run_sweep(["P2"], 3, 20)
        assert verify_target("G2", 2, lam=3) == run_sweep(["G2"], 2, lambdas=[3])

    def test_named_checks_count(self):
        assert len(verify_target("det-relation", 4)) == 10
        assert [r.fields for r in verify_target("alt-sum", 2)] == [{"n": 1}, {"n": 2}]
        assert len(verify_target("reductions", 1, alpha=2)) == 2 * 3

    def test_unknown_target_rejected(self):
        with pytest.raises(DomainError):
            verify_target("I9", 2)


class TestSweeps:
    def test_run_sweep_order_is_deterministic(self):
        reports = run_sweep(["I1", "P2"], 3)
        labels = [(r.identity_id, r.k) for r in reports]
        assert labels == [("I1", 1), ("I1", 2), ("I1", 3), ("P2", 1), ("P2", 2), ("P2", 3)]

    def test_general_grid_sorted(self):
        reports = run_sweep(["G1"], 1, alphas=[1, -1], lambdas=[2, Fraction(1, 2)])
        points = [(r.alpha, r.lam) for r in reports]
        assert points == [
            (Fraction(-1), Fraction(1, 2)),
            (Fraction(-1), Fraction(2)),
            (Fraction(1), Fraction(1, 2)),
            (Fraction(1), Fraction(2)),
        ]

    def test_unknown_tag_rejected(self):
        with pytest.raises(DomainError):
            run_sweep(["I9"], 2)
        with pytest.raises(DomainError):
            verify_core_identity("Q1", 2)
        with pytest.raises(DomainError):
            verify_plus_identity("I1", 2)

    def test_all_tags_covered(self):
        assert len(ALL_IDENTITY_IDS) == 12
        # one spec row per tag, and no row without a tag
        assert tuple(_SPECS) == ALL_IDENTITY_IDS

    @settings(max_examples=200, deadline=None)
    @given(
        targets=st.lists(st.sampled_from(ALL_IDENTITY_IDS + ("I9",)), min_size=1, max_size=3),
        k_max=st.integers(1, 7),
        order=st.one_of(st.none(), st.integers(4, 30)),
        alphas=st.lists(
            st.sampled_from([0, -2, Fraction(-3, 2), Fraction(1, 2), 1, 3]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
        lambdas=st.lists(
            st.sampled_from([0, Fraction(-5, 3), -1, Fraction(1, 2), 1, 2]),
            min_size=1,
            max_size=2,
            unique=True,
        ),
    )
    def test_sweep_matches_independent_checks(self, targets, k_max, order, alphas, lambdas):
        # the sweep builds each ladder once and truncates it per k; every
        # report, and the first error with its message, must be what one
        # standalone check per report gives
        args = (targets, k_max, order, alphas, lambdas)
        assert sweep_outcome(run_sweep, *args) == sweep_outcome(independent_sweep, *args)


class TestPrecisionGuard:
    def test_narrow_window_raises_instead_of_passing(self):
        with pytest.raises(PrecisionExhaustedError):
            verify_core_identity("I1", 4, order=9)
        with pytest.raises(PrecisionExhaustedError):
            verify_general_power(3, 1, 1, order=8)
