"""Acceptance suite: the headline guarantees, one test per criterion.

Every comparison is exact rational equality; there are no tolerances.
Each test prints a single summary line (visible with pytest -s) and its
pytest pass/fail status is the criterion's verdict.
"""

import random
from fractions import Fraction

import pytest

from stirnum.errors import PoleError, PrecisionExhaustedError
from stirnum.identities import (
    CORE_IDENTITY_IDS,
    core_identity_coefficients,
    default_order,
    run_sweep,
    verify_core_identity,
)
from stirnum.sequences import (
    Polynomial,
    apostol_bernoulli_formula,
    apostol_bernoulli_oracle,
    bernoulli_formula,
    bernoulli_oracle,
    euler_number,
    euler_polynomial_formula,
    euler_polynomial_oracle,
    stirling_alternating_sum,
    two_param_euler_formula,
    two_param_euler_oracle,
    verify_two_param_reductions,
)
from stirnum.series import LaurentSeries
from stirnum.stirling import verify_first_kind_determinant_relation


def report(line: str) -> None:
    print(line)


def test_criterion_01_bernoulli_formula_matches_oracle():
    assert bernoulli_oracle(1) == Fraction(-1, 2)
    assert bernoulli_formula(1) == Fraction(1, 6)
    assert bernoulli_formula(2) == Fraction(-1, 30)
    checked = 0
    for k in range(1, 21):
        assert bernoulli_formula(k) == bernoulli_oracle(2 * k), f"B_{2*k} mismatch"
        checked += 1
    report(f"criterion 1 bernoulli closed form vs oracle: PASS ({checked} even indices)")


def test_criterion_02_core_identities_sweep_with_fault_injection():
    count = 0
    for identity_id in CORE_IDENTITY_IDS:
        for k in range(1, 13):
            rep = verify_core_identity(identity_id, k, order=default_order(k))
            assert rep.passed, rep
            lo, hi = rep.window
            assert hi - lo >= 8, rep
            count += 1
    # at least three distinct injected faults must be detected
    detected = 0
    for identity_id, k, position, delta in [
        ("I1", 5, 2, Fraction(1)),
        ("I5", 4, 0, Fraction(-1, 3)),
        ("I8", 7, 6, Fraction(2, 5)),
        ("I2", 3, 3, Fraction(1)),
    ]:
        weights = core_identity_coefficients(identity_id, k)
        weights[position] += delta
        rep = verify_core_identity(identity_id, k, coeff_override=weights)
        assert not rep.passed
        assert rep.first_discrepancy is not None
        detected += 1
    report(
        f"criterion 2 eight-identity sweep k<=12: PASS "
        f"({count} checks, {detected} injected faults detected)"
    )


def test_criterion_03_general_identities_full_grid():
    reports = run_sweep(["G1", "G2"], 10)
    for rep in reports:
        assert rep.passed, rep
    lambdas = {rep.lam for rep in reports}
    assert Fraction(1) in lambdas  # the Laurent branch
    assert any(v < 0 for v in lambdas)
    report(f"criterion 3 generalized identities k<=10 on 5x5 grid: PASS ({len(reports)} checks)")


def test_criterion_04_first_kind_determinant_relation():
    count = 0
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert verify_first_kind_determinant_relation(n, k), (n, k)
            count += 1
    report(f"criterion 4 first-kind determinant relation n<=12: PASS ({count} pairs)")


def test_criterion_05_apostol_bernoulli_formula_vs_oracle():
    grid = (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(5))
    count = 0
    for lam in grid:
        for n in range(1, 21):
            assert apostol_bernoulli_formula(n, lam) == apostol_bernoulli_oracle(n, lam)
            count += 1
    with pytest.raises(PoleError):
        apostol_bernoulli_formula(5, 1)
    report(
        f"criterion 5 apostol-bernoulli formula vs oracle: PASS "
        f"({count} values, lambda=1 pole rejected)"
    )


def test_criterion_06_euler_polynomials_pointwise_and_anchors():
    assert euler_polynomial_formula(1) == Polynomial.from_coeffs([Fraction(-1, 2), 1])
    assert euler_polynomial_formula(2) == Polynomial.from_coeffs([0, -1, 1])
    count = 0
    for n in range(0, 31):
        poly = euler_polynomial_formula(n)
        for x in range(n + 1):
            assert poly.evaluate(x) == euler_polynomial_oracle(n, x), (n, x)
            count += 1
    # E_n(x+1) + E_n(x) - 2 x^n has degree at most n: n + 1 nodes prove it zero
    for n in range(0, 21):
        poly = euler_polynomial_formula(n)
        for x in (Fraction(2 * j - n, 3) for j in range(n + 1)):
            assert poly.evaluate(x + 1) + poly.evaluate(x) == 2 * x**n, (n, x)
    report(
        f"criterion 6 euler polynomials n<=30 pointwise: PASS "
        f"({count} nodes, complementarity n<=20)"
    )


def test_criterion_07_euler_numbers_both_routes():
    anchors = {0: 1, 2: -1, 4: 5, 6: -61}
    for n, value in anchors.items():
        assert euler_number(n) == value
        assert Fraction(2) ** n * euler_polynomial_oracle(n, Fraction(1, 2)) == value
    evens = odds = 0
    for n in range(0, 31):
        value = euler_number(n)  # internally cross-checks the even-index form
        assert value == Fraction(2) ** n * euler_polynomial_oracle(n, Fraction(1, 2))
        if n % 2:
            assert value == 0
            odds += 1
        else:
            evens += 1
    report(
        f"criterion 7 euler numbers n<=30: PASS ({evens} even cross-checked, {odds} odd zero)"
    )


def test_criterion_08_alternating_sum_vanishes():
    for n in range(1, 21):
        assert stirling_alternating_sum(n) == 0, n
    report("criterion 8 alternating Stirling sum n<=20: PASS (20 sums, all exactly 0)")


def test_criterion_09_two_parameter_family():
    alphas = (Fraction(1), Fraction(2), Fraction(-1, 2))
    lambdas = (Fraction(1), Fraction(3), Fraction(1, 4))
    nodes = (Fraction(0), Fraction(1), Fraction(-1, 3))
    count = 0
    for n in range(0, 16):
        for alpha in alphas:
            for lam in lambdas:
                poly = two_param_euler_formula(n, alpha, lam)
                for x in nodes:
                    assert poly.evaluate(x) == two_param_euler_oracle(n, x, alpha, lam)
                    count += 1
    reductions = 0
    for n in range(0, 11):
        for alpha in alphas:
            for lam in lambdas:
                assert verify_two_param_reductions(n, alpha, lam), (n, alpha, lam)
                reductions += 1
    with pytest.raises(PoleError):
        two_param_euler_formula(3, 1, -1)
    with pytest.raises(PoleError):
        two_param_euler_oracle(3, 1, 1, -1)
    report(
        f"criterion 9 two-parameter family: PASS "
        f"({count} pointwise values, {reductions} reduction triples, pole rejected)"
    )


def test_criterion_10_series_engine_randomized_axioms():
    rng = random.Random(20240817)

    def random_series():
        offset = rng.randint(-4, 4)
        length = rng.randint(1, 9)
        coeffs = [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(length)
        ]
        return LaurentSeries.from_coeffs(offset, coeffs)

    def same_on_common_window(a, b):
        if a.is_zero and b.is_zero:
            return True
        if a.is_zero or b.is_zero:
            windowed = b if a.is_zero else a
            return all(c == 0 for _, c in windowed.coefficients())
        lo = max(a.offset, b.offset)
        hi = min(a.precision, b.precision)
        return all(a.coeff(e) == b.coeff(e) for e in range(lo, hi))

    cases = 0
    for _ in range(220):
        a, b, c = random_series(), random_series(), random_series()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert same_on_common_window((a * b) * c, a * (b * c))
        assert same_on_common_window(a * (b + c), a * b + a * c)
        assert same_on_common_window(
            (a * b).derivative(), a.derivative() * b + a * b.derivative()
        )
        if a.valuation() is not None:
            try:
                inverse = a.reciprocal()
            except PrecisionExhaustedError:
                inverse = None  # window too narrow to invert; nothing to check
            if inverse is not None:
                product = a * inverse
                for e in range(product.offset, product.precision):
                    assert product.coeff(e) == (1 if e == 0 else 0)
        cases += 1
    report(f"criterion 10 randomized series axioms: PASS ({cases} seeded cases)")
