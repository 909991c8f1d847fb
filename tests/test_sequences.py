"""Number/polynomial families: closed forms against series oracles."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirnum import sequences
from stirnum.errors import DomainError, PoleError
from stirnum.rationals import binomial
from stirnum.sequences import (
    REDUCTION_ALPHAS,
    REDUCTION_LAMBDAS,
    Polynomial,
    _euler_even_direct,
    _geometric_stirling_sum,
    alternating_sum_checks,
    apostol_bernoulli_formula,
    apostol_bernoulli_oracle,
    bernoulli_formula,
    bernoulli_oracle,
    determinant_relation_checks,
    euler_number,
    euler_polynomial_formula,
    euler_polynomial_oracle,
    sequence_value,
    stirling_alternating_sum,
    two_param_euler_formula,
    two_param_euler_oracle,
    two_param_reduction_sweep,
    verify_two_param_reductions,
)
from stirnum.stirling import stirling2

# Frozen reference values, independent of any code in this package.
BERNOULLI = {
    0: Fraction(1),
    1: Fraction(-1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}

EULER_NUMBERS = {
    0: 1,
    2: -1,
    4: 5,
    6: -61,
    8: 1385,
    10: -50521,
    12: 2702765,
    14: -199360981,
}


def reference_evaluate(poly, point):
    """Horner on Fraction values, one Fraction per step."""
    point = Fraction(point)
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * point + c
    return acc


def reference_euler_polynomial_coeffs(n):
    """The Fraction products of the closed form, one coefficient each."""
    return [
        (-1) ** (n - k) * binomial(n, k) * 2 * _geometric_stirling_sum(n - k + 1, 1, 2)
        for k in range(n + 1)
    ]


def reference_two_param_coeffs(n, alpha, lam):
    rho = 1 / (lam + 1)
    return [
        2
        * (-alpha) ** (n - k)
        * binomial(n, k)
        * _geometric_stirling_sum(n - k + 1, rho.numerator, rho.denominator)
        for k in range(n + 1)
    ]


def reference_half_weight(j):
    return 2 * _geometric_stirling_sum(j, 1, 2)


def reference_euler_even_direct(n):
    """The single-sum even-index form, one Fraction product per term."""
    total = Fraction(0)
    for k in range(n + 1):
        total += reference_half_weight(n - k + 1) * Fraction((-1) ** k, 2**k) * binomial(n, k)
    return Fraction(4) ** (n // 2) * total


def reference_alternating_sum(n):
    total = Fraction(0)
    for k in range(2 * n):
        total += (
            reference_half_weight(2 * n - k) * Fraction((-1) ** k, 2**k) * binomial(2 * n - 1, k)
        )
    return total


def reference_geometric_sum(j, rho):
    """sum_{m=1..j} (-1)**(m-1) (m-1)! S(j, m) rho**m, term by term."""
    return sum(
        (-1) ** (m - 1) * math.factorial(m - 1) * stirling2(j, m) * rho**m
        for m in range(1, j + 1)
    )


# Zeros, small fractions, and denominators far beyond them.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-100, max_value=100, max_denominator=50),
    st.builds(Fraction, st.integers(-(10**24), 10**24), st.integers(1, 10**24)),
)
nonzero_rationals = rationals.filter(bool)


class TestPolynomial:
    def test_construction_trims_trailing_zeros(self):
        p = Polynomial.from_coeffs([1, 2, 0, 0])
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1
        assert Polynomial.from_coeffs([]).degree == -1

    def test_evaluate(self):
        p = Polynomial.from_coeffs([1, -3, 2])  # 1 - 3x + 2x^2
        assert p.evaluate(0) == 1
        assert p.evaluate(Fraction(1, 2)) == 0
        assert p.evaluate(1) == 0
        assert p.evaluate(Fraction(-1, 3)) == Fraction(20, 9)

    @settings(max_examples=300)
    @given(st.lists(rationals, max_size=12), st.one_of(st.integers(-5, 5), rationals))
    def test_evaluate_matches_fraction_horner(self, values, point):
        poly = Polynomial.from_coeffs(values)
        got = poly.evaluate(point)
        assert got == reference_evaluate(poly, point)
        assert type(got) is Fraction

    def test_from_coeffs_keeps_fractions(self):
        q = Fraction(-3, 7)
        p = Polynomial.from_coeffs([q, 2])
        assert p.coeffs[0] is q
        assert type(p.coeffs[1]) is Fraction


    def test_str(self):
        assert str(Polynomial.from_coeffs([])) == "0"
        assert str(Polynomial.from_coeffs([Fraction(-1, 2), 1])) == "-1/2 + 1*x"
        assert str(Polynomial.from_coeffs([0, -1, 1])) == "0 + -1*x + 1*x^2"


class TestBernoulli:
    def test_oracle_anchors(self):
        for n, value in BERNOULLI.items():
            assert bernoulli_oracle(n) == value

    def test_odd_indices_vanish(self):
        for n in range(3, 32, 2):
            assert bernoulli_oracle(n) == 0

    def test_formula_anchors(self):
        assert bernoulli_formula(1) == Fraction(1, 6)
        assert bernoulli_formula(2) == Fraction(-1, 30)
        assert bernoulli_formula(10) == Fraction(-174611, 330)

    def test_formula_matches_oracle(self):
        for k in range(1, 13):
            assert bernoulli_formula(k) == bernoulli_oracle(2 * k)

    def test_domain(self):
        with pytest.raises(DomainError):
            bernoulli_formula(0)
        with pytest.raises(DomainError):
            bernoulli_oracle(-1)


class TestApostolBernoulli:
    def test_formula_anchors(self):
        assert apostol_bernoulli_formula(1, 2) == 1
        assert apostol_bernoulli_formula(2, 2) == -4
        assert apostol_bernoulli_formula(1, Fraction(1, 2)) == -2

    def test_oracle_anchors(self):
        assert apostol_bernoulli_oracle(0, 2) == 0
        assert apostol_bernoulli_oracle(1, 2) == 1
        assert apostol_bernoulli_oracle(0, 1) == 1  # classical B_0 at the removable point

    def test_lambda_one_recovers_bernoulli(self):
        for n in range(0, 12):
            assert apostol_bernoulli_oracle(n, 1) == bernoulli_oracle(n)

    def test_formula_matches_oracle(self):
        for lam in (Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(-3, 2), Fraction(5)):
            for n in range(1, 14):
                assert apostol_bernoulli_formula(n, lam) == apostol_bernoulli_oracle(n, lam)

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            apostol_bernoulli_formula(3, 1)
        with pytest.raises(DomainError):
            apostol_bernoulli_formula(0, 2)
        with pytest.raises(DomainError):
            apostol_bernoulli_oracle(2, 0)


class TestEulerPolynomials:
    def test_formula_anchors(self):
        assert euler_polynomial_formula(0) == Polynomial.from_coeffs([1])
        assert euler_polynomial_formula(1) == Polynomial.from_coeffs([Fraction(-1, 2), 1])
        assert euler_polynomial_formula(2) == Polynomial.from_coeffs([0, -1, 1])
        assert euler_polynomial_formula(3) == Polynomial.from_coeffs(
            [Fraction(1, 4), 0, Fraction(-3, 2), 1]
        )

    def test_oracle_anchors(self):
        assert euler_polynomial_oracle(2, 3) == 6
        assert euler_polynomial_oracle(1, 0) == Fraction(-1, 2)
        assert euler_polynomial_oracle(0, Fraction(7, 3)) == 1

    def test_formula_matches_oracle_pointwise(self):
        for n in range(0, 13):
            poly = euler_polynomial_formula(n)
            for x in (0, 1, Fraction(1, 2), Fraction(-2, 3), 5):
                assert poly.evaluate(x) == euler_polynomial_oracle(n, x)

    def test_complementarity(self):
        # E_n(x+1) + E_n(x) == 2 x^n as an exact polynomial identity: the
        # difference has degree at most n, so n + 1 distinct nodes prove it
        for n in range(0, 16):
            p = euler_polynomial_formula(n)
            for x in (Fraction(2 * j - n, 3) for j in range(n + 1)):
                assert p.evaluate(x + 1) + p.evaluate(x) == 2 * x**n, (n, x)

    def test_domain(self):
        with pytest.raises(DomainError):
            euler_polynomial_formula(-1)
        with pytest.raises(DomainError):
            euler_polynomial_oracle(-2, 1)


class TestEulerNumbers:
    def test_anchors(self):
        for n, value in EULER_NUMBERS.items():
            assert euler_number(n) == value

    def test_odd_indices_vanish(self):
        for n in range(1, 31, 2):
            assert euler_number(n) == 0

    def test_integrality(self):
        for n in range(0, 26):
            assert euler_number(n).denominator == 1

    def test_matches_series_oracle(self):
        for n in range(0, 16):
            assert euler_number(n) == Fraction(2) ** n * euler_polynomial_oracle(
                n, Fraction(1, 2)
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            euler_number(-1)


class TestAlternatingSum:
    def test_vanishes(self):
        for n in range(1, 13):
            assert stirling_alternating_sum(n) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            stirling_alternating_sum(0)

    def test_integer_sums_match_fraction_loops(self):
        # Both sums run through one integer helper, at m = n for even n
        # and at m = 2n - 1, so together these cover every m <= 300.
        for n in range(0, 301, 2):
            value = _euler_even_direct(n)
            assert value == reference_euler_even_direct(n)
            assert type(value) is Fraction
        for n in range(1, 151):
            value = stirling_alternating_sum(n)
            assert value == reference_alternating_sum(n) == 0
            assert type(value) is Fraction


class TestIntegerClosedForms:
    """The closed forms build each coefficient as one integer ratio; the
    Fraction products they replaced are the reference."""

    @pytest.mark.parametrize("n", range(0, 41))
    def test_euler_polynomial_matches_reference(self, n):
        poly = euler_polynomial_formula(n)
        assert poly == Polynomial.from_coeffs(reference_euler_polynomial_coeffs(n))
        assert all(type(c) is Fraction for c in poly.coeffs)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), nonzero_rationals, rationals.filter(lambda lam: lam != -1))
    def test_two_param_matches_reference(self, n, alpha, lam):
        poly = two_param_euler_formula(n, alpha, lam)
        assert poly == Polynomial.from_coeffs(reference_two_param_coeffs(n, alpha, lam))
        assert all(type(c) is Fraction for c in poly.coeffs)


class TestGeometricSumCache:
    def test_cache_is_bounded(self):
        bound = _geometric_stirling_sum.cache_info().maxsize
        assert bound == 4096
        first = Fraction(1, 10**6 + 1)
        value = _geometric_stirling_sum(3, 1, 10**6 + 1)
        # Fill the cache past its bound with keys no other test uses.
        for m in range(2, bound + 200):
            _geometric_stirling_sum(2, 1, 10**6 + m)
        assert _geometric_stirling_sum.cache_info().currsize <= bound
        misses = _geometric_stirling_sum.cache_info().misses
        assert _geometric_stirling_sum(3, 1, 10**6 + 1) == value == reference_geometric_sum(3, first)
        assert _geometric_stirling_sum.cache_info().misses == misses + 1  # it was evicted
        for m in (2, bound // 2, bound + 199):
            rho = Fraction(1, 10**6 + m)
            assert _geometric_stirling_sum(2, 1, 10**6 + m) == reference_geometric_sum(2, rho)


# Points (alpha, lam) whose E_4(x; alpha, lam) perturb_two_param corrupts,
# each read by one reduction at (n, alpha, lam) = (4, 2, 3).
REDUCTION_PERTURBATIONS = [
    (Fraction(1), Fraction(1)),  # E_n(x; 1, 1) against E_n(x)
    (Fraction(2), Fraction(3)),  # the full polynomial
    (Fraction(1), Fraction(3)),  # the alpha = 1 side of the rescale
    (Fraction(4, 5), Fraction(3)),  # the pivot at x = 5/2
]


def perturb_two_param(monkeypatch, n_bad, bad):
    """Make E_{n_bad}(x; *bad) come out with 1/7 added to its x coefficient."""
    real = sequences.two_param_euler_formula

    def perturbed(n, alpha, lam):
        poly = real(n, alpha, lam)
        if n != n_bad or (Fraction(alpha), Fraction(lam)) != bad:
            return poly
        coeffs = list(poly.coeffs)
        coeffs[1] += Fraction(1, 7)
        return Polynomial.from_coeffs(coeffs)

    monkeypatch.setattr(sequences, "two_param_euler_formula", perturbed)


def per_point_reductions(k_max, alphas, lambdas):
    """The reduction sweep's rows, one verify_two_param_reductions call each."""
    return [
        (n, alpha, lam, verify_two_param_reductions(n, alpha, lam))
        for n in range(k_max + 1)
        for alpha in sorted(Fraction(a) for a in alphas)
        for lam in sorted(Fraction(v) for v in lambdas)
    ]


def outcome(check, *args):
    """The result, or the type and message of the error raised."""
    try:
        return check(*args)
    except (DomainError, PoleError) as exc:
        return type(exc), str(exc)


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


class TestTwoParamEuler:
    def test_reduces_to_euler(self):
        for n in range(0, 10):
            assert two_param_euler_formula(n, 1, 1) == euler_polynomial_formula(n)

    def test_constant_term_family(self):
        for lam in (Fraction(1), Fraction(3), Fraction(-1, 2)):
            p = two_param_euler_formula(0, 5, lam)
            assert p == Polynomial.from_coeffs([Fraction(2) / (lam + 1)])

    def test_degree_one_closed_form(self):
        for alpha in (Fraction(1), Fraction(-2), Fraction(1, 3)):
            for lam in (Fraction(2), Fraction(1, 4)):
                rho = 1 / (lam + 1)
                expected = Polynomial.from_coeffs([-2 * alpha * (rho - rho**2), 2 * rho])
                assert two_param_euler_formula(1, alpha, lam) == expected

    def test_formula_matches_oracle_pointwise(self):
        for n in range(0, 9):
            for alpha in (Fraction(1), Fraction(2), Fraction(-1, 2)):
                for lam in (Fraction(1), Fraction(3), Fraction(1, 4)):
                    poly = two_param_euler_formula(n, alpha, lam)
                    for x in (0, 1, Fraction(1, 3), Fraction(-1, 3)):
                        assert poly.evaluate(x) == two_param_euler_oracle(n, x, alpha, lam)

    def test_reductions(self):
        for n in range(0, 9):
            assert verify_two_param_reductions(n, Fraction(2), Fraction(3))
            assert verify_two_param_reductions(n, Fraction(-1, 2), Fraction(1, 4))

    @pytest.mark.parametrize("bad", REDUCTION_PERTURBATIONS)
    def test_reductions_detect_each_mismatch(self, monkeypatch, bad):
        perturb_two_param(monkeypatch, 4, bad)
        assert not verify_two_param_reductions(4, Fraction(2), Fraction(3))

    def test_pole(self):
        with pytest.raises(PoleError):
            two_param_euler_formula(2, 1, -1)
        with pytest.raises(PoleError):
            two_param_euler_oracle(2, 1, 1, -1)
        with pytest.raises(PoleError):
            verify_two_param_reductions(2, 1, -1)

    def test_alpha_zero_rejected(self):
        with pytest.raises(DomainError):
            two_param_euler_formula(2, 0, 1)
        with pytest.raises(DomainError):
            two_param_euler_oracle(2, 1, 0, 1)


class TestReductionSweep:
    @settings(max_examples=40, deadline=None)
    @given(
        k_max=st.integers(0, 6),
        alphas=st.lists(small_rationals.filter(bool), min_size=1, max_size=3, unique=True),
        lambdas=st.lists(
            small_rationals.filter(lambda v: v != -1), min_size=1, max_size=3, unique=True
        ),
    )
    def test_matches_per_point_checks(self, k_max, alphas, lambdas):
        rows = two_param_reduction_sweep(k_max, alphas, lambdas)
        assert rows == per_point_reductions(k_max, alphas, lambdas)
        assert all(passed for *_, passed in rows)

    def test_default_grid(self):
        rows = two_param_reduction_sweep(3)
        assert rows == per_point_reductions(3, REDUCTION_ALPHAS, REDUCTION_LAMBDAS)
        assert len(rows) == 4 * 9

    @pytest.mark.parametrize(
        "alphas, lambdas",
        [
            ([Fraction(1)], [Fraction(-1)]),
            ([Fraction(0)], [Fraction(3)]),
            ([Fraction(0)], [Fraction(-1)]),
            ([Fraction(2), Fraction(-1, 2)], [Fraction(1, 4), Fraction(-1)]),
            ([Fraction(2), Fraction(0)], [Fraction(-1), Fraction(3)]),
            ([Fraction(-3), Fraction(0)], [Fraction(-1), Fraction(3)]),
            (None, [Fraction(-1)]),
            ([Fraction(0)], None),
        ],
    )
    def test_bad_grid_raises_as_per_point(self, alphas, lambdas):
        got = outcome(two_param_reduction_sweep, 3, alphas, lambdas)
        want = outcome(
            per_point_reductions, 3, alphas or REDUCTION_ALPHAS, lambdas or REDUCTION_LAMBDAS
        )
        assert isinstance(got, tuple) and got == want

    @pytest.mark.parametrize("bad", REDUCTION_PERTURBATIONS)
    def test_detects_each_mismatch_as_per_point(self, monkeypatch, bad):
        perturb_two_param(monkeypatch, 4, bad)
        alphas, lambdas = [Fraction(-1, 2), Fraction(2)], [Fraction(1), Fraction(3)]
        rows = two_param_reduction_sweep(6, alphas, lambdas)
        assert rows == per_point_reductions(6, alphas, lambdas)
        failed = {(n, alpha, lam) for n, alpha, lam, passed in rows if not passed}
        assert (4, Fraction(2), Fraction(3)) in failed
        assert all(n == 4 for n, _, _ in failed)
        if bad == (1, 1):
            assert len(failed) == len(alphas) * len(lambdas)

    def test_builds_each_polynomial_once_per_index(self, monkeypatch):
        # Per n on the default grid: the 9 grid points, which hold every
        # E_n(x; 1, lam), and 6 pivots alpha/x for each of the 3 lambdas.
        calls = []
        real = sequences.two_param_euler_formula

        def counted(n, alpha, lam):
            calls.append((n, Fraction(alpha), Fraction(lam)))
            return real(n, alpha, lam)

        monkeypatch.setattr(sequences, "two_param_euler_formula", counted)
        rows = two_param_reduction_sweep(5)
        assert all(passed for *_, passed in rows)
        assert len(calls) == len(set(calls)) == 6 * 27

    def test_named_checks(self):
        assert determinant_relation_checks(4) == [
            (n, k, True) for n in range(1, 5) for k in range(1, n + 1)
        ]
        assert alternating_sum_checks(5) == [(n, True) for n in range(1, 6)]
        assert determinant_relation_checks(0) == alternating_sum_checks(0) == []


class TestSequenceValueDispatch:
    def test_formula_oracle_agreement(self):
        for n in (2, 4, 8):
            a = sequence_value("bernoulli", n, "formula")
            b = sequence_value("bernoulli", n, "oracle")
            assert a.value == b.value
            assert a.provenance == "formula" and b.provenance == "oracle"
        for n in (1, 3, 6):
            a = sequence_value("apostol_bernoulli", n, "formula", lam=Fraction(2))
            b = sequence_value("apostol_bernoulli", n, "oracle", lam=Fraction(2))
            assert a.value == b.value
        for n in (0, 3, 5):
            a = sequence_value("euler_number", n, "formula")
            b = sequence_value("euler_number", n, "oracle")
            assert a.value == b.value
        for n in (0, 2, 5):
            a = sequence_value("euler_polynomial", n, "formula", x=Fraction(1, 3))
            b = sequence_value("euler_polynomial", n, "oracle", x=Fraction(1, 3))
            assert a.value == b.value
        for n in (0, 2, 4):
            a = sequence_value(
                "two_param_euler", n, "formula", alpha=Fraction(2), lam=Fraction(3), x=1
            )
            b = sequence_value(
                "two_param_euler", n, "oracle", alpha=Fraction(2), lam=Fraction(3), x=1
            )
            assert a.value == b.value

    def test_polynomial_value_without_x(self):
        v = sequence_value("euler_polynomial", 2, "formula")
        assert isinstance(v.value, Polynomial)
        assert v.parameters == ()

    def test_notes_for_nonpositive_lambda(self):
        v = sequence_value(
            "two_param_euler", 1, "formula", alpha=1, lam=Fraction(-3)
        )
        assert v.notes and "outside" in v.notes[0]
        clean = sequence_value(
            "two_param_euler", 1, "formula", alpha=1, lam=Fraction(3)
        )
        assert clean.notes == ()

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            sequence_value("gamma", 1)
        with pytest.raises(DomainError):
            sequence_value("bernoulli", 1, "guess")
        with pytest.raises(DomainError):
            sequence_value("bernoulli", -1, "oracle")
        with pytest.raises(DomainError):
            sequence_value("bernoulli", 3, "formula")
        with pytest.raises(DomainError):
            sequence_value("apostol_bernoulli", 1, "formula")
        with pytest.raises(DomainError):
            sequence_value("euler_polynomial", 1, "oracle")
        with pytest.raises(DomainError):
            sequence_value("two_param_euler", 1, "oracle", alpha=1, lam=2)

    def test_unread_parameter_raises(self):
        with pytest.raises(DomainError, match="euler_number does not read the x parameter"):
            sequence_value("euler_number", 4, x=Fraction(1, 3))
        with pytest.raises(DomainError, match="bernoulli does not read the lambda parameter"):
            sequence_value("bernoulli", 4, "oracle", lam=2)
        reads = {
            "bernoulli": {},
            "apostol_bernoulli": {"lam": 2},
            "euler_number": {},
            "euler_polynomial": {"x": 1},
            "two_param_euler": {"alpha": 2, "lam": 3, "x": 1},
        }
        names = {"lam": "lambda", "alpha": "alpha", "x": "x"}
        for family, params in reads.items():
            for route in ("formula", "oracle"):
                sequence_value(family, 2, route, **params)
                for keyword, name in names.items():
                    if keyword not in params:
                        with pytest.raises(DomainError, match=f"does not read the {name} "):
                            sequence_value(family, 2, route, **params, **{keyword: 1})
