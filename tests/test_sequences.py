"""Number/polynomial families: closed forms against series oracles."""

import itertools
import math
import sys
import types
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stirnum import sequences
from stirnum import series as series_module
from stirnum.errors import ConsistencyError, DomainError, PoleError, PrecisionExhaustedError
from stirnum.sequences import (
    FAMILIES,
    REDUCTION_ALPHAS,
    REDUCTION_LAMBDAS,
    Polynomial,
    _euler_even_direct,
    _geometric_stirling_sum,
    alternating_sum_checks,
    apostol_bernoulli_formula,
    apostol_bernoulli_oracle,
    apostol_bernoulli_series,
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
from stirnum.series import _EGF_MIN_LENGTH, LaurentSeries, exp_linear, recip_exp_linear
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
        (-1) ** (n - k) * math.comb(n, k) * 2 * _geometric_stirling_sum(n - k + 1, 1, 2)
        for k in range(n + 1)
    ]


def reference_two_param_coeffs(n, alpha, lam):
    rho = 1 / (lam + 1)
    return [
        2
        * (-alpha) ** (n - k)
        * math.comb(n, k)
        * _geometric_stirling_sum(n - k + 1, rho.numerator, rho.denominator)
        for k in range(n + 1)
    ]


def reference_half_weight(j):
    return 2 * _geometric_stirling_sum(j, 1, 2)


def reference_euler_even_direct(n):
    """The single-sum even-index form, one Fraction product per term."""
    total = Fraction(0)
    for k in range(n + 1):
        total += reference_half_weight(n - k + 1) * Fraction((-1) ** k, 2**k) * math.comb(n, k)
    return Fraction(4) ** (n // 2) * total


def reference_alternating_sum(n):
    total = Fraction(0)
    for k in range(2 * n):
        total += (
            reference_half_weight(2 * n - k) * Fraction((-1) ** k, 2**k) * math.comb(2 * n - 1, k)
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

    def test_an_even_index_route_that_disagrees_raises(self, monkeypatch):
        # Fault injection: the single-sum route of even n is off, so the
        # two routes disagree and neither value is returned.
        monkeypatch.setattr(sequences, "_euler_even_direct", lambda n: Fraction(7))
        with pytest.raises(ConsistencyError, match=r"^euler_number\(4\): half-point route 5 != even-index route 7$"):
            euler_number(4)
        assert euler_number(3) == 0

    def test_a_non_integral_value_raises(self, monkeypatch):
        # Fault injection: E_n(1/2) is off by 2**-(n+1), so at odd n, where
        # no second route runs, the value comes out non-integral.
        real = sequences.euler_polynomial_formula

        def shifted(n):
            return types.SimpleNamespace(evaluate=lambda x: real(n).evaluate(x) + Fraction(1, 2 ** (n + 1)))

        monkeypatch.setattr(sequences, "euler_polynomial_formula", shifted)
        with pytest.raises(ConsistencyError, match=r"^euler_number\(3\) came out non-integral: 1/2$"):
            euler_number(3)


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

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40), nonzero_rationals, rationals.filter(lambda lam: lam != -1))
    @example(9, Fraction(-3, 7), Fraction(0))
    @example(9, Fraction(5, 2), Fraction(-5, 2))
    def test_row_routes_match_reference(self, n, alpha, lam):
        # The polynomial and the pivot sum of the reduction sweep, each
        # read off the one row of (n, lam).
        row = sequences._two_param_row(n, lam)
        a, b = alpha.numerator, alpha.denominator
        reference = reference_two_param_coeffs(n, alpha, lam)
        assert sequences._two_param_poly(n, a, b, row) == Polynomial.from_coeffs(reference)
        pivot = Fraction(*sequences._two_param_pivot(n, a, b, row))
        assert pivot == two_param_euler_formula(n, alpha, lam).evaluate(1) == sum(reference)


def assert_canonical_polynomial(poly):
    """Integer numerators over one denominator: den > 0,
    gcd(den, *nums) == 1 and no trailing zero numerator."""
    assert type(poly.nums) is tuple and all(type(x) is int for x in poly.nums)
    assert type(poly.den) is int and poly.den > 0
    assert math.gcd(poly.den, *poly.nums) == 1
    assert not poly.nums or poly.nums[-1] != 0


class TestCanonicalPolynomials:
    def test_construction_is_canonical(self):
        p = Polynomial((2, -4, 0, 0), -6)
        assert (p.nums, p.den) == ((-1, 2), 3)
        assert p.coeffs == (Fraction(-1, 3), Fraction(2, 3))
        assert Polynomial((0, 0), 5) == Polynomial(()) == Polynomial.from_coeffs([])
        assert (Polynomial(()).nums, Polynomial(()).den) == ((), 1)
        assert hash(p) == hash(Polynomial.from_coeffs(p.coeffs))

    def test_zero_denominator_rejected(self):
        with pytest.raises(DomainError):
            Polynomial((1, 2), 0)
        with pytest.raises(DomainError):
            Polynomial((0, 0), 0)

    @pytest.mark.parametrize("n", range(0, 41))
    def test_closed_forms_on_the_reduction_grid(self, n):
        polys = [euler_polynomial_formula(n)] + [
            two_param_euler_formula(n, alpha, lam)
            for alpha in REDUCTION_ALPHAS
            for lam in REDUCTION_LAMBDAS
        ]
        for poly in polys:
            assert_canonical_polynomial(poly)
            assert Polynomial.from_coeffs(poly.coeffs) == poly
            assert poly.degree == n

    @settings(max_examples=200)
    @given(st.lists(rationals, max_size=12))
    def test_from_coeffs_is_canonical(self, values):
        poly = Polynomial.from_coeffs(values)
        assert_canonical_polynomial(poly)
        assert Polynomial(poly.nums, poly.den) == poly


class TestGeometricSum:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(-(10**6), 10**6),
        st.one_of(st.just(1), st.integers(1, 10**6), st.just(10**299 + 7)),
    )
    @example(60, -1, 1)
    @example(60, 3, 10**299 + 7)
    @example(1, -(10**300), 10**299 + 7)
    def test_matches_the_term_by_term_sum(self, j, p, q):
        assert _geometric_stirling_sum(j, p, q) == reference_geometric_sum(j, Fraction(p, q))

    def test_the_empty_sum_is_zero(self):
        assert _geometric_stirling_sum.__wrapped__(0, 3, 5) == 0

    @pytest.mark.parametrize("m", range(1, 8))
    def test_reads_every_entry_of_the_shared_row(self, m):
        """Raising S(7, m) by one in the shared table moves g(7) by exactly
        its term's weight (-1)**(m-1) (m-1)! rho**m."""
        j, rho = 7, Fraction(2, 3)
        table = sequences._SECOND
        row = table.row(j)
        rows = list(table._rows)
        rows[j] = row[:m] + (row[m] + 1,) + row[m + 1 :]
        _geometric_stirling_sum.cache_clear()
        try:
            clean = _geometric_stirling_sum(j, 2, 3)
            with mock.patch.object(table, "_rows", rows):
                _geometric_stirling_sum.cache_clear()
                patched = _geometric_stirling_sum(j, 2, 3)
        finally:
            _geometric_stirling_sum.cache_clear()
        assert patched - clean == (-1) ** (m - 1) * math.factorial(m - 1) * rho**m


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
    """Make E_{n_bad}(x; *bad) come out with 1/7 added to its x coefficient,
    both as a built polynomial and as a pivot sum at x = 1."""
    bad_alpha, bad_lam = bad
    bad_row = sequences._two_param_row(n_bad, bad_lam)
    real_poly, real_pivot = sequences._two_param_poly, sequences._two_param_pivot

    def hit(n, a, b, row):
        return n == n_bad and Fraction(a, b) == bad_alpha and row == bad_row

    def perturbed_poly(n, a, b, row):
        poly = real_poly(n, a, b, row)
        if not hit(n, a, b, row):
            return poly
        coeffs = list(poly.coeffs)
        coeffs[1] += Fraction(1, 7)
        return Polynomial.from_coeffs(coeffs)

    def perturbed_pivot(n, a, b, row):
        num, den = real_pivot(n, a, b, row)
        if not hit(n, a, b, row):
            return num, den
        return 7 * num + den, 7 * den  # at x = 1 the value gains the 1/7 too

    monkeypatch.setattr(sequences, "_two_param_poly", perturbed_poly)
    monkeypatch.setattr(sequences, "_two_param_pivot", perturbed_pivot)


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


def fresh_charge(key, builds):
    """The charge of what the store's entry under ``key``, the builds of
    the reduction checks at one (n, lambda), holds, each item asserted to
    be what a fresh build of that (n, lambda) gives."""
    tag, n, p, q = key
    lam = Fraction(p, q)
    assert tag == "reductions" and (builds.n, builds.lam) == (n, lam)
    row = sequences._two_param_row(n, lam)
    assert builds._row == row
    charged = series_module._charged_bits(*row)
    for (a, b), poly in builds._polys.items():
        assert poly == sequences._two_param_poly(n, a, b, row), (key, a, b)
        charged += series_module._charged_bits(poly.nums, poly.den)
    for (a, b), sums in builds._pivot_sums.items():
        pivots = [Fraction(a, b) / x for x in sequences._REDUCTION_NODES]
        assert sums == [sequences._two_param_pivot(n, p.numerator, p.denominator, row) for p in pivots], (key, a, b)
        charged += sum(series_module._charged_bits([num], den) for num, den in sums)
    if builds._euler is not None:
        assert lam == 1 and builds._euler == euler_polynomial_formula(n)
        charged += series_module._charged_bits(builds._euler.nums, builds._euler.den)
    return charged


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

    @pytest.mark.parametrize("bad", [*REDUCTION_PERTURBATIONS, (Fraction(2, 5), Fraction(3))])
    def test_reductions_detect_each_mismatch(self, monkeypatch, cold_store, bad):
        # On a cold store: a warm one holds the builds made before the
        # perturbation.  The last input is the pivot of 1/x at x = 5/2, so
        # it checks alpha = 1, where only the pointwise reduction runs.
        perturb_two_param(monkeypatch, 4, bad)
        alpha = Fraction(1) if bad[0] == Fraction(2, 5) else Fraction(2)
        with cold_store():
            assert not verify_two_param_reductions(4, alpha, Fraction(3))

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


def spy_oracle_orders(monkeypatch):
    """The orders at which the oracles read their stored bases, in call
    order."""
    orders = []
    real = sequences._stored_base

    def spy(mu, order):
        orders.append(order)
        return real(mu, order)

    monkeypatch.setattr(sequences, "_stored_base", spy)
    return orders


# Family -> (sequence_value keywords, the indices its closed form covers).
FAMILY_POINTS = {
    "bernoulli": ({}, lambda n: n >= 2 and n % 2 == 0),
    "apostol_bernoulli": ({"lam": Fraction(-5, 3)}, lambda n: n >= 1),
    "euler_number": ({}, lambda n: True),
    "euler_polynomial": ({"x": Fraction(-2, 3)}, lambda n: True),
    "two_param_euler": (
        {"alpha": Fraction(-3, 2), "lam": Fraction(2, 3), "x": Fraction(1, 3)},
        lambda n: True,
    ),
}


class TestOracleOrders:
    """Each oracle reads its base at the least order whose window holds t**n."""

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 280])
    def test_bernoulli_reads_the_last_coefficient(self, monkeypatch, n):
        # At lambda = 1 the reciprocal has valuation 1, so the window of
        # t/(e**t - 1) is [0, order - 2): order n + 3 is the least.
        orders = spy_oracle_orders(monkeypatch)
        value = bernoulli_oracle(n)
        assert orders == [n + 3]
        assert apostol_bernoulli_oracle(n, 1) == value
        assert orders == [n + 3, n + 3]
        assert apostol_bernoulli_series(1, n + 3).precision == n + 1
        with pytest.raises(PrecisionExhaustedError):
            apostol_bernoulli_series(1, n + 2).coeff(n)
        if n % 2 == 0 and n >= 2:
            assert value == bernoulli_formula(n // 2)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 280])
    @pytest.mark.parametrize("lam", [Fraction(2, 3), Fraction(-5, 3)])
    def test_apostol_bernoulli_shares_the_lambda_one_order(self, monkeypatch, n, lam):
        # At lambda != 1 the window is [1, order): n + 3 holds t**n too.
        orders = spy_oracle_orders(monkeypatch)
        value = apostol_bernoulli_oracle(n, lam)
        assert orders == [n + 3]
        assert value == (apostol_bernoulli_formula(n, lam) if n else 0)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 101, 102, 280])
    @pytest.mark.parametrize(
        "alpha, lam",
        [(Fraction(1), Fraction(1)), (Fraction(-3, 2), Fraction(2, 3)), (Fraction(2), Fraction(3))],
    )
    def test_two_param_euler_reads_the_last_coefficient(self, monkeypatch, n, alpha, lam):
        # At lam != -1 the reciprocal has valuation 0 and the product's
        # window is [0, order - 1): order n + 2 is the least.  Below the
        # split the oracle multiplies the product out; from it on it reads
        # coefficient n alone.
        x = Fraction(1, 3)
        orders = spy_oracle_orders(monkeypatch)
        products = []
        real_mul = LaurentSeries.__mul__
        monkeypatch.setattr(
            LaurentSeries, "__mul__", lambda a, b: products.append(b) or real_mul(a, b)
        )
        value = two_param_euler_oracle(n, x, alpha, lam)
        assert orders == [n + 2]
        assert len(products) == (1 if n + 2 < _EGF_MIN_LENGTH else 0)
        assert value == two_param_euler_formula(n, alpha, lam).evaluate(x)
        if n in (102, 280):
            product = exp_linear(x, n + 2) * recip_exp_linear(alpha, lam, 1, n + 2)
            assert value == product.scale(2).coeff(n) * math.factorial(n)
        with pytest.raises(PrecisionExhaustedError):
            (exp_linear(x, n + 1) * recip_exp_linear(alpha, lam, 1, n + 1)).coeff(n)

    @pytest.mark.parametrize("family", list(FAMILY_POINTS))
    def test_formula_matches_oracle_through_40(self, family):
        params, covered = FAMILY_POINTS[family]
        for n in range(41):
            if covered(n):
                formula = sequence_value(family, n, "formula", **params).value
                assert formula == sequence_value(family, n, "oracle", **params).value, n


class TestInPlaceReads:
    """The oracles read the stored base B_mu = 1/(mu e**t - 1) in place,
    built at their order or longer, and return what the truncated, scaled
    and dilated copy of ``recip_exp_linear`` gives: on a cold store, and on
    a store that built the base at order 300 first."""

    LONG = 300

    @staticmethod
    def read(mu, warm, oracle):
        """oracle() on a fresh store of the default budget that holds B_mu
        at order ``LONG`` first if warm, and the order the store holds that
        base at afterwards (None if it holds none, as at mu = 0)."""
        store = series_module._Ladders(series_module._LADDERS.budget)
        with mock.patch.object(series_module, "_LADDERS", store):
            if warm and mu:
                store.ladder(mu, TestInPlaceReads.LONG)
            value = oracle()
        entry = store._entries.get(series_module._key(mu))
        if entry is None:
            return value, None
        base = entry[0].base
        return value, len(base.nums) - base.offset + 1

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 120),
        st.sampled_from([Fraction(1), Fraction(2, 3), Fraction(-5, 3), Fraction(3)]),
        st.booleans(),
    )
    @example(0, Fraction(1), False)
    @example(0, Fraction(1), True)
    @example(0, Fraction(2, 3), True)
    @example(120, Fraction(1), True)
    def test_apostol_bernoulli_matches_the_copy(self, cold_store, n, lam, warm):
        with cold_store():
            want = apostol_bernoulli_series(lam, n + 3).coeff(n) * math.factorial(n)
        value, held = self.read(lam, warm, lambda: apostol_bernoulli_oracle(n, lam))
        assert value == want
        assert held == (self.LONG if warm else n + 3)
        if lam == 1:
            assert self.read(lam, warm, lambda: bernoulli_oracle(n))[0] == want

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 120),
        st.fractions(min_value=-5, max_value=5, max_denominator=7),
        st.sampled_from([Fraction(1), Fraction(-3, 2), Fraction(2), Fraction(-1, 3)]),
        st.sampled_from([Fraction(0), Fraction(1), Fraction(2, 3), Fraction(-5, 3), Fraction(3)]),
        st.booleans(),
    )
    @example(0, Fraction(1, 3), Fraction(-3, 2), Fraction(0), False)
    @example(110, Fraction(1, 3), Fraction(-3, 2), Fraction(0), True)
    @example(110, Fraction(1, 3), Fraction(-3, 2), Fraction(2, 3), True)
    @example(101, Fraction(0), Fraction(2), Fraction(3), True)
    def test_two_param_euler_matches_the_copy(self, cold_store, n, x, alpha, lam, warm):
        with cold_store():
            product = exp_linear(x, n + 2) * recip_exp_linear(alpha, lam, 1, n + 2)
            want = 2 * math.factorial(n) * product.coeff(n)
        # 1/(lam e**t + 1) is -B_(-lam).
        value, held = self.read(-lam, warm, lambda: two_param_euler_oracle(n, x, alpha, lam))
        assert value == want
        # At order 2 (n = 0) the oracle reads a base the store does not keep.
        cold = n + 2 if n + 2 >= 3 else None
        assert held == (None if not lam else self.LONG if warm else cold)


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

    @pytest.mark.parametrize("alphas, lambdas", [([], None), (None, []), ([], [])])
    def test_an_empty_grid_sweeps_no_points(self, alphas, lambdas):
        # Only None selects the default grid.
        assert two_param_reduction_sweep(3, alphas, lambdas) == []

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
    def test_detects_each_mismatch_as_per_point(self, monkeypatch, cold_store, bad):
        perturb_two_param(monkeypatch, 4, bad)
        alphas, lambdas = [Fraction(-1, 2), Fraction(2)], [Fraction(1), Fraction(3)]
        with cold_store():
            rows = two_param_reduction_sweep(6, alphas, lambdas)
        with cold_store():
            assert rows == per_point_reductions(6, alphas, lambdas)
        failed = {(n, alpha, lam) for n, alpha, lam, passed in rows if not passed}
        assert (4, Fraction(2), Fraction(3)) in failed
        assert all(n == 4 for n, _, _ in failed)
        if bad == (1, 1):
            assert len(failed) == len(alphas) * len(lambdas)

    # Builds per n on the default grid: one row per lambda, the 9 grid
    # points, which hold every E_n(x; 1, lam), one pivot sum per alpha/x
    # for each of the 3 lambdas, and E_n(x).
    PER_N = {"_two_param_row": 3, "_two_param_poly": 9, "_two_param_pivot": 6 * 3, "euler_polynomial_formula": 1}

    def counted_builds(self, monkeypatch):
        """name -> the arguments of every call of that build from now on."""
        calls = {name: [] for name in self.PER_N}
        for name, seen in calls.items():

            def counted(n, *args, real=getattr(sequences, name), seen=seen):
                seen.append((n, *args))
                return real(n, *args)

            monkeypatch.setattr(sequences, name, counted)
        return calls

    def test_builds_each_polynomial_once_per_index(self, monkeypatch, cold_store):
        calls = self.counted_builds(monkeypatch)
        with cold_store():
            rows = two_param_reduction_sweep(5)
        assert all(passed for *_, passed in rows)
        for name, seen in calls.items():
            assert len(seen) == len(set(seen)) == 6 * self.PER_N[name], name

    def test_a_second_sweep_on_a_fresh_store_builds_nothing(self, monkeypatch):
        store = series_module._Ladders(series_module._LADDERS.budget)
        monkeypatch.setattr(series_module, "_LADDERS", store)
        rows = two_param_reduction_sweep(5)
        calls = self.counted_builds(monkeypatch)
        assert two_param_reduction_sweep(5) == rows
        assert calls == {name: [] for name in self.PER_N}
        assert len(store._entries) == 6 * len(REDUCTION_LAMBDAS)

    def test_a_second_sweep_on_a_store_that_keeps_nothing_builds_everything_again(self, monkeypatch):
        monkeypatch.setattr(series_module, "_LADDERS", series_module._Ladders(0))
        rows = two_param_reduction_sweep(5)
        calls = self.counted_builds(monkeypatch)
        assert two_param_reduction_sweep(5) == rows
        for name, seen in calls.items():
            assert len(seen) == len(set(seen)) == 6 * self.PER_N[name], name

    # The grids of the interleaved sweeps: the default one, None, and
    # grids narrowed to one point each, as --alpha and --lambda narrow it.
    # 2 and 2/3 have pivots 4/5 and 4/15, 3 and 3/4 one numerator, and one
    # lambda is a 400-digit literal.
    LONG_LAMBDA = Fraction(int("7" * 400), 3)
    NARROWED_ALPHAS = (Fraction(1), Fraction(2), Fraction(-1, 2), Fraction(2, 3), Fraction(-3, 7))
    NARROWED_LAMBDAS = (Fraction(1), Fraction(3), Fraction(1, 4), Fraction(3, 4), Fraction(5, 2), LONG_LAMBDA)
    SMALL_BITS = 1 << 12

    @settings(max_examples=30, deadline=None)
    @example(
        # Rising, then falling: a (n, 3/4) entry and, at lambda = 1/4, the
        # pivot 4/15 of alpha = 2/3 read after the pivot 4/5 of alpha = 2.
        sweeps=[
            (3, (None, None)),
            (5, ([Fraction(2, 3)], [Fraction(3, 4)])),
            (2, ([Fraction(2, 3)], [Fraction(1, 4)])),
        ],
        budget=series_module._LADDERS.budget,
    )
    @given(
        sweeps=st.lists(
            st.tuples(
                st.integers(0, 8),
                st.one_of(
                    st.just((None, None)),
                    st.tuples(
                        st.sampled_from(NARROWED_ALPHAS).map(lambda a: [a]),
                        st.sampled_from(NARROWED_LAMBDAS).map(lambda v: [v]),
                    ),
                ),
            ),
            min_size=1,
            max_size=5,
        ),
        budget=st.sampled_from([0, SMALL_BITS, series_module._LADDERS.budget]),
    )
    def test_interleaved_sweeps_read_what_a_cold_store_gives(self, cold_store, sweeps, budget):
        # Sweeps at rising and falling k_max over changing grids share one
        # store: each gives the per-point checks' rows on a cold store,
        # every entry kept holds the builds of the (n, lambda) its key
        # names and is charged them, and the store stays in its budget.
        store = series_module._Ladders(budget)
        for k_max, (alphas, lambdas) in sweeps:
            with mock.patch.object(series_module, "_LADDERS", store):
                rows = two_param_reduction_sweep(k_max, alphas, lambdas)
            with cold_store():
                assert rows == per_point_reductions(
                    k_max, alphas or REDUCTION_ALPHAS, lambdas or REDUCTION_LAMBDAS
                )
            assert all(passed for *_, passed in rows)
            assert store.bits == sum(bits for _, bits in store._entries.values()) <= budget
            for key, (builds, bits) in store._entries.items():
                assert builds.bits == bits == fresh_charge(key, builds), key
            if budget <= self.SMALL_BITS:
                # Every build is charged at least 8,192 bits, so a small
                # store keeps none, a 400-digit row least of all.
                long = (self.LONG_LAMBDA.numerator, self.LONG_LAMBDA.denominator)
                assert not any(key[2:] == long for key in store._entries)

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

    # Parameter -> the sequence_value keyword that sets it, at an accepted value.
    KEYWORDS = {"alpha": ("alpha", 2), "lambda": ("lam", 3), "x": ("x", 1)}

    def test_families_table(self):
        assert FAMILIES == {
            "bernoulli": (),
            "apostol_bernoulli": ("lambda",),
            "euler_number": (),
            "euler_polynomial": ("x",),
            "two_param_euler": ("alpha", "lambda", "x"),
        }
        assert "euler_number" in FAMILIES and "gamma" not in FAMILIES
        for family, names in FAMILIES.items():
            value = sequence_value(family, 2, "oracle", **self.accepted(names))
            assert [name for name, _ in value.parameters] == list(names)

    def accepted(self, names):
        """The sequence_value keywords that set names, at accepted values."""
        return dict(self.KEYWORDS[name] for name in names)

    def test_unread_parameter_raises(self):
        with pytest.raises(DomainError, match="euler_number does not read the x parameter"):
            sequence_value("euler_number", 4, x=Fraction(1, 3))
        with pytest.raises(DomainError, match="bernoulli does not read the lambda parameter"):
            sequence_value("bernoulli", 4, "oracle", lam=2)
        for family, names in FAMILIES.items():
            for route in ("formula", "oracle"):
                sequence_value(family, 2, route, **self.accepted(names))
                for name in self.KEYWORDS.keys() - set(names):
                    params = self.accepted([*names, name])
                    with pytest.raises(
                        DomainError, match=f"^{family} does not read the {name} parameter$"
                    ):
                        sequence_value(family, 2, route, **params)

    def test_missing_parameter_raises(self):
        for family, names in FAMILIES.items():
            for route in ("formula", "oracle"):
                for name in names:
                    if (name, route) == ("x", "formula"):
                        continue  # the formula route returns the polynomial
                    params = self.accepted(n for n in names if n != name)
                    with pytest.raises(DomainError, match=f"^{family} needs the {name} parameter$"):
                        sequence_value(family, 2, route, **params)


def route_calls(cold_store, route, n, params):
    """The code objects of the stirnum functions that route(n, params) runs,
    a polynomial's evaluation at x included.  The route runs on an empty
    store of bases and an empty ``_geometric_stirling_sum`` cache, so that
    no function hides behind a hit."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("stirnum"):
            codes.add(frame.f_code)

    cold_sum = lru_cache(maxsize=None)(sequences._geometric_stirling_sum.__wrapped__)
    with cold_store(), mock.patch.object(sequences, "_geometric_stirling_sum", cold_sum):
        before = sys.getprofile()
        sys.setprofile(profile)
        try:
            value = route(n, params)
            if isinstance(value, Polynomial):
                value.evaluate(params["x"])
        except PoleError:
            pass  # apostol_bernoulli's formula does not cover lambda = 1
        finally:
            sys.setprofile(before)
    return codes


def code_name(code):
    return f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}:{code.co_firstlineno}"


class TestRouteIndependence:
    """The formula and oracle routes of a family share no function that
    computes a value: the two sets of functions they run meet only in
    ``series._normalized``, which puts a numerator list over its gcd, the
    domain check ``_check_two_param`` and the dispatch lambdas of
    ``_FAMILY_TABLE``."""

    # Below and above the order split, where the oracles change kernels.
    INDICES = (12, 110)
    POINTS = {"alpha": (1, Fraction(-3, 2)), "lambda": (1, Fraction(2, 3)), "x": (Fraction(1, 3),)}

    def allowed(self):
        normalized = series_module._normalized.__code__
        codes = {normalized, sequences._check_two_param.__code__}
        # Before CPython 3.12 a comprehension runs as a code object of its
        # own; those inside _normalized are _normalized.
        codes |= {c for c in normalized.co_consts if isinstance(c, types.CodeType)}
        for _, formula, oracle in sequences._FAMILY_TABLE.values():
            codes |= {formula.__code__, oracle.__code__}
        return codes

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_the_routes_meet_only_in_the_allowed_helpers(self, cold_store, family):
        names, formula, oracle = sequences._FAMILY_TABLE[family]
        shared = set()
        for n in self.INDICES:
            for point in itertools.product(*(self.POINTS[name] for name in names)):
                params = {name: Fraction(value) for name, value in zip(names, point)}
                both = route_calls(cold_store, formula, n, params)
                both &= route_calls(cold_store, oracle, n, params)
                assert both <= self.allowed(), sorted(map(code_name, both - self.allowed()))
                shared |= both
        # The audit sees the helpers it allows: every Euler family shares _normalized.
        if family.startswith(("euler", "two_param")):
            assert series_module._normalized.__code__ in shared
        if family == "two_param_euler":
            assert sequences._check_two_param.__code__ in shared
