"""Truncated Laurent series: exactness, window rules, and ring structure."""

import contextlib
import functools
import io
import math
import operator
import shlex
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirnum import cli
from stirnum import series as series_module
from stirnum.errors import DomainError, PrecisionExhaustedError, ZeroSeriesError
from stirnum.identities import DEFAULT_ALPHAS, DEFAULT_LAMBDAS
from stirnum.sequences import (
    REDUCTION_ALPHAS,
    REDUCTION_LAMBDAS,
    apostol_bernoulli_oracle,
    bernoulli_oracle,
    euler_polynomial_oracle,
    two_param_euler_formula,
    two_param_euler_oracle,
)
from stirnum.series import ZERO, LaurentSeries, exp_linear, linear_combination, recip_exp_linear
from stirnum.stirling import stirling2
from store_helpers import STORE_BITS, base_order, cold_entry, held_order, ladder_key, mu_of

small_fractions = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=50
)


@st.composite
def series(draw, min_len=1, max_len=8):
    offset = draw(st.integers(min_value=-4, max_value=4))
    coeffs = draw(st.lists(small_fractions, min_size=min_len, max_size=max_len))
    return LaurentSeries.from_coeffs(offset, coeffs)


# Zeros, the small fractions above, and denominators far beyond them.
kernel_fractions = st.one_of(
    st.just(Fraction(0)),
    small_fractions,
    st.builds(Fraction, st.integers(-(10**24), 10**24), st.integers(1, 10**24)),
)


@st.composite
def kernel_series(draw, max_len=14):
    """Series with negative offsets, leading and interior zeros, and
    windows that hold only zeros."""
    offset = draw(st.integers(min_value=-6, max_value=6))
    leading = draw(st.integers(min_value=0, max_value=3))
    body = draw(
        st.one_of(
            st.lists(kernel_fractions, min_size=1, max_size=max_len),
            st.lists(st.just(Fraction(0)), min_size=1, max_size=4),
        )
    )
    return LaurentSeries.from_coeffs(offset, [0] * leading + body)


def reference_mul(a, b):
    """Schoolbook product on Fraction coefficients, one Fraction per pair."""
    if a.is_zero or b.is_zero:
        return ZERO
    offset = a.offset + b.offset
    precision = min(a.precision + b._valuation_floor(), b.precision + a._valuation_floor())
    if precision <= offset:
        raise PrecisionExhaustedError("empty product window")
    out = [Fraction(0)] * (precision - offset)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            e = a.offset + i + b.offset + j
            if e < precision:
                out[e - offset] += x * y
    return LaurentSeries.from_coeffs(offset, out)


def reference_reciprocal(s):
    """Long division on Fraction coefficients: q_n = -(sum u_i q_{n-i}) / u_0."""
    v = None if s.is_zero else s.valuation()
    if v is None:
        raise ZeroSeriesError("no nonzero coefficient")
    offset = -v
    precision = s.precision - 2 * v - 1
    if precision <= offset:
        raise PrecisionExhaustedError("empty reciprocal window")
    unit = [s.coeff(v + j) for j in range(precision - offset)]
    out = [1 / unit[0]]
    for n in range(1, len(unit)):
        out.append(-sum(unit[i] * out[n - i] for i in range(1, n + 1)) / unit[0])
    return LaurentSeries.from_coeffs(offset, out)


def reference_add(a, b):
    """Termwise Fraction sum over [least offset, least precision)."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    offset = min(a.offset, b.offset)
    precision = min(a.precision, b.precision)
    out = [Fraction(0)] * (precision - offset)
    for side in (a, b):
        for i, c in enumerate(side.coeffs):
            if side.offset + i < precision:
                out[side.offset + i - offset] += c
    return LaurentSeries.from_coeffs(offset, out)


def reference_scale(s, factor):
    """One Fraction product per coefficient; 0 gives the exact zero."""
    if s.is_zero or not factor:
        return ZERO
    return LaurentSeries.from_coeffs(s.offset, (c * factor for c in s.coeffs))


def reference_linear_combination(terms, weights):
    """Scale each term, then add them one Fraction at a time."""
    acc = ZERO
    for term, weight in zip(terms, weights):
        acc = reference_add(acc, reference_scale(term, Fraction(weight)))
    return acc


def reference_derivative(s):
    """Termwise d/dt on Fraction coefficients."""
    if s.is_zero:
        return s
    coeffs = ((s.offset + i) * c for i, c in enumerate(s.coeffs))
    return LaurentSeries.from_coeffs(s.offset - 1, coeffs)


def reference_exp_linear(alpha, order):
    """exp(alpha*t) by the Fraction recurrence term * alpha / (n + 1)."""
    alpha = Fraction(alpha)
    coeffs = []
    term = Fraction(1)
    for n in range(order):
        coeffs.append(term)
        term = term * alpha / (n + 1)
    return LaurentSeries.from_coeffs(0, coeffs)


def reference_pow(s, k):
    """k - 1 repeated products on the Fraction reference multiply."""
    if k == 0:
        if s.is_zero:
            raise DomainError("0**0")
        return LaurentSeries.one(s.precision)
    result = s
    for _ in range(k - 1):
        result = reference_mul(result, s)
    return result


def outcome(op, *args):
    """The series op returns, or the type of the window error it raises."""
    try:
        return op(*args)
    except (PrecisionExhaustedError, ZeroSeriesError) as exc:
        return type(exc)


def result_or_error(op, *args):
    """The series op returns, or the type and message of the window error
    it raises."""
    try:
        return op(*args)
    except (PrecisionExhaustedError, ZeroSeriesError) as exc:
        return type(exc), str(exc)


def assert_canonical(s):
    """Integer numerators over one denominator, den > 0 and
    gcd(den, *nums) == 1; the exact zero stores nothing over 1."""
    assert type(s.nums) is tuple and all(type(x) is int for x in s.nums)
    assert type(s.den) is int and s.den > 0
    assert math.gcd(s.den, *s.nums) == 1
    assert s.nums or (s.offset, s.den) == (0, 1)


def assert_same_series(got, want):
    """Same window and coefficients as the reference, in canonical form,
    and equal and hashing equal to the reference's Fraction-built value."""
    if isinstance(want, type):
        assert got is want
        return
    assert_canonical(got)
    assert (got.offset, got.precision) == (want.offset, want.precision)
    assert got.coeffs == want.coeffs
    assert all(type(c) is Fraction for c in got.coeffs)
    assert got == want and hash(got) == hash(want)


def geometric(order):
    # 1/(1 - t) to the requested order
    return LaurentSeries.from_coeffs(0, [1] * order)


class TestConstruction:
    def test_from_coeffs(self):
        s = LaurentSeries.from_coeffs(-1, [1, Fraction(-1, 2)])
        assert s.offset == -1
        assert s.precision == 1
        assert s.coeff(-1) == 1
        assert s.coeff(0) == Fraction(-1, 2)

    def test_empty_coeffs_is_exact_zero(self):
        assert LaurentSeries.from_coeffs(3, []) is ZERO
        assert ZERO.is_zero
        assert ZERO.precision == math.inf

    def test_constant_and_one(self):
        c = LaurentSeries.constant(Fraction(5, 3), 4)
        assert c.offset == 0 and c.precision == 4
        assert c.coeff(0) == Fraction(5, 3) and c.coeff(3) == 0
        assert LaurentSeries.one(2).coeff(0) == 1

    def test_monomial(self):
        m = LaurentSeries.monomial(3, -2, 5)
        assert m.offset == -2 and m.precision == 5
        assert m.coeff(-2) == 3 and m.coeff(4) == 0
        with pytest.raises(DomainError):
            LaurentSeries.monomial(1, 5, 5)

    def test_exp_linear(self):
        e = exp_linear(1, 4)
        assert [e.coeff(n) for n in range(4)] == [1, 1, Fraction(1, 2), Fraction(1, 6)]
        assert exp_linear(-2, 3).coeffs == (Fraction(1), Fraction(-2), Fraction(2))
        assert exp_linear(0, 5) == LaurentSeries.one(5)
        with pytest.raises(DomainError):
            exp_linear(1, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.just(Fraction(0)),
            small_fractions,
            st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
        ),
        st.integers(min_value=1, max_value=300),
    )
    def test_exp_linear_matches_fraction_recurrence(self, alpha, order):
        assert_same_series(exp_linear(alpha, order), reference_exp_linear(alpha, order))


class TestCoeff:
    def test_below_offset_is_exactly_zero(self):
        s = LaurentSeries.from_coeffs(2, [7, 8])
        assert s.coeff(1) == 0
        assert s.coeff(-10) == 0

    def test_beyond_precision_raises(self):
        s = LaurentSeries.from_coeffs(0, [1, 2])
        with pytest.raises(PrecisionExhaustedError):
            s.coeff(2)

    def test_zero_series_any_exponent(self):
        assert ZERO.coeff(10**6) == 0
        assert ZERO.coeff(-(10**6)) == 0

    def test_bernoulli_pattern(self):
        # t/(e^t - 1) has coefficient B_n/n!
        f = (exp_linear(1, 12) - LaurentSeries.one(12)).reciprocal().shift(1)
        assert f.coeff(0) == 1
        assert f.coeff(1) == Fraction(-1, 2)
        assert f.coeff(2) == Fraction(1, 12)
        assert f.coeff(3) == 0
        assert f.coeff(4) == Fraction(-1, 720)


class TestPrecisionRules:
    def test_add_takes_min(self):
        a = LaurentSeries.from_coeffs(0, [1, 2, 3])
        b = LaurentSeries.from_coeffs(-1, [5, 6])
        s = a + b
        assert s.offset == -1
        assert s.precision == 1
        assert s.coeff(-1) == 5 and s.coeff(0) == 7

    def test_mul_shifts_by_valuation(self):
        a = LaurentSeries.from_coeffs(0, [0, 1, 1])  # valuation 1, precision 3
        b = LaurentSeries.from_coeffs(0, [1, 1])  # valuation 0, precision 2
        p = a * b
        assert p.offset == 0
        # min(3 + 0, 2 + 1) = 3
        assert p.precision == 3
        assert [p.coeff(e) for e in range(3)] == [0, 1, 2]

    def test_mul_with_all_zero_window_uses_precision(self):
        a = LaurentSeries.from_coeffs(0, [0, 0, 0])  # nothing visible up to t^3
        b = LaurentSeries.from_coeffs(0, [1, 1])
        p = a * b
        # min(3 + 0, 2 + 3) = 3: all three coefficients provably zero
        assert p.precision == 3
        assert all(c == 0 for _, c in p.coefficients())

    def test_derivative_drops_one(self):
        s = LaurentSeries.from_coeffs(-1, [1, 4, 9])  # t^-1 + 4 + 9t
        d = s.derivative()
        assert d.offset == -2 and d.precision == 1
        assert d.coeff(-2) == -1 and d.coeff(-1) == 0 and d.coeff(0) == 9

    def test_derivative_anchors(self):
        constant = LaurentSeries.one(5).derivative()
        assert all(c == 0 for _, c in constant.coefficients())
        square = LaurentSeries.monomial(1, 2, 6).derivative()
        assert square.coeff(1) == 2
        assert LaurentSeries.monomial(1, -1, 4).derivative().coeff(-2) == -1

    def test_monomial_product_cancels_exponents(self):
        product = LaurentSeries.monomial(1, -1, 5) * LaurentSeries.monomial(1, 1, 5)
        assert product.coeff(0) == 1
        assert all(c == 0 for e, c in product.coefficients() if e != 0)

    def test_reciprocal_window(self):
        s = LaurentSeries.from_coeffs(0, [0, 1, 1, 1, 1, 1])  # valuation 1, precision 6
        r = s.reciprocal()
        assert r.offset == -1
        assert r.precision == 6 - 2 - 1

    def test_scalar_ops_keep_window(self):
        s = LaurentSeries.from_coeffs(-2, [1, 2, 3])
        assert s.scale(Fraction(1, 3)).precision == s.precision
        assert (-s).offset == s.offset
        assert s.shift(5).offset == 3 and s.shift(5).precision == s.precision + 5


class TestReciprocal:
    def test_geometric(self):
        r = LaurentSeries.from_coeffs(0, [1, -1, 0, 0, 0, 0]).reciprocal()
        assert all(r.coeff(e) == 1 for e in range(r.precision))

    def test_laurent_inverse(self):
        f = (exp_linear(1, 9) - LaurentSeries.one(9)).reciprocal()
        assert f.offset == -1
        assert f.coeff(-1) == 1
        assert f.coeff(0) == Fraction(-1, 2)
        assert f.coeff(1) == Fraction(1, 12)

    def test_affine_unit(self):
        s = exp_linear(1, 8).scale(2) - LaurentSeries.one(8)  # 2e^t - 1
        r = s.reciprocal()
        assert [r.coeff(e) for e in range(3)] == [1, -2, 3]

    def test_product_with_reciprocal_is_one(self):
        s = LaurentSeries.from_coeffs(-1, [2, 1, Fraction(1, 3), 0, 5, 1, 1, 2])
        p = s * s.reciprocal()
        assert p.coeff(0) == 1
        assert all(p.coeff(e) == 0 for e in range(p.offset, p.precision) if e != 0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroSeriesError):
            ZERO.reciprocal()
        with pytest.raises(ZeroSeriesError):
            LaurentSeries.from_coeffs(0, [0, 0, 0]).reciprocal()

    def test_window_collapse_raises(self):
        # valuation 1, precision 2: result window [-1, -1) is empty
        s = LaurentSeries.from_coeffs(0, [0, 1])
        with pytest.raises(PrecisionExhaustedError):
            s.reciprocal()


# (alpha, lam, c) of 1/(lam e^(alpha t) + c), and the denominator each
# caller built for itself before recip_exp_linear.
EXPLICIT_DENOMINATORS = {
    "f": ((1, 1, -1), lambda n: exp_linear(1, n) - LaurentSeries.one(n)),
    "g": ((-1, -1, 1), lambda n: LaurentSeries.one(n) - exp_linear(-1, n)),
    "h and Euler": ((1, 1, 1), lambda n: exp_linear(1, n) + LaurentSeries.one(n)),
    "G at lambda 1": (
        (Fraction(-3, 2), Fraction(1), -1),
        lambda n: exp_linear(Fraction(-3, 2), n).scale(1) - LaurentSeries.one(n),
    ),
    "Apostol": (
        (1, Fraction(-3, 2), -1),
        lambda n: exp_linear(1, n).scale(Fraction(-3, 2)) - LaurentSeries.one(n),
    ),
    "two-parameter Euler": (
        (Fraction(2, 3), Fraction(-5, 2), 1),
        lambda n: exp_linear(Fraction(2, 3), n).scale(Fraction(-5, 2)) + LaurentSeries.one(n),
    ),
}


def direct_recip_exp_linear(alpha, lam, c, order):
    """1/(lam e^(alpha t) + c) long-divided at alpha itself, never dilated."""
    return (exp_linear(alpha, order).scale(lam) + LaurentSeries.constant(c, order)).reciprocal()


def two_param_euler_value(n, x, alpha, lam):
    """E_n(x; alpha, lam) by the closed form, which reads no base."""
    return two_param_euler_formula(n, alpha, lam).evaluate(x)


def fresh_build(cold_store, alpha, lam, c, order):
    """recip_exp_linear(alpha, lam, c, order) built on an empty store."""
    with cold_store():
        return outcome(recip_exp_linear, alpha, lam, c, order)


class TestRecipExpLinear:
    # Order 120 runs the factorial-scaled kernels, 12 and 40 the lcm ones.
    @pytest.mark.parametrize("order", [12, 40, 120])
    @pytest.mark.parametrize("name", list(EXPLICIT_DENOMINATORS))
    def test_matches_explicit_construction(self, name, order):
        params, denominator = EXPLICIT_DENOMINATORS[name]
        assert_same_series(recip_exp_linear(*params, order), denominator(order).reciprocal())

    # Orders 1 to 3 at c = -lam leave Laurent windows of length 0 to 2 at
    # offset -1; from 104 on recip_exp_linear writes the unit down and runs
    # the Pascal-rule division, while the direct build long-divides its
    # source series, so those orders compare two kernels.
    @pytest.mark.parametrize(
        "order, lam, c",
        [
            (order, lam, c)
            for order in (1, 2, 3, 12, 104, 150, 300)
            for lam in (Fraction(1), Fraction(2, 3), Fraction(-5, 3))
            for c in (1, -1)
        ]
        + [
            (order, lam, c)
            for order in (104, 150, 300)
            for lam in (Fraction(2, 3), Fraction(-5, 3))
            for c in (0, -lam)
        ],
    )
    @pytest.mark.parametrize(
        "alpha",
        [Fraction(-3, 2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), 1, 2, Fraction(3, 2)],
    )
    def test_dilated_matches_direct(self, cold_store, alpha, lam, c, order):
        with cold_store():
            assert_same_series(
                outcome(recip_exp_linear, alpha, lam, c, order),
                outcome(direct_recip_exp_linear, alpha, lam, c, order),
            )

    @pytest.mark.parametrize("order", [1, 2, 3, 12])
    @pytest.mark.parametrize("lam, c", [(1, -1), (Fraction(-5, 3), Fraction(5, 3)), (2, 1)])
    @pytest.mark.parametrize("alpha", [Fraction(-1, 2), Fraction(3, 2)])
    def test_short_windows_dilate_on_the_factorial_kernel(self, cold_store, alpha, lam, c, order):
        with cold_store(), egf_kernels():
            assert_same_series(
                outcome(recip_exp_linear, alpha, lam, c, order),
                outcome(direct_recip_exp_linear, alpha, lam, c, order),
            )

    @pytest.mark.parametrize(
        "alpha, built",
        [(Fraction(3, 2), [1]), (Fraction(-1, 3), [1]), (2, [1]), (-1, [1]), (1, [1]), (0, [1])],
    )
    @pytest.mark.parametrize("order", [12, 150])
    def test_alpha_other_than_zero_builds_at_alpha_one(self, monkeypatch, cold_store, alpha, built, order):
        # From the split on, every alpha but 0 writes the unit at alpha = 1
        # down and builds no source series; alpha = 0 builds its constant
        # source as 0 e**t + (lam + c): one exp_linear call, at 1.
        calls = []
        real = series_module.exp_linear
        monkeypatch.setattr(
            series_module, "exp_linear", lambda a, n: calls.append(a) or real(a, n)
        )
        direct = series_module._pascal_reciprocal
        monkeypatch.setattr(
            series_module,
            "_pascal_reciprocal",
            lambda *args: calls.append("_pascal_reciprocal") or direct(*args),
        )
        with cold_store():
            recip_exp_linear(alpha, Fraction(2, 3), 1, order)
        if order >= series_module._EGF_MIN_LENGTH and alpha:
            built = ["_pascal_reciprocal"]
        assert calls == built

    @pytest.mark.parametrize("order", [104, 150])
    def test_alpha_zero_raises_as_the_direct_build(self, order):
        # lam e^(0 t) - lam is zero on its whole window.
        for build in (recip_exp_linear, direct_recip_exp_linear):
            with pytest.raises(
                ZeroSeriesError, match="^reciprocal of a series that is zero on its whole window$"
            ):
                build(0, Fraction(2, 3), Fraction(-2, 3), order)
        assert_same_series(
            recip_exp_linear(0, Fraction(2, 3), 1, order),
            direct_recip_exp_linear(0, Fraction(2, 3), 1, order),
        )


    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([0, 1, -1, 2, Fraction(-3, 2), Fraction(1, 3)]),
        st.sampled_from([0, 1, -1, 3, Fraction(2, 3), Fraction(-5, 3)]),
        st.sampled_from([0, 1, -1, 2, -2, Fraction(1, 3), "-lam"]),
        st.one_of(st.integers(1, 3), st.integers(4, 40), st.sampled_from([103, 104, 120])),
        st.booleans(),
    )
    def test_every_source_reads_a_cold_direct_build(self, cold_store, alpha, lam, c, order, warm):
        # A base with c != 0 reads B_mu, mu = -lam/c, off the store, and
        # scales it by -1/c unless c = -1; c = 0 and a constant source of
        # value 0 build their reciprocals unstored.  Each gives the series,
        # or the error type and message, of the base long-divided at alpha
        # on an empty store, whether or not the store holds B_mu at order
        # 150 first; a cold read stores B_mu alone, and an unstored one
        # nothing.
        c = -lam if c == "-lam" else c
        store = series_module._Ladders(STORE_BITS)
        with mock.patch.object(series_module, "_LADDERS", store):
            if warm and c and lam:
                store.ladder(mu_of(lam, c), 150)
            got = result_or_error(recip_exp_linear, alpha, lam, c, order)
        with cold_store():
            want = result_or_error(direct_recip_exp_linear, alpha, lam, c, order)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_series(got, want)
        if not warm:
            stored = bool(c and alpha and lam) and order >= 3
            assert list(store._entries) == ([ladder_key(mu_of(lam, c))] if stored else [])

    @pytest.mark.parametrize(
        "alpha, lam",
        [(1, 2), (Fraction(-3, 2), Fraction(2, 3)), (2, -1), (Fraction(1, 3), Fraction(-5, 3)), (-1, 0)],
    )
    def test_c_zero_is_the_long_division_at_every_order(self, alpha, lam):
        # 1/(lam e^(alpha t)) is (1/lam) e^(-alpha t), written down by
        # exp_linear and dilated: the series of the source long-divided at
        # alpha at orders 0 to 150, and the same error type and message at
        # orders 0 and 1 and on the constant source 0.  Nothing is stored.
        def build(op, order):
            try:
                return op(alpha, lam, 0, order)
            except (DomainError, PrecisionExhaustedError, ZeroSeriesError) as exc:
                return type(exc), str(exc)

        store = series_module._Ladders(STORE_BITS)
        with mock.patch.object(series_module, "_LADDERS", store):
            for order in range(151):
                got, want = build(recip_exp_linear, order), build(direct_recip_exp_linear, order)
                if isinstance(want, tuple):
                    assert got == want, order
                else:
                    assert_same_series(got, want)
        assert store._entries == {} and store.bits == 0


class TestIntegerKernel:
    """mul, reciprocal and linear combinations run on integer numerators;
    the Fraction loops they replaced are the reference."""

    @settings(max_examples=300)
    @given(kernel_series(), kernel_series())
    def test_mul_matches_reference(self, a, b):
        assert_same_series(outcome(LaurentSeries.__mul__, a, b), outcome(reference_mul, a, b))

    @settings(max_examples=300)
    @given(kernel_series())
    def test_reciprocal_matches_reference(self, s):
        assert_same_series(
            outcome(LaurentSeries.reciprocal, s), outcome(reference_reciprocal, s)
        )

    @settings(max_examples=300)
    @given(
        st.lists(st.one_of(kernel_series(), st.just(ZERO)), max_size=6),
        st.lists(st.one_of(st.just(0), st.integers(-3, 3), kernel_fractions), max_size=6),
    )
    def test_linear_combination_matches_reference(self, terms, weights):
        n = min(len(terms), len(weights))
        assert_same_series(
            linear_combination(terms[:n], weights[:n]),
            reference_linear_combination(terms, weights),
        )
        if len(terms) != len(weights):
            with pytest.raises(DomainError):
                linear_combination(terms, weights)

    @settings(max_examples=300)
    @given(
        st.lists(
            st.tuples(
                st.one_of(kernel_series(), st.just(ZERO)),
                st.one_of(st.just(0), st.integers(-3, 3), kernel_fractions, st.sampled_from([0.0, 0.5, -2.0])),
            ),
            max_size=6,
        ),
        st.integers(-2, 24),
    )
    def test_length_gives_the_truncated_combination(self, pairs, length):
        # Offsets run from -6 to 6 and windows up to 17 long, so length
        # runs from below an empty window to past the whole of it.
        terms = [term for term, _ in pairs]
        weights = [weight for _, weight in pairs]
        full = linear_combination(terms, weights)
        want = result_or_error(full.truncated, full.offset + length)
        got = result_or_error(lambda: linear_combination(terms, weights, length=length))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert_same_series(got, want)

    @pytest.mark.parametrize("length", [5, 4, 1, 0, 6])
    def test_length_keeps_a_nonempty_window(self, length):
        # The sum's window is [-1, 4): lengths 1 to 5 cut it, and no other.
        terms, weights = [LaurentSeries.from_coeffs(-1, [1, 2, 3, 4, 5]), exp_linear(2, 6)], [Fraction(1, 2), 3]
        if 0 < length <= 5:
            want = linear_combination(terms, weights).truncated(length - 1)
            assert_same_series(linear_combination(terms, weights, length=length), want)
        else:
            message = rf"cannot truncate window \[-1,4\) to O\(t\^{length - 1}\)"
            with pytest.raises(PrecisionExhaustedError, match=message):
                linear_combination(terms, weights, length=length)

    def test_linear_combination_needs_one_weight_per_term(self):
        a, b = exp_linear(1, 5), LaurentSeries.one(5)
        with pytest.raises(DomainError):
            linear_combination([a, b], [1])
        with pytest.raises(DomainError):
            linear_combination([a], [1, 2])

    @settings(max_examples=300)
    @given(st.one_of(kernel_series(), st.just(ZERO)), st.one_of(kernel_series(), st.just(ZERO)))
    def test_add_and_sub_match_reference(self, a, b):
        assert_same_series(a + b, reference_add(a, b))
        assert_same_series(a - b, reference_add(a, -b))

    def test_order_300_linear_combination_anchor(self):
        shifted, one = exp_linear(Fraction(3, 7), 300), LaurentSeries.one(300)
        assert_same_series(
            shifted.scale(Fraction(-5, 3)) - one,
            reference_linear_combination((shifted, one), (Fraction(-5, 3), -1)),
        )

    @pytest.mark.parametrize("lam", [Fraction(1), Fraction(2, 3)])
    def test_order_120_anchor(self, lam):
        # 1/(e^t - 1) is a Laurent window; (2/3)e^t - 1 has unit lead -1/3
        denom = exp_linear(1, 120).scale(lam) - LaurentSeries.one(120)
        inverse = denom.reciprocal()
        assert_same_series(inverse, reference_reciprocal(denom))
        assert_same_series(inverse * denom, reference_mul(inverse, denom))
        assert_same_series(inverse * inverse, reference_mul(inverse, inverse))


def egf_kernels():
    """Let recip_exp_linear write the unit down at every order."""
    return mock.patch.object(series_module, "_EGF_MIN_LENGTH", 1)


def assert_unscaled_round_trip(s):
    """The exit gives s back from ints[k] / (k! den) == nums[k] / den."""
    ints = [x * math.factorial(k) for k, x in enumerate(s.nums)]
    assert LaurentSeries(s.offset, *series_module._egf_unscaled(ints, s.den)) == s


class TestEgfKernel:
    """Long windows against the same Fraction references as short ones,
    and the factorial-scaled exit of the Pascal-rule division."""

    @pytest.mark.parametrize(
        "alpha, lam, sign",
        [
            (Fraction(1), Fraction(1), -1),  # 1/(e^t - 1), a Laurent window
            (Fraction(1), Fraction(1), 1),  # 1/(e^t + 1)
            (Fraction(-3, 2), Fraction(2, 3), 1),  # 1/((2/3) e^(-3t/2) + 1)
        ],
    )
    def test_order_300_reciprocal_anchor(self, alpha, lam, sign):
        denom = linear_combination(
            (exp_linear(alpha, 300), LaurentSeries.one(300)), (lam, sign)
        )
        assert_same_series(denom.reciprocal(), reference_reciprocal(denom))

    def test_order_300_product_anchors(self):
        inverse = (exp_linear(1, 300) + LaurentSeries.one(300)).reciprocal()
        shift = exp_linear(Fraction(-2, 3), 300)
        assert_same_series(shift * inverse, reference_mul(shift, inverse))
        assert_same_series(inverse * inverse, reference_mul(inverse, inverse))

    @settings(max_examples=100)
    @given(kernel_series())
    def test_unscaled_exit_round_trips(self, s):
        assert_unscaled_round_trip(s)

    @pytest.mark.parametrize("v", [1, 2, 3])
    @pytest.mark.parametrize("order", [120, 150])
    def test_valuation_anchors(self, v, order):
        # 1/(e^t - 1)**v past the split.
        denom = (exp_linear(1, order) - LaurentSeries.one(order)) ** v
        want = reference_reciprocal(denom)
        assert len(want.coeffs) >= series_module._EGF_MIN_LENGTH
        assert_same_series(denom.reciprocal(), want)

    @pytest.mark.parametrize(
        "s",
        [
            exp_linear(Fraction(-3, 2), 120),
            exp_linear(1, 300) - LaurentSeries.one(300),  # the Bernoulli base
            linear_combination(
                (exp_linear(Fraction(-3, 2), 300), LaurentSeries.one(300)), (Fraction(2, 3), 1)
            ),
        ],
        ids=["exp(-3t/2)", "exp(t)-1", "2/3 exp(-3t/2)+1"],
    )
    def test_long_unscaled_exit_round_trips(self, s):
        assert_unscaled_round_trip(s)

    def test_window_length_selects_kernel(self, monkeypatch):
        ran = []
        for name in ("_lcm_product", "_power"):

            def spy(*args, _name=name, _real=getattr(series_module, name)):
                # A reciprocal is the power kernel at exponent -1.
                ran.append(f"_power({args[2]})" if _name == "_power" else _name)
                return _real(*args)

            monkeypatch.setattr(series_module, name, spy)

        def kernels(length):
            ran.clear()
            base = exp_linear(Fraction(1, 2), length + 1) + LaurentSeries.one(length + 1)
            inverse = base.reciprocal()  # window length `length`
            assert len(inverse.coeffs) == length
            assert len((inverse * inverse).coeffs) == length
            return ran[:]

        # One product kernel at every length, across the split.
        split = series_module._EGF_MIN_LENGTH
        for length in [*range(1, 35), split - 1, split, split + 1, 2 * split]:
            assert kernels(length) == ["_power(-1)", "_lcm_product"]


# The reciprocal bases the package builds, as (alpha, lam, c): f, g and h,
# the G1/G2 grid, the Apostol-Bernoulli lambdas and the two-parameter Euler
# points that the sequence-pairs benchmark draws, and the reduction grid.
PACKAGE_BASES = (
    [(1, 1, -1), (-1, -1, 1), (1, 1, 1)]
    + [(alpha, lam, -1) for alpha in DEFAULT_ALPHAS for lam in DEFAULT_LAMBDAS]
    + [(1, Fraction(lam), -1) for lam in ("1", "2", "3", "1/2", "1/3", "-1", "-2", "3/2", "2/3")]
    + [
        (Fraction(alpha), Fraction(lam), 1)
        for alpha in ("1/2", "-1/2", "2", "-2", "3/2", "-3/2")
        for lam in ("2", "1/2", "3", "1/3", "2/3", "3/2")
    ]
    + [(alpha, lam, 1) for alpha in REDUCTION_ALPHAS for lam in REDUCTION_LAMBDAS]
)


class TestPascalDivision:
    """Long reciprocals of the package's bases run on Pascal's rule; every
    other reciprocal on Miller's division."""

    @settings(max_examples=120)
    @given(
        st.sampled_from([1, -1, 2, -2, 3, -3, 6, -6, 35]),
        st.one_of(st.integers(-40, -1), st.integers(1, 40), st.integers(-(10**30), 10**30)).filter(
            bool
        ),
        st.integers(0, 1),
        st.integers(1, 200),
    )
    def test_matches_the_binomial_rows(self, lead, weight, shift, length):
        rows = (
            (
                [math.comb(n + shift, i + shift) * weight for i in range(1, n + 1)],
                -math.comb(n + shift, shift) * lead,
            )
            for n in range(1, length)
        )
        # The two widen their running denominators differently, so the
        # quotients are compared cross-multiplied.
        nums, den = series_module._pascal_recurrence(lead, weight, shift, length)
        want, want_den = series_module._recurrence(rows)
        assert len(nums) == len(want) == length
        assert [x * want_den for x in nums] == [y * den for y in want]

    def test_every_package_base_takes_pascal_rule(self, monkeypatch, cold_store):
        ran = []
        for name in ("_pascal_recurrence", "_recurrence"):

            def spy(*args, _name=name, _real=getattr(series_module, name)):
                ran.append(_name)
                return _real(*args)

            monkeypatch.setattr(series_module, name, spy)

        def division(build):
            ran.clear()
            build()
            return ran[:]

        with cold_store():
            for base in PACKAGE_BASES:
                assert division(lambda: recip_exp_linear(*base, 150)) == ["_pascal_recurrence"], base
        half = exp_linear(Fraction(1, 2), 151) + LaurentSeries.one(151)
        assert division(half.reciprocal) == ["_recurrence"]


def window_error(op, *args):
    """The type and message of the window error op raises, or None."""
    try:
        op(*args)
    except (PrecisionExhaustedError, ZeroSeriesError) as exc:
        return type(exc), str(exc)
    return None


def held_entries(ladder):
    """(kind, [(index, entry), ...]) for the three kinds of entry a ladder
    holds, indexed as ``cold_entry`` reads them."""
    return [
        ("derivatives", list(enumerate(ladder._derivatives, 1))),
        ("powers", list(enumerate(ladder._powers, 1))),
        ("power", list(ladder._miller.items())),
    ]


class TestBaseStore:
    """recip_exp_linear keeps B_mu, the alpha = 1 base of each (lam, c) up
    to the factor -1/c, as the base of the ladder under the integers of
    mu = -lam/c, at the longest order asked for on either side of the
    split, and reads every shorter order off it.  Each read equals a build
    on an empty store."""

    # Both sides of the split and its edges, and the orders the package reads.
    ORDERS = (3, 4, 5, 12, 34, 40, 102, 103, 104, 105, 150, 283, 299, 300)

    @pytest.fixture
    def store(self, monkeypatch):
        store = series_module._Ladders(STORE_BITS)
        monkeypatch.setattr(series_module, "_LADDERS", store)
        return store

    @pytest.mark.parametrize("base", PACKAGE_BASES, ids=str)
    def test_reads_below_the_longest_stored_build_equal_fresh_builds(self, store, cold_store, base):
        # The first pass reads below a build at split - 1 and then builds
        # the base again order by order; the second reads every order below
        # the longest.
        expected = {order: fresh_build(cold_store, *base, order) for order in self.ORDERS}
        recip_exp_linear(*base, series_module._EGF_MIN_LENGTH - 1)
        for _ in range(2):
            for order in self.ORDERS:
                assert recip_exp_linear(*base, order) == expected[order], order
            assert list(store._entries) == [ladder_key(mu_of(*base[1:]))]
            assert base_order(store._entries[ladder_key(mu_of(*base[1:]))][0]) == self.ORDERS[-1]

    @pytest.mark.parametrize("base", [(1, 1, -1), (-1, -1, 1), (1, 1, 1)])
    def test_every_order_to_300_of_f_g_and_h(self, store, cold_store, base):
        recip_exp_linear(*base, 300)
        for order in range(3, 301):
            read = recip_exp_linear(*base, order)
            assert_canonical(read)
            assert read == fresh_build(cold_store, *base, order), order
        assert list(store._entries) == [ladder_key(mu_of(*base[1:]))]
        assert base_order(store._entries[ladder_key(mu_of(*base[1:]))][0]) == 300

    def test_a_longer_request_grows_the_entry(self, store, cold_store):
        # The ladder stays; only its base is built again, at the longer order.
        alpha, lam, c = Fraction(-3, 2), Fraction(2, 3), 1
        short = recip_exp_linear(alpha, lam, c, 40)
        key = ladder_key(mu_of(lam, c))
        ladder, _ = store._entries[key]
        assert base_order(ladder) == 40
        long = recip_exp_linear(alpha, lam, c, 90)
        assert list(store._entries) == [key]
        grown, bits = store._entries[key]
        assert grown is ladder and base_order(ladder) == 90
        assert store.bits == bits == ladder.bits == series_module._stored_bits(ladder.base)
        assert short == fresh_build(cold_store, alpha, lam, c, 40) == recip_exp_linear(alpha, lam, c, 40)
        assert long == fresh_build(cold_store, alpha, lam, c, 90)

    @pytest.mark.parametrize("order", [104, 105, 150, 300])
    def test_a_second_request_from_the_split_on_reads_the_stored_entry(
        self, monkeypatch, store, cold_store, order
    ):
        base = (Fraction(-3, 2), Fraction(2, 3), 1)
        recip_exp_linear(*base, 40)
        expected = fresh_build(cold_store, *base, order)
        built = []
        real = series_module._pascal_reciprocal
        monkeypatch.setattr(
            series_module, "_pascal_reciprocal", lambda *args: built.append(args) or real(*args)
        )
        for _ in range(2):
            assert recip_exp_linear(*base, order) == expected
        assert len(built) == 1
        assert list(store._entries) == [ladder_key(mu_of(*base[1:]))]
        ladder, bits = store._entries[ladder_key(mu_of(*base[1:]))]
        assert base_order(ladder) == order and store.bits == bits == ladder.bits

    # The mu whose ladders the entry reads below grow, every ladder at
    # alpha = 1: f, which g reads too, -h, a G point and -1 times
    # 1/(3 e**t + 1), a base with c = 1.
    GROWN = [1, -1, Fraction(2, 3), -3]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(PACKAGE_BASES), st.integers(3, 300), st.none(), st.just(0)),
                st.tuples(
                    st.sampled_from(GROWN),
                    st.integers(3, 60),
                    st.sampled_from(["derivatives", "powers", "power"]),
                    st.integers(1, 6),
                ),
            ),
            min_size=1,
            max_size=10,
        ),
        st.sampled_from([0, 1 << 16, 1 << 18, STORE_BITS]),
    )
    def test_any_sequence_of_requests_reads_fresh_builds(self, cold_store, requests, budget):
        # Base reads and entry reads at any orders share the store: each
        # read is a build at its order on an empty store, and every entry a
        # ladder holds, grown or not, is a build at the order of its length.
        # A ladder is charged its entries and its held Pascal run.
        store = series_module._Ladders(budget)
        for params, order, kind, index in requests:
            with mock.patch.object(series_module, "_LADDERS", store):
                if kind is None:
                    read = recip_exp_linear(*params, order)
                else:
                    ladder = store.ladder(params, order)
                    if kind == "power":
                        entry = ladder.power(index, order)
                    else:
                        entry = getattr(ladder, kind)(index, order)[-1]
                    read = ladder.at(entry, order)
            if kind is None:
                assert read == fresh_build(cold_store, *params, order)
            else:
                assert read == cold_entry((1, params, 1), kind, index, order)
            assert store.bits == sum(bits for _, bits in store._entries.values()) <= budget
            for key, (ladder, bits) in store._entries.items():
                assert key == ladder_key(ladder.mu)
                held = {id(entry): entry for _, entries in held_entries(ladder) for _, entry in entries}
                charged = sum(map(series_module._stored_bits, held.values())) + ladder._run.bits()
                assert ladder.bits == bits == charged
                for kind, entries in held_entries(ladder):
                    for index, entry in entries:
                        base = (1, ladder.mu, 1)
                        assert entry == cold_entry(base, kind, index, held_order(ladder, entry))

    # Dilations: every alpha but 1, a 300-digit literal among them.
    DILATIONS = [Fraction(-3, 2), -1, Fraction(1, 2), 2, Fraction(5, 7), int("1" + "3" * 299)]

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(DILATIONS),
        st.sampled_from(DEFAULT_LAMBDAS),
        st.sampled_from([1, -1]),
        st.lists(
            st.tuples(st.integers(3, 40), st.sampled_from(["derivatives", "powers", "power"]), st.integers(1, 12)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_a_dilated_entry_is_the_kernel_on_the_built_base(self, alpha, lam, c, reads):
        # An identity check at alpha != 1 reads the ladder at alpha = 1 and
        # carries alpha by the chain rule: each entry as read at an order,
        # dilated, derivative j times alpha**j, is the kernel (derivative,
        # product or Miller power) run on the base built at that order and
        # alpha.  The store keeps the ladder of mu = -lam/c at alpha = 1
        # alone.
        store = series_module._Ladders(STORE_BITS)
        mu = mu_of(lam, c)
        for order, kind, index in reads:
            with mock.patch.object(series_module, "_LADDERS", store):
                ladder = store.ladder(mu, order)
                if kind == "power":
                    entry = ladder.power(index, order)
                else:
                    entry = getattr(ladder, kind)(index, order)[-1]
            j = index - 1 if kind == "derivatives" else 0
            read = series_module._dilated(ladder.at(entry, order), Fraction(alpha)).scale(Fraction(alpha) ** j)
            expected = cold_entry((alpha, mu, 1), kind, index, order)
            assert (read.offset, read.nums, read.den) == (expected.offset, expected.nums, expected.den)
        assert list(store._entries) == [ladder_key(mu)]

    def test_the_least_recently_used_entry_leaves_first(self, cold_store):
        bases = [(1, lam, -1) for lam in (1, 2, 3)]
        sizes = [series_module._stored_bits(fresh_build(cold_store, *base, 60)) for base in bases]
        store = series_module._Ladders(sum(sizes) - 1)
        with mock.patch.object(series_module, "_LADDERS", store):
            recip_exp_linear(*bases[0], 60)
            recip_exp_linear(*bases[1], 60)
            recip_exp_linear(*bases[0], 30)  # a read makes it the most recent
            recip_exp_linear(*bases[2], 60)
        assert list(store._entries) == [ladder_key(1), ladder_key(3)]
        assert store.bits == sizes[0] + sizes[2] <= store.budget

    def test_an_entry_over_the_budget_is_not_kept(self, cold_store):
        kept = series_module._stored_bits(fresh_build(cold_store, 1, 1, 1, 40))
        store = series_module._Ladders(kept)
        with mock.patch.object(series_module, "_LADDERS", store):
            recip_exp_linear(1, 1, 1, 40)
            assert list(store._entries) == [ladder_key(-1)] and store.bits == kept
            assert recip_exp_linear(1, 1, 1, 90) == fresh_build(cold_store, 1, 1, 1, 90)
        assert store._entries == {} and store.bits == 0

    def test_a_ladder_is_keyed_on_the_integers_of_mu(self, monkeypatch, store, cold_store):
        # 2, 4/2 and a G1 sweep at lambda 2 (order 12) read one ladder of
        # one build; f (mu = 1) and -h (mu = -1) read two, and g reads
        # f's; a 1,500-digit mu keys and reads back.
        built = []
        real = series_module._build_base
        monkeypatch.setattr(series_module, "_build_base", lambda *args: built.append(args[:2]) or real(*args))
        ladder = store.ladder(2, 12)
        assert store.ladder(Fraction(4, 2), 12) is ladder
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "G1", "--k-max", "1", "--lambda", "2"]) == 0
        assert built == [(2, 12)]
        assert list(store._entries) == [ladder_key(2)] and store._entries[2, 1][0] is ladder
        f, h = store.ladder(1, 12), store.ladder(-1, 12)
        assert f is not h and list(store._entries) == [ladder_key(2), ladder_key(1), ladder_key(-1)]
        assert (f.base, h.base) == (fresh_build(cold_store, 1, 1, -1, 12), fresh_build(cold_store, 1, -1, -1, 12))
        assert recip_exp_linear(-1, -1, 1, 12) == fresh_build(cold_store, -1, -1, 1, 12)
        assert list(store._entries) == [ladder_key(2), ladder_key(-1), ladder_key(1)] and store._entries[1, 1][0] is f
        mu = Fraction(int("1" + "3" * 1499), 7)
        long = store.ladder(mu, 3)
        assert store.ladder(Fraction(mu.numerator, mu.denominator), 3) is long
        assert store._entries[ladder_key(mu)][0] is long and long.mu == mu
        assert long.base == fresh_build(cold_store, 1, mu, -1, 3)

    def test_every_stored_series_is_charged_at_least_8192_bits(self):
        # The documented bound: at most budget // 8192 series are held.
        store = series_module._Ladders(1 << 17)
        for mu in range(1, 101):
            store.ladder(mu, 3)
        held = [ladder.base for ladder, _ in store._entries.values()]
        assert 0 < len(held) <= store.budget // 8192
        assert store.bits == sum(map(series_module._stored_bits, held))

    @pytest.mark.parametrize("lam", DEFAULT_LAMBDAS, ids=str)
    def test_the_store_builds_the_base_recip_exp_linear_gives(self, cold_store, lam):
        # The store builds B_mu at alpha = 1, the source's reciprocal below
        # the split and the unit written down from it on, and that build
        # times -1/c and dilated is the base at alpha.  Orders 103 to 106
        # take both routes.  The build never reads alpha, so one alpha
        # other than 1 covers it.
        def store_build(alpha, lam, c, order):
            base = series_module._LADDERS.ladder(mu_of(lam, c), order).base
            return series_module._dilated(base.scale(-1 / Fraction(c)), Fraction(alpha))

        key = (Fraction(-3, 2), lam, -1)
        for order in (1, 2):
            with cold_store():
                assert window_error(store_build, *key, order) == window_error(
                    recip_exp_linear, *key, order
                )
        for order in range(1, 111):
            with cold_store():
                built = outcome(store_build, *key, order)
            with cold_store():
                assert built == outcome(recip_exp_linear, *key, order), order

    @pytest.mark.parametrize("lam", DEFAULT_LAMBDAS, ids=str)
    @pytest.mark.parametrize("alpha", [Fraction(-3, 2), Fraction(-1), Fraction(1, 2), 2], ids=str)
    def test_the_dilated_store_build_is_the_base_long_divided_at_alpha(self, cold_store, alpha, lam):
        # The alpha = 1 build of each default lambda, dilated, against the
        # base long-divided at alpha itself: orders 103 and 104 straddle
        # the split, and 110 reads past it.
        for order in (3, 12, 103, 104, 110):
            with cold_store():
                base = series_module._LADDERS.ladder(lam, order).base
            assert_same_series(
                series_module._dilated(base, Fraction(alpha)),
                direct_recip_exp_linear(alpha, lam, -1, order),
            )

    def test_bases_at_every_alpha_read_one_ladder(self, monkeypatch, store, cold_store):
        # The key names no alpha: a base at any alpha != 0 reads the one
        # ladder of mu = -lam/c, built once, and dilates it.
        built = []
        real = series_module._build_base
        monkeypatch.setattr(series_module, "_build_base", lambda *args: built.append(args[:2]) or real(*args))
        alphas = [Fraction(-3, 2), -1, 1, Fraction(1, 2), 2]
        got = [recip_exp_linear(alpha, Fraction(2, 3), -1, 12) for alpha in alphas]
        assert built == [(Fraction(2, 3), 12)]
        assert list(store._entries) == [ladder_key(Fraction(2, 3))]
        assert got == [fresh_build(cold_store, alpha, Fraction(2, 3), -1, 12) for alpha in alphas]

    @pytest.mark.parametrize(
        "op, reference, args",
        [
            (recip_exp_linear, direct_recip_exp_linear, (alpha, lam, c, order))
            for alpha in (1, Fraction(-3, 2))
            for lam, c in ((1, -1), (Fraction(2, 3), Fraction(-2, 3)), (Fraction(2, 3), 1))
            for order in (1, 2)
        ]
        # constant sources, of mu = 0 at lam + c = 5/3 and of no mu at 0
        + [
            (recip_exp_linear, direct_recip_exp_linear, (0, Fraction(2, 3), c, order))
            for c in (Fraction(-2, 3), 1)
            for order in (12, 150)
        ]
        + [(recip_exp_linear, direct_recip_exp_linear, (alpha, 0, c, 12)) for alpha in (1, 2) for c in (0, 1)]
        # the two-parameter oracle at lambda = 0 reads B_0 at orders n + 2,
        # on both sides of the split, against the closed form
        + [
            (two_param_euler_oracle, two_param_euler_value, (n, Fraction(1, 3), alpha, 0))
            for alpha in (1, Fraction(-3, 2))
            for n in (1, 10, 120)
        ],
    )
    def test_short_orders_and_constant_sources_bypass_the_store(self, store, op, reference, args):
        assert window_error(op, *args) == window_error(reference, *args)
        got, want = outcome(op, *args), outcome(reference, *args)
        if isinstance(want, LaurentSeries):
            assert_same_series(got, want)
        assert got == want
        assert store._entries == {} and store.bits == 0


@functools.lru_cache(maxsize=None)
def fresh_base(mu, order):
    """B_mu built at ``order`` by ``_build_base`` alone, with no run."""
    return series_module._build_base(Fraction(mu), order)


class TestPascalGrowth:
    """A base built from the split on keeps its Pascal run on its ladder,
    and a longer request continues the run by its new steps only: the
    grown base is a fresh build at the longer order, and the run is
    charged to the store with the ladder's entries."""

    SPLIT = series_module._EGF_MIN_LENGTH

    def test_a_longer_request_continues_the_run(self, monkeypatch):
        steps = []
        real = series_module._pascal_recurrence

        def spy(lead, weight, shift, length, run=None):
            if run is not None:  # a ladder's run, not a fresh build's
                steps.append((run.step, length))
            return real(lead, weight, shift, length, run)

        monkeypatch.setattr(series_module, "_pascal_recurrence", spy)
        store = series_module._Ladders(STORE_BITS)
        # Below the split the base is built again; the first order from the
        # split on starts the run, and every longer one continues it.
        for mu, shift in ((1, 1), (Fraction(2, 3), 0)):
            steps.clear()
            for order in (40, 90, 150, 120, 290, 291, 150):
                ladder = store.ladder(mu, order)
                assert ladder.base == fresh_base(mu, base_order(ladder)), (mu, order)
            assert steps == [(0, 149 - shift), (149 - shift, 289 - shift), (289 - shift, 290 - shift)]
            assert ladder._run.step == len(ladder.base.nums) == 290 - shift

    def test_a_ladder_whose_base_and_run_pass_the_budget_is_not_kept(self):
        # The base alone fits; with its run it does not, so it is not kept,
        # and nothing else is dropped for it.
        base = fresh_base(-1, 150)
        store = series_module._Ladders(series_module._stored_bits(base) + 9000)
        short = store.ladder(2, 60)
        assert list(store._entries) == [ladder_key(2)] and short._run.bits() == 0
        long = store.ladder(-1, 150)
        assert long.base == base
        assert series_module._stored_bits(base) < store.budget < long.bits
        assert long.bits == series_module._stored_bits(base) + long._run.bits()
        assert list(store._entries) == [ladder_key(2)]
        assert store.bits == short.bits <= store.budget

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1, -1, Fraction(2, 3), Fraction(-5, 3), 2]),
                st.one_of(st.integers(3, 103), st.integers(104, 220), st.sampled_from([103, 104, 105])),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from([1 << 17, 1 << 19, 1 << 20, STORE_BITS]),
    )
    def test_every_stored_base_is_a_fresh_build(self, requests, budget):
        # Orders rise and fall across the split on a store small enough to
        # drop ladders; a ladder the test still holds is found again
        # through the weak index and kept again if it fits, run and all.
        store = series_module._Ladders(budget)
        held = []
        for mu, order, hold in requests:
            ladder = store.ladder(mu, order)
            if hold:
                held.append(ladder)
            assert base_order(ladder) >= order
            assert store.bits == sum(bits for _, bits in store._entries.values()) <= budget
            for key, (ladder, bits) in store._entries.items():
                run, built = ladder._run, base_order(ladder)
                assert ladder.base == fresh_base(ladder.mu, built), (ladder.mu, built)
                assert run.step == (len(ladder.base.nums) if built >= self.SPLIT else 0)
                assert (run.bits() > 0) == (built >= self.SPLIT)
                assert bits == ladder.bits == series_module._stored_bits(ladder.base) + run.bits()


class TestOneBuilder:
    """``_build_base`` is the one place that builds a base: every call of
    ``_source_reciprocal`` and ``_pascal_reciprocal`` comes from it, for
    the store's ladders and for ``recip_exp_linear`` alike."""

    COMMANDS = [
        *[
            f"series dump {which} --order {order}"
            for which in ("recip-exp-minus-one", "recip-exp-plus-one", "apostol --lambda 2/3")
            for order in (1, 2, 3, 103, 104, 105, 300)
        ],
        "verify all --k-max 2",
        "verify all --k-max 2 --order 104",
        "verify G1 --k-max 2 --alpha=-3/2 --lambda 2/3",
        "verify G2 --k-max 2 --alpha=-3/2 --lambda 2/3",
    ]
    ORACLES = [
        (bernoulli_oracle, ()),
        (apostol_bernoulli_oracle, (Fraction(2, 3),)),
        (euler_polynomial_oracle, (Fraction(1, 3),)),
        (two_param_euler_oracle, (Fraction(1, 3), Fraction(-3, 2), Fraction(2, 3))),
    ]

    def test_every_build_comes_from_build_base(self, monkeypatch):
        callers = {"_source_reciprocal": [], "_pascal_reciprocal": []}
        for name, seen in callers.items():
            real = getattr(series_module, name)

            def spy(*args, real=real, seen=seen):
                seen.append(sys._getframe(1).f_code.co_name)
                return real(*args)

            monkeypatch.setattr(series_module, name, spy)
        monkeypatch.setattr(series_module, "_LADDERS", series_module._Ladders(STORE_BITS))
        for line in self.COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(shlex.split(line))
        for oracle, params in self.ORACLES:
            for n in (0, 100, 101, 102, 110):
                oracle(n, *params)
        for name, seen in callers.items():
            assert seen and set(seen) == {"_build_base"}, (name, sorted(set(seen)))

    def test_every_source_series_is_built_at_alpha_one(self, monkeypatch, cold_store):
        # A nonzero alpha enters a base only through _dilated: every
        # exp_linear call of _source_reciprocal is at alpha = 1, at the
        # short orders where the window can be empty too.
        alphas, depth = [], []
        real_exp, real_source = series_module.exp_linear, series_module._source_reciprocal

        def exp_spy(alpha, order):
            if depth:
                alphas.append(alpha)
            return real_exp(alpha, order)

        def source_spy(*args):
            depth.append(args)
            try:
                return real_source(*args)
            finally:
                depth.pop()

        monkeypatch.setattr(series_module, "exp_linear", exp_spy)
        monkeypatch.setattr(series_module, "_source_reciprocal", source_spy)
        with cold_store():
            for alpha in (Fraction(-3, 2), Fraction(1, 2), 2):
                for order in (1, 2, 3, 12, 103, 104, 105):
                    for lam, c in ((Fraction(2, 3), 1), (Fraction(2, 3), Fraction(-2, 3)), (1, -1)):
                        outcome(recip_exp_linear, alpha, lam, c, order)
            for target in ("G1", "G2"):
                for order in (" --order 1", " --order 2", " --order 3", ""):
                    line = f"verify {target} --k-max 2 --alpha=-3/2 --lambda 2/3{order}"
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                        cli.main(shlex.split(line))
        assert alphas and set(alphas) == {1}


@st.composite
def comparison_cases(draw):
    """Two series and a window [lo, hi) below both precisions.  The second
    series is often equal to the first on the window over another
    denominator, or differs from it in one coefficient; lo may start below
    either offset."""
    a = draw(st.one_of(kernel_series(), st.just(ZERO)))
    kind = draw(st.sampled_from(("other", "truncated", "tweaked", "zeros")))
    if kind == "other" or a.is_zero:
        b = draw(st.one_of(kernel_series(), st.just(ZERO)))
    elif kind == "truncated":
        b = a.truncated(draw(st.integers(a.offset + 1, a.precision)))
    elif kind == "tweaked":
        coeffs = list(a.coeffs)
        coeffs[draw(st.integers(0, len(coeffs) - 1))] += draw(kernel_fractions)
        b = LaurentSeries.from_coeffs(a.offset, coeffs)
    else:
        b = LaurentSeries.from_coeffs(draw(st.integers(-6, 6)), [0] * draw(st.integers(1, 5)))
    if draw(st.booleans()):
        a, b = b, a
    top = min(a.precision, b.precision)
    if top == math.inf:
        top = 8
    lo = draw(st.integers(min(a.offset, b.offset) - 3, top - 1))
    return a, b, lo, draw(st.integers(lo + 1, top))


class TestRepresentation:
    """Integer numerators over one canonical denominator: each result is
    canonical, equal to the Fraction reference and immutable."""

    def test_construction_is_canonical(self):
        s = LaurentSeries.from_coeffs(1, [Fraction(2, 3), 0, Fraction(5, 6), 4])
        assert (s.offset, s.nums, s.den) == (1, (4, 0, 5, 24), 6)
        assert (ZERO.nums, ZERO.den) == ((), 1)
        for value in (
            LaurentSeries.constant(Fraction(-6, 4), 3),
            LaurentSeries.monomial(0, -2, 3),
            LaurentSeries.from_coeffs(0, [Fraction(4, 6)] * 3),
        ):
            assert_canonical(value)
            assert value == LaurentSeries.from_coeffs(value.offset, value.coeffs)

    @settings(max_examples=300)
    @given(
        st.integers(-3, 3),
        st.one_of(st.lists(st.integers(-50, 50), max_size=8), st.lists(st.just(0), max_size=4)),
        st.integers(-50, 50).filter(bool),
        st.integers(1, 10**6),
    )
    def test_constructor_puts_integers_in_canonical_form(self, offset, nums, den, common):
        # A common factor and either sign of den for the constructor to take out.
        nums, den = [x * common for x in nums], den * common
        s = LaurentSeries(offset, nums, den)
        assert_canonical(s)
        want = LaurentSeries.from_coeffs(offset, [Fraction(x, den) for x in nums])
        assert s == want and hash(s) == hash(want)
        assert s.coeffs == want.coeffs

    def test_constructor_rejects_a_zero_denominator(self):
        for nums in ((1, 2), (0,), ()):
            with pytest.raises(DomainError):
                LaurentSeries(0, nums, 0)

    @settings(max_examples=200)
    @given(st.one_of(kernel_series(), st.just(ZERO)), st.integers(-3, 3))
    def test_unary_ops_match_reference(self, s, exponent):
        assert_same_series(-s, reference_scale(s, Fraction(-1)))
        assert_same_series(s.derivative(), reference_derivative(s))
        shifted = s if s.is_zero else LaurentSeries.from_coeffs(s.offset + exponent, s.coeffs)
        assert_same_series(s.shift(exponent), shifted)

    @settings(max_examples=200)
    @given(
        st.one_of(kernel_series(), st.just(ZERO)),
        st.one_of(st.integers(-3, 3), kernel_fractions),
    )
    def test_scale_matches_reference(self, s, factor):
        assert_same_series(s.scale(factor), reference_scale(s, Fraction(factor)))

    @settings(max_examples=200)
    @given(kernel_series(), st.data())
    def test_truncated_matches_reference(self, s, data):
        precision = data.draw(st.integers(s.offset + 1, s.precision))
        want = LaurentSeries.from_coeffs(s.offset, s.coeffs[: precision - s.offset])
        assert_same_series(s.truncated(precision), want)

    def test_truncated_window_rules(self):
        s = exp_linear(1, 5)
        assert s.truncated(5) is s
        assert ZERO.truncated(3) is ZERO
        for precision in (-1, 0, 6):
            with pytest.raises(PrecisionExhaustedError):
                s.truncated(precision)

    @settings(max_examples=400)
    @given(comparison_cases())
    def test_integer_comparison_agrees_with_fraction_equality(self, case):
        a, b, lo, hi = case
        want = next((e for e in range(lo, hi) if a.coeff(e) != b.coeff(e)), None)
        assert a.first_difference(b, lo, hi) == want

    def test_first_difference_past_precision_raises(self):
        a = LaurentSeries.from_coeffs(0, [1, 2])
        b = LaurentSeries.from_coeffs(0, [1, 2, 3])
        assert a.first_difference(b, -1, 2) is None
        for lo, hi in ((0, 3), (-1, 3)):
            with pytest.raises(PrecisionExhaustedError):
                a.first_difference(b, lo, hi)
            with pytest.raises(PrecisionExhaustedError):
                b.first_difference(a, lo, hi)

    def test_attributes_cannot_be_set(self):
        s = exp_linear(Fraction(1, 3), 4)
        for name, value in (("offset", 1), ("nums", (1,)), ("den", 2), ("coeffs", ()), ("x", 0)):
            with pytest.raises(AttributeError):
                setattr(s, name, value)
            with pytest.raises(AttributeError):
                delattr(s, name)
        assert s == exp_linear(Fraction(1, 3), 4)

    def test_coeffs_are_built_once(self):
        s = exp_linear(Fraction(1, 3), 6)
        assert s.coeffs is s.coeffs
        assert s.coeffs == tuple(s.coeff(e) for e in range(6))


class TestZeroAndPow:
    def test_scale_by_zero_gives_exact_zero(self):
        s = LaurentSeries.from_coeffs(0, [1, 2, 3])
        assert s.scale(0) is ZERO
        assert (s * ZERO) is ZERO
        assert (ZERO + s) == s

    def test_pow(self):
        t = LaurentSeries.monomial(1, 1, 6)
        sq = t**2
        assert sq.coeff(2) == 1 and sq.offset == 2
        assert (t**0) == LaurentSeries.one(6)
        f = (exp_linear(1, 10) - LaurentSeries.one(10)).reciprocal()
        assert (f**2).offset == -2
        with pytest.raises(DomainError):
            f**-1
        with pytest.raises(DomainError):
            ZERO**0

    def test_pow_matches_repeated_mul(self):
        s = LaurentSeries.from_coeffs(0, [1, 1, 2, Fraction(1, 2), 1])
        assert s**3 == s * s * s

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(kernel_series(), st.just(ZERO)), st.integers(min_value=0, max_value=13))
    def test_pow_by_squaring_matches_repeated_mul(self, s, k):
        # Offset, precision, coefficients, and the error raised, if any:
        # squaring must reproduce the window of k - 1 repeated products.
        def power(op):
            try:
                return op(s, k)
            except (DomainError, PrecisionExhaustedError, ZeroSeriesError) as exc:
                return type(exc)

        assert_same_series(power(LaurentSeries.__pow__), power(reference_pow))

    def test_pow_makes_fewer_products(self, monkeypatch):
        calls = []
        real_mul = LaurentSeries.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return real_mul(a, b)

        monkeypatch.setattr(LaurentSeries, "__mul__", counting_mul)
        f = (exp_linear(1, 20) - LaurentSeries.one(20)).reciprocal()
        for k in range(1, 13):
            f**k
        assert len(calls) == 0  # 66 by repeated multiplication

    @pytest.mark.parametrize(
        "s",
        [
            LaurentSeries.from_coeffs(-2, [0, 0, 3, Fraction(1, 2), -1, 0, 5]),
            LaurentSeries.from_coeffs(1, [0, 0, 0]),
            ZERO,
            (exp_linear(1, 12) - LaurentSeries.one(12)).reciprocal(),
        ],
        ids=["leading-zeros", "all-zero-window", "exact-zero", "f"],
    )
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_pow_edge_cases(self, s, k):
        # Stored zeros below the valuation, a window of zeros and the exact
        # zero, at exponents 0 and 1 (no recurrence step) and 2 and 5.
        def power(op):
            try:
                return op(s, k)
            except DomainError as exc:
                return type(exc)

        assert_same_series(power(LaurentSeries.__pow__), power(reference_pow))
        if k == 1:
            assert s**1 is s

    @pytest.mark.parametrize(
        "alpha, lam, c",
        [(1, 1, -1), (-1, -1, 1), (1, 1, 1), (Fraction(-1, 2), 3, -1)],
        ids=["f", "g", "h", "G"],
    )
    @pytest.mark.parametrize("k, order", [(40, 90), (50, 110)])
    def test_long_powers(self, alpha, lam, c, k, order):
        # k - 1 repeated products on the integer kernels, which the
        # multiply tests check against the Fraction reference; the
        # Fraction products themselves take seconds per case here.
        s = recip_exp_linear(alpha, lam, c, order)
        assert_same_series(s**k, functools.reduce(operator.mul, [s] * k))


class TestGeneratingFunctionBridge:
    def test_second_kind_exponential_series(self):
        # (e^t - 1)**k / k! carries S(n, k)/n! at t^n
        for k in range(1, 8):
            order = 18
            base = exp_linear(1, order) - LaurentSeries.one(order)
            p = (base**k).scale(Fraction(1, math.factorial(k)))
            for n in range(p.offset, p.precision):
                assert p.coeff(n) == Fraction(stirling2(n, k), math.factorial(n))


def assert_same_on_common_window(a, b):
    """Exact agreement wherever both windows carry known coefficients."""
    if a.is_zero and b.is_zero:
        return
    if a.is_zero or b.is_zero:
        windowed = b if a.is_zero else a
        assert all(c == 0 for _, c in windowed.coefficients())
        return
    lo = max(a.offset, b.offset)
    hi = min(a.precision, b.precision)
    for e in range(lo, hi):
        assert a.coeff(e) == b.coeff(e)


class TestRingAxioms:
    @settings(max_examples=60)
    @given(series(), series(), series())
    def test_add_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=60)
    @given(series(), series())
    def test_add_commutative(self, a, b):
        assert a + b == b + a

    @settings(max_examples=60)
    @given(series(), series())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60)
    @given(series(), series(), series())
    def test_mul_associative_on_common_window(self, a, b, c):
        assert_same_on_common_window((a * b) * c, a * (b * c))

    @settings(max_examples=60)
    @given(series(), series(), series())
    def test_distributive_on_common_window(self, a, b, c):
        assert_same_on_common_window(a * (b + c), a * b + a * c)

    @settings(max_examples=60)
    @given(series(), series())
    def test_derivative_is_a_derivation(self, a, b):
        assert_same_on_common_window(
            (a * b).derivative(), a.derivative() * b + a * b.derivative()
        )

    @settings(max_examples=60)
    @given(series(min_len=6, max_len=10))
    def test_double_reciprocal_restores_coefficients(self, s):
        if s.valuation() is None:
            return
        try:
            rr = s.reciprocal().reciprocal()
        except PrecisionExhaustedError:
            return
        for e in range(rr.offset, rr.precision):
            assert rr.coeff(e) == s.coeff(e)

    @settings(max_examples=60)
    @given(series(), small_fractions, small_fractions)
    def test_scaling_is_linear(self, s, p, q):
        assert_same_on_common_window(s.scale(p) + s.scale(q), s.scale(p + q))
