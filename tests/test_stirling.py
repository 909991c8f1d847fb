"""Stirling numbers and coefficient families against independent oracles.

The oracles here avoid the recurrences entirely: set-partition counting by
direct enumeration, polynomial expansion of log(1+x)**m and of the falling
factorial, and the exponential generating series for the second kind.  The
bordered determinant is checked against plain Gaussian elimination.
"""

import math
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stirnum import stirling as stirling_module
from stirnum.errors import ConsistencyError, DomainError
from stirnum.series import LaurentSeries, exp_linear
from stirnum.stirling import (
    StirlingTable,
    a_coeff,
    b_coeff,
    lambda_coeff,
    m_determinant,
    mu_coeff,
    stirling1,
    stirling2,
    stirling2_explicit,
    verify_first_kind_determinant_relation,
)


def partition_count(n: int, k: int) -> int:
    """Count set partitions of {1..n} into k nonempty blocks by brute force:
    element i either joins an existing block or opens a new one."""
    def place(i: int, blocks: int) -> int:
        if i == n:
            return 1 if blocks == k else 0
        if blocks > k:
            return 0
        return blocks * place(i + 1, blocks) + place(i + 1, blocks + 1)

    if n == 0:
        return 1 if k == 0 else 0
    return place(0, 0)


def poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return out


def log_one_plus_x(terms: int):
    # log(1+x) = x - x^2/2 + x^3/3 - ... up to degree terms-1
    return [Fraction(0)] + [Fraction((-1) ** (n - 1), n) for n in range(1, terms)]


def falling_factorial(n: int):
    # x(x-1)...(x-n+1) as integer coefficients, constant term first
    coeffs = [1]
    for i in range(n):
        shifted = [0] + coeffs
        coeffs = [s - i * c for s, c in zip(shifted, coeffs + [0])]
    return coeffs


def reference_determinant(matrix):
    """Exact determinant by Gaussian elimination, pivoting on the first
    nonzero entry of each column (row swaps flip the sign)."""
    size = len(matrix)
    rows = [list(row) for row in matrix]
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        pivot = rows[col][col]
        det *= pivot
        inv = 1 / pivot
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def reference_m_determinant(j, k, i):
    """M_j(k, i) written out as a matrix: row r has C(k, i+r-1)/(i+r-2)!
    in column 1 and S(i+c-1, i+r-1) in column c >= 2."""
    matrix = [
        [Fraction(math.comb(k, i + r - 1), math.factorial(i + r - 2))]
        + [Fraction(stirling2(i + c - 1, i + r - 1)) for c in range(2, j + 1)]
        for r in range(1, j + 1)
    ]
    return reference_determinant(matrix)


class TestSecondKind:
    def test_anchor_rows(self):
        assert [stirling2(5, k) for k in range(6)] == [0, 1, 15, 25, 10, 1]
        assert [stirling2(6, k) for k in range(7)] == [0, 1, 31, 90, 65, 15, 1]
        assert stirling2(0, 0) == 1
        assert stirling2(4, 0) == 0
        assert stirling2(3, 7) == 0
        assert stirling2(12, 5) == 1379400

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            stirling2(-1, 0)

    def test_against_partition_enumeration(self):
        for n in range(0, 9):
            for k in range(0, n + 2):
                assert stirling2(n, k) == partition_count(n, k)

    def test_explicit_sum_matches_recurrence(self):
        for n in range(1, 26):
            for k in range(1, n + 1):
                assert stirling2_explicit(n, k) == stirling2(n, k)

    def test_explicit_sum_domain(self):
        with pytest.raises(DomainError):
            stirling2_explicit(3, 0)
        with pytest.raises(DomainError):
            stirling2_explicit(3, 4)

    def test_explicit_sum_off_by_one_term_raises(self, monkeypatch):
        # Fault injection: C(k, 1) one too large changes the alternating
        # sum by 1, which k! >= 2 does not divide.
        fake_math = types.SimpleNamespace(comb=lambda k, l: math.comb(k, l) + (l == 1), factorial=math.factorial)
        monkeypatch.setattr(stirling_module, "math", fake_math)
        with pytest.raises(ConsistencyError, match=r"^alternating sum for S\(5,3\) not divisible by 3!$"):
            stirling2_explicit(5, 3)

    def test_exponential_generating_series(self):
        # (e^x - 1)**k / k! carries S(n, k)/n! at x^n, checked for k <= 10
        for k in range(1, 11):
            order = 18
            base = exp_linear(1, order) - LaurentSeries.one(order)
            p = (base**k).scale(Fraction(1, math.factorial(k)))
            for n in range(p.offset, p.precision):
                assert p.coeff(n) == Fraction(stirling2(n, k), math.factorial(n))
                assert n <= k + 16


class TestFirstKind:
    def test_anchor_rows(self):
        assert [stirling1(4, k) for k in range(5)] == [0, -6, 11, -6, 1]
        assert [stirling1(5, k) for k in range(6)] == [0, 24, -50, 35, -10, 1]
        assert stirling1(0, 0) == 1
        assert stirling1(3, 0) == 0

    def test_against_log_series(self):
        # [log(1+x)]**m / m! carries s(n, m)/n! at x^n
        terms = 14
        for m in range(1, 8):
            p = log_one_plus_x(terms)
            power = [Fraction(1)]
            for _ in range(m):
                power = poly_mul(power, p)
            for n in range(min(len(power), terms)):
                expected = Fraction(stirling1(n, m), math.factorial(n)) * math.factorial(m)
                assert power[n] == expected

    def test_falling_factorial_expansion(self):
        for n in range(0, 21):
            coeffs = falling_factorial(n)
            for k in range(n + 1):
                assert coeffs[k] == stirling1(n, k)

    def test_sign_pattern(self):
        for n in range(1, 15):
            for k in range(1, n + 1):
                value = stirling1(n, k)
                assert value != 0
                assert (value > 0) == ((n - k) % 2 == 0)


class TestStirlingTable:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            StirlingTable("third")

    @pytest.mark.parametrize("kind", ["second", "first"])
    def test_row_is_the_stored_row(self, kind):
        table = StirlingTable(kind)
        row = table.row(12)  # grows a fresh table
        assert isinstance(row, tuple)
        assert row == tuple(table.value(12, k) for k in range(13))
        assert table.row(12) is row
        assert table.row(0) == (1,)
        with pytest.raises(DomainError):
            table.row(-1)


class TestCoefficientFamilies:
    def test_lambda_anchors(self):
        assert lambda_coeff(1, 1) == -1
        assert lambda_coeff(1, 2) == -1
        assert lambda_coeff(2, 2) == 3
        assert lambda_coeff(2, 3) == 2
        assert lambda_coeff(3, 2) == -7

    def test_mu_anchors(self):
        assert mu_coeff(1, 1) == 1
        assert mu_coeff(1, 2) == -1
        assert mu_coeff(2, 2) == -3
        assert mu_coeff(2, 3) == 2
        assert mu_coeff(3, 2) == -7

    def test_sign_relation(self):
        for k in range(1, 13):
            for m in range(1, k + 2):
                assert mu_coeff(k, m) == (-1) ** (k + m - 1) * lambda_coeff(k, m)
                assert abs(lambda_coeff(k, m)) == math.factorial(m - 1) * stirling2(k + 1, m)

    def test_domain(self):
        with pytest.raises(DomainError):
            lambda_coeff(2, 0)
        with pytest.raises(DomainError):
            lambda_coeff(2, 4)
        with pytest.raises(DomainError):
            mu_coeff(0, 1)


class TestMDeterminant:
    def test_anchors(self):
        assert m_determinant(1, 1, 1) == 1
        assert m_determinant(1, 3, 3) == Fraction(1, 2)
        assert m_determinant(2, 2, 1) == 1
        assert m_determinant(3, 4, 2) == Fraction(11, 6)

    def test_first_column_normalization(self):
        # the 1x1 case is C(k, i)/(i-1)!
        for k in range(1, 7):
            for i in range(1, k + 1):
                assert m_determinant(1, k, i) == Fraction(math.comb(k, i), math.factorial(i - 1))

    def test_domain(self):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(DomainError):
                m_determinant(*bad)

    def test_cache_is_bounded(self):
        assert m_determinant.cache_info().maxsize == 1024
        for k in range(1, 1101):
            assert m_determinant(1, k, 1) == k
        assert m_determinant.cache_info().currsize <= 1024

    def test_domain_error_is_not_cached(self):
        before = m_determinant.cache_info()
        for _ in range(2):
            with pytest.raises(DomainError):
                m_determinant(0, 1, 1)
        after = m_determinant.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=30),
    )
    def test_matches_gaussian_elimination(self, j, k, i):
        # k < i + j - 1 zeroes the lower first-column entries, k < i all of them
        assert m_determinant(j, k, i) == reference_m_determinant(j, k, i)

    def test_large_anchors(self):
        # values of the elimination route, pinned; (25, 54, 30) is the
        # relation shape n = 54, k = 30
        expected = Fraction(
            11495702725372395062602999691426117,
            20671345584863618271607654955783754088867430400000000000,
        )
        assert m_determinant(25, 54, 30) == expected
        assert reference_m_determinant(25, 54, 30) == expected
        assert m_determinant(60, 80, 20) == 0

    def test_first_kind_relation(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert verify_first_kind_determinant_relation(n, k)

    def test_relation_domain(self):
        with pytest.raises(DomainError):
            verify_first_kind_determinant_relation(3, 4)
        with pytest.raises(DomainError):
            verify_first_kind_determinant_relation(0, 0)


class TestABCoefficients:
    def test_a_anchors(self):
        assert a_coeff(1, 1) == 1
        assert a_coeff(2, 1) == 1
        assert a_coeff(2, 2) == -1
        assert [a_coeff(3, m) for m in (1, 2, 3)] == [1, Fraction(-3, 2), Fraction(1, 2)]

    def test_b_anchors(self):
        assert b_coeff(1, 1) == 1
        assert [b_coeff(2, m) for m in (1, 2)] == [-1, -1]
        assert [b_coeff(3, m) for m in (1, 2, 3)] == [1, Fraction(3, 2), Fraction(1, 2)]

    def test_sign_equivalences(self):
        # (-1)**(m*m+1) == (-1)**(m+1), so a and b differ by (-1)**(k-m)
        for k in range(1, 11):
            for m in range(1, k + 1):
                assert (-1) ** (m * m + 1) == (-1) ** (m + 1)
                assert b_coeff(k, m) == (-1) ** (k - m) * a_coeff(k, m)

    def test_b_against_first_kind(self):
        # b_{k,m-1} = (-1)**(m-1) s(k, m)/(k-1)!, a scalar restatement of the
        # determinant relation
        for k in range(1, 12):
            for m in range(1, k + 1):
                expected = Fraction((-1) ** (m - 1) * stirling1(k, m), math.factorial(k - 1))
                assert b_coeff(k, m) == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            a_coeff(2, 3)
        with pytest.raises(DomainError):
            b_coeff(2, 0)
