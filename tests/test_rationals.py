"""Rational literals: parsing and canonical text round-trips."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stirnum.errors import RationalParseError
from stirnum.rationals import format_rational, parse_rational

CANONICAL = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")

rationals = st.fractions(
    min_value=Fraction(-10**9), max_value=Fraction(10**9), max_denominator=10**6
)


class TestParseRational:
    def test_anchors(self):
        assert parse_rational("-1/30") == Fraction(-1, 30)
        assert parse_rational("7") == 7
        assert parse_rational("3/6") == Fraction(1, 2)
        assert parse_rational("+5/10") == Fraction(1, 2)
        assert parse_rational("0") == 0

    @pytest.mark.parametrize(
        "text",
        [
            "", "1/0", "0/0", "1/00", "0/000", "-3/0000", "1.5", "a", "1/-2", "--3", "1 /2",
            " 1", "1/2/3", "/2",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(RationalParseError):
            parse_rational(text)


class TestFormatRational:
    def test_canonical_form(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(-3, 6)) == "-1/2"
        assert format_rational(Fraction(5)) == "5"
        assert format_rational(7) == "7"
        assert format_rational(Fraction(0)) == "0"
        assert format_rational(Fraction(2, -4)) == "-1/2"

    @given(rationals)
    def test_matches_grammar(self, q):
        assert CANONICAL.match(format_rational(q))

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


# 7...7 with 5,000 digits, built without reading or printing a long int.
SEVENS = 7 * (10**5000 - 1) // 9


class TestDigitCap:
    """Literals and values past the interpreter's 4,300-digit int/str cap."""

    def test_parse_long_literal(self):
        assert parse_rational("1/" + "7" * 5000) == Fraction(1, SEVENS)
        assert parse_rational("-" + "7" * 5000 + "/14") == Fraction(-SEVENS, 14)
        assert parse_rational("+00" + "7" * 5000) == SEVENS

    def test_format_long_value(self):
        assert format_rational(SEVENS) == "7" * 5000
        assert format_rational(Fraction(-1, SEVENS)) == "-1/" + "7" * 5000
        assert format_rational(Fraction(SEVENS, 2)) == "7" * 5000 + "/2"

    def test_round_trip(self):
        for q in (Fraction(SEVENS, 10**4400 + 1), Fraction(-(10**4400), 3)):
            text = format_rational(q)
            assert CANONICAL.match(text)
            assert parse_rational(text) == q


class TestExactness:
    @given(rationals, rationals)
    def test_add_sub_cancel(self, a, b):
        assert (a + b) - b == a

    @given(rationals, rationals.filter(bool))
    def test_mul_div_cancel(self, a, b):
        assert (a * b) / b == a

    @given(rationals)
    def test_normalized(self, q):
        from math import gcd

        assert q.denominator > 0
        assert gcd(q.numerator, q.denominator) == 1
