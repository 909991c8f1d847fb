"""Rational literals: exact parsing and canonical text.

Integers are plain Python ints (arbitrary precision).  Rationals are
``fractions.Fraction``, which normalizes eagerly: every value is stored
fully reduced with a positive denominator, so ``==`` means mathematical
equality and hashing is consistent with it.  Nothing here ever rounds.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .errors import RationalParseError

__all__ = [
    "parse_rational",
    "format_rational",
]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/([0-9]+))?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse '-?digits(/digits)?' into an exact rational.

    A leading '+' is tolerated on input; the denominator must be nonzero,
    however many zeros spell it.
    Anything else (whitespace, decimals, empty string) is rejected.  Any
    number of digits is read exactly.
    """
    match = _RATIONAL_RE.match(text)
    if match is None:
        raise RationalParseError(f"not a rational literal: {text!r}")
    denominator = match.group(1)
    # Zero in any number of digits ("0", "000"), read without int()'s digit cap.
    if denominator is not None and not denominator.strip("0"):
        raise RationalParseError(f"zero denominator: {text!r}")
    try:
        return Fraction(text)
    except ValueError:
        # A part past the interpreter's int/str digit cap; Decimal text
        # converts to int without it.
        numerator, _, denominator = text.partition("/")
        return Fraction(int(Decimal(numerator)), int(Decimal(denominator or 1)))


def format_rational(value: int | Fraction) -> str:
    """Canonical text for a rational: '-?digits' or '-?digits/digits'.

    The denominator is omitted exactly when the value is an integer; the
    sign, if any, sits on the numerator.  parse_rational(format_rational(q))
    returns q for every q, however many digits its parts have.
    """
    if type(value) is not Fraction:
        value = Fraction(value)
    try:
        return str(value)
    except ValueError:
        # A part past the interpreter's int/str digit cap; an exact Decimal
        # of an int prints all of its digits without it.
        text = str(Decimal(value.numerator))
        if value.denominator != 1:
            text += "/" + str(Decimal(value.denominator))
        return text
