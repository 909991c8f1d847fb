"""Exact scalar arithmetic: integers, rationals, and combinatorial helpers.

Integers are plain Python ints (arbitrary precision).  Rationals are
``fractions.Fraction``, which normalizes eagerly: every value is stored
fully reduced with a positive denominator, so ``==`` means mathematical
equality and hashing is consistent with it.  Nothing here ever rounds.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import RationalParseError

__all__ = [
    "factorial",
    "binomial",
    "parse_rational",
    "format_rational",
]

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/([0-9]+))?\Z")


def factorial(n: int) -> int:
    """n! for n >= 0."""
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0, with value 0 whenever k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def parse_rational(text: str) -> Fraction:
    """Parse '-?digits(/digits)?' into an exact rational.

    A leading '+' is tolerated on input; the denominator must be nonzero.
    Anything else (whitespace, decimals, empty string) is rejected.
    """
    match = _RATIONAL_RE.match(text)
    if match is None:
        raise RationalParseError(f"not a rational literal: {text!r}")
    if match.group(1) == "0":
        raise RationalParseError(f"zero denominator: {text!r}")
    return Fraction(text)


def format_rational(value: Union[int, Fraction]) -> str:
    """Canonical text for a rational: '-?digits' or '-?digits/digits'.

    The denominator is omitted exactly when the value is an integer; the
    sign, if any, sits on the numerator.  parse_rational(format_rational(q))
    returns q for every q.
    """
    return str(Fraction(value))
