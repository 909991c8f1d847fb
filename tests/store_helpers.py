"""Helpers shared by the tests of the store of ladders, ``series._LADDERS``.

Every ladder is the ladder of one base B_mu = 1/(mu e**t - 1) at
alpha = 1, kept under the two integers of mu.  A base of the package,
1/(lam e**(alpha t) + c) with c != 0, is -1/c times B_mu(alpha t) at
mu = -lam/c; an identity check names its bases as (alpha, mu, sign),
the base sign * B_mu(alpha t).
"""

import functools
import operator
from fractions import Fraction

from stirnum import series as series_module

# The bound of the one store of bases and ladders, 4 MiB of charged bits.
STORE_BITS = series_module._LADDERS.budget


def base_order(ladder):
    """The source order the base of a ladder was built at."""
    return held_order(ladder, ladder.base)


def held_order(ladder, entry):
    """The source order at which a build gives as many coefficients as
    the ladder holds of entry."""
    return len(entry.nums) - ladder.base.offset + 1


def mu_of(lam, c):
    """The mu of 1/(lam e**t + c) = (-1/c) B_mu, c != 0."""
    return -Fraction(lam) / Fraction(c)


def ladder_key(mu):
    """The store key of the ladder of B_mu = 1/(mu e**t - 1): the two
    integers of mu."""
    mu = Fraction(mu)
    return mu.numerator, mu.denominator


@functools.lru_cache(maxsize=None)
def cold_entry(base, kind, index, order):
    """What the ladder of the base (alpha, mu, sign), sign * B_mu(alpha t),
    reads at ``order`` when built there: the last of
    ``derivatives(index)``, base^(index-1); the last of ``powers(index)``,
    the product of index bases; or ``power(index)``.  It reads B_mu built
    at alpha = 1, dilated and times the sign."""
    alpha, mu, sign = base
    base = series_module._dilated(series_module._build_base(Fraction(mu), order), Fraction(alpha)).scale(sign)
    if kind == "derivatives":
        return functools.reduce(lambda s, _: s.derivative(), range(index - 1), base)
    if kind == "powers":
        return functools.reduce(operator.mul, [base] * index)
    return base**index
