"""Truncated formal Laurent series over exact rationals.

A series value stores coefficients for the exponent window
``[offset, offset + len(coeffs))`` and represents

    sum_{e in window} coeffs[e - offset] * t**e  +  O(t**precision)

where ``precision = offset + len(coeffs)``.  Exponents below ``offset``
carry no terms at all (they are exactly zero by construction), while
coefficients at ``precision`` and above are unknown.  Every stored
coefficient is mathematically exact; truncation order is propagated
pessimistically so that guarantee survives arbitrary compositions:

    add:        min(precision_a, precision_b)
    mul:        min(precision_a + val_b, precision_b + val_a)
    derivative: precision - 1
    reciprocal: precision - 2*valuation - 1   (offset becomes -valuation)

``val`` is the valuation, the exponent of the first nonzero stored
coefficient; a window holding only zeros contributes its precision as the
best provable lower bound.  The one value exact to every order is the
designated zero series (empty coefficient tuple, infinite precision),
produced by scaling with 0, multiplying by zero, or a linear combination
whose every weight or term is zero.

Coefficients are stored as integer numerators ``nums`` over one shared
denominator ``den``, coeffs[i] == nums[i] / den, in the canonical form
den > 0 and gcd(den, *nums) == 1.  So ``den`` is the lcm of the reduced
coefficient denominators, and equal series have equal
(offset, nums, den).  Every kernel computes on these integers and
normalizes its result once.  ``Fraction`` values appear only where a
caller reads coefficients: ``coeff(e)``, and ``coeffs``, built on first
read.

Multiplication and reciprocal each have two integer scalings.  Short
windows run on the stored numerators, c_k = C_k / den.  For the
exponential-type series of this package that den is about k!, so on long
windows the numerators grow to thousands of bits.  Long windows therefore
use factorial-scaled (EGF) numerators, c_k = C_k / (k! den'), which stay
small for e**(a t) and its relatives: a product coefficient becomes
sum_i binom(k, i) A_i B_{k-i} over k! da db.  The split is the output
length ``_EGF_MIN_LENGTH``, measured where one scaling starts to beat the
other; both give the same coefficients.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import count, repeat
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from .errors import DomainError, PrecisionExhaustedError, ZeroSeriesError

__all__ = ["LaurentSeries", "ZERO", "exp_linear", "linear_combination", "recip_exp_linear"]

Scalar = Union[int, Fraction]


class LaurentSeries:
    """Immutable window of exact coefficients plus a truncation order."""

    __slots__ = ("offset", "nums", "den", "_coeffs")

    offset: int
    nums: Tuple[int, ...]
    den: int

    def __init__(self, offset: int, coeffs: Sequence[Scalar]):
        nums, den = _scaled(coeffs)
        _init(self, offset, tuple(nums), den)

    def __setattr__(self, name, value):
        raise AttributeError(f"LaurentSeries is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"LaurentSeries is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.offset, self.den, self.nums) == (other.offset, other.den, other.nums)

    def __hash__(self):
        return hash((self.offset, self.den, self.nums))

    def __repr__(self) -> str:
        return f"LaurentSeries(offset={self.offset!r}, coeffs={self.coeffs!r})"

    # -- construction --------------------------------------------------

    @classmethod
    def from_coeffs(cls, offset: int, values: Iterable[Scalar]) -> "LaurentSeries":
        """Series with the given coefficients starting at exponent ``offset``.

        An empty coefficient list yields the exact zero series.
        """
        coeffs = tuple(Fraction(v) for v in values)
        if not coeffs:
            return ZERO
        return cls(int(offset), coeffs)

    @classmethod
    def constant(cls, value: Scalar, precision: int) -> "LaurentSeries":
        """The constant ``value`` known through O(t**precision)."""
        if precision < 1:
            raise DomainError(f"constant needs precision >= 1, got {precision}")
        return cls.monomial(value, 0, precision)

    @classmethod
    def one(cls, precision: int) -> "LaurentSeries":
        return cls.constant(1, precision)

    @classmethod
    def monomial(cls, value: Scalar, exponent: int, precision: int) -> "LaurentSeries":
        """value * t**exponent with window [exponent, precision)."""
        if precision <= exponent:
            raise DomainError(
                f"monomial needs precision > exponent, got {precision} <= {exponent}"
            )
        value = Fraction(value)
        nums = (value.numerator,) + (0,) * (precision - exponent - 1)
        return _new(int(exponent), nums, value.denominator)

    # -- structure ------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The stored coefficients as reduced Fractions, built on first read."""
        coeffs = self._coeffs
        if coeffs is None:
            den = self.den
            coeffs = tuple(Fraction(x, den) for x in self.nums)
            _set(self, "_coeffs", coeffs)
        return coeffs

    @property
    def is_zero(self) -> bool:
        """True only for the designated exact zero."""
        return not self.nums

    @property
    def precision(self):
        """First unknown exponent: offset + len(coeffs), or inf for zero."""
        if not self.nums:
            return math.inf
        return self.offset + len(self.nums)

    def valuation(self):
        """Exponent of the first nonzero stored coefficient, None if all zero."""
        for i, x in enumerate(self.nums):
            if x:
                return self.offset + i
        return None

    def _valuation_floor(self):
        # Tightest provable lower bound on the true valuation: the visible
        # valuation, or the precision when the whole window is zero.
        v = self.valuation()
        return self.precision if v is None else v

    def coeff(self, exponent: int) -> Fraction:
        """Exact coefficient of t**exponent.

        Below the window the coefficient is identically zero by construction
        and 0 is returned; at or above the precision it is unknown and
        PrecisionExhaustedError is raised.
        """
        if exponent >= self.precision:
            raise PrecisionExhaustedError(
                f"coefficient of t^{exponent} requested beyond O(t^{self.precision})"
            )
        if self.is_zero or exponent < self.offset:
            return Fraction(0)
        return Fraction(self.nums[exponent - self.offset], self.den)

    def coefficients(self) -> Iterator[Tuple[int, Fraction]]:
        """Yield (exponent, coefficient) over the stored window, ascending."""
        return zip(count(self.offset), self.coeffs)

    def truncated(self, precision: int) -> "LaurentSeries":
        """The same series known only through O(t**precision).

        The window keeps its offset and must stay nonempty: ``precision``
        runs from offset + 1 up to the current precision.  The exact zero
        is returned as it is.
        """
        if self.is_zero or precision == self.precision:
            return self
        if not self.offset < precision < self.precision:
            raise PrecisionExhaustedError(
                f"cannot truncate window [{self.offset},{self.precision}) "
                f"to O(t^{precision})"
            )
        return _canonical(self.offset, self.nums[: precision - self.offset], self.den)

    def first_difference(self, other: "LaurentSeries", lo: int, hi: int) -> Optional[int]:
        """The least exponent in [lo, hi) where the two coefficients differ,
        or None.

        Exponents below a side's offset read as its exact zeros; a side
        whose precision is below ``hi`` raises PrecisionExhaustedError.  The
        numerators are compared cross-multiplied, a_e * den_b == b_e * den_a.
        """
        for side in (self, other):
            if hi > side.precision:
                raise PrecisionExhaustedError(
                    f"coefficient of t^{hi - 1} requested beyond O(t^{side.precision})"
                )
        g = math.gcd(self.den, other.den)
        left = list(map(operator.mul, self._window(lo, hi), repeat(other.den // g)))
        right = list(map(operator.mul, other._window(lo, hi), repeat(self.den // g)))
        if left == right:
            return None
        return next(e for e, x, y in zip(count(lo), left, right) if x != y)

    def _window(self, lo: int, hi: int) -> list:
        # Numerators over self.den for the exponents [lo, hi), with the
        # exact zeros below the stored window filled in.
        if self.is_zero:
            return [0] * (hi - lo)
        start = min(max(self.offset, lo), hi)
        return [0] * (start - lo) + list(self.nums[start - self.offset : hi - self.offset])

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return linear_combination((self, other), (1, 1))

    def __neg__(self) -> "LaurentSeries":
        if self.is_zero:
            return self
        return _new(self.offset, tuple(map(operator.neg, self.nums)), self.den)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return linear_combination((self, other), (1, -1))

    def scale(self, factor: Scalar) -> "LaurentSeries":
        """Multiply by an exact scalar; scaling by 0 gives the exact zero."""
        factor = Fraction(factor)
        if self.is_zero or not factor:
            return ZERO
        nums = map(operator.mul, self.nums, repeat(factor.numerator))
        return _canonical(self.offset, list(nums), self.den * factor.denominator)

    def shift(self, exponent: int) -> "LaurentSeries":
        """Multiply by the exact monomial t**exponent; the window moves rigidly."""
        if self.is_zero or exponent == 0:
            return self
        return _new(self.offset + exponent, self.nums, self.den)

    def __mul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ZERO
        offset = self.offset + other.offset
        precision = min(
            self.precision + other._valuation_floor(),
            other.precision + self._valuation_floor(),
        )
        if precision <= offset:
            raise PrecisionExhaustedError(
                f"product window [{offset},{precision}) is empty"
            )
        length = precision - offset
        kernel = _egf_product if length >= _EGF_MIN_LENGTH else _lcm_product
        nums, den = kernel(
            self.nums[:length], self.den, other.nums[:length], other.den, length
        )
        return _canonical(offset, nums, den)

    def __pow__(self, exponent: int) -> "LaurentSeries":
        if exponent < 0:
            raise DomainError("negative power: take reciprocal() explicitly")
        if exponent == 0:
            if self.is_zero:
                raise DomainError("0**0 is undefined for the exact zero series")
            return LaurentSeries.one(self.precision)
        # Square-and-multiply.  The valuation floor adds up under mul, so
        # every partial power self**j has precision p + (j-1)*floor and a
        # nonempty window: the result and its window are those of
        # exponent - 1 repeated products, from fewer of them.
        result = None
        square = self
        while True:
            if exponent & 1:
                result = square if result is None else result * square
            exponent >>= 1
            if not exponent:
                return result
            square = square * square

    def derivative(self) -> "LaurentSeries":
        """Termwise d/dt; the window slides to [offset-1, precision-1)."""
        if self.is_zero:
            return self
        nums = list(map(operator.mul, self.nums, count(self.offset)))
        return _canonical(self.offset - 1, nums, self.den)

    def reciprocal(self) -> "LaurentSeries":
        """Multiplicative inverse on the window [-v, precision - 2v - 1).

        v is the valuation.  Writing self = t**v * u with u a unit power
        series, the inverse is t**-v * u**-1 computed by the long-division
        recurrence q_n = -(sum_{i=1..n} u_i q_{n-i}) / u_0.
        """
        if self.is_zero:
            raise ZeroSeriesError("reciprocal of the exact zero series")
        v = self.valuation()
        if v is None:
            raise ZeroSeriesError(
                "reciprocal of a series that is zero on its whole window"
            )
        offset = -v
        precision = self.precision - 2 * v - 1
        if precision <= offset:
            raise PrecisionExhaustedError(
                f"reciprocal window [{offset},{precision}) is empty; "
                "widen the source series"
            )
        start = v - self.offset
        unit = self.nums[start : start + precision - offset]
        kernel = _egf_reciprocal if len(unit) >= _EGF_MIN_LENGTH else _lcm_reciprocal
        nums, den = kernel(unit, self.den)
        return _canonical(offset, nums, den)


_set = object.__setattr__


def _init(series: LaurentSeries, offset: int, nums: Tuple[int, ...], den: int) -> None:
    _set(series, "offset", offset)
    _set(series, "nums", nums)
    _set(series, "den", den)
    _set(series, "_coeffs", None)


def _new(offset: int, nums: Tuple[int, ...], den: int) -> LaurentSeries:
    """A series from numerators already in canonical form over ``den``."""
    series = object.__new__(LaurentSeries)
    _init(series, offset, nums, den)
    return series


def _canonical(offset: int, nums: list, den: int) -> LaurentSeries:
    """The series sum nums[i]/den t**(offset+i), put in canonical form.

    ``den`` is nonzero and may be negative.  The gcd runs from the last
    numerator down: for the exponential-type series of this package the
    top coefficient has about the largest reduced denominator, so its
    numerator over ``den`` is small and the gcd falls to 1 within a few
    terms, where math.gcd stops working on the rest.
    """
    g = math.gcd(den, *reversed(nums))
    if den < 0:
        g = -g
    if g != 1:
        nums = [x // g for x in nums]
        den //= g
    return _new(offset, tuple(nums), den)


# Output length from which multiplication and reciprocal run on
# factorial-scaled numerators (_egf_product, _egf_reciprocal) rather than
# on the stored numerators (_lcm_product, _lcm_reciprocal).  Measured on
# the oracle mix of the sequence families (five reciprocals and three
# products per order, alternating runs, 2-vCPU x86-64, Python 3.11): the
# lcm kernels win below about order 64, the two are within run-to-run noise
# from 72 to 96, and the factorial-scaled ones win every run from 104 on
# (1.4x at 104, 1.5x at 128, 3.3x at 288).  Identity sweeps at the default
# orders (k_max <= 12 reads orders up to 34) stay on the lcm kernels.
_EGF_MIN_LENGTH = 104


def _scaled(coeffs) -> Tuple[list, int]:
    """Integer numerators of ``coeffs`` over the lcm of their denominators."""
    den = math.lcm(*[c.denominator for c in coeffs])
    return [c.numerator * (den // c.denominator) for c in coeffs], den


ZERO = LaurentSeries(0, ())


def _egf_scaled(nums, den) -> Tuple[list, int]:
    """Integers ``ints`` and ``d`` with nums[k] / den == ints[k] / (k! * d).

    ints[k] = nums[k] k! / g for g = gcd(den, nums[j] j! for all j), the
    least ``d``.  Forming every nums[k] k! and dividing it by g costs a
    product and a division at the size of ``den`` per coefficient.  Instead g is built
    up as k runs, split as g = a h with a = gcd(g, k!) and m = k!/a, so
    that nums[k] k! / g == nums[k] m / h: a and m grow by one small gcd
    per k, h shrinks, and one division gives the quotient.  When h does
    not divide nums[k] m, g shrinks to a gcd(h, r); the quotients already
    taken are scaled up once, at the end, by every shrink after them.
    """
    ints = []
    shrinks = []  # (k, factor): g shrank by factor at coefficient k
    a, h, m = 1, den, 1
    for k, x in enumerate(nums):
        if k:
            d = math.gcd(h, k)
            h //= d
            a *= d
            m *= k // d
        x *= m
        q, r = divmod(x, h)
        if r:
            smaller = math.gcd(h, r)
            shrinks.append((k, h // smaller))
            h = smaller
            q = x // h
        ints.append(q)
    scale, end = 1, len(ints)
    for start, factor in reversed([(0, 1)] + shrinks):
        if scale != 1:
            ints[start:end] = [q * scale for q in ints[start:end]]
        scale *= factor
        end = start
    return ints, den // (a * h)


def _egf_unscaled(ints, den) -> Tuple[list, int]:
    """Numerators over one denominator of the values ints[k] / (k! * den)."""
    # With F = (L-1)!, ints[k] / (k! den) == ints[k] * (F / k!) / (F den).
    nums = [0] * len(ints)
    ratio = 1  # F / k!
    for k in range(len(ints) - 1, -1, -1):
        nums[k] = ints[k] * ratio
        ratio *= k or 1
    return nums, ratio * den


def _times_ratio(nums, num: int, den: int) -> Tuple[list, int]:
    """Numerators and denominator of nums[i] * num / den.

    A reciprocal's quotients come back over its running denominator, a
    multiple of the unit's lead, and are scaled by the unit's denominator:
    1/u_0 is that denominator over the lead, so the two share most of
    their factors.  Cancelling them first keeps every numerator smaller.
    """
    g = math.gcd(num, den)
    num //= g
    return [num * x for x in nums], den // g


def _lcm_product(a, da: int, b, db: int, length: int) -> Tuple[list, int]:
    """The first ``length`` coefficients of a*b: numerators over da * db."""
    out = []
    for k in range(length):
        # a[i] * b[k - i] over the i for which both factors are stored
        lo = max(0, k - len(b) + 1)
        hi = min(k + 1, len(a))
        out.append(sum(map(operator.mul, a[lo:hi], reversed(b[k - hi + 1 : k - lo + 1]))))
    return out, da * db


def _egf_product(a, da: int, b, db: int, length: int) -> Tuple[list, int]:
    """The first ``length`` coefficients of a*b, on factorial-scaled numerators.

    With a_i = A_i / (i! da) and b_j = B_j / (j! db), coefficient k is
    sum_i C(k, i) A_i B_{k-i} over k! da db.
    """
    a, da = _egf_scaled(a, da)
    b, db = _egf_scaled(b, db)
    out = []
    row = [1]  # C(k, 0..k)
    for k in range(length):
        if k:
            row = [1, *map(operator.add, row, row[1:]), 1]
        lo = max(0, k - len(b) + 1)
        hi = min(k + 1, len(a))
        out.append(
            sum(
                map(
                    operator.mul,
                    map(operator.mul, row[lo:hi], a[lo:hi]),
                    reversed(b[k - hi + 1 : k - lo + 1]),
                )
            )
        )
    return _egf_unscaled(out, da * db)


def _lcm_reciprocal(unit, unit_den: int) -> Tuple[list, int]:
    """1/u for the unit power series u_i = unit[i] / unit_den.

    The long-division recurrence q_n = -(sum_{i=1..n} u_i q_{n-i}) / u_0.
    """
    # 1/u = unit_den * (1/U) for the integer series U = unit.  The
    # quotients r_n = nums[n] / den of 1/U share one denominator, widened
    # whenever a new quotient does not fit over it.
    lead = unit[0]
    den = lead
    nums = [1]
    for n in range(1, len(unit)):
        acc = sum(map(operator.mul, unit[1 : n + 1], reversed(nums)))
        if acc % lead:
            widen = abs(lead) // math.gcd(acc, lead)
            nums = [x * widen for x in nums]
            den *= widen
            acc *= widen
        nums.append(-acc // lead)
    return _times_ratio(nums, unit_den, den)


def _egf_reciprocal(unit, unit_den: int) -> Tuple[list, int]:
    """1/u for the unit power series u_i = unit[i] / unit_den, on
    factorial-scaled numerators.

    With u_i = U_i / (i! d), 1/u = d * sum R_n t**n / n!
    where sum_{i=0..n} C(n, i) U_i R_{n-i} = [n == 0].
    """
    unit, unit_den = _egf_scaled(unit, unit_den)
    # As in _lcm_reciprocal, R_n = nums[n] / den over one running
    # denominator, widened whenever a new quotient does not fit over it.
    lead = unit[0]
    den = lead
    nums = [1]
    row = [1]  # C(n, 0..n)
    for n in range(1, len(unit)):
        row = [1, *map(operator.add, row, row[1:]), 1]
        terms = map(operator.mul, row[1:], unit[1 : n + 1])
        acc = sum(map(operator.mul, terms, reversed(nums)))
        if acc % lead:
            widen = abs(lead) // math.gcd(acc, lead)
            nums = [x * widen for x in nums]
            den *= widen
            acc *= widen
        nums.append(-acc // lead)
    return _egf_unscaled(*_times_ratio(nums, unit_den, den))


def linear_combination(
    terms: Sequence[LaurentSeries], weights: Sequence[Scalar]
) -> LaurentSeries:
    """sum(w * s for s, w in zip(terms, weights)) with the add rules.

    A zero weight or the exact zero term drops out, as ``scale(0)`` gives
    the exact zero; nothing left gives ZERO.  The window runs from the
    least offset to the least precision of the terms that stay.  Each
    term's numerators are put over one common denominator, summed as
    integers and normalized once.
    """
    kept = []
    for term, weight in zip(terms, weights):
        weight = Fraction(weight)
        if weight and not term.is_zero:
            kept.append((term, weight))
    if not kept:
        return ZERO
    offset = min(term.offset for term, _ in kept)
    precision = min(term.precision for term, _ in kept)
    den = math.lcm(*[weight.denominator * term.den for term, weight in kept])
    out = [0] * (precision - offset)
    for term, weight in kept:
        factor = weight.numerator * (den // (weight.denominator * term.den))
        nums = term.nums[: max(0, precision - term.offset)]
        lo = term.offset - offset
        hi = lo + len(nums)
        out[lo:hi] = map(operator.add, out[lo:hi], map(operator.mul, nums, repeat(factor)))
    return _canonical(offset, out, den)


def exp_linear(alpha: Scalar, order: int) -> LaurentSeries:
    """exp(alpha*t) truncated to the window [0, order)."""
    if order < 1:
        raise DomainError(f"exp_linear needs order >= 1, got {order}")
    alpha = Fraction(alpha)
    a, b = alpha.numerator, alpha.denominator
    # With N = order, coefficient n is a**n / (b**n n!) ==
    # a**n * b**(N-1-n) (N-1)!/n!  over  b**(N-1) (N-1)!.
    nums = [0] * order
    tail = 1  # b**(N-1-n) (N-1)!/n!
    for n in range(order - 1, -1, -1):
        nums[n] = tail
        tail *= b * (n or 1)
    den = nums[0]
    power = 1
    for n in range(1, order):
        power *= a
        nums[n] *= power
    return _canonical(0, nums, den)


def recip_exp_linear(alpha: Scalar, lam: Scalar, c: Scalar, order: int) -> LaurentSeries:
    """1/(lam*e**(alpha t) + c), long-divided from the source series of the
    given order.

    Every reciprocal base of the package is built here: 1/(e**t - 1) is
    (1, 1, -1), 1/(1 - e**(-t)) is (-1, -1, 1), 1/(e**t + 1) is (1, 1, 1).
    """
    return (exp_linear(alpha, order).scale(lam) + LaurentSeries.constant(c, order)).reciprocal()
