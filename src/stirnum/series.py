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

Coefficients are stored as reduced ``Fraction`` values.  Three kernels put
their inputs over a shared denominator and run on the integer numerators,
reducing once per output coefficient rather than once per term:
multiplication and reciprocal, the two quadratic ones, and
``linear_combination``, which also carries addition and subtraction.

Multiplication and reciprocal each have two integer scalings.  Short
windows put the coefficients over the lcm of their denominators,
c_k = C_k / den.  For the exponential-type series of this package that lcm
is about k!, so on long windows the numerators grow to thousands of bits.
Long windows therefore use factorial-scaled (EGF) numerators,
c_k = C_k / (k! den), which stay small for e**(a t) and its relatives: a
product coefficient becomes sum_i binom(k, i) A_i B_{k-i} over k! da db.
The split is the output length ``_EGF_MIN_LENGTH``, measured where one
scaling starts to beat the other; both give the same reduced coefficients.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Tuple, Union

from .errors import DomainError, PrecisionExhaustedError, ZeroSeriesError

__all__ = ["LaurentSeries", "ZERO", "exp_linear", "linear_combination"]

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class LaurentSeries:
    """Immutable window of exact coefficients plus a truncation order."""

    offset: int
    coeffs: Tuple[Fraction, ...]

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
        return cls.from_coeffs(0, (Fraction(value),) + (Fraction(0),) * (precision - 1))

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
        return cls.from_coeffs(
            exponent, (Fraction(value),) + (Fraction(0),) * (precision - exponent - 1)
        )

    # -- structure ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True only for the designated exact zero."""
        return not self.coeffs

    @property
    def precision(self):
        """First unknown exponent: offset + len(coeffs), or inf for zero."""
        if not self.coeffs:
            return math.inf
        return self.offset + len(self.coeffs)

    def valuation(self):
        """Exponent of the first nonzero stored coefficient, None if all zero."""
        for i, c in enumerate(self.coeffs):
            if c:
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
        return self.coeffs[exponent - self.offset]

    def coefficients(self) -> Iterator[Tuple[int, Fraction]]:
        """Yield (exponent, coefficient) over the stored window, ascending."""
        for i, c in enumerate(self.coeffs):
            yield self.offset + i, c

    def equal_on_window(self, other: "LaurentSeries", lo: int, hi: int) -> bool:
        """Exact coefficient equality over [lo, hi).

        Both series must carry the full window: for a non-zero series that
        means lo >= offset and hi <= precision, otherwise the comparison
        would silently read unknown coefficients and
        PrecisionExhaustedError is raised instead.
        """
        for side in (self, other):
            if not side.is_zero and (lo < side.offset or hi > side.precision):
                raise PrecisionExhaustedError(
                    f"window [{lo},{hi}) not contained in stored window "
                    f"[{side.offset},{side.precision})"
                )
        return all(self.coeff(e) == other.coeff(e) for e in range(lo, hi))

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
        return LaurentSeries(self.offset, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return linear_combination((self, other), (1, -1))

    def scale(self, factor: Scalar) -> "LaurentSeries":
        """Multiply by an exact scalar; scaling by 0 gives the exact zero."""
        factor = Fraction(factor)
        if self.is_zero or not factor:
            return ZERO
        return LaurentSeries(self.offset, tuple(c * factor for c in self.coeffs))

    def shift(self, exponent: int) -> "LaurentSeries":
        """Multiply by the exact monomial t**exponent; the window moves rigidly."""
        if self.is_zero or exponent == 0:
            return self
        return LaurentSeries(self.offset + exponent, self.coeffs)

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
        return LaurentSeries(
            offset, kernel(self.coeffs[:length], other.coeffs[:length], length)
        )

    def __rmul__(self, other) -> "LaurentSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

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
        coeffs = tuple((self.offset + i) * c for i, c in enumerate(self.coeffs))
        return LaurentSeries(self.offset - 1, coeffs)

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
        unit = self.coeffs[start : start + precision - offset]
        kernel = _egf_reciprocal if len(unit) >= _EGF_MIN_LENGTH else _lcm_reciprocal
        return LaurentSeries(offset, kernel(unit))

    # -- presentation -----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.coefficients():
            if not c:
                continue
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{e}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(t^{self.precision})"


ZERO = LaurentSeries(0, ())

# Output length from which multiplication and reciprocal run on
# factorial-scaled numerators (_egf_product, _egf_reciprocal) rather than
# on numerators over an lcm (_lcm_product, _lcm_reciprocal).  Measured on
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


def _egf_scaled(coeffs) -> Tuple[list, int]:
    """Integers ``ints`` and ``den`` with coeffs[k] == ints[k] / (k! * den)."""
    nums, dens = [], []
    fact = 1
    for k, c in enumerate(coeffs):
        if k:
            fact *= k
        # k! * c in lowest terms: the factorial cancels what it can
        g = math.gcd(fact, c.denominator)
        nums.append(c.numerator * (fact // g))
        dens.append(c.denominator // g)
    den = math.lcm(*dens)
    return [x * (den // d) for x, d in zip(nums, dens)], den


def _lcm_product(a, b, length: int) -> Tuple[Fraction, ...]:
    """The first ``length`` coefficients of a*b, on numerators over an lcm."""
    a, da = _scaled(a)
    b, db = _scaled(b)
    den = da * db
    out = []
    for k in range(length):
        # a[i] * b[k - i] over the i for which both factors are stored
        lo = max(0, k - len(b) + 1)
        hi = min(k + 1, len(a))
        total = sum(map(operator.mul, a[lo:hi], reversed(b[k - hi + 1 : k - lo + 1])))
        out.append(Fraction(total, den))
    return tuple(out)


def _egf_product(a, b, length: int) -> Tuple[Fraction, ...]:
    """The first ``length`` coefficients of a*b, on factorial-scaled numerators.

    With a_i = A_i / (i! da) and b_j = B_j / (j! db), coefficient k is
    sum_i C(k, i) A_i B_{k-i} over k! da db.
    """
    a, da = _egf_scaled(a)
    b, db = _egf_scaled(b)
    den = da * db
    out = []
    row = [1]  # C(k, 0..k)
    fact = 1
    for k in range(length):
        if k:
            row = [1, *map(operator.add, row, row[1:]), 1]
            fact *= k
        lo = max(0, k - len(b) + 1)
        hi = min(k + 1, len(a))
        total = sum(
            map(
                operator.mul,
                map(operator.mul, row[lo:hi], a[lo:hi]),
                reversed(b[k - hi + 1 : k - lo + 1]),
            )
        )
        out.append(Fraction(total, fact * den))
    return tuple(out)


def _lcm_reciprocal(unit) -> Tuple[Fraction, ...]:
    """1/u for a unit power series u, on numerators over an lcm.

    The long-division recurrence q_n = -(sum_{i=1..n} u_i q_{n-i}) / u_0.
    """
    unit, unit_den = _scaled(unit)
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
    return tuple(Fraction(unit_den * x, den) for x in nums)


def _egf_reciprocal(unit) -> Tuple[Fraction, ...]:
    """1/u for a unit power series u, on factorial-scaled numerators.

    With u_i = U_i / (i! unit_den), 1/u = unit_den * sum R_n t**n / n!
    where sum_{i=0..n} C(n, i) U_i R_{n-i} = [n == 0].
    """
    unit, unit_den = _egf_scaled(unit)
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
    out = []
    fact = 1
    for n, x in enumerate(nums):
        if n:
            fact *= n
        out.append(Fraction(unit_den * x, den * fact))
    return tuple(out)


def linear_combination(
    terms: Sequence[LaurentSeries], weights: Sequence[Scalar]
) -> LaurentSeries:
    """sum(w * s for s, w in zip(terms, weights)) with the add rules.

    A zero weight or the exact zero term drops out, as ``scale(0)`` gives
    the exact zero; nothing left gives ZERO.  The window runs from the
    least offset to the least precision of the terms that stay.  Each
    term's numerators are put over one common denominator and each output
    coefficient is one integer sum, reduced once.
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
    scaled = []
    for term, weight in kept:
        ints, den = _scaled(term.coeffs[: max(0, precision - term.offset)])
        scaled.append((term.offset - offset, ints, weight.numerator, weight.denominator * den))
    den = math.lcm(*[term_den for _, _, _, term_den in scaled])
    out = [0] * (precision - offset)
    for start, ints, num, term_den in scaled:
        factor = num * (den // term_den)
        for i, x in enumerate(ints, start):
            out[i] += factor * x
    return LaurentSeries(offset, tuple(Fraction(x, den) for x in out))


def exp_linear(alpha: Scalar, order: int) -> LaurentSeries:
    """exp(alpha*t) truncated to the window [0, order)."""
    if order < 1:
        raise DomainError(f"exp_linear needs order >= 1, got {order}")
    alpha = Fraction(alpha)
    coeffs = []
    term = Fraction(1)
    for n in range(order):
        coeffs.append(term)
        term = term * alpha / (n + 1)
    return LaurentSeries.from_coeffs(0, coeffs)
