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
    power k:    precision + (k-1)*valuation   (offset becomes k*offset)

``val`` is the valuation, the exponent of the first nonzero stored
coefficient; a window holding only zeros contributes its precision as the
best provable lower bound.  The one value exact to every order is the
designated zero series (empty coefficient tuple, infinite precision),
produced by scaling with 0, multiplying by zero, or a linear combination
whose every weight or term is zero.

Coefficients are stored as integer numerators ``nums`` over one shared
denominator ``den``, coeffs[i] == nums[i] / den, in the canonical form
den > 0 and gcd(den, *nums) == 1, with the exact zero at offset 0.  So
``den`` is the lcm of the reduced coefficient denominators, and equal
series have equal (offset, nums, den).  The one constructor,
``LaurentSeries(offset, nums, den)``, puts its integers in that form and
rejects den == 0; ``from_coeffs`` takes the coefficients as Fractions.
Every kernel computes on these integers and builds its result with the
constructor, which normalizes it once.  ``Fraction`` values appear only
where a caller reads coefficients: ``coeff(e)``, and ``coeffs``, built on
first read.

Multiplication runs on the stored numerators at every length: product
coefficient k is sum_i A_i B_{k-i} over da db, normalized once.  The
Euler oracles, which need one coefficient of the longest products of the
package, read it as a single dot product from order ``_EGF_MIN_LENGTH``
on instead of multiplying the product out.

A power s**k makes no products: one pass of J.C.P. Miller's recurrence
on the stored numerators gives the unit's k-th power at every length, on
exactly the window k - 1 repeated products would give.  The same pass at
k = -1 is the long division, which ``reciprocal`` runs at every length.

Every reciprocal base of the package is 1/(lam e**(alpha t) + c), and
every one with c != 0 is a member of one family up to a sign and a
dilation: 1/(lam e**t + c) = (-1/c) B_mu with B_mu = 1/(mu e**t - 1)
and mu = -lam/c.  ``_build_base`` is the one place that builds a base:
B_mu at alpha = 1, from mu alone.  At mu = 0 the source is the constant
-1 and B_0 the constant -1.  Every other base is a B_mu scaled by -1/c
and dilated, t -> alpha t: ``_dilated``, the one place of this module
where a nonzero alpha enters, multiplies coefficient e by alpha**e (at
alpha = 1 it is the base itself).  A constant source, alpha = 0 or
lam = 0, is the constant lam + c, the source at lam = 0 and c = lam + c,
whose mu is 0.  Two sources have no mu: c = 0, whose reciprocal
1/(lam e**t) = (1/lam) e**(-t) is no B_mu, and the constant 0;
``recip_exp_linear`` writes the first down with ``exp_linear``, unstored,
and builds the reciprocal of the second, as it does that of c = 0 at
orders <= 1, for the window errors of the build.
The two-parameter oracle of ``sequences`` reads no dilated base: it
folds alpha into its exponential.  Below order ``_EGF_MIN_LENGTH``, and
at orders 1 and 2 where the valuation can lie outside the window, B_mu
is the reciprocal of its source series, which raises the window errors.
From that order on it is written down from mu: the factorial-scaled unit
of mu e**t - 1 is (mu - 1, mu, mu, ...) at valuation s = 0, and
(1, 1, ...) for (e**t - 1) / t at s = 1, mu = 1, where coefficient i of
the unit is W_i / (i+s)!.  The source of 1/(lam e**t + c) is -c times
that of B_mu, so both have one valuation and one window, and the same
window errors at orders 1 and 2.  On a unit with such a constant tail
each binomial-weighted sum of the long division is a binomial transform,
which ``_pascal_recurrence`` keeps as one anti-diagonal of its difference
table and moves on by Pascal's rule: O(n) additions a step instead of
O(n) products, as Brent and Harvey compute the Bernoulli and tangent
numbers.  The exit ``_egf_unscaled`` puts the factorial-scaled quotient
back over one denominator.

One bounded store, ``_LADDERS``, keeps the ladders of the bases B_mu:
the powers and derivatives of 1/(mu e**t - 1), one per mu, keyed on its
two integers (mu.numerator, mu.denominator), ``_key``: a tuple of ints
hashes fast, where a Fraction computes its hash, a modular inverse, on
every call.  So f = B_1 and g(t) = -B_1(-t) read one ladder, and
h = -B_(-1) reads the ladder of G at lam = -1.  A ladder
holds two kinds of power: the chain base**1, base**2, ... of products,
and single powers base**k, each one pass of Miller's recurrence, so that
a power-kind identity check and a derivative-kind one never read the same
kernel's output for their power side.  It also holds the right side of
each identity check that has read it as its right base, keyed on
(tag, k, order): the weighted sum at the check's order, with its additive
constant, so that a repeated check only compares.  The G checks of every
alpha share that sum; a G spec whose powers of alpha do not cancel the
chain rule's keys its sum on alpha too (``identities``).  The store
builds the bases it keeps with ``_build_base``, and every other caller
only reads them.  The identity checks read both their sides there, at
alpha = 1 and without their signs, whatever their alpha and sign
(``identities`` says how the chain rule and the sign carry them).
``_stored_base`` hands out the stored B_mu itself, built at the order
asked for or longer, and every reader of a base outside the ladders goes
through it: the oracles of ``sequences`` read the coefficients they need
in place off it, and ``recip_exp_linear`` truncates, scales and dilates
what it returns, at every order, so f, g, h and G share their entries
with the oracles.  At mu = 0, where the base is the constant -1, and at
orders 1 and 2 the store keeps nothing: a ladder asked for there is built
and handed back unstored.

Every kernel a ladder runs is online: Miller's recurrence, the product
and the derivative each compute coefficient n from the coefficients <= n
of their inputs.  At source order N every entry of a ladder holds
N + offset - 1 coefficients, offset that of the base, and
the first that many of a longer entry are those of a build at N; as the
form is canonical, a read at N gives the (offset, nums, den) of a build
at N whatever order the entry was built at, and a reader that needs
only coefficient values, as the oracles do, reads them in place.  So the
entries are the lazy power series of M. D. McIlroy ("Power series,
power serious", J. Funct. Program. 9, 1999).  The base is built at the
longest order asked for so far.  A base built from order
``_EGF_MIN_LENGTH`` on leaves the Pascal-rule division that wrote it
down on its ladder, a ``_PascalRun``: the anti-diagonal, its running
denominator and the step count, and no copy of the quotients.  When a
longer order comes, the ladder continues that run by the new steps only,
takes the new coefficients out of factorial scale and appends them to
the stored base with ``_grown``; the base stays canonical, so it is the
(offset, nums, den) of a fresh build at the longer order.  A base built
below the split is built again by ``_build_base``, which starts the run
at the first order from the split on.
Every other entry is built at the order of the first check that reads it.
Of those, only the product chain, O(L**2) an entry of length L,
continues in place when a longer read comes, by its new coefficients
only.  A derivative, linear in its length, is built again by
``derivative`` from the entry before it.  Both grow to twice their
length or more, as far as their input holds, so that the rising orders
of a sweep grow them a few times only.  A Miller power is built again by
``__pow__`` at the longer order: only an explicit order read again at a
longer one needs that.  Nothing is dropped, and a right side stored at
an order stays valid as the entries under it grow.

The same store keeps the builds of the reduction checks of
``sequences``, one entry per (n, lam): the row, polynomials and pivot
sums that ``two_param_reduction_sweep`` describes, under a key that
starts with a string, so that no key of a mu equals it.  A sweep reads
each entry once a call and keeps it again only if it built something;
it keeps no verdict.

Each ladder is charged the bits of its numerators and denominator, 320
more a coefficient and 8,192 a series (``_stored_bits``), and charged
again by every new, grown or rebuilt entry or right side; a held Pascal
run is charged the same way, its diagonal as the numerators, and each
build of the reduction checks the same way too.  Past the
budget of 4 MiB of charged bits the least recently used entries leave
first, ladders and builds alike, and an entry charged more than the
budget is not kept.  Every
stored series, run or build is charged at least 8,192 bits, so the store
holds at most 4,096 of them, and a CPython int of b bits takes at most
32 + 4b/30 bytes, so the entries take at most 16/15 of their charge:
about 4.5 MB at worst, keys of literals over 8,192 bits apart.  A ladder
the store has dropped but a caller still holds, as ``run_sweep`` holds
each ladder it reads until it returns, is found again through a weak
index and kept again if it fits, its run with it, so no sweep builds a
ladder twice however far it passes the budget.  The store is not
locked: use the package from one thread at a time.
"""

from __future__ import annotations

import math
import operator
import weakref
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, count, repeat

from .errors import DomainError, PrecisionExhaustedError, ZeroSeriesError

__all__ = ["LaurentSeries", "ZERO", "exp_linear", "linear_combination", "recip_exp_linear"]

Scalar = int | Fraction


class _Value:
    """Value semantics for an immutable slotted class, shared by the value
    classes of the package.

    A subclass lists its two or more fields in ``__slots__``, in
    constructor order, and any private slot, such as a cache, after them.
    Its ``__init__`` sets each slot with ``object.__setattr__``, or all
    the fields at once, in that order, with ``_set``; after that assigning
    or deleting an attribute raises AttributeError.  Equality
    and hashing read the field tuple of two instances of the same class,
    ``repr`` is ``Name(field=value, ...)``, and copy, deepcopy and pickle
    call the constructor on the fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._fields = operator.attrgetter(*cls._names)
        # Each slot's own setter, which bypasses the __setattr__ below.
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls._names)

    def _set(self, *values):
        """Set the fields, in ``__slots__`` order, to values."""
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = map("{}={!r}".format, self._names, self._fields(self))
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields(self)


class LaurentSeries(_Value):
    """Immutable window of exact coefficients plus a truncation order.

    ``LaurentSeries(offset, nums, den)`` is the series sum nums[i]/den
    t**(offset+i), put in the canonical form of the module docstring.
    """

    __slots__ = ("offset", "nums", "den", "_coeffs")

    def __init__(self, offset: int, nums: Sequence[int], den: int):
        if not den:
            raise DomainError("a series needs a nonzero denominator")
        nums, den = _normalized(nums, den)
        object.__setattr__(self, "offset", offset if nums else 0)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", None)

    # -- construction --------------------------------------------------

    @classmethod
    def from_coeffs(cls, offset: int, values: Iterable[Scalar]) -> "LaurentSeries":
        """Series with the given coefficients starting at exponent ``offset``.

        An empty coefficient list yields the exact zero series.
        """
        coeffs = [Fraction(v) for v in values]
        if not coeffs:
            return ZERO
        nums, den = _over_lcm([c.numerator for c in coeffs], [c.denominator for c in coeffs])
        return cls(int(offset), nums, den)

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
        return cls(int(exponent), nums, value.denominator)

    # -- structure ------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The stored coefficients as reduced Fractions, built on first read."""
        coeffs = self._coeffs
        if coeffs is None:
            den = self.den
            coeffs = tuple(Fraction(x, den) for x in self.nums)
            object.__setattr__(self, "_coeffs", coeffs)
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

    def coefficients(self) -> Iterator[tuple[int, Fraction]]:
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
        end = _cut(self.offset, self.precision, precision)
        return LaurentSeries(self.offset, self.nums[: end - self.offset], self.den)

    def first_difference(self, other: "LaurentSeries", lo: int, hi: int) -> int | None:
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
        return LaurentSeries(self.offset, tuple(map(operator.neg, self.nums)), self.den)

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
        return LaurentSeries(self.offset, list(nums), self.den * factor.denominator)

    def shift(self, exponent: int) -> "LaurentSeries":
        """Multiply by the exact monomial t**exponent; the window moves rigidly."""
        if self.is_zero or exponent == 0:
            return self
        return LaurentSeries(self.offset + exponent, self.nums, self.den)

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
        nums, den = _lcm_product(
            self.nums[:length], self.den, other.nums[:length], other.den, length
        )
        return LaurentSeries(offset, nums, den)

    def __pow__(self, exponent: int) -> "LaurentSeries":
        if exponent < 0:
            raise DomainError("negative power: take reciprocal() explicitly")
        if exponent == 0:
            if self.is_zero:
                raise DomainError("0**0 is undefined for the exact zero series")
            return LaurentSeries.one(self.precision)
        if exponent == 1 or self.is_zero:
            return self
        # The window is that of exponent - 1 repeated products.  The
        # valuation floor v adds up under mul, so it runs from
        # exponent * offset to precision + (exponent - 1) * v: the stored
        # zeros below v, exponent times over, then the unit's power.
        offset = exponent * self.offset
        v = self.valuation()
        if v is None:
            return LaurentSeries(offset, (0,) * (exponent * len(self.nums)), 1)
        start = v - self.offset
        nums, den = _power(self.nums[start:], self.den, exponent)
        return LaurentSeries(offset, [0] * (exponent * start) + nums, den)

    def derivative(self) -> "LaurentSeries":
        """Termwise d/dt; the window slides to [offset-1, precision-1)."""
        if self.is_zero:
            return self
        nums = list(map(operator.mul, self.nums, count(self.offset)))
        return LaurentSeries(self.offset - 1, nums, self.den)

    def reciprocal(self) -> "LaurentSeries":
        """Multiplicative inverse on the window [-v, precision - 2v - 1).

        v is the valuation.  Writing self = t**v * u with u a unit power
        series, the inverse is t**-v * u**-1 by the long division
        q_n = -(sum_{i=1..n} u_i q_{n-i}) / u_0, which is the power
        recurrence at k = -1.
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
        nums, den = _power(self.nums[start : start + precision - offset], self.den, -1)
        return LaurentSeries(offset, nums, den)


def _cut(offset: int, end: int, precision: int) -> int:
    """``precision``, where truncating the window [offset, end) to
    O(t**precision) leaves a nonempty window, as ``truncated`` needs."""
    if not offset < precision <= end:
        raise PrecisionExhaustedError(
            f"cannot truncate window [{offset},{end}) to O(t^{precision})"
        )
    return precision


def _normalized(nums: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """The canonical form of the values nums[i]/den: both divided by
    gcd(den, *nums), signed so that den > 0.

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
    return nums, den


# The split of two shortcuts, each taken from this order on.  The first is
# _build_base's route condition: from the split on, and never below order 3,
# the alpha = 1 base is written down (_pascal_reciprocal) rather than
# long-divided from its source series.  The second: two_param_euler_oracle
# reads its one coefficient as a dot product, one of the n + 1 that
# multiplying out the product takes, of the exponential of x/alpha and the
# stored base at alpha = 1 read in place; below the split it multiplies out
# the same two factors, neither dilated.  The Pascal-rule build wins at
# every order in alternating runs on 2-vCPU x86-64 with CPython 3.11.7 (8
# Apostol, Euler and two-parameter bases, best of 5): 1.4x at orders 12 and
# 16, 1.5x at 24 to 64, 1.7x at 80 against the source route, and 2.3x at
# 104, 2.5x at 150, 7.3x at 300 against Miller's division of the source.
# The split stays because perfbench's traced layers expect to see these
# calls: on verify-sweep the bases are the only callers of reciprocal,
# scale and exp_linear, and on sequence-pairs the oracles are the only
# callers of mul.  Lowering it waits on retargeting those layers (ROADMAP
# items 6 and 16).
_EGF_MIN_LENGTH = 104


def _over_lcm(nums: Sequence[int], dens: Sequence[int]) -> tuple[list, int]:
    """The canonical form of the values nums[i]/dens[i], dens > 0.

    Each ratio is reduced and put over the lcm of the reduced
    denominators, which is the canonical denominator: that keeps the
    numerators as small as they can be and leaves no common factor to
    divide out.
    """
    gcds = list(map(math.gcd, nums, dens))
    dens = list(map(operator.floordiv, dens, gcds))
    den = math.lcm(*dens)
    return [x // g * (den // d) for x, g, d in zip(nums, gcds, dens)], den


ZERO = LaurentSeries(0, (), 1)


def _egf_unscaled(ints, den, start: int = 0) -> tuple[list, int]:
    """Numerators over one denominator of the values ints[i] / (k! * den)
    for k = start + i."""
    # With F = (start + L - 1)!, ints[i] / (k! den) == ints[i] * (F / k!) / (F den);
    # ratios holds F / k! from the top k down to k = start.
    top = start + len(ints) - 1
    ratios = list(accumulate(range(top, start, -1), operator.mul, initial=1))
    nums = list(map(operator.mul, ints, reversed(ratios)))
    return nums, ratios[-1] * math.factorial(start) * den


def _recurrence(rows) -> tuple[list, int]:
    """r_0 = 1 and divisor_n r_n = sum_i terms_n[i] r_{n-1-i} for each row
    (terms_n, divisor_n) in turn, n = 1, 2, ..., the sum stopping at r_0:
    numerators over one running denominator, widened whenever a new
    quotient does not fit."""
    nums, den = [1], 1
    for terms, divisor in rows:
        acc = sum(map(operator.mul, terms, reversed(nums)))
        if acc % divisor:
            widen = abs(divisor) // math.gcd(acc, divisor)
            nums = [x * widen for x in nums]
            den *= widen
            acc *= widen
        nums.append(acc // divisor)
    return nums, den


class _PascalRun:
    """A Pascal-rule division of ``_pascal_recurrence`` held between
    calls: the anti-diagonal after its last step, over the running
    denominator ``den``, and ``step``, the number of quotients r_n it has
    given, 0 before it starts.  It holds no quotient."""

    __slots__ = ("diagonal", "den", "step")

    def __init__(self):
        self.diagonal, self.den, self.step = [], 1, 0

    def bits(self) -> int:
        """The ``_charged_bits`` of the diagonal and ``den``, 0 before the
        run starts."""
        return _charged_bits(self.diagonal, self.den) if self.step else 0


def _pascal_recurrence(
    lead: int, weight: int, shift: int, length: int, run: _PascalRun | None = None
) -> tuple[list, int]:
    """r_0 = 1 and C(n+s, s) lead r_n = -weight sum_{j<n} C(n+s, j) r_j for
    n < ``length`` and s = ``shift`` in {0, 1}: numerators over one running
    denominator.  When a quotient does not fit, the denominator widens by
    the factor the quotient needs times |lead|**32, so that nums and the
    diagonal are rescaled at most once per 32 steps for the powers of lead
    a quotient's denominator gathers, where ``_recurrence`` rescales on
    nearly every step.  At s = 0 the divisor is -lead, so the factor needed
    divides |lead| and the denominator holds at most 32 log2|lead| bits
    more than it needs; ``_pascal_reciprocal`` passes lead = 1 at s = 1,
    where the batch is 1.

    The sum is the binomial transform at N = n + s of r_0..r_{n-1}, zeros
    after, kept as one anti-diagonal of its difference table:
    diagonal[m] = sum_i C(m, i) r_{N-m+i} for m = 0..N.  The step from N - 1
    to N puts a zero in front and takes running sums, so the sum is the
    total of the diagonal at N - 1.  Once r_n is known the step is taken
    with it folded in, which adds C(m, s) r_n to entry m: r_n as the front
    entry at s = 0, r_n added to every entry before the running sums at
    s = 1.  A step is O(n) additions and one product by the weight.

    The diagonal and the denominator are all the division needs to go on,
    so ``run`` holds them between calls: a call starts a run that has not
    started, continues one that has from its step, and returns only the
    r_n it computes, from its step to ``length``, over the run's new
    denominator.  Without ``run`` it starts a run of its own and returns
    every r_n.
    """
    if run is None:
        run = _PascalRun()
    nums = []
    if not run.step:
        nums, run.diagonal, run.step = [1], [0] * shift + [1], 1  # N = s, holding r_0
    diagonal, den, first = run.diagonal, run.den, run.step
    batch = abs(lead) ** 32
    for n in range(first, length):
        acc = weight * sum(diagonal)
        divisor = -math.comb(n + shift, shift) * lead
        if acc % divisor:
            widen = abs(divisor) // math.gcd(acc, divisor) * batch
            nums = [x * widen for x in nums]
            diagonal = [x * widen for x in diagonal]
            den *= widen
            acc *= widen
        r = acc // divisor
        nums.append(r)
        if shift:
            diagonal = list(accumulate(map(operator.add, diagonal, repeat(r)), initial=0))
        else:
            diagonal = list(accumulate(diagonal, initial=r))
    run.diagonal, run.den, run.step = diagonal, den, max(first, length)
    return nums, den


def _pascal_reciprocal(mu: Fraction, order: int, run: _PascalRun | None = None) -> LaurentSeries:
    """B_mu = 1/(mu e**t - 1), mu != 0, on the window of the reciprocal of
    its source series of the given order, order >= 3.

    The source has valuation s = [mu == 1].  Its unit u, the source over
    t**s, has u_i = W_i / (i+s)! with W_0 = lead and W_i = mu for i >= 1,
    where lead = mu - 1 at s = 0 and mu = 1 at s = 1: mu e**t - 1 at
    s = 0, (e**t - 1) / t at s = 1.  With 1/u = sum T_n t**n / n!,
    sum_i C(n+s, i+s) W_i T_{n-i} = [n == 0] gives T_0 = 1 / lead and the
    long division of ``_pascal_recurrence`` at the ratio mu / lead for
    T_n / T_0.

    A started ``run`` of B_mu is continued to the order, and the series
    returned holds only its new coefficients, the window after those of
    the build it continues: coefficient k is T_k / k! from the k the run
    stood at.
    """
    shift = int(mu == 1)
    lead = mu - 1 or mu
    ratio = mu / lead
    start = run.step if run is not None else 0
    length = order - 1 - shift
    nums, den = _pascal_recurrence(ratio.denominator, ratio.numerator, shift, length, run)
    scale = 1 / (lead * den)
    nums, den = _egf_unscaled([x * scale.numerator for x in nums], scale.denominator, start)
    return LaurentSeries(start - shift, nums, den)


def _lcm_product(a, da: int, b, db: int, length: int, start: int = 0) -> tuple[list, int]:
    """Coefficients ``start`` to ``length`` - 1 of a*b: numerators over
    da * db."""
    out = []
    for k in range(start, length):
        # a[i] * b[k - i] over the i for which both factors are stored
        lo = max(0, k - len(b) + 1)
        hi = min(k + 1, len(a))
        out.append(sum(map(operator.mul, a[lo:hi], reversed(b[k - hi + 1 : k - lo + 1]))))
    return out, da * db


def _power(unit, unit_den: int, k: int) -> tuple[list, int]:
    """u**k for the unit power series u_i = unit[i] / unit_den, k >= 1 or
    k = -1.

    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): w = u**k has
    w_0 = u_0**k and n u_0 w_n = sum_{i=1..n} ((k+1) i - n) u_i w_{n-i}.
    At k = -1 every weight is -n; dividing it out leaves the long division
    u_0 w_n = -sum_{i=1..n} u_i w_{n-i}.
    """
    # u**k = u_0**k * (U/U_0)**k for the integer series U = unit.
    nums, den = _recurrence(_miller_rows(unit, k))
    scale = Fraction(unit[0], unit_den) ** k / den
    return [x * scale.numerator for x in nums], scale.denominator


def _miller_rows(unit, k: int):
    """The rows n = 1 .. len(unit) - 1 of Miller's recurrence for u**k in
    the form ``_recurrence`` reads, for the integer series U = unit: row n
    holds U_1..U_n, weighted unless k = -1, and the divisor.  The rows are
    those of any multiple of U, as the recurrence reads only U_i / U_0."""
    lead, tail = unit[0], unit[1:]
    if k == -1:
        return repeat((tail, -lead), len(tail))
    return (
        (map(operator.mul, range(k + 1 - n, k * n + 1, k + 1), tail), n * lead)
        for n in range(1, len(unit))
    )


def linear_combination(
    terms: Sequence[LaurentSeries], weights: Sequence[Scalar], *, length: int | None = None
) -> LaurentSeries:
    """sum(w * s for s, w in zip(terms, weights)) with the add rules, its
    window cut to ``length`` coefficients when given.

    ``terms`` and ``weights`` have the same length.  A zero weight or the
    exact zero term drops out, as ``scale(0)`` gives the exact zero;
    nothing left gives ZERO, whatever ``length``.  The window runs from the
    least offset to the least precision of the terms that stay, or to
    ``length`` coefficients from that offset; the result is the uncut sum's
    ``truncated(offset + length)``, error included.  Each term's numerators
    below the cut are put over one common denominator, summed as integers
    and normalized once.
    """
    if len(terms) != len(weights):
        raise DomainError(f"{len(terms)} terms but {len(weights)} weights")
    kept = []
    for term, weight in zip(terms, weights):
        if not isinstance(weight, (int, Fraction)):
            weight = Fraction(weight)
        if weight and not term.is_zero:
            kept.append((term, weight))
    if not kept:
        return ZERO
    offset = min(term.offset for term, _ in kept)
    precision = min(term.precision for term, _ in kept)
    if length is not None:
        precision = _cut(offset, precision, offset + length)
    den = math.lcm(*[weight.denominator * term.den for term, weight in kept])
    out = [0] * (precision - offset)
    for term, weight in kept:
        factor = weight.numerator * (den // (weight.denominator * term.den))
        nums = term.nums[: max(0, precision - term.offset)]
        lo = term.offset - offset
        hi = lo + len(nums)
        out[lo:hi] = map(operator.add, out[lo:hi], map(operator.mul, nums, repeat(factor)))
    return LaurentSeries(offset, out, den)


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
    return LaurentSeries(0, nums, den)


def _source_reciprocal(lam: Fraction, c: Fraction, order: int) -> LaurentSeries:
    """1/(lam e**t + c) as the reciprocal of its source series."""
    source = exp_linear(1, order).scale(lam)
    return (source + LaurentSeries.constant(c, order)).reciprocal()


def _dilated(r: LaurentSeries, alpha: Fraction) -> LaurentSeries:
    """r(alpha t) for alpha != 0: coefficient e times alpha**e.  The window
    is r's, and r itself comes back at alpha = 1."""
    if alpha == 1:
        return r
    # With i = e - offset, top = len - 1 and first = alpha**offset,
    # r_e alpha**e is nums[i] * first * a**i * b**(top-i) over den * b**top.
    a, b = alpha.numerator, alpha.denominator
    first = alpha**r.offset
    top = len(r.nums) - 1
    b_powers = accumulate(repeat(b, top), operator.mul, initial=1)
    a_powers = accumulate(repeat(a, top), operator.mul, initial=first.numerator)
    nums = map(operator.mul, reversed(r.nums), b_powers)  # from i = top down
    nums = map(operator.mul, reversed(list(nums)), a_powers)
    return LaurentSeries(r.offset, list(nums), r.den * first.denominator * b**top)


def _build_base(mu: Fraction, order: int, run: _PascalRun | None = None) -> LaurentSeries:
    """B_mu = 1/(mu e**t - 1) on the window of the reciprocal of its source
    series of the given order: the one builder of every base at alpha = 1,
    by the rule of the module docstring.  At mu = 0 the source is the
    constant -1.

    ``run`` is the Pascal run a ladder holds for B_mu.  A Pascal-rule build
    starts it; once started it is continued to ``order``, and the build is
    then only the coefficients after those the run gave before."""
    if run is not None and run.step:
        return _pascal_reciprocal(mu, order, run)
    # Pascal's rule needs order >= 3, whatever the split is set to.
    if not mu or order < 3 or order < _EGF_MIN_LENGTH:
        return _source_reciprocal(mu, -1, order)
    return _pascal_reciprocal(mu, order, run)


def _charged_bits(ints: Sequence[int], den: int) -> int:
    """About the memory a list of ints and a denominator take in
    ``_LADDERS``, in bits: their bits, 320 more an int (the 40 bytes of a
    small int and its list or tuple slot) and 8,192 for the key, the
    object and the slots that hold them."""
    return sum(map(int.bit_length, ints)) + den.bit_length() + 320 * len(ints) + 8192


def _stored_bits(r: LaurentSeries) -> int:
    """The ``_charged_bits`` of the numerators and denominator of r."""
    return _charged_bits(r.nums, r.den)


class _Ladder:
    """The ladder of one base B_mu = 1/(mu e**t - 1), built from ``mu``, a
    Fraction, and kept under the ``_key`` of mu.  It holds
    powers base**1, base**2, ... as a chain of products, derivatives base,
    base', ... and single powers base**k by Miller's recurrence.  The base
    is built at source order ``order`` or longer; each other entry is built
    when first read, at the order of that read.  ``_run`` is the Pascal
    run of the base, started by its first build from the split on; a
    longer order grows the base by continuing it, where a base with no
    run started is built again (``grow``).  A longer read grows a
    product in place and builds a derivative again, each to the
    ``_reach`` of the entry, and builds a Miller power again at the
    read's order (module docstring).  A read at an order returns each
    entry as it is held, at that order or longer: its coefficients below
    ``length(order)`` are those of a build at the order, and ``at`` cuts
    it there.  ``sums`` holds the right side of each identity check that
    has read this ladder as its right base, keyed on (tag, k, order), with
    alpha after them only on a G check whose spec's powers of alpha and
    the chain rule's do not cancel (``identities``): the weighted sum at
    the check's order, constant included, and the end of its compared
    window.  ``bits`` is the ``_stored_bits`` of its distinct entries, sums
    included, plus the ``bits`` of the run; ``_kept`` counts each entry
    there and charges the store that built the ladder, if one did."""

    def __init__(self, mu: Scalar, order: int, store: _Ladders | None = None):
        self.mu = Fraction(mu)
        self._store = store
        self._run = _PascalRun()
        self.base = _build_base(self.mu, order, self._run)
        self.bits = _stored_bits(self.base) + self._run.bits()
        self._powers = [self.base]
        self._derivatives = [self.base]
        self._miller = {1: self.base}
        self.sums: dict = {}

    def length(self, order: int) -> int:
        """The coefficients every entry holds at source order ``order``."""
        return order + self.base.offset - 1

    def at(self, entry: LaurentSeries, order: int) -> LaurentSeries:
        """entry as a build at source order ``order`` gives it."""
        return entry.truncated(entry.offset + self.length(order))

    def _kept(self, entry: LaurentSeries, old: LaurentSeries | None = None) -> LaurentSeries:
        """entry, counted in ``bits`` as an entry of this ladder in place
        of ``old``, with the store that built the ladder, if one did,
        charged the new count."""
        self.bits += _stored_bits(entry) - (0 if old is None else _stored_bits(old))
        if self._store is not None:
            self._store.charge(_key(self.mu), self)
        return entry

    def grow(self, order: int) -> None:
        """Grow the base to ``order`` if a build there is longer: by the new
        coefficients of its Pascal run once the ladder holds one, else by
        ``_build_base`` again, which starts the run from the split on."""
        if len(self.base.nums) < self.length(order):
            run = self._run
            held, bits = run.step, run.bits()
            base = _build_base(self.mu, order, run)
            if held:
                base = _grown(self.base, base.nums, base.den)
            self.bits += run.bits() - bits
            base = self._kept(base, self.base)
            self.base = self._powers[0] = self._derivatives[0] = self._miller[1] = base

    def _reach(self, entry: LaurentSeries, source: LaurentSeries, length: int) -> int:
        """The length entry grows to when a read needs ``length``: twice
        its own or more, as far as ``source``, its input, holds, so that
        reads at rising orders grow it a few times only."""
        return min(len(source.nums), max(length, 2 * len(entry.nums)))

    def powers(self, count: int, order: int) -> list:
        """[base**1, ..., base**count] grown to ``order``, each the product
        of the one before and base, continued in place."""
        length = self.length(order)
        entries, base = self._powers, self.base
        for m in range(1, count):
            before = entries[m - 1]
            if m == len(entries):
                entries.append(self._kept(before * self.at(base, order)))
            elif len(entries[m].nums) < length:
                entry = entries[m]
                reach = self._reach(entry, before, length)
                tail = _lcm_product(before.nums, before.den, base.nums, base.den, reach, len(entry.nums))
                entries[m] = self._kept(_grown(entry, *tail), entry)
        return entries[:count]

    def derivatives(self, count: int, order: int) -> list:
        """[base, base', ..., base^(count-1)] grown to ``order``, a short
        one built again from the one before, to its ``_reach``."""
        length = self.length(order)
        entries = self._derivatives
        for j in range(1, count):
            before = entries[j - 1]
            if j == len(entries):
                entries.append(self._kept(self.at(before, order).derivative()))
            elif len(entries[j].nums) < length:
                stop = self._reach(entries[j], before, length)
                entries[j] = self._kept(before.truncated(before.offset + stop).derivative(), entries[j])
        return entries[:count]

    def power(self, k: int, order: int) -> LaurentSeries:
        """base**k for k >= 1 at ``order`` or longer: one pass of Miller's
        recurrence by ``__pow__``, apart from the product chain of
        ``powers``, built again when a longer read comes."""
        entry = self._miller.get(k)
        if entry is None or len(entry.nums) < self.length(order):
            entry = self._miller[k] = self._kept(self.at(self.base, order) ** k, entry)
        return entry

    def keep_sum(self, key: tuple, rhs: LaurentSeries, hi: int) -> None:
        """Hold (rhs, hi) in ``sums`` under key, charged as an entry."""
        self.sums[key] = (self._kept(rhs), hi)


def _grown(entry: LaurentSeries, nums: Sequence[int], den: int) -> LaurentSeries:
    """entry with the values nums[i] / den after its window.  Both parts
    are canonical before they meet, so the lcm of their denominators is
    the canonical one."""
    nums, den = _normalized(nums, den)
    common = math.lcm(entry.den, den)
    head = map(operator.mul, entry.nums, repeat(common // entry.den))
    return LaurentSeries(entry.offset, [*head, *map(operator.mul, nums, repeat(common // den))], common)


def _key(mu: Scalar) -> tuple[int, int]:
    """The store key of the ladder of B_mu = 1/(mu e**t - 1): the two
    integers of mu, an int or a Fraction."""
    return mu.numerator, mu.denominator


class _Ladders:
    """The bounded store of ladders, ``_LADDERS``: see the module docstring.
    It keeps and charges each ladder under the ``_key`` of its mu, and
    each entry of the reduction checks under its own key."""

    def __init__(self, budget: int):
        self.budget = budget
        self.bits = 0
        # key -> (ladder, its charge), least recent first
        self._entries: dict = {}
        self._live: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def ladder(self, mu: Scalar, order: int) -> _Ladder:
        """The ladder of the base B_mu = 1/(mu e**t - 1), its base built at
        ``order`` or longer; at mu = 0 and at orders 1 and 2 it is built at
        ``order`` and not stored (module docstring)."""
        if order < 3 or not mu:
            return _Ladder(mu, order)
        key = _key(mu)
        entry = self._entries.get(key)
        ladder = entry[0] if entry else self._live.get(key)
        if ladder is None:
            ladder = self._live[key] = _Ladder(mu, order, self)
        else:
            ladder.grow(order)
        self.keep(key, ladder)
        return ladder

    def get(self, key: tuple):
        """The entry kept under key, made the most recent, else None."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return None
        self._entries[key] = entry
        return entry[0]

    def keep(self, key: tuple, ladder) -> None:
        """Store ladder, or any entry with ``bits``, under key as the most
        recent entry, in place of the key's old entry, charged its bits if
        they fit in the budget."""
        entries = self._entries
        entry = entries.pop(key, None)
        if entry is not None:
            self.bits -= entry[1]
        if ladder.bits <= self.budget:
            while self.bits + ladder.bits > self.budget:
                self.bits -= entries.pop(next(iter(entries)))[1]
            entries[key] = (ladder, ladder.bits)
            self.bits += ladder.bits

    def charge(self, key: tuple, ladder: _Ladder) -> None:
        """Keep ladder, which has grown, charged its new bits, if the store
        holds it; a ladder the store no longer holds is not charged."""
        entry = self._entries.get(key)
        if entry is not None and entry[0] is ladder:
            self.keep(key, ladder)


# The one store of ladders, bounded as the module docstring describes.
_LADDERS = _Ladders(1 << 25)


def recip_exp_linear(alpha: Scalar, lam: Scalar, c: Scalar, order: int) -> LaurentSeries:
    """1/(lam*e**(alpha t) + c) on the window the reciprocal of the source
    series of the given order has.

    1/(e**t - 1) is (1, 1, -1), 1/(1 - e**(-t)) is (-1, -1, 1), 1/(e**t + 1)
    is (1, 1, 1).  The public entry point to every base: for c != 0 it is
    the stored B_mu, mu = -lam/c, cut to the order, scaled by -1/c unless
    c = -1 and dilated by alpha.  At c = 0 it is (1/lam) e**(-alpha t),
    written down by ``exp_linear`` and dilated, unstored; at orders 1 and
    below, and at a constant source whose lam + c is 0, it is its source's
    reciprocal, built unstored, which raises the build's error.  How
    ``_build_base`` builds B_mu and how the store keeps it are in the
    module docstring.
    """
    alpha, lam, c = Fraction(alpha), Fraction(lam), Fraction(c)
    if not (alpha and lam):
        alpha, lam, c = Fraction(1), Fraction(0), lam + c
    if not c:
        # 1/(lam e**t) is (1/lam) e**(-t) on the reciprocal's window
        # [0, order - 1).  Where that window is empty, and for the constant
        # source 0, the source's reciprocal raises the build's error.
        if not lam or order < 2:
            return _source_reciprocal(lam, c, order)
        return _dilated(exp_linear(-1, order - 1).scale(1 / lam), alpha)
    base = _stored_base(-lam / c, order)
    # A build at ``order`` holds order + offset - 1 coefficients.
    base = base.truncated(2 * base.offset + order - 1)
    return _dilated(base if c == -1 else base.scale(-1 / c), alpha)


def _stored_base(mu: Fraction, order: int) -> LaurentSeries:
    """B_mu = 1/(mu e**t - 1), the base at alpha = 1, built at source order
    ``order`` or longer: the store's own series, which a caller reads in
    place and never changes, or an unstored build where ``_Ladders.ladder``
    stores none."""
    return _LADDERS.ladder(mu, order).base
