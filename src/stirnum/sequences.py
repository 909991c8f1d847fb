"""Number and polynomial families computed two independent ways.

Every family here has a closed form built from Stirling numbers and an
oracle that reads the same value out of a truncated generating series.
Beyond the Stirling table, the Euler routes share two helpers, neither
of which computes a coefficient: ``series._normalized``, which divides a
numerator list and its denominator by their gcd for every ``Polynomial``
the closed forms build and for the series kernel alike, and
``_check_two_param``, the domain check of both two-parameter routes; a
test records the functions each route runs and holds them to that list.
So exact agreement between the routes is a meaningful check and is
enforced by the test suite rather than by collapsing one route into the
other.

Families and their exponential generating functions:

    bernoulli            t / (e**t - 1)
    apostol_bernoulli    t / (lam * e**t - 1)
    euler_polynomial     2 e**(x t) / (e**t + 1)
    euler_number         2**n * E_n(1/2)
    two_param_euler      2 e**(x t) / (lam * e**(alpha t) + 1)

Each generating series is built in one place.  The Bernoulli oracle is
the Apostol-Bernoulli oracle at lam = 1, and the Euler-polynomial oracle
is the two-parameter oracle at alpha = lam = 1.  Each oracle asks for its
base at the least order whose window holds t**n: n + 3 for the
Apostol-Bernoulli series t/(lam e**t - 1) (at lam = 1 the reciprocal has
valuation 1, so the window after the shift by t is [0, order - 2)) and
n + 2 for the two-parameter oracle (at lam != -1 the reciprocal's window
is [0, order - 1)).  Every oracle reads its base at alpha = 1 off the
store of bases that ``series`` describes, through ``series._stored_base``,
built at that order or longer, as a member of its one family
B_mu = 1/(mu e**t - 1), and no oracle dilates or scales it.  The
Apostol-Bernoulli oracle reads B_lam, and the one coefficient it needs
in place.  The two-parameter oracle reads B_(-lam), as
1/(lam e**t + 1) = -B_(-lam), and folds alpha and the sign -1 into its
scalar: e**(x t) B(alpha t) = e**((x/alpha) s) B(s) at s = alpha t, so
that coefficient n is -alpha**n times that of the product with
B_(-lam).  From
order ``series._EGF_MIN_LENGTH`` on it reads that coefficient as one dot
product of the exponential's numerators and the stored ones, in place;
below that order it multiplies the product out, the base cut to its
order.

The closed forms run on integers where the series kernel does: the
alternating Stirling sum at rho = p/q is one integer over q**j, each Euler
and two-parameter Euler polynomial is built as the integer numerators over
one denominator that ``Polynomial`` stores, ``Polynomial.evaluate`` runs
Horner on those numerators, the reduction checks read each (n, lam) as
one integer row and compare cross-multiplied integers built from it (see
``two_param_reduction_sweep``), the even-index Euler sum and
``stirling_alternating_sum`` are one integer over a power of two, and
``bernoulli_formula`` sums integers over the lcm of a row of Pascal's
triangle.  Each builds one ``Fraction`` per value it returns.

``sequence_value`` is the one entry point to all five families; the
command line reaches every family through it.  One table names each
family's parameters, in record order, and its two routes; ``FAMILIES``
maps each family to those parameters, and both ``sequence_value`` and
the command line read it.

The named checks of ``verify`` run here too: the two-parameter reductions
over an (alpha, lambda) grid, the first-kind determinant relation and the
vanishing alternating sum, each returning (*fields, passed) tuples that
the check table of ``identities`` turns into ``verify`` rows.  The
reductions keep what they build in the store of ladders,
``series._LADDERS``, one entry per (n, lambda), as the identity checks
keep both their sides there: a repeated sweep builds nothing and only
compares (``two_param_reduction_sweep``).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

from . import series
from .errors import ConsistencyError, DomainError, PoleError
from .rationals import format_rational
from .series import (
    _EGF_MIN_LENGTH,
    LaurentSeries,
    _charged_bits,
    _normalized,
    _over_lcm,
    _stored_base,
    _Value,
    exp_linear,
    recip_exp_linear,
)
from .stirling import _SECOND, stirling2, verify_first_kind_determinant_relation

__all__ = [
    "Polynomial",
    "SequenceValue",
    "FAMILIES",
    "sequence_value",
    "bernoulli_oracle",
    "bernoulli_formula",
    "apostol_bernoulli_formula",
    "apostol_bernoulli_oracle",
    "apostol_bernoulli_series",
    "euler_polynomial_formula",
    "euler_polynomial_oracle",
    "euler_number",
    "stirling_alternating_sum",
    "two_param_euler_formula",
    "two_param_euler_oracle",
    "verify_two_param_reductions",
    "REDUCTION_ALPHAS",
    "REDUCTION_LAMBDAS",
    "two_param_reduction_sweep",
    "determinant_relation_checks",
    "alternating_sum_checks",
]

Scalar = int | Fraction


class Polynomial(_Value):
    """Univariate polynomial over exact rationals; coeffs[i] multiplies x**i.

    Stored as integer numerators over one denominator, coeffs[i] ==
    nums[i] / den, in the canonical form den > 0, gcd(den, *nums) == 1
    and no trailing zero numerator; construction puts (nums, den) in that
    form.  So equal polynomials have equal (nums, den), and equality and
    hashing compare those.  The zero polynomial is ((), 1) with degree -1.
    ``coeffs``, the tuple of reduced Fractions, is built on first read.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, nums: Sequence[int], den: int = 1):
        if not den:
            raise DomainError("a polynomial needs a nonzero denominator")
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        nums, den = _normalized(nums, den)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def from_coeffs(cls, values: Iterable[Scalar]) -> "Polynomial":
        """The polynomial with these coefficients; the Fractions given are
        kept as its ``coeffs``."""
        vals = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
        while vals and not vals[-1]:
            vals.pop()
        poly = cls(*_over_lcm([c.numerator for c in vals], [c.denominator for c in vals]))
        object.__setattr__(poly, "_coeffs", tuple(vals))
        return poly

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built on first read."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(Fraction(x, self.den) for x in self.nums))
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def evaluate(self, point: Scalar) -> Fraction:
        """The value at ``point``, reduced once."""
        return Fraction(*self._value(Fraction(point)))

    def _value(self, point: Fraction) -> tuple[int, int]:
        """Horner on the numerators: with point = u/v and degree d, the value
        is sum_i nums[i] u**i v**(d-i) over den * v**d, unreduced."""
        if not self.nums:
            return 0, 1
        u, v = point.numerator, point.denominator
        acc = self.nums[-1]
        v_power = 1  # v**(d-i) at coefficient i
        for c in reversed(self.nums[:-1]):
            v_power *= v
            acc = acc * u + c * v_power
        return acc, self.den * v_power


@lru_cache(maxsize=4096)
def _geometric_stirling_sum(j: int, p: int, q: int) -> Fraction:
    """sum_{m=1..j} (-1)**(m-1) (m-1)! S(j, m) rho**m at rho = p/q.

    The sum is evaluated as a nested Horner scheme from m = j down,
    g = rho (S(j,1) - 1 rho (S(j,2) - 2 rho (... - (j-1) rho S(j,j)))),
    so each factor (m-1)! enters as one multiplier m at a time and no
    weight (m-1)! p**m is ever built.  On integers the accumulator
    at m is acc_m = S(j, m) q**(j-m) - m p acc_(m+1), starting from
    acc_j = S(j, j), and g = p acc_1 / q**j: each step is one product of
    S(j, m) with a running power of q plus one small multiply, and the sum
    is divided by q**j once.  j = 0 is the empty sum.  The cache is
    bounded and keyed on ints, which hash far faster than a ``Fraction``;
    callers pass rho in lowest terms with q > 0.  It holds a few rhos
    times every j up to ~300.  Row j of the Stirling table is read once,
    not looked up term by term.

    The cache holds 4,096 entries.  The value, the same whatever the
    evaluation order, has the denominator q**j and a numerator of at most
    j * log2(j * max(|p|, q)) bits, since the sum of (m-1)! S(j, m) is at
    most j**j.  Each acc_m is the signed sum over i >= m of
    (i-1)!/(m-1)! S(j, i) p**(i-m) q**(j-i), so it stays inside the same
    bound.  At j <= 300 and the rhos of the package a value has under
    2,600 bits and 450 bytes, so with the cache's own links about 2.5 MB
    in all.  A long literal p or q (a two-parameter lambda) is held j
    times over in that value, and once in the key.
    """
    if not j:
        return Fraction(0)
    row = _SECOND.row(j)
    acc = row[j]
    q_power = 1  # q**(j-m) at term m
    for m in range(j - 1, 0, -1):
        q_power *= q
        acc = row[m] * q_power - m * p * acc
    return Fraction(p * acc, q**j)


def _half_weight_sum(m: int) -> Fraction:
    """sum_{k=0..m} w(m-k+1) (-1)**k 2**-k C(m, k), where
    w(j) = sum_{l=1..j} (-1)**(l-1) (l-1)!/2**(l-1) S(j, l) = 2 g(j) and
    g(j) is the alternating Stirling sum at rho = 1/2.

    g(j) has a power-of-two denominator dividing 2**j, so every term is an
    integer over 2**(m+1); the sum runs on ints and is reduced once.
    """
    top = 1 << (m + 1)
    total = 0
    for k in range(m + 1):
        g = _geometric_stirling_sum(m - k + 1, 1, 2)
        term = 2 * math.comb(m, k) * g.numerator * (top // (g.denominator << k))
        total += -term if k & 1 else term
    return Fraction(total, top)


# -- Bernoulli ------------------------------------------------------------


def bernoulli_oracle(n: int) -> Fraction:
    """B_n as n! times the t**n coefficient of t/(e**t - 1), order n + 3:
    the Apostol-Bernoulli oracle at lam = 1."""
    if n < 0:
        raise DomainError(f"Bernoulli numbers need n >= 0, got {n}")
    return apostol_bernoulli_oracle(n, 1)


def bernoulli_formula(k: int) -> Fraction:
    """B_{2k} for k >= 1 from the double Stirling-number sum.

    B_{2k} = 1 + sum_{m=1..2k-1} S(2k+1, m+1) S(2k, 2k-m) / C(2k, m)
               - (2k/(2k+1)) * sum_{m=1..2k} S(2k, m) S(2k+1, 2k-m+1) / C(2k, m-1)
    """
    if k < 1:
        raise DomainError(f"the even-index closed form needs k >= 1, got {k}")
    n = 2 * k
    # Every C(n, m) divides L = lcm(1..n+1)/(n+1), the lcm of row n of
    # Pascal's triangle, so both sums are integers over L.
    row_lcm = math.lcm(*range(1, n + 2)) // (n + 1)
    shares = [row_lcm // math.comb(n, m) for m in range(n + 1)]  # L / C(n, m)
    first = sum(
        stirling2(n + 1, m + 1) * stirling2(n, n - m) * shares[m] for m in range(1, n)
    )
    second = sum(
        stirling2(n, m) * stirling2(n + 1, n - m + 1) * shares[m - 1] for m in range(1, n + 1)
    )
    return Fraction((n + 1) * (row_lcm + first) - n * second, (n + 1) * row_lcm)


# -- Apostol-Bernoulli ----------------------------------------------------


def apostol_bernoulli_formula(n: int, lam: Scalar) -> Fraction:
    """B_n(lam) for n >= 1 from the single Stirling-number sum.

    B_n(lam) = (-1)**(n-1) n sum_{k=1..n} (k-1)!/(lam-1)**k S(n, k).
    The n = 0 value is not covered by this form; use the oracle.  lam
    must be nonzero, the same domain as ``apostol_bernoulli_series``.
    """
    lam = Fraction(lam)
    if n < 1:
        raise DomainError(f"the closed form needs n >= 1, got {n}; use the oracle")
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    if lam == 1:
        raise PoleError("lambda = 1 is a pole of the closed form")
    # sum_k (k-1)! S(n, k) / (lam-1)**k is minus the alternating sum at
    # rho = 1/(1-lam).  Called uncached: lam ranges freely here.
    rho = 1 / (1 - lam)
    return (-1) ** n * n * _geometric_stirling_sum.__wrapped__(
        n, rho.numerator, rho.denominator
    )


def apostol_bernoulli_series(lam: Scalar, order: int) -> LaurentSeries:
    """t/(lam*e**t - 1), long-divided from the source series of the given order."""
    lam = Fraction(lam)
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    return recip_exp_linear(1, lam, -1, order).shift(1)


def apostol_bernoulli_oracle(n: int, lam: Scalar) -> Fraction:
    """B_n(lam) as n! times the t**n coefficient of t/(lam*e**t - 1), order n + 3.

    That coefficient is coefficient n - 1 of the base 1/(lam e**t - 1),
    B_lam, read in place off the stored base, built at order n + 3 or
    longer: no series is truncated or shifted for it.  It is 0 below the
    base's window, as at n = 0 with lam != 1, where the window starts at 0.
    """
    if n < 0:
        raise DomainError(f"Apostol-Bernoulli numbers need n >= 0, got {n}")
    lam = Fraction(lam)
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    base = _stored_base(lam, n + 3)
    i = n - 1 - base.offset
    if i < 0:
        return Fraction(0)
    return Fraction(base.nums[i] * math.factorial(n), base.den)


# -- Euler polynomials and numbers ----------------------------------------


def euler_polynomial_formula(n: int) -> Polynomial:
    """E_n(x) with coefficient of x**k equal to

    (-1)**(n-k) C(n, k) sum_{l=1..n-k+1} (-1)**(l-1) (l-1)!/2**(l-1) S(n-k+1, l).
    """
    if n < 0:
        raise DomainError(f"Euler polynomials need n >= 0, got {n}")
    sums = [_geometric_stirling_sum(n - k + 1, 1, 2) for k in range(n + 1)]
    nums = [(-1) ** (n - k) * 2 * math.comb(n, k) * g.numerator for k, g in enumerate(sums)]
    return Polynomial(*_over_lcm(nums, [g.denominator for g in sums]))


def euler_polynomial_oracle(n: int, x: Scalar) -> Fraction:
    """E_n(x) = E_n(x; 1, 1), read from 2 e**(x t)/(e**t + 1)."""
    if n < 0:
        raise DomainError(f"Euler polynomials need n >= 0, got {n}")
    return two_param_euler_oracle(n, x, 1, 1)


def _euler_even_direct(n: int) -> Fraction:
    # E_n for even n = 4**(n/2) sum_{k=0..n} w(n-k+1) (-1)**k 2**-k C(n, k)
    # with w the alternating half-power Stirling weight.
    return 4 ** (n // 2) * _half_weight_sum(n)


def euler_number(n: int) -> Fraction:
    """E_n = 2**n E_n(1/2), always an integer-valued rational.

    For even n the independent single-sum form is evaluated as well; a
    mismatch between the two routes raises rather than returning either.
    """
    if n < 0:
        raise DomainError(f"Euler numbers need n >= 0, got {n}")
    value = Fraction(2) ** n * euler_polynomial_formula(n).evaluate(Fraction(1, 2))
    if n % 2 == 0:
        direct = _euler_even_direct(n)
        if direct != value:
            raise ConsistencyError(
                f"euler_number({n}): half-point route {value} != even-index route {direct}"
            )
    if value.denominator != 1:
        raise ConsistencyError(f"euler_number({n}) came out non-integral: {value}")
    return value


def stirling_alternating_sum(n: int) -> Fraction:
    """sum_{k=0..2n-1} w(2n-k) (-1)**k 2**-k C(2n-1, k) for n >= 1.

    w is the alternating half-power Stirling weight; the sum telescopes to
    zero because odd-index Euler numbers vanish.
    """
    if n < 1:
        raise DomainError(f"the alternating sum needs n >= 1, got {n}")
    return _half_weight_sum(2 * n - 1)


# -- Two-parameter Euler ---------------------------------------------------


def _check_two_param(alpha: Fraction, lam: Fraction) -> None:
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    if lam == -1:
        raise PoleError("lambda = -1 is a pole of the two-parameter family")


def two_param_euler_formula(n: int, alpha: Scalar, lam: Scalar) -> Polynomial:
    """E_n(x; alpha, lam) with coefficient of x**k equal to

    2 (-alpha)**(n-k) C(n, k)
        sum_{m=1..n-k+1} (-1)**(m-1) (m-1)! S(n-k+1, m) (1/(lam+1))**m.
    """
    alpha, lam = Fraction(alpha), Fraction(lam)
    if n < 0:
        raise DomainError(f"the two-parameter family needs n >= 0, got {n}")
    _check_two_param(alpha, lam)
    return _two_param_poly(n, alpha.numerator, alpha.denominator, _two_param_row(n, lam))


def _two_param_row(n: int, lam: Fraction) -> tuple[tuple[int, ...], int]:
    """The row of (n, lam), the part of E_n(x; alpha, lam) that alpha does
    not touch: integers r_k over one denominator L, the lcm of the sums'
    denominators, with r_k / L = 2 C(n, k) g(n-k+1) and g the alternating
    Stirling sum at rho = 1/(lam + 1).  Coefficient k of E_n(x; a/b, lam)
    is r_k (-a/b)**(n-k) / L.
    """
    # For lam = c/d, rho = d/(c + d) is already in lowest terms.
    p, q = lam.denominator, lam.numerator + lam.denominator
    if q < 0:
        p, q = -p, -q
    sums = [_geometric_stirling_sum(n - k + 1, p, q) for k in range(n + 1)]
    den = math.lcm(*[g.denominator for g in sums])
    nums = tuple(
        2 * math.comb(n, k) * g.numerator * (den // g.denominator) for k, g in enumerate(sums)
    )
    return nums, den


def _two_param_poly(n: int, a: int, b: int, row) -> Polynomial:
    """E_n(x; a/b, lam) from the row of lam: numerator k is
    r_k (-a)**(n-k) b**k over L b**n."""
    nums, den = row
    scaled = list(nums)
    power = 1  # (-a)**(n-k)
    for k in range(n, -1, -1):
        scaled[k] *= power
        power *= -a
    if b != 1:
        power = 1  # b**k
        for k in range(n + 1):
            scaled[k] *= power
            power *= b
    return Polynomial(scaled, den * b**n)


def _two_param_pivot(n: int, a: int, b: int, row) -> tuple[int, int]:
    """E_n(1; a/b, lam) from the row of lam, unreduced: Horner on
    sum_k r_k (-a)**(n-k) b**k over L b**n, with no polynomial built."""
    nums, den = row
    acc = nums[0]
    power = 1  # b**k
    for r in nums[1:]:
        power *= b
        acc = acc * -a + r * power
    return acc, den * power


def two_param_euler_oracle(n: int, x: Scalar, alpha: Scalar, lam: Scalar) -> Fraction:
    """E_n(x; alpha, lam) as n! times the t**n coefficient of
    2 e**(x t) / (lam e**(alpha t) + 1), order n + 2.

    alpha is folded into the exponential, [t**n] e**(x t) B(alpha t) =
    alpha**n [s**n] e**((x/alpha) s) B(s), and B = 1/(lam e**t + 1) is
    -B_(-lam), so the oracle reads the stored base r = B_(-lam) at
    alpha = 1, built at order n + 2 or longer, undilated and unscaled,
    with e the exponential of x/alpha, and takes -alpha**n as its scalar.
    At lam != -1 both windows start at 0, so the coefficient is
    sum_{i<=n} e_i r_{n-i}.  Below order
    ``_EGF_MIN_LENGTH`` it is read out of the multiplied-out product of e
    and r cut to order n + 2, whose integers are those of a build there,
    not the longer ones a longer stored base holds; from that order on it
    is one dot product of e's numerators and the stored ones, read in
    place, over e.den * r.den.
    """
    alpha, lam = Fraction(alpha), Fraction(lam)
    if n < 0:
        raise DomainError(f"the two-parameter family needs n >= 0, got {n}")
    _check_two_param(alpha, lam)
    order = n + 2
    e, r = exp_linear(Fraction(x) / alpha, order), _stored_base(-lam, order)
    power = -alpha**n
    if order < _EGF_MIN_LENGTH:
        return 2 * (e * r.truncated(order - 1)).coeff(n) * math.factorial(n) * power
    dot = sum(map(operator.mul, e.nums[: n + 1], reversed(r.nums[: n + 1])))
    return Fraction(2 * math.factorial(n) * dot * power.numerator, e.den * r.den * power.denominator)


REDUCTION_ALPHAS = (Fraction(1), Fraction(2), Fraction(-1, 2))
REDUCTION_LAMBDAS = (Fraction(1), Fraction(3), Fraction(1, 4))
# Nonzero sample nodes of the pointwise reduction.  At x = 1 it reads
# E_n(1; alpha, lam) == E_n(1; alpha, lam), so that node checks nothing.
_REDUCTION_NODES = (Fraction(-1, 3), Fraction(5, 2))


def verify_two_param_reductions(n: int, alpha: Scalar, lam: Scalar) -> bool:
    """Check the reduction identities of the two-parameter family at (n, alpha, lam).

    Exact polynomial identities:
        E_n(x; 1, 1) == E_n(x)
        E_n(x; alpha, lam) == alpha**n E_n(x/alpha; 1, lam)  (coefficientwise)
    Pointwise, at the nonzero sample nodes x = -1/3 and 5/2:
        E_n(x; alpha, lam) == x**n E_n(1; alpha/x, lam)

    It runs the per-n routine of ``two_param_reduction_sweep`` on the
    one-point grid.
    """
    alpha, lam = Fraction(alpha), Fraction(lam)
    if n < 0:
        raise DomainError(f"the two-parameter family needs n >= 0, got {n}")
    _check_two_param(alpha, lam)
    return _reductions_at(n, [alpha], [lam])[0]


def two_param_reduction_sweep(
    k_max: int,
    alphas: Sequence[Scalar] | None = None,
    lambdas: Sequence[Scalar] | None = None,
) -> list[tuple[int, Fraction, Fraction, bool]]:
    """(n, alpha, lam, passed) of ``verify_two_param_reductions`` for
    n = 0..k_max over the grid of alphas x lambdas (defaults
    REDUCTION_ALPHAS / REDUCTION_LAMBDAS for None; an empty grid has no
    points), n ascending, then (alpha, lam) ascending.

    Each n builds E_n(x) once and one row per lambda (``_two_param_row``,
    the part of the closed form that alpha does not touch).  Each grid
    point and each rescale's unit side is one polynomial built from its
    row, the build that ``two_param_euler_formula`` runs too, and each
    pointwise pivot E_n(1; alpha/x, lam) is one integer Horner sum over
    the row, with no polynomial built; so a fault in the build shows as
    a pivot mismatch.
    The grid is checked before any n, point by point in order, so a bad
    point raises the error the first call of
    ``verify_two_param_reductions`` on it would.

    What is built is kept in the store of ladders, ``series._LADDERS``,
    one ``_Builds`` entry per (n, lambda): the row, the polynomial of
    each alpha read, the pivot sums of each alpha read at a grid point
    and, at lambda = 1, E_n(x).  Each call reads the entries of its
    (n, lambda), builds only what they lack and runs every comparison
    again: E_n(x; 1, 1) == E_n(x), the rescale loop at alpha != 1, the
    value of the grid point's polynomial at each node and the
    cross-multiplied equalities.  No verdict is kept, so a repeated sweep
    only compares.
    Entries are charged by ``series._charged_bits`` and leave the store
    as ladders do, least recent first; on a store that keeps nothing a
    call still builds each item once per n.
    """
    alpha_grid = sorted(Fraction(a) for a in (REDUCTION_ALPHAS if alphas is None else alphas))
    lambda_grid = sorted(Fraction(v) for v in (REDUCTION_LAMBDAS if lambdas is None else lambdas))
    points = [(alpha, lam) for alpha in alpha_grid for lam in lambda_grid]
    for alpha, lam in points:
        _check_two_param(alpha, lam)
    if not points:
        return []
    return [
        (n, alpha, lam, passed)
        for n in range(k_max + 1)
        for (alpha, lam), passed in zip(points, _reductions_at(n, alpha_grid, lambda_grid))
    ]


class _Builds:
    """What the reduction checks build at one (n, lam), kept in the store
    of ladders, ``series._LADDERS``: the row of (n, lam); E_n(x; a/b, lam)
    for each alpha = a/b read; the pivot sums E_n(1; alpha/x, lam) at the
    nodes x for each alpha read at a grid point; and, at lam = 1, E_n(x).
    Each is built on its first read and counted then in ``bits``, by the
    ``_charged_bits`` of its integers.  No verdict is kept."""

    __slots__ = ("n", "lam", "bits", "_row", "_euler", "_polys", "_pivot_sums")

    def __init__(self, n: int, lam: Fraction):
        self.n, self.lam, self.bits = n, lam, 0
        self._row = self._euler = None
        self._polys: dict = {}
        self._pivot_sums: dict = {}

    def row(self) -> tuple[tuple[int, ...], int]:
        if self._row is None:
            self._row = _two_param_row(self.n, self.lam)
            self.bits += _charged_bits(*self._row)
        return self._row

    def poly(self, a: int, b: int) -> Polynomial:
        """E_n(x; a/b, lam)."""
        found = self._polys.get((a, b))
        if found is None:
            found = self._polys[a, b] = _two_param_poly(self.n, a, b, self.row())
            self.bits += _charged_bits(found.nums, found.den)
        return found

    def pivot_sums(self, a: int, b: int) -> list[tuple[int, int]]:
        """The pivot sum E_n(1; alpha/x, lam), unreduced, at each node x,
        for alpha = a/b."""
        key = a, b
        found = self._pivot_sums.get(key)
        if found is None:
            points = [Fraction(a, b) / x for x in _REDUCTION_NODES]
            found = self._pivot_sums[key] = [
                _two_param_pivot(self.n, p.numerator, p.denominator, self.row()) for p in points
            ]
            self.bits += sum(_charged_bits([num], den) for num, den in found)
        return found

    def euler(self) -> Polynomial:
        if self._euler is None:
            # By its module name, so a rebinding of it (a tracer) sees the call.
            self._euler = euler_polynomial_formula(self.n)
            self.bits += _charged_bits(self._euler.nums, self._euler.den)
        return self._euler


def _reductions_at(n: int, alphas: Sequence[Fraction], lambdas: Sequence[Fraction]) -> list[bool]:
    """Whether the reductions hold at index n, for each (alpha, lam) of
    alphas x lambdas in that order.  A failed E_n(x; 1, 1) == E_n(x) fails
    every point.

    The builds come from the ``_Builds`` entry of each (n, lam), and of
    (n, 1), which holds E_n(x): each entry is read off the store once a
    call, which makes it the most recent, and kept again as the call
    ends, charged its new bits, only if it built something.  The
    comparisons run on every call."""
    store = series._LADDERS
    held: dict = {}  # store key -> (its _Builds, their bits when read)

    def builds(lam: Fraction) -> _Builds:
        """The builds of (n, lam), read off the store once a call.  The key
        starts with a string, so no ``_key`` of a mu equals it."""
        key = "reductions", n, lam.numerator, lam.denominator
        if key not in held:
            found = store.get(key) or _Builds(n, lam)
            held[key] = found, found.bits
        return held[key][0]

    try:
        at_one = builds(Fraction(1))
        if at_one.poly(1, 1) != at_one.euler():
            return [False] * (len(alphas) * len(lambdas))
        grid = [(found, found.poly(1, 1)) for found in map(builds, lambdas)]
        powers = [(x.numerator**n, x.denominator**n) for x in _REDUCTION_NODES]
        return [
            _reduces(n, a, b, found.poly(a, b), unit, found.pivot_sums(a, b), powers)
            for a, b in ((alpha.numerator, alpha.denominator) for alpha in alphas)
            for found, unit in grid
        ]
    finally:
        # Charged here, not per build, so that the store is touched once
        # per (n, lam), and also when a build is interrupted.
        for key, (found, bits) in held.items():
            if found.bits != bits:
                store.keep(key, found)


def _reduces(n: int, a: int, b: int, full: Polynomial, unit: Polynomial, pivot_sums, powers) -> bool:
    """The rescale and pointwise reductions at one point alpha = a/b,
    given E_n(x; alpha, lam), E_n(x; 1, lam), the pivot sum (num, den) of
    E_n(1; alpha/x, lam) at each node x and (x.numerator**n,
    x.denominator**n) there.  Both compare cross-multiplied integers."""
    # Coefficient k: full_k / F == unit_k a**(n-k) / (U b**(n-k)) for
    # alpha = a/b.  Both are trimmed and a != 0, so when they are equal
    # their lengths are too.  At alpha = 1 both are one build, which the
    # rescale would compare with itself.
    if full is not unit:
        if len(full.nums) != len(unit.nums):
            return False
        top = n - full.degree
        left, right = unit.den * b**top, full.den * a**top
        for x, y in zip(reversed(full.nums), reversed(unit.nums)):
            if x * left != y * right:
                return False
            left *= b
            right *= a
    for x, (pivot_num, pivot_den), (x_num, x_den) in zip(_REDUCTION_NODES, pivot_sums, powers):
        value_num, value_den = full._value(x)
        if value_num * x_den * pivot_den != x_num * pivot_num * value_den:
            return False
    return True


def determinant_relation_checks(k_max: int) -> list[tuple[int, int, bool]]:
    """(n, k, passed) of ``verify_first_kind_determinant_relation`` for
    1 <= k <= n <= k_max, n ascending, then k."""
    return [
        (n, k, verify_first_kind_determinant_relation(n, k))
        for n in range(1, k_max + 1)
        for k in range(1, n + 1)
    ]


def alternating_sum_checks(k_max: int) -> list[tuple[int, bool]]:
    """(n, passed) for n = 1..k_max, passed when ``stirling_alternating_sum(n)``
    vanishes."""
    return [(n, stirling_alternating_sum(n) == 0) for n in range(1, k_max + 1)]


# -- Uniform access ---------------------------------------------------------


def _bernoulli_even(n: int) -> Fraction:
    """B_n by the closed form, which covers even n >= 2."""
    if n < 2 or n % 2:
        raise DomainError("the closed form covers even indices >= 2 only; use the oracle")
    return bernoulli_formula(n // 2)


# Family -> (the parameters it reads, in record order; formula route; oracle
# route).  A route takes the index and the parameters by name.  The lambdas
# look the route functions up by their module names at call time, so a
# rebinding of those names (a tracer, say) reaches every call.  A formula
# route of a polynomial family returns the polynomial, which
# ``sequence_value`` evaluates at x when x is given.
_FAMILY_TABLE = {
    "bernoulli": ((), lambda n, p: _bernoulli_even(n), lambda n, p: bernoulli_oracle(n)),
    "apostol_bernoulli": (
        ("lambda",),
        lambda n, p: apostol_bernoulli_formula(n, p["lambda"]),
        lambda n, p: apostol_bernoulli_oracle(n, p["lambda"]),
    ),
    "euler_number": (
        (),
        lambda n, p: euler_number(n),
        lambda n, p: Fraction(2) ** n * euler_polynomial_oracle(n, Fraction(1, 2)),
    ),
    "euler_polynomial": (
        ("x",),
        lambda n, p: euler_polynomial_formula(n),
        lambda n, p: euler_polynomial_oracle(n, p["x"]),
    ),
    "two_param_euler": (
        ("alpha", "lambda", "x"),
        lambda n, p: two_param_euler_formula(n, p["alpha"], p["lambda"]),
        lambda n, p: two_param_euler_oracle(n, p["x"], p["alpha"], p["lambda"]),
    ),
}

# Family -> the parameters of ``sequence_value`` it reads, in record order.
FAMILIES = {family: entry[0] for family, entry in _FAMILY_TABLE.items()}


class SequenceValue(_Value):
    """One computed family member, tagged with how it was produced.

    parameters holds (name, value) pairs in a fixed order; value is a
    rational for number families (or evaluated polynomials) and a
    Polynomial otherwise.  notes carries human-readable caveats, e.g. for
    parameter ranges outside the family's stated domain.
    """

    __slots__ = ("family", "index", "parameters", "value", "provenance", "notes")

    def __init__(
        self,
        family: str,
        index: int,
        parameters: tuple[tuple[str, Fraction], ...],
        value: Fraction | Polynomial,
        provenance: str,
        notes: tuple[str, ...] = (),
    ):
        self._set(family, index, parameters, value, provenance, notes)


def sequence_value(
    family: str,
    index: int,
    provenance: str = "formula",
    *,
    lam: Scalar | None = None,
    alpha: Scalar | None = None,
    x: Scalar | None = None,
) -> SequenceValue:
    """Compute one family member through the requested route.

    A family needs every parameter of ``FAMILIES[family]`` except x on the
    formula route: there a polynomial family returns a Polynomial when no
    evaluation point x is given, and a rational otherwise.  A parameter
    the family does not read, or one it needs and is not given, raises
    ``DomainError``.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    names, formula, oracle = _FAMILY_TABLE[family]
    given = {"lambda": lam, "alpha": alpha, "x": x}
    for name, value in given.items():
        if value is not None and name not in names:
            raise DomainError(f"{family} does not read the {name} parameter")
    if provenance not in ("formula", "oracle"):
        raise DomainError(
            f"provenance must be one of ('formula', 'oracle'), got {provenance!r}"
        )
    if index < 0:
        raise DomainError(f"family index must be >= 0, got {index}")
    for name in names:
        if given[name] is None and (name != "x" or provenance == "oracle"):
            raise DomainError(f"{family} needs the {name} parameter")

    params = {name: Fraction(given[name]) for name in names if given[name] is not None}
    value = (formula if provenance == "formula" else oracle)(index, params)
    if isinstance(value, Polynomial) and "x" in params:
        value = value.evaluate(params["x"])
    notes: tuple[str, ...] = ()
    if family == "two_param_euler" and params["lambda"] <= 0:
        notes = (
            f"lambda = {format_rational(params['lambda'])} lies outside the positive range "
            "the family is stated for; the value is computed formally from the same expressions",
        )
    return SequenceValue(
        family=family,
        index=index,
        parameters=tuple(params.items()),
        value=value,
        provenance=provenance,
        notes=notes,
    )
