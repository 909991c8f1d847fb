"""Number and polynomial families computed two independent ways.

Every family here has a closed form built from Stirling numbers and an
oracle that reads the same value out of a truncated generating series.
The two routes share no code beyond the Stirling table itself, so exact
agreement between them is a meaningful check and is enforced by the test
suite rather than by collapsing one route into the other.

Families and their exponential generating functions:

    bernoulli            t / (e**t - 1)
    apostol_bernoulli    t / (lam * e**t - 1)
    euler_polynomial     2 e**(x t) / (e**t + 1)
    euler_number         2**n * E_n(1/2)
    two_param_euler      2 e**(x t) / (lam * e**(alpha t) + 1)

Each generating series is built in one place.  The Bernoulli oracle reads
``apostol_bernoulli_series`` at lam = 1, and the Euler-polynomial oracle is
the two-parameter oracle at alpha = lam = 1.  Each oracle truncates its
source series at the fixed order n + 4 (Bernoulli) or n + 8 (the others).

The closed forms run on integers where the series kernel does: the
alternating Stirling sum at rho = p/q is one integer over q**j, each Euler
and two-parameter Euler coefficient is one integer numerator over one
integer denominator, ``Polynomial.evaluate`` runs Horner on integer
numerators, and the even-index Euler sum and ``stirling_alternating_sum``
are one integer over a power of two.  Each builds one ``Fraction`` per
value it returns.

``sequence_value`` is the one entry point to all five families; the
command line reaches every family through it.

The named checks of ``verify`` run here too: the two-parameter reductions
over an (alpha, lambda) grid, the first-kind determinant relation and the
vanishing alternating sum, each returning plain tuples that
``identities.verify_target`` turns into rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import ConsistencyError, DomainError, PoleError
from .rationals import binomial, factorial
from .series import LaurentSeries, exp_linear, recip_exp_linear
from .stirling import stirling2, verify_first_kind_determinant_relation

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

Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class Polynomial:
    """Univariate polynomial over exact rationals; coeffs[i] multiplies x**i.

    Trailing zero coefficients are trimmed on construction, so two equal
    polynomials always compare equal structurally.  The zero polynomial has
    an empty coefficient tuple and degree -1.
    """

    coeffs: Tuple[Fraction, ...]

    @classmethod
    def from_coeffs(cls, values: Iterable[Scalar]) -> "Polynomial":
        vals = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
        while vals and not vals[-1]:
            vals.pop()
        return cls(tuple(vals))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, point: Scalar) -> Fraction:
        """Horner on integer numerators: with the coefficients C_i / den
        over the lcm of their denominators and point = u/v, the value is
        sum_i C_i u**i v**(d-i) over den * v**d, reduced once."""
        if not self.coeffs:
            return Fraction(0)
        point = Fraction(point)
        u, v = point.numerator, point.denominator
        den = math.lcm(*[c.denominator for c in self.coeffs])
        nums = [c.numerator * (den // c.denominator) for c in self.coeffs]
        acc = nums[-1]
        v_power = 1  # v**(d-i) at coefficient i
        for c in reversed(nums[:-1]):
            v_power *= v
            acc = acc * u + c * v_power
        return Fraction(acc, den * v_power)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)


@lru_cache(maxsize=4096)
def _geometric_stirling_sum(j: int, p: int, q: int) -> Fraction:
    """sum_{m=1..j} (-1)**(m-1) (m-1)! S(j, m) rho**m at rho = p/q.

    Every term (-1)**(m-1) (m-1)! S(j, m) p**m q**(j-m) is an integer, so
    the sum runs on ints and is divided by q**j once.  The cache is bounded
    and keyed on ints, which hash far faster than a ``Fraction``; callers
    pass rho in lowest terms with q > 0.  It holds a few rhos times every
    j up to ~300.
    """
    total = 0
    weight = 1  # (-1)**(m-1) (m-1)! p**m once multiplied by p
    for m in range(1, j + 1):
        weight *= p
        total = total * q + weight * stirling2(j, m)
        weight *= -m
    return Fraction(total, q**j)


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
        term = 2 * binomial(m, k) * g.numerator * (top // (g.denominator << k))
        total += -term if k & 1 else term
    return Fraction(total, top)


# -- Bernoulli ------------------------------------------------------------


def bernoulli_oracle(n: int) -> Fraction:
    """B_n as n! times the t**n coefficient of t/(e**t - 1), order n + 4."""
    if n < 0:
        raise DomainError(f"Bernoulli numbers need n >= 0, got {n}")
    return apostol_bernoulli_series(1, n + 4).coeff(n) * factorial(n)


def bernoulli_formula(k: int) -> Fraction:
    """B_{2k} for k >= 1 from the double Stirling-number sum.

    B_{2k} = 1 + sum_{m=1..2k-1} S(2k+1, m+1) S(2k, 2k-m) / C(2k, m)
               - (2k/(2k+1)) * sum_{m=1..2k} S(2k, m) S(2k+1, 2k-m+1) / C(2k, m-1)
    """
    if k < 1:
        raise DomainError(f"the even-index closed form needs k >= 1, got {k}")
    n = 2 * k
    first = sum(
        Fraction(stirling2(n + 1, m + 1) * stirling2(n, n - m), binomial(n, m))
        for m in range(1, n)
    )
    second = sum(
        Fraction(stirling2(n, m) * stirling2(n + 1, n - m + 1), binomial(n, m - 1))
        for m in range(1, n + 1)
    )
    return 1 + first - Fraction(n, n + 1) * second


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
    """B_n(lam) as n! times the t**n coefficient of t/(lam*e**t - 1), order n + 8."""
    if n < 0:
        raise DomainError(f"Apostol-Bernoulli numbers need n >= 0, got {n}")
    return apostol_bernoulli_series(lam, n + 8).coeff(n) * factorial(n)


# -- Euler polynomials and numbers ----------------------------------------


def euler_polynomial_formula(n: int) -> Polynomial:
    """E_n(x) with coefficient of x**k equal to

    (-1)**(n-k) C(n, k) sum_{l=1..n-k+1} (-1)**(l-1) (l-1)!/2**(l-1) S(n-k+1, l).
    """
    if n < 0:
        raise DomainError(f"Euler polynomials need n >= 0, got {n}")
    sums = [_geometric_stirling_sum(n - k + 1, 1, 2) for k in range(n + 1)]
    coeffs = [
        Fraction((-1) ** (n - k) * 2 * binomial(n, k) * g.numerator, g.denominator)
        for k, g in enumerate(sums)
    ]
    return Polynomial.from_coeffs(coeffs)


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
    # With alpha = a/b and g = p/q the sum, each coefficient is the one
    # integer ratio 2 (-a)**(n-k) C(n, k) p / (b**(n-k) q).
    a, b = alpha.numerator, alpha.denominator
    rho = 1 / (lam + 1)
    p, q = rho.numerator, rho.denominator
    sums = [_geometric_stirling_sum(n - k + 1, p, q) for k in range(n + 1)]
    coeffs = [
        Fraction(
            2 * (-a) ** (n - k) * binomial(n, k) * g.numerator,
            b ** (n - k) * g.denominator,
        )
        for k, g in enumerate(sums)
    ]
    return Polynomial.from_coeffs(coeffs)


def two_param_euler_oracle(n: int, x: Scalar, alpha: Scalar, lam: Scalar) -> Fraction:
    """E_n(x; alpha, lam) as n! times the t**n coefficient of
    2 e**(x t) / (lam e**(alpha t) + 1), order n + 8."""
    alpha, lam = Fraction(alpha), Fraction(lam)
    if n < 0:
        raise DomainError(f"the two-parameter family needs n >= 0, got {n}")
    _check_two_param(alpha, lam)
    order = n + 8
    series = (exp_linear(Fraction(x), order) * recip_exp_linear(alpha, lam, 1, order)).scale(2)
    return series.coeff(n) * factorial(n)


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
    alphas: Optional[Sequence[Scalar]] = None,
    lambdas: Optional[Sequence[Scalar]] = None,
) -> List[Tuple[int, Fraction, Fraction, bool]]:
    """(n, alpha, lam, passed) of ``verify_two_param_reductions`` for
    n = 0..k_max over the grid of alphas x lambdas (defaults
    REDUCTION_ALPHAS / REDUCTION_LAMBDAS), n ascending, then (alpha, lam)
    ascending.

    Each n builds E_n(x) once and each E_n(x; alpha, lam) it reads once,
    whether as a grid point, a rescale's unit side or a pointwise pivot.  The grid is checked before
    any n, point by point in order, so a bad point raises the error the
    first call of ``verify_two_param_reductions`` on it would.
    """
    alpha_grid = sorted(Fraction(a) for a in (alphas or REDUCTION_ALPHAS))
    lambda_grid = sorted(Fraction(v) for v in (lambdas or REDUCTION_LAMBDAS))
    points = [(alpha, lam) for alpha in alpha_grid for lam in lambda_grid]
    for alpha, lam in points:
        _check_two_param(alpha, lam)
    return [
        (n, alpha, lam, passed)
        for n in range(k_max + 1)
        for (alpha, lam), passed in zip(points, _reductions_at(n, alpha_grid, lambda_grid))
    ]


def _reductions_at(
    n: int, alphas: Sequence[Fraction], lambdas: Sequence[Fraction]
) -> List[bool]:
    """Whether the reductions hold at index n, for each (alpha, lam) of
    alphas x lambdas in that order.  A failed E_n(x; 1, 1) == E_n(x)
    fails every point."""
    built: dict = {}

    def poly(alpha: Fraction, lam: Fraction) -> Polynomial:
        """E_n(x; alpha, lam), built once per (alpha, lam) at this n."""
        if (alpha, lam) not in built:
            built[alpha, lam] = two_param_euler_formula(n, alpha, lam)
        return built[alpha, lam]

    # Both sides are reduced, so comparing (numerator, denominator) pairs
    # is the same test as Fraction equality, at a fraction of the cost.
    if _pairs(poly(1, 1)) != _pairs(euler_polynomial_formula(n)):
        return [False] * (len(alphas) * len(lambdas))
    return [_reduces(n, alpha, lam, poly) for alpha in alphas for lam in lambdas]


def _reduces(n: int, alpha: Fraction, lam: Fraction, poly) -> bool:
    """The rescale and pointwise reductions at one point, with
    poly(alpha, lam) giving E_n(x; alpha, lam)."""
    full = poly(alpha, lam)
    # E_n(x; 1, lam) is trimmed and alpha**(n-k) != 0 keeps its last
    # coefficient nonzero, so this list needs no trimming.
    a, b = alpha.numerator, alpha.denominator
    rescaled = [
        _reduced(c.numerator * a ** (n - k), c.denominator * b ** (n - k))
        for k, c in enumerate(poly(1, lam).coeffs)
    ]
    if _pairs(full) != rescaled:
        return False
    for x in _REDUCTION_NODES:
        pivot = poly(alpha / x, lam).evaluate(1)
        value = full.evaluate(x)
        expected = _reduced(
            x.numerator**n * pivot.numerator, x.denominator**n * pivot.denominator
        )
        if (value.numerator, value.denominator) != expected:
            return False
    return True


def _pairs(poly: Polynomial) -> list:
    return [(c.numerator, c.denominator) for c in poly.coeffs]


def _reduced(num: int, den: int) -> Tuple[int, int]:
    """num/den in lowest terms as a pair, for den > 0."""
    g = math.gcd(num, den)
    return num // g, den // g


def determinant_relation_checks(k_max: int) -> List[Tuple[int, int, bool]]:
    """(n, k, passed) of ``verify_first_kind_determinant_relation`` for
    1 <= k <= n <= k_max, n ascending, then k."""
    return [
        (n, k, verify_first_kind_determinant_relation(n, k))
        for n in range(1, k_max + 1)
        for k in range(1, n + 1)
    ]


def alternating_sum_checks(k_max: int) -> List[Tuple[int, bool]]:
    """(n, passed) for n = 1..k_max, passed when ``stirling_alternating_sum(n)``
    vanishes."""
    return [(n, stirling_alternating_sum(n) == 0) for n in range(1, k_max + 1)]


# -- Uniform access ---------------------------------------------------------


# Family -> the keyword parameters of ``sequence_value`` it reads.
_FAMILY_PARAMETERS = {
    "bernoulli": (),
    "apostol_bernoulli": ("lambda",),
    "euler_number": (),
    "euler_polynomial": ("x",),
    "two_param_euler": ("alpha", "lambda", "x"),
}

FAMILIES = tuple(_FAMILY_PARAMETERS)

_PROVENANCES = ("formula", "oracle")


@dataclass(frozen=True)
class SequenceValue:
    """One computed family member, tagged with how it was produced.

    parameters holds (name, value) pairs in a fixed order; value is a
    rational for number families (or evaluated polynomials) and a
    Polynomial otherwise.  notes carries human-readable caveats, e.g. for
    parameter ranges outside the family's stated domain.
    """

    family: str
    index: int
    parameters: Tuple[Tuple[str, Fraction], ...]
    value: Union[Fraction, Polynomial]
    provenance: str
    notes: Tuple[str, ...] = field(default=())


def sequence_value(
    family: str,
    index: int,
    provenance: str = "formula",
    *,
    lam: Optional[Scalar] = None,
    alpha: Optional[Scalar] = None,
    x: Optional[Scalar] = None,
) -> SequenceValue:
    """Compute one family member through the requested route.

    Polynomial families return a Polynomial from the formula route when no
    evaluation point x is given, and a rational otherwise; oracle routes
    for polynomial families always need x.  A parameter the family does not
    read raises ``DomainError``.
    """
    if family not in FAMILIES:
        raise DomainError(f"unknown family {family!r}")
    for name, value in (("lambda", lam), ("alpha", alpha), ("x", x)):
        if value is not None and name not in _FAMILY_PARAMETERS[family]:
            raise DomainError(f"{family} does not read the {name} parameter")
    if provenance not in _PROVENANCES:
        raise DomainError(f"provenance must be one of {_PROVENANCES}, got {provenance!r}")
    if index < 0:
        raise DomainError(f"family index must be >= 0, got {index}")

    params: list = []
    notes: list = []

    if family == "bernoulli":
        if provenance == "formula":
            if index < 2 or index % 2:
                raise DomainError(
                    "the closed form covers even indices >= 2 only; use the oracle"
                )
            value = bernoulli_formula(index // 2)
        else:
            value = bernoulli_oracle(index)

    elif family == "apostol_bernoulli":
        if lam is None:
            raise DomainError("apostol_bernoulli needs the lambda parameter")
        lam = Fraction(lam)
        params.append(("lambda", lam))
        if provenance == "formula":
            value = apostol_bernoulli_formula(index, lam)
        else:
            value = apostol_bernoulli_oracle(index, lam)

    elif family == "euler_number":
        if provenance == "formula":
            value = euler_number(index)
        else:
            value = Fraction(2) ** index * euler_polynomial_oracle(index, Fraction(1, 2))

    elif family == "euler_polynomial":
        if provenance == "formula":
            poly = euler_polynomial_formula(index)
            value = poly if x is None else poly.evaluate(Fraction(x))
        else:
            if x is None:
                raise DomainError("the oracle route needs an evaluation point x")
            value = euler_polynomial_oracle(index, Fraction(x))
        if x is not None:
            params.append(("x", Fraction(x)))

    else:  # two_param_euler
        if alpha is None or lam is None:
            raise DomainError("two_param_euler needs both alpha and lambda")
        alpha, lam = Fraction(alpha), Fraction(lam)
        params.append(("alpha", alpha))
        params.append(("lambda", lam))
        if provenance == "formula":
            poly = two_param_euler_formula(index, alpha, lam)
            value = poly if x is None else poly.evaluate(Fraction(x))
        else:
            if x is None:
                raise DomainError("the oracle route needs an evaluation point x")
            value = two_param_euler_oracle(index, Fraction(x), alpha, lam)
        if x is not None:
            params.append(("x", Fraction(x)))
        if lam <= 0:
            notes.append(
                f"lambda = {lam} lies outside the positive range the family is "
                "stated for; the value is computed formally from the same expressions"
            )

    return SequenceValue(
        family=family,
        index=index,
        parameters=tuple(params),
        value=value,
        provenance=provenance,
        notes=tuple(notes),
    )
