"""Mechanical verification of the derivative/power identity families.

Each check builds both sides of one identity as truncated Laurent series
and compares coefficients exactly over the widest window both sides
support.  A report never claims success on a window narrower than the
fixed ``DEFAULT_MIN_WINDOW`` (8) coefficients; it raises instead, so a
pass always reflects a real comparison.

Identity tags, with f = 1/(e**t - 1), g = 1/(1 - e**(-t)), h = 1/(e**t + 1),
and G = 1/(lam * e**(alpha t) - 1):

    I1  f^(k) = sum_{m=1..k+1} lambda_{k,m} f**m
    I2  g^(k) = sum_{m=1..k+1} mu_{k,m} g**m
    I3  g^(k) = sum_{m=1..k+1} lambda_{k,m} f**m
    I4  f^(k) = sum_{m=1..k+1} mu_{k,m} g**m
    I5  g**k  = sum_{m=1..k} a_{k,m-1} g^(m-1)
    I6  f**k  = sum_{m=1..k} b_{k,m-1} f^(m-1)
    I7  g**k  = 1 + sum_{m=1..k} a_{k,m-1} f^(m-1)
    I8  f**k  = (-1)**k + sum_{m=1..k} b_{k,m-1} g^(m-1)
    P1  h^(k) = sum_{m=1..k+1} (-1)**(m-1) lambda_{k,m} h**m
    P2  h**k  = (-1)**(k-1) sum_{m=1..k} b_{k,m-1} h^(m-1)
    G1  G^(k) = (-1)**k alpha**k sum_{m=1..k+1} (m-1)! S(k+1, m) G**m
    G2  G**k  = (1/(k-1)!) sum_{m=1..k} (-1)**(m-1) alpha**(1-m) s(k, m) G^(m-1)

The additive constant on I8 is (-1)**k, not 1: substituting t -> -t into
I7 swaps g with -f and f^(m-1) with (-1)**m g^(m-1), which multiplies the
whole of I7 by (-1)**k, constant included.  With the constant fixed at +1
the two sides differ by 2 in the t**0 coefficient for every odd k.

One spec table drives all twelve tags.  A row names the left base, the
left kind (the k-th derivative, compared with a weighted sum of the powers
of the right base, or the k-th power, compared with a weighted sum of its
derivatives), the weight of term m, the right base and the additive
constant.  Every base is 1/(lam e**(alpha t) + c), built by
``series.recip_exp_linear``: f = (1, 1, -1), g = (-1, -1, 1),
h = (1, 1, 1) and G = (alpha, lam, -1).  One private verifier builds both
sides from a row; each public ``verify_*`` function checks its tag or
converts its parameters and calls it.

The verifier reads both sides off the ladders of their bases, the powers
and the derivatives of one base series, in the store of bases that
``series`` describes.  Each side is read at the check's own order: an
entry is built there when first read and grown in place when a longer
check reads it, and a check reads a longer entry up to its own end at the
order, comparing its left side, a stored derivative or a stored power, in
place.  The weighted sum is combined at the order once, by the first
check of its (tag, k, order), and stored with its constant in the ladder
of the right base, so a repeated check reads it there and only compares;
a check with its own weights (``coeff_override``) neither reads nor
stores one.  ``run_sweep`` builds each base at the widest order of the
sweep and holds every ladder it reads until it returns, with the ladder
at alpha = 1 that each ladder at alpha != 1 reads its entries off, so a
sweep past the store's bound still builds each ladder once and the G
grid builds one ladder of kernel work per lambda.

``verify_target`` is the plan of the ``verify`` command: the sweep of
one tag or all twelve, then the named checks of ``sequences``.  Tags give
``VerificationReport`` rows and named checks ``CheckRow`` rows.  Rows are
plain data holding exact values; the command line renders them, so every
output format is decided in one module.  One check table gives each named
check's options, row fields and sweep; ``VERIFY_OPTIONS``, the options each
target reads, is built from it and the spec table.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from . import series
from .errors import DomainError, PrecisionExhaustedError
from .sequences import (
    alternating_sum_checks,
    determinant_relation_checks,
    two_param_reduction_sweep,
)
from .series import LaurentSeries, _Value, linear_combination
from .stirling import a_coeff, b_coeff, lambda_coeff, mu_coeff, stirling1

__all__ = [
    "VerificationReport",
    "CheckRow",
    "CORE_IDENTITY_IDS",
    "PLUS_IDENTITY_IDS",
    "GENERAL_IDENTITY_IDS",
    "ALL_IDENTITY_IDS",
    "DEFAULT_MIN_WINDOW",
    "DEFAULT_ALPHAS",
    "DEFAULT_LAMBDAS",
    "default_order",
    "core_identity_coefficients",
    "verify_core_identity",
    "verify_plus_identity",
    "verify_general_derivative",
    "verify_general_power",
    "run_sweep",
    "VERIFY_OPTIONS",
    "verify_target",
]

Scalar = int | Fraction

CORE_IDENTITY_IDS = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8")
PLUS_IDENTITY_IDS = ("P1", "P2")
GENERAL_IDENTITY_IDS = ("G1", "G2")
ALL_IDENTITY_IDS = CORE_IDENTITY_IDS + PLUS_IDENTITY_IDS + GENERAL_IDENTITY_IDS

DEFAULT_MIN_WINDOW = 8

DEFAULT_ALPHAS = (
    Fraction(-3, 2),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)
DEFAULT_LAMBDAS = (
    Fraction(-5, 3),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)


def default_order(k: int) -> int:
    """Truncation order 2k + 10: wide enough that after k derivative or
    reciprocal steps the compared window still holds at least 8 coefficients."""
    return 2 * k + 10


class VerificationReport(_Value):
    """Outcome of one identity check at one parameter point."""

    __slots__ = ("identity_id", "k", "alpha", "lam", "order", "window", "passed", "first_discrepancy")

    def __init__(
        self,
        identity_id: str,
        k: int,
        alpha: Fraction | None,
        lam: Fraction | None,
        order: int,
        window: tuple[int, int],
        passed: bool,
        first_discrepancy: tuple[int, Fraction, Fraction] | None,
    ):
        object.__setattr__(self, "identity_id", identity_id)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "first_discrepancy", first_discrepancy)


class CheckRow(_Value):
    """Outcome of one named check; fields holds its point, e.g. n and k,
    in print order, with rationals as ``Fraction`` values.  Its dict makes
    it unhashable."""

    __slots__ = ("check", "fields", "passed")

    def __init__(self, check: str, fields: dict[str, object], passed: bool):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "passed", passed)


# -- the spec table -----------------------------------------------------------

# Bases as the (alpha, lam, c) of 1/(lam e**(alpha t) + c).  None stands for
# G, whose (alpha, lam, -1) are the parameters of the check.
_f, _g, _h = (1, 1, -1), (-1, -1, 1), (1, 1, 1)


def _first_kind_weight(k: int, m: int) -> Fraction:
    """(-1)**(m-1) s(k, m)/(k-1)!, the G2 weight at alpha = 1."""
    return Fraction((-1) ** (m - 1) * stirling1(k, m), math.factorial(k - 1))


# id: (lhs base, lhs kind, weight of term m, rhs base, additive constant).
# Kind "derivative" sets lhs = base^(k) against the powers rhs**1..rhs**(k+1);
# "power" sets lhs = base**k against the derivatives rhs^(0)..rhs^(k-1).
# A weight is a function of (k, m), its value at alpha = 1; a constant, of k.
# A G1 point scales every weight by alpha**k, so G1 reads I1's
# lambda_{k,m}; a G2 point scales term m by alpha**(1-m).  G2 keeps its
# own s(k, m)/(k-1)!, independent of I6's determinant weights b_{k,m-1}.
_SPECS: dict[str, tuple] = {
    "I1": (_f, "derivative", lambda_coeff, _f, None),
    "I2": (_g, "derivative", mu_coeff, _g, None),
    "I3": (_g, "derivative", lambda_coeff, _f, None),
    "I4": (_f, "derivative", mu_coeff, _g, None),
    "I5": (_g, "power", a_coeff, _g, None),
    "I6": (_f, "power", b_coeff, _f, None),
    "I7": (_g, "power", a_coeff, _f, lambda k: 1),
    "I8": (_f, "power", b_coeff, _g, lambda k: (-1) ** k),
    "P1": (_h, "derivative", lambda k, m: (-1) ** (m - 1) * lambda_coeff(k, m), _h, None),
    "P2": (_h, "power", lambda k, m: (-1) ** (k - 1) * b_coeff(k, m), _h, None),
    "G1": (None, "derivative", lambda_coeff, None, None),
    "G2": (None, "power", _first_kind_weight, None, None),
}

# Named check: (options it reads, row field names, sweep).  A sweep takes
# (k_max, alphas, lambdas), looks its function up by module name when called,
# so a rebinding of that name reaches it, and returns (*fields, passed) tuples.
_NAMED_CHECKS: dict[str, tuple] = {
    "det-relation": ((), ("n", "k"), lambda k_max, *grid: determinant_relation_checks(k_max)),
    "alt-sum": ((), ("n",), lambda k_max, *grid: alternating_sum_checks(k_max)),
    "reductions": (("alpha", "lambda"), ("n", "alpha", "lambda"), lambda *a: two_param_reduction_sweep(*a)),
}

# verify target -> the options it reads; the command line rejects any other.
VERIFY_OPTIONS: dict[str, tuple[str, ...]] = {
    "all": ("alpha", "lambda", "order"),
    **{tag: ("order",) if base else ("alpha", "lambda", "order") for tag, (base, *_) in _SPECS.items()},
    **{name: check[0] for name, check in _NAMED_CHECKS.items()},
}


# A sweep reads every grid point of one k before the next k.  The cache
# holds every tag at every k up to 48: 576 entries, 1.8 MB in all on
# CPython 3.11.  An entry at index k holds k + 1 Fractions, of at most 303
# bits each up to k = 48.
@lru_cache(maxsize=len(_SPECS) * 48)
def _unit_weights(identity_id: str, k: int) -> tuple[Fraction, ...]:
    """The weights of the spec row at alpha = 1, for m = 1 .. (k+1 or k)."""
    _, kind, weight, _, _ = _SPECS[identity_id]
    count = k + 1 if kind == "derivative" else k
    return tuple(Fraction(weight(k, m)) for m in range(1, count + 1))


def _weights(identity_id: str, k: int, alpha: Fraction | None) -> list[Fraction]:
    weights = _unit_weights(identity_id, k)
    if identity_id == "G1":
        scale = alpha**k
        return [w * scale for w in weights]
    if identity_id == "G2":
        return [w * alpha ** (1 - m) for m, w in enumerate(weights, 1)]
    return list(weights)


def core_identity_coefficients(identity_id: str, k: int) -> list[Fraction]:
    """The weight list applied to the power or derivative ladder of the
    given core identity, for m = 1 .. (k+1 or k)."""
    if identity_id not in CORE_IDENTITY_IDS:
        raise DomainError(f"unknown core identity {identity_id!r}")
    if k < 1:
        raise DomainError(f"identities need k >= 1, got {k}")
    return _weights(identity_id, k, None)


def _compare(
    identity_id: str,
    k: int,
    alpha: Fraction | None,
    lam: Fraction | None,
    order: int,
    lhs: LaurentSeries,
    rhs: LaurentSeries,
    hi: int,
) -> VerificationReport:
    """Compare the two sides on [least offset, hi); ``hi`` is at most
    either side's precision, and below it a side holds the exact values of
    a build at ``order``."""
    lo = min(lhs.offset, rhs.offset)
    overlap = hi - max(lhs.offset, rhs.offset)
    if hi <= lo or overlap < DEFAULT_MIN_WINDOW:
        raise PrecisionExhaustedError(
            f"{identity_id} k={k}: window [{lo},{hi}) holds {max(overlap, 0)} shared "
            f"coefficients, need {DEFAULT_MIN_WINDOW}; raise the order"
        )
    e = lhs.first_difference(rhs, lo, hi)
    first_discrepancy = None if e is None else (e, lhs.coeff(e), rhs.coeff(e))
    return VerificationReport(
        identity_id=identity_id,
        k=k,
        alpha=alpha,
        lam=lam,
        order=order,
        window=(lo, hi),
        passed=first_discrepancy is None,
        first_discrepancy=first_discrepancy,
    )


def _verify(
    identity_id: str,
    k: int,
    alpha: Fraction | None,
    lam: Fraction | None,
    order: int | None,
    coeff_override: Sequence[Scalar] | None,
) -> VerificationReport:
    """Build both sides of one identity from its spec row and compare them.

    alpha and lam are None for the tags on the fixed bases f, g and h.
    """
    if k < 1:
        raise DomainError(f"identities need k >= 1, got {k}")
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    if lam == 0:
        raise DomainError("lambda must be nonzero")
    if order is None:
        order = default_order(k)
    lhs_base, kind, _, rhs_base, constant = _SPECS[identity_id]
    lhs_ladder = series._LADDERS.ladder(lhs_base or (alpha, lam, -1), order)
    rhs_ladder = series._LADDERS.ladder(rhs_base or (alpha, lam, -1), order)
    # Each side reads its ladder at this order (see series._Ladder).  The
    # left side, a stored derivative or a stored Miller power, is compared
    # in place up to its end at this order.  The weighted sum is combined
    # from the right ladder's entries at this order once, by the first
    # check of this (tag, k, order), and stored in that ladder with the
    # constant added; later checks only compare.  A check with its own
    # weights neither reads nor stores a sum.  Each side keeps its own
    # route: a power-kind left side never reads the product chain that a
    # derivative-kind right side sums.
    lhs = lhs_ladder.derivatives(k + 1, order)[k] if kind == "derivative" else lhs_ladder.power(k, order)
    key = (identity_id, k, order)
    stored = rhs_ladder.sums.get(key) if coeff_override is None else None
    if stored is not None:
        rhs, rhs_hi = stored
    else:
        if coeff_override is not None:
            weights = [Fraction(w) for w in coeff_override]
        elif identity_id in CORE_IDENTITY_IDS:
            weights = core_identity_coefficients(identity_id, k)
        else:
            weights = _weights(identity_id, k, alpha)
        terms = rhs_ladder.powers(k + 1, order) if kind == "derivative" else rhs_ladder.derivatives(k, order)
        rhs = linear_combination(terms, weights, length=rhs_ladder.length(order))
        rhs_hi = rhs.precision
        if constant is not None:
            # A nonzero weighted sum is known no further than its base; the
            # exact zero is known to every order, so the base's precision
            # at this order bounds the constant and the sum stays finite.
            # Below precision 1 the constant lies past the window, so the
            # window holds the sum alone and the comparison judges its width.
            rhs_hi = min(rhs_hi, rhs_ladder.base.offset + rhs_ladder.length(order))
            if rhs_hi >= 1:
                rhs = rhs + LaurentSeries.constant(constant(k), rhs_hi)
        if coeff_override is None:
            rhs_ladder.keep_sum(key, rhs, rhs_hi)
    lhs_hi = lhs.offset + lhs_ladder.length(order)
    return _compare(identity_id, k, alpha, lam, order, lhs, rhs, min(lhs_hi, rhs_hi))


def verify_core_identity(
    identity_id: str,
    k: int,
    order: int | None = None,
    coeff_override: Sequence[Scalar] | None = None,
) -> VerificationReport:
    """Check one of I1..I8 at index k by exact series comparison.

    coeff_override replaces the ladder weight list; it exists so tests can
    prove the comparison detects any single corrupted coefficient.
    """
    if identity_id not in CORE_IDENTITY_IDS:
        raise DomainError(f"unknown core identity {identity_id!r}")
    return _verify(identity_id, k, None, None, order, coeff_override)


def verify_plus_identity(
    identity_id: str,
    k: int,
    order: int | None = None,
    coeff_override: Sequence[Scalar] | None = None,
) -> VerificationReport:
    """Check P1 or P2, the derivative/power pair for h = 1/(e**t + 1)."""
    if identity_id not in PLUS_IDENTITY_IDS:
        raise DomainError(f"unknown plus identity {identity_id!r}")
    return _verify(identity_id, k, None, None, order, coeff_override)


def verify_general_derivative(
    k: int,
    alpha: Scalar,
    lam: Scalar,
    order: int | None = None,
) -> VerificationReport:
    """Check G1: the k-th derivative of 1/(lam e**(alpha t) - 1) as a
    power sum with weights (-1)**k alpha**k (m-1)! S(k+1, m)."""
    return _verify("G1", k, Fraction(alpha), Fraction(lam), order, None)


def verify_general_power(
    k: int,
    alpha: Scalar,
    lam: Scalar,
    order: int | None = None,
) -> VerificationReport:
    """Check G2: the k-th power of 1/(lam e**(alpha t) - 1) as a
    derivative sum with weights (-1)**(m-1) alpha**(1-m) s(k, m)/(k-1)!."""
    return _verify("G2", k, Fraction(alpha), Fraction(lam), order, None)


def run_sweep(
    targets: Sequence[str],
    k_max: int,
    order: int | None = None,
    alphas: Sequence[Scalar] | None = None,
    lambdas: Sequence[Scalar] | None = None,
) -> list[VerificationReport]:
    """Verify the given identity tags for k = 1..k_max.

    General identities run over the cartesian grid of alphas x lambdas
    (DEFAULT_ALPHAS / DEFAULT_LAMBDAS for None; an empty grid has no
    points).  Report order is deterministic: targets as given, k
    ascending, then (alpha, lambda) ascending.  An unknown tag raises
    before any ladder is built or any check run, and the grid is read
    only when a general tag is swept.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    for target in targets:
        if target not in _SPECS:
            raise DomainError(f"unknown identity tag {target!r}")
    alpha_grid = lambda_grid = grid = ()
    if any(target in GENERAL_IDENTITY_IDS for target in targets):
        alpha_grid = sorted(Fraction(a) for a in (DEFAULT_ALPHAS if alphas is None else alphas))
        lambda_grid = sorted(Fraction(v) for v in (DEFAULT_LAMBDAS if lambdas is None else lambdas))
        grid = [(alpha, lam, -1) for alpha in alpha_grid for lam in lambda_grid if alpha and lam]
    # Each ladder's base is built at the order of the widest check, which
    # the narrower ones read, and each ladder is held until the sweep
    # returns; its other entries grow with the checks that read them.  A
    # ladder at alpha != 1 reads its entries off the ladder at alpha = 1
    # (series._View), which is held too, and built first.  A point with
    # alpha or lambda 0 reads none, and orders below 3 read none stored.
    top = default_order(k_max) if order is None else order
    keys = [
        key
        for lhs_base, _, _, rhs_base, _ in map(_SPECS.get, targets)
        for key in ({lhs_base, rhs_base} if lhs_base else grid)
    ]
    keys = [(1, lam, c) for alpha, lam, c in keys if alpha != 1] + keys
    held = [series._LADDERS.ladder(key, top) for key in keys] if top >= 3 else []
    reports: list[VerificationReport] = []
    for target in targets:
        if target in GENERAL_IDENTITY_IDS:
            check = verify_general_derivative if target == "G1" else verify_general_power
            for k in range(1, k_max + 1):
                for alpha in alpha_grid:
                    for lam in lambda_grid:
                        reports.append(check(k, alpha, lam, order))
        else:
            check = verify_core_identity if target in CORE_IDENTITY_IDS else verify_plus_identity
            for k in range(1, k_max + 1):
                reports.append(check(target, k, order))
    del held
    return reports


def verify_target(
    target: str,
    k_max: int,
    alpha: Scalar | None = None,
    lam: Scalar | None = None,
    order: int | None = None,
) -> list[VerificationReport | CheckRow]:
    """Every row of ``verify`` on one target, in order: the ``run_sweep``
    reports of its tags (all twelve for "all"), then its named checks' rows
    in table order.  alpha and lam narrow the G1/G2 and reductions grids to
    one value each; an option the target does not read raises.  The named
    checks run first, so a bad reductions point raises before any tag is swept."""
    if target not in VERIFY_OPTIONS:
        raise DomainError(f"unknown verify target {target!r}")
    for name, value in {"alpha": alpha, "lambda": lam, "order": order}.items():
        if value is not None and name not in VERIFY_OPTIONS[target]:
            raise DomainError(f"verify {target} does not read the {name} option")
    alphas = None if alpha is None else [alpha]
    lambdas = None if lam is None else [lam]
    named = [
        CheckRow(name, dict(zip(fields, result)), result[-1])
        for name, (_, fields, sweep) in _NAMED_CHECKS.items()
        if target in ("all", name)
        for result in sweep(k_max, alphas, lambdas)
    ]
    tags = [tag for tag in _SPECS if target in ("all", tag)]
    return [*run_sweep(tags, k_max, order, alphas, lambdas), *named]
