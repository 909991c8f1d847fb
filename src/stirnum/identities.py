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
derivatives), the weight of term m, the right base, the additive constant
and the power of alpha on term m as an integer function of (k, m): k on
G1, 1 - m on G2 and 0 on the fixed bases.  Every base is a sign times
B_mu(alpha t), B_mu = 1/(mu e**t - 1) the one family of ``series``, and a
row holds it as the triple (alpha, mu, sign): f = (1, 1, 1),
g = (-1, 1, -1), as g(t) = -f(-t), h = (1, -1, -1) and G = (alpha, lam, 1),
each read off the ladder of its mu.  So f and g read one ladder, and h
that of G at lam = -1.  One private verifier, ``_verify``, builds both
sides from a row, compares them and reports; each public ``verify_*``
function checks its tag or converts its parameters and calls it.

The verifier reads both sides off the ladders of their bases at alpha = 1
and sign 1, the powers and the derivatives of one B_mu, in the store of
bases that ``series`` describes.  A base at alpha is its base H at
alpha = 1 dilated, t -> alpha t, and the dilation D_alpha, coefficient e times
alpha**e, is linear: the j-th derivative of H(alpha t) is
alpha**j D_alpha H^(j), and its m-th power is D_alpha H**m.  So a check
with sides at alpha_l and alpha_r compares its left side at alpha = 1, H_l^(k) or
H_l**k, with a right side whose weights carry the chain rule, alpha_l**-k
on each term of the derivative kind and alpha_r**(m-1) on term m,
derivative m - 1, of the power kind, and whose sum is dilated once, by
alpha_r / alpha_l.  That is 1 but on the cross tags I3, I4, I7 and I8,
which set g = (-1, 1, -1) against f, where it is -1.  The two sides at
alpha are the two compared ones times alpha_l**j_l and dilated by alpha_l,
j_l = k on the derivative kind and 0 on the power kind, so they agree
exactly when the compared ones do; a first discrepancy at exponent e is
reported times alpha_l**(e + j_l), as the sides at alpha hold it.

One rule carries alpha on every row: term m's weight at alpha = 1 is
multiplied by the side's alpha, alpha_l on the derivative kind and alpha_r
on the power kind, to the spec's power plus the chain rule's, added as
integers.  On the fixed bases the spec's power is 0 and the side's alpha
is 1 or, on g, -1.  Both sides of a G check are at its alpha, and the
powers add to k - k on G1 and (1 - m) + (m - 1) on G2.  Each is 0, so
every alpha has the sum at alpha = 1 and does no arithmetic on alpha; a
wrong spec's nonzero power scales the weights at alpha = 1 by alpha to it.
A side's alpha of 1, or powers that are all 0, leave the weights as they
are.

One rule carries the sign the same way.  With H = sign B, the left side
H_l^(k) is sign_l B_l^(k) and H_l**k is sign_l**k B_l**k, and term m of
the right side, H_r**m or H_r^(m-1), is sign_r**m B_r**m or
sign_r B_r^(m-1).  The check compares the left side on B_l with the
right side on B_r times the left side's sign, sign_l on the derivative
kind and sign_l**k on the power kind: term m's weight is multiplied by
that sign and by sign_r**m on the derivative kind, sign_r on the power
kind, and the additive constant by the left side's sign.  The compared
sides are the sides at the check's base times the left side's sign, so a
first discrepancy is reported times it too, at the check's own base.

Each side is read at the check's own order: an entry is built there when
first read, a longer check grows it or builds it again (``series`` says
which), and a check reads a longer entry up to its own end at the order,
comparing its left side, a stored derivative or a stored power, in
place.  The weighted sum is combined at the order once, by the first
check of its (tag, k, order), and stored with its constant in the ladder
of the right base, so a repeated check reads it there and only compares,
and the alphas of a G grid share one sum per (tag, k, order, lambda); a
check with its own weights (``coeff_override``) neither reads nor stores
one.  A G sum with a nonzero power of alpha is keyed on alpha too, so no
other alpha reads it; a fixed tag's alphas are those of its bases.
``run_sweep`` builds each base at the widest order of the sweep and holds
every ladder it reads until it returns, so a sweep past the store's
bound still builds each ladder once, and a G grid one ladder per lambda.

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
from .series import LaurentSeries, _dilated, _Value, linear_combination
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
        self._set(identity_id, k, alpha, lam, order, window, passed, first_discrepancy)


class CheckRow(_Value):
    """Outcome of one named check; fields holds its point, e.g. n and k,
    in print order, with rationals as ``Fraction`` values.  Its dict makes
    it unhashable."""

    __slots__ = ("check", "fields", "passed")

    def __init__(self, check: str, fields: dict[str, object], passed: bool):
        self._set(check, fields, passed)


# -- the spec table -----------------------------------------------------------

# Bases sign / (mu e**(alpha t) - 1) as (alpha, mu, sign).  None stands
# for G, (alpha, lam, 1) at the parameters of the check.
_f, _g, _h = ((Fraction(alpha), Fraction(mu), sign) for alpha, mu, sign in [(1, 1, 1), (-1, 1, -1), (1, -1, -1)])


def _first_kind_weight(k: int, m: int) -> Fraction:
    """(-1)**(m-1) s(k, m)/(k-1)!, the G2 weight at alpha = 1."""
    return Fraction((-1) ** (m - 1) * stirling1(k, m), math.factorial(k - 1))


# id: (lhs base, lhs kind, weight of term m, rhs base, additive constant,
# power of alpha on term m).
# Kind "derivative" sets lhs = base^(k) against the powers rhs**1..rhs**(k+1);
# "power" sets lhs = base**k against the derivatives rhs^(0)..rhs^(k-1).
# A weight is a function of (k, m), its value at alpha = 1; a constant, of k.
# The power of alpha is an integer function of (k, m), 0 on the fixed
# bases: a G1 point scales every weight by alpha**k, so G1 reads I1's
# lambda_{k,m}; a G2 point scales term m by alpha**(1-m).  G2 keeps its
# own s(k, m)/(k-1)!, independent of I6's determinant weights b_{k,m-1}.
_SPECS: dict[str, tuple] = {
    "I1": (_f, "derivative", lambda_coeff, _f, None, lambda k, m: 0),
    "I2": (_g, "derivative", mu_coeff, _g, None, lambda k, m: 0),
    "I3": (_g, "derivative", lambda_coeff, _f, None, lambda k, m: 0),
    "I4": (_f, "derivative", mu_coeff, _g, None, lambda k, m: 0),
    "I5": (_g, "power", a_coeff, _g, None, lambda k, m: 0),
    "I6": (_f, "power", b_coeff, _f, None, lambda k, m: 0),
    "I7": (_g, "power", a_coeff, _f, lambda k: 1, lambda k, m: 0),
    "I8": (_f, "power", b_coeff, _g, lambda k: (-1) ** k, lambda k, m: 0),
    "P1": (_h, "derivative", lambda k, m: (-1) ** (m - 1) * lambda_coeff(k, m), _h, None, lambda k, m: 0),
    "P2": (_h, "power", lambda k, m: (-1) ** (k - 1) * b_coeff(k, m), _h, None, lambda k, m: 0),
    "G1": (None, "derivative", lambda_coeff, None, None, lambda k, m: k),
    "G2": (None, "power", _first_kind_weight, None, None, lambda k, m: 1 - m),
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
    _, kind, weight, *_ = _SPECS[identity_id]
    count = k + 1 if kind == "derivative" else k
    return tuple(Fraction(weight(k, m)) for m in range(1, count + 1))


def _weights(identity_id: str, k: int, alpha: Fraction | None) -> list[Fraction]:
    """The weights of the spec row at alpha: term m of a G row times
    alpha to the row's power of alpha on it."""
    weights = _unit_weights(identity_id, k)
    if alpha is None:
        return list(weights)
    exponent = _SPECS[identity_id][5]
    return [w * alpha ** exponent(k, m) for m, w in enumerate(weights, 1)]


# Keyed on the row's power function, so a row given another one reads its
# own entry.  Every row at every k up to 48 fits, as in _unit_weights.
@lru_cache(maxsize=len(_SPECS) * 48)
def _folded_powers(exponent, kind: str, k: int) -> tuple[int, ...]:
    """The power of alpha on each term of a check read at alpha = 1: the
    spec row's plus the chain rule's, -k on every power of the derivative
    kind, at the left side's alpha, and m - 1 on derivative m - 1 of the
    power kind, at the right side's alpha (module docstring), for
    m = 1 .. (k+1 or k)."""
    if kind == "derivative":
        return tuple(exponent(k, m) - k for m in range(1, k + 2))
    return tuple(exponent(k, m) + m - 1 for m in range(1, k + 1))


def core_identity_coefficients(identity_id: str, k: int) -> list[Fraction]:
    """The weight list applied to the power or derivative ladder of the
    given core identity, for m = 1 .. (k+1 or k)."""
    if identity_id not in CORE_IDENTITY_IDS:
        raise DomainError(f"unknown core identity {identity_id!r}")
    if k < 1:
        raise DomainError(f"identities need k >= 1, got {k}")
    return _weights(identity_id, k, None)


def _verify(
    identity_id: str,
    k: int,
    alpha: Fraction | None,
    lam: Fraction | None,
    order: int | None,
    coeff_override: Sequence[Scalar] | None,
) -> VerificationReport:
    """Build both sides of one identity from its spec row, compare them
    and report.

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
    lhs_base, kind, _, rhs_base, constant, exponent = _SPECS[identity_id]
    if lhs_base is None:
        lhs_base = rhs_base = (alpha, lam, 1)
    lhs_alpha, lhs_mu, lhs_sign = lhs_base
    rhs_alpha, rhs_mu, rhs_sign = rhs_base
    lhs_ladder = series._LADDERS.ladder(lhs_mu, order)
    rhs_ladder = series._LADDERS.ladder(rhs_mu, order)
    # Each side reads its ladder at alpha = 1, sign 1 and this order (see
    # series._Ladder).  The left side, a stored derivative or a stored
    # Miller power, is compared in place up to its end at this order.  The
    # weighted sum carries the chain rule and the signs (module
    # docstring).  It is combined from the right ladder's entries at this
    # order once, by the first check of its key, and stored in that ladder
    # with the constant added; later checks only compare.  A check with
    # its own weights neither reads nor stores a sum.  Each side keeps its
    # own route: a power-kind left side never reads the product chain that
    # a derivative-kind right side sums.
    lhs_j = k if kind == "derivative" else 0
    lhs = lhs_ladder.derivatives(k + 1, order)[k] if lhs_j else lhs_ladder.power(k, order)
    lhs_sign = lhs_sign if lhs_j else lhs_sign**k
    key = (identity_id, k, order)
    # Every power of a G check is 0 on a correct spec (module docstring),
    # so all alphas share one sum; a wrong power keys its sum on alpha.
    if alpha is not None and any(_folded_powers(exponent, kind, k)):
        key += (alpha,)
    stored = rhs_ladder.sums.get(key) if coeff_override is None else None
    if stored is not None:
        rhs, rhs_hi = stored
    else:
        if coeff_override is not None:
            weights = [Fraction(w) for w in coeff_override]
            terms = k + 1 if lhs_j else k
            if len(weights) != terms:
                raise DomainError(f"{terms} terms but {len(weights)} weights")
        elif identity_id in CORE_IDENTITY_IDS:
            weights = core_identity_coefficients(identity_id, k)
        else:
            weights = _unit_weights(identity_id, k)
        side_alpha = lhs_alpha if lhs_j else rhs_alpha
        fold = _folded_powers(exponent, kind, k)
        if side_alpha != 1 and any(fold):
            weights = [w * side_alpha**e for w, e in zip(weights, fold)]
        if -1 in (lhs_sign, rhs_sign):
            weights = [w * (lhs_sign * rhs_sign ** (m if lhs_j else 1)) for m, w in enumerate(weights, 1)]
        terms = rhs_ladder.powers(k + 1, order) if lhs_j else rhs_ladder.derivatives(k, order)
        rhs = linear_combination(terms, weights, length=rhs_ladder.length(order))
        if rhs_alpha != lhs_alpha and not rhs.is_zero:
            rhs = _dilated(rhs, rhs_alpha / lhs_alpha)
        rhs_hi = rhs.precision
        if constant is not None:
            # A nonzero weighted sum is known no further than its base; the
            # exact zero is known to every order, so the base's precision
            # at this order bounds the constant and the sum stays finite.
            # Below precision 1 the constant lies past the window, so the
            # window holds the sum alone and the comparison judges its width.
            rhs_hi = min(rhs_hi, rhs_ladder.base.offset + rhs_ladder.length(order))
            if rhs_hi >= 1:
                rhs = rhs + LaurentSeries.constant(lhs_sign * constant(k), rhs_hi)
        if coeff_override is None:
            rhs_ladder.keep_sum(key, rhs, rhs_hi)
    # Compare on [least offset, hi): below hi each side holds the exact
    # values of a build at this order.  A discrepancy is reported as the
    # sides at the check's base hold it (module docstring).
    hi = min(lhs.offset + lhs_ladder.length(order), rhs_hi)
    lo = min(lhs.offset, rhs.offset)
    overlap = hi - max(lhs.offset, rhs.offset)
    if hi <= lo or overlap < DEFAULT_MIN_WINDOW:
        raise PrecisionExhaustedError(
            f"{identity_id} k={k}: window [{lo},{hi}) holds {max(overlap, 0)} shared "
            f"coefficients, need {DEFAULT_MIN_WINDOW}; raise the order"
        )
    e = lhs.first_difference(rhs, lo, hi)
    first_discrepancy = None
    if e is not None:
        scale = lhs_sign * lhs_alpha ** (e + lhs_j)
        first_discrepancy = (e, lhs.coeff(e) * scale, rhs.coeff(e) * scale)
    return VerificationReport(
        identity_id, k, alpha, lam, order, (lo, hi), first_discrepancy is None, first_discrepancy
    )


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
        grid = [lam for lam in lambda_grid if lam] if any(alpha_grid) else []
    # Each ladder's base is built at the order of the widest check, which
    # the narrower ones read, and each ladder is held until the sweep
    # returns; its other entries grow with the checks that read them.
    # Every check reads the ladders of B_mu, so the alphas of a grid share
    # one per lambda, and one right side per (tag, k, order) in it, and f
    # and g share one, as do h and G at lambda = -1.
    # A point with alpha or lambda 0 reads none, and orders below 3 read
    # none stored.
    top = default_order(k_max) if order is None else order
    held = [
        series._LADDERS.ladder(mu, top)
        for lhs_base, _, _, rhs_base, *_ in map(_SPECS.get, targets)
        for mu in ({lhs_base[1], rhs_base[1]} if lhs_base else grid)
        if top >= 3
    ]
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
