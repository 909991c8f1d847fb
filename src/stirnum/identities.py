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

``verify_target`` is the plan of the ``verify`` command: the sweep of
one tag or all twelve, then the named checks of ``sequences``.  Tags give
``VerificationReport`` rows and named checks ``CheckRow`` rows, each with
its record, plain line and cells under ``VERIFY_CSV_HEADER``.
``VERIFY_OPTIONS`` names the options each target reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, PrecisionExhaustedError
from .rationals import factorial, format_rational
from .sequences import (
    alternating_sum_checks,
    determinant_relation_checks,
    two_param_reduction_sweep,
)
from .series import LaurentSeries, linear_combination, recip_exp_linear
from .stirling import a_coeff, b_coeff, lambda_coeff, mu_coeff, stirling1, stirling2

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
    "VERIFY_CSV_HEADER",
    "verify_target",
]

Scalar = Union[int, Fraction]

CORE_IDENTITY_IDS = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8")
PLUS_IDENTITY_IDS = ("P1", "P2")
GENERAL_IDENTITY_IDS = ("G1", "G2")
ALL_IDENTITY_IDS = CORE_IDENTITY_IDS + PLUS_IDENTITY_IDS + GENERAL_IDENTITY_IDS

# verify target -> the options it reads; the command line rejects any other.
VERIFY_OPTIONS: Dict[str, Tuple[str, ...]] = {
    "all": ("alpha", "lambda", "order"),
    **dict.fromkeys(CORE_IDENTITY_IDS + PLUS_IDENTITY_IDS, ("order",)),
    **dict.fromkeys(GENERAL_IDENTITY_IDS, ("alpha", "lambda", "order")),
    "det-relation": (),
    "alt-sum": (),
    "reductions": ("alpha", "lambda"),
}

VERIFY_CSV_HEADER = (
    "id",
    "k",
    "n",
    "alpha",
    "lambda",
    "order",
    "window_lo",
    "window_hi",
    "passed",
    "discrepancy_exponent",
    "discrepancy_lhs",
    "discrepancy_rhs",
)

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


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity check at one parameter point."""

    identity_id: str
    k: int
    alpha: Optional[Fraction]
    lam: Optional[Fraction]
    order: int
    window: Tuple[int, int]
    passed: bool
    first_discrepancy: Optional[Tuple[int, Fraction, Fraction]]

    def to_dict(self) -> dict:
        disc = None
        if self.first_discrepancy is not None:
            e, lhs, rhs = self.first_discrepancy
            disc = {"exponent": e, "lhs": str(lhs), "rhs": str(rhs)}
        return {
            "identity_id": self.identity_id,
            "k": self.k,
            "alpha": None if self.alpha is None else str(self.alpha),
            "lambda": None if self.lam is None else str(self.lam),
            "order": self.order,
            "window": list(self.window),
            "passed": self.passed,
            "first_discrepancy": disc,
        }

    def describe(self) -> str:
        params = f"{self.identity_id} k={self.k}"
        if self.alpha is not None:
            params += f" alpha={self.alpha}"
        if self.lam is not None:
            params += f" lambda={self.lam}"
        head = f"{params} order={self.order} window=[{self.window[0]},{self.window[1]})"
        if self.passed:
            return f"{head} ok"
        e, lhs, rhs = self.first_discrepancy
        return f"{head} FAIL at t^{e}: lhs={lhs} rhs={rhs}"

    def csv_cells(self) -> List[str]:
        disc = self.first_discrepancy or (None, None, None)
        head = [self.identity_id, self.k, None, self.alpha, self.lam, self.order]
        return [_csv_cell(v) for v in head + [*self.window, self.passed, *disc]]


@dataclass(frozen=True)
class CheckRow:
    """Outcome of one named check; fields holds its point, e.g. n and k,
    in print order, with rationals as their literal text."""

    check: str
    fields: Dict[str, object]
    passed: bool

    def to_dict(self) -> dict:
        return {"check": self.check, **self.fields, "passed": self.passed}

    def describe(self) -> str:
        line = " ".join([self.check] + [f"{name}={value}" for name, value in self.fields.items()])
        return line + (" ok" if self.passed else " FAIL")

    def csv_cells(self) -> List[str]:
        columns = {"id": self.check, **self.fields, "passed": self.passed}
        return [_csv_cell(columns.get(name)) for name in VERIFY_CSV_HEADER]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else str(value)


# -- ladders -----------------------------------------------------------------


class _Ladder:
    """Powers base**1, base**2, ... and derivatives base, base', ... of one
    base series; each entry is computed once, when first asked for."""

    def __init__(self, base: LaurentSeries):
        self.base = base
        self._powers = [base]
        self._derivatives = [base]

    def powers(self, count: int) -> List[LaurentSeries]:
        """[base**1, ..., base**count]"""
        while len(self._powers) < count:
            self._powers.append(self._powers[-1] * self.base)
        return self._powers[:count]

    def derivatives(self, count: int) -> List[LaurentSeries]:
        """[base, base', ..., base^(count-1)]"""
        while len(self._derivatives) < count:
            self._derivatives.append(self._derivatives[-1].derivative())
        return self._derivatives[:count]


class _Ladders:
    """The ladder of every base 1/(lam e**(alpha t) + c) one sweep reads,
    keyed on (alpha, lam, c) and built at the top source order the first
    time a check asks for it.

    A check at a lower source ``order`` gets what a build at that order
    gives from the stored entries less their last ``top - order``
    coefficients: every stored coefficient is exact, and once the valuation
    is visible each step's precision moves one-for-one with the source
    order (every base has a nonzero leading coefficient).  A linear
    combination of entries moves the same way, so each side is truncated
    once, after it is combined.
    """

    def __init__(self, top: int):
        self.top = top
        self._store: Dict[tuple, _Ladder] = {}

    def get(self, key: tuple) -> _Ladder:
        ladder = self._store.get(key)
        if ladder is None:
            ladder = _Ladder(recip_exp_linear(*key, self.top))
            self._store[key] = ladder
        return ladder


# -- the spec table -----------------------------------------------------------

# Bases as the (alpha, lam, c) of 1/(lam e**(alpha t) + c).  None stands for
# G, whose (alpha, lam, -1) are the parameters of the check.
_f, _g, _h = (1, 1, -1), (-1, -1, 1), (1, 1, 1)


def _g1_weight(k: int, m: int, alpha: Fraction) -> Fraction:
    return (-1) ** k * alpha**k * factorial(m - 1) * stirling2(k + 1, m)


def _g2_weight(k: int, m: int, alpha: Fraction) -> Fraction:
    return (-1) ** (m - 1) * alpha ** (1 - m) * Fraction(stirling1(k, m), factorial(k - 1))


# id: (lhs base, lhs kind, weight of term m, rhs base, additive constant).
# Kind "derivative" sets lhs = base^(k) against the powers rhs**1..rhs**(k+1);
# "power" sets lhs = base**k against the derivatives rhs^(0)..rhs^(k-1).
# A weight is a function of (k, m, alpha); a constant, of k.
_SPECS: Dict[str, tuple] = {
    "I1": (_f, "derivative", lambda k, m, a: lambda_coeff(k, m), _f, None),
    "I2": (_g, "derivative", lambda k, m, a: mu_coeff(k, m), _g, None),
    "I3": (_g, "derivative", lambda k, m, a: lambda_coeff(k, m), _f, None),
    "I4": (_f, "derivative", lambda k, m, a: mu_coeff(k, m), _g, None),
    "I5": (_g, "power", lambda k, m, a: a_coeff(k, m), _g, None),
    "I6": (_f, "power", lambda k, m, a: b_coeff(k, m), _f, None),
    "I7": (_g, "power", lambda k, m, a: a_coeff(k, m), _f, lambda k: 1),
    "I8": (_f, "power", lambda k, m, a: b_coeff(k, m), _g, lambda k: (-1) ** k),
    "P1": (_h, "derivative", lambda k, m, a: (-1) ** (m - 1) * lambda_coeff(k, m), _h, None),
    "P2": (_h, "power", lambda k, m, a: (-1) ** (k - 1) * b_coeff(k, m), _h, None),
    "G1": (None, "derivative", _g1_weight, None, None),
    "G2": (None, "power", _g2_weight, None, None),
}


def _weights(identity_id: str, k: int, alpha: Optional[Fraction]) -> List[Fraction]:
    _, kind, weight, _, _ = _SPECS[identity_id]
    count = k + 1 if kind == "derivative" else k
    return [Fraction(weight(k, m, alpha)) for m in range(1, count + 1)]


def core_identity_coefficients(identity_id: str, k: int) -> List[Fraction]:
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
    alpha: Optional[Fraction],
    lam: Optional[Fraction],
    order: int,
    lhs: LaurentSeries,
    rhs: LaurentSeries,
) -> VerificationReport:
    lo = min(lhs.offset, rhs.offset)
    hi = min(lhs.precision, rhs.precision)
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
    alpha: Optional[Fraction],
    lam: Optional[Fraction],
    order: Optional[int],
    coeff_override: Optional[Sequence[Scalar]],
    ladders: Optional[_Ladders],
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
    if ladders is None:
        ladders = _Ladders(order)
    lhs_base, kind, _, rhs_base, constant = _SPECS[identity_id]
    lhs_ladder = ladders.get(lhs_base or (alpha, lam, -1))
    rhs_ladder = ladders.get(rhs_base or (alpha, lam, -1))
    if coeff_override is not None:
        weights = [Fraction(w) for w in coeff_override]
    elif identity_id in CORE_IDENTITY_IDS:
        weights = core_identity_coefficients(identity_id, k)
    else:
        weights = _weights(identity_id, k, alpha)
    # Each side drops the last top - order coefficients once (see _Ladders).
    # The power is taken of the truncated base: that costs fewer products
    # of coefficients than truncating the power.
    trim = ladders.top - order
    if kind == "derivative":
        lhs = lhs_ladder.derivatives(k + 1)[k]
        lhs = lhs.truncated(lhs.precision - trim)
        rhs = linear_combination(rhs_ladder.powers(k + 1), weights)
    else:
        base = lhs_ladder.base
        lhs = base.truncated(base.precision - trim) ** k
        rhs = linear_combination(rhs_ladder.derivatives(k), weights)
    if constant is not None:
        # A nonzero weighted sum is known no further than its base; the
        # exact zero is known to every order, so the base's precision
        # bounds the constant and the sum stays finite.
        precision = min(rhs.precision, rhs_ladder.base.precision)
        rhs = rhs + LaurentSeries.constant(constant(k), precision)
    rhs = rhs.truncated(rhs.precision - trim)
    return _compare(identity_id, k, alpha, lam, order, lhs, rhs)


def verify_core_identity(
    identity_id: str,
    k: int,
    order: Optional[int] = None,
    coeff_override: Optional[Sequence[Scalar]] = None,
    *,
    _ladders: Optional[_Ladders] = None,
) -> VerificationReport:
    """Check one of I1..I8 at index k by exact series comparison.

    coeff_override replaces the ladder weight list; it exists so tests can
    prove the comparison detects any single corrupted coefficient.
    """
    if identity_id not in CORE_IDENTITY_IDS:
        raise DomainError(f"unknown core identity {identity_id!r}")
    return _verify(identity_id, k, None, None, order, coeff_override, _ladders)


def verify_plus_identity(
    identity_id: str,
    k: int,
    order: Optional[int] = None,
    coeff_override: Optional[Sequence[Scalar]] = None,
    *,
    _ladders: Optional[_Ladders] = None,
) -> VerificationReport:
    """Check P1 or P2, the derivative/power pair for h = 1/(e**t + 1)."""
    if identity_id not in PLUS_IDENTITY_IDS:
        raise DomainError(f"unknown plus identity {identity_id!r}")
    return _verify(identity_id, k, None, None, order, coeff_override, _ladders)


def verify_general_derivative(
    k: int,
    alpha: Scalar,
    lam: Scalar,
    order: Optional[int] = None,
    *,
    _ladders: Optional[_Ladders] = None,
) -> VerificationReport:
    """Check G1: the k-th derivative of 1/(lam e**(alpha t) - 1) as a
    power sum with weights (-1)**k alpha**k (m-1)! S(k+1, m)."""
    return _verify("G1", k, Fraction(alpha), Fraction(lam), order, None, _ladders)


def verify_general_power(
    k: int,
    alpha: Scalar,
    lam: Scalar,
    order: Optional[int] = None,
    *,
    _ladders: Optional[_Ladders] = None,
) -> VerificationReport:
    """Check G2: the k-th power of 1/(lam e**(alpha t) - 1) as a
    derivative sum with weights (-1)**(m-1) alpha**(1-m) s(k, m)/(k-1)!."""
    return _verify("G2", k, Fraction(alpha), Fraction(lam), order, None, _ladders)


def run_sweep(
    targets: Sequence[str],
    k_max: int,
    order: Optional[int] = None,
    alphas: Optional[Sequence[Scalar]] = None,
    lambdas: Optional[Sequence[Scalar]] = None,
) -> List[VerificationReport]:
    """Verify the given identity tags for k = 1..k_max.

    General identities run over the cartesian grid of alphas x lambdas
    (defaults DEFAULT_ALPHAS / DEFAULT_LAMBDAS).  Report order is
    deterministic: targets as given, k ascending, then (alpha, lambda)
    ascending.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    alpha_grid = sorted(Fraction(a) for a in (alphas or DEFAULT_ALPHAS))
    lambda_grid = sorted(Fraction(v) for v in (lambdas or DEFAULT_LAMBDAS))
    # Every base and ladder is built once, at the order of the widest check.
    ladders = _Ladders(default_order(k_max) if order is None else order)
    reports: List[VerificationReport] = []
    for target in targets:
        if target in GENERAL_IDENTITY_IDS:
            check = verify_general_derivative if target == "G1" else verify_general_power
            for k in range(1, k_max + 1):
                for alpha in alpha_grid:
                    for lam in lambda_grid:
                        reports.append(check(k, alpha, lam, order, _ladders=ladders))
        elif target in _SPECS:
            check = verify_core_identity if target in CORE_IDENTITY_IDS else verify_plus_identity
            for k in range(1, k_max + 1):
                reports.append(check(target, k, order, _ladders=ladders))
        else:
            raise DomainError(f"unknown identity tag {target!r}")
    return reports


def verify_target(
    target: str,
    k_max: int,
    alpha: Optional[Scalar] = None,
    lam: Optional[Scalar] = None,
    order: Optional[int] = None,
) -> List[Union[VerificationReport, CheckRow]]:
    """Every row of ``verify`` on one target, in order: the ``run_sweep``
    reports of its tags (all twelve for "all"), then its det-relation,
    alt-sum and reductions rows.  alpha and lam narrow the G1/G2 and
    reductions grids to one value each."""
    if target not in VERIFY_OPTIONS:
        raise DomainError(f"unknown verify target {target!r}")
    alphas = None if alpha is None else [alpha]
    lambdas = None if lam is None else [lam]
    tags = ALL_IDENTITY_IDS if target == "all" else ((target,) if target in _SPECS else ())
    rows: List[Union[VerificationReport, CheckRow]] = []
    rows += run_sweep(tags, k_max, order, alphas, lambdas)
    if target in ("all", "det-relation"):
        for n, k, passed in determinant_relation_checks(k_max):
            rows.append(CheckRow("det-relation", {"n": n, "k": k}, passed))
    if target in ("all", "alt-sum"):
        for n, passed in alternating_sum_checks(k_max):
            rows.append(CheckRow("alt-sum", {"n": n}, passed))
    if target in ("all", "reductions"):
        for n, a, v, passed in two_param_reduction_sweep(k_max, alphas, lambdas):
            point = {"n": n, "alpha": format_rational(a), "lambda": format_rational(v)}
            rows.append(CheckRow("reductions", point, passed))
    return rows
