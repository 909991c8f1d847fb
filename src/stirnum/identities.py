"""Mechanical verification of the derivative/power identity families.

Each check builds both sides of one identity as truncated Laurent series
and compares coefficients exactly over the widest window both sides
support.  A report never claims success on a window narrower than
``min_window`` coefficients; it raises instead, so a pass always reflects
a real comparison.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, PrecisionExhaustedError
from .rationals import factorial
from .series import LaurentSeries, exp_linear, linear_combination
from .stirling import a_coeff, b_coeff, lambda_coeff, mu_coeff, stirling1, stirling2

__all__ = [
    "VerificationReport",
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
]

Scalar = Union[int, Fraction]

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


# -- base series -------------------------------------------------------------


def _recip_exp_minus_one(order: int) -> LaurentSeries:
    # f = 1/(e**t - 1), a simple pole at 0
    return (exp_linear(1, order) - LaurentSeries.one(order)).reciprocal()


def _recip_one_minus_exp_neg(order: int) -> LaurentSeries:
    # g = 1/(1 - e**(-t)) = 1 + f
    return (LaurentSeries.one(order) - exp_linear(-1, order)).reciprocal()


def _recip_exp_plus_one(order: int) -> LaurentSeries:
    # h = 1/(e**t + 1), regular at 0 with value 1/2
    return (exp_linear(1, order) + LaurentSeries.one(order)).reciprocal()


def _recip_general(alpha: Fraction, lam: Fraction, order: int) -> LaurentSeries:
    # G = 1/(lam * e**(alpha t) - 1); Laurent at lam = 1, regular otherwise
    return (exp_linear(alpha, order).scale(lam) - LaurentSeries.one(order)).reciprocal()


_BASES = {
    "f": _recip_exp_minus_one,
    "g": _recip_one_minus_exp_neg,
    "h": _recip_exp_plus_one,
    "G": _recip_general,
}


class _Ladder:
    """Powers base**1, base**2, ... and derivatives base, base', ... of one
    base series built at source order ``top``; each entry is computed once,
    when first asked for.

    A read at a lower source ``order`` returns the entry a build at that
    order gives.  Every stored coefficient is exact, and once the valuation
    is visible each step's precision moves one-for-one with the source
    order; all four bases have a nonzero leading coefficient.  So that
    entry is the stored one less its last ``top - order`` coefficients.
    """

    def __init__(self, base: LaurentSeries, top: int):
        self.top = top
        self._powers = [base]
        self._derivatives = [base]

    def _read(self, entry: LaurentSeries, order: int) -> LaurentSeries:
        return entry.truncated(entry.precision - (self.top - order))

    def base(self, order: int) -> LaurentSeries:
        return self._read(self._powers[0], order)

    def powers(self, count: int, order: int) -> List[LaurentSeries]:
        """[base**1, ..., base**count]"""
        while len(self._powers) < count:
            self._powers.append(self._powers[-1] * self._powers[0])
        return [self._read(entry, order) for entry in self._powers[:count]]

    def derivative(self, k: int, order: int) -> LaurentSeries:
        """base^(k)"""
        while len(self._derivatives) <= k:
            self._derivatives.append(self._derivatives[-1].derivative())
        return self._read(self._derivatives[k], order)

    def derivatives(self, count: int, order: int) -> List[LaurentSeries]:
        """[base, base', ..., base^(count-1)]"""
        return [self.derivative(k, order) for k in range(count)]


class _Ladders:
    """The ladder of every base series one sweep reads, built at its top
    source order the first time a check asks for it."""

    def __init__(self, top: int):
        self.top = top
        self._store: Dict[tuple, _Ladder] = {}

    def get(self, name: str, *params: Fraction) -> _Ladder:
        key = (name,) + params
        ladder = self._store.get(key)
        if ladder is None:
            ladder = _Ladder(_BASES[name](*params, self.top), self.top)
            self._store[key] = ladder
        return ladder


# -- the eight core identities ------------------------------------------------

# id: (lhs base, lhs kind, coefficient family, rhs base, additive constant)
# lhs kind "derivative" means the k-th derivative against a power ladder;
# "power" means the k-th power against a derivative ladder.
_CORE_FORMS: Dict[str, Tuple[str, str, str, str, str]] = {
    "I1": ("f", "derivative", "lambda", "f", "none"),
    "I2": ("g", "derivative", "mu", "g", "none"),
    "I3": ("g", "derivative", "lambda", "f", "none"),
    "I4": ("f", "derivative", "mu", "g", "none"),
    "I5": ("g", "power", "a", "g", "none"),
    "I6": ("f", "power", "b", "f", "none"),
    "I7": ("g", "power", "a", "f", "one"),
    "I8": ("f", "power", "b", "g", "sign"),
}


def core_identity_coefficients(identity_id: str, k: int) -> List[Fraction]:
    """The weight list applied to the power or derivative ladder of the
    given core identity, for m = 1 .. (k+1 or k)."""
    if identity_id not in CORE_IDENTITY_IDS:
        raise DomainError(f"unknown core identity {identity_id!r}")
    if k < 1:
        raise DomainError(f"identities need k >= 1, got {k}")
    family = _CORE_FORMS[identity_id][2]
    if family == "lambda":
        return [Fraction(lambda_coeff(k, m)) for m in range(1, k + 2)]
    if family == "mu":
        return [Fraction(mu_coeff(k, m)) for m in range(1, k + 2)]
    if family == "a":
        return [a_coeff(k, m) for m in range(1, k + 1)]
    return [b_coeff(k, m) for m in range(1, k + 1)]


def _compare(
    identity_id: str,
    k: int,
    alpha: Optional[Fraction],
    lam: Optional[Fraction],
    order: int,
    lhs: LaurentSeries,
    rhs: LaurentSeries,
    min_window: int,
) -> VerificationReport:
    lo = min(lhs.offset, rhs.offset)
    hi = min(lhs.precision, rhs.precision)
    overlap = hi - max(lhs.offset, rhs.offset)
    if hi <= lo or overlap < min_window:
        raise PrecisionExhaustedError(
            f"{identity_id} k={k}: window [{lo},{hi}) holds {max(overlap, 0)} shared "
            f"coefficients, need {min_window}; raise the order"
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


def verify_core_identity(
    identity_id: str,
    k: int,
    order: Optional[int] = None,
    coeff_override: Optional[Sequence[Scalar]] = None,
    min_window: int = DEFAULT_MIN_WINDOW,
    *,
    _ladders: Optional[_Ladders] = None,
) -> VerificationReport:
    """Check one of I1..I8 at index k by exact series comparison.

    coeff_override replaces the ladder weight list; it exists so tests can
    prove the comparison detects any single corrupted coefficient.
    """
    if identity_id not in CORE_IDENTITY_IDS:
        raise DomainError(f"unknown core identity {identity_id!r}")
    if k < 1:
        raise DomainError(f"identities need k >= 1, got {k}")
    if order is None:
        order = default_order(k)
    ladders = _Ladders(order) if _ladders is None else _ladders
    lhs_name, lhs_kind, _, rhs_name, constant = _CORE_FORMS[identity_id]
    lhs_ladder, rhs_ladder = ladders.get(lhs_name), ladders.get(rhs_name)
    weights: Sequence[Fraction]
    if coeff_override is not None:
        weights = [Fraction(w) for w in coeff_override]
    else:
        weights = core_identity_coefficients(identity_id, k)
    if lhs_kind == "derivative":
        lhs = lhs_ladder.derivative(k, order)
        rhs = linear_combination(rhs_ladder.powers(k + 1, order), weights)
    else:
        lhs = lhs_ladder.base(order) ** k
        rhs = linear_combination(rhs_ladder.derivatives(k, order), weights)
        if constant == "one":
            rhs = rhs + LaurentSeries.constant(1, rhs.precision)
        elif constant == "sign":
            rhs = rhs + LaurentSeries.constant((-1) ** k, rhs.precision)
    return _compare(identity_id, k, None, None, order, lhs, rhs, min_window)


def verify_plus_identity(
    identity_id: str,
    k: int,
    order: Optional[int] = None,
    coeff_override: Optional[Sequence[Scalar]] = None,
    min_window: int = DEFAULT_MIN_WINDOW,
    *,
    _ladders: Optional[_Ladders] = None,
) -> VerificationReport:
    """Check P1 or P2, the derivative/power pair for h = 1/(e**t + 1)."""
    if identity_id not in PLUS_IDENTITY_IDS:
        raise DomainError(f"unknown plus identity {identity_id!r}")
    if k < 1:
        raise DomainError(f"identities need k >= 1, got {k}")
    if order is None:
        order = default_order(k)
    ladder = (_Ladders(order) if _ladders is None else _ladders).get("h")
    if coeff_override is not None:
        weights = [Fraction(w) for w in coeff_override]
    elif identity_id == "P1":
        weights = [
            (-1) ** (m - 1) * Fraction(lambda_coeff(k, m)) for m in range(1, k + 2)
        ]
    else:
        weights = [(-1) ** (k - 1) * b_coeff(k, m) for m in range(1, k + 1)]
    if identity_id == "P1":
        lhs = ladder.derivative(k, order)
        rhs = linear_combination(ladder.powers(k + 1, order), weights)
    else:
        lhs = ladder.base(order) ** k
        rhs = linear_combination(ladder.derivatives(k, order), weights)
    return _compare(identity_id, k, None, None, order, lhs, rhs, min_window)


def _check_general_args(k: int, alpha: Fraction, lam: Fraction) -> None:
    if k < 1:
        raise DomainError(f"identities need k >= 1, got {k}")
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    if lam == 0:
        raise DomainError("lambda must be nonzero")


def verify_general_derivative(
    k: int,
    alpha: Scalar,
    lam: Scalar,
    order: Optional[int] = None,
    min_window: int = DEFAULT_MIN_WINDOW,
    *,
    _ladders: Optional[_Ladders] = None,
) -> VerificationReport:
    """Check G1: the k-th derivative of 1/(lam e**(alpha t) - 1) as a
    power sum with weights (-1)**k alpha**k (m-1)! S(k+1, m)."""
    alpha, lam = Fraction(alpha), Fraction(lam)
    _check_general_args(k, alpha, lam)
    if order is None:
        order = default_order(k)
    ladder = (_Ladders(order) if _ladders is None else _ladders).get("G", alpha, lam)
    lhs = ladder.derivative(k, order)
    weights = [
        (-1) ** k * alpha**k * factorial(m - 1) * stirling2(k + 1, m)
        for m in range(1, k + 2)
    ]
    rhs = linear_combination(ladder.powers(k + 1, order), weights)
    return _compare("G1", k, alpha, lam, order, lhs, rhs, min_window)


def verify_general_power(
    k: int,
    alpha: Scalar,
    lam: Scalar,
    order: Optional[int] = None,
    min_window: int = DEFAULT_MIN_WINDOW,
    *,
    _ladders: Optional[_Ladders] = None,
) -> VerificationReport:
    """Check G2: the k-th power of 1/(lam e**(alpha t) - 1) as a
    derivative sum with weights (-1)**(m-1) alpha**(1-m) s(k, m)/(k-1)!."""
    alpha, lam = Fraction(alpha), Fraction(lam)
    _check_general_args(k, alpha, lam)
    if order is None:
        order = default_order(k)
    ladder = (_Ladders(order) if _ladders is None else _ladders).get("G", alpha, lam)
    lhs = ladder.base(order) ** k
    inv_kfac = Fraction(1, factorial(k - 1))
    weights = [
        (-1) ** (m - 1) * alpha ** (1 - m) * stirling1(k, m) * inv_kfac
        for m in range(1, k + 1)
    ]
    rhs = linear_combination(ladder.derivatives(k, order), weights)
    return _compare("G2", k, alpha, lam, order, lhs, rhs, min_window)


def run_sweep(
    targets: Sequence[str],
    k_max: int,
    order: Optional[int] = None,
    alphas: Optional[Sequence[Scalar]] = None,
    lambdas: Optional[Sequence[Scalar]] = None,
    min_window: int = DEFAULT_MIN_WINDOW,
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
        if target in CORE_IDENTITY_IDS:
            for k in range(1, k_max + 1):
                reports.append(
                    verify_core_identity(target, k, order, None, min_window, _ladders=ladders)
                )
        elif target in PLUS_IDENTITY_IDS:
            for k in range(1, k_max + 1):
                reports.append(
                    verify_plus_identity(target, k, order, None, min_window, _ladders=ladders)
                )
        elif target in GENERAL_IDENTITY_IDS:
            check = verify_general_derivative if target == "G1" else verify_general_power
            for k in range(1, k_max + 1):
                for alpha in alpha_grid:
                    for lam in lambda_grid:
                        reports.append(
                            check(k, alpha, lam, order, min_window, _ladders=ladders)
                        )
        else:
            raise DomainError(f"unknown identity tag {target!r}")
    return reports
