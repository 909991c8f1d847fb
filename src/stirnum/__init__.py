"""Exact Stirling-number computation of Bernoulli/Euler-type families.

Everything is computed twice, by independent routes: closed forms built
from Stirling numbers on one side, coefficient extraction from truncated
generating series on the other.  All arithmetic is exact rational; there
are no tolerances anywhere.
"""

from .errors import (
    ConsistencyError,
    DomainError,
    PoleError,
    PrecisionExhaustedError,
    RationalParseError,
    ZeroSeriesError,
)
from .identities import (
    ALL_IDENTITY_IDS,
    CORE_IDENTITY_IDS,
    DEFAULT_ALPHAS,
    DEFAULT_LAMBDAS,
    DEFAULT_MIN_WINDOW,
    GENERAL_IDENTITY_IDS,
    PLUS_IDENTITY_IDS,
    VERIFY_CSV_HEADER,
    VERIFY_OPTIONS,
    CheckRow,
    VerificationReport,
    core_identity_coefficients,
    default_order,
    run_sweep,
    verify_core_identity,
    verify_general_derivative,
    verify_general_power,
    verify_plus_identity,
    verify_target,
)
from .rationals import Rational, binomial, factorial, format_rational, parse_rational
from .sequences import (
    FAMILIES,
    REDUCTION_ALPHAS,
    REDUCTION_LAMBDAS,
    Polynomial,
    SequenceValue,
    alternating_sum_checks,
    apostol_bernoulli_formula,
    apostol_bernoulli_oracle,
    bernoulli_formula,
    bernoulli_oracle,
    determinant_relation_checks,
    euler_number,
    euler_polynomial_formula,
    euler_polynomial_oracle,
    sequence_value,
    stirling_alternating_sum,
    two_param_euler_formula,
    two_param_euler_oracle,
    two_param_reduction_sweep,
    verify_two_param_reductions,
)
from .series import ZERO, LaurentSeries, exp_linear, recip_exp_linear
from .stirling import (
    StirlingTable,
    a_coeff,
    b_coeff,
    lambda_coeff,
    m_determinant,
    mu_coeff,
    stirling1,
    stirling2,
    stirling2_explicit,
    verify_first_kind_determinant_relation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ConsistencyError",
    "DomainError",
    "PoleError",
    "PrecisionExhaustedError",
    "RationalParseError",
    "ZeroSeriesError",
    # rationals
    "Rational",
    "binomial",
    "factorial",
    "format_rational",
    "parse_rational",
    # series
    "LaurentSeries",
    "ZERO",
    "exp_linear",
    "recip_exp_linear",
    # stirling
    "StirlingTable",
    "a_coeff",
    "b_coeff",
    "lambda_coeff",
    "m_determinant",
    "mu_coeff",
    "stirling1",
    "stirling2",
    "stirling2_explicit",
    "verify_first_kind_determinant_relation",
    # sequences
    "FAMILIES",
    "Polynomial",
    "REDUCTION_ALPHAS",
    "REDUCTION_LAMBDAS",
    "SequenceValue",
    "alternating_sum_checks",
    "apostol_bernoulli_formula",
    "apostol_bernoulli_oracle",
    "bernoulli_formula",
    "bernoulli_oracle",
    "determinant_relation_checks",
    "euler_number",
    "euler_polynomial_formula",
    "euler_polynomial_oracle",
    "sequence_value",
    "stirling_alternating_sum",
    "two_param_euler_formula",
    "two_param_euler_oracle",
    "two_param_reduction_sweep",
    "verify_two_param_reductions",
    # identities
    "ALL_IDENTITY_IDS",
    "CORE_IDENTITY_IDS",
    "DEFAULT_ALPHAS",
    "DEFAULT_LAMBDAS",
    "DEFAULT_MIN_WINDOW",
    "GENERAL_IDENTITY_IDS",
    "PLUS_IDENTITY_IDS",
    "VERIFY_CSV_HEADER",
    "VERIFY_OPTIONS",
    "CheckRow",
    "VerificationReport",
    "core_identity_coefficients",
    "default_order",
    "run_sweep",
    "verify_core_identity",
    "verify_general_derivative",
    "verify_general_power",
    "verify_plus_identity",
    "verify_target",
]
