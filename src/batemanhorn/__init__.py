"""Bateman-Horn constants, prediction integrals, and exact counting of
simultaneous prime values for systems of integer polynomials.

Quick start::

    from batemanhorn import (parse_polynomial, build_system,
                             bh_constant, count_series, predict)

    system = build_system([parse_polynomial("n"), parse_polynomial("2*n+1")])
    c = bh_constant(system, 10**6)                # ~1.320324 (= 2 * C_2)
    actuals = count_series(system, [10**2, 10**3, 10**4])
    rows = predict(system, [10**2, 10**3, 10**4], c, actuals)
"""

from .constants import (
    ACCELERATED,
    NAIVE,
    EulerProductResult,
    bh_constant,
    bh_constant_accelerated,
    bh_constant_naive,
    discriminant,
    is_fundamental_discriminant,
    l_value_negative_fundamental,
)
from .counting import CountResult, EngineConfig, count_series
from .errors import (
    BatemanHornError,
    ConstantPolynomialError,
    DuplicatePolynomialError,
    IdenticallyZeroError,
    InadmissibleSystemError,
    IrreducibilityError,
    LimitTooLargeError,
    NonPositiveLeadError,
    NotFundamentalError,
    NotNegativeError,
    NotPrimeError,
    NotQuadraticError,
    PolynomialSyntaxError,
    RangeOverflowError,
    SingularIntegrandError,
    ToleranceNotMetError,
)
from .modular import RootSet, count_roots, kronecker, list_roots, sqrt_mod
from .poly import (
    Polynomial,
    PolySystem,
    build_system,
    evaluate,
    format_polynomial,
    irreducibility_evidence,
    parse_polynomial,
    threshold_cutoff,
)
from .primality import (
    DETERMINISTIC,
    PROBABLE,
    PrimalityResult,
    classify,
    is_prime,
    primes_up_to,
    simple_sieve,
)
from .quadrature import (
    PredictionRow,
    integrate_modified,
    integrate_original,
    predict,
    round_half_away,
)

__version__ = "0.1.0"

__all__ = [
    "ACCELERATED", "NAIVE", "DETERMINISTIC", "PROBABLE",
    "Polynomial", "PolySystem", "RootSet",
    "EulerProductResult", "CountResult", "EngineConfig", "PredictionRow",
    "PrimalityResult",
    "parse_polynomial", "format_polynomial", "evaluate", "build_system",
    "irreducibility_evidence", "threshold_cutoff",
    "kronecker", "count_roots", "list_roots", "sqrt_mod",
    "primes_up_to", "simple_sieve", "is_prime", "classify",
    "bh_constant", "bh_constant_naive", "bh_constant_accelerated",
    "l_value_negative_fundamental", "discriminant",
    "is_fundamental_discriminant",
    "count_series",
    "integrate_modified", "integrate_original", "predict", "round_half_away",
    "BatemanHornError", "PolynomialSyntaxError", "NonPositiveLeadError",
    "ConstantPolynomialError", "RangeOverflowError",
    "DuplicatePolynomialError", "InadmissibleSystemError",
    "IrreducibilityError", "NotPrimeError", "IdenticallyZeroError",
    "NotFundamentalError", "NotNegativeError", "NotQuadraticError",
    "LimitTooLargeError", "SingularIntegrandError", "ToleranceNotMetError",
]
