"""Euler product constants for polynomial systems.

The density constant of an admissible system {f_1,...,f_M} is the product
over all primes of (1 - 1/p)^(-M) (1 - omega(p)/p), omega the root count of
the product polynomial mod p.  The direct truncated product (mode 'naive')
converges slowly and only conditionally.  For a single quadratic with a
negative fundamental discriminant D, multiplying through by the Dirichlet
series identity L(1, chi_D) = prod (1 - chi_D(p)/p)^(-1) leaves a product
whose factors are 1 + O(p^-2) (mode 'accelerated'), absolutely convergent
and accurate to ~1e-7 already at a 10^6 truncation.  bh_constant chooses
between the two.

Both run through one loop over batches of modular._LANES primes sliced from
primality._prime_segments: the root counts of a batch come from
modular._root_counts, its factors from _factors, and its running product
from np.cumprod seeded with the product carried in.  The result is bit for
bit that of a loop doing prod *= factor one prime at a time, for two
reasons.  Each factor is the correctly rounded ratio of two exact integers,
one expression in lanes: int64 lanes where both are at most 2^53, exact in
float64, so one IEEE division rounds as int / int does, and elsewhere exact
Python ints in an object array, where the factor is int / int.  And cumprod
multiplies in order, one rounding per step, as the loop does.

The error_estimate field is the last-decade drift |value(P) - value(P/10)|,
an honest heuristic rather than a bound: no rigorous tail estimate exists
for the conditionally convergent form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import modular, primality
from .errors import NotFundamentalError, NotNegativeError, NotQuadraticError
from .poly import Polynomial, PolySystem, build_system

NAIVE = "naive"
ACCELERATED = "accelerated"
_EXACT = 1 << 53  # every integer up to it is exact in float64
_CHI_BLOCK = 1 << 16  # terms per numpy block of the L-value's character sum


@dataclass(frozen=True)
class EulerProductResult:
    value: float
    truncation: int
    mode: str
    error_estimate: float
    l_value: float | None = None


def bh_constant(system: PolySystem, truncation: int) -> EulerProductResult:
    """The constant by the best product available.

    A single quadratic with a negative fundamental discriminant D and
    |D| <= truncation gets the L-accelerated product; everything else gets
    the direct one.  The bound on |D| caps the L-value, a sum of |D|
    Kronecker symbols, at as many terms as there are integers up to the
    truncation.  Near that cap it costs more than the batched product
    (0.36 s against 0.04 s at 10^6, in numpy blocks), the price of factors
    that are 1 + O(p^-2) instead of a conditionally convergent product.
    """
    if system.m == 1 and system.polys[0].degree == 2:
        d = discriminant(system.polys[0])
        if -int(truncation) <= d < 0 and is_fundamental_discriminant(d):
            return _euler_product(system, truncation, d)
    return bh_constant_naive(system, truncation)


def bh_constant_naive(system: PolySystem, truncation: int) -> EulerProductResult:
    """Directly truncated Euler product over all primes <= truncation."""
    return _euler_product(system, truncation, None)


def discriminant(f: Polynomial) -> int:
    if f.degree != 2:
        raise NotQuadraticError(f"{f} is not quadratic")
    c, b, a = f.coeffs
    return b * b - 4 * a * c


def is_fundamental_discriminant(d: int) -> bool:
    """True when d is the discriminant of a quadratic field."""
    if d in (0, 1):
        return False
    r = d % 4
    if r == 1:
        return _squarefree(abs(d))
    if r == 0:
        m = d // 4
        return m % 4 in (2, 3) and _squarefree(abs(m))
    return False


def _squarefree(n: int) -> bool:
    return all(e == 1 for e in primality.factorize(n).values())


def l_value_negative_fundamental(d: int) -> float:
    """L(1, chi_d) for a negative fundamental discriminant d.

    chi_d is odd and primitive of conductor q = |d|, so the value has the
    exact finite form -(pi / q^{3/2}) * sum_{a=1}^{q-1} chi_d(a) * a; the
    only error is double rounding.  chi_d(a) = kronecker(d, a) comes from
    its lane form in numpy blocks, and the sum is an exact Python int.
    """
    if d >= 0:
        raise NotNegativeError(f"discriminant must be negative, got {d}")
    if not is_fundamental_discriminant(d):
        raise NotFundamentalError(f"{d} is not a fundamental discriminant")
    q = -d
    total = 0
    for start in range(1, q, _CHI_BLOCK):
        a = np.arange(start, min(start + _CHI_BLOCK, q), dtype=np.int64)
        # exact in int64: |block sum| < _CHI_BLOCK * q < 2^63 for q < 2^47
        total += int(primality._lane_kronecker(d, a) @ a)
    return -math.pi * total / q**1.5


def bh_constant_accelerated(f: Polynomial,
                            truncation: int) -> EulerProductResult:
    """L-accelerated constant for a single irreducible quadratic with a
    negative fundamental discriminant D; the L-value costs O(|D|)."""
    d = discriminant(f)  # raises NotQuadraticError first
    system = build_system((f,))  # validates irreducibility and admissibility
    if d >= 0 or not is_fundamental_discriminant(d):
        raise NotFundamentalError(
            f"discriminant {d} of {f} is not a negative fundamental "
            f"discriminant; use the naive product instead")
    return _euler_product(system, truncation, d)


def _euler_product(system: PolySystem, truncation: int,
                   d: int | None) -> EulerProductResult:
    """Euler product over the primes <= truncation; d is None for the direct
    product, else the discriminant of the single quadratic to accelerate.

    The factor of p is (1 - omega/p) / ((1 - 1/p)^M (1 - chi/p)), with
    chi = 0 in the direct product.  Accelerated, chi = chi_D(p) and away
    from the primes dividing 2aD omega = 1 + chi, so the factor is
    1 + O(p^-2); 1/L(1, chi_D) = prod (1 - chi/p) restores the value.  The
    primes dividing 2aD enter, at any size, through the prefactor with their
    own omega, divided by 1 - chi/p so the L-substitution stays exact when
    chi != 0 there (p dividing 2a but not D).  In the batches their factors
    are set to 1.0, which the product skips exactly.
    """
    truncation = int(truncation)
    if truncation < 2:
        raise ValueError(f"truncation must be >= 2, got {truncation}")
    f, m = system.product, system.m
    l_value, inside, prefactor = None, [], 1.0
    if d is not None:
        l_value = l_value_negative_fundamental(d)
        p = sorted(primality.factorize(2 * f.leading_coefficient * -d))
        factor = _factors(np.array(p, dtype=object),  # primes of any size
                          np.array([modular._root_count(f, q) for q in p]),
                          np.array([primality.kronecker(d, q) for q in p]), m)
        # in order from 1.0, as prefactor *= factor would, as Python floats
        prefactor = math.prod(factor.tolist(), start=1.0)
        inside = [q for q in p if q <= truncation]
    inside = np.array(inside, dtype=np.int64)
    tenth = truncation // 10
    prod = 1.0
    at_tenth = None  # a prime lies in (tenth, truncation], so it gets set
    for seg in primality._prime_segments(truncation):
        for k in range(0, seg.size, modular._LANES):
            p = seg[k:k + modular._LANES]
            omega = modular._root_counts(f, p)
            # off the exceptional primes, chi_D(p) = omega - 1 (accelerated)
            chi = np.zeros_like(p) if d is None else omega - 1
            factor = _factors(p, omega, chi, m)
            factor[np.isin(p, inside)] = 1.0  # in the prefactor instead
            # sequential, so each step rounds as prod *= factor would
            running = np.cumprod(np.concatenate(([prod], factor)))
            i = int(np.searchsorted(p, tenth, side="right"))
            if at_tenth is None and i < p.size:
                at_tenth = float(running[i])
            prod = float(running[-1])
            del p, omega, chi, factor, running  # one batch alive at a time
    scale = prefactor if l_value is None else prefactor / l_value
    return EulerProductResult(value=scale * prod, truncation=truncation,
                              mode=NAIVE if d is None else ACCELERATED,
                              error_estimate=abs(scale * (prod - at_tenth)),
                              l_value=l_value)


def _factors(p: np.ndarray, omega: np.ndarray, chi: np.ndarray,
             m: int) -> np.ndarray:
    """The local factor (1 - omega/p) / ((1 - 1/p)^m (1 - chi/p)) at each
    prime of the int64 or object array p, as float64.

    One correctly rounded ratio of exact integers, with p cancelled when
    chi = 0 so that both stay below 2^53 longer; for omega = 1, m = 1,
    chi = 0 it is exactly 1.0.  Numerator and denominator are at most p^k,
    k = m + 1 where chi != 0 and k = m where chi = 0.  Where p^k <= 2^53
    the lanes are int64: both are exact in float64, and one IEEE division
    rounds their ratio as CPython's int / int does, which the other lanes
    take on exact Python ints in an object array.
    """
    out = np.empty(p.size)
    fast = p <= np.where(chi != 0, _exact_base(m + 1), _exact_base(m))
    for i, dtype in ((np.flatnonzero(fast), np.int64),
                     (np.flatnonzero(~fast), object)):
        pf, w, c = (v[i].astype(dtype, copy=False) for v in (p, omega, chi))
        q = np.where(c != 0, pf, 1)
        out[i] = (pf - w) * pf**(m - 1) * q / ((pf - 1)**m * (q - c))
    return out


def _exact_base(k: int) -> int:
    """The largest integer p with p^k <= 2^53."""
    p = round(2 ** (53 / k))
    while p**k > _EXACT:
        p -= 1
    while (p + 1)**k <= _EXACT:
        p += 1
    return p
