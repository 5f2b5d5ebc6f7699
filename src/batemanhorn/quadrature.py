"""Prediction integrals for polynomial systems, by adaptive Simpson.

integrate_modified evaluates the exact-logarithm integral
int dt / prod_i log f_i(t) from L = max(n0 + 1, 1) up to x;
integrate_original the asymptotic surrogate int_2^x dt / (log t)^M.  The
n0 + 1 lower bound avoids the log f = 0 singularity at n0 itself and
reproduces both published comparison tables; it is raised to 1 when n0 is
negative, because counts cover only n >= 1.  See the README note on
integration bounds.  Before integrating, a real point in [L, x] where some
f_i reaches 1 is found exactly (poly.count_roots_between) and raises
SingularIntegrandError.

Acceptance per subinterval is |S2 - S1| <= 15 * max(tol, tol * |S2|), i.e.
absolute or relative tolerance, whichever is reached first; the absolute
budget halves per subdivision.  The integrands are smooth, positive and
monotone, so the depth cap of 60 is never a constraint in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .counting import CountResult, _checked_checkpoints
from .errors import SingularIntegrandError, ToleranceNotMetError
from .constants import EulerProductResult
from .poly import PolySystem, _eval_exact, count_roots_between

_DEPTH_CAP = 60
DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class PredictionRow:
    """One comparison-table row: actual count versus the two model values."""

    x: int
    actual: int | None
    modified: float
    original: float
    rel_err_modified: float | None = None
    rel_err_original: float | None = None


def modified_lower_bound(system: PolySystem) -> int:
    """L = max(n0 + 1, 1), where the modified integral starts."""
    return max(system.n0 + 1, 1)


def _check_no_dip(system: PolySystem, x: float) -> None:
    """Raise SingularIntegrandError when some f_i reaches 1 at a real point
    in [L, x].  Every f_i exceeds 1 at the integer L > n0, so that is a
    root of f_i - 1 in (L, x], decided exactly."""
    lower = modified_lower_bound(system)
    for f in system.polys:
        shifted = [f.coeffs[0] - 1, *f.coeffs[1:]]
        if count_roots_between(shifted, lower, float(x)) > 0:
            raise SingularIntegrandError(
                f"{f} reaches 1 at a real point in [{lower}, {x}]; the "
                f"integrand is singular inside the requested interval")


def _modified_integrand(system: PolySystem):
    coeff_list = [f.coeffs for f in system.polys]

    def g(t: float) -> float:
        denom = 1.0
        for coeffs in coeff_list:
            v = _eval_exact(coeffs, t)
            if v <= 1.0:
                raise SingularIntegrandError(
                    f"polynomial value {v} <= 1 at t={t}; the integrand is "
                    f"singular inside the requested interval")
            denom *= math.log(v)
        assert denom > 0.0
        return 1.0 / denom

    return g


def _original_integrand(m: int):
    return lambda t: 1.0 / math.log(t) ** m


def _integral(g, lower: int, x: float, tol: float) -> float:
    if x < lower:
        raise ValueError(f"x={x} is below the integral lower bound {lower}")
    return _cumulative(g, lower, [x], tol)[0]


def integrate_modified(system: PolySystem, x: float,
                       tol: float = DEFAULT_TOL) -> float:
    """int_L^x dt / prod_i log f_i(t), L = max(n0 + 1, 1)."""
    _check_no_dip(system, x)
    return _integral(_modified_integrand(system), modified_lower_bound(system),
                     x, tol)


def integrate_original(system: PolySystem, x: float,
                       tol: float = DEFAULT_TOL) -> float:
    """int_2^x dt / (log t)^M; the caller scales by C / prod deg f_i."""
    return _integral(_original_integrand(system.m), 2, x, tol)


def predict(system: PolySystem, checkpoints: Sequence[int],
            constant: EulerProductResult,
            actuals: Sequence[CountResult] | None = None,
            tol: float = DEFAULT_TOL) -> list[PredictionRow]:
    """Model values (and relative errors, when actual counts are supplied)
    at each checkpoint, accumulating the integrals incrementally."""
    checkpoints = _checked_checkpoints(checkpoints)
    if actuals is not None and len(actuals) != len(checkpoints):
        raise ValueError("actuals must align with checkpoints")
    deg_product = math.prod(f.degree for f in system.polys)
    c_value = constant.value
    lower = modified_lower_bound(system)
    _check_no_dip(system, max(checkpoints, default=lower))
    mods = _cumulative(_modified_integrand(system), lower, checkpoints, tol)
    origs = _cumulative(_original_integrand(system.m), 2, checkpoints, tol)
    rows = []
    for j, x in enumerate(checkpoints):
        modified = c_value * mods[j]
        original = c_value / deg_product * origs[j]
        actual = rel_m = rel_o = None
        if actuals is not None:
            actual = actuals[j].count
            if actual:
                rel_m = (modified - actual) / actual
                rel_o = (original - actual) / actual
            else:
                rel_m = math.inf if modified else 0.0
                rel_o = math.inf if original else 0.0
        rows.append(PredictionRow(x=x, actual=actual, modified=modified,
                                  original=original, rel_err_modified=rel_m,
                                  rel_err_original=rel_o))
    return rows


def round_half_away(v: float) -> int:
    """Round to integer, halves away from zero (matches table display)."""
    return math.floor(v + 0.5) if v >= 0 else math.ceil(v - 0.5)


# ---------------------------------------------------------------------------
# Adaptive Simpson
# ---------------------------------------------------------------------------

def _cumulative(g, lower: int, xs: Sequence[float],
                tol: float) -> list[float]:
    """int_lower^x g for each x of the ascending xs (0.0 for x <= lower),
    one Simpson run per gap between consecutive points."""
    if not 0 < tol < math.inf:  # also rejects nan
        raise ValueError(f"tolerance must be a finite number > 0, got {tol}")
    totals, acc, prev = [], 0.0, float(lower)
    for x in xs:
        if x > prev:
            acc += _adaptive_simpson(g, prev, float(x), tol)
            prev = float(x)
        totals.append(acc)
    return totals


def _adaptive_simpson(g, a: float, b: float, tol: float) -> float:
    fa, fm, fb = g(a), g((a + b) / 2), g(b)
    whole = (b - a) / 6 * (fa + 4 * fm + fb)
    return _simpson_rec(g, a, b, fa, fm, fb, whole, tol, tol, _DEPTH_CAP)


def _simpson_rec(g, a, b, fa, fm, fb, whole, tol_abs, tol_rel, depth):
    m = (a + b) / 2
    lm, rm = (a + m) / 2, (m + b) / 2
    flm, frm = g(lm), g(rm)
    left = (m - a) / 6 * (fa + 4 * flm + fm)
    right = (b - m) / 6 * (fm + 4 * frm + fb)
    s2 = left + right
    delta = s2 - whole
    if abs(delta) <= 15 * max(tol_abs, tol_rel * abs(s2)):
        return s2 + delta / 15
    if depth <= 0:
        raise ToleranceNotMetError(
            f"adaptive Simpson depth cap hit on [{a}, {b}]")
    half = tol_abs / 2
    return (_simpson_rec(g, a, m, fa, flm, fm, left, half, tol_rel, depth - 1)
            + _simpson_rec(g, m, b, fm, frm, fb, right, half, tol_rel,
                           depth - 1))
