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


def integrate_modified(system: PolySystem, x: float,
                       tol: float = DEFAULT_TOL) -> float:
    """int_L^x dt / prod_i log f_i(t), L = max(n0 + 1, 1)."""
    lower = modified_lower_bound(system)
    if x < lower:
        raise ValueError(f"x={x} is below the integral lower bound {lower}")
    if x == lower:
        return 0.0
    _check_no_dip(system, x)
    return _adaptive_simpson(_modified_integrand(system), float(lower),
                             float(x), tol)


def integrate_original(system: PolySystem, x: float,
                       tol: float = DEFAULT_TOL) -> float:
    """int_2^x dt / (log t)^M; the caller scales by C / prod deg f_i."""
    m = system.m
    if x < 2:
        raise ValueError(f"x={x} is below the integral lower bound 2")
    if x == 2:
        return 0.0

    def g(t: float) -> float:
        return 1.0 / math.log(t) ** m

    return _adaptive_simpson(g, 2.0, float(x), tol)


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
    lower_mod = float(modified_lower_bound(system))
    acc_mod = 0.0
    acc_orig = 0.0
    prev_mod = lower_mod
    prev_orig = 2.0
    rows = []
    _check_no_dip(system, max(checkpoints, default=lower_mod))
    g_mod = _modified_integrand(system)
    m = system.m
    for j, x in enumerate(checkpoints):
        if x > prev_mod:
            acc_mod += _adaptive_simpson(g_mod, prev_mod, float(x), tol)
            prev_mod = float(x)
        if x > prev_orig:
            acc_orig += _adaptive_simpson(
                lambda t: 1.0 / math.log(t) ** m, prev_orig, float(x), tol)
            prev_orig = float(x)
        modified = c_value * acc_mod
        original = c_value / deg_product * acc_orig
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

def _adaptive_simpson(g, a: float, b: float, tol: float) -> float:
    if not 0 < tol < math.inf:  # also rejects nan
        raise ValueError(f"tolerance must be a finite number > 0, got {tol}")
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
