import math
import random

import numpy as np
import pytest

from batemanhorn import (
    CountResult,
    EngineConfig,
    SingularIntegrandError,
    bh_constant_accelerated,
    bh_constant_naive,
    build_system,
    count_series,
    integrate_modified,
    integrate_original,
    parse_polynomial,
    predict,
    round_half_away,
)

SOPHIE_GERMAIN_C = 2 * 0.66016181584686957393
C_6N2 = 2.139124879


def system(*texts):
    return build_system([parse_polynomial(t) for t in texts])


def gauss_legendre_oracle(g, a, b, panels=200, order=64):
    """Independent composite Gauss-Legendre quadrature (tests only).

    Panels are log-spaced: the integrands vary fastest near the left
    endpoint and uniform panels would need thousands of segments there.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.geomspace(a, b, panels + 1)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        total += half * sum(w * g(mid + half * t)
                            for t, w in zip(nodes, weights))
    return total


# ---------------------------------------------------------------------------
# reference table cells
# ---------------------------------------------------------------------------

def test_modified_integral_sophie_germain_1e4():
    v = integrate_modified(system("n", "2*n+1"), 10**4)
    assert round_half_away(SOPHIE_GERMAIN_C * v) == 195


def test_modified_integral_6n2_1e5():
    v = integrate_modified(system("6*n^2+1"), 10**5)
    assert round_half_away(C_6N2 * v) == 9469


def test_original_integral_sophie_germain_1e4():
    v = integrate_original(system("n", "2*n+1"), 10**4)
    assert round_half_away(SOPHIE_GERMAIN_C * v) == 214


def test_original_integral_6n2_1e2():
    # M = 1, lower bound 2: (C/2) * int_2^100 dt/log t rounds to 31
    v = integrate_original(system("6*n^2+1"), 10**2)
    assert round_half_away(C_6N2 / 2 * v) == 31


def test_empty_intervals():
    sg = system("n", "2*n+1")
    assert integrate_modified(sg, 2) == 0.0      # L = n0 + 1 = 2
    assert integrate_original(sg, 2) == 0.0
    with pytest.raises(ValueError):
        integrate_modified(sg, 1.5)
    with pytest.raises(ValueError):
        integrate_original(sg, 1.0)


# ---------------------------------------------------------------------------
# quadrature properties
# ---------------------------------------------------------------------------

def test_additivity():
    s = system("n", "2*n+1")
    rng = random.Random(17)
    tol = 1e-9
    for _ in range(10):
        x = rng.uniform(10**3, 10**6)
        a = rng.uniform(2.5, x - 1)
        whole = integrate_modified(s, x, tol)
        lower = integrate_modified(s, a, tol)
        upper = _integrate_between(s, a, x, tol)
        assert abs(lower + upper - whole) <= 2 * tol + 1e-12 * whole


def _integrate_between(s, a, x, tol):
    from batemanhorn.quadrature import _adaptive_simpson, _modified_integrand
    return _adaptive_simpson(_modified_integrand(s), a, x, tol)


def test_tolerance_halving():
    s = system("6*n^2+1")
    tol = 1e-6
    prev = integrate_modified(s, 10**6, tol)
    for _ in range(6):
        tol /= 2
        cur = integrate_modified(s, 10**6, tol)
        assert abs(cur - prev) < 2 * tol * max(1.0, abs(cur))
        prev = cur


def test_against_gauss_legendre_oracle():
    sg = system("n", "2*n+1")
    tol = 1e-9
    mine = integrate_modified(sg, 10**6, tol)
    coeffs = [f.coeffs for f in sg.polys]

    def g(t):
        return 1.0 / math.prod(
            math.log(sum(c * t**k for k, c in enumerate(cs)))
            for cs in coeffs)

    oracle = gauss_legendre_oracle(g, 2.0, 10**6.0)
    assert abs(mine - oracle) < 10 * tol * max(1.0, abs(oracle))

    mine_orig = integrate_original(sg, 10**6, tol)
    oracle_orig = gauss_legendre_oracle(lambda t: 1.0 / math.log(t) ** 2,
                                        2.0, 10**6.0)
    assert abs(mine_orig - oracle_orig) < 10 * tol * max(1.0, abs(oracle_orig))


def test_modified_over_original_ratio_at_1e10():
    s = system("n", "2*n+1")
    ratio = integrate_modified(s, 1e10) / integrate_original(s, 1e10)
    implied = 26568824 / 27411417  # published estimate columns at 1e10
    assert abs(ratio - implied) < 5e-4
    assert round(ratio, 4) == 0.9693


def test_singular_integrand_detected():
    for text, x in [
        # 25n^2 - 75n + 57 dips to 0.75 at t = 3/2 while every integer
        # value is >= 7; its n0 is the clamp floor -4, so the interval
        # [1, 3] crosses the dip and the check must fire.
        ("25*n^2-75*n+57", 3),
        # below 1 only on (3/2 - 1e-6, 3/2 + 1e-6)
        ("2000000000000*n^2-6000000000000*n+4499999999999", 10),
        # touches 1 at t = 3/2 and never goes below
        ("400000000*n^2-1200000000*n+900000001", 1000),
    ]:
        s = system(text)
        assert s.n0 == -4
        with pytest.raises(SingularIntegrandError):
            integrate_modified(s, x)
        with pytest.raises(SingularIntegrandError):
            predict(s, [x], bh_constant_naive(s, 100))


@pytest.mark.parametrize("text,x", [
    # n0 = -41: the integral once started at -40, where it gave 142
    # against 86 actual primes below 100 (the fix gives 92)
    ("n^2+n+41", 100),
    # dips to 0.75 at t = 1/2, outside [1, 2]
    ("25*n^2-25*n+7", 2),
])
def test_modified_integral_starts_at_one(text, x):
    s = system(text)
    assert s.n0 + 1 < 1

    def g(t):
        return 1 / math.log(sum(c * t ** k for k, c in
                                enumerate(s.polys[0].coeffs)))

    expected = gauss_legendre_oracle(g, 1.0, float(x))
    assert integrate_modified(s, x) == pytest.approx(expected, rel=1e-8)
    c = bh_constant_naive(s, 100)
    row, = predict(s, [x], c)
    assert row.modified == pytest.approx(c.value * expected, rel=1e-8)


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------

def test_predict_empty():
    assert predict(system("n"), [], bh_constant_naive(system("n"), 100)) == []


def test_predict_rejects_unordered_checkpoints():
    # the same rule and message as count_series: strictly ascending, >= 1
    s = system("n", "2*n+1")
    c = bh_constant_naive(s, 10**3)
    for cps in ([1000, 100], [100, 100], [0, 100], [-5]):
        with pytest.raises(ValueError, match="ascending and >= 1"):
            predict(s, cps, c)


def test_predict_sophie_germain_columns():
    s = system("n", "2*n+1")
    c = bh_constant_naive(s, 10**6)
    cps = [10**k for k in range(2, 7)]
    rows = predict(s, cps, c)
    assert [round_half_away(r.modified) for r in rows] == \
        [10, 39, 195, 1166, 7811]
    assert [round_half_away(r.original) for r in rows] == \
        [14, 46, 214, 1249, 8248]
    assert all(r.actual is None and r.rel_err_modified is None for r in rows)


def test_predict_6n2_columns():
    s = system("6*n^2+1")
    c = bh_constant_accelerated(s.polys[0], 10**6)
    cps = [10**k for k in range(2, 7)]
    rows = predict(s, cps, c)
    assert [round_half_away(r.modified) for r in rows] == \
        [25, 162, 1195, 9469, 78514]
    assert [round_half_away(r.original) for r in rows] == \
        [31, 189, 1332, 10299, 84096]


def test_predict_incremental_matches_direct():
    s = system("6*n^2+1")
    c = bh_constant_accelerated(s.polys[0], 10**6)
    cps = [100, 316, 1000, 31623, 10**5]
    rows = predict(s, cps, c)
    for row in rows:
        direct = c.value * integrate_modified(s, row.x)
        assert abs(row.modified - direct) < 1e-6 * max(1.0, direct)


def test_predict_relative_errors():
    s = system("n", "2*n+1")
    c = bh_constant_naive(s, 10**5)
    cps = [10**2, 10**3]
    actuals = count_series(s, cps, EngineConfig(workers=1))
    rows = predict(s, cps, c, actuals)
    for row, actual in zip(rows, actuals):
        assert row.actual == actual.count
        assert row.rel_err_modified == pytest.approx(
            (row.modified - actual.count) / actual.count)
        assert row.rel_err_original == pytest.approx(
            (row.original - actual.count) / actual.count)
    # monotone and positive
    assert rows[0].modified < rows[1].modified
    assert rows[0].original < rows[1].original


def test_predict_alignment_validation():
    s = system("n")
    c = bh_constant_naive(s, 100)
    with pytest.raises(ValueError):
        predict(s, [10, 100], c, [CountResult(10, 4, "deterministic")])


def test_round_half_away():
    assert round_half_away(0.5) == 1
    assert round_half_away(1.5) == 2
    assert round_half_away(2.5) == 3
    assert round_half_away(2.4999) == 2
    assert round_half_away(-0.5) == -1
    assert round_half_away(-1.5) == -2
    assert round_half_away(0.0) == 0
