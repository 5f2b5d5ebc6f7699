"""Acceptance suite: every criterion at its stated tolerance, one
PASS/FAIL line per criterion in the terminal summary.

The two reference tables are recomputed end to end: actual counts must
match exactly, estimate columns within +/-1 after rounding, constants and
L-values at their stated absolute tolerances, plus the property-based
checks that stand in for the large-x rows.  Set BH_ACCEPT_FULL=1 to also
recompute the optional 10^7 row of the quadratic table and both tables in
full (`reproduce 1 --full` and `reproduce 2 --full` on 2 workers).
"""

import math
import os
import random
import time

import numpy as np
import pytest

from batemanhorn import (
    EngineConfig,
    bh_constant_accelerated,
    bh_constant_naive,
    build_system,
    count_series,
    evaluate,
    integrate_modified,
    integrate_original,
    is_prime,
    kronecker,
    parse_polynomial,
    predict,
    round_half_away,
    simple_sieve,
)
from batemanhorn.cli import main
from batemanhorn.modular import _root_count
from batemanhorn.poly import Polynomial

TWIN_PRIME_C2 = 0.66016181584686957393

T1_X = [10**k for k in range(2, 8)]
T1_ACTUAL = [10, 37, 190, 1171, 7746, 56032]
T1_MODIFIED = [10, 39, 195, 1166, 7811, 56128]
T1_ORIGINAL = [14, 46, 214, 1249, 8248, 58754]

T2_X = [10**k for k in range(2, 7)]
T2_ACTUAL = [27, 155, 1176, 9445, 78422]
T2_MODIFIED = [25, 162, 1195, 9469, 78514]
T2_ORIGINAL = [31, 189, 1332, 10299, 84096]


def sg_system():
    return build_system([parse_polynomial("n"), parse_polynomial("2*n+1")])


def q6_system():
    return build_system([parse_polynomial("6*n^2+1")])


def test_criterion_1_sophie_germain_counts(acceptance_report):
    t0 = time.perf_counter()
    got = [r.count for r in count_series(sg_system(), T1_X)]
    elapsed = time.perf_counter() - t0
    acceptance_report(
        "1: table-1 actual counts to 1e7, exact",
        got == T1_ACTUAL, f"got {got} in {elapsed:.1f}s")


def test_criterion_2_quadratic_counts(acceptance_report):
    t0 = time.perf_counter()
    got = [r.count for r in count_series(q6_system(), T2_X)]
    elapsed = time.perf_counter() - t0
    acceptance_report(
        "2: table-2 actual counts to 1e6, exact",
        got == T2_ACTUAL, f"got {got} in {elapsed:.1f}s")


def test_criterion_2_optional_1e7_row(acceptance_report):
    if not os.environ.get("BH_ACCEPT_FULL"):
        pytest.skip("optional 1e7 row: set BH_ACCEPT_FULL=1 to run")
    t0 = time.perf_counter()
    got = count_series(q6_system(), [10**7])[-1].count
    elapsed = time.perf_counter() - t0
    acceptance_report(
        "2 (optional): table-2 count at 1e7",
        got == 671361, f"got {got} in {elapsed:.1f}s")


@pytest.mark.parametrize("table", ["1", "2"])
def test_optional_full_reference_table(table, capsys, acceptance_report):
    if not os.environ.get("BH_ACCEPT_FULL"):
        pytest.skip("optional full table: set BH_ACCEPT_FULL=1 to run")
    t0 = time.perf_counter()
    code = main(["reproduce", table, "--full", "--workers", "2"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    acceptance_report(
        f"{table} (optional): reproduce {table} --full, every reference row",
        code == 0 and "REPRODUCE: PASS" in out,
        f"exit {code} in {elapsed:.1f}s")


def _estimate_rows():
    sg = sg_system()
    q6 = q6_system()
    rows_1 = predict(sg, T1_X, bh_constant_naive(sg, 10**6))
    rows_2 = predict(q6, T2_X,
                     bh_constant_accelerated(q6.polys[0], 10**6))
    return rows_1, rows_2


def test_criterion_3_modified_estimates(acceptance_report):
    t0 = time.perf_counter()
    rows_1, rows_2 = _estimate_rows()
    got_1 = [round_half_away(r.modified) for r in rows_1]
    got_2 = [round_half_away(r.modified) for r in rows_2]
    elapsed = time.perf_counter() - t0
    ok = all(abs(g - w) <= 1 for g, w in zip(got_1, T1_MODIFIED)) and \
        all(abs(g - w) <= 1 for g, w in zip(got_2, T2_MODIFIED))
    acceptance_report(
        "3: modified-model estimates within +/-1 of the reference cells",
        ok, f"table1 {got_1}, table2 {got_2}, {elapsed:.1f}s")


def test_criterion_4_original_estimates(acceptance_report):
    rows_1, rows_2 = _estimate_rows()
    got_1 = [round_half_away(r.original) for r in rows_1]
    got_2 = [round_half_away(r.original) for r in rows_2]
    ok = all(abs(g - w) <= 1 for g, w in zip(got_1, T1_ORIGINAL)) and \
        all(abs(g - w) <= 1 for g, w in zip(got_2, T2_ORIGINAL))
    acceptance_report(
        "4: original-model estimates within +/-1 of the reference cells",
        ok, f"table1 {got_1}, table2 {got_2}")


def test_criterion_5_accelerated_constant(acceptance_report):
    value = bh_constant_accelerated(parse_polynomial("6*n^2+1"), 10**6).value
    acceptance_report(
        "5: accelerated constant = 2.139124879 within 5e-7",
        abs(value - 2.139124879) < 5e-7, f"got {value!r}")


def test_criterion_6_sophie_germain_constant(acceptance_report):
    value = bh_constant_naive(sg_system(), 10**6).value
    acceptance_report(
        "6: naive constant = 2*C2 within 1e-6",
        abs(value - 2 * TWIN_PRIME_C2) < 1e-6, f"got {value!r}")


def test_criterion_7_l_value(acceptance_report):
    from batemanhorn import l_value_negative_fundamental
    value = l_value_negative_fundamental(-24)
    acceptance_report(
        "7: L(1, chi_-24) = pi/sqrt(6) within 1e-12",
        abs(value - math.pi / math.sqrt(6)) < 1e-12, f"got {value!r}")


# ---------------------------------------------------------------------------
# criterion 8: property-based stand-ins for the large-x rows
# ---------------------------------------------------------------------------

def _naive_count(s, x):
    total = 0
    for n in range(1, x + 1):
        if all((v := evaluate(f, n)) >= 2 and is_prime(v) for f in s.polys):
            total += 1
    return total


def _check_oracle_equivalence():
    corpus = (("n", "2*n+1"), ("6*n^2+1",), ("n", "n+2"), ("n^2+1",),
              ("2*n^2+3",))
    for texts in corpus:
        s = build_system([parse_polynomial(t) for t in texts])
        engine = count_series(s, [10**4], EngineConfig(workers=1))[0].count
        if engine != _naive_count(s, 10**4):
            return False, f"oracle mismatch on {texts}"
    return True, "5-system corpus equals the no-presieve oracle at 1e4"


def _check_partition_worker_invariance(capsys):
    outputs = set()
    for workers, segment in (("1", "1024"), ("3", "1024"), ("1", "65536"),
                             ("2", "1048576")):
        code = main(["table", "--poly", "n", "--poly", "2*n+1", "--x", "1e4",
                     "--workers", workers, "--segment-size", segment])
        out = capsys.readouterr().out
        if code != 0:
            return False, f"table run failed (workers={workers})"
        outputs.add(out)
    ok = len(outputs) == 1
    return ok, "CLI table output byte-identical across 4 configurations" \
        if ok else f"{len(outputs)} distinct outputs"


def _check_count_roots_brute_force():
    rng = random.Random(4242)
    primes = [int(p) for p in np.flatnonzero(simple_sieve(997))]

    def brute(coeffs, p):
        n = np.arange(p, dtype=np.int64)
        acc = np.zeros(p, dtype=np.int64)
        for c in reversed(coeffs):
            acc = (acc * n + c) % p
        return int(np.count_nonzero(acc == 0))

    for _ in range(500):
        d = rng.randint(1, 4)
        coeffs = tuple(rng.randint(-50, 50) for _ in range(d)) + \
            (rng.randint(1, 50),)
        f = Polynomial(coeffs)
        for p in primes:
            if _root_count(f, p) != brute(coeffs, p):
                return False, f"count_roots mismatch {coeffs} mod {p}"
    return True, "500 random polynomials, every p <= 997"


def _check_kronecker_euler():
    for p in [int(q) for q in np.flatnonzero(simple_sieve(997))][1:]:
        for a in range(1, p):
            e = pow(a, (p - 1) // 2, p)
            if kronecker(a, p) != (-1 if e == p - 1 else e):
                return False, f"kronecker mismatch a={a} p={p}"
    return True, "Euler criterion agreement for every odd p <= 997"


def _check_quadrature_properties():
    s = sg_system()
    tol = 1e-9
    rng = random.Random(99)
    from batemanhorn.quadrature import _adaptive_simpson, _modified_integrand
    for _ in range(5):
        x = rng.uniform(10**4, 10**6)
        a = rng.uniform(3.0, x - 1)
        whole = integrate_modified(s, x, tol)
        split = integrate_modified(s, a, tol) + _adaptive_simpson(
            _modified_integrand(s), a, x, tol)
        if abs(split - whole) > 2 * tol + 1e-12 * whole:
            return False, f"additivity violated at a={a}, x={x}"
    coarse = integrate_original(s, 10**6, 1e-6)
    fine = integrate_original(s, 10**6, 5e-7)
    if abs(coarse - fine) > 1e-6 * max(1.0, abs(fine)):
        return False, "tolerance halving moved the original integral"
    return True, "additivity and tolerance-halving hold"


def test_criterion_8_property_battery(acceptance_report, capsys):
    checks = [
        ("counting-engine oracle equivalence", _check_oracle_equivalence()),
        ("partition/worker invariance",
         _check_partition_worker_invariance(capsys)),
        ("count_roots brute-force equivalence",
         _check_count_roots_brute_force()),
        ("kronecker Euler-criterion agreement", _check_kronecker_euler()),
        ("quadrature additivity/tolerance", _check_quadrature_properties()),
    ]
    failures = [f"{name}: {detail}" for name, (ok, detail) in checks
                if not ok]
    acceptance_report(
        "8: property battery replacing desk-scale large-x rows",
        not failures,
        "; ".join(f"{name} ok" for name, _ in checks) if not failures
        else "; ".join(failures))


def test_criterion_9_asymptotic_ratio(acceptance_report):
    t0 = time.perf_counter()
    s = sg_system()
    ratio = integrate_modified(s, 1e10) / integrate_original(s, 1e10)
    implied = 26568824 / 27411417
    elapsed = time.perf_counter() - t0
    acceptance_report(
        "9: modified/original ratio at 1e10 within 5e-4 of 0.9693",
        abs(ratio - implied) < 5e-4, f"got {ratio:.6f} in {elapsed:.1f}s")
