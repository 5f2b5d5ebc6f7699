import itertools
import math

import numpy as np
import pytest

from batemanhorn import (
    InadmissibleSystemError,
    NotFundamentalError,
    NotNegativeError,
    NotQuadraticError,
    bh_constant,
    bh_constant_accelerated,
    bh_constant_naive,
    build_system,
    discriminant,
    is_fundamental_discriminant,
    l_value_negative_fundamental,
    parse_polynomial,
)

TWIN_PRIME_C2 = 0.66016181584686957393  # reference value of the twin prime
SOPHIE_GERMAIN_C = 2 * TWIN_PRIME_C2    # constant in the usual normalization


def system(*texts):
    return build_system([parse_polynomial(t) for t in texts])


# ---------------------------------------------------------------------------
# naive product
# ---------------------------------------------------------------------------

def test_naive_identity_on_n_is_exactly_one():
    s = system("n")
    for truncation in (10, 10**3, 10**5):
        r = bh_constant_naive(s, truncation)
        assert r.value == 1.0
        assert r.mode == "naive"


def test_naive_sophie_germain_constant():
    r = bh_constant_naive(system("n", "2*n+1"), 10**6)
    assert abs(r.value - SOPHIE_GERMAIN_C) < 1e-6
    assert r.error_estimate >= 0


def test_naive_6n2_is_only_loosely_converged():
    # the direct product converges slowly: 3 decimals is all 10^6 buys
    r = bh_constant_naive(system("6*n^2+1"), 10**6)
    assert abs(r.value - 2.139124879) < 1e-3
    assert abs(r.value - 2.139124879) > 1e-5  # genuinely slow, not hidden
    assert r.error_estimate > 1e-5


def test_naive_rejects_inadmissible():
    # no PolySystem is inadmissible, so the product never starts
    with pytest.raises(InadmissibleSystemError) as exc:
        bh_constant_naive(system("n", "n+1"), 100)
    assert exc.value.witness == 2


def test_naive_rejects_bad_truncation():
    with pytest.raises(ValueError):
        bh_constant_naive(system("n"), 1)


# ---------------------------------------------------------------------------
# L-values
# ---------------------------------------------------------------------------

def test_l_value_minus_24_closed_form():
    assert abs(l_value_negative_fundamental(-24) -
               math.pi / math.sqrt(6)) < 1e-12


def test_l_value_minus_4_against_leibniz_series():
    # chi_{-4} has period 4: 1, 0, -1, 0, so L(1) = 1 - 1/3 + 1/5 - ...
    k = np.arange(2 * 10**6, dtype=np.float64)
    partial = np.sum(1.0 / (4 * k + 1) - 1.0 / (4 * k + 3))
    assert abs(partial - math.pi / 4) < 1e-6  # oracle sanity
    assert abs(l_value_negative_fundamental(-4) - math.pi / 4) < 1e-12
    assert abs(l_value_negative_fundamental(-4) - partial) < 1e-6


def test_l_value_minus_3_against_dirichlet_series():
    # chi_{-3}: 1, -1, 0 repeating; partial sums of sum chi(n)/n
    k = np.arange(4 * 10**6, dtype=np.float64)
    partial = np.sum(1.0 / (3 * k + 1) - 1.0 / (3 * k + 2))
    expected = math.pi / (3 * math.sqrt(3))
    assert abs(partial - expected) < 1e-6
    assert abs(l_value_negative_fundamental(-3) - expected) < 1e-12


def test_l_value_input_validation():
    with pytest.raises(NotNegativeError):
        l_value_negative_fundamental(5)
    with pytest.raises(NotNegativeError):
        l_value_negative_fundamental(0)
    for d in (-12, -9, -16, -100, -18):
        with pytest.raises(NotFundamentalError):
            l_value_negative_fundamental(d)


def test_l_value_equals_the_scalar_character_sum():
    # numpy blocks of the character sum against scalar kronecker calls,
    # bit for bit: every negative fundamental D down to -1500, and -140003,
    # whose sum spans three blocks
    from batemanhorn.primality import kronecker
    for d in [d for d in range(-3, -1500, -1)
              if is_fundamental_discriminant(d)] + [-140003]:
        total = sum(kronecker(d, a) * a for a in range(1, -d))
        assert l_value_negative_fundamental(d) == \
            -math.pi * total / (-d)**1.5, d


def test_fundamental_discriminant_classifier():
    fundamental = {-3, -4, -7, -8, -11, -15, -19, -20, -23, -24, -31, -35,
                   -39, -40}
    for d in range(-1, -41, -1):
        assert is_fundamental_discriminant(d) == (d in fundamental), d


# ---------------------------------------------------------------------------
# accelerated product
# ---------------------------------------------------------------------------

def test_accelerated_6n2_reference_value():
    r = bh_constant_accelerated(parse_polynomial("6*n^2+1"), 10**6)
    assert r.mode == "accelerated"
    assert abs(r.value - 2.139124879) < 5e-7
    assert r.l_value == pytest.approx(math.pi / math.sqrt(6), abs=1e-12)


def test_accelerated_truncation_stability():
    f = parse_polynomial("6*n^2+1")
    v3 = bh_constant_accelerated(f, 10**3).value
    v6 = bh_constant_accelerated(f, 10**6).value
    # the factors are 1 + O(p^-2): a 10^3 truncation is already within ~1e-5
    assert abs(v3 - v6) < 2e-5


def test_accelerated_doubling_decay():
    f = parse_polynomial("6*n^2+1")
    values = {}
    p = 1000
    while p <= 10**6:
        values[p] = bh_constant_accelerated(f, p).value
        p *= 2
    bounds = sorted(values)
    diffs = [abs(values[b2] - values[b1])
             for b1, b2 in zip(bounds, bounds[1:])]
    # absolute convergence as p^-2: each doubling step sits under the tail
    # bound sum_{p>P} 2/p^2 ~ 2/(P log P), and the drift dies overall
    for b, d in zip(bounds, diffs):
        assert d < 32.0 / b
    assert diffs[-1] < 1e-8
    assert diffs[-1] < diffs[0] / 1000


def test_exceptional_prefactor_6n2_exactly_3():
    from batemanhorn.modular import _root_count, kronecker
    f = parse_polynomial("6*n^2+1")
    prefactor = 1.0
    for p in (2, 3):
        chi = kronecker(-24, p)
        assert chi == 0  # both exceptional primes divide D = -24
        prefactor *= p * (p - _root_count(f, p)) / ((p - 1) * (p - chi))
    assert prefactor == 3.0


def test_accelerated_exceptional_primes_at_any_truncation():
    # p | 2aD enters the prefactor even beyond the truncation (11 for
    # 3n^2+n+1 at 5, 101 for 101n^2+1 at 50); chi_D(3) = 1 for D = -11
    from batemanhorn.modular import _root_count, kronecker
    from batemanhorn.primality import primes_up_to
    for text, truncations in (("3*n^2+n+1", (5, 7, 50)),
                              ("101*n^2+1", (50, 200))):
        f = parse_polynomial(text)
        d = discriminant(f)
        exceptional = {p for p in range(2, 202) if 2 * f.coeffs[2] * d % p
                       == 0 and all(p % q for q in range(2, p))}
        prefactor = 1.0
        for p in sorted(exceptional):
            chi = kronecker(d, p)
            prefactor *= p * (p - _root_count(f, p)) / ((p - 1) * (p - chi))
        for truncation in truncations:
            prod = 1.0
            for p in primes_up_to(truncation):
                if p not in exceptional:
                    chi = kronecker(d, p)
                    prod *= p * (p - 1 - chi) / ((p - 1) * (p - chi))
            expected = prefactor / l_value_negative_fundamental(d) * prod
            assert bh_constant_accelerated(f, truncation).value == expected, \
                (text, truncation)


def per_prime_euler_product(system, truncation, d):
    """The Euler product as one loop over the primes, prod *= factor at each:
    the oracle for the batched constants._euler_product."""
    from batemanhorn.constants import ACCELERATED, NAIVE, EulerProductResult
    from batemanhorn.modular import _root_count, kronecker
    from batemanhorn.primality import factorize, primes_up_to
    f, m = system.product, system.m
    l_value, exceptional = None, {}
    if d is not None:
        l_value = l_value_negative_fundamental(d)
        exceptional = factorize(2 * f.leading_coefficient * -d)
    beyond = sorted(p for p in exceptional if p > truncation)
    tenth = truncation // 10
    prefactor = prod = 1.0
    at_tenth = None
    for p in itertools.chain(primes_up_to(truncation), beyond):
        if at_tenth is None and p > tenth:
            at_tenth = prod
        if d is None:
            omega, chi = _root_count(f, p), 0
        else:
            chi = kronecker(d, p)
            omega = _root_count(f, p) if p in exceptional else 1 + chi
        q = p if chi else 1
        factor = (p - omega) * p**(m - 1) * q / ((p - 1)**m * (q - chi))
        if p in exceptional:
            prefactor *= factor
        else:
            prod *= factor
    scale = prefactor if l_value is None else prefactor / l_value
    return EulerProductResult(value=scale * prod, truncation=truncation,
                              mode=NAIVE if d is None else ACCELERATED,
                              error_estimate=abs(scale * (prod - at_tenth)),
                              l_value=l_value)


# (system, d): d is None for the direct product.  {n, n+2, n+6} and n^3+2
# have products of degree 3, whose root counts are deg g_1; D = -171 of
# 5n^2+7n+11 is not fundamental, and 2, 3, 5, 19 divide 2aD; the
# exceptional prime 101 of 101n^2+1 lies beyond every truncation below it.
BATCHED_SYSTEMS = [
    (("2*n+1",), None),
    (("n", "2*n+1"), None),
    (("n", "n+2", "n+6"), None),
    (("n^2-2",), None),
    (("5*n^2+7*n+11",), None),
    (("6*n^2+1",), None),
    (("6*n^2+1",), -24),
    (("101*n^2+1",), -404),
    (("n^3+2",), None),
]


@pytest.mark.parametrize("texts,d", BATCHED_SYSTEMS,
                         ids=[" ".join(t) + ("" if d is None else " accel")
                              for t, d in BATCHED_SYSTEMS])
def test_batched_product_equals_per_prime_loop(monkeypatch, texts, d):
    # the last truncation spans two batches of 2^13 primes and then 19 of
    # 512 (two for a product of degree 3, whose scalar oracle costs more),
    # with the tenth inside a batch either way
    from batemanhorn import modular
    from batemanhorn.constants import _euler_product
    s = system(*texts)
    last = 100_003 if s.product.degree <= 2 else 5_003
    for truncation in (2, 3, 10, 30, 97, last):  # the tenth of 30 is prime
        assert _euler_product(s, truncation, d) == \
            per_prime_euler_product(s, truncation, d), truncation
    monkeypatch.setattr(modular, "_LANES", 512)
    assert _euler_product(s, last, d) == per_prime_euler_product(s, last, d)


@pytest.mark.parametrize("texts,d", [(("n", "2*n+1"), None),
                                     (("6*n^2+1",), -24)],
                         ids=["n 2*n+1", "6*n^2+1 accel"])
def test_batched_product_across_prime_segment_edges(monkeypatch, texts, d):
    # segments of 4096 integers hold 350-570 primes, so batches of 512 end
    # at segment edges as well as inside segments
    from batemanhorn import modular, primality
    from batemanhorn.constants import _euler_product
    monkeypatch.setattr(primality, "_SEGMENT", 4096)
    monkeypatch.setattr(modular, "_LANES", 512)
    s = system(*texts)
    assert _euler_product(s, 100_003, d) == \
        per_prime_euler_product(s, 100_003, d)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_factors_equal_int_over_int(m):
    # the lane form against int / int, on both sides of each p^k = 2^53
    # edge (k = m for chi = 0, k = m + 1 otherwise), just below 2^31 and
    # where p^2 > 2^53
    from batemanhorn.constants import _exact_base, _factors
    edges = [_exact_base(k) for k in (m, m + 1)]
    assert all(b**k <= 2**53 < (b + 1)**k for b, k in zip(edges, (m, m + 1)))
    ps = sorted({p for b in edges for p in range(b - 3, b + 4)} |
                set(range(2, 12)) | set(range(2**31 - 20, 2**31)) |
                {94906267, 2**40 - 87})
    lanes = [(p, omega, chi) for p in ps for omega in (0, 1, 2, 3)
             for chi in (-1, 0, 1) if omega < p]
    p, omega, chi = (np.array(v, dtype=np.int64) for v in zip(*lanes))
    expected = [(p - w) * p**(m - 1) * (p if c else 1) /
                ((p - 1)**m * ((p if c else 1) - c)) for p, w, c in lanes]
    assert _factors(p, omega, chi, m).tolist() == expected
    # object arrays, as the prefactor passes them, with p past int64 too
    lanes += [(p, omega, chi) for p in (2**61 - 1, 2**89 - 1)
              for omega in (0, 1, 2) for chi in (-1, 0, 1)]
    p, omega, chi = (np.array(v, dtype=object) for v in zip(*lanes))
    assert _factors(p, omega, chi, m).tolist() == [
        (p - w) * p**(m - 1) * (p if c else 1) /
        ((p - 1)**m * ((p if c else 1) - c)) for p, w, c in lanes]


def test_accelerated_exceptional_prime_past_2_53():
    # D = -3 and the prime lead 94935793, above 94906265, the largest p with
    # p^2 <= 2^53: its prefactor takes exact Python ints, bit for bit the
    # per-prime loop's, and the result holds Python floats, not numpy's
    from batemanhorn.constants import _exact_base
    text = "94935793*n^2+19487*n+1"
    assert discriminant(parse_polynomial(text)) == -3
    assert 94935793 > _exact_base(2)
    for truncation in (10, 10**4):
        r = bh_constant_accelerated(parse_polynomial(text), truncation)
        assert r == per_prime_euler_product(system(text), truncation, -3)
        assert {type(r.value), type(r.error_estimate), type(r.l_value)} == \
            {float}


def test_accelerated_agrees_with_naive_within_drift():
    for text in ("6*n^2+1", "n^2+1", "2*n^2+1", "n^2+n+1", "3*n^2+n+1"):
        f = parse_polynomial(text)
        naive = bh_constant_naive(system(text), 10**6)
        accel = bh_constant_accelerated(f, 10**6)
        assert abs(naive.value - accel.value) <= 10 * naive.error_estimate, \
            (text, naive.value, accel.value, naive.error_estimate)


def test_accelerated_n2_plus_1_against_deep_naive_oracle():
    # frozen oracle: bh_constant_naive({n^2+1}, 10^8) computed once
    oracle_value = 1.372804275518213
    oracle_drift = 1.5247017656871975e-05
    r = bh_constant_accelerated(parse_polynomial("n^2+1"), 10**6)
    assert abs(r.value - oracle_value) <= 10 * oracle_drift
    assert r.value / 2 == pytest.approx(0.6864, abs=2e-4)


def test_accelerated_input_validation():
    with pytest.raises(NotQuadraticError):
        bh_constant_accelerated(parse_polynomial("n"), 100)
    with pytest.raises(NotQuadraticError):
        bh_constant_accelerated(parse_polynomial("n^3+2"), 100)
    # discriminant -16 is not fundamental
    with pytest.raises(NotFundamentalError):
        bh_constant_accelerated(parse_polynomial("n^2+4"), 100)
    # positive discriminant
    with pytest.raises(NotFundamentalError):
        bh_constant_accelerated(parse_polynomial("n^2-n-1"), 100)


def test_bh_constant_picks_the_product():
    f = parse_polynomial("6*n^2+1")
    for truncation in (24, 10**4):
        assert bh_constant(system("6*n^2+1"), truncation) == \
            bh_constant_accelerated(f, truncation)
    # |D| = 24 above the truncation, D = -16 not fundamental, D = 5 positive,
    # two polynomials, a cubic
    for texts, truncation in ((("6*n^2+1",), 23), (("n^2+4",), 10**3),
                              (("n^2-n-1",), 10**3), (("n", "2*n+1"), 10**3),
                              (("n^3+2",), 10**3)):
        assert bh_constant(system(*texts), truncation) == \
            bh_constant_naive(system(*texts), truncation), texts


def test_discriminant():
    assert discriminant(parse_polynomial("6*n^2+1")) == -24
    assert discriminant(parse_polynomial("n^2+1")) == -4
    assert discriminant(parse_polynomial("n^2+n+1")) == -3
