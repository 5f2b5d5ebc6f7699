import itertools
import math
import random

import numpy as np
import pytest

from batemanhorn import (
    IdenticallyZeroError,
    NotPrimeError,
    Polynomial,
    build_system,
    count_roots,
    kronecker,
    list_roots,
    parse_polynomial,
    primes_up_to,
    simple_sieve,
    sqrt_mod,
)
from batemanhorn import _gfpoly, modular, primality
from batemanhorn.modular import _root_count, _root_table
from batemanhorn.poly import _inadmissibility_witness
from batemanhorn.primality import _lane_kronecker, _prime_segments

PRIMES_TO_997 = [int(p) for p in np.flatnonzero(simple_sieve(997))]
# object lanes: the first prime above 2^31, the primes on either side of
# 2^32 and the largest prime below the 2^40 sieve guard
EDGE_PRIMES = [2147483659, 4294967291, 4294967311, 1099511627689]
# one int64 batch and one object batch above 2^31: n^2+1 has no root mod
# 2147483659 (3 mod 4), n^3+2 three roots mod 2147483869 and one mod
# 2147483693 and 4294967291, and 6n^2+1 two mod 2147483713 (p - 1 = 2^6 d),
# where its root reads a nonresidue and takes five Tonelli-Shanks steps
FAULT_BATCHES = [PRIMES_TO_997[2:],
                 [2147483659, 2147483693, 2147483713, 2147483869,
                  4294967291]]


def brute_force_roots(coeffs, p):
    """Independent residue-scan oracle for the sorted roots mod p."""
    n = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(coeffs):
        acc = (acc * n + c) % p
    return np.flatnonzero(acc == 0).tolist()


def brute_force_omega(coeffs, p):
    """Independent residue-scan oracle for the root count mod p."""
    return len(brute_force_roots(coeffs, p))


def random_poly(rng, max_degree=4, bound=50):
    d = rng.randint(1, max_degree)
    coeffs = tuple(rng.randint(-bound, bound) for _ in range(d)) + \
        (rng.randint(1, bound),)
    return Polynomial(coeffs)


# ---------------------------------------------------------------------------
# kronecker
# ---------------------------------------------------------------------------

def test_kronecker_examples():
    assert kronecker(-24, 5) == 1
    # -24 = 4 (mod 7), a square; Euler criterion: 4^3 = 64 = 1 (mod 7)
    assert kronecker(-24, 7) == 1
    assert pow(4, 3, 7) == 1


def test_kronecker_euler_criterion_all_p_to_997():
    for p in PRIMES_TO_997:
        if p == 2:
            continue
        for a in range(1, p):
            e = pow(a, (p - 1) // 2, p)
            expected = -1 if e == p - 1 else e
            assert kronecker(a, p) == expected, (a, p)


def test_kronecker_negative_and_even_arguments():
    # completely multiplicative in a for fixed odd m > 0
    rng = random.Random(11)
    for _ in range(300):
        m = 2 * rng.randint(1, 500) + 1
        a, b = rng.randint(-400, 400), rng.randint(-400, 400)
        assert kronecker(a * b, m) == kronecker(a, m) * kronecker(b, m)
    # (a|2) follows the mod-8 rule
    for a, want in [(1, 1), (3, -1), (5, -1), (7, 1), (2, 0), (-1, 1),
                    (-3, -1), (17, 1)]:
        assert kronecker(a, 2) == want, a


def test_kronecker_chi_minus24_period():
    values = [kronecker(-24, n) for n in range(1, 1000)]
    for n in range(1, 1000 - 24):
        assert values[n - 1] == values[n + 24 - 1]
    # and 24 is the least period
    for period in (2, 3, 4, 6, 8, 12):
        assert any(values[n - 1] != values[n + period - 1]
                   for n in range(1, 500))


def test_kronecker_zero_cases():
    assert kronecker(0, 1) == 1
    assert kronecker(0, 5) == 0
    assert kronecker(5, 0) == 0
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1


@pytest.mark.parametrize("a", [
    -3, -4, -7, -8, -20, -24, -1000003, 0, 1, -1, 2, 5, 6, 12, 17,
    2**63 - 1, -(2**63 - 1), -(2**62),
])
def test_lane_kronecker_matches_kronecker(a):
    m = np.concatenate([np.arange(1, 3000), [2**31 - 1, 2**40, 2**62 + 1,
                                             2**63 - 1]]).astype(np.int64)
    assert _lane_kronecker(a, m).tolist() == \
        [kronecker(a, v) for v in m.tolist()]


def test_lane_kronecker_with_an_array_a_matches_kronecker():
    # one a per lane: negative, even and odd a, a >= m, and even and odd m
    # up to 2^63 - 1, paired every way
    rng = random.Random(16)
    big = [2**31 - 1, 2**40, 2**62, 2**62 + 1, 3 * 2**61, 2**63 - 1]
    ms = list(range(1, 200)) + big + [rng.randrange(1, 2**63)
                                      for _ in range(50)]
    avals = list(range(-60, 60)) + [v for b in big for v in (b, -b, b - 1)] + \
        [rng.randrange(-2**63 + 1, 2**63) for _ in range(50)]
    pairs = [(a, v) for a in avals for v in ms]
    a, m = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    assert _lane_kronecker(a, m).tolist() == [kronecker(*ab) for ab in pairs]


def test_lane_kronecker_on_object_arrays_matches_kronecker():
    # Python-int lanes: a up to +-2^127, odd and even m up to 2^127, both
    # as arrays paired every way and with one int a; the symbols are int64
    rng = random.Random(19)
    big = [2**31 + 11, 2**63 - 1, 2**64, 2**64 + 1, 3 * 2**100, 2**127 - 1,
           2**127]
    ms = list(range(1, 60)) + big + [rng.randrange(1, 2**127) >> k
                                     for k in (0, 1, 2, 3) for _ in range(6)]
    avals = list(range(-12, 12)) + [v for b in big for v in (b, -b, b - 1)] + \
        [rng.randrange(-2**127, 2**127) for _ in range(24)]
    pairs = [(a, v) for a in avals for v in ms]
    a, m = (np.array(col, dtype=object) for col in zip(*pairs))
    symbols = _lane_kronecker(a, m)
    assert symbols.dtype == np.int64
    assert symbols.tolist() == [kronecker(*ab) for ab in pairs]
    for a in (-3, -(2**127), 2**127 - 1):
        assert _lane_kronecker(a, np.array(ms, dtype=object)).tolist() == \
            [kronecker(a, v) for v in ms]


# ---------------------------------------------------------------------------
# count_roots
# ---------------------------------------------------------------------------

def test_count_roots_examples():
    sg_product = build_system([parse_polynomial("n"),
                               parse_polynomial("2*n+1")]).product
    assert count_roots(sg_product, 2).omega == 1
    rs = list_roots(sg_product, 5)
    assert rs.omega == 2 and rs.roots == (0, 2)
    f6 = parse_polynomial("6*n^2+1")
    assert count_roots(f6, 3).omega == 0
    assert count_roots(f6, 2).omega == 0
    assert list_roots(f6, 5).roots == (2, 3)


def test_count_roots_rejects_composite_modulus():
    with pytest.raises(NotPrimeError):
        count_roots(parse_polynomial("n^2+1"), 10)
    with pytest.raises(NotPrimeError):
        list_roots(parse_polynomial("n^2+1"), 1)


def test_count_roots_identically_zero_encoding():
    f = Polynomial((5, 10, 5))  # 5(n+1)^2
    assert count_roots(f, 5).omega == 5
    with pytest.raises(IdenticallyZeroError):
        list_roots(f, 5)


def test_count_roots_brute_force_500_polys():
    rng = random.Random(42)
    for _ in range(500):
        f = random_poly(rng)
        for p in PRIMES_TO_997:
            assert _root_count(f, p) == brute_force_omega(f.coeffs, p), \
                (f.coeffs, p)


def test_quadratic_fast_path_matches_gcd_method():
    # the discriminant formula omega = 1 + (D|p) against deg g_1 from the
    # GF(p) chain, for every 3 < p <= 10^4 not dividing 2aD
    rng = random.Random(77)
    primes = [int(q) for q in np.flatnonzero(simple_sieve(10**4))]
    for _ in range(12):
        c, b = rng.randint(-50, 50), rng.randint(-50, 50)
        a = rng.randint(1, 50)
        f = Polynomial((c, b, a))
        disc = b * b - 4 * a * c
        for p in primes:
            if p <= 3 or (2 * a * disc) % p == 0:
                continue
            g1 = next(_gfpoly.distinct_degree([c % p for c in f.coeffs], p))[1]
            assert 1 + kronecker(disc, p) == _gfpoly.degree(g1), (f.coeffs, p)


# ---------------------------------------------------------------------------
# list_roots
# ---------------------------------------------------------------------------

def test_list_roots_substitution_property():
    rng = random.Random(4242)
    for _ in range(150):
        f = random_poly(rng)
        p = rng.choice(PRIMES_TO_997)
        if all(c % p == 0 for c in f.coeffs):
            continue
        rs = list_roots(f, p)
        assert rs.omega == len(rs.roots) == count_roots(f, p).omega
        assert rs.roots == tuple(sorted(set(rs.roots)))
        for r in rs.roots:
            assert sum(c * r**k for k, c in enumerate(f.coeffs)) % p == 0


@pytest.mark.parametrize("p", [65537, 1_000_003, 2_147_483_647])
def test_list_roots_large_prime_splitting(p):
    rng = random.Random(p)
    # cubics with three known distinct roots mod p
    for _ in range(8):
        r1, r2, r3 = sorted(rng.sample(range(2, p - 1), 3))
        # (n - r1)(n - r2)(n - r3) reduced into the signed 64-bit range
        def m(v):
            v %= p
            return v
        c0 = m(-r1 * m(r2 * r3))
        c1 = m(r1 * r2 + r1 * r3 + r2 * r3)
        c2 = m(-(r1 + r2 + r3))
        f = Polynomial((c0, c1, c2, 1))
        assert list_roots(f, p).roots == (r1, r2, r3)
    # quadratics via sqrt_mod of the discriminant, by Tonelli-Shanks at
    # 65537 (1 mod 8) and a^((p+1)/4) at the other two primes (3 mod 4)
    for _ in range(8):
        r1, r2 = sorted(rng.sample(range(1, p - 1), 2))
        f = Polynomial(((r1 * r2) % p, (-(r1 + r2)) % p, 1))
        assert list_roots(f, p).roots == (r1, r2)
    f6 = parse_polynomial("6*n^2+1")
    rs = list_roots(f6, p)
    assert rs.omega == 1 + kronecker(-24, p)
    for r in rs.roots:
        assert (6 * r * r + 1) % p == 0


@pytest.mark.parametrize("g,p", [
    ([2, 0, 0, 1], 7),  # x^3 + 2, irreducible: every shift below p fails
    ([2, 0, 0, 1], 1_000_003),  # 2 is no cube: the check after 8 shifts
], ids=["cap", "check"])
def test_split_linear_product_raises_without_linear_factors(
        monkeypatch, g, p):
    powers = []
    pow_mod = modular._gfpoly.pow_mod
    monkeypatch.setattr(modular._gfpoly, "pow_mod",
                        lambda *args: powers.append(args) or pow_mod(*args))
    with pytest.raises(ArithmeticError):
        modular._split_linear_product(g, p)
    # shifts stop below p, or at the check after 7 of them
    assert len(powers) <= min(p - 1, 8)


@pytest.mark.parametrize("p", [7, 13])  # -2 is no cube mod 7 or 13
def test_lane_split_raises_without_linear_factors(p):
    g = np.array([[2], [0], [0], [1]], dtype=np.int64)  # x^3 + 2
    with pytest.raises(ArithmeticError, match="no shift t < p"):
        modular._lane_linear_roots(g, np.array([3]),
                                   np.array([p], dtype=np.int64))


def test_list_roots_trivial_example():
    assert list_roots(parse_polynomial("2*n+1"), 7).roots == (3,)


@pytest.mark.parametrize("text", ["n^3+2", "n^3-3*n+1", "n^4+3*n+7"])
def test_list_roots_brute_force_below_4400(text):
    # every prime: the residue scan at p <= 3, the split of g_1 above
    f = parse_polynomial(text)
    split = 0
    for p in primes_up_to(4400):
        expected = tuple(brute_force_roots(f.coeffs, p))
        assert list_roots(f, p).roots == expected, p
        split += len(expected) >= 2
    assert split > 0


@pytest.mark.parametrize("p", [2, 3])
def test_list_and_count_roots_scan_small_primes(p):
    # every coefficient tuple over [0, p) of degree 1-4 with a nonzero lead,
    # and the same tuple with p added to the lead, which the reduction drops
    for d in range(1, 5):
        for coeffs in itertools.product(range(p), repeat=d + 1):
            if coeffs[-1] == 0:
                continue
            for lead in (coeffs[-1], coeffs[-1] + p):
                f = Polynomial(coeffs[:-1] + (lead,))
                if all(c % p == 0 for c in f.coeffs):
                    with pytest.raises(IdenticallyZeroError):
                        list_roots(f, p)
                    assert count_roots(f, p).omega == p
                    continue
                roots = list_roots(f, p).roots
                assert list(roots) == brute_force_roots(f.coeffs, p), f
                assert count_roots(f, p).omega == len(roots), f


def test_union_bound_on_products():
    # any f and g: reducible, equal or inadmissible pairs need no system
    rng = random.Random(31)
    checked = inadmissible = 0
    for _ in range(60):
        f = random_poly(rng, max_degree=2, bound=9)
        g = random_poly(rng, max_degree=2, bound=9)
        prod = [0] * (f.degree + g.degree + 1)
        for i, a in enumerate(f.coeffs):
            for j, b in enumerate(g.coeffs):
                prod[i + j] += a * b
        product = Polynomial(tuple(prod))
        p = rng.choice(PRIMES_TO_997)
        if any(all(c % p == 0 for c in h.coeffs) for h in (f, g, product)):
            continue
        rf, rg = set(list_roots(f, p).roots), set(list_roots(g, p).roots)
        omega_product = count_roots(product, p).omega
        assert omega_product <= len(rf) + len(rg)
        assert omega_product == len(rf | rg)
        if not (rf & rg):
            assert omega_product == len(rf) + len(rg)
        checked += 1
        inadmissible += _inadmissibility_witness(product) is not None
    assert checked >= 50 and inadmissible >= 34


# ---------------------------------------------------------------------------
# sqrt_mod
# ---------------------------------------------------------------------------

def test_sqrt_mod_roundtrip():
    rng = random.Random(6)
    for p in [3, 5, 7, 13, 101, 65537, 1_000_003]:
        for _ in range(25):
            a = rng.randint(0, p - 1)
            r = sqrt_mod(a, p)
            if r is None:
                assert pow(a, (p - 1) // 2, p) == p - 1
            else:
                assert r * r % p == a % p


def test_sqrt_mod_rejects_composite_modulus():
    # 2^2 = 4 mod 15, so None would be wrong; on the Carmichael number 561
    # Euler's criterion never gives -1 and Tonelli-Shanks would return 460,
    # whose square is 103.
    for p in (15, 561, 1, 0, -7):
        with pytest.raises(NotPrimeError):
            sqrt_mod(4, p)
    assert [sqrt_mod(a, 2) for a in (0, 1, 2, 3)] == [0, 1, 0, 1]


# p = 1 (mod 8) primes that reach Tonelli-Shanks's hard cases: a large e in
# p - 1 = 2^e d (27, 26 and 16) and a large least nonresidue z (59, 67 and
# 71); the last two are object lanes above 2^31
TONELLI_PRIMES = [2013265921, 469762049, 65537, 22000801, 48473881,
                  175244281, 2147483713, 2147483777]


def test_sqrt_mod_equals_lane_sqrt():
    # The scalar and lane forms take the same steps, hence the same root;
    # sympy, if installed, lists both roots independently.
    rng = random.Random(7)
    p = np.array([q for q in primes_up_to(10**5) if q >= 5], dtype=np.int64)
    a = np.array([pow(rng.randrange(1, q), 2, q) for q in p.tolist()],
                 dtype=np.int64)
    lanes = modular._lane_sqrt(a, p)
    assert lanes.tolist() == [sqrt_mod(x, q) for x, q in
                              zip(a.tolist(), p.tolist())]
    found = list(zip(lanes.tolist(), a.tolist(), p.tolist()))
    # e = 2 (p = 5 (mod 8)): x = a^((p+3)/8), times z^((p-1)/4) for the
    # least odd prime nonresidue z where x^2 = -a; both occur
    five = np.flatnonzero(p % 8 == 5)
    assert five.size > 1000
    z = modular._nonresidue(p[five]).tolist()
    flips = 0
    for s, x, q, zq in zip(lanes[five].tolist(), a[five].tolist(),
                           p[five].tolist(), z):
        assert pow(zq, (q - 1) // 2, q) == q - 1
        root = pow(x, (q + 3) // 8, q)
        if root * root % q != x:
            root, flips = root * pow(zq, (q - 1) // 4, q) % q, flips + 1
        assert s == root
    assert 0 < flips < five.size
    # e = 1 (p = 3 (mod 4)): a^((p+1)/4), in the lanes above and at every
    # residue of the first 40 such primes
    three = p % 4 == 3
    assert lanes[three].tolist() == [
        pow(x, (q + 1) // 4, q) for x, q in zip(a[three].tolist(),
                                                p[three].tolist())]
    for q in p[three].tolist()[:40]:
        assert all(sqrt_mod(x, q) == pow(x, (q + 1) // 4, q)
                   for x in range(1, q) if pow(x, (q - 1) // 2, q) == 1)
    # Tonelli-Shanks's hard cases, in int64 lanes below 2^31 and the same
    # primes again in object lanes; object lanes at primes = 1 and = 5
    # (mod 8) just above 2^31 and the last edge prime (= 1 (mod 8)); int64
    # lanes with e = 1 only, so _nonresidue gets an empty array, and
    # object lanes with e = 1 and 2
    for batch, dtype in ((TONELLI_PRIMES[:6], np.int64),
                         (TONELLI_PRIMES, object),
                         ([2147483693, 2147483813, EDGE_PRIMES[-1]], object),
                         ([q for q in primes_up_to(10**4) if q % 4 == 3],
                          np.int64),
                         ([2147483659, 2147483693, 2147483813], object)):
        primes = [q for q in batch for _ in range(16)]
        p = np.array(primes, dtype=np.int64).astype(dtype)
        a = np.array([pow(rng.randrange(1, q), 2, q) for q in primes],
                     dtype=p.dtype)
        lanes = modular._lane_sqrt(a, p)
        assert lanes.dtype == p.dtype
        assert lanes.tolist() == [sqrt_mod(x, q) for x, q in
                                  zip(a.tolist(), primes)]
        found += zip(lanes.tolist(), a.tolist(), primes)
    for s, x, q in found:
        assert s * s % q == x
    sympy_sqrt_mod = pytest.importorskip(
        "sympy.ntheory.residue_ntheory").sqrt_mod
    for s, x, q in found:
        assert sorted({s, q - s}) == sympy_sqrt_mod(x, q, all_roots=True)


def test_sqrt_mod_reads_a_nonresidue_only_where_e_is_at_least_2(
        monkeypatch):
    # p = 2 and p = 3 (mod 4) have e <= 1 in p - 1 = 2^e d: neither form
    # reads a (z|p) table; every p = 1 (mod 4) reads at least one
    read = []
    table = primality._jacobi_table
    monkeypatch.setattr(primality, "_jacobi_table",
                        lambda D: read.append(D) or table(D))
    three = [q for q in primes_up_to(10**4) if q % 4 == 3]
    for q in [2] + three:
        for x in range(min(q, 50)):
            modular._sqrt_mod(x, q)
    for p in (np.array(three), np.array(three + [2147483659], dtype=object)):
        modular._lane_sqrt(p % p, p)
        modular._lane_sqrt(np.ones_like(p), p)
    assert read == []
    assert modular._nonresidue(np.array([], dtype=np.int64)).size == 0
    assert read == []
    assert modular._sqrt_mod(4, 5) == 2
    assert read == [3]
    assert modular._lane_sqrt(np.array([4, 4]), np.array([7, 5])).tolist() \
        == [2, 2]
    assert read == [3, 3]


def test_nonresidue_is_the_least_odd_prime_nonresidue():
    # Euler's criterion is the oracle
    p = np.array([q for q in primes_up_to(10**4) if q % 4 == 1]
                 + TONELLI_PRIMES, dtype=np.int64)
    z = modular._nonresidue(p).tolist()
    assert z[-8:] == [11, 3, 3, 59, 67, 71, 5, 3]
    for q, zq in zip(p.tolist(), z):
        assert pow(zq, (q - 1) // 2, q) == q - 1
        assert all(pow(r, (q - 1) // 2, q) == 1
                   for r in PRIMES_TO_997[1:] if r < zq)
    assert modular._nonresidue(p.astype(object)).tolist() == z
    # (q|1) = 1 for every q, and (q|9) = 1 or 0, so no odd prime
    # qualifies; 9 - 1 = 2^3, so the scalar form reads the tables too
    with pytest.raises(ArithmeticError, match="nonresidue"):
        modular._nonresidue(np.array([1], dtype=np.int64))
    with pytest.raises(ArithmeticError, match="nonresidue"):
        modular._sqrt_mod(1, 9)


# ---------------------------------------------------------------------------
# batched root tables
# ---------------------------------------------------------------------------

def _quadratic_with_discriminant(d):
    """(c, b, a) with b^2 - 4ac = d, for d = 0 or 1 (mod 4)."""
    return ((-d // 4, 0, 1) if d % 4 == 0 else ((1 - d) // 4, 1, 1))


@pytest.fixture
def fresh_jacobi_tables():
    """Empty primality._jacobi_table's cache before and after the test, so
    that a patched symbol reaches the tables and no table built by it
    outlives the test."""
    primality._jacobi_table.cache_clear()
    yield
    primality._jacobi_table.cache_clear()


@pytest.mark.parametrize("d", [
    1, -3, -4, 5, 8, 12, -24,
    8189, -8192,  # |D| <= _LANES: gathered from one cached table
    8193, -8196,  # |D| > _LANES: the lane Kronecker symbol of D mod p
])
def test_tabled_symbol_matches_kronecker(d, monkeypatch, fresh_jacobi_tables):
    symbol = primality._lane_kronecker
    moduli = []

    def recording_symbol(a, m):
        moduli.append(m)
        return symbol(a, m)

    monkeypatch.setattr(primality, "_lane_kronecker", recording_symbol)
    coeffs = _quadratic_with_discriminant(d)
    assert coeffs[1] ** 2 - 4 * coeffs[0] * coeffs[2] == d
    for batch in ([q for q in primes_up_to(10**4) if q >= 5], EDGE_PRIMES):
        p = modular._lane_array(np.array(batch, dtype=np.int64))
        rest, lanes, _, split = modular._lane_split(
            coeffs, [c % p for c in coeffs], p)
        assert np.flatnonzero(rest).tolist() == \
            [i for i, q in enumerate(batch) if d % q == 0]
        assert split.tolist() == \
            [kronecker(d, q) == 1 for q in np.array(batch)[lanes].tolist()]
    # one table of (D|m), m in [|D|, 2|D|), serves both batches
    tabled = [len(m) == abs(d) and m[0] == abs(d) for m in moduli]
    assert tabled == ([True] if abs(d) <= modular._LANES else [False] * 2)


@pytest.mark.parametrize("c", [
    1, -1, 2, -2, 12, -12,
    8191, -8192, 8192,  # |c| <= _LANES: (1 + k p)/|c| from a table
    8193, -8193,  # |c| > _LANES: a^(p-2) by _lane_pow
])
def test_tabled_inverse_matches_pow(c):
    for batch in ([q for q in primes_up_to(10**4) if q >= 5 and c % q],
                  EDGE_PRIMES):
        p = modular._lane_array(np.array(batch, dtype=np.int64))
        inv = modular._lane_inverse(c, c % p, p)
        assert inv.dtype == p.dtype
        assert inv.tolist() == [pow(c, -1, q) for q in batch]


@pytest.mark.parametrize("text", [
    "n^2+n+2053",  # D = -8211: past the symbol table's cap
    "5000*n^2+1",  # 2a = 10000 and D = -20000: neither table applies
    "8193*n+5", "9223372036854775807*n-1",  # leads past the inverse table
])
def test_root_table_without_tables_matches_list_roots(text):
    f = parse_polynomial(text)
    batches = ([q for q in primes_up_to(10**4)], EDGE_PRIMES)
    for batch in batches:
        [(p, r)] = _root_table([f], [np.array(batch, dtype=np.int64)])
        assert list(zip(p.tolist(), r.tolist())) == \
            [(q, root) for q in batch for root in list_roots(f, q).roots]
        assert modular._root_counts(f, np.array(batch, dtype=np.int64)
                                    ).tolist() == \
            [_root_count(f, q) for q in batch]


@pytest.mark.parametrize("text", ["n^3+2", "n^4+1", "6*n^2+1", "2*n+1"])
def test_root_table_does_not_depend_on_the_order_of_primes(text):
    f = parse_polynomial(text)
    # the second batch ends below 2^31, so its dtype comes from its largest
    for batch in ([2147483659, 2147483693, 2147483869, 4294967291, 2147506201],
                  [4294967291, 2147483659, 5, 7, 997]):
        [unsorted] = _root_table([f], [np.array(batch, dtype=np.int64)])
        [ascending] = _root_table([f], [np.array(sorted(batch),
                                                 dtype=np.int64)])
        assert unsorted[0].dtype == unsorted[1].dtype == np.int64
        assert [a.tolist() for a in unsorted] == \
            [a.tolist() for a in ascending]

@pytest.mark.parametrize("texts", [
    ("6*n^2+1",), ("n^2+1",), ("n^2-2",), ("3*n^2+n+1",), ("n", "2*n+1"),
    ("n^2+n+41", "2*n+1"),
    ("720720*n^2+1",),  # a leading coefficient with many divisors
    ("9223372036854775807*n^2-9223372036854775806*n+9223372036854775805",),
    ("n^3+2",),  # g_1 in lanes; 1,559 lanes split it in lanes too
    ("30*n^3+7",),  # p | 30 is scalar; a triple root mod 7 in lanes
])
def test_root_table_matches_list_roots_below_1e5(texts):
    polys = [parse_polynomial(t) for t in texts]
    [(p, r)] = _root_table(polys, _prime_segments(10**5))
    assert p.dtype == r.dtype == np.int32
    expected = [(q, root) for q in primes_up_to(10**5) for root in
                sorted({x for f in polys for x in list_roots(f, q).roots})]
    assert list(zip(p.tolist(), r.tolist())) == expected


@pytest.mark.parametrize("text", [
    "n^3+n+1",  # D = -31: a double root mod 31
    "n^3+8*n^2+12*n",  # n (n+2) (n+6): three roots at every p > 5
    "n^7-n+7",  # every residue is a root mod 7, with g_1 = f
    "n^6+n^5+n^4+n^3+n^2+n+1",  # 6 roots at p = 1 (mod 7), 6-fold at 7
    "9223372036854775807*n^8-9223372036854775807*n+9223372036854775806",
])
def test_root_table_matches_list_roots_degree_3_to_8(text):
    # below 10^4, where list_roots, the oracle, stays cheap at degree 8
    f = parse_polynomial(text)
    [(p, r)] = _root_table([f], _prime_segments(10**4))
    assert list(zip(p.tolist(), r.tolist())) == \
        [(q, root) for q in primes_up_to(10**4) for root in
         list_roots(f, q).roots]


@pytest.mark.parametrize("text", [
    "n^3+2", "n^7-n+7", "n^6+n^5+n^4+n^3+n^2+n+1",
    "9223372036854775807*n^8-9223372036854775807*n+9223372036854775806",
])
def test_root_table_at_the_lane_limit(text):
    # the last primes below 2^31, where lane products come closest to 2^63
    f = parse_polynomial(text)
    q = [2147483587, 2147483629, 2147483647]
    [(p, r)] = _root_table([f], [np.array(q, dtype=np.int32)])
    assert p.dtype == r.dtype == np.int32
    assert list(zip(p.tolist(), r.tolist())) == \
        [(v, root) for v in q for root in list_roots(f, v).roots]


def test_root_table_prime_above_2_31():
    q = 2147483659  # the first prime above 2^31: int64 lanes would overflow
    for text in ("2*n+1", "n^2+2", "n^2+n+41", "n^2+1", "n^3+2"):
        f = parse_polynomial(text)
        [(p, r)] = _root_table([f], [np.array([q])])
        assert p.dtype == r.dtype == np.int64
        assert p.tolist() == [q] * len(r), text
        assert r.tolist() == list(list_roots(f, q).roots), text


@pytest.mark.parametrize("text", [
    "2*n+1", "n^2+1", "6*n^2+1", "n^3+2",
    "9223372036854775807*n^8-9223372036854775807*n+9223372036854775806",
    "2147483659*n^2+1",  # 2147483659 divides the lead: the scalar path
])
def test_root_table_and_counts_past_the_lane_limit(text):
    f = parse_polynomial(text)
    p = np.array(EDGE_PRIMES, dtype=np.int64)
    [(q, r)] = _root_table([f], [p])
    assert q.dtype == r.dtype == np.int64
    assert list(zip(q.tolist(), r.tolist())) == \
        [(v, root) for v in EDGE_PRIMES for root in list_roots(f, v).roots]
    assert all(sum(c * pow(root, k, v) for k, c in enumerate(f.coeffs)) % v
               == 0 for v, root in zip(q.tolist(), r.tolist()))
    omega = modular._root_counts(f, p)
    assert omega.dtype == np.int64
    assert omega.tolist() == [_root_count(f, v) for v in EDGE_PRIMES]


# ---------------------------------------------------------------------------
# batched root counts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", [
    "2*n+1", "6*n+3",
    "5*n+10",  # vanishes identically mod 5: omega = p
    "2*n^2+n",  # n (2n + 1)
    "n^2-2", "6*n^2+1", "101*n^2+1",
    "5*n^2+7*n+11",  # 2aD = -1710: 2, 3, 5 and 19 on the scalar path
    "n^2+2*n+1",  # D = 0: every prime on the scalar path
    "7*n^2+14",  # vanishes identically mod 7
    "720720*n^2+1",
    "n^3+8*n^2+12*n", "n^3+2",  # degree >= 3: deg g_1 in lanes
    "30*n^3+7",  # 2, 3 and 5 divide the leading coefficient: scalar
    "n^3+n+1",  # D = -31: a double root mod 31
    "n^7-n+7",  # omega(7) = 7, with g_1 = f
    "n^6+n^5+n^4+n^3+n^2+n+1",  # 6 roots at p = 1 (mod 7), 6-fold at 7
    "n^4+1", "3*n^3+5*n+7", "n^5-n+1",
    "9223372036854775807*n^8-9223372036854775807*n+9223372036854775806",
])
def test_root_counts_match_root_count(text, monkeypatch):
    f = parse_polynomial(text)
    lane_array = modular._lane_array
    dtypes = []

    def recording_lane_array(p):
        lanes = lane_array(p)
        dtypes.append(lanes.dtype)
        return lanes

    monkeypatch.setattr(modular, "_lane_array", recording_lane_array)
    # 2 and 3, the small primes that divide 2aD and the last primes below
    # 2^31 on int64 lanes; 2147483659, the first above it, on object lanes
    for batch in (PRIMES_TO_997 + [2147483587, 2147483629, 2147483647],
                  [2147483659]):
        p = np.array(batch, dtype=np.int64)
        omega = modular._root_counts(f, p)
        assert omega.dtype == np.int64
        assert omega.tolist() == [_root_count(f, q) for q in batch]
    assert dtypes == [np.int64, object]


def test_root_counts_raise_when_legendre_symbol_fails(monkeypatch,
                                                     fresh_jacobi_tables):
    # p does not divide D in these lanes, so a symbol 0 is a fault
    monkeypatch.setattr(primality, "_lane_kronecker",
                        lambda a, m: np.zeros_like(m))
    for batch in ([5, 7, 11], EDGE_PRIMES):
        with pytest.raises(ArithmeticError, match="Legendre"):
            modular._root_counts(parse_polynomial("n^2+1"),
                                 np.array(batch, dtype=np.int64))


def test_root_table_raises_when_legendre_symbol_is_flipped(
        monkeypatch, fresh_jacobi_tables):
    # every nonresidue lane now claims two roots: caught by s^2 = D
    symbol = primality._lane_kronecker
    monkeypatch.setattr(primality, "_lane_kronecker",
                        lambda a, m: -symbol(a, m))
    for batch in FAULT_BATCHES:
        with pytest.raises(ArithmeticError, match="square root"):
            _root_table([parse_polynomial("n^2+1")],
                        [np.array(batch, dtype=np.int64)])


def test_root_table_raises_when_the_nonresidue_is_a_residue(monkeypatch):
    # z^2 in place of z: Tonelli-Shanks's c then misses the order it needs,
    # caught by s^2 = D in the p = 1 (mod 4) lanes
    monkeypatch.setattr(modular, *_corrupt(
        "_nonresidue", lambda out, p: out * out % p))
    for batch in FAULT_BATCHES:
        with pytest.raises(ArithmeticError, match="square root"):
            _root_table([parse_polynomial("6*n^2+1")],
                        [np.array(batch, dtype=np.int64)])


def _corrupt(name, wrap):
    """Replace modular.<name> by wrap applied to the original."""
    original = getattr(modular, name)
    return name, lambda *args: wrap(original(*args), *args)


@pytest.mark.parametrize("name,fault,match", [
    # x^p mod f off by one: caught by f(x^p) = 0 (mod f)
    (*_corrupt("_lane_mulmod", lambda out, a, b, neg, p: (out + 1) % p),
     r"f\(x\^p\) = 0"),
    # g_1 with its constant term moved: it no longer divides f
    (*_corrupt("_lane_gcd", lambda out, a, b, p: (
        np.vstack([(out[0][:1] + 1) % p, out[0][1:]]), out[1])),
     "g_1 does not divide"),
], ids=["x^p", "gcd"])
def test_lane_g1_raises_when_a_lane_is_corrupted(monkeypatch, name, fault,
                                                  match):
    monkeypatch.setattr(modular, name, fault)
    f = parse_polynomial("n^3+2")
    for batch in FAULT_BATCHES:
        p = np.array(batch, dtype=np.int64)
        with pytest.raises(ArithmeticError, match=match):
            modular._root_counts(f, p)
        with pytest.raises(ArithmeticError, match=match):
            _root_table([f], [p])


@pytest.mark.parametrize("text", ["2*n+1", "6*n^2+1"])
def test_root_table_raises_when_the_tabled_inverse_is_shifted(monkeypatch,
                                                               text):
    # the inverse of the lead, or of 2a, off by one: caught by f(r) = 0
    monkeypatch.setattr(modular, *_corrupt(
        "_lane_inverse", lambda out, c, a, p: (out + 1) % p))
    for batch in FAULT_BATCHES:
        with pytest.raises(ArithmeticError, match=r"f\(r\) = 0"):
            _root_table([parse_polynomial(text)],
                        [np.array(batch, dtype=np.int64)])


@pytest.mark.parametrize("fault,match", [
    (lambda q, r, split: (np.delete(q, split.argmax()),  # one root short
                          np.delete(r, split.argmax())), "deg g_1 roots"),
    (lambda q, r, split: (q, np.where(split, (r + 1) % q, r)),  # f(r) != 0
     r"f\(r\) = 0"),
], ids=["count", "f(r)"])
def test_root_table_raises_when_a_split_is_corrupted(monkeypatch, fault,
                                                     match):
    # the fault hits only the roots of lanes whose g_1 has degree >= 3,
    # the ones the lane split solves
    linear_roots = modular._lane_linear_roots

    def corrupted(g, deg, p):
        q, r = linear_roots(g, deg, p)
        split = np.isin(q.astype(np.int64), p[deg > 2].astype(np.int64))
        assert split.any()
        return fault(q, r, split)

    monkeypatch.setattr(modular, "_lane_linear_roots", corrupted)
    for batch in FAULT_BATCHES:
        with pytest.raises(ArithmeticError, match=match):
            _root_table([parse_polynomial("n^3+2")],
                        [np.array(batch, dtype=np.int64)])


@pytest.mark.parametrize("text", [
    "n^3+2", "n^3-3*n+1", "n^4+1",
    "n^6+n^5+n^4+n^3+n^2+n+1",  # 6 roots at p = 1 (mod 7): the split recurses
    # 20495 = 5 * 4099: at both primes the lead vanishes, and the cubic
    # left takes the scalar chain
    "20495*n^4+n^3+2",
])
def test_lane_split_against_brute_force_and_list_roots(text):
    f = parse_polynomial(text)
    [(p, r)] = _root_table([f], _prime_segments(2 * 10**4))
    assert list(zip(p.tolist(), r.tolist())) == \
        [(q, root) for q in primes_up_to(2 * 10**4)
         for root in brute_force_roots(f.coeffs, q)]
    assert max(np.bincount(p)) == f.degree  # some lanes split all the way
    # object lanes, where list_roots, which no longer shares the lane
    # split, is the oracle; every f but the last splits completely mod
    # 2147506201
    for batch in (EDGE_PRIMES, sorted(FAULT_BATCHES[1] + [2147506201])):
        [(p, r)] = _root_table([f], [np.array(batch, dtype=np.int64)])
        assert list(zip(p.tolist(), r.tolist())) == \
            [(v, root) for v in batch for root in list_roots(f, v).roots]
