import math
import random

import numpy as np
import pytest

from batemanhorn import (
    DETERMINISTIC,
    PROBABLE,
    LimitTooLargeError,
    classify,
    is_prime,
    primes_up_to,
    simple_sieve,
)
from batemanhorn import primality
from batemanhorn.primality import _miller_rabin, _strong_lucas


def independent_odd_sieve(limit: int) -> list[int]:
    """Oracle: odd-only bytearray sieve, a different code path entirely."""
    if limit < 2:
        return []
    out = [2]
    size = (limit - 1) // 2  # flags for 3, 5, 7, ...
    flags = bytearray([1]) * size
    for i in range(size):
        if flags[i]:
            p = 2 * i + 3
            if p * p > limit:
                break
            start = (p * p - 3) // 2
            flags[start::p] = bytearray(len(flags[start::p]))
    out.extend(2 * i + 3 for i in range(size) if flags[i])
    return out


def test_primes_up_to_30():
    assert list(primes_up_to(30)) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_primes_boundary():
    assert list(primes_up_to(2)) == [2]
    assert list(primes_up_to(3)) == [2, 3]
    with pytest.raises(ValueError):
        list(primes_up_to(1))


def test_pi_of_1e6_against_independent_oracle():
    mine = list(primes_up_to(10**6))
    assert len(mine) == 78498
    oracle = independent_odd_sieve(10**6)
    assert mine == oracle


def test_segment_size_invariance():
    # the sieve runs in fixed 2^20 segments; the output must not depend on
    # where a limit falls against their edges
    for limit in (2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 7):
        expected = np.flatnonzero(simple_sieve(limit)).tolist()
        assert list(primes_up_to(limit)) == expected, limit


def test_segment_shape_and_bit_correctness():
    # n drawn from both sides of the first segment edge, against trial
    # division; nothing past the limit is yielded
    limit = 2**20 + 3 * 10**4
    primes = set(primes_up_to(limit))
    assert max(primes) <= limit
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randrange(2**20 - 3 * 10**4, limit + 100)
        by_trial = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert (n in primes) == (by_trial and n <= limit), n


def test_sieve_limit_guard():
    with pytest.raises(LimitTooLargeError):
        next(iter(primes_up_to(2**40 + 1)))


def test_trivial_values():
    assert not is_prime(1)
    assert is_prime(2)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_classify_agrees_with_sieve_below_1e6():
    sieve = simple_sieve(10**6)
    for n in range(10**6 + 1):
        assert classify(n).prime == bool(sieve[n]), n


def test_random_40bit_against_trial_division():
    rng = random.Random(40)
    base = np.flatnonzero(simple_sieve(1 << 20)).astype(np.int64)
    for _ in range(10**4):
        v = rng.randrange(1 << 39, 1 << 40)
        r = math.isqrt(v)
        divisors = base[base <= r]
        expected = not np.any(v % divisors == 0)
        got = classify(v)
        assert got.prime == expected, v
        assert got.certainty == DETERMINISTIC


def test_deterministic_tags_below_2_64():
    assert classify(2**61 - 1) == (True, DETERMINISTIC)  # Mersenne prime
    # 6*(10^9)^2 + 1 = 7 * 340335059 * 2518526477
    v = 6 * (10**9)**2 + 1
    assert v == 6000000000000000001
    assert classify(v) == (False, DETERMINISTIC)
    assert v % 7 == 0


def test_probable_tags_above_2_64():
    assert classify(2**64 + 13) == (True, PROBABLE)
    assert classify(2**89 - 1) == (True, PROBABLE)  # Mersenne prime
    # composite with a tiny factor: certain even above 2^64
    assert classify(3 * (2**64 + 13)) == (False, DETERMINISTIC)
    # semiprime of two 34-bit primes: no factor below 1000, caught by the
    # base-2 strong test, still a certain verdict
    assert classify(8589934583 * 8589934609) == (False, DETERMINISTIC)
    # perfect squares cannot fool the Lucas stage
    assert classify((2**64 + 13)**2) == (False, DETERMINISTIC)


# (psi_k, k): smallest strong pseudoprime to the first k prime bases.
# classify runs one base, 2, and then the strong Lucas test, so each psi_k
# is a composite it must catch and a bound of the value ranges sampled in
# test_classify_against_sympy_in_every_tier.
STRONG_PSEUDOPRIME_EDGES = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
    (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
    (3825123056546413051, 9),
)
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_7, PSI_9 = 341550071728321, 3825123056546413051
# Strong Lucas pseudoprimes with Selfridge parameters (OEIS A217255).
STRONG_LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569,
                             25199, 40309, 58519)


@pytest.mark.parametrize("psi,k", STRONG_PSEUDOPRIME_EDGES)
def test_witness_tier_edges(psi, k):
    # psi_k fools a strong test with the first k bases; Baillie-PSW must
    # still call it composite
    assert _miller_rabin(psi, FIRST_PRIMES[:k])
    assert classify(psi) == (False, DETERMINISTIC)


@pytest.mark.parametrize("psi", (PSI_7, PSI_9))
def test_base_2_strong_pseudoprimes_fail_baillie_psw(psi):
    # from psi_7 up only base 2 runs, so the Lucas stage must reject these
    assert _miller_rabin(psi, (2,))
    assert classify(psi) == (False, DETERMINISTIC)


@pytest.mark.parametrize("n", STRONG_LUCAS_PSEUDOPRIMES)
def test_strong_lucas_pseudoprimes_are_composite(n):
    assert _strong_lucas(n)
    assert classify(n) == (False, DETERMINISTIC)


def test_products_p_times_2p_minus_1_are_deterministic_composites():
    # p(2p - 1) with both factors prime is the shape of many base-2 strong
    # pseudoprimes; in [psi_7, 2^64) and [10^6, psi_7) Baillie-PSW must call
    # it composite, and below psi_7 some of them pass base 2, so the Lucas
    # stage decides those
    rng = random.Random(2021)
    for lo_v, hi_v in ((PSI_7, 2**64), (10**6, PSI_7)):
        lo, hi = math.isqrt(lo_v // 2), math.isqrt(hi_v // 2)
        checked = base_2_passes = 0
        while checked < 100:
            p = rng.randrange(lo, hi)
            v = p * (2 * p - 1)
            if lo_v <= v < hi_v and is_prime(p) and is_prime(2 * p - 1):
                assert classify(v) == (False, DETERMINISTIC), v
                base_2_passes += _miller_rabin(v, (2,))
                checked += 1
        if hi_v == PSI_7:
            assert base_2_passes > 0


def test_baillie_psw_matches_the_12_base_tier_on_sieve_survivors():
    # values with no prime factor below 1000, as the segment kernel hands
    # them over, from one 2^20 chunk of 6n^2+1 near n = 1e9 and from n^3+2;
    # a strong test with the first 12 primes as bases decides every
    # v < 2^64 (Sorenson, Webster 2017), so it is an independent oracle for
    # classify, which never runs more than base 2
    small = math.prod(np.flatnonzero(simple_sieve(1000)).tolist())
    rng = random.Random(1009)
    values = []
    for f, lo, hi in ((lambda n: 6 * n * n + 1, 10**9, 10**9 + 2**20),
                      (lambda n: n**3 + 2, 1_600_000, 2_600_000)):
        sample = []
        while len(sample) < 1000:
            v = f(rng.randrange(lo, hi))
            if math.gcd(v, small) == 1:
                sample.append(v)
        values += sample
    primes = 0
    for v in values:
        assert PSI_7 <= v < 2**64
        expected = _miller_rabin(v, FIRST_PRIMES)
        assert classify(v) == (expected, DETERMINISTIC), v
        primes += expected
    assert 0 < primes < len(values)


def test_strong_lucas_against_sympy():
    primetest = pytest.importorskip("sympy.ntheory.primetest")
    rng = random.Random(70)
    verdicts = set()
    for _ in range(2000):
        n = rng.randrange(3, 2**70) | 1
        got = _strong_lucas(n)
        assert got == primetest.is_strong_lucas_prp(n), n
        verdicts.add(got)
    assert verdicts == {False, True}


def test_strong_lucas_against_sympy_on_every_odd_n_below_1e5():
    # every odd n in [3, 10^5), the 157 odd perfect squares and the n that
    # share a factor with some Selfridge D among them, and 200 values in
    # [2^64, 2^127), half of them primes
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory.primetest import is_strong_lucas_prp
    rng = random.Random(127)
    large = [rng.randrange(2**64, 2**127) | 1 for _ in range(200)]
    large[::2] = [sympy.nextprime(v) for v in large[::2]]
    values = list(range(3, 10**5, 2)) + large
    assert [n for n in values
            if _strong_lucas(n) != is_strong_lucas_prp(n)] == []
    assert {_strong_lucas(v) for v in large} == {False, True}


def test_classify_against_sympy_past_2_64():
    # 100 values in [2^126, 2^127), half of them primes, and n^3+2 for n in
    # [2642246, 2643246], where the cubic's values first pass 2^64
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2126)
    large = [rng.randrange(2**126, 2**127 - 2**20) for _ in range(100)]
    large[::2] = [sympy.nextprime(v) for v in large[::2]]
    values = large + [n**3 + 2 for n in range(2642246, 2643247)]
    assert 2642245**3 + 2 < 2**64 <= 2642246**3 + 2
    assert max(large) < 2**127
    primes = 0
    for v in values:
        expected = sympy.isprime(v)
        assert classify(v) == \
            (expected, PROBABLE if expected else DETERMINISTIC), v
        primes += expected
    assert 0 < primes < len(values)


def test_classify_against_sympy_in_every_tier():
    # 200 values, and the primes below them, from each range between
    # consecutive psi_k and from [psi_9, 2^64) and [2^64, 2^80)
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2017)
    edges = [0] + [psi for psi, _ in STRONG_PSEUDOPRIME_EDGES] + [2**64, 2**80]
    for lo, hi in zip(edges, edges[1:]):
        for _ in range(200):
            v = rng.randrange(lo, hi)
            for w in (v, sympy.prevprime(max(v, 3))):
                got = classify(w)
                assert got.prime == sympy.isprime(w), w
                if w < 2**64 or not got.prime:
                    assert got.certainty == DETERMINISTIC, w


def test_large_mersenne_values():
    assert classify(2**127 - 1) == (True, PROBABLE)
    assert not classify(2**101 - 1).prime


# ---------------------------------------------------------------------------
# Baillie-PSW in int64 lanes
# ---------------------------------------------------------------------------

LANE_LIMIT = primality.LANE_BPSW_LIMIT
# Chernick's Carmichael numbers (6k+1)(12k+1)(18k+1), whose three factors
# are prime at these k; 41 to 62 bits, and from 152806 up in
# [2^62, floor(2^64 / 3)).
CHERNICK_K = (1025, 20071, 90096, 130076, 152806, 153205, 157866, 167810)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973,
              *((6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in CHERNICK_K))


def assert_lane_bpsw_matches(values):
    """_lane_bpsw on values as one int64 block against classify, and
    against sympy.isprime when sympy is installed."""
    values = [v for v in values if v < LANE_LIMIT]
    got = primality._lane_bpsw(np.array(values, dtype=np.int64))
    assert got.dtype == bool and got.shape == (len(values),)
    expected = [classify(v).prime for v in values]
    assert [v for v, g, e in zip(values, got.tolist(), expected)
            if g != e] == []
    try:
        import sympy
    except ImportError:
        return
    assert [v for v, g in zip(values, got.tolist())
            if g != sympy.isprime(v)] == []


def test_lane_bpsw_limit():
    # floor(2^64 / 3) where the long double has a 64-bit significand (x87),
    # 2^51 where it is a double; 2^63 - 1 is above either
    nmant = np.finfo(np.longdouble).nmant
    assert LANE_LIMIT == (2**64 // 3 if nmant >= 63 else 2 ** (nmant - 1))
    for v in (LANE_LIMIT, 2**63 - 1):
        with pytest.raises(ValueError, match="LANE_BPSW_LIMIT"):
            primality._lane_bpsw(np.array([5, v], dtype=np.int64))


def test_lane_bpsw_below_2_16():
    assert_lane_bpsw_matches(range(-3, 2**16))


def test_lane_bpsw_random_and_just_below_the_limit():
    # past 2^62 a residue's double and the remainder's window (-n, 2n)
    # leave int64, so that range gets its own random values
    rng = random.Random(62)
    assert_lane_bpsw_matches([rng.randrange(2, LANE_LIMIT)
                              for _ in range(20_000)])
    assert_lane_bpsw_matches([rng.randrange(2**62, max(LANE_LIMIT, 2**62 + 1))
                              for _ in range(5_000)])
    assert_lane_bpsw_matches(range(2**62 - 1000, 2**62 + 2000))
    assert_lane_bpsw_matches(range(LANE_LIMIT - 3000, LANE_LIMIT))


def test_lane_bpsw_pseudoprimes_and_squares():
    # base-2 strong pseudoprimes, Selfridge strong Lucas pseudoprimes and
    # Carmichael numbers are composite; so are the squares of the largest
    # primes below 2^31 and sqrt(LANE_LIMIT), the smallest above 2^31, and
    # those of the Wieferich primes 1093 and 3511, which pass base 2
    for k in CHERNICK_K:
        assert all(is_prime(f) for f in (6 * k + 1, 12 * k + 1, 18 * k + 1))
    base_2 = [psi for psi, _ in STRONG_PSEUDOPRIME_EDGES]
    assert all(_miller_rabin(v, (2,)) for v in base_2 + [1093**2, 3511**2])
    root = math.isqrt(LANE_LIMIT - 1)
    below = [p for r in (2**31 - 1, (root - 1) | 1)
             for p in range(r, r - 400, -2) if is_prime(p)]
    above = [p for p in range(2**31 + 1, 2**31 + 400, 2) if is_prime(p)]
    squares = [p * p for p in below + above] + [1093**2, 3511**2]
    values = [v for v in base_2 + list(STRONG_LUCAS_PSEUDOPRIMES)
              + list(CARMICHAEL) + squares if v < LANE_LIMIT]
    assert not primality._lane_bpsw(np.array(values, dtype=np.int64)).any()
    assert_lane_bpsw_matches(values + below)


def test_lane_bpsw_mixed_bit_lengths_and_empty():
    # bit lengths 6 to 62 in one block, with the largest prime of each
    # length next to a random value
    rng = random.Random(6)
    values = []
    for bits in range(6, LANE_LIMIT.bit_length()):
        p = 2**bits - 1
        while not is_prime(p):
            p -= 2
        values += [p, rng.randrange(2 ** (bits - 1), 2**bits)]
    rng.shuffle(values)
    assert_lane_bpsw_matches(values)
    empty = primality._lane_bpsw(np.array([], dtype=np.int64))
    assert empty.dtype == bool and empty.size == 0


# An operand left outside [0, n) shows as an invalid cast in _lane_mul.
@pytest.mark.filterwarnings("error")
def test_lane_strong_lucas_matches_the_scalar_test():
    # without the Miller-Rabin round in front, the Lucas lanes meet every
    # kind of odd composite: squares, gcd(n, D) > 1, and both endgames;
    # at 27869 and 852389, V'_d = -2 but V'_(d+1) != -c, at 154697 and
    # 348611, V'_d = 2 but V'_(d+1) != c
    rng = random.Random(1093)
    values = list(range(39, 2**16, 2)) + [27869, 154697, 348611, 852389] \
        + [rng.randrange(2**40, LANE_LIMIT) | 1 for _ in range(5000)]
    got = primality._lane_strong_lucas(np.array(values, dtype=np.int64))
    assert [v for v, g in zip(values, got.tolist())
            if g != _strong_lucas(v)] == []
