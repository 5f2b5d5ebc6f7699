"""Prime generation and primality testing.

primes_up_to streams a segmented sieve of Eratosthenes: numpy masks over
fixed 2^20 segments, struck by the base primes that simple_sieve finds up to
sqrt(limit); it yields from _prime_segments, the sieve itself, which hands
over each segment's primes as one array.  Single-number testing is trial
division by gcd, then Baillie-PSW: a strong base-2 Miller-Rabin round plus
a strong Lucas test with Selfridge parameters, whose D comes from kronecker
and whose ladder runs on the equivalent Q = 1 sequence of alpha / beta, two
products a bit.  Prime verdicts are tagged 'probable' at or above 2^64.
Composite verdicts are always certain: a failed Miller-Rabin or Lucas test
or a found factor is a proof.

_lane_bpsw takes the same decisions for a whole int64 array of values below
LANE_BPSW_LIMIT: floor(2^64 / 3) if the long double has nmant >= 63 (the
x87 extended type), else 2^(nmant - 1), so 2^51 where it is a double.
Each product a b mod n takes its quotient from long doubles, q =
trunc(fl(fl(a) fl(b)) / fl(n)), and its remainder a b - q n in wrapping
uint64, u.  Below the limit the true remainder lies in (-n, 2n), and as
3 n <= 2^64 the least of u, u - n and u + n mod 2^64 is the reduced one
(_lane_mul and _lane_mod prove it); every other lane step that can leave
[0, n) reduces by the same minimum.  Selfridge's D is found in rounds of
one D for all lanes, with (D|n) and 1/Q read from residue tables.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple

import numpy as np

from .errors import LimitTooLargeError

DETERMINISTIC = "deterministic"
PROBABLE = "probable"

U64 = 1 << 64
SIEVE_LIMIT_MAX = 1 << 40
_SEGMENT = 1 << 20

# The primes below 1000: trial divisors (by gcd with their products), and by
# slices the primes up to 37 that classify decides by membership,
# factorize's first divisors and the primes p at which poly looks for a
# certificate (f irreducible mod p).
_TRIAL_PRIMES = tuple(p for p in range(2, 1000)
                      if all(p % d for d in range(2, math.isqrt(p) + 1)))
_SMALL_PRIMES = _TRIAL_PRIMES[:12]
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES[12:])


class PrimalityResult(NamedTuple):
    prime: bool
    certainty: str


# ---------------------------------------------------------------------------
# Sieving
# ---------------------------------------------------------------------------

def simple_sieve(limit: int) -> np.ndarray:
    """Boolean array a with a[n] True iff n is prime, 0 <= n <= limit."""
    a = np.ones(limit + 1, dtype=bool)
    a[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if a[p]:
            a[p * p::p] = False
    return a


def primes_up_to(limit: int) -> Iterator[int]:
    """All primes <= limit, ascending, streamed from fixed 2^20 segments.

    Memory use is one segment plus the base primes up to sqrt(limit).
    """
    for primes in _prime_segments(limit):
        # A whole segment as Python ints would cost ~3 MB; 2^10 at a time.
        for k in range(0, len(primes), 1 << 10):
            yield from primes[k:k + (1 << 10)].tolist()
        del primes  # free it before the next segment is sieved


def _prime_segments(limit: int) -> Iterator[np.ndarray]:
    """The primes <= limit as one ascending int64 array per 2^20 segment."""
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    if limit > SIEVE_LIMIT_MAX:
        raise LimitTooLargeError(
            f"sieve limit {limit} exceeds the 2^40 guard")
    base_primes = [int(p) for p in np.flatnonzero(
        simple_sieve(math.isqrt(limit)))]
    for lo in range(0, limit + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, limit + 1)  # exclusive
        bits = np.ones(hi - lo, dtype=bool)
        if lo == 0:
            bits[:2] = False
        for p in base_primes:
            start = max(p * p, (lo + p - 1) // p * p)
            bits[start - lo::p] = False
        primes = np.flatnonzero(bits)
        primes += lo
        del bits
        yield primes


# ---------------------------------------------------------------------------
# Single-number testing
# ---------------------------------------------------------------------------

def _miller_rabin(n: int, bases) -> bool:
    """Strong probable-prime test for odd n > 2 against the given bases."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, m: int) -> int:
    """Kronecker symbol (a|m) by the binary reciprocity algorithm.

    Extends the Legendre/Jacobi symbol to all integer m, so negative and
    even moduli are fine; (a|p) for odd prime p is the Legendre symbol.
    """
    a, m = int(a), int(m)
    if m == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if m < 0:
        m = -m
        if a < 0:
            result = -1
    if m % 2 == 0:
        if a % 2 == 0:
            return 0
        tz = (m & -m).bit_length() - 1
        m >>= tz
        if tz & 1 and a % 8 in (3, 5):
            result = -result
    a %= m
    while a:
        while a % 2 == 0:
            a >>= 1
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def _lane_kronecker(a: int | np.ndarray, m: np.ndarray) -> np.ndarray:
    """kronecker(a, m) as int64 at each m > 0 of an int64 or object array,
    by the same binary reciprocity steps (Cohen, Alg. 1.4.10) in numpy
    lanes; a is an int or an array of m's dtype, one value per lane (in
    int64 range for int64 m).  A lane leaves when its remainder is 0."""
    result = np.ones(m.shape, dtype=np.int64)
    tz = _trailing_zeros(m)
    result[(tz > 0) & (a % 2 == 0)] = 0
    result[(tz & 1 == 1) & ((a % 8 == 3) | (a % 8 == 5))] = -1
    m = m >> tz
    x = a % m
    todo = np.arange(m.size)
    while todo.size:
        done = x == 0
        result[todo[done]] *= m[done] == 1
        todo, x, m = todo[~done], x[~done], m[~done]
        tz = _trailing_zeros(x)
        x = x >> tz
        flip = (tz & 1 == 1) & ((m & 7 == 3) | (m & 7 == 5))
        x, m = m, x
        flip ^= (x & m & 3) == 3  # both are 3 (mod 4)
        result[todo[flip]] *= -1
        x = x % m
    return result


def _trailing_zeros(v: np.ndarray) -> np.ndarray:
    """The exponent of 2 in each v > 0, int64 or Python ints (-1 at 0)."""
    return np.frexp((v & -v).astype(float))[1] - 1  # 2^k is exact in float64


def _selfridge_d(n: int) -> int | None:
    """First D in 5, -7, 9, -11, ... with (D|n) = -1; None marks composite."""
    d = 5
    while True:
        j = kronecker(d, n)
        if j == -1:
            return d
        if j == 0 and abs(d) != n:
            return None  # gcd(D, n) is a proper factor
        d = -(d + 2) if d > 0 else -(d - 2)


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge parameters, odd n:
    with n + 1 = d 2^s, U_d = 0 or V_(d 2^r) = 0 (mod n) for some r < s.

    The ladder runs on the Q = 1 sequence V'_m = a^m + a^-m of a = alpha /
    beta, alpha and beta the roots of x^2 - x + Q: V'_m = V_2m / Q^m and
    V'_1 = c = 1/Q - 2, two products a bit and no powers of Q.  Q and
    D = (alpha - beta)^2 are units mod n, so a - 1/a = (alpha - beta) / Q
    is one too, and U_d = 0 or V_d = 0 iff a^d = +-1 iff (V'_d, V'_(d+1)) =
    +-(2, c); for r >= 1, V_(d 2^r) = 0 iff V'_(d 2^(r-1)) = 0.
    """
    r = math.isqrt(n)
    if r * r == n:
        return False
    D = _selfridge_d(n)
    if D is None:
        return False
    Q = (1 - D) // 4  # and P = 1
    if math.gcd(Q, n) != 1:  # never: an odd prime factor of Q would be
        return False  # some |D| tried before, and (D|n) = 0 returns above
    c = (pow(Q, -1, n) - 2) % n

    k = n + 1
    s = (k & -k).bit_length() - 1
    d = k >> s

    # Binary ladder for V'_k, V'_(k+1) from k = 1:
    # V'_2k = V'_k^2 - 2 and V'_(2k+1) = V'_k V'_(k+1) - c.
    V, W = c, (c * c - 2) % n
    for bit in bin(d)[3:]:
        if bit == "1":
            V, W = (V * W - c) % n, (W * W - 2) % n
        else:
            V, W = (V * V - 2) % n, (V * W - c) % n

    if (V, W) in ((2, c), (n - 2, -c % n)):
        return True
    for _ in range(s - 1):
        if V == 0:
            return True
        V = (V * V - 2) % n
    return False


def classify(v: int) -> PrimalityResult:
    """Primality verdict with a certainty tag.

    Trial division is a gcd with the product of the primes up to 37, and
    from 2^64 up a second gcd with the other primes below 1000.  Then
    Baillie-PSW decides, which is deterministic for every v < 2^64:
    Feitsma (2009) listed the base-2 strong pseudoprimes there and
    Gilchrist (2013) found that none passes the strong Lucas test
    (Baillie, Fiori, Wagstaff, Math. Comp. 90, 2021).  At or above 2^64 a
    prime verdict is tagged 'probable'; no counterexample is known.
    """
    v = int(v)
    if v <= _SMALL_PRIMES[-1]:
        return PrimalityResult(v in _SMALL_PRIMES, DETERMINISTIC)
    if math.gcd(v, _SMALL_PRODUCT) != 1:
        return PrimalityResult(False, DETERMINISTIC)
    if v >= U64 and math.gcd(v, _TRIAL_PRODUCT) != 1:
        return PrimalityResult(False, DETERMINISTIC)
    if not (_miller_rabin(v, (2,)) and _strong_lucas(v)):
        return PrimalityResult(False, DETERMINISTIC)
    return PrimalityResult(True, DETERMINISTIC if v < U64 else PROBABLE)


def is_prime(v: int) -> bool:
    return classify(v).prime


# ---------------------------------------------------------------------------
# Baillie-PSW in int64 lanes
# ---------------------------------------------------------------------------

# Below this bound _lane_bpsw's products are exact; see _lane_mul.
_NMANT = np.finfo(np.longdouble).nmant
LANE_BPSW_LIMIT = U64 // 3 if _NMANT >= 63 else 1 << (_NMANT - 1)
_SMALL_TABLE = np.bincount(_SMALL_PRIMES).astype(bool)  # index v <= 37


def _lane_bpsw(v: np.ndarray) -> np.ndarray:
    """classify(v).prime at each v < LANE_BPSW_LIMIT of an int64 array, by
    the same steps in numpy lanes: v <= 37 from a table, a gcd with the
    product of the primes up to 37, a strong base-2 Miller-Rabin round and
    the strong Lucas test of _strong_lucas.  Every verdict is certain, as
    the bound is below 2^64."""
    v = np.asarray(v, dtype=np.int64)
    if v.max(initial=0) >= LANE_BPSW_LIMIT:
        raise ValueError("a lane value is not below LANE_BPSW_LIMIT")
    prime = np.zeros(v.shape, dtype=bool)
    small = v <= _SMALL_PRIMES[-1]
    prime[small] = _SMALL_TABLE[np.maximum(v[small], 0)]
    todo = np.flatnonzero(~small & (np.gcd(v, _SMALL_PRODUCT) == 1))
    todo = todo[_lane_miller_rabin_2(v[todo])]
    todo = todo[_lane_strong_lucas(v[todo])]
    prime[todo] = True
    return prime


def _lane_mul(a: np.ndarray, fa: np.ndarray, b: np.ndarray, fb: np.ndarray,
              n: np.ndarray, fn: np.ndarray) -> np.ndarray:
    """a b mod n for uint64 residues a, b in [0, n) and n < LANE_BPSW_LIMIT,
    given fa, fb, fn: a, b, n as np.longdouble.

    q = trunc(fl(fl(fa fb) / fn)), then u = a b - q n in wrapping uint64
    and _lane_mod.  Proof: the long double has p = nmant + 1 significand
    bits.  If p >= 64, n < L = floor(2^64 / 3) < 2^62.42; otherwise
    L = 2^(p - 2).  Either way a, b and n convert exactly, and with t =
    a b / n < n < L the two roundings give y = t (1 + e), |e| <= 2^(1-p) +
    2^(-2p), so |y - t| < L 2^(1-p) (1 + 2^-p) < 2^-0.58 < 1.  As y >= 0,
    q = floor(y) lies in (t - 2, t + 1), so the true r = n (t - q) lies in
    (-n, 2n), and u = r mod 2^64.  q < 2^63 is taken through int64, whose
    conversion from long double is the faster one.
    """
    q = (fa * fb / fn).astype(np.int64).view(np.uint64)
    u = a * b
    u -= q * n
    return _lane_mod(u, n)


def _lane_mod(u: np.ndarray, n: np.ndarray) -> np.ndarray:
    """r mod n from u = r mod 2^64 in uint64, r in (-n, 2n), 3 n <= 2^64,
    overwriting u: of r - n, r and r + n one lies in [0, n), and the other
    two in [n, 3n) or in [-2n, 0), which wraps to [2^64 - 2n, 2^64) and
    2^64 - 2n >= n; so the least of u - n, u and u + n mod 2^64 is r mod n."""
    # One temporary: the nested minimum's three raised the peak RSS of
    # n^3+2 counting on 2 workers by about 0.4 MB.
    t = u - n
    np.minimum(t, u, out=t)
    u += n
    return np.minimum(t, u, out=t)


def _lane_miller_rabin_2(n: np.ndarray) -> np.ndarray:
    """_miller_rabin(n, (2,)) at each odd n in (37, LANE_BPSW_LIMIT) of an
    int64 array.  2^d mod n is taken left to right over d's bits, every
    lane over the longest d (a leading 0 squares 1), and a 1 bit doubles."""
    d = n - 1
    s = _trailing_zeros(d)
    d = (d >> s).view(np.uint64)
    n = n.view(np.uint64)
    fn = n.astype(np.longdouble)
    x = np.ones_like(n)
    for j in range(int(d.max(initial=0)).bit_length() - 1, -1, -1):
        fx = x.astype(np.longdouble)
        x = _lane_mul(x, fx, x, fx, n, fn)
        x = _lane_mod(x << ((d >> j) & 1), n)
    ok = (x == 1) | (x == n - 1)
    k = np.flatnonzero(~ok)
    for r in range(1, int(s.max(initial=0))):
        k = k[s[k] > r]
        y, m = x[k], n[k]
        fy = y.astype(np.longdouble)
        x[k] = y = _lane_mul(y, fy, y, fy, m, fn[k])
        hit = y == m - 1
        ok[k[hit]] = True
        k = k[~hit]
    return ok


def _lane_strong_lucas(n: np.ndarray) -> np.ndarray:
    """_strong_lucas(n) at each odd n in (37, LANE_BPSW_LIMIT) of an int64
    array: the Selfridge D of each lane by rounds of one D for all, 1/Q
    from a residue table, and the same Q = 1 ladder and endgame.  A lane's
    ladder runs over the longest d from (V'_0, V'_1) = (2, c), which a
    leading 0 bit keeps."""
    root = np.rint(np.sqrt(n.astype(float))).astype(np.int64)
    ok = np.zeros(n.shape, dtype=bool)
    c = np.full(n.shape, -3, dtype=np.int64)  # -3 marks composite
    todo = np.flatnonzero(root * root != n)
    D = 5
    while todo.size:
        m = n[todo]
        jacobi = _jacobi_table(D)
        j = jacobi[m % jacobi.size]
        found = j == -1
        c[todo[found]] = _lane_unit_inverse((1 - D) // 4, m[found]) - 2
        todo = todo[(j == 1) | ((j == 0) & (m == abs(D)))]
        D = -(D + 2) if D > 0 else -(D - 2)
    live = np.flatnonzero(c > -3)
    k = n[live] + 1
    s = _trailing_zeros(k)
    d = (k >> s).view(np.uint64)
    # c >= 0: 1/Q = 1 would need n | (D + 3) / 4, but some D = 1 (mod 4)
    # below 4n - 3 has (D|n) = -1, as those D meet every class but 1, -3
    n, c = n[live].view(np.uint64), c[live].view(np.uint64)
    fn = n.astype(np.longdouble)

    V, W = np.full_like(n, 2), c.copy()
    for j in range(int(d.max(initial=0)).bit_length() - 1, -1, -1):
        bit = ((d >> j) & 1).astype(bool)
        fV, fW = V.astype(np.longdouble), W.astype(np.longdouble)
        P = _lane_mod(_lane_mul(V, fV, W, fW, n, fn) - c, n)
        X = np.where(bit, W, V)
        fX = X.astype(np.longdouble)
        S = _lane_mod(_lane_mul(X, fX, X, fX, n, fn) - 2, n)
        V, W = np.where(bit, P, S), np.where(bit, S, P)

    hit = (((V == 2) & (W == c))
           | ((V == n - 2) & (W == (n - c) % n)))
    k = np.flatnonzero(~hit)
    for r in range(int(s.max(initial=0)) - 1):
        k = k[s[k] - 1 > r]
        zero = V[k] == 0
        hit[k[zero]] = True
        k = k[~zero]
        x, m = V[k], n[k]
        fx = x.astype(np.longdouble)
        V[k] = _lane_mod(_lane_mul(x, fx, x, fx, m, fn[k]) - 2, m)
    ok[live[hit]] = True
    return ok


@functools.cache
def _jacobi_table(D: int) -> np.ndarray:
    """(D|n) at n mod 4|D|, its period on odd n > 0 by reciprocity: one
    Selfridge round's residue table, and modular._nonresidue's."""
    m = 4 * abs(D)
    return _lane_kronecker(D, np.arange(m, 2 * m))


@functools.cache
def _unit_inverse_table(m: int) -> np.ndarray:
    """k = -1/b mod m at each residue b mod m, -1 where gcd(b, m) > 1."""
    return np.array([-pow(b, -1, m) % m if math.gcd(b, m) == 1 else -1
                     for b in range(m)], dtype=np.int64)


def _lane_unit_inverse(q: int, n: np.ndarray) -> np.ndarray:
    """1/q mod each odd n > 1 of an int64 or object array, in [1, n), or -1
    where gcd(q, n) > 1: with n = |q| a + b, (1 + k n) / |q| = k a +
    (1 + k b) / |q| for k = -1/n mod |q| = _unit_inverse_table(|q|)[b]."""
    m = abs(q)
    a, b = n // m, (n % m).astype(np.int64)
    k = _unit_inverse_table(m)[b]
    inv = k * a + (1 + k * b) // m
    inv = inv if q > 0 else n - inv
    inv[k < 0] = -1
    return inv


# ---------------------------------------------------------------------------
# Factoring (admissibility witnesses, the constant's discriminants)
# ---------------------------------------------------------------------------

def _pollard_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Floyd's cycle detection:
    x takes one step of n -> n^2 + c, y two)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES[:6]:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return out
