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

_lane_bpsw takes the same decisions for a whole int64 or object array of
values below 2^127, each on one of two products chosen by its size.  Below
LANE_BPSW_LIMIT, floor(2^64 / 3) if the long double has nmant >= 63 (the
x87 extended type), else 2^(nmant - 1), so 2^51 where it is a double, each
product a b mod n takes its quotient from long doubles, q = trunc(fl(fl(a)
fl(b)) / fl(n)), and its remainder a b - q n in wrapping uint64, u.  There
the true remainder lies in (-n, 2n), and as 3 n <= 2^64 the least of u,
u - n and u + n mod 2^64 is the reduced one (_FloatLanes.mul and _lane_mod
prove it); every other step that can leave [0, n) reduces by the same
minimum.  From the limit up a residue is k limbs of 28 bits in int64 rows
of shape (k, lanes), for the least k with 16 max(v) < R = 2^(28 k), and a
product is Montgomery's REDC with lazy reduction (_LimbLanes): inputs below
4n give an output below 2n as 16 n < R, and with input limbs below 2^29
every column sum stays below 2^61.  n' = -1/n mod 2^28 takes four Newton
steps from n, right to 3 bits.  Trial division and the residue tables read
v mod m from the limbs as sum_j x_j (2^(28 j) mod m), below 2^62 for m <
2^31.  Both products run the same Miller-Rabin and Lucas ladders; the
Selfridge D is found in rounds of one D for all lanes, with (D|n) and 1/Q
read from residue tables.
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
    """kronecker(a, m) as int64 at each m > 0 of an int64 array, by the
    same binary reciprocity steps (Cohen, Alg. 1.4.10) in numpy lanes; a is
    an int in int64 range or an int64 array, one value per lane.  A lane
    leaves when its remainder is 0."""
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
    """The exponent of 2 in each v > 0 of an int64 array (-1 at 0)."""
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
# Baillie-PSW in numpy lanes
# ---------------------------------------------------------------------------

# Below this bound _lane_bpsw's products are long-double ones; see
# _FloatLanes.mul.  From it up to 2^127 they are limb products.
_NMANT = np.finfo(np.longdouble).nmant
LANE_BPSW_LIMIT = U64 // 3 if _NMANT >= 63 else 1 << (_NMANT - 1)
_SMALL_TABLE = np.bincount(_SMALL_PRIMES).astype(bool)  # index v <= 37
_LIMB = 28
_MASK = (1 << _LIMB) - 1


def _lane_bpsw(v: np.ndarray) -> np.ndarray:
    """classify(v).prime at each v < 2^127 of an int64 or object array, by
    the same steps in numpy lanes.  Below LANE_BPSW_LIMIT (read at each
    call): v <= 37 from a table, a gcd with the product of the primes up
    to 37, then a strong base-2 Miller-Rabin round and the strong Lucas
    test of _strong_lucas on long-double products.  From the limit up the
    same steps, with classify's trial division by the primes in (37, 1000)
    from 2^64 up, run on limb products (_limb_bpsw)."""
    v = np.asarray(v)
    if v.dtype != object:
        v = v.astype(np.int64, copy=False)
    if v.size and int(v.max()) >= 1 << 127:
        raise ValueError("a lane value is not below 2^127")
    prime = np.zeros(v.shape, dtype=bool)
    low = v < LANE_BPSW_LIMIT
    w = v[low].astype(np.int64)
    small = w <= _SMALL_PRIMES[-1]
    verdict = np.zeros(w.shape, dtype=bool)
    verdict[small] = _SMALL_TABLE[np.maximum(w[small], 0)]
    todo = np.flatnonzero(~small & (np.gcd(w, _SMALL_PRODUCT) == 1))
    verdict[todo] = _lane_baillie_psw(_FloatLanes(w[todo]))
    prime[low] = verdict
    high = np.flatnonzero(~low)
    if high.size:
        prime[high] = _limb_bpsw(v[high])
    return prime


def _limb_bpsw(v: np.ndarray) -> np.ndarray:
    """_lane_bpsw at each v in [LANE_BPSW_LIMIT, 2^127): trial division
    of every value by the primes up to 37, and of those from 2^64 up by
    the primes in (37, 1000), read off the limbs, then both rounds on limb
    products.  Values below 2^64 skip the second, as in classify."""
    lanes = _LimbLanes(v.astype(object))
    x = lanes.n
    keep = (x[0] & 1 == 1) & ~_limb_divisible(x, _SMALL_PRIMES[1:])
    big = np.flatnonzero(keep & (lanes.vals >= U64))
    keep[big] = ~_limb_divisible(x.take(big, axis=-1), _TRIAL_PRIMES[12:])
    prime = np.zeros(v.shape, dtype=bool)
    live = np.flatnonzero(keep)
    prime[live] = _lane_baillie_psw(lanes.take(live))
    return prime


def _lane_baillie_psw(lanes) -> np.ndarray:
    """The strong base-2 Miller-Rabin round, then the strong Lucas test on
    the lanes that pass it, at each odd n > 37 of lanes."""
    ok = _lane_miller_rabin_2(lanes)
    live = np.flatnonzero(ok)
    ok[live] = _lane_strong_lucas(lanes.take(live))
    return ok


class _Lanes:
    """Residues modulo one odd n > 37 per lane, for the ladders below.  A
    product class keeps its per-lane arrays in FIELDS, indexed by lane on
    the last axis, vals (the n) among them.  It gives one, the residue 1
    in its form; mul, add and dbl (times 2^bit) on residues in its form;
    canon, the canonical form, which eq compares and neg negates; residue,
    n mod m at a subset of lanes; two_adic, s and d with n +- 1 = d 2^s,
    d as rows of uint64 words; and unit_inverse, 1/q in its form at a
    subset of lanes, with where gcd(q, n) = 1."""

    FIELDS: tuple[str, ...] = ()

    def take(self, idx: np.ndarray):
        """The same product on the lanes idx."""
        sub = object.__new__(type(self))
        sub.__dict__.update(self.__dict__)
        for name in self.FIELDS:
            setattr(sub, name, getattr(self, name).take(idx, axis=-1))
        return sub

    @property
    def size(self) -> int:
        return self.n.shape[-1]

    def equals(self, m: int, idx: np.ndarray) -> np.ndarray:
        return self.vals[idx] == m

    def is_square(self, idx: np.ndarray) -> np.ndarray:
        return np.array([math.isqrt(v) ** 2 == v
                         for v in self.vals[idx].tolist()], dtype=bool)


class _FloatLanes(_Lanes):
    """Residues in [0, n) as uint64, for int64 n below LANE_BPSW_LIMIT,
    each product's quotient taken from long doubles."""

    FIELDS = ("vals", "n", "fn", "one")

    def __init__(self, vals: np.ndarray):
        self.vals, self.n = vals, vals.view(np.uint64)
        self.fn = self.n.astype(np.longdouble)
        self.one = np.ones_like(self.n)

    def mul(self, a, b):
        """a b mod n for residues a, b in [0, n) and n < LANE_BPSW_LIMIT.

        q = trunc(fl(fl(a b) / n)) from long doubles, then u = a b - q n
        in wrapping uint64 and _lane_mod.  Proof: the long double has p =
        nmant + 1 significand bits.  If p >= 64, n < L = floor(2^64 / 3) <
        2^62.42; otherwise L = 2^(p - 2).  Either way a, b and n convert
        exactly, and with t = a b / n < n < L the two roundings give y =
        t (1 + e), |e| <= 2^(1-p) + 2^(-2p), so |y - t| < L 2^(1-p) (1 +
        2^-p) < 2^-0.58 < 1.  As y >= 0, q = floor(y) lies in (t - 2,
        t + 1), so the true r = n (t - q) lies in (-n, 2n), and u = r mod
        2^64.  q < 2^63 is taken through int64, whose conversion from long
        double is the faster one.
        """
        fa = a.astype(np.longdouble)
        fb = fa if b is a else b.astype(np.longdouble)
        q = (fa * fb / self.fn).astype(np.int64).view(np.uint64)
        u = a * b
        u -= q * self.n
        return _lane_mod(u, self.n)

    def add(self, a, b):
        return _lane_mod(a + b, self.n)

    def dbl(self, a, bit):
        """2^bit a, bit 0 or 1 in each lane."""
        return _lane_mod(a << bit, self.n)

    def canon(self, a):
        return a

    def eq(self, a, b):
        return a == b

    def neg(self, b):
        return _lane_mod(self.n - b, self.n)

    def residue(self, m: int, idx: np.ndarray) -> np.ndarray:
        return self.vals[idx] % m

    def two_adic(self, sign: int) -> tuple[np.ndarray, np.ndarray]:
        """s and d with n + sign = d 2^s, d odd, d as one row of words."""
        m = self.vals + sign
        s = _trailing_zeros(m)
        return s, (m >> s).view(np.uint64)[None]

    def unit_inverse(self, q: int, idx: np.ndarray):
        """1/q mod n at the lanes idx, and where gcd(q, n) = 1."""
        inv = _lane_unit_inverse(q, self.vals[idx])
        return inv.view(np.uint64), inv > 0


class _LimbLanes(_Lanes):
    """Residues as k limbs of 28 bits in int64 rows of shape (k, lanes),
    in Montgomery form a R mod n, R = 2^(28 k), for the least k with
    16 max(n) < R (3 below 2^80, 5 at 2^127 - 1).

    mul is Montgomery's REDC (Math. Comp. 44, 1985) with lazy reduction:
    inputs may be below 4n and the output is below 2n, since (a b + m n) /
    R < 16 n^2 / R + n < 2n for m < R.  An input limb is below 2^29 (a
    normalised output doubled, or two normalised values added), so each
    column adds at most k products below 2^58, k below 2^56 and a carry
    below 2^35: under 2^61 for k <= 5.  n' = -1/n mod 2^28 takes four
    Newton steps x = x (2 - n x) from x = n, which is right to 3 bits as
    n^2 = 1 (mod 8).  Only comparisons need canonical limbs, in [0, n).
    """

    FIELDS = ("vals", "n", "ninv", "one")

    def __init__(self, vals: np.ndarray):
        self.vals = vals  # object array of Python ints
        top = int(vals.max(initial=1))
        self.k = k = (top.bit_length() + 4 + _LIMB - 1) // _LIMB
        self.R = 1 << (_LIMB * k)
        self.n = _limbs(_words(vals), k)
        x = self.n[0]
        for _ in range(4):
            x = x * (2 - x * self.n[0] & _MASK) & _MASK
        self.ninv = -x & _MASK
        self.one = _limbs(_words(self.R % vals), k)

    def mul(self, a, b):
        n, k = self.n, self.k
        t = np.zeros((2 * k, n.shape[1]), dtype=np.int64)
        u = np.empty_like(n)
        for i in range(k):
            t[i:i + k] += np.multiply(a[i], b, out=u)
            m = (t[i] & _MASK) * self.ninv & _MASK
            t[i:i + k] += np.multiply(m, n, out=u)
            t[i + 1] += t[i] >> _LIMB  # t[i] is now 0 mod 2^28
        return _normalize(t[k:])

    def add(self, a, b):
        return a + b

    def dbl(self, a, bit):
        a <<= bit.view(np.int64)  # in place: a is always a fresh product
        return a

    def canon(self, a):
        """a in [0, n), from any a in [0, 4n)."""
        a = _normalize(a.copy())
        for _ in range(3):
            t = _normalize(a - self.n)
            a = np.where(t[-1] >= 0, t, a)
        return a

    def eq(self, a, b):
        return (a == b).all(axis=0)

    def neg(self, b):
        return self.canon(self.n - b)

    def residue(self, m: int, idx: np.ndarray) -> np.ndarray:
        return _limb_residue(self.n.take(idx, axis=-1), m)

    def two_adic(self, sign: int) -> tuple[np.ndarray, np.ndarray]:
        m = self.n.copy()
        m[0] += sign
        lo, hi = _limb_words(_normalize(m))
        s = np.where(lo != 0, _trailing_zeros(lo), 64 + _trailing_zeros(hi))
        u = s.astype(np.uint64)  # 1 <= s <= 127; a shift past 63 gives 0
        return s, np.array([(lo >> u) | (hi << (64 - u)) | (hi >> (u - 64)),
                            hi >> u])

    def unit_inverse(self, q: int, idx: np.ndarray):
        """As _FloatLanes.unit_inverse, in Montgomery form: with r = R mod
        n and t = -r/n mod |q|, r/q = +-(r + t n) / |q|, below n."""
        sub, m = self.take(idx), abs(q)
        k = _unit_inverse_table(m)[_limb_residue(sub.n, m)]
        t = _limb_residue(sub.one, m) * k % m
        x = _normalize(sub.one + t * sub.n)
        r = np.zeros_like(t)
        for j in range(self.k - 1, -1, -1):  # long division by m
            x[j], r = np.divmod((r << _LIMB) + x[j], m)
        return (sub.neg(x) if q < 0 else x), k >= 0


def _words(v: np.ndarray) -> np.ndarray:
    """Each v in [0, 2^128) of an object array as two uint64 words, low
    first, in rows of shape (2, lanes)."""
    return np.array([(v & (U64 - 1)).astype(np.uint64),
                     (v >> 64).astype(np.uint64)])


def _limbs(words: np.ndarray, k: int) -> np.ndarray:
    """Rows of two uint64 words, low first, as k limbs of 28 bits in int64
    rows of shape (k, lanes); each value below 2^(28 k)."""
    lo, hi = words
    x = np.empty((k, lo.size), dtype=np.int64)
    for j in range(k):
        b = _LIMB * j
        if b >= 64:
            y = hi >> (b - 64)
        elif b + _LIMB <= 64:
            y = lo >> b
        else:
            y = (lo >> b) | (hi << (64 - b))
        x[j] = y & _MASK
    return x


def _limb_words(x: np.ndarray) -> np.ndarray:
    """Normalised limbs of values below 2^128 as rows of two uint64
    words, low first."""
    words = np.zeros((2, x.shape[1]), dtype=np.uint64)
    lo, hi = words
    for j, limb in enumerate(x.view(np.uint64)):
        b = _LIMB * j
        if b < 64:
            lo |= limb << b
        if b + _LIMB > 64:
            hi |= limb << (b - 64) if b >= 64 else limb >> (64 - b)
    return words


def _normalize(x: np.ndarray) -> np.ndarray:
    """x with every limb but the last in [0, 2^28), the same value, in
    place; limbs may start negative or above 2^28."""
    for j in range(x.shape[0] - 1):
        x[j + 1] += x[j] >> _LIMB
        x[j] &= _MASK
    return x


def _limb_residue(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m < 2^31 from normalised limbs x: sum_j x_j (2^(28 j) mod m)
    adds at most 5 terms below 2^59."""
    return sum(x[j] * pow(2, _LIMB * j, m) for j in range(x.shape[0])) % m


@functools.cache
def _divisibility(ps: tuple[int, ...], k: int):
    w = [[[pow(2, _LIMB * j, p)] for p in ps] for j in range(k)]
    inv = [[pow(p, -1, U64)] for p in ps]
    return (np.array(w, dtype=np.uint64), np.array(inv, dtype=np.uint64),
            np.array([[(U64 - 1) // p] for p in ps], dtype=np.uint64))


def _limb_divisible(x: np.ndarray, ps: tuple[int, ...]) -> np.ndarray:
    """Whether some p of ps, odd primes below 1000, divides each value of
    normalised limbs x.  r = sum_j x_j (2^(28 j) mod p) < 5 2^38 is x mod
    p, and p | r iff r / p mod 2^64 <= (2^64 - 1) / p (Granlund and
    Montgomery, PLDI 1994), one product in place of a division.  Eight
    primes at a time: (8, lanes) temporaries.  With (16, lanes) ones, one
    block of 4,096 values past 2^64 peaked at 1.0 MB here."""
    x = x.view(np.uint64)
    found = np.zeros(x.shape[1], dtype=bool)
    for i in range(0, len(ps), 8):
        w, inv, lim = _divisibility(ps[i:i + 8], x.shape[0])
        r = x[0] * w[0]
        for j in range(1, x.shape[0]):
            r += x[j] * w[j]
        r *= inv
        found |= (r <= lim).any(axis=0)
    return found


def _bit_length(d: np.ndarray) -> int:
    """The longest bit length in rows of uint64 words, low first."""
    for i in range(d.shape[0] - 1, -1, -1):
        top = int(d[i].max(initial=0))
        if top:
            return 64 * i + top.bit_length()
    return 0


def _bit(d: np.ndarray, j: int) -> np.ndarray:
    """Bit j of each lane of rows of uint64 words, as uint64."""
    return (d[j >> 6] >> (j & 63)) & 1


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


def _lane_miller_rabin_2(lanes) -> np.ndarray:
    """_miller_rabin(n, (2,)) at each odd n > 37 of lanes.  2^d mod n is
    taken left to right over d's bits, every lane over the longest d (a
    leading 0 squares 1), and a 1 bit doubles."""
    s, d = lanes.two_adic(-1)
    x = lanes.one
    for j in range(_bit_length(d) - 1, -1, -1):
        x = lanes.dbl(lanes.mul(x, x), _bit(d, j))
    x = lanes.canon(x)
    minus_one = lanes.neg(lanes.one)
    ok = lanes.eq(x, lanes.one) | lanes.eq(x, minus_one)
    k = np.flatnonzero(~ok)
    for r in range(1, int(s.max(initial=0))):
        k = k[s[k] > r]
        sub, y = lanes.take(k), x.take(k, axis=-1)
        x[..., k] = y = sub.canon(sub.mul(y, y))
        hit = sub.eq(y, minus_one.take(k, axis=-1))
        ok[k[hit]] = True
        k = k[~hit]
    return ok


def _lane_strong_lucas(lanes) -> np.ndarray:
    """_strong_lucas(n) at each odd n > 37 of lanes: the Selfridge D of
    each lane by rounds of one D for all, (D|n) and 1/Q from residue
    tables, and the same Q = 1 ladder and endgame.  A lane's ladder runs
    over the longest d from (V'_0, V'_1) = (2, c), which a leading 0 bit
    keeps."""
    inv, unit = lanes.one.copy(), np.zeros(lanes.size, dtype=bool)
    todo = np.arange(lanes.size)
    D = 5
    while todo.size:
        if D == 13:  # a square never finds its D; most others have by now
            todo = todo[~lanes.is_square(todo)]
        jacobi = _jacobi_table(D)
        j = jacobi[lanes.residue(jacobi.size, todo)]
        found = todo[j == -1]
        inv[..., found], unit[found] = lanes.unit_inverse((1 - D) // 4, found)
        todo = todo[(j == 1) | ((j == 0) & lanes.equals(abs(D), todo))]
        D = -(D + 2) if D > 0 else -(D - 2)
    live = np.flatnonzero(unit)
    lanes, inv = lanes.take(live), inv.take(live, axis=-1)
    s, d = lanes.two_adic(1)
    two = lanes.canon(lanes.add(lanes.one, lanes.one))
    minus_two = lanes.neg(two)
    c = lanes.canon(lanes.add(inv, minus_two))
    minus_c = lanes.neg(c)

    V, W = two, c
    for j in range(_bit_length(d) - 1, -1, -1):
        bit = _bit(d, j).astype(bool)
        P = lanes.add(lanes.mul(V, W), minus_c)
        X = np.where(bit, W, V)
        S = lanes.add(lanes.mul(X, X), minus_two)
        V, W = np.where(bit, P, S), np.where(bit, S, P)

    V, W = lanes.canon(V), lanes.canon(W)
    hit = ((lanes.eq(V, two) & lanes.eq(W, c))
           | (lanes.eq(V, minus_two) & lanes.eq(W, minus_c)))
    k = np.flatnonzero(~hit)
    for r in range(int(s.max(initial=0)) - 1):
        k = k[s[k] - 1 > r]
        zero = lanes.eq(V.take(k, axis=-1), 0)
        hit[k[zero]] = True
        k = k[~zero]
        sub, y = lanes.take(k), V.take(k, axis=-1)
        y = sub.add(sub.mul(y, y), minus_two.take(k, axis=-1))
        V[..., k] = sub.canon(y)
    ok = np.zeros(unit.shape, dtype=bool)
    ok[live[hit]] = True
    return ok

@functools.cache
def _jacobi_table(D: int) -> np.ndarray:
    """(D|n) as int8 at n mod the table's size, its period: |D| for all
    n > 0 when D = 0 or 1 (mod 4), else 4|D| on odd n by reciprocity.  One
    Selfridge round's residue table, modular._nonresidue's and
    modular._lane_split's; one byte per entry keeps every table that
    _lane_split may cache, |D| <= 2^13, within 32 MB in total."""
    m = abs(D) if D % 4 in (0, 1) else 4 * abs(D)
    return _lane_kronecker(D, np.arange(m, 2 * m)).astype(np.int8)


@functools.cache
def _unit_inverse_table(m: int) -> np.ndarray:
    """k = -1/b mod m at each residue b mod m, -1 where gcd(b, m) > 1."""
    return np.array([-pow(b, -1, m) % m if math.gcd(b, m) == 1 else -1
                     for b in range(m)], dtype=np.int64)


def _lane_unit_inverse(q: int, n: np.ndarray) -> np.ndarray:
    """1/q mod each odd n > 1 of an int64 array, in [1, n), or -1
    where gcd(q, n) > 1: with n = |q| a + b, (1 + k n) / |q| = k a +
    (1 + k b) / |q| for k = -1/n mod |q| = _unit_inverse_table(|q|)[b]."""
    m = abs(q)
    a, b = n // m, n % m
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
