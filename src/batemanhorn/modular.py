"""Modular arithmetic kernel: roots of polynomials modulo a prime.

The root count omega(p) of the system's product polynomial drives every local
factor of the Euler product, and explicit root lists drive the counting
engine's pre-sieve.  Degree 1 has a closed form, and degree 2 reads the
count off a Kronecker symbol of the discriminant D (sqrt_mod of D lists the
roots, by Tonelli-Shanks with a tabled nonresidue at every odd prime).
Higher degrees take g_1 = gcd(x^p - x, f) over GF(p), the first step of
_gfpoly.distinct_degree: its degree is the count, and equal-degree
splitting of it lists the roots at every p > 3.  At p <= 3 the residues
are scanned.  kronecker is imported from primality, whose Lucas test
needs it too.

_root_table and _root_counts, the root lists and counts for a whole array
of primes, solve every prime p > 3 that does not divide the leading
coefficient in numpy lanes, int64 below 2^31 and exact Python ints above
(_lane_array), and hand the rest to the scalar path.  Degree 1 and 2 lanes
use the formulas above and the same square root (_lane_sqrt).  With
integer coefficients and |D|, |c| <= _LANES, (D|p) is gathered at p mod
|D| from one cached table per D and the inverse of a lead or of 2a at
p mod |c| from a table; larger ones take binary reciprocity
(primality._lane_kronecker) and a power.
Degree >= 3 lanes get g_1 from _lane_g1, x^p mod f by square-and-multiply
and a lane gcd: its degree is omega, and _lane_linear_roots lists its
roots, reading each linear factor's root off, solving each quadratic one
by the formula and splitting larger ones by Cantor-Zassenhaus in the same
lanes.  On a 2-core Xeon, CPython 3.11, numpy 2.4, the root table of
6n^2+1 takes 0.09-0.10 s at B = 2,449,490 and 1.1-1.25 s at B = 2^25.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _gfpoly, primality
from .errors import IdenticallyZeroError, NotPrimeError
from .poly import Polynomial, _eval_exact
from .primality import kronecker

_LANES = 1 << 13  # primes per batch of _root_table and the Euler product
_LANE_LIMIT = 1 << 31  # int64 lanes below it, products below 2^62
_G1_LANES = 1 << 11  # primes per sub-batch of _lane_g1
_NO_NONRESIDUE = "no odd prime below 1000 is a nonresidue mod p"


@dataclass(frozen=True)
class RootSet:
    """Distinct roots of a polynomial mod p.

    omega == p encodes 'vanishes identically mod p'.  roots is None when the
    set was counted but not materialized (count-only form).
    """

    p: int
    omega: int
    roots: tuple[int, ...] | None = None


def _require_prime(p: int) -> None:
    if p < 2 or not primality.is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo prime p, or None if a is a nonresidue;
    NotPrimeError for composite p."""
    _require_prime(p)
    return _sqrt_mod(a, p)


def _sqrt_mod(a: int, p: int) -> int | None:
    """sqrt_mod for a p already known to be prime, by Tonelli-Shanks
    (Tonelli 1891; Shanks 1973; Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 1.5.1): with p - 1 = 2^e d, x = a^((d+1)/2) and
    b = a^d, so x^2 = a b; where e >= 2, c = z^d for the least odd prime z
    with (z|p) = -1, read from primality._jacobi_table(z), and for k = e-1
    down to 1, x <- x c and b <- b c^2 if b^(2^(k-1)) != 1, then c <- c^2.
    At step k b's order divides 2^k and c's is 2^(k+1), so b ends at 1.  At
    p = 2 and p = 3 (mod 4), e <= 1: no step runs, no z is read and the root
    is a^((p+1)/4).  _lane_sqrt takes the same steps in lanes, hence its
    root.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    e = ((p - 1) & (1 - p)).bit_length() - 1
    y = pow(a, (p - 1) >> (e + 1), p)  # a^((d-1)/2)
    x = a * y % p
    b = x * y % p
    if e >= 2:
        for z in primality._TRIAL_PRIMES[1:]:
            table = primality._jacobi_table(z)
            if table[p % table.size] == -1:
                break
        else:
            raise ArithmeticError(_NO_NONRESIDUE)
        c = pow(z, (p - 1) >> e, p)
    for k in range(e - 1, 0, -1):
        if pow(b, 1 << (k - 1), p) != 1:
            x, b = x * c % p, b * c % p * c % p
        c = c * c % p
    return x


def _reduce(f: Polynomial, p: int) -> list[int]:
    return _gfpoly.trim([c % p for c in f.coeffs])


def count_roots(f: Polynomial, p: int) -> RootSet:
    """Number of distinct solutions of f(n) = 0 (mod p), count-only form."""
    _require_prime(p)
    return RootSet(p, _root_count(f, p))


def _root_count(f: Polynomial, p: int) -> int:
    """omega_f(p) for prime p (no primality re-check): the degree 1 and 2
    formulas where they apply, else deg g_1."""
    if f.degree == 1:
        b, a = f.coeffs
        if a % p:
            return 1
        return p if b % p == 0 else 0
    if f.degree == 2:
        c, b, a = f.coeffs
        disc = b * b - 4 * a * c
        if (2 * a * disc) % p != 0:
            return 1 + kronecker(disc, p)
    fbar = _reduce(f, p)
    if not fbar:
        return p  # vanishes identically
    # deg g_1; a nonzero constant has no chain step, so its g_1 is [1]
    return _gfpoly.degree(next(_gfpoly.distinct_degree(fbar, p), (1, [1]))[1])


def _root_counts(f: Polynomial, p: np.ndarray) -> np.ndarray:
    """_root_count of f at each prime of the int64 or object array p.

    The lanes p > 3 where p divides neither the leading coefficient a nor,
    for degree 2, the discriminant D are counted at once: 1 for degree 1,
    1 + (D|p) by _lane_split for degree 2 and deg g_1 by _lane_g1 for
    degree >= 3.  Every other prime goes through _root_count.
    """
    omega = np.empty_like(p)
    scalar = p <= 3
    lanes = np.flatnonzero(~scalar)
    if lanes.size:
        q = _lane_array(p[lanes])
        red = [c % q for c in f.coeffs]
        rest = red[-1] == 0
        count = np.zeros_like(q)
        if f.degree == 1:
            count[:] = 1
        elif f.degree == 2:
            rest, split_lanes, _, split = _lane_split(f.coeffs, red, q)
            count[split_lanes] = 2 * split
        else:
            _, count[~rest] = _lane_g1(f.coeffs, q[~rest])
        omega[lanes] = count
        scalar[lanes[rest]] = True
    omega[scalar] = [_root_count(f, v) for v in p[scalar].tolist()]
    return omega


def list_roots(f: Polynomial, p: int) -> RootSet:
    """All solutions of f(n) = 0 (mod p), materialized and sorted.

    p <= 3 scans its residues.  At p > 3, degrees 1 and 2 are solved by
    formula (inverse, respectively sqrt_mod of the discriminant), and higher
    degrees split g_1 = gcd(x^p - x, f), the first step of the
    distinct-degree chain, into its linear factors.
    """
    _require_prime(p)
    fbar = _reduce(f, p)
    if not fbar:
        raise IdenticallyZeroError(
            f"{f} vanishes identically mod {p}; every residue is a root")
    roots = sorted(_roots_of_reduced(fbar, p))
    return RootSet(p, len(roots), tuple(roots))


def _roots_of_reduced(fbar: list[int], p: int) -> list[int]:
    if p <= 3 or not fbar:  # a zero fbar has every residue as a root
        return [r for r in range(p) if _eval_exact(fbar, r) % p == 0]
    d = _gfpoly.degree(fbar)
    if d == 0:
        return []
    if d == 1:
        b, a = fbar
        return [(-b) * pow(a, p - 2, p) % p]
    if d == 2:
        c, b, a = fbar
        disc = (b * b - 4 * a * c) % p
        inv2a = pow(2 * a, p - 2, p)
        if disc == 0:
            return [-b * inv2a % p]
        s = _sqrt_mod(disc, p)
        if s is None:
            return []
        return [(-b + s) * inv2a % p, (-b - s) * inv2a % p]
    return _split_linear_product(next(_gfpoly.distinct_degree(fbar, p))[1], p)


def _split_linear_product(g: list[int], p: int) -> list[int]:
    """Roots of g, a squarefree product of linear factors over GF(p)."""
    d = _gfpoly.degree(g)
    if d <= 2:
        return _roots_of_reduced(g, p)
    for shift in range(1, p):  # about half of them split a valid g
        if shift == 8 and _gfpoly.pow_mod([0, 1], p, g, p) != [0, 1]:
            break  # g does not divide x^p - x
        # gcd with (x+shift)^((p-1)/2) - 1 separates the roots r for which
        # r+shift is a quadratic residue; deterministic shifts keep the
        # output reproducible.
        h = _gfpoly.pow_mod([shift, 1], (p - 1) // 2, g, p)
        part = _gfpoly.gcd(_gfpoly.sub(h, [1], p), g, p)
        if 0 < _gfpoly.degree(part) < d:
            rest = _gfpoly.div(g, part, p)[0]
            return _split_linear_product(part, p) + \
                _split_linear_product(rest, p)
    raise ArithmeticError(f"no shift below {p} splits {g} into linears")


# ---------------------------------------------------------------------------
# Batched root tables
# ---------------------------------------------------------------------------

def _root_table(polys: Sequence[Polynomial], prime_arrays: Iterable[np.ndarray]
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """[(p, r), ...]: every root r mod p of every f in polys, one pair per
    array of primes given, each sorted by p and then r, without repeats.

    The arrays are int32 while every p is below 2^31, int64 beyond.  Lanes
    are solved in batches of 2^13 primes by _lane_roots; the primes p <= 3
    and those it leaves go through _roots_of_reduced, one at a time.  Each
    batch is narrowed before its segment's one concatenation, so the table
    never exists twice.
    """
    table = []
    for primes in prime_arrays:
        batches = [_batch_roots(polys, primes[k:k + _LANES])
                   for k in range(0, len(primes), _LANES)]
        if batches:
            table.append(tuple(np.concatenate(a) for a in zip(*batches)))
    return table


def _batch_roots(polys: Sequence[Polynomial], primes: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """_root_table for one batch of primes, int32 if they are below 2^31."""
    p = primes.astype(np.int64)
    ps, rs = [], []
    scalar_p, scalar_r = [], []
    for f in polys:
        scalar = p <= 3
        lanes = np.flatnonzero(~scalar)
        if lanes.size:
            q, r, rest = _lane_roots(f.coeffs, _lane_array(p[lanes]))
            ps.append(q.astype(np.int64, copy=False))
            rs.append(r.astype(np.int64, copy=False))
            scalar[lanes[rest]] = True
        for q in p[scalar].tolist():
            roots = _roots_of_reduced(_reduce(f, q), q)
            scalar_p.extend([q] * len(roots))
            scalar_r.extend(roots)
    p = np.concatenate([*ps, np.array(scalar_p, dtype=np.int64)])
    r = np.concatenate([*rs, np.array(scalar_r, dtype=np.int64)])
    order = np.lexsort((r, p))
    p, r = p[order], r[order]
    new = np.ones(p.size, dtype=bool)
    new[1:] = (p[1:] != p[:-1]) | (r[1:] != r[:-1])
    p, r = p[new], r[new]
    dtype = np.int64 if primes.max() >= _LANE_LIMIT else np.int32
    return p.astype(dtype, copy=False), r.astype(dtype, copy=False)


def _lane_array(p: np.ndarray) -> np.ndarray:
    """p as int64 lanes below 2^31, else as exact Python ints (object)."""
    return p if p.max() < _LANE_LIMIT else p.astype(object)


def _lane_roots(coeffs: Sequence, p: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of a polynomial modulo each prime p > 3 of a _lane_array.

    coeffs are ints, except that a quadratic factor's c and b may be
    arrays of p's dtype with one value per lane (_lane_linear_roots).
    Returns (q, r) in p's dtype, one entry per root found, and the mask of
    the lanes of p left to the scalar path: p divides the leading
    coefficient or, for degree 2, the discriminant D.  Degree >= 3 takes
    g_1 = gcd(x^p - x, f) from _lane_g1 and its roots from
    _lane_linear_roots; each prime must get deg g_1 roots.  Every root is
    checked to satisfy f(r) = 0 (mod q), and every square root s of D to
    satisfy s^2 = D, so an arithmetic fault raises instead of passing
    silently.
    """
    red = [c % p for c in coeffs]  # reduced: products of two are exact
    if len(coeffs) == 2:
        rest = red[1] == 0
        q = p[~rest]
        red = [v[~rest] for v in red]
        b, a = red
        r = (q - b) * _lane_inverse(coeffs[1], a, q) % q
    elif len(coeffs) == 3:
        rest, lanes, disc, split = _lane_split(coeffs, red, p)
        lanes, disc = lanes[split], disc[split]
        q = p[lanes]
        s = _lane_sqrt(disc, q)
        if np.any(s * s % q != disc):
            raise ArithmeticError("a lane square root failed its check")
        c, b, a = [v[lanes] for v in red]
        inv2a = _lane_inverse(2 * coeffs[2], 2 * a % q, q)
        r = np.concatenate([(q - b + s) % q * inv2a % q,
                            (2 * q - b - s) % q * inv2a % q])
        q = np.concatenate([q, q])
        red = [np.concatenate([v, v]) for v in (c, b, a)]
    else:
        rest = red[-1] == 0
        lanes = p[~rest]
        g, deg = _lane_g1(coeffs, lanes)
        q, r = _lane_linear_roots(g, deg, lanes)
        order = np.argsort(lanes)  # count per lane in any order of primes
        found = np.bincount(order[np.searchsorted(lanes, q, sorter=order)],
                            minlength=lanes.size)
        if np.any(found != deg):
            raise ArithmeticError("a lane found other than deg g_1 roots")
        red = [c % q for c in coeffs]
    acc = np.zeros_like(q)
    for c in reversed(red):
        acc = (acc * r + c) % q
    if np.any(acc):
        raise ArithmeticError("a lane root failed the check f(r) = 0 (mod p)")
    return q, r, rest


def _lane_linear_roots(g: np.ndarray, deg: np.ndarray, p: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(q, r) for each root r mod q of g, of shape (m, lanes), monic of
    degree deg < m and a product of distinct linear factors modulo each
    prime p > 3 of a _lane_array: _split_linear_product in lanes.

    A linear factor x + g_0 is read as the root -g_0, and a quadratic one
    passed on to _lane_roots as (g_0, g_1, 1).  The others split by
    Cantor-Zassenhaus with shifts t = 1, 2, ... shared by every lane: with
    h = (x + t)^((p-1)/2) mod g, once gcd(g, h - 1) has 0 < degree < deg g,
    it and gcd(g, h + 1) replace g, and -t is a root if they miss one.  A
    factor born at shift t splits at no shift <= t, so sharing t skips
    none.  A lane unsplit at t >= p raises, as the scalar split does.
    """
    out, t = [], 0
    while True:
        one, two = deg == 1, deg == 2
        out += [(p[one], -g[0, one] % p[one]),
                _lane_roots((g[0, two], g[1, two], 1), p[two])[:2]]
        big = deg > 2
        g, deg, p, t = g[:, big], deg[big], p[big], t + 1
        if not p.size:
            return tuple(np.concatenate(a) for a in zip(*out))
        if np.any(p <= t):
            raise ArithmeticError("no shift t < p splits a lane into linears")
        h = np.zeros_like(g)
        for j in set(deg.tolist()):
            i = np.flatnonzero(deg == j)
            q = p[i]
            h[:j, i] = _lane_powmod(t, q >> 1, (q - g[:j, i]) % q, q)
        h[0] = (h[0] - 1) % p
        part, dp = _lane_gcd(g, h, p)
        split = (0 < dp) & (dp < deg)
        h, q = h[:, split], p[split]
        h[0] = (h[0] + 2) % q
        rest, dr = _lane_gcd(g[:, split], h, q)
        at_t = dp[split] + dr < deg[split]  # x + t divides g
        out.append((q[at_t], -t % q[at_t]))
        g = np.hstack([np.where(split, part, g), rest])
        deg = np.concatenate([np.where(split, dp, deg), dr])
        p = np.concatenate([p, q])


def _lane_split(coeffs: Sequence, red: list[np.ndarray], p: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Whether a quadratic with coefficients coeffs, red = (c, b, a) mod each
    prime p > 3 of a _lane_array, splits, by the Legendre symbol (D|p) of
    its discriminant D: for integers with 0 < |D| <= _LANES read at
    p % |D| from the table cached per D, primality._jacobi_table(D), else
    by the lane Kronecker symbol of D mod p.

    Returns the mask of the lanes left to the scalar path (p divides a or
    D), the indices of the other lanes, D at those lanes and the mask of
    those where D is a square.  Raises if a symbol is 0, which p not
    dividing D rules out, so an arithmetic fault cannot pass silently.
    """
    c, b, a = red
    disc = (b * b - 4 * a % p * c) % p  # int64: every product below 2^62
    rest = (a == 0) | (disc == 0)
    lanes = np.flatnonzero(~rest)
    q, disc = p[lanes], disc[lanes]
    c, b, a = coeffs
    d = b * b - 4 * a * c if isinstance(c, int) else 0
    if 0 < abs(d) <= _LANES:
        table = primality._jacobi_table(d)
        sym = table[(q % table.size).astype(np.int64)]
    else:
        sym = primality._lane_kronecker(disc, q)
    if np.any(sym == 0):
        raise ArithmeticError("a lane Legendre symbol of D was 0")
    return rest, lanes, disc, sym == 1


def _lane_pow(base: np.ndarray, exp: np.ndarray, p: np.ndarray) -> np.ndarray:
    """base^exp mod p lane by lane, by square-and-multiply."""
    result = np.ones_like(p)
    exp = exp.copy()
    while True:
        result = np.where((exp & 1) == 1, result * base % p, result)
        exp >>= 1
        if not exp.any():
            return result
        base = base * base % p


def _lane_inverse(c: int, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """1/a mod each prime p > 3 of a _lane_array, for a = c mod p a unit
    and c a nonzero integer: for |c| <= _LANES, 1/c from the cached residue
    table of primality._lane_unit_inverse; else a^(p-2) by _lane_pow."""
    if abs(c) > _LANES:
        return _lane_pow(a, p - 2, p)
    return primality._lane_unit_inverse(c, p)


def _lane_g1(coeffs: Sequence[int], p: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """g_1 = gcd(x^p - x, f) for f of degree d >= 3 modulo each prime p > 3
    of a _lane_array that does not divide its leading coefficient: the
    first step of _gfpoly.distinct_degree in numpy lanes.

    Returns g_1, monic, in p's dtype and shape (d + 1, lanes) in ascending
    order, and its degree per lane.  The lanes run _G1_LANES at a time, so
    every temporary stays small.  x^p mod f must satisfy f(x^p) = 0
    (mod f), since Frobenius fixes f's coefficients, and g_1 must divide
    both f and x^p - x mod f; a failed check raises ArithmeticError.
    """
    d = len(coeffs) - 1
    g = np.empty((d + 1, p.size), dtype=p.dtype)
    deg = np.empty(p.size, dtype=np.int64)
    for k in range(0, p.size, _G1_LANES):
        q = p[k:k + _G1_LANES]
        zero = np.zeros_like(q)
        red = [c % q for c in coeffs]
        inv = _lane_inverse(coeffs[-1], red[-1], q)
        monic = np.array([c * inv % q for c in red])
        neg = (q - monic[:d]) % q  # x^d = neg(x) (mod f)
        h = _lane_powmod(0, q, neg, q)
        f_of_h = np.zeros_like(h)
        f_of_h[0] = 1
        for c in monic[d - 1::-1]:  # Horner, in GF(p)[x]/(f)
            f_of_h = _lane_mulmod(f_of_h, h, neg, q)
            f_of_h[0] = (f_of_h[0] + c) % q
        if f_of_h.any():
            raise ArithmeticError("a lane x^p mod f failed f(x^p) = 0 (mod f)")
        h[1] = (h[1] - 1) % q  # x^p - x (mod f)
        gk, dk = _lane_gcd(monic, np.vstack([h, zero]), q)
        for j in range(1, d + 1):
            i = np.flatnonzero(dk == j)
            neg_g = (q[i] - gk[:j, i]) % q[i]  # x^j = neg_g(x) (mod g_1)
            for t in (monic, h):
                if _lane_reduce(t[:, i], neg_g, q[i]).any():
                    raise ArithmeticError(
                        "a lane g_1 does not divide both f and x^p - x")
        g[:, k:k + _G1_LANES], deg[k:k + _G1_LANES] = gk, dk
    return g, deg


def _lane_powmod(t: int, e: np.ndarray, neg: np.ndarray, p: np.ndarray
                 ) -> np.ndarray:
    """(x + t)^e mod (x^j - neg(x), p), j = len(neg), lane by lane, by
    square-and-multiply; neg has shape (j, lanes) and reduced entries."""
    h = np.zeros_like(neg)
    h[0] = 1
    for bit in reversed(range(int(e.max()).bit_length())):
        h = _lane_mulmod(h, h, neg, p)
        xh = _lane_reduce(np.vstack([np.zeros_like(p), h]), neg, p)
        if t:
            xh = (xh + t * h) % p
        h = np.where((e >> bit) & 1 == 1, xh, h)
    return h


def _lane_mulmod(a: np.ndarray, b: np.ndarray, neg: np.ndarray,
                 p: np.ndarray) -> np.ndarray:
    """a * b mod (x^d - neg(x), p) for lane polynomials a, b of shape
    (d, lanes), d = len(neg), with reduced entries."""
    d = len(neg)
    out = np.zeros((2 * d - 1, p.size), dtype=p.dtype)
    for i in range(d):
        out[i:i + d] += a[i] * b % p  # each sum below 2d p
    return _lane_reduce(out, neg, p)


def _lane_reduce(c: np.ndarray, neg: np.ndarray, p: np.ndarray
                 ) -> np.ndarray:
    """c mod (x^j - neg(x), p), j = len(neg), for c of shape (m, lanes),
    m >= j, with small nonnegative entries: reduced, shape (j, lanes).
    Overwrites c."""
    j = len(neg)
    for k in range(len(c) - 1, j - 1, -1):
        c[k - j:k] += c[k] % p * neg % p
    return c[:j] % p


def _lane_gcd(a: np.ndarray, b: np.ndarray, p: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """gcd(a, b) for lane polynomials of shape (n, lanes) with reduced
    entries, deg a > deg b: monic, and its degree per lane.

    Each step replaces a by lc(b) a - lc(a) x^(deg a - deg b) b, which drops
    deg a, and swaps the pair when deg a falls below deg b; a lane is done
    when b is 0.  No inverse is taken until the final normalisation.
    """
    rows, cols = np.arange(len(a))[:, None], np.arange(p.size)
    da, db = _lane_degree(a), _lane_degree(b)
    while (live := db >= 0).any():
        shift = rows - np.where(live, da - db, 0)
        lb = np.where(live, b[db, cols], 1)
        la = np.where(live, a[da, cols], 0)
        b_up = np.where(shift >= 0, np.take_along_axis(
            b, np.maximum(shift, 0), axis=0), 0)
        a = (lb * a % p - la * b_up % p) % p
        da = _lane_degree(a)
        swap = da < db
        a, b = np.where(swap, b, a), np.where(swap, a, b)
        da, db = np.where(swap, db, da), np.where(swap, da, db)
    return a * _lane_pow(a[da, cols], p - 2, p) % p, da


def _lane_degree(a: np.ndarray) -> np.ndarray:
    """Degree per lane of lane polynomials of shape (n, lanes); -1 for 0."""
    nonzero = a != 0
    return np.where(nonzero.any(axis=0),
                    len(a) - 1 - nonzero[::-1].argmax(axis=0), -1)


def _lane_sqrt(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """_sqrt_mod's root of each quadratic residue a modulo each odd prime p
    of a _lane_array, by the same steps.  c is taken only in the lanes with
    e >= 2, and step k runs on the lanes with e > k only, so no lane waits
    on the largest e."""
    e = primality._trailing_zeros(p - 1)
    d = (p - 1) >> e
    y = _lane_pow(a, d >> 1, p)
    x = a * y % p
    b, c = x * y % p, np.zeros_like(p)
    w = e >= 2
    c[w] = _lane_pow(_nonresidue(p[w]), d[w], p[w])
    for k in range(int(e.max(initial=0)) - 1, 0, -1):
        i = np.flatnonzero(e > k)
        q, t = p[i], b[i]
        for _ in range(k - 1):
            t = t * t % q
        flip = i[t != 1]
        x[flip] = x[flip] * c[flip] % p[flip]
        c[i] = c[i] * c[i] % q
        b[flip] = b[flip] * c[flip] % p[flip]
    return x


def _nonresidue(p: np.ndarray) -> np.ndarray:
    """The least odd prime z with (z|p) = -1 at each odd prime p of an int64
    or object array: by reciprocity (z|n) depends on odd n only mod 4z (z
    if z = 1 mod 4), so it is read from one cached table per z,
    primality._jacobi_table(z); an empty p reads none.  ArithmeticError if
    no odd prime below 1000 qualifies."""
    z = np.zeros_like(p)
    todo = np.arange(p.size)
    for q in primality._TRIAL_PRIMES[1:]:
        if not todo.size:
            return z
        table = primality._jacobi_table(q)
        hit = table[(p[todo] % table.size).astype(np.int64)]
        z[todo[hit == -1]] = q
        todo = todo[hit != -1]
    if todo.size:
        raise ArithmeticError(_NO_NONRESIDUE)
    return z
