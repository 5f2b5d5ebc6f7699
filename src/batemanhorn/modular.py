"""Modular arithmetic kernel: Kronecker symbols and roots of polynomials
modulo a prime.

The root count omega(p) of the system's product polynomial drives every local
factor of the Euler product, and explicit root lists drive the counting
engine's pre-sieve.  Degree 1 has a closed form, and degree 2 reads the
count off a Kronecker symbol of the discriminant (Tonelli-Shanks lists the
roots).  Higher degrees take _gfpoly.linear_part = gcd(x^p - x, f) over
GF(p): its degree is the count, and equal-degree splitting of it lists the
roots (small p are brute-forced instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _gfpoly, primality
from .errors import IdenticallyZeroError, NotPrimeError
from .poly import Polynomial

_BRUTE_FORCE_LIMIT = 4096


@dataclass(frozen=True)
class RootSet:
    """Distinct roots of a polynomial mod p.

    omega == p encodes 'vanishes identically mod p'.  roots is None when the
    set was counted but not materialized (count-only form).
    """

    p: int
    omega: int
    roots: tuple[int, ...] | None = None


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


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo odd prime p, or None if a is a nonresidue.

    Tonelli-Shanks, with the p = 3 (mod 4) direct exponent shortcut.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2i = t
        i = 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return x


def _require_prime(p: int) -> None:
    if p < 2 or not primality.is_prime(p):
        raise NotPrimeError(f"{p} is not prime")


def _reduce(f: Polynomial, p: int) -> list[int]:
    return _gfpoly.trim([c % p for c in f.coeffs])


def count_roots(f: Polynomial, p: int) -> RootSet:
    """Number of distinct solutions of f(n) = 0 (mod p), count-only form."""
    _require_prime(p)
    return RootSet(p, _root_count(f, p))


def _root_count(f: Polynomial, p: int) -> int:
    """omega_f(p) for prime p (no primality re-check)."""
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
    return _root_count_gcd(f, p)


def _root_count_gcd(f: Polynomial, p: int) -> int:
    """omega_f(p) by deg gcd(x^p - x, f) over GF(p), no shortcuts."""
    fbar = _reduce(f, p)
    if not fbar:
        return p  # vanishes identically
    return _gfpoly.degree(_gfpoly.linear_part(fbar, p))


def list_roots(f: Polynomial, p: int) -> RootSet:
    """All solutions of f(n) = 0 (mod p), materialized and sorted.

    Degrees 1 and 2 are solved by formula at every p (inverse, respectively
    Tonelli-Shanks on the discriminant).  Higher degrees brute-force the
    residues for p <= 4096 and use equal-degree splitting of
    gcd(x^p - x, f) above that.
    """
    _require_prime(p)
    fbar = _reduce(f, p)
    if not fbar:
        raise IdenticallyZeroError(
            f"{f} vanishes identically mod {p}; every residue is a root")
    roots = sorted(_roots_of_reduced(fbar, p))
    return RootSet(p, len(roots), tuple(roots))


def _roots_of_reduced(fbar: list[int], p: int) -> list[int]:
    d = _gfpoly.degree(fbar)
    if d == 0:
        return []
    if p == 2 or (d <= 2 and p == 3):
        return _brute_force_roots(fbar, p)
    if d == 1:
        b, a = fbar
        return [(-b) * pow(a, p - 2, p) % p]
    if d == 2:
        c, b, a = fbar
        disc = (b * b - 4 * a * c) % p
        inv2a = pow(2 * a, p - 2, p)
        if disc == 0:
            return [-b * inv2a % p]
        s = sqrt_mod(disc, p)
        if s is None:
            return []
        return [(-b + s) * inv2a % p, (-b - s) * inv2a % p]
    if p <= _BRUTE_FORCE_LIMIT:
        return _brute_force_roots(fbar, p)
    return _split_linear_product(_gfpoly.linear_part(fbar, p), p)


def _brute_force_roots(fbar: list[int], p: int) -> list[int]:
    n = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(fbar):
        acc = (acc * n + c) % p
    return [int(r) for r in np.flatnonzero(acc == 0)]


def _split_linear_product(g: list[int], p: int) -> list[int]:
    """Roots of g, a squarefree product of linear factors over GF(p)."""
    d = _gfpoly.degree(g)
    if d <= 2:
        return _roots_of_reduced(g, p)
    shift = 1
    while True:
        # gcd with (x+shift)^((p-1)/2) - 1 separates the roots r for which
        # r+shift is a quadratic residue; deterministic shifts keep the
        # output reproducible.
        h = _gfpoly.pow_mod([shift % p, 1], (p - 1) // 2, g, p)
        part = _gfpoly.gcd(_gfpoly.sub(h, [1], p), g, p)
        if 0 < _gfpoly.degree(part) < d:
            rest = _gfpoly.quo(g, part, p)
            return _split_linear_product(part, p) + \
                _split_linear_product(rest, p)
        shift += 1
