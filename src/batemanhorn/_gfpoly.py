"""Dense polynomial arithmetic over GF(p), p prime.

Polynomials are lists of residues in ascending degree order; [] is the zero
polynomial.  Only what root counting, root listing and mod-p irreducibility
certificates need: difference, product, remainder, quotient, gcd, modular
exponentiation, and linear_part(f) = gcd(x^p - x, f), the one place that
computes it.  Everything is O(d^2) per multiplication, fine for the small
degrees used here.
"""

from __future__ import annotations

from itertools import zip_longest

from . import primality


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def degree(a: list[int]) -> int:
    return len(a) - 1  # -1 for the zero polynomial


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    return trim([(ca - cb) % p for ca, cb in zip_longest(a, b, fillvalue=0)])


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return trim(out)


def mod(a: list[int], m: list[int], p: int) -> list[int]:
    """Remainder of a divided by m (m nonzero)."""
    a = [c % p for c in a]
    trim(a)
    dm = degree(m)
    inv_lead = pow(m[-1], p - 2, p)
    while degree(a) >= dm:
        k = degree(a) - dm
        factor = a[-1] * inv_lead % p
        for i, c in enumerate(m):
            a[i + k] = (a[i + k] - factor * c) % p
        trim(a)
    return a


def quo(a: list[int], m: list[int], p: int) -> list[int]:
    """Quotient of a divided by m (m nonzero)."""
    a = [c % p for c in a]
    trim(a)
    dm = degree(m)
    inv_lead = pow(m[-1], p - 2, p)
    q = [0] * max(0, degree(a) - dm + 1)
    while degree(a) >= dm:
        k = degree(a) - dm
        factor = a[-1] * inv_lead % p
        q[k] = factor
        for i, c in enumerate(m):
            a[i + k] = (a[i + k] - factor * c) % p
        trim(a)
    return trim(q)


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while b:
        a, b = b, mod(a, b, p)
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def pow_mod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    """base^e mod (m, p) by square and multiply."""
    result = [1]
    base = mod(base, m, p)
    while e:
        if e & 1:
            result = mod(mul(result, base, p), m, p)
        base = mod(mul(base, base, p), m, p)
        e >>= 1
    return result


def linear_part(f: list[int], p: int) -> list[int]:
    """gcd(x^p - x, f): the monic product of the distinct linear factors
    of f over GF(p), f nonzero."""
    return gcd(sub(pow_mod([0, 1], p, f, p), [0, 1], p), f, p)


def is_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility of f over GF(p) (Rabin's test).

    f is irreducible of degree d iff x^(p^d) = x mod f and, for every prime
    q | d, gcd(x^(p^(d/q)) - x, f) is constant.  One chain of p-th powers
    x^(p^k), k = 1..d, serves every check.  No squarefree pre-check is
    needed: x^(p^d) - x is squarefree, so f with a repeated factor fails
    the divisibility (Rabin, SIAM J. Comput. 9, 1980).
    """
    f = trim([c % p for c in f])
    d = degree(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    checks = {d // q for q in primality.factorize(d)}
    x = h = [0, 1]
    for k in range(1, d + 1):
        h = pow_mod(h, p, f, p)
        if k in checks and degree(gcd(sub(h, x, p), f, p)) > 0:
            return False
    return not sub(h, x, p)
