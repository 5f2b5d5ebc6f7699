"""Dense polynomial arithmetic over GF(p), p prime.

Polynomials are lists of residues in ascending degree order; [] is the zero
polynomial.  Only what root counting, root listing and mod-p irreducibility
certificates need: difference, product, division (div, which gives the
quotient and the remainder at once), gcd, modular exponentiation and
distinct_degree, the one chain x^(p^k) mod f, which gives both the roots and
irreducibility.  Everything is O(d^2) per multiplication, fine for the small
degrees used here.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterator


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


def div(a: list[int], m: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a divided by m (m nonzero)."""
    a = trim([c % p for c in a])
    dm = degree(m)
    inv_lead = pow(m[-1], p - 2, p)
    q = [0] * max(0, degree(a) - dm + 1)
    while degree(a) >= dm:
        k = degree(a) - dm
        q[k] = factor = a[-1] * inv_lead % p
        for i, c in enumerate(m):
            a[i + k] = (a[i + k] - factor * c) % p
        trim(a)
    return trim(q), a


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while b:
        a, b = b, div(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def pow_mod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    """base^e mod (m, p) by square and multiply."""
    result = [1]
    base = div(base, m, p)[1]
    while e:
        if e & 1:
            result = div(mul(result, base, p), m, p)[1]
        base = div(mul(base, base, p), m, p)[1]
        e >>= 1
    return result


def distinct_degree(f: list[int], p: int
                    ) -> Iterator[tuple[int, list[int]]]:
    """(k, g_k) for k = 1, 2, ...: g_k = gcd(x^(p^k) - x, f_k), monic, where
    f_k is the nonzero f with g_1 ... g_(k-1) divided out; once 2k > deg f_k
    the chain ends with (deg f_k, f_k) unless f_k is constant.  For
    squarefree f, g_k is the product of f's irreducible factors of degree k,
    and that last f_k is irreducible.  Callers stop the chain when they have
    what they need (Cantor and Zassenhaus, Math. Comp. 36, 1981)."""
    rest, h, k = gcd(f, [], p), [0, 1], 1  # gcd(f, 0): f made monic
    while 2 * k <= degree(rest):
        h = pow_mod(h, p, rest, p)
        g = gcd(sub(h, [0, 1], p), rest, p)
        yield k, g
        if degree(g) > 0:
            rest = div(rest, g, p)[0]  # h stays x^(p^k) mod rest
        k += 1
    if degree(rest) > 0:
        yield degree(rest), rest


def is_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility of f over GF(p): f of degree d >= 1 is irreducible iff
    the first nontrivial g_k of distinct_degree has k = d.  A reducible f,
    repeated factors included, has an irreducible factor of degree <= d/2,
    and the chain stops there."""
    f = trim([c % p for c in f])
    return degree(f) >= 1 and degree(f) == next(
        k for k, g in distinct_degree(f, p) if degree(g) > 0)
