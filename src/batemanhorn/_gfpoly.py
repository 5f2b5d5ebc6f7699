"""Dense polynomial arithmetic over GF(p), p prime.

Polynomials are lists of residues in ascending degree order; [] is the zero
polynomial.  Only what root counting, root listing and mod-p irreducibility
certificates need: remainder, gcd, modular exponentiation and derivatives.
Everything is O(d^2) per multiplication, fine for the small degrees used here.
"""

from __future__ import annotations

from . import primality


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def degree(a: list[int]) -> int:
    return len(a) - 1  # -1 for the zero polynomial


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


def monic(a: list[int], p: int) -> list[int]:
    if not a:
        return a
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = [c % p for c in a], [c % p for c in b]
    trim(a)
    trim(b)
    while b:
        a, b = b, mod(a, b, p)
    return monic(a, p)


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


def x_pow_p_mod(m: list[int], p: int) -> list[int]:
    """x^p mod (m, p)."""
    return pow_mod([0, 1], p, m, p)


def deriv(a: list[int], p: int) -> list[int]:
    out = [k * c % p for k, c in enumerate(a)][1:]
    return trim(out)


def is_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility of f over GF(p) (Rabin's test).

    f is irreducible of degree d iff x^(p^d) = x mod f and, for every prime
    q | d, gcd(x^(p^(d/q)) - x, f) is constant.  One chain of p-th powers
    x^(p^k), k = 1..d, serves every check.
    """
    f = trim([c % p for c in f])
    d = degree(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    if gf_squarefree_fails(f, p):
        return False
    checks = {d // q for q in primality.factorize(d)}
    h = [0, 1]
    for k in range(1, d + 1):
        h = pow_mod(h, p, f, p)
        if k in checks and degree(gcd(_sub_x(h, p), f, p)) > 0:
            return False
    return not _sub_x(h, p)


def gf_squarefree_fails(f: list[int], p: int) -> bool:
    df = deriv(f, p)
    if not df:
        return True  # f is a p-th power (or constant): repeated factors
    return degree(gcd(f, df, p)) > 0


def _sub_x(a: list[int], p: int) -> list[int]:
    out = list(a) + [0] * max(0, 2 - len(a))
    out[1] = (out[1] - 1) % p
    return trim(out)
