"""Integer polynomials and systems of them.

A Polynomial stores ascending coefficients ``coeffs[k] * n^k`` with a positive
leading coefficient and degree >= 1.  Coefficients live in the signed 64-bit
range and evaluation in the signed 128-bit range; both limits are enforced
explicitly (arithmetic itself is exact Python integers).

A PolySystem bundles an ordered tuple of distinct polynomials with the derived
data the prediction machinery needs: the product polynomial, the integer
threshold n0 past which every polynomial exceeds 1, and per-polynomial
irreducibility evidence.  Every PolySystem is admissible: build_system
raises InadmissibleSystemError for a system that is not.
"""

from __future__ import annotations

import math
import re
import sys
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    ConstantPolynomialError,
    DuplicatePolynomialError,
    InadmissibleSystemError,
    IrreducibilityError,
    NonPositiveLeadError,
    PolynomialSyntaxError,
    RangeOverflowError,
)
from . import _gfpoly, primality

I64_MAX = 2**63 - 1
I128_MAX = 2**127 - 1

# Primes used when hunting for a mod-p irreducibility certificate (degree >= 4).
_CERTIFICATE_PRIMES = primality._TRIAL_PRIMES[:25]


def _check64(coeffs: Sequence[int]) -> None:
    for c in coeffs:
        if abs(c) > I64_MAX:
            raise RangeOverflowError(
                f"coefficient {c} exceeds the signed 64-bit range")


def _trim(coeffs: Sequence[int]) -> list[int]:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _eval_exact(coeffs: Sequence[int], n: int | float) -> int | float:
    """Horner evaluation with no range limit (internal use).  The one
    Horner loop of the package: exact for an integer n and elementwise
    for an object array of Python ints; exact elementwise for an int64
    numpy array n whose entries have |n| >= 1 and sum_i |c_i| |n|^i <
    2^63, because every intermediate is at most that sum in size; for a
    float n it performs the same IEEE operations as a loop started at
    0.0."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


@dataclass(frozen=True)
class Polynomial:
    """Univariate integer polynomial, ascending coefficients, lead > 0."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(_trim(self.coeffs))
        object.__setattr__(self, "coeffs", coeffs)
        _check64(coeffs)
        if len(coeffs) < 2:
            raise ConstantPolynomialError(
                "constant polynomials are not prime infinitely often")
        if coeffs[-1] <= 0:
            raise NonPositiveLeadError(
                f"leading coefficient must be positive, got {coeffs[-1]}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1]

    def __call__(self, n: int) -> int:
        return evaluate(self, n)

    def __str__(self) -> str:
        return format_polynomial(self)


def evaluate(f: Polynomial, n: int) -> int:
    """Exact f(n); every Horner intermediate must fit in signed 128 bits.

    Checking the result checks every intermediate.  For |n| >= 2, once
    |acc| > I128_MAX > |c| the next one is |acc*n + c| >= 2|acc| - |c| >
    |acc|, so it stays out of range; for |n| <= 1 every intermediate is at
    most sum |c_i| < 2^127.
    """
    if abs(n) > I64_MAX:
        raise RangeOverflowError(f"argument {n} exceeds the signed 64-bit range")
    acc = _eval_exact(f.coeffs, n)
    if abs(acc) > I128_MAX:
        raise RangeOverflowError(
            f"evaluation at n={n} leaves the signed 128-bit range")
    return acc


def format_polynomial(f: Polynomial) -> str:
    """Canonical display form, descending powers: '6*n^2 + 1'."""
    parts: list[str] = []
    for k in range(f.degree, -1, -1):
        c = f.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "n" if mag == 1 else f"{mag}*n"
        else:
            body = f"n^{k}" if mag == 1 else f"{mag}*n^{k}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_polynomial(text: str) -> Polynomial:
    """Parse an expression in ``n`` (operators + - * ^, parentheses, integer
    literals) or a comma-separated ascending coefficient list.  Integer
    literals are ASCII digits 0-9, signed inside coefficient lists.

    Expansion is exact; any intermediate coefficient outside the signed
    64-bit range raises RangeOverflowError.
    """
    src = text.replace("−", "-").strip()  # accept the unicode minus sign
    if not src:
        raise PolynomialSyntaxError("empty polynomial expression")
    if "," in src:
        coeffs = _parse_coeff_list(src)
    else:
        coeffs = _Parser(src).run()
    return Polynomial(tuple(coeffs))


def _parse_coeff_list(src: str) -> list[int]:
    coeffs = []
    for i, piece in enumerate(src.split(",")):
        piece = piece.strip()
        if not re.fullmatch(r"[+-]?[0-9]+", piece):
            raise PolynomialSyntaxError(
                f"coefficient {i} is not an integer: {piece!r}")
        coeffs.append(int(piece))
    return coeffs


class _Parser:
    """Recursive-descent parser producing an ascending coefficient list.

    Grammar:  expr := term (('+'|'-') term)*
              term := unary ('*' unary)*
              unary := ('+'|'-') unary | power
              power := atom ('^' INTEGER)?
              atom := INTEGER | 'n' | '(' expr ')'
    """

    def __init__(self, src: str):
        self.src = src
        self.pos = 0

    def run(self) -> list[int]:
        coeffs = self.expr()
        self.skip_ws()
        if self.pos != len(self.src):
            raise PolynomialSyntaxError(
                f"unexpected {self.src[self.pos]!r} at position {self.pos}")
        return coeffs

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expr(self) -> list[int]:
        acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.src[self.pos]
            self.pos += 1
            rhs = self.term()
            acc = self._add(acc, rhs if op == "+" else self._neg(rhs))
        return acc

    def term(self) -> list[int]:
        acc = self.unary()
        while self.peek() == "*":
            self.pos += 1
            acc = self._mul(acc, self.unary())
        return acc

    def unary(self) -> list[int]:
        ch = self.peek()
        if ch in ("+", "-"):
            self.pos += 1
            inner = self.unary()
            return inner if ch == "+" else self._neg(inner)
        return self.power()

    def power(self) -> list[int]:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            exp = self._integer("exponent")
            if exp > 128:
                raise PolynomialSyntaxError(f"exponent {exp} is too large")
            acc = [1]
            for _ in range(exp):
                acc = self._mul(acc, base)
            return acc
        return base

    def atom(self) -> list[int]:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            inner = self.expr()
            if self.peek() != ")":
                raise PolynomialSyntaxError(
                    f"expected ')' at position {self.pos}")
            self.pos += 1
            return inner
        if ch == "n":
            self.pos += 1
            return [0, 1]
        if "0" <= ch <= "9":  # ASCII only; str.isdigit accepts superscripts
            return [self._integer("integer literal")]
        if ch == "":
            raise PolynomialSyntaxError("unexpected end of expression")
        raise PolynomialSyntaxError(
            f"unexpected {ch!r} at position {self.pos}")

    def _integer(self, what: str) -> int:
        self.skip_ws()
        digits = re.compile("[0-9]+").match(self.src, self.pos)
        if not digits:
            raise PolynomialSyntaxError(
                f"expected {what} at position {self.pos}")
        self.pos = digits.end()
        return int(digits.group())

    @staticmethod
    def _neg(a: list[int]) -> list[int]:
        out = [-c for c in a]
        _check64(out)
        return out

    @staticmethod
    def _add(a: list[int], b: list[int]) -> list[int]:
        out = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] += c
        _check64(out)
        return out

    @staticmethod
    def _mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        _check64(out)
        return out


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolySystem:
    """Ordered system of distinct polynomials plus derived data.  Always
    admissible: build_system raises InadmissibleSystemError otherwise."""

    polys: tuple[Polynomial, ...]
    product: Polynomial
    n0: int
    irreducibility_evidence: tuple[str, ...]

    @property
    def m(self) -> int:
        """Number of polynomials in the system."""
        return len(self.polys)

    def __str__(self) -> str:
        return "{" + ", ".join(str(f) for f in self.polys) + "}"


def build_system(polys: Iterable[Polynomial]) -> PolySystem:
    """Validate a polynomial system and compute its derived data.

    Raises DuplicatePolynomialError, IrreducibilityError (a certified
    factorization exists), RangeOverflowError (product coefficients leave the
    64-bit range) and InadmissibleSystemError, carrying the witnessing prime
    as ``witness``, so every PolySystem returned is admissible.
    """
    polys = tuple(polys)
    if not polys:
        raise ValueError("a system needs at least one polynomial")
    seen = set()
    for f in polys:
        if f.coeffs in seen:
            raise DuplicatePolynomialError(f"duplicate polynomial {f}")
        seen.add(f.coeffs)

    evidence = tuple(irreducibility_evidence(f) for f in polys)

    prod = [1]
    for f in polys:
        prod = _Parser._mul(prod, list(f.coeffs))
    product = Polynomial(tuple(prod))

    witness = _inadmissibility_witness(product)
    if witness is not None:
        raise InadmissibleSystemError(witness)

    n0 = _threshold_cutoff(polys, 1)
    return PolySystem(polys=polys, product=product, n0=n0,
                      irreducibility_evidence=evidence)


def _inadmissibility_witness(product: Polynomial) -> int | None:
    """Smallest prime modulo which the product vanishes identically, if any.

    Root counts are brute-forced for p <= deg(product); a polynomial of
    degree d vanishing identically mod p > d must have p dividing every
    coefficient, which the content check covers.
    """
    d = product.degree
    p = 2
    while p <= d:
        if primality.is_prime(p):
            residues = [c % p for c in product.coeffs]
            if all(_eval_exact(residues, n) % p == 0 for n in range(p)):
                return p
        p += 1
    content = math.gcd(*product.coeffs)
    if content > 1:
        return min(primality.factorize(content))
    return None


# ---------------------------------------------------------------------------
# Irreducibility evidence
# ---------------------------------------------------------------------------

def irreducibility_evidence(f: Polynomial) -> str:
    """Return 'certified' or 'heuristic'; raise IrreducibilityError when a
    factorization is certain.

    Degree 1 is always irreducible.  A rational root gives a linear factor
    (hard error); its absence decides degrees 2 and 3 completely.  For
    degree >= 4 we look for a prime p with f irreducible mod p (at most d/2
    chain steps each), which certifies irreducibility over the integers; if
    none does, the verdict stays heuristic.  A heuristic f may still have a
    factor of degree >= 2: n^20+n+1 = (n^2+n+1)(n^18 - ... + 1) is one.
    """
    if f.degree == 1:
        return "certified"
    root = _rational_root(f)
    if root is not None:
        p, q = root
        raise IrreducibilityError(
            f"{f} is reducible: rational root {p}/{q} gives a linear factor")
    if f.degree <= 3:
        return "certified"
    for p in _CERTIFICATE_PRIMES:
        if f.leading_coefficient % p == 0:
            continue
        if _gfpoly.is_irreducible([c % p for c in f.coeffs], p):
            return "certified"
    # The warning names the first caller outside this package, also when
    # build_system is the one that asked; under `python -m batemanhorn` that
    # caller is runpy's frozen bootstrap, so it names __main__.py instead.
    frame, level = sys._getframe(1), 2
    while (frame.f_back and frame.f_globals.get("__package__") == __package__
           and not frame.f_back.f_code.co_filename.startswith("<frozen")):
        frame, level = frame.f_back, level + 1
    warnings.warn(
        f"no irreducibility certificate found for {f}; proceeding on the "
        f"heuristic that it is irreducible (it has no linear factor, but a "
        f"factor of degree >= 2 is not ruled out)", stacklevel=level)
    return "heuristic"


def _rational_root(f: Polynomial) -> tuple[int, int] | None:
    """Find a rational root p/q (q > 0, gcd(p,q)=1) or None.

    A rational root r of f is y/a for an integer root y of a^d f(y/a),
    a the leading coefficient; integer roots are found among root floors.
    """
    a = f.leading_coefficient
    scaled = _scale_roots(f.coeffs, a)
    for y in real_root_floors(scaled):
        if _eval_exact(scaled, y) == 0:
            g = math.gcd(y, a)
            return (y // g, a // g)
    return None


# ---------------------------------------------------------------------------
# Exact real roots: Sturm chains and integer bisection
# ---------------------------------------------------------------------------

def _scale_roots(coeffs: Sequence[int], k: int) -> list[int]:
    """Coefficients of k^d f(y/k), whose roots are k times those of f."""
    d = len(coeffs) - 1
    return [c * k**(d - i) for i, c in enumerate(coeffs)]


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]
                   ) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b, both times one positive integer,
    so the arithmetic stays in integers and every sign is kept."""
    lead, sign = abs(b[-1]), (1 if b[-1] > 0 else -1)
    quo, rem = [], list(a)
    while len(rem) >= len(b):
        top = sign * rem.pop()
        quo = [top] + [lead * c for c in quo]
        rem = [lead * c for c in rem]
        for i, c in enumerate(b[:-1]):
            rem[len(rem) - len(b) + 1 + i] -= top * c
    return quo, rem


def _primitive(coeffs: Sequence[int]) -> list[int]:
    g = math.gcd(*coeffs)
    return [c // g for c in coeffs]


def _sturm_chain(coeffs: Sequence[int]) -> list[list[int]]:
    """Sturm chain of the squarefree part of a nonconstant polynomial.

    The plain chain f, f', -rem, ... ends in g = gcd(f, f'), and every
    member is divided by g.  Without that division every member vanishes
    at a repeated root, and a bisection point landing there miscounts.
    """
    chain = [list(coeffs), [k * c for k, c in enumerate(coeffs)][1:]]
    while len(chain[-1]) > 1:
        rem = _trim(_pseudo_divmod(chain[-2], chain[-1])[1])
        if not any(rem):
            break
        chain.append(_primitive([-c for c in rem]))
    return [_primitive(_pseudo_divmod(p, chain[-1])[0]) for p in chain]


def _sign_changes(chain: Sequence[Sequence[int]], t: int) -> int:
    signs = [v > 0 for v in (_eval_exact(p, t) for p in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def real_root_floors(coeffs: Sequence[int]) -> list[int]:
    """Ascending floors of the distinct real roots of an integer polynomial
    (ascending coefficients, degree >= 1, leading coefficient > 0).

    With V(t) the sign changes of the Sturm chain at t, V(a) - V(b) counts
    the distinct roots in (a, b].  Integer bisection of (-B, B], B the
    Cauchy bound, narrows every root to a unit interval.
    """
    chain = _sturm_chain(coeffs)
    bound = _cauchy_bound(coeffs)
    floors: set[int] = set()
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        roots = _sign_changes(chain, lo) - _sign_changes(chain, hi)
        if roots and hi - lo > 1:
            stack += [(lo, (lo + hi) // 2), ((lo + hi) // 2, hi)]
        elif roots:
            if _eval_exact(chain[0], hi) == 0:  # at most one root is hi
                floors.add(hi)
                roots -= 1
            if roots:
                floors.add(lo)
    return sorted(floors)


def count_roots_between(coeffs: Sequence[int], lo: int, hi: float) -> int:
    """Number of distinct real roots of a nonconstant integer polynomial in
    (lo, hi] for an integer lo; hi is taken at its exact binary value."""
    num, den = hi.as_integer_ratio()
    chain = _sturm_chain(_scale_roots(coeffs, den))
    return _sign_changes(chain, lo * den) - _sign_changes(chain, num)


# ---------------------------------------------------------------------------
# Threshold cutoffs (n0 and the counting engine's direct-phase bound)
# ---------------------------------------------------------------------------

def _cauchy_bound(coeffs: Sequence[int]) -> int:
    """Integer ceiling of the Cauchy root bound 1 + max|c_i|/lead."""
    lead = coeffs[-1]
    m = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return 1 + (m + lead - 1) // lead  # ceil(m/lead), exact in integers


def _threshold_cutoff(polys: Sequence[Polynomial], threshold: int) -> int:
    """Largest integer n with f(n) <= threshold for some f in the system.

    Past this point every polynomial exceeds the threshold.  For g = f -
    threshold, if g(n) <= 0 < g(n+1) then g has a root in [n, n+1), so the
    answer is the largest root floor m with g(m) <= 0.  When no polynomial
    ever dips to the threshold the floor -max(ceil(B_i)) is returned, B_i
    the Cauchy bound of f_i - threshold.
    """
    hits, bounds = [], []
    for f in polys:
        shifted = [f.coeffs[0] - threshold, *f.coeffs[1:]]
        bounds.append(_cauchy_bound(shifted))
        hits += [m for m in real_root_floors(shifted)
                 if _eval_exact(shifted, m) <= 0]
    return max(hits, default=-max(bounds))


def threshold_cutoff(system: PolySystem, threshold: int) -> int:
    """Largest n with some polynomial of the system <= threshold (clamped)."""
    return _threshold_cutoff(system.polys, threshold)
