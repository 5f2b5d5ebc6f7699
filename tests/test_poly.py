import collections
import math
import random
import warnings
from fractions import Fraction

import pytest

from batemanhorn import (
    ConstantPolynomialError,
    DuplicatePolynomialError,
    InadmissibleSystemError,
    IrreducibilityError,
    NonPositiveLeadError,
    Polynomial,
    PolynomialSyntaxError,
    RangeOverflowError,
    build_system,
    evaluate,
    format_polynomial,
    irreducibility_evidence,
    parse_polynomial,
    threshold_cutoff,
)
from batemanhorn.poly import (
    I64_MAX,
    _cauchy_bound,
    _eval_exact,
    _inadmissibility_witness,
    _threshold_cutoff,
    count_roots_between,
)


# ---------------------------------------------------------------------------
# parse_polynomial
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,coeffs", [
    ("2*n+1", (1, 2)),
    ("6*n^2+1", (1, 0, 6)),
    ("(n+1)*(n-1)", (-1, 0, 1)),
    ("n", (0, 1)),
    ("1,2", (1, 2)),
    ("1, 0, 6", (1, 0, 6)),
    ("2*n−1", (-1, 2)),              # unicode minus
    ("n^3 - 2*n + 7", (7, -2, 0, 1)),
    ("(2*n+1)*(3*n+2)", (2, 7, 6)),
    ("-(-n)", (0, 1)),
    ("1,2,0", (1, 2)),                     # trailing zeros trimmed
])
def test_parse(text, coeffs):
    assert parse_polynomial(text).coeffs == coeffs


@pytest.mark.parametrize("text", [
    "", "n^", "(n", "n//2", "2n", "m+1", "n^n", "1,2,x", "n*", "^2", "n^-1",
    # integer literals are ASCII digits; str.isdigit and int() accept more
    "n^\u00b2", "\u00b2*n", "n^\u0663", "1\u0663*n", "1,\u0663", "1_0,1",
])
def test_parse_syntax_errors(text):
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial(text)


def test_parse_nonpositive_lead():
    with pytest.raises(NonPositiveLeadError):
        parse_polynomial("1-n")
    with pytest.raises(NonPositiveLeadError):
        parse_polynomial("-3*n^2+1")


def test_parse_constant_rejected():
    with pytest.raises(ConstantPolynomialError):
        parse_polynomial("5")
    with pytest.raises(ConstantPolynomialError):
        parse_polynomial("n-n+3")


def test_parse_coefficient_overflow():
    with pytest.raises(RangeOverflowError):
        parse_polynomial(f"{2**63}*n")
    # intermediate overflow counts even if it would later cancel
    with pytest.raises(RangeOverflowError):
        parse_polynomial(f"{2**62}*n + {2**62}*n - {2**62}*n")
    # max int64 lead is fine
    assert parse_polynomial(f"{I64_MAX}*n+1").leading_coefficient == I64_MAX


def test_format_parse_identity():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randint(1, 5)
        coeffs = tuple(rng.randint(-99, 99) for _ in range(d)) + \
            (rng.randint(1, 99),)
        f = Polynomial(coeffs)
        assert parse_polynomial(format_polynomial(f)).coeffs == f.coeffs


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_examples():
    assert evaluate(Polynomial((1, 2)), 3) == 7
    assert evaluate(Polynomial((1, 0, 6)), 10**9) == 6000000000000000001
    assert evaluate(Polynomial((1, 0, 6)), 0) == 1


def test_evaluate_matches_bigint_oracle():
    rng = random.Random(123)
    for _ in range(400):
        d = rng.randint(1, 4)
        coeffs = tuple(rng.randint(-50, 50) for _ in range(d)) + \
            (rng.randint(1, 50),)
        f = Polynomial(coeffs)
        n = rng.randint(-10**6, 10**6)
        expected = sum(c * n**k for k, c in enumerate(coeffs))
        assert evaluate(f, n) == expected


def test_evaluate_range_checks():
    f = Polynomial((0, 0, 0, 0, I64_MAX))  # (2^63-1) n^4
    with pytest.raises(RangeOverflowError):
        evaluate(f, 10**17)
    with pytest.raises(RangeOverflowError):
        evaluate(Polynomial((0, 1)), 2**63)  # argument beyond int64
    # largest scoped values still work
    assert evaluate(Polynomial((1, 0, 6)), 7_300_000_000) > 3 * 10**20


# ---------------------------------------------------------------------------
# build_system
# ---------------------------------------------------------------------------

def test_build_sophie_germain():
    s = build_system([parse_polynomial("n"), parse_polynomial("2*n+1")])
    assert s.m == 2
    assert s.n0 == 1
    assert s.product.coeffs == (0, 1, 2)
    assert s.irreducibility_evidence == ("certified", "certified")


def test_build_quadratic():
    s = build_system([parse_polynomial("6*n^2+1")])
    assert s.m == 1 and s.n0 == 0


def test_build_inadmissible_witness():
    with pytest.raises(InadmissibleSystemError) as exc:
        build_system([parse_polynomial("n"), parse_polynomial("n+1")])
    assert exc.value.witness == 2
    assert _inadmissibility_witness(parse_polynomial("n^2+n")) == 2


def test_build_inadmissible_by_content():
    # 3n+3 = 3(n+1) vanishes identically mod 3; witnessed by the content.
    with pytest.raises(InadmissibleSystemError) as exc:
        build_system([parse_polynomial("3*n+3")])
    assert exc.value.witness == 3


def test_build_duplicates_rejected():
    f = parse_polynomial("n")
    with pytest.raises(DuplicatePolynomialError):
        build_system([f, parse_polynomial("n")])


def test_build_reducible_rejected():
    with pytest.raises(IrreducibilityError):
        build_system([parse_polynomial("n^2-1")])
    with pytest.raises(IrreducibilityError):
        build_system([parse_polynomial("n^2+3*n")])  # divisible by n
    with pytest.raises(IrreducibilityError):
        build_system([parse_polynomial("2*n^2+3*n+1")])  # (2n+1)(n+1)


def _multiply(polys):
    """Product by schoolbook convolution, independent of build_system."""
    prod = [1]
    for f in polys:
        out = [0] * (len(prod) + f.degree)
        for i, a in enumerate(prod):
            for j, b in enumerate(f.coeffs):
                out[i + j] += a * b
        prod = out
    return Polynomial(tuple(prod))


def test_product_degree_additive():
    # an inadmissible draw's product is checked against the exception's
    # witness instead of a built system
    rng = random.Random(5)
    checked = inadmissible = 0
    for _ in range(50):
        polys = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            coeffs = tuple(rng.randint(-9, 9) for _ in range(d)) + \
                (rng.randint(1, 9),)
            polys.append(Polynomial(coeffs))
        product = _multiply(polys)
        try:
            s = build_system(polys)
        except InadmissibleSystemError as exc:
            assert exc.witness == _inadmissibility_witness(product)
            inadmissible += 1
        except (DuplicatePolynomialError, IrreducibilityError):
            continue
        else:
            assert s.product == product
        assert product.degree == sum(f.degree for f in polys)
        checked += 1
    assert (checked, inadmissible) == (37, 22)


def test_overflowing_product_rejected():
    big = Polynomial((1, 2**40))
    with pytest.raises(RangeOverflowError):
        build_system([big, Polynomial((3, 2**40 + 2))])


# ---------------------------------------------------------------------------
# admissibility: brute-force equivalence
# ---------------------------------------------------------------------------

def _admissible_brute_force(f: Polynomial) -> bool:
    p = 2
    while p <= f.degree:
        if all(p % q for q in range(2, p)):
            if all(_eval_exact(f.coeffs, n) % p == 0 for n in range(p)):
                return False
        p += 1
    content = 0
    for c in f.coeffs:
        content = math.gcd(content, c)
    return content == 1


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_admissibility_matches_brute_force():
    rng = random.Random(99)
    checked = 0
    while checked < 150:
        d = rng.randint(1, 4)
        coeffs = tuple(rng.randint(-6, 6) for _ in range(d)) + \
            (rng.randint(1, 6),)
        f = Polynomial(coeffs)
        try:
            build_system([f])
            admissible = True
        except InadmissibleSystemError:
            admissible = False
        except IrreducibilityError:
            continue
        assert admissible == _admissible_brute_force(f), f.coeffs
        checked += 1


# ---------------------------------------------------------------------------
# n0
# ---------------------------------------------------------------------------

def _check_n0_property(polys, n0):
    hits = any(evaluate(f, n0) <= 1 for f in polys)
    if not hits:
        # must be the clamp floor: every poly stays above 1 on the whole
        # scanned range, so nothing at or below n0 may dip either
        assert all(evaluate(f, n) > 1
                   for f in polys for n in range(n0, n0 + 50))
    for n in range(n0 + 1, n0 + 1001):
        for f in polys:
            assert evaluate(f, n) > 1, (f.coeffs, n)


@pytest.mark.parametrize("texts", [
    ["n", "2*n+1"],
    ["6*n^2+1"],
    ["n", "n+2"],
    ["n^2+1"],
])
def test_n0_defining_property(texts):
    s = build_system([parse_polynomial(t) for t in texts])
    _check_n0_property(s.polys, s.n0)


def test_n0_values():
    assert build_system([parse_polynomial("n"),
                         parse_polynomial("2*n+1")]).n0 == 1
    assert build_system([parse_polynomial("6*n^2+1")]).n0 == 0
    # n^2+1: value 1 at n = 0, 2 at 1, so n0 = 0
    assert build_system([parse_polynomial("n^2+1")]).n0 == 0
    # n^2 - 4n + 5 dips to 1 at n = 2
    assert build_system([parse_polynomial("n^2-4*n+5")]).n0 == 2
    # 25n^2 - 25n + 7 is >= 7 at every integer: clamp floor
    s = build_system([parse_polynomial("25*n^2-25*n+7")])
    assert s.n0 == -2
    _check_n0_property(s.polys, s.n0)
    # a near-double root far out: f = 1 at n = 1000 only
    s = build_system([parse_polynomial("(n-1000)^2*(n+1)+1")])
    assert s.n0 == 1000
    _check_n0_property(s.polys, s.n0)


def test_n0_random_systems():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        d = rng.randint(1, 3)
        coeffs = tuple(rng.randint(-30, 30) for _ in range(d)) + \
            (rng.randint(1, 30),)
        polys = [Polynomial(coeffs)]
        try:
            n0 = build_system(polys).n0
        except InadmissibleSystemError:
            n0 = _threshold_cutoff(polys, 1)  # what build_system would set
        except IrreducibilityError:
            continue
        _check_n0_property(polys, n0)
        checked += 1


def _random_split_polynomial(rng):
    """k * prod (n - r_i) + shift: repeated, near-repeated and shifted
    integer roots, degree 1-6."""
    coeffs = [1]
    for _ in range(rng.randint(1, 6)):
        r = rng.randint(-6, 6)
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    k = rng.randint(1, 3)
    coeffs = [k * c for c in coeffs]
    coeffs[0] += rng.randint(-4, 4)
    return Polynomial(tuple(coeffs))


def test_threshold_cutoff_matches_brute_force():
    rng = random.Random(31)
    for _ in range(200):
        f = _random_split_polynomial(rng)
        for t in range(-3, 11):
            shifted = list(f.coeffs)
            shifted[0] -= t
            bound = _cauchy_bound(shifted)
            hits = [n for n in range(-bound, bound + 1)
                    if _eval_exact(f.coeffs, n) <= t]
            expected = hits[-1] if hits else -bound
            assert _threshold_cutoff([f], t) == expected, (f.coeffs, t)


def test_exact_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    n = sympy.Symbol("n")
    rng = random.Random(32)
    for _ in range(150):
        f = _random_split_polynomial(rng)
        expr = sympy.Poly(list(reversed(f.coeffs)), n)
        lo = rng.randint(-8, 8)
        hi = lo + Fraction(rng.randint(0, 40), 8)
        assert count_roots_between(f.coeffs, lo, hi) == \
            expr.count_roots(lo, sympy.Rational(hi)) - \
            expr.count_roots(lo, lo), (f.coeffs, lo, hi)
        if f.degree < 2:
            continue
        linear = any(g.degree() == 1 for g, _ in expr.factor_list()[1])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                irreducibility_evidence(f)
            raised = False
        except IrreducibilityError:
            raised = True
        assert raised == linear, f.coeffs


def test_threshold_cutoff():
    sg = build_system([parse_polynomial("n"), parse_polynomial("2*n+1")])
    assert threshold_cutoff(sg, 10**5) == 10**5
    s6 = build_system([parse_polynomial("6*n^2+1")])
    assert threshold_cutoff(s6, 10**5) == 129  # 6*129^2+1 = 99847
    assert evaluate(s6.polys[0], 129) <= 10**5 < evaluate(s6.polys[0], 130)


# ---------------------------------------------------------------------------
# irreducibility evidence
# ---------------------------------------------------------------------------

def test_irreducibility_certified_cases():
    assert irreducibility_evidence(parse_polynomial("n")) == "certified"
    assert irreducibility_evidence(parse_polynomial("n^2+1")) == "certified"
    assert irreducibility_evidence(parse_polynomial("n^3+2")) == "certified"
    # degree 4, irreducible mod 3
    assert irreducibility_evidence(parse_polynomial("n^4+n+1")) == "certified"


def test_irreducibility_heuristic_warns():
    # n^4+1 is irreducible over the integers yet reducible modulo every
    # prime, so no certificate can exist; the verdict is heuristic.
    with pytest.warns(UserWarning):
        assert irreducibility_evidence(parse_polynomial("n^4+1")) == \
            "heuristic"
    # (n^2+1)(n^2+2): no rational root, not caught -> heuristic with warning
    with pytest.warns(UserWarning):
        assert irreducibility_evidence(parse_polynomial("n^4+3*n^2+2")) == \
            "heuristic"


def test_irreducibility_warning_names_the_caller():
    # the first frame outside the package, not a line of build_system
    for check in (lambda f: build_system([f]), irreducibility_evidence):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            check(parse_polynomial("n^4+1"))
        assert [w.filename for w in caught] == [__file__]


def test_irreducibility_rational_roots_fail_hard():
    for text in ["n^2-4", "n^3-n^2-4*n+4", "4*n^2-1", "n^5-32",
                 # root 1/a, a with far more than 20000 divisors
                 "(897612484786617600*n-1)*(n^2+1)"]:
        with pytest.raises(IrreducibilityError):
            irreducibility_evidence(parse_polynomial(text))


def test_gf_irreducibility_matches_sympy():
    # the distinct-degree chain over GF(p), which certifies degree >= 4 over
    # the integers
    sympy = pytest.importorskip("sympy")
    from batemanhorn import _gfpoly
    x = sympy.Symbol("x")
    rng = random.Random(33)
    for _ in range(400):
        p = rng.choice((2, 3, 5, 7, 13))
        d = rng.randint(1, 12)
        f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        expected = sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible
        assert _gfpoly.is_irreducible(f, p) == expected, (f, p)


@pytest.mark.parametrize("f,p,expected", [
    # g^2 h, g = x^2+x+1, h = x^3+x+1: no linear factor, so the chain's
    # second step g_2 = x^2+x+1 is the first to see the repeated factor
    ([1, 1, 1, 0, 1, 0, 0, 1], 2, False),
    ([1, 5, 10, 10, 5, 1], 5, False),   # (x+1)^5
    ([0, 0, 1], 7, False),              # x^2
    ([1, 1, 0, 0, 1], 2, True),         # x^4+x+1
])
def test_gf_irreducibility_repeated_factors(f, p, expected):
    from batemanhorn import _gfpoly
    assert _gfpoly.is_irreducible(f, p) == expected


def test_distinct_degree_matches_sympy():
    # the chain's nontrivial steps are sympy's distinct-degree factorization
    # of a monic squarefree f (sympy lists coefficients high to low)
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_ddf_zassenhaus, gf_sqf_p
    from batemanhorn import _gfpoly
    rng = random.Random(1981)
    cases = 0
    while cases < 500:
        p = rng.choice((3, 5, 7, 11, 13, 101, 4099, 65537))
        d = rng.randint(1, 12)
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if not gf_sqf_p(f[::-1], p, ZZ):
            continue
        cases += 1
        expected = [(k, [int(c) for c in g[::-1]])
                    for g, k in gf_ddf_zassenhaus(f[::-1], p, ZZ)]
        got = [(k, g) for k, g in _gfpoly.distinct_degree(f, p)
               if _gfpoly.degree(g) > 0]
        assert got == expected, (f, p)


def test_irreducibility_chain_stops_at_first_factor(monkeypatch):
    # x^64+x+7 has the root 1 mod 3, so the chain's first step decides and
    # no further power of x is taken; x^4+x+1, irreducible mod 2, takes
    # d/2 = 2 steps
    from batemanhorn import _gfpoly
    steps = []
    pow_mod = _gfpoly.pow_mod

    def spy(*args):
        steps.append(args)
        return pow_mod(*args)

    monkeypatch.setattr(_gfpoly, "pow_mod", spy)
    f = [7, 1] + [0] * 62 + [1]
    assert not _gfpoly.is_irreducible(f, 3)
    assert len(steps) == 1
    assert _gfpoly.is_irreducible([1, 1, 0, 0, 1], 2)
    assert len(steps) == 3


def test_irreducibility_certificate_is_sound():
    # certified implies one irreducible factor over the integers, and
    # IrreducibilityError implies a factor; heuristic is not checked.  Most
    # draws are products, many of them without a linear factor.
    sympy = pytest.importorskip("sympy")
    n = sympy.Symbol("n")
    rng = random.Random(4099)
    seen = collections.Counter()
    for _ in range(300):
        degrees = rng.choice(((4,), (5,), (6,), (8,), (1, 3), (2, 2),
                              (2, 3), (2, 4), (3, 3), (2, 6), (4, 4)))
        f = _multiply(Polynomial(tuple(rng.randint(-9, 9) for _ in range(d))
                                 + (rng.randint(1, 4),)) for d in degrees)
        _, parts = sympy.Poly(f.coeffs[::-1], n).factor_list()
        irreducible = len(parts) == 1 and parts[0][1] == 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                verdict = irreducibility_evidence(f)
        except IrreducibilityError:
            verdict = "error"
        if verdict == "certified":
            assert irreducible, f
        elif verdict == "error":
            assert not irreducible, f
        seen[verdict, irreducible] += 1
    assert min(seen["certified", True], seen["error", False],
               seen["heuristic", False]) >= 50, seen
