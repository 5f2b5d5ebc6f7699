import concurrent.futures
import math
import os
import random
from array import array

import numpy as np
import pytest

from batemanhorn import (
    DETERMINISTIC,
    PROBABLE,
    CountResult,
    DuplicatePolynomialError,
    EngineConfig,
    InadmissibleSystemError,
    IrreducibilityError,
    Polynomial,
    RangeOverflowError,
    build_system,
    count_series,
    evaluate,
    is_prime,
    list_roots,
    parse_polynomial,
    primes_up_to,
    threshold_cutoff,
)
from batemanhorn import counting, modular, primality

CORPUS = (("n", "2*n+1"), ("6*n^2+1",), ("n", "n+2"), ("n^2+1",),
          ("2*n^2+3",))


def system(*texts):
    return build_system([parse_polynomial(t) for t in texts])


def naive_count_series(s, checkpoints, isprime=is_prime):
    """Oracle: test every f_i(n) individually, no pre-sieve, no segments."""
    out, total, i = [], 0, 0
    for n in range(1, checkpoints[-1] + 1):
        if all((v := evaluate(f, n)) >= 2 and isprime(v) for f in s.polys):
            total += 1
        while i < len(checkpoints) and n == checkpoints[i]:
            out.append(total)
            i += 1
    return out


SERIAL = EngineConfig(workers=1)


def counts(s, checkpoints, config=SERIAL):
    return [r.count for r in count_series(s, checkpoints, config)]


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------

def test_sophie_germain_reference_counts():
    assert counts(system("n", "2*n+1"), [10**2, 10**3, 10**4, 10**5]) == \
        [10, 37, 190, 1171]


def test_sophie_germain_to_1e8():
    assert counts(system("n", "2*n+1"), [10**8]) == [423140]


def test_6n2_reference_counts():
    assert counts(system("6*n^2+1"), [10**2, 10**3, 10**4]) == \
        [27, 155, 1176]


def test_prime_counting_special_case():
    r = count_series(system("n"), [100], SERIAL)[0]
    assert r.count == 25
    assert r.certainty == DETERMINISTIC
    assert r.x == 100


def test_single_checkpoint_at_one():
    assert counts(system("n", "2*n+1"), [1]) == [0]   # f1(1) = 1, not prime
    assert counts(system("n^2+n+1"), [1]) == [1]      # f(1) = 3, prime


# ---------------------------------------------------------------------------
# oracle equivalence and invariances
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("texts", CORPUS)
def test_engine_matches_naive_oracle_to_1e4(texts):
    s = system(*texts)
    cps = [10, 100, 1000, 10**4]
    assert counts(s, cps) == naive_count_series(s, cps)


NON_MONIC_LEADS = (1, 2, 6, 12, 30, 60, 210, 720)


def random_admissible_system(rng):
    """An admissible system with leads from NON_MONIC_LEADS: about a third
    are lead*(n-k)^2*(n+c) + s, which dips to s at n = k; the rest are one
    or two polynomials of degree 1-5 with small lower coefficients."""
    while True:
        if rng.random() < 1 / 3:
            lead, k = rng.choice(NON_MONIC_LEADS), rng.randint(2, 1400)
            c, s = rng.randint(0, 20), rng.randint(1, 200)
            # (n-k)^2 (n+c) = n^3 + (c-2k) n^2 + (k^2-2kc) n + k^2 c
            cubic = (k * k * c, k * k - 2 * k * c, c - 2 * k, 1)
            polys = [Polynomial((lead * cubic[0] + s,
                                 *(lead * a for a in cubic[1:])))]
        else:
            polys = [Polynomial(tuple(rng.randint(-30, 30)
                                      for _ in range(rng.randint(1, 5)))
                                + (rng.choice(NON_MONIC_LEADS),))
                     for _ in range(rng.randint(1, 2))]
        try:
            return build_system(polys)
        except (InadmissibleSystemError, IrreducibilityError,
                DuplicatePolynomialError):
            continue


I64_NEAR_MAX = (2**63 - 1, 2**63 - 2)


def random_wide_coefficient_system(rng):
    """One polynomial of degree 4-6 with lead 1, 2 or 6 and one lower
    coefficient equal to +-(2^63 - 1) or +-(2^63 - 2); at n <= 1500 its
    values stay below 2^127."""
    while True:
        degree = rng.randint(4, 6)
        coeffs = [rng.randint(-30, 30) for _ in range(degree)]
        coeffs[rng.randrange(degree)] = (rng.choice((1, -1))
                                         * rng.choice(I64_NEAR_MAX))
        try:
            return build_system([Polynomial((*coeffs, rng.choice((1, 2, 6))))])
        except (InadmissibleSystemError, IrreducibilityError):
            continue


def test_engine_matches_sympy_oracle_on_random_non_monic_systems():
    sympy = pytest.importorskip("sympy")
    rng, wide_rng = random.Random(5), random.Random(11)
    systems = [random_admissible_system(rng) for _ in range(25)]
    systems += [random_wide_coefficient_system(wide_rng) for _ in range(8)]
    cps = [100, 700, 1500]
    # the last config splits both the direct and the sieved range into
    # several pool chunks
    configs = [EngineConfig(workers=1, segment_size=2**8, presieve_bound=b)
               for b in (0, 2, 97, 1009)]
    configs.append(EngineConfig(workers=2, segment_size=2**6,
                                presieve_bound=97))
    for s in systems:
        expected = naive_count_series(s, cps, sympy.isprime)
        for cfg in configs:
            assert counts(s, cps, cfg) == expected, (str(s), cfg)


def test_partition_and_presieve_invariance():
    s = system("n", "2*n+1")
    cps = [10**3, 10**4]
    reference = counts(s, cps)
    for segment_size in (2**10, 2**16, 2**20):
        for presieve in (0, 10**3, 10**5):
            cfg = EngineConfig(workers=1, segment_size=segment_size,
                               presieve_bound=presieve)
            assert counts(s, cps, cfg) == reference, (segment_size, presieve)


@pytest.mark.parametrize("texts,x,expected", [
    (("n", "2*n+1"), 10**6, 7746),
    (("6*n^2+1",), 10**5, 9445),
    # dips to the prime 97 at n = 2000, past the old scan's reach
    (("(n-2000)^2*(n+2)+97",), 2010, 47),
])
def test_presieve_bound_and_worker_invariance(monkeypatch, texts, x, expected):
    s = system(*texts)
    # Each segment size splits [1, x] into at least two chunks, so workers=2
    # runs a pool.  The dip input uses 2^3 so that the sieved range alone
    # is still two pool chunks: past n_star = 2000 only 2001..2010 are
    # sieved for every bound >= 97.
    segment = {10**6: 2**17, 10**5: 2**15, 2010: 2**3}[x]
    root = math.isqrt(max(evaluate(f, x) for f in s.polys))
    pools = []
    run_pool = counting._run_pool

    def spy(state, chunks, workers):
        pools.append(len(chunks))
        return run_pool(state, chunks, workers)

    monkeypatch.setattr(counting, "_run_pool", spy)
    # None is the automatic bound; 2^18 exceeds the segment length
    for presieve in (0, 2, 97, root, root + 1, 10**5, None, 2**18):
        for workers in (1, 2):
            cfg = EngineConfig(workers=workers, segment_size=segment,
                               presieve_bound=presieve)
            del pools[:]
            assert counts(s, [x], cfg) == [expected], (presieve, workers)
            assert len(pools) == (workers == 2), (presieve, workers)


def test_worker_invariance():
    s = system("6*n^2+1")
    cps = [10**3, 10**4]
    reference = counts(s, cps)
    for workers in (2, 4):
        cfg = EngineConfig(workers=workers, segment_size=2**10)
        assert counts(s, cps, cfg) == reference, workers


def test_pool_never_exceeds_cpu_count(monkeypatch):
    asked = []

    class InProcessPool:
        """Records max_workers and maps in this process; starts nothing."""

        def __init__(self, max_workers, initializer, initargs):
            asked.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    monkeypatch.setattr(counting, "_POOL_STATE", None)
    cfg = EngineConfig(workers=10**6, segment_size=16)
    assert counts(system("n", "2*n+1"), [10**4], cfg) == [190]
    assert asked == [min(os.cpu_count() or 1, 10**4 // 16)]


def test_monotonicity_in_x():
    s = system("n", "n+2")
    cps = [10**k for k in range(1, 5)]
    result = counts(s, cps)
    assert all(a <= b for a, b in zip(result, result[1:]))
    assert all(r <= c for r, c in zip(result, cps))


def test_series_matches_individual_counts():
    s = system("2*n^2+3")
    cps = [50, 500, 5000]
    series = counts(s, cps)
    singles = [count_series(s, [c], SERIAL)[0].count for c in cps]
    assert series == singles


# ---------------------------------------------------------------------------
# pre-sieve soundness
# ---------------------------------------------------------------------------

def test_presieve_rejections_are_composite():
    s = system("n", "2*n+1")
    presieve_bound = 10**3
    x = 10**5
    # recompute the engine's rejection rule independently
    table = []
    for p in primes_up_to(presieve_bound):
        roots = set()
        for f in s.polys:
            roots.update(list_roots(f, p).roots)
        table.append((p, roots))
    n_star = 10**3  # f1(n) = n <= presieve bound up to here
    rejected = []
    rng = random.Random(13)
    for n in rng.sample(range(n_star + 1, x), 3 * 10**4):
        for p, roots in table:
            if n % p in roots:
                rejected.append((n, p))
                break
        if len(rejected) >= 10**4:
            break
    assert len(rejected) == 10**4
    for n, p in rejected:
        witnessed = False
        for f in s.polys:
            v = evaluate(f, n)
            if v % p == 0 and v != p:
                witnessed = True
                assert not is_prime(v) or v == p
        assert witnessed, (n, p)


@pytest.mark.parametrize("segment_size", [4, 2**20])
def test_proof_bound_is_strict(segment_size):
    # B = 10: 121 = 11^2 survives the sieve, so only a real test rejects it
    cfg = EngineConfig(workers=1, presieve_bound=10,
                       segment_size=segment_size)
    assert counts(system("n"), [5, 200], cfg) == [3, 46]


def test_classify_never_called_beyond_n_star(monkeypatch):
    # Both paths are watched: classify one value at a time, _lane_bpsw an
    # int64 block of them.
    seen = []
    classify, lane_bpsw = primality.classify, primality._lane_bpsw

    def counting_classify(v):
        seen.append(int(v))
        return classify(v)

    def counting_lane_bpsw(v):
        seen.extend(v.tolist())
        return lane_bpsw(v)

    monkeypatch.setattr(primality, "classify", counting_classify)
    monkeypatch.setattr(primality, "_lane_bpsw", counting_lane_bpsw)
    # The default bound is the full isqrt(max f(x)) + 1 for both systems,
    # so the sieve proves every value past n_star.
    for texts, x, expected in ((("n", "2*n+1"), 10**6, 7746),
                               (("6*n^2+1",), 10**5, 9445)):
        s = system(*texts)
        top = max(evaluate(f, x) for f in s.polys)
        n_star = threshold_cutoff(s, math.isqrt(top) + 1)
        seen.clear()
        assert counts(s, [x]) == [expected]
        assert seen  # the direct range [1, n_star] gets verdicts
        assert max(seen) <= max(evaluate(f, n_star) for f in s.polys)


@pytest.mark.parametrize("length", [4, 2**10, 2**17, 2**20])
def test_scatter_marking_matches_slices(length):
    rng = random.Random(length)
    primes = list(primes_up_to(3 * length + 100))
    picked = sorted(rng.sample(primes, min(300, len(primes))))
    table = [(p, r) for p in picked
             for r in sorted(rng.sample(range(p), min(p, rng.randint(1, 3))))]
    p = np.array([e[0] for e in table], dtype=np.int32)
    r = np.array([e[1] for e in table], dtype=np.int32)
    # lo below every p, inside the range of p, and above every p
    for lo in (1, length + 1, 2 * length + 7, 10**9 + 7):
        reference = np.ones(length, dtype=bool)
        for q, root in table:
            reference[(root - lo) % q::q] = False
        # two pairs of arrays, as _root_table gives one per prime segment
        k = len(table) // 2
        got = counting._sieve_segment([(p[:k], r[:k]), (p[k:], r[k:])],
                                      lo, length)
        assert np.array_equal(got, reference), lo


class _TableBuilt(Exception):
    pass


@pytest.mark.parametrize("texts,x,bound", [
    (("6*n^2+1",), 10**5, math.isqrt(6 * 10**10 + 1) + 1),
    (("6*n^2+1",), 10**8, 2**25),   # the cap on the automatic bound
    (("n", "2*n+1"), 10**7, math.isqrt(2 * 10**7 + 1) + 1),
    (("n^3+2",), 3 * 10**5, 10**5),  # degree 3 keeps 1e5
])
def test_automatic_presieve_bound(monkeypatch, texts, x, bound):
    def spy(limit):
        raise _TableBuilt(limit)

    monkeypatch.setattr(primality, "_prime_segments", spy)
    with pytest.raises(_TableBuilt) as built:
        count_series(system(*texts), [x], SERIAL)
    assert built.value.args == (bound,)


# ---------------------------------------------------------------------------
# survivor triage at the int64 limit
# ---------------------------------------------------------------------------

def kernel_state(s, bound):
    """The state count_series hands the segment kernel for the bound B."""
    table = []
    if bound >= 2:
        table = modular._root_table(s.polys, primality._prime_segments(bound))
    return (tuple(f.coeffs for f in s.polys), table, bound,
            max(0, threshold_cutoff(s, bound)))


def brute_force_chunk(s, lo, hi):
    """Oracle: classify every value of every n in [lo, hi], no sieve.  The
    qualified n and the first of them that a probable verdict admitted."""
    qualified, probable = [], None
    for n in range(lo, hi + 1):
        verdicts = []
        for f in s.polys:
            v = evaluate(f, n)
            verdict = primality.classify(v) if v >= 2 else None
            if verdict is None or not verdict.prime:
                break
            verdicts.append(verdict)
        else:
            qualified.append(n)
            if probable is None and any(v.certainty == PROBABLE
                                        for v in verdicts):
                probable = n
    return qualified, probable


def kernel_chunk(state, lo, hi):
    qualified, probable = counting._process_chunk_state(state, (lo, hi))
    return list(qualified), probable


# (texts, last n with sum_i |c_i| n^i < 2^63 for every f_i, window width).
# Windows end at that n, straddle it, and start just past it.
INT64_EDGES = [
    # (2^21 - 1)^3 + 2 < 2^63 <= (2^21)^3 + 2
    (("n^3+2",), 2**21 - 1, 4096),
    # 2^50 * 90^2 + 1 < 2^63 < 2^50 * 91^2; the values pass 2^64 at n = 128,
    # so the window past the limit has probable primes
    (("2^50*n^2+1",), 90, 60),
    # the constant alone moves the limit from 3037000499 to 2^31 - 1
    (("n^2+4611686018427387905",), 2**31 - 1, 1024),
    # 3037000499^2 + 2 < 2^63 <= 3037000500^2 + 2
    (("n", "n^2-2"), 3037000499, 4096),
]


@pytest.mark.parametrize("texts,limit,width", INT64_EDGES)
def test_triage_matches_brute_force_at_the_int64_limit(texts, limit, width):
    s = system(*texts)
    state = kernel_state(s, 10**5)
    assert state[3] < limit - width
    for lo, hi in ((limit - width + 1, limit),
                   (limit - width // 2 + 1, limit + width // 2),
                   (limit + 1, limit + width)):
        got = kernel_chunk(state, lo, hi)
        assert got == brute_force_chunk(s, lo, hi), lo
    if texts == ("2^50*n^2+1",):
        # sympy.isprime: in 91..150 the values are prime at n = 103 and 123,
        # below 2^64, and at n = 145, 148 and 150 above it
        assert got == ([103, 123, 145, 148, 150], 145)


def triage_blocks(state, lo, hi):
    """The survivor blocks of the chunk [lo, hi] as the kernel cuts them."""
    table = state[1] if hi > state[3] else []
    alive = np.flatnonzero(counting._sieve_segment(table, lo, hi - lo + 1))
    return [alive[k:k + counting._TRIAGE_BLOCK] + lo
            for k in range(0, alive.size, counting._TRIAGE_BLOCK)]


LANE_LIMIT = primality.LANE_BPSW_LIMIT
# n^3 + 2 passes LANE_LIMIT = floor(2^64 / 3) past n = 1832031; 6n^2 + 1
# past n = 1012333499.
LANE_EDGES = [(("n^3+2",), 1832031), (("6*n^2+1",), 1012333499)]


@pytest.mark.skipif(LANE_LIMIT != 2**64 // 3,
                    reason="the edges are those of the x87 limit 2^64 // 3")
@pytest.mark.parametrize("texts,edge", LANE_EDGES)
def test_triage_matches_brute_force_at_the_lane_limit(monkeypatch, texts,
                                                      edge):
    # One survivor block straddles the limit and takes _admit; the blocks
    # wholly below it are tested in int64 lanes, never above it.
    s = system(*texts)
    f = s.polys[0]
    assert evaluate(f, edge) < LANE_LIMIT <= evaluate(f, edge + 1)
    state = kernel_state(s, 10**5)
    lo, hi = edge - 2**16 + 1, edge + 2**16
    blocks = triage_blocks(state, lo, hi)
    assert any(evaluate(f, int(b[0])) < LANE_LIMIT <= evaluate(f, int(b[-1]))
               for b in blocks)
    tested = []
    lane_bpsw = primality._lane_bpsw

    def spy(v):
        tested.extend(v.tolist())
        return lane_bpsw(v)

    monkeypatch.setattr(primality, "_lane_bpsw", spy)
    assert kernel_chunk(state, lo, hi) == brute_force_chunk(s, lo, hi)
    assert tested and max(tested) < LANE_LIMIT


def test_triage_matches_brute_force_across_the_cubic_int64_limit():
    # n^3 + 2 leaves int64 past n = 2^21 - 1; exactness is decided per
    # block, at the block's last n, and one block straddles that n
    s = system("n^3+2")
    state = kernel_state(s, 10**5)
    lo, hi = 2**21 - 3 * 2**15, 2**21 + 2**15
    blocks = triage_blocks(state, lo, hi)
    assert len(blocks) == 3 and blocks[1][0] < 2**21 <= blocks[1][-1]
    assert kernel_chunk(state, lo, hi) == brute_force_chunk(s, lo, hi)


def test_triage_of_values_below_minus_2_63_in_the_direct_range():
    # f = 2^35 n^2 - 2^55 n + 1 = 2^35 n (n - 2^20) + 1 falls below -2^63
    # and climbs to about 3.6e18 < LANE_LIMIT in one block of the direct
    # range: an object block, since sum_i |c_i| n^i passes 2^63, so _admit
    # decides it and no value is cast to int64.
    s = system("n", "2^35*n^2-2^55*n+1")
    f = s.polys[1]
    lo, hi = 2**20 - 300, 2**20 + 100
    values = [evaluate(f, n) for n in range(lo, hi + 1)]
    assert min(values) < -2**63 and max(values) < LANE_LIMIT
    state = (tuple(g.coeffs for g in s.polys), [], 0, 2**21)
    assert len(triage_blocks(state, lo, hi)) == 1
    assert kernel_chunk(state, lo, hi) == brute_force_chunk(s, lo, hi)


@pytest.mark.parametrize("texts,first", [
    (("n", "n^2-2"), [2, 3, 5]),
    (("n^2-2",), [2, 3, 5]),
    (("n-5",), [7, 8, 10]),
])
def test_triage_below_two_in_the_direct_range(texts, first):
    # At n = 1, n is 1 and n^2 - 2 is -1; at n = 5, n - 5 is 0.  With
    # B = 10^5 these n lie in the direct range, whose B = 0 proves nothing,
    # so only the values below 2 are decided without a test.
    s = system(*texts)
    state = kernel_state(s, 10**5)
    hi = min(state[3], 4096)
    got = kernel_chunk(state, 1, hi)
    assert got == brute_force_chunk(s, 1, hi)
    assert got[0][:3] == first


@pytest.mark.parametrize("texts,cps", [
    # 2^50 n^2 + 1 leaves int64 past n = 90 and passes 2^64 past n = 127
    (("2^50*n^2+1",), [90, 127, 4096]),
    # 2^40 n^2 + 1 leaves int64 past n = 2896 and passes 2^64 past n = 4096
    (("n", "2^40*n^2+1"), [2896, 2897, 8192]),
], ids=["2^50*n^2+1", "n,2^40*n^2+1"])
def test_invariance_across_the_int64_limit(texts, cps):
    # the chunks fall on both sides of the limit and the last counts are
    # probable
    s = system(*texts)
    expected = naive_count_series(s, cps)
    results = set()
    for segment in (16, 64, 2**20):
        for workers in (1, 2):
            cfg = EngineConfig(workers=workers, segment_size=segment,
                               presieve_bound=10**4)
            results.add(tuple((r.count, r.certainty)
                              for r in count_series(s, cps, cfg)))
    assert results == {tuple(zip(expected, (DETERMINISTIC, DETERMINISTIC,
                                            PROBABLE)))}


def test_kernel_raises_past_the_128_bit_range():
    # f = n^3 (n - 2^30)^2 + 1: f(2^30 + 1) = 2^90 + 1 passes count_series'
    # upfront check at x = 2^30 + 1, yet f(2^23) is about 2^129.  The window
    # lies in the direct range, so every value reaches _admit.
    f = (1, 0, 0, 2**60, -2**31, 1)
    window = (2**23, 2**23 + 15)
    with pytest.raises(RangeOverflowError, match="n=8388608"):
        counting._process_chunk_state(((f,), [], 0, 2**30), window)
    # g = n - (2^23 + 101) is below 2 on the window; placed first, it stops
    # _admit before f's value is checked
    g = (-(2**23 + 101), 1)
    assert counting._process_chunk_state(((g, f), [], 0, 2**30),
                                         window) == (array("q"), None)


def test_triage_matches_brute_force_on_random_systems():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def admissible_systems(draw):
        """One or two polynomials of degree 1-3 with leads up to 2^40 and
        lower coefficients up to 2^45 in size, so that both small and wide
        systems come up; inadmissible or reducible draws are rejected."""
        polys = []
        for _ in range(draw(st.integers(1, 2))):
            degree = draw(st.integers(1, 3))
            lower = draw(st.lists(st.integers(-2**45, 2**45), min_size=degree,
                                  max_size=degree))
            lead = draw(st.integers(1, 2**40))
            polys.append(Polynomial((*lower, lead)))
        try:
            return build_system(polys)
        except (InadmissibleSystemError, IrreducibilityError,
                DuplicatePolynomialError, RangeOverflowError):
            hypothesis.reject()

    def lane_limit(s):
        """The last n >= 0 with sum_i |c_i| n^i < 2^63 for every f_i."""
        def inside(n):
            return all(sum(abs(c) * n**i for i, c in enumerate(f.coeffs))
                       < 2**63 for f in s.polys)
        lo, hi = 0, 2**32
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if inside(mid) else (lo, mid - 1)
        return lo

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(admissible_systems(), st.integers(-300, 300),
                      st.integers(1, 400), st.integers(0, 2000))
    def check(s, offset, width, bound):
        state = kernel_state(s, bound)
        n_star = state[3]
        lo = max(1, lane_limit(s) + offset)
        hi = lo + width - 1
        if lo <= n_star:  # no chunk straddles n_star
            hi = min(hi, n_star)
        assert kernel_chunk(state, lo, hi) == brute_force_chunk(s, lo, hi)

    check()


# ---------------------------------------------------------------------------
# certainty and errors
# ---------------------------------------------------------------------------

def test_probable_certainty_propagates():
    # f(1) = 2^63 + 14 is even; f(2) = 2^64 + 13 is a probable prime, so
    # only the checkpoint that counts n = 2 is probable
    f = Polynomial((15, 2**63 - 1))
    cfg = EngineConfig(workers=1, presieve_bound=0)
    r1, r2 = count_series(build_system([f]), [1, 2], cfg)
    assert (r1.count, r1.certainty) == (0, DETERMINISTIC)
    assert (r2.count, r2.certainty) == (1, PROBABLE)
    # 5 * 2^62 + 39 is a probable prime, but n = 5 fails at n + 1 = 6
    s = build_system([Polynomial((39, 2**62)), Polynomial((1, 1))])
    r = count_series(s, [5], cfg)[0]
    assert (r.count, r.certainty) == (0, DETERMINISTIC)


def test_count_rejects_inadmissible():
    # no PolySystem is inadmissible, so the count never starts
    with pytest.raises(InadmissibleSystemError) as exc:
        count_series(system("n", "n+1"), [100], SERIAL)
    assert exc.value.witness == 2


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_count_range_overflow():
    f = Polynomial((1, 0, 0, 0, 2**62))  # (2^62) n^4
    s = build_system([f])
    with pytest.raises(RangeOverflowError):
        count_series(s, [10**17], SERIAL)


def test_checkpoint_validation():
    s = system("n")
    with pytest.raises(ValueError):
        count_series(s, [100, 100], SERIAL)
    with pytest.raises(ValueError):
        count_series(s, [0, 10], SERIAL)
    assert count_series(s, [], SERIAL) == []


def test_progress_hook_called():
    s = system("n", "2*n+1")
    seen = []
    count_series(s, [2000], EngineConfig(workers=1, segment_size=2**10,
                                         presieve_bound=100),
                 progress=lambda done, running: seen.append((done, running)))
    assert seen
    assert seen[-1][0] == 2000
    dones = [d for d, _ in seen]
    assert dones == sorted(dones)
    assert seen[-1][1] == count_series(s, [2000], SERIAL)[0].count
