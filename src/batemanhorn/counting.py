"""Exact counting of simultaneous prime values of a polynomial system.

The engine counts n in [1, x] with every f_i(n) prime.  One segment kernel
marks n = r (mod p) for every pre-sieve prime p <= B and every root r of
some f_i mod p.  Past n_star, the last n with some f_i(n) <= B, a mark means
p divides f_i(n) > p, hence composite.  An unmarked value has no prime factor
<= B (if f_i has no root mod p, p never divides f_i(n)), so 2 <= v < (B+1)^2
proves it prime; only larger survivors get a real primality test,
short-circuiting on the first composite.  The direct range [1, n_star] is
the first chunks of the same chunk list, run with no table and B = 0, so
every value there is tested.
Survivors are triaged 2^12 at a time, their values coming from one array
evaluation per f_i: in int64 lanes where Horner is exact for the block,
that is when sum_i |c_i| m^i < 2^63 for every f_i at the block's last n =
m, and past that limit in object arrays of Python ints.  Those with a value
below 2 fail, those with every value in [2, (B+1)^2) qualify, and only the
rest are tested.  An int64 block whose values all lie below
primality.LANE_BPSW_LIMIT (floor(2^64 / 3), about 6.1e18, with an x87
long double) is tested in numpy lanes by primality._lane_bpsw: f_1 on
every lane left, then f_2 on those that pass, and so on.  Any other block
goes one n at a time through _admit and classify, where the probable
verdicts and the 128-bit guard are.
B = min(presieve_bound, isqrt(max_i f_i(x)) + 1): a larger bound would mark
no composite value that a smaller prime misses.

The root table is a list of array pairs (p, r), one per segment of primes,
each sorted by p (modular._root_table).  In a segment of length L, a prime
below L / 64 strikes slices; the larger ones are cleared by one batched
scatter per block of table entries.

The automatic bound (presieve_bound None) follows what the table costs per
prime, which the degrees decide.  Measured on a 2-core Xeon, CPython 3.11,
numpy 2.4: degrees 1 and 2 are solved in numpy lanes at about 1.1 us a
prime, as (D|p) and small inverses are read from tables.  A cubic's table
costs about 10 us a prime (0.10 s for n^3+2 at B = 10^5), as g_1 =
gcd(x^p - x, f) and its split both run in lanes.  A Baillie-PSW test of a
prime value costs 4.6-7.4 us in blocks of 4096 lanes from 6e12 to 6.1e18,
against 28-72 us one at a time there and 55-65 us near 2^64, past the lanes.
So when every f_i has degree <= 2, B is capped only at 2^25: pi(2^25) =
2,063,689 primes cost about 2 s and 16 MB for one quadratic, and the cap
covers the full bound of `reproduce 2 --cap 1e7` (isqrt(6e14) + 1 =
24,494,898), which then runs no primality test past n_star.  Otherwise the
cap stays 1e5.  An explicit presieve_bound is an upper limit as before.

Chunks are independent work units, so every chunk, direct or sieved, can
run on a process pool; results merge by ordered integer sums and are
identical for any worker count, segment size, or pre-sieve bound.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import modular, primality
from .errors import RangeOverflowError
from .poly import (I64_MAX, I128_MAX, PolySystem, _eval_exact, evaluate,
                   threshold_cutoff)


@dataclass(frozen=True)
class CountResult:
    x: int
    count: int
    certainty: str


# The automatic pre-sieve limits; see the module docstring.
_AUTO_BOUND_LOW_DEGREE = 1 << 25
_AUTO_BOUND = 100_000
# Table entries scattered together; bounds the kernel's temporary arrays.
_SCATTER_BLOCK = 1 << 14
# Survivors evaluated together as arrays; likewise.  At 2^13 the
# 64 KB temporaries raised the peak RSS of `reproduce 2 --cap 1e6` by 1 MB.
_TRIAGE_BLOCK = 1 << 12


@dataclass(frozen=True)
class EngineConfig:
    # Upper limit on B, lowered by count_series; None: automatic.
    presieve_bound: int | None = None
    segment_size: int = 1 << 20
    workers: int | None = None  # None: BH_WORKERS env, then cpu count

    def __post_init__(self):
        s = self.segment_size
        if s < 2 or s & (s - 1):
            raise ValueError(f"segment size must be a power of two, got {s}")
        if self.presieve_bound is not None and self.presieve_bound < 0:
            raise ValueError("presieve bound must be >= 0")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")


def resolve_workers(config: EngineConfig) -> int:
    """config.workers, else a BH_WORKERS integer >= 1, else the cpu count;
    any other BH_WORKERS value raises ValueError."""
    if config.workers is not None:
        return config.workers
    env = os.environ.get("BH_WORKERS", "").strip()
    if not env:
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"BH_WORKERS must be an integer >= 1, got {env!r}")
    return workers


def count_series(system: PolySystem, checkpoints: Sequence[int],
                 config: EngineConfig | None = None,
                 progress: Callable[[int, int], None] | None = None
                 ) -> list[CountResult]:
    """One CountResult per checkpoint, all computed in a single sweep."""
    config = config or EngineConfig()
    checkpoints = _checked_checkpoints(checkpoints)
    if not checkpoints:
        return []
    x = checkpoints[-1]
    # evaluate also surfaces range overflow before any work happens
    top = max(evaluate(f, x) for f in system.polys)
    limit = config.presieve_bound
    if limit is None:
        low_degree = all(f.degree <= 2 for f in system.polys)
        limit = _AUTO_BOUND_LOW_DEGREE if low_degree else _AUTO_BOUND
    bound = min(limit, math.isqrt(max(0, top)) + 1)
    n_star = min(max(0, threshold_cutoff(system, bound)), x)
    table = []
    if x > n_star and bound >= 2:
        table = modular._root_table(system.polys,
                                    primality._prime_segments(bound))
    state = (tuple(f.coeffs for f in system.polys), table, bound, n_star)
    # No chunk straddles n_star, so the kernel can tell the ranges apart.
    chunks = [*_chunk_bounds(1, n_star, config.segment_size),
              *_chunk_bounds(n_star + 1, x, config.segment_size)]
    workers = resolve_workers(config)
    if workers > 1 and len(chunks) > 1:
        results = _run_pool(state, chunks, workers)
    else:
        results = (_process_chunk_state(state, bounds) for bounds in chunks)

    counts = [0] * len(checkpoints)
    certainty = [primality.DETERMINISTIC] * len(checkpoints)
    total = 0
    for (_, hi), (qualified, probable) in zip(chunks, results):
        for j, c in enumerate(checkpoints):
            counts[j] += bisect_right(qualified, c)
            if probable is not None and probable <= c:
                certainty[j] = primality.PROBABLE
        total += len(qualified)
        if progress is not None:
            progress(hi, total)
    return [CountResult(x=c, count=counts[j], certainty=certainty[j])
            for j, c in enumerate(checkpoints)]


def _checked_checkpoints(checkpoints: Sequence[int]) -> list[int]:
    """The checkpoints as ints, if they are strictly ascending and >= 1."""
    checkpoints = [int(c) for c in checkpoints]
    if any(a >= b for a, b in zip([0, *checkpoints], checkpoints)):
        raise ValueError("checkpoints must be ascending and >= 1")
    return checkpoints


# ---------------------------------------------------------------------------
# Segment kernel
# ---------------------------------------------------------------------------

def _chunk_bounds(start: int, stop: int,
                  size: int) -> Iterable[tuple[int, int]]:
    lo = start
    while lo <= stop:
        yield lo, min(lo + size - 1, stop)
        lo += size


def _process_chunk_state(state, bounds: tuple[int, int]
                         ) -> tuple[array, int | None]:
    """Sieve one segment [lo, hi] and test survivor values >= (B+1)^2.

    state is (coefficients, root table of every prime <= B, B, n_star).  A
    segment with hi <= n_star is not sieved and every value in it is tested.
    The survivors are triaged in blocks (module docstring), as int64 lanes
    when sum_i |c_i| m^i < 2^63 for every f_i at the block's last n = m and
    as Python ints otherwise.  Only the values >= (B+1)^2 are tested: in
    lanes by _lane_bpsw when the block is int64 and below its limit, else
    by _admit, one survivor at a time and in order.
    Returns the qualified n, ascending (8 bytes each in an int64 array,
    not a list of ints), and the first of them that a probable verdict
    admitted (None if none did).
    """
    coeffs_list, table, bound, n_star = state
    lo, hi = bounds
    if hi <= n_star:
        table, bound = [], 0
    proved = (bound + 1) ** 2
    alive = np.flatnonzero(_sieve_segment(table, lo, hi - lo + 1))
    abs_coeffs = [[abs(c) for c in coeffs] for coeffs in coeffs_list]
    qualified, probable = array("q"), None
    for k in range(0, alive.size, _TRIAGE_BLOCK):
        n = alive[k:k + _TRIAGE_BLOCK] + lo
        exact = all(_eval_exact(c, int(n[-1])) <= I64_MAX for c in abs_coeffs)
        m = n if exact else n.astype(object)
        values = np.array([_eval_exact(coeffs, m) for coeffs in coeffs_list])
        keep = (values >= 2).all(axis=0)
        if exact and values.max() < primality.LANE_BPSW_LIMIT:
            for row in values:
                lanes = np.flatnonzero(keep & (row >= proved))
                if lanes.size:
                    keep[lanes] = primality._lane_bpsw(row[lanes])
        else:
            for j in np.flatnonzero((values >= proved).any(axis=0)).tolist():
                keep[j], uncertain = _admit(n[j], values[:, j].tolist(),
                                            proved)
                if keep[j] and uncertain and probable is None:
                    probable = int(n[j])
        qualified.frombytes(n[keep].tobytes())
    return qualified, probable


def _admit(n: int, values: list[int],
           proved: int) -> tuple[bool, bool]:
    """(qualified, uncertain) for the survivor n, whose values are listed in
    the system's order: it fails at the first value < 2 or found composite,
    a value below proved needs no test, and uncertain says whether a
    probable verdict admitted it.  A value past the signed 128-bit range
    raises when the loop reaches it."""
    uncertain = False
    for v in values:
        if v > I128_MAX:
            raise RangeOverflowError(
                f"value at n={n} leaves the signed 128-bit range")
        if v < 2:
            return False, False
        if v < proved:
            continue
        verdict = primality.classify(v)
        if not verdict.prime:
            return False, False
        uncertain = uncertain or verdict.certainty == primality.PROBABLE
    return True, uncertain


def _sieve_segment(table: list[tuple[np.ndarray, np.ndarray]], lo: int,
                   length: int) -> np.ndarray:
    """alive[k] is False iff lo + k = r (mod p) for a root r mod p in table.

    A prime below length / 64 strikes its slices one root at a time.  Each
    larger one hits at most 64 times, so they are cleared together by
    scatter: next-hit offsets, advanced by p until they leave the segment.
    Nothing carries over between segments.
    """
    alive = np.ones(length, dtype=bool)
    for p, r in table:
        small = int(np.count_nonzero(p < length // 64))  # p is ascending
        for q, s in zip(p[:small].tolist(), r[:small].tolist()):
            alive[(s - lo) % q::q] = False
        for k in range(small, p.size, _SCATTER_BLOCK):
            step = p[k:k + _SCATTER_BLOCK].astype(np.int64)
            off = (r[k:k + _SCATTER_BLOCK] - np.int64(lo)) % step
            while off.size:
                inside = off < length
                off, step = off[inside], step[inside]
                alive[off] = False
                off += step
    return alive


# ---------------------------------------------------------------------------
# Process pool plumbing
# ---------------------------------------------------------------------------

_POOL_STATE = None


def _pool_init(state):
    global _POOL_STATE
    _POOL_STATE = state


def _pool_task(bounds):
    return _process_chunk_state(_POOL_STATE, bounds)


def _run_pool(state, chunks, workers: int):
    from concurrent.futures import ProcessPoolExecutor

    # Under fork every worker starts at the first submit, so never ask for
    # more than the machine has.
    processes = min(workers, len(chunks), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=processes,
                             initializer=_pool_init,
                             initargs=(state,)) as pool:
        yield from pool.map(_pool_task, chunks)
