"""Independent reference values for the benchmark's output checks.

Nothing here imports batemanhorn.  Run once from the repository root:

    python3 perfbench/oracle.py

It prints two things:

* counts of n <= x with n^3 + 2 prime at x = 1e6 and 4e6, by brute force
  with ``sympy.isprime`` (the expected values of the cubic-parallel
  workload);
* the Bateman-Horn constants of {n^2 - 2} and {n^3 + 2} as direct Euler
  products over a numpy sieve, at truncations 1e7 and 1e8, with root counts
  from closed forms (quadratic reciprocity for 2, cubic residuosity of -2),
  to show how far the limit can sit from the 1e7 / 3e5 values the
  constants workload checks.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np


def primes_below(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)


def cubic_counts(checkpoints=(10**6, 4 * 10**6)) -> dict[int, int]:
    import sympy

    counts, running, stops = {}, 0, iter(checkpoints)
    stop = next(stops)
    for n in range(1, checkpoints[-1] + 1):
        running += sympy.isprime(n**3 + 2)
        if n == stop:
            counts[stop] = running
            stop = next(stops, None)
    return counts


def omega_n2_minus_2(p: np.ndarray) -> np.ndarray:
    # p = 2: n = 0 only.  Odd p: 1 + (2/p), and (2/p) = 1 iff p = +-1 mod 8.
    odd = np.where((p % 8 == 1) | (p % 8 == 7), 2, 0)
    return np.where(p == 2, 1, odd)


def omega_n3_plus_2(p: np.ndarray) -> np.ndarray:
    # p = 2, 3 and p = 2 mod 3: cubing permutes the residues, one root.
    # p = 1 mod 3: three roots if -2 is a cube, else none.
    out = np.ones(len(p), dtype=np.int64)
    for i in np.flatnonzero(p % 3 == 1):
        q = int(p[i])
        out[i] = 3 if pow(q - 2, (q - 1) // 3, q) == 1 else 0
    return out


def euler_product(primes: np.ndarray, omega: np.ndarray) -> float:
    pf = primes.astype(np.float64)
    terms = np.log1p(-omega / pf) - np.log1p(-1.0 / pf)
    return math.exp(math.fsum(terms))


def main() -> int:
    t0 = time.perf_counter()
    primes = primes_below(10**8)
    for name, omega_of in (("n^2-2", omega_n2_minus_2),
                           ("n^3+2", omega_n3_plus_2)):
        omega = omega_of(primes)
        for trunc in (3 * 10**5, 10**7, 10**8):
            k = int(np.searchsorted(primes, trunc, side="right"))
            print(f"C({name}) truncated at {trunc:.0e}: "
                  f"{euler_product(primes[:k], omega[:k]):.15f}")
    print(f"cubic counts: {cubic_counts()}")
    print(f"elapsed {time.perf_counter() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
