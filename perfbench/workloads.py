"""The benchmark's four workloads: CLI commands and their output checks.

Every input comes from the paper's reference tables or from the README, so
a workload is the same for every seed.  A check takes the command's exit
code and captured stdout and returns None when the output is right, or a
one-line reason when it is not.  Each reference names its source.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from typing import Callable, Optional

Check = Callable[[int, str], Optional[str]]

# tests/test_acceptance.py, TWIN_PRIME_C2; the {n, 2n+1} constant is 2 * C2.
TWIN_PRIME_C2 = 0.66016181584686957393

# The CLI's default pre-sieve bound B.  A survivor value below B^2 has no
# prime factor <= B, so the sieve has already proved it prime.
PRESIEVE_BOUND = 100_000


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    systems: tuple[tuple[str, ...], ...]  # polynomial texts built in set-up
    commands: tuple[Command, ...]

    @property
    def counts(self) -> bool:
        """True when some command runs the counting engine."""
        return any("--workers" in c.argv for c in self.commands)


def check_reproduce(rc: int, out: str) -> str | None:
    """`reproduce` verifies every cell itself: counts exactly, estimates
    within one unit after rounding."""
    if rc != 0:
        return f"exit code {rc}"
    if not re.search(r"^REPRODUCE: PASS \(", out, re.M):
        return "no 'REPRODUCE: PASS' line"
    return None


def check_constant(reference: float, tolerance: float) -> Check:
    """Compare the `value` cell of `constant --format csv` output."""

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != 1 or "value" not in rows[0]:
            return "no single CSV row with a value column"
        value = float(rows[0]["value"])
        if not abs(value - reference) <= tolerance:
            return f"constant {value!r} is not within {tolerance} of {reference!r}"
        return None

    return check


def check_counts(expected: dict[int, int], certainty: str) -> Check:
    """Compare rows of `count` markdown output and its certainty note."""

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        got = {int(x): int(c) for x, c in
               re.findall(r"^\|\s*(\d+)\s*\|\s*(\d+)\s*\|$", out, re.M)}
        for x, want in expected.items():
            if got.get(x) != want:
                return f"count at x={x} is {got.get(x)}, expected {want}"
        if not re.search(rf"^certainty: {certainty}$", out, re.M):
            return f"certainty is not {certainty!r}"
        return None

    return check


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sophie-germain",
        why="reproduce table 1 to 1e7 serially: counting and classify "
            "dominate and every survivor is below B^2, so the sieve "
            "already proved it prime",
        systems=(("n", "2*n+1"),),
        commands=(Command(_argv("reproduce 1 --cap 1e7 --workers 1"),
                          check_reproduce),),
    ),
    Workload(
        name="quadratic-6n2",
        why="reproduce table 2 to 1e6 serially: Miller-Rabin on values up "
            "to 6e12, most of them above B^2, so the sieve proves few",
        systems=(("6*n^2+1",),),
        commands=(Command(_argv("reproduce 2 --cap 1e6 --workers 1"),
                          check_reproduce),),
    ),
    Workload(
        name="constants",
        why="four Euler products and no counting: naive and accelerated "
            "quadratics, a positive discriminant and the gcd root-count "
            "path of a cubic",
        systems=(("n", "2*n+1"), ("6*n^2+1",), ("n^2-2",), ("n^3+2",)),
        commands=(
            # 2 * C2, tests/test_acceptance.py criterion 6 and its tolerance.
            Command(("constant", "--poly", "n", "--poly", "2*n+1",
                     "--truncate", "1e7", "--accelerate", "naive",
                     "--format", "csv"),
                    check_constant(2 * TWIN_PRIME_C2, 1e-6)),
            # README: `constant --poly "6*n^2+1"` gives 2.139124879;
            # tolerance of tests/test_acceptance.py criterion 5.
            Command(("constant", "--poly", "6*n^2+1", "--truncate", "1e7",
                     "--format", "csv"),
                    check_constant(2.139124879, 5e-7)),
            # Value printed at commit 5a34817; its error_estimate there is
            # 1.37e-4.  perfbench/oracle.py puts the product at 1e8 within
            # 3.7e-5 of it.
            Command(("constant", "--poly", "n^2-2", "--truncate", "1e7",
                     "--accelerate", "naive", "--format", "csv"),
                    check_constant(1.8500111404279345, 1.4e-4)),
            # Value printed at commit 5a34817; its error_estimate there is
            # 1.12e-3.  perfbench/oracle.py puts the product at 1e8 within
            # 1.2e-4 of it.
            Command(("constant", "--poly", "n^3+2", "--truncate", "3e5",
                     "--accelerate", "naive", "--format", "csv"),
                    check_constant(1.298428317171479, 1.2e-3)),
        ),
    ),
    Workload(
        name="cubic-parallel",
        why="count n^3+2 to 4e6 on a 2-worker pool: degree-3 root table, "
            "values above 2^64 tested by Baillie-PSW",
        systems=(("n^3+2",),),
        # Expected counts: sympy.isprime brute force in perfbench/oracle.py.
        commands=(Command(_argv("count --poly n^3+2 --x 4e6 --workers 2"),
                          check_counts({10**6: 33795, 4 * 10**6: 122442},
                                       "probable")),),
    ),
)}
