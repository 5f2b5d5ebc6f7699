"""Command-line interface.

Commands: constant, count, predict, table, reproduce.  predict prints the
table columns without counting, so no actual, rel_err or certainty.  Exit
codes form a stable contract: 0 success, 1 reproduction mismatch, 2 invalid
or inadmissible polynomial system, 3 range overflow, 4 usage error.

The modified prediction integral runs from n0 + 1 (not n0): at n0 itself
some polynomial equals 1 and the integrand 1 / prod log f_i diverges.  It
never starts below 1, because counts cover only n >= 1.  Both bundled
reference tables are reproduced exactly under this bound; see the README for
the full discussion.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import constants, counting, quadrature
from .counting import EngineConfig
from .errors import (
    BatemanHornError,
    LimitTooLargeError,
    RangeOverflowError,
)
from .poly import PolySystem, build_system, parse_polynomial
from .primality import DETERMINISTIC
from .quadrature import round_half_away

# Reference comparison tables bundled for the reproduce command:
# (x, actual count, modified-model estimate, original-model estimate).
SOPHIE_GERMAIN_TABLE = (
    (10**2, 10, 10, 14),
    (10**3, 37, 39, 46),
    (10**4, 190, 195, 214),
    (10**5, 1171, 1166, 1249),
    (10**6, 7746, 7811, 8248),
    (10**7, 56032, 56128, 58754),
    (10**8, 423140, 423294, 440368),
    (10**9, 3308859, 3307888, 3425308),
    (10**10, 26569515, 26568824, 27411417),
)
QUADRATIC_6N2_TABLE = (
    (10**2, 27, 25, 31),
    (10**3, 155, 162, 189),
    (10**4, 1176, 1195, 1332),
    (10**5, 9445, 9469, 10299),
    (10**6, 78422, 78514, 84096),
    (10**7, 671361, 670963, 711171),
    (10**8, 5859476, 5859288, 6163042),
    (10**9, 52007341, 52009622, 54386431),
)
_REPRODUCE = {
    1: (("n", "2*n+1"), SOPHIE_GERMAIN_TABLE),
    2: (("6*n^2+1",), QUADRATIC_6N2_TABLE),
}

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INVALID_SYSTEM = 2
EXIT_OVERFLOW = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    """ArgumentParser with the documented usage-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_arg(text: str) -> int:
    """Integer CLI argument; scientific notation like 1e6 is accepted and
    read exactly, with no rounding through float."""
    exponent = text.lower().partition("e")[2].strip() or "0"
    try:
        # Fraction builds 10**exponent, so a huge exponent would stall;
        # like float, reject anything past 1e308.
        if "/" in text or abs(int(exponent)) > 308:
            raise ValueError(text)
        v = Fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if v.denominator != 1:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(v)


def _checkpoints_arg(text: str) -> list[int]:
    return [_int_arg(piece) for piece in text.split(",") if piece.strip()]


def _decades(x: int) -> list[int]:
    cps = []
    c = 100
    while c <= x:
        cps.append(c)
        c *= 10
    if not cps or cps[-1] != x:
        cps.append(x)
    return cps


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="batemanhorn",
        description="Constants, predictions and exact counts for "
                    "simultaneous prime values of integer polynomial "
                    "systems.",
        epilog="The modified prediction integral starts at max(n0 + 1, 1), "
               "avoiding the log f = 0 singularity at n0; the original-model "
               "integral starts at 2.")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    def add_polys(p):
        p.add_argument("--poly", action="append", required=True,
                       metavar="EXPR",
                       help="polynomial in n (repeatable), e.g. '2*n+1' or "
                            "a coefficient list '1,2'")

    def add_range_opts(p):
        p.add_argument("--x", type=_int_arg, required=True, metavar="X")
        p.add_argument("--checkpoints", type=_checkpoints_arg, default=None,
                       metavar="LIST", help="comma-separated checkpoint "
                       "list, none above x (default: decades up to x)")

    def add_constant_opts(p):
        p.add_argument("--truncate", type=_int_arg, default=10**6,
                       metavar="P", help="Euler product prime bound "
                       "(default 1e6)")
        p.add_argument("--accelerate", choices=("auto", "naive", "quadratic"),
                       default="auto",
                       help="product mode; auto uses the L-accelerated form "
                            "for a single quadratic with negative "
                            "fundamental discriminant D and |D| <= P; "
                            "quadratic forces it, and its L-value costs "
                            "O(|D|)")

    def add_engine_opts(p):
        p.add_argument("--presieve", type=_int_arg, default=None,
                       metavar="P0", help="upper limit on the pre-sieve prime "
                       "bound; the engine lowers it to isqrt(max f(x)) + 1 "
                       "(default: automatic, 2^25 when every degree is <= 2, "
                       "else 1e5; 0 disables)")
        p.add_argument("--segment-size", type=_int_arg, default=1 << 20,
                       metavar="S", help="sieve segment length, a power of "
                       "two (default 2^20)")
        p.add_argument("--workers", type=_int_arg, default=None,
                       metavar="N", help="worker processes (default: "
                       "BH_WORKERS or machine parallelism)")
        p.add_argument("--progress", action="store_true",
                       help="force the stderr progress line on")

    def add_format_opt(p):
        p.add_argument("--format", choices=("markdown", "csv", "tsv"),
                       default="markdown", dest="fmt")

    p = sub.add_parser("constant", help="compute the Euler product constant")
    add_polys(p)
    add_constant_opts(p)
    add_format_opt(p)
    p.set_defaults(func=cmd_constant)

    p = sub.add_parser("count", help="count simultaneous prime values")
    add_polys(p)
    add_range_opts(p)
    add_engine_opts(p)
    add_format_opt(p)
    p.set_defaults(func=cmd_count)

    for name, counts, help_text in (
            ("predict", False, "evaluate both prediction models"),
            ("table", True, "side-by-side actual counts and predictions")):
        p = sub.add_parser(name, help=help_text)
        add_polys(p)
        add_range_opts(p)
        p.add_argument("--tol", type=float, default=quadrature.DEFAULT_TOL)
        add_constant_opts(p)
        if counts:
            add_engine_opts(p)
        add_format_opt(p)
        p.set_defaults(func=cmd_table, counts=counts)

    p = sub.add_parser("reproduce",
                       help="re-run a bundled reference table and verify "
                            "every cell")
    p.add_argument("table_id", type=int, choices=(1, 2),
                   help="1: Sophie Germain {n, 2n+1}; 2: {6n^2+1}")
    p.add_argument("--cap", type=_int_arg, default=10**7,
                   help="largest x to recompute (default 1e7)")
    p.add_argument("--full", action="store_true", help="run every reference "
                   "row (about 1 min for table 1, 3.5 for table 2, 2 cores)")
    p.add_argument("--tol", type=float, default=quadrature.DEFAULT_TOL)
    add_engine_opts(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _system_from_args(args) -> PolySystem:
    return build_system([parse_polynomial(s) for s in args.poly])


def _constant_for(system: PolySystem, mode: str,
                  truncation: int) -> constants.EulerProductResult:
    if mode == "naive":
        return constants.bh_constant_naive(system, truncation)
    if mode == "quadratic":
        if system.m != 1:
            raise BatemanHornError(
                "quadratic acceleration needs a single polynomial")
        return constants.bh_constant_accelerated(system.polys[0], truncation)
    return constants.bh_constant(system, truncation)


def _engine_config(args) -> EngineConfig:
    return EngineConfig(presieve_bound=args.presieve,
                        segment_size=args.segment_size,
                        workers=args.workers)


def _progress_callback(args, x: int):
    if not (args.progress or sys.stderr.isatty()):
        return None

    def hook(done: int, running: int):
        pct = 100.0 * done / x
        print(f"\r  {pct:5.1f}%  n={done}  hits={running}   ",
              end="", file=sys.stderr, flush=True)
        if done >= x:
            print(file=sys.stderr)

    return hook


def _emit_rows(header: list[str], rows: list[list[str]], fmt: str,
               notes: list[str] = ()) -> None:
    if fmt in ("csv", "tsv"):
        sep = "," if fmt == "csv" else "\t"
        print(sep.join(header))
        for row in rows:
            print(sep.join(row))
        for note in notes:
            print(f"# {note}")
    else:
        widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
                  else len(header[i]) for i in range(len(header))]
        def line(cells):
            return "| " + " | ".join(c.ljust(w) for c, w in
                                     zip(cells, widths)) + " |"
        print(line(header))
        print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in rows:
            print(line(row))
        for note in notes:
            print(note)


def _real(v: float) -> str:
    return f"{v:.17g}"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_constant(args) -> int:
    system = _system_from_args(args)
    result = _constant_for(system, args.accelerate, args.truncate)
    if args.fmt in ("csv", "tsv"):
        header = ["value", "mode", "truncation", "error_estimate", "l_value"]
        row = [_real(result.value), result.mode, str(result.truncation),
               _real(result.error_estimate),
               _real(result.l_value) if result.l_value is not None else ""]
        _emit_rows(header, [row], args.fmt)
    else:
        print(f"system: {system}")
        print(f"value = {result.value:.10g}")
        print(f"mode = {result.mode}")
        print(f"truncation = {result.truncation}")
        print(f"error_estimate = {result.error_estimate:.3g} "
              f"(last-decade drift heuristic)")
        if result.l_value is not None:
            print(f"l_value = {result.l_value:.16g}")
    return EXIT_OK


def _checkpoints_from_args(args) -> list[int]:
    if args.checkpoints:
        cps = args.checkpoints
        if cps[-1] > args.x:
            raise ValueError(f"checkpoint {cps[-1]} exceeds --x {args.x}")
        return cps
    return _decades(args.x)


def cmd_count(args) -> int:
    system = _system_from_args(args)
    cps = _checkpoints_from_args(args)
    results = counting.count_series(system, cps, _engine_config(args),
                                    _progress_callback(args, cps[-1]))
    header = ["x", "count"]
    rows = [[str(r.x), str(r.count)] for r in results]
    notes = [f"certainty: {results[-1].certainty}"]
    _emit_rows(header, rows, args.fmt, notes)
    return EXIT_OK


def cmd_table(args) -> int:
    """The comparison table for both table and predict; only table counts,
    adding the actual and rel_err columns and the certainty note."""
    system = _system_from_args(args)
    cps = _checkpoints_from_args(args)
    c = _constant_for(system, args.accelerate, args.truncate)
    actuals = None
    if args.counts:
        actuals = counting.count_series(system, cps, _engine_config(args),
                                        _progress_callback(args, cps[-1]))
    rows = quadrature.predict(system, cps, c, actuals, args.tol)
    # Column names are the PredictionRow fields they show.
    header = ["x", "modified", "original"]
    if args.counts:
        header = ["x", "actual", "modified", "original", "rel_err_modified",
                  "rel_err_original"]

    def cell(name: str, v) -> str:
        if name in ("x", "actual"):
            return str(v)
        if args.fmt in ("csv", "tsv"):
            return _real(v)
        if name.startswith("rel_err"):
            return f"{v:+.4f}"
        return str(round_half_away(v))

    cells = [[cell(name, getattr(r, name)) for name in header] for r in rows]
    lower = quadrature.modified_lower_bound(system)
    modified_from = (f"n0+1 = {lower}" if lower == system.n0 + 1 else
                     f"{lower} (n0+1 = {system.n0 + 1} is below 1)")
    notes = [f"constant {c.value:.10g} ({c.mode}, truncation {c.truncation}, "
             f"drift {c.error_estimate:.2g})",
             f"integral lower bounds: modified from {modified_from}, "
             f"original from 2"]
    if actuals is not None:
        notes.append(f"certainty: {actuals[-1].certainty}")
    _emit_rows(header, cells, args.fmt, notes)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    poly_texts, reference = _REPRODUCE[args.table_id]
    max_x = reference[-1][0]
    cap = max_x if args.full else min(args.cap, max_x)
    if args.full:
        print("warning: --full recomputes every reference row, about 1 min "
              "(table 1) or 3.5 min (table 2) on 2 workers", file=sys.stderr)
    rows = [r for r in reference if r[0] <= cap]
    if not rows:
        raise ValueError(f"cap {cap} excludes every reference row")

    system = build_system([parse_polynomial(s) for s in poly_texts])
    c = constants.bh_constant(system, 10**6)
    if cap >= 10**9 and c.mode == constants.NAIVE:
        # The slowly convergent naive product is the estimate-column
        # bottleneck on the largest rows; a deeper truncation brings its
        # relative error below rounding scale there.
        c = constants.bh_constant(system, 10**8)
    cps = [r[0] for r in rows]
    t0 = time.perf_counter()
    actuals = counting.count_series(system, cps, _engine_config(args),
                                    _progress_callback(args, cps[-1]))
    predictions = quadrature.predict(system, cps, c, actuals, args.tol)

    print(f"reproducing table {args.table_id}: system {system}, "
          f"constant {c.value:.10g} ({c.mode})")
    failures = 0
    for (x, *wanted), count, pred in zip(rows, actuals, predictions):
        got = (count.count, round_half_away(pred.modified),
               round_half_away(pred.original))
        cells = []
        for name, g, want in zip(("actual", "modified", "original"), got,
                                 wanted):
            ok = g == want if name == "actual" else abs(g - want) <= 1
            failures += not ok
            cells.append(f"{name} {g}"
                         + (" ok" if ok else f" MISMATCH (expected {want})"))
        print(f"x={x}: " + ", ".join(cells))
    total = 3 * len(rows)
    elapsed = time.perf_counter() - t0
    if actuals[-1].certainty != DETERMINISTIC:
        print(f"note: some primality verdicts were "
              f"{actuals[-1].certainty}")
    if failures:
        print(f"REPRODUCE: FAIL ({total - failures}/{total} cells matched, "
              f"{elapsed:.1f}s)")
        return EXIT_MISMATCH
    print(f"REPRODUCE: PASS ({total}/{total} cells, {elapsed:.1f}s)")
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except RangeOverflowError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_OVERFLOW
    except (LimitTooLargeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BatemanHornError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID_SYSTEM


if __name__ == "__main__":
    sys.exit(main())
