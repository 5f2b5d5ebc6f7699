"""Byte-exact stdout of a few CLI commands.

A refactor that claims unchanged behaviour must leave these outputs equal
byte for byte.  The count and constant commands print exact integers, or
floats that come from IEEE arithmetic and correctly rounded int/int
division only (no libm call decides a printed digit), so the expected text
does not depend on the platform.  The reproduce, predict and table commands
print the paper's tables in markdown: exact counts, integrals rounded to
integers, relative errors to 4 decimals and constants to 10 digits
(reproduce's elapsed time is masked).  A libm last bit could move one of
those only if its value sat within about 1e-12 (relative) of a rounding
boundary.  The integral and relative-error cells, which go through libm
log, sit at least 1.6e-8 away (the original estimate 6163041.598 at 1e8);
the 10-digit constants, where the accelerated product's L-value takes one
libm pow, at least 2e-11 away (6.639546355356 for n^2+n+41).
"""

import re

import pytest

from batemanhorn.cli import main

SOPHIE_GERMAIN_CSV = (
    "x,count\n"
    "100,10\n"
    "1000,37\n"
    "10000,190\n"
    "100000,1171\n"
    "1000000,7746\n"
    "# certainty: deterministic\n")

GOLDEN = [
    (("count", "--poly", "n", "--poly", "2*n+1", "--x", "1e6",
      "--format", "csv", "--workers", "1"),
     SOPHIE_GERMAIN_CSV),
    # n_star = 1415, so the direct range [1, 1415] is two of the pool's
    # chunks; --workers comes first to give the case its own test id
    (("count", "--workers", "2", "--poly", "n", "--poly", "2*n+1",
      "--x", "1e6", "--segment-size", "1024", "--format", "csv"),
     SOPHIE_GERMAIN_CSV),
    (("count", "--poly", "6*n^2+1", "--x", "1e5",
      "--format", "csv", "--workers", "1"),
     "x,count\n"
     "100,27\n"
     "1000,155\n"
     "10000,1176\n"
     "100000,9445\n"
     "# certainty: deterministic\n"),
    (("count", "--poly", "n^3+2", "--x", "1e3",
      "--format", "csv", "--workers", "1"),
     "x,count\n"
     "100,10\n"
     "1000,74\n"
     "# certainty: deterministic\n"),
    # a low pre-sieve bound leaves 10,495 survivors for classify, spread
    # from below 2047 to [341550071728321, 2^64); --presieve comes first to
    # give the case its own test id
    (("count", "--presieve", "1000", "--poly", "n^3+2", "--x", "1e5",
      "--workers", "1", "--format", "csv"),
     "x,count\n"
     "100,10\n"
     "1000,74\n"
     "10000,520\n"
     "100000,4059\n"
     "# certainty: deterministic\n"),
    # degree 4: at the primes 3 < p <= 5000 of the pre-sieve the roots
    # come from g_1 = gcd(x^p - x, f), the GF(p) chain's first step
    (("count", "--poly", "n^4+n+1", "--x", "1e4", "--presieve", "5000",
      "--workers", "1", "--format", "csv"),
     "x,count\n"
     "100,21\n"
     "1000,110\n"
     "10000,750\n"
     "# certainty: deterministic\n"),
    (("constant", "--poly", "n", "--poly", "2*n+1", "--truncate", "1e6",
      "--accelerate", "naive", "--format", "csv"),
     "value,mode,truncation,error_estimate,l_value\n"
     "1.3203237211796763,naive,1000000,9.6975378416352953e-07,\n"),
    (("constant", "--poly", "n^2-2", "--truncate", "1e6",
      "--accelerate", "naive", "--format", "csv"),
     "value,mode,truncation,error_estimate,l_value\n"
     "1.8498740149704709,naive,1000000,0.0005012471502241489,\n"),
    (("constant", "--poly", "n^3+2", "--truncate", "1e4",
      "--accelerate", "naive", "--format", "csv"),
     "value,mode,truncation,error_estimate,l_value\n"
     "1.2965300987572597,naive,10000,0.0037755391920561987,\n"),
    # every omega(p) of a quartic takes the gcd path, and no prime
    # certifies n^4+1, so the verdict is heuristic (with a warning)
    (("constant", "--poly", "n^4+1", "--truncate", "1e4",
      "--format", "csv"),
     "value,mode,truncation,error_estimate,l_value\n"
     "2.6727043525502552,naive,10000,0.018901541961223955,\n"),
    # accelerated: the exceptional primes 2 and 3 enter the prefactor
    (("constant", "--poly", "6*n^2+1", "--truncate", "1e6",
      "--format", "csv"),
     "value,mode,truncation,error_estimate,l_value\n"
     "2.139124878721443,accelerated,1000000,4.7727389162883553e-09,"
     "1.2825498301618641\n"),
    # D = -171 is not fundamental, so the product is the direct one
    (("constant", "--poly", "5*n^2+7*n+11", "--truncate", "1e5",
      "--format", "csv"),
     "value,mode,truncation,error_estimate,l_value\n"
     "1.6744063347298408,naive,100000,0.00028287603750620782,\n"),
    # a product of degree 3 from three linear factors; --truncate comes
    # first to give the case its own test id
    (("constant", "--truncate", "1e4", "--poly", "n", "--poly", "n+2",
      "--poly", "n+6", "--format", "csv"),
     "value,mode,truncation,error_estimate,l_value\n"
     "2.858332775804147,naive,10000,0.0010064748169344995,\n"),
    # the constants workload's cubic: every omega(p) at 3 < p, which
    # divides no leading coefficient, is deg g_1 from numpy lanes;
    # --accelerate comes first to give the case its own test id
    (("constant", "--accelerate", "naive", "--poly", "n^3+2",
      "--truncate", "3e5", "--format", "csv"),
     "value,mode,truncation,error_estimate,l_value\n"
     "1.298428317171479,naive,300000,0.0011229455154080359,\n"),
    # a linear and a quadratic whose product has degree 3; --format comes
    # first to give the case its own test id
    (("constant", "--format", "csv", "--poly", "n", "--poly", "n^2+n+1",
      "--truncate", "1e5", "--accelerate", "naive"),
     "value,mode,truncation,error_estimate,l_value\n"
     "1.5212223341117423,naive,100000,0.001994754376836827,\n"),
    (("reproduce", "1", "--cap", "1e5", "--workers", "1"),
     "reproducing table 1: system {n, 2*n + 1}, constant 1.320323721 "
     "(naive)\n"
     "x=100: actual 10 ok, modified 10 ok, original 14 ok\n"
     "x=1000: actual 37 ok, modified 39 ok, original 46 ok\n"
     "x=10000: actual 190 ok, modified 195 ok, original 214 ok\n"
     "x=100000: actual 1171 ok, modified 1166 ok, original 1249 ok\n"
     "REPRODUCE: PASS (12/12 cells, <elapsed>)\n"),
    (("reproduce", "2", "--cap", "1e4", "--workers", "1"),
     "reproducing table 2: system {6*n^2 + 1}, constant 2.139124879 "
     "(accelerated)\n"
     "x=100: actual 27 ok, modified 25 ok, original 31 ok\n"
     "x=1000: actual 155 ok, modified 162 ok, original 189 ok\n"
     "x=10000: actual 1176 ok, modified 1195 ok, original 1332 ok\n"
     "REPRODUCE: PASS (9/9 cells, <elapsed>)\n"),
    (("predict", "--poly", "6*n^2+1", "--x", "1e8"),
     "| x         | modified | original |\n"
     "|-----------|----------|----------|\n"
     "| 100       | 25       | 31       |\n"
     "| 1000      | 162      | 189      |\n"
     "| 10000     | 1195     | 1332     |\n"
     "| 100000    | 9469     | 10299    |\n"
     "| 1000000   | 78514    | 84096    |\n"
     "| 10000000  | 670963   | 711171   |\n"
     "| 100000000 | 5859288  | 6163042  |\n"
     "constant 2.139124879 (accelerated, truncation 1000000, drift 4.8e-09)\n"
     "integral lower bounds: modified from n0+1 = 1, original from 2\n"),
    (("table", "--poly", "n", "--poly", "2*n+1", "--x", "1e5",
      "--workers", "1"),
     "| x      | actual | modified | original | rel_err_modified "
     "| rel_err_original |\n"
     "|--------|--------|----------|----------|------------------"
     "|------------------|\n"
     "| 100    | 10     | 10       | 14       | +0.0199          "
     "| +0.3535          |\n"
     "| 1000   | 37     | 39       | 46       | +0.0567          "
     "| +0.2377          |\n"
     "| 10000  | 190    | 195      | 214      | +0.0241          "
     "| +0.1274          |\n"
     "| 100000 | 1171   | 1166     | 1249     | -0.0043          "
     "| +0.0664          |\n"
     "constant 1.320323721 (naive, truncation 1000000, drift 9.7e-07)\n"
     "integral lower bounds: modified from n0+1 = 2, original from 2\n"
     "certainty: deterministic\n"),
    (("table", "--poly", "n^2+n+41", "--x", "1e4", "--workers", "1"),
     "| x     | actual | modified | original | rel_err_modified "
     "| rel_err_original |\n"
     "|-------|--------|----------|----------|------------------"
     "|------------------|\n"
     "| 100   | 86     | 92       | 97       | +0.0747          "
     "| +0.1226          |\n"
     "| 1000  | 581    | 582      | 586      | +0.0015          "
     "| +0.0089          |\n"
     "| 10000 | 4148   | 4129     | 4133     | -0.0046          "
     "| -0.0035          |\n"
     "constant 6.639546355 (accelerated, truncation 1000000, drift 3.1e-08)\n"
     "integral lower bounds: modified from 1 (n0+1 = -40 is below 1), "
     "original from 2\n"
     "certainty: deterministic\n"),
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=[" ".join(a[:3]) for a, _ in GOLDEN])
def test_stdout_is_byte_exact(capsys, argv, expected):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert re.sub(r", \d+\.\ds\)$", ", <elapsed>)", out,
                  flags=re.M) == expected
