"""Byte-exact stdout of a few CLI commands.

A refactor that claims unchanged behaviour must leave these outputs equal
byte for byte.  Every command here prints exact integers, or floats that
come from IEEE arithmetic and correctly rounded int/int division only (no
libm call decides a printed digit), so the expected text does not depend on
the platform.
"""

import pytest

from batemanhorn.cli import main

GOLDEN = [
    (("count", "--poly", "n", "--poly", "2*n+1", "--x", "1e6",
      "--format", "csv", "--workers", "1"),
     "x,count\n"
     "100,10\n"
     "1000,37\n"
     "10000,190\n"
     "100000,1171\n"
     "1000000,7746\n"
     "# certainty: deterministic\n"),
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
]


@pytest.mark.parametrize("argv,expected", GOLDEN,
                         ids=[" ".join(a[:3]) for a, _ in GOLDEN])
def test_stdout_is_byte_exact(capsys, argv, expected):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == expected
