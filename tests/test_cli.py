import os
import subprocess
import sys

import pytest

from batemanhorn import cli, counting
from batemanhorn.cli import main


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# constant
# ---------------------------------------------------------------------------

def test_constant_accelerated_auto(capsys):
    code, out, _ = run_main(capsys, "constant", "--poly", "6*n^2+1")
    assert code == 0
    assert "2.139124879" in out
    assert "mode = accelerated" in out
    assert "l_value = 1.282549830161864" in out


def test_constant_naive_sophie_germain(capsys):
    code, out, _ = run_main(capsys, "constant", "--poly", "n",
                            "--poly", "2*n+1")
    assert code == 0
    value = float(out.split("value = ")[1].split()[0])
    assert value == pytest.approx(2 * 0.66016181584686957393, abs=1e-6)
    assert "mode = naive" in out


def test_constant_auto_needs_discriminant_within_truncation(capsys):
    # the L-value sums |D| Kronecker terms, so auto accelerates only when
    # |D| <= P; D = -4000004 at P = 1e3 took seconds before this rule
    code, out, _ = run_main(capsys, "constant", "--poly", "n^2+1000001",
                            "--truncate", "1e3")
    assert code == 0 and "mode = naive" in out
    for truncation, mode in (("23", "naive"), ("24", "accelerated")):
        code, out, _ = run_main(capsys, "constant", "--poly", "6*n^2+1",
                                "--truncate", truncation)
        assert code == 0 and f"mode = {mode}" in out, truncation


def test_constant_csv_roundtrip(capsys):
    code, out, _ = run_main(capsys, "constant", "--poly", "6*n^2+1",
                            "--format", "csv")
    assert code == 0
    header, row = [line.split(",") for line in out.strip().splitlines()[:2]]
    record = dict(zip(header, row))
    assert record["mode"] == "accelerated"
    assert record["truncation"] == "1000000"
    from batemanhorn import bh_constant_accelerated, parse_polynomial
    expected = bh_constant_accelerated(parse_polynomial("6*n^2+1"), 10**6)
    assert float(record["value"]) == expected.value
    assert float(record["l_value"]) == expected.l_value


def test_constant_inadmissible_exit_2(capsys):
    code, _, err = run_main(capsys, "constant", "--poly", "n",
                            "--poly", "n+1")
    assert code == 2
    assert "2" in err  # names the witness prime


def test_constant_overflow_exit_3(capsys):
    code, _, err = run_main(capsys, "constant", "--poly",
                            "99999999999999999999*n")
    assert code == 3


def test_constant_force_modes(capsys):
    code, out, _ = run_main(capsys, "constant", "--poly", "6*n^2+1",
                            "--accelerate", "naive", "--truncate", "1e4")
    assert code == 0 and "mode = naive" in out
    code, _, err = run_main(capsys, "constant", "--poly", "n",
                            "--accelerate", "quadratic")
    assert code == 2


# ---------------------------------------------------------------------------
# count / predict / table
# ---------------------------------------------------------------------------

def test_count_command(capsys):
    code, out, _ = run_main(capsys, "count", "--poly", "n", "--poly", "2*n+1",
                            "--x", "1e3", "--workers", "1")
    assert code == 0
    assert "| 100" in out and "| 10" in out
    assert "| 1000" in out and "| 37" in out
    assert "certainty: deterministic" in out


def test_count_explicit_checkpoints_csv(capsys):
    code, out, _ = run_main(capsys, "count", "--poly", "6*n^2+1",
                            "--x", "1000", "--checkpoints", "1e2,1e3",
                            "--workers", "1", "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "x,count"
    assert lines[1] == "100,27"
    assert lines[2] == "1000,155"


def test_predict_command(capsys):
    code, out, _ = run_main(capsys, "predict", "--poly", "6*n^2+1",
                            "--x", "1e4")
    assert code == 0
    assert "| 25" in out and "| 162" in out and "| 1195" in out


def test_table_command_markdown(capsys):
    code, out, _ = run_main(capsys, "table", "--poly", "n", "--poly", "2*n+1",
                            "--x", "1e3", "--workers", "1")
    assert code == 0
    lines = out.splitlines()
    assert any(l.startswith("| x") for l in lines)
    body = [l for l in lines if l.startswith("| 1")]
    assert "| 100" in body[0] and "| 10" in body[0] and "| 14" in body[0]
    assert "| 1000" in body[1] and "| 37" in body[1] and "| 39" in body[1]
    assert any("integral lower bounds: modified from n0+1 = 2" in l
               for l in lines)
    assert any("certainty: deterministic" in l for l in lines)


def test_table_csv_roundtrip_bit_exact(capsys):
    code, out, _ = run_main(capsys, "table", "--poly", "6*n^2+1",
                            "--x", "1000", "--workers", "1", "--format",
                            "csv", "--truncate", "1e5")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    assert header == ["x", "actual", "modified", "original",
                      "rel_err_modified", "rel_err_original"]
    # recompute and compare bit-exactly through the decimal serialization
    from batemanhorn import (EngineConfig, bh_constant_accelerated,
                             build_system, count_series, parse_polynomial,
                             predict)
    s = build_system([parse_polynomial("6*n^2+1")])
    c = bh_constant_accelerated(s.polys[0], 10**5)
    cps = [100, 1000]
    actuals = count_series(s, cps, EngineConfig(workers=1))
    rows = predict(s, cps, c, actuals)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert int(cells[0]) == row.x
        assert int(cells[1]) == row.actual
        assert float(cells[2]) == row.modified
        assert float(cells[3]) == row.original
        assert float(cells[4]) == row.rel_err_modified
        assert float(cells[5]) == row.rel_err_original


def test_predict_csv_roundtrip_bit_exact(capsys):
    code, out, _ = run_main(capsys, "predict", "--poly", "6*n^2+1",
                            "--x", "1e4", "--format", "csv",
                            "--truncate", "1e5")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "x,modified,original"
    from batemanhorn import (bh_constant_accelerated, build_system,
                             parse_polynomial, predict)
    s = build_system([parse_polynomial("6*n^2+1")])
    c = bh_constant_accelerated(s.polys[0], 10**5)
    rows = predict(s, [100, 1000, 10000], c)
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        x, modified, original = line.split(",")
        assert int(x) == row.x
        assert float(modified) == row.modified
        assert float(original) == row.original


def test_tsv_header(capsys):
    code, out, _ = run_main(capsys, "count", "--poly", "n", "--x", "100",
                            "--workers", "1", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[:2] == ["x\tcount", "100\t25"]


def test_progress_reaches_100_percent(capsys):
    code, _, err = run_main(capsys, "count", "--poly", "n", "--x", "1000",
                            "--workers", "1", "--progress")
    assert code == 0
    assert "100.0%" in err


def test_workers_output_byte_identical(capsys):
    args = ["table", "--poly", "n", "--poly", "2*n+1", "--x", "1e4",
            "--segment-size", "1024"]
    code1, out1, _ = run_main(capsys, *args, "--workers", "1")
    code2, out2, _ = run_main(capsys, *args, "--workers", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_bh_workers_env(capsys, monkeypatch):
    monkeypatch.setenv("BH_WORKERS", "2")
    pools = []
    run_pool = counting._run_pool

    def spy(state, chunks, workers):
        pools.append((len(chunks), workers))
        return run_pool(state, chunks, workers)

    monkeypatch.setattr(counting, "_run_pool", spy)
    # the direct range [1, 11] (B = isqrt(100) + 1) is one chunk, and
    # 12..100 is sieved in six chunks of 16
    code, out, _ = run_main(capsys, "count", "--poly", "n", "--x", "100",
                            "--segment-size", "16")
    assert code == 0
    assert "| 25" in out
    assert pools == [(7, 2)]


@pytest.mark.parametrize("value", ["0", "-3", "abc", "1.5"])
def test_bad_bh_workers_exits_4(capsys, monkeypatch, value):
    # as --workers 0 does, and the message names the variable
    monkeypatch.setenv("BH_WORKERS", value)
    code, out, err = run_main(capsys, "count", "--poly", "n", "--x", "100")
    assert code == 4
    assert out == ""
    assert err == f"error: BH_WORKERS must be an integer >= 1, got {value!r}\n"
    assert run_main(capsys, "count", "--poly", "n", "--x", "100",
                    "--workers", "0")[0] == 4


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def test_reproduce_table_1(capsys):
    code, out, _ = run_main(capsys, "reproduce", "1", "--cap", "1e5",
                            "--workers", "1")
    assert code == 0
    assert "REPRODUCE: PASS (12/12 cells" in out


def test_reproduce_table_2(capsys):
    code, out, _ = run_main(capsys, "reproduce", "2", "--cap", "1e4",
                            "--workers", "1")
    assert code == 0
    assert "REPRODUCE: PASS (9/9 cells" in out


def test_reproduce_mismatch_exits_1(capsys, monkeypatch):
    sabotaged = (((10**2, 11, 10, 14),), )  # wrong actual count
    monkeypatch.setitem(cli._REPRODUCE, 1, (("n", "2*n+1"), sabotaged[0]))
    code, out, _ = run_main(capsys, "reproduce", "1", "--cap", "100",
                            "--workers", "1")
    assert code == 1
    assert "MISMATCH" in out
    assert "REPRODUCE: FAIL" in out


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

def test_usage_errors_exit_4(capsys):
    assert run_main(capsys, "table", "--poly", "n")[0] == 4   # missing --x
    assert run_main(capsys, "reproduce", "3")[0] == 4         # bad table id
    assert run_main(capsys, "nope")[0] == 4                   # bad command
    assert run_main(capsys)[0] == 4                           # no command
    assert run_main(capsys, "count", "--poly", "n", "--x", "1.5")[0] == 4
    for x in ("1e-3", "6/2", "inf", "1e999999999", "1e-999999999"):
        assert run_main(capsys, "count", "--poly", "n", "--x", x)[0] == 4, x
    assert run_main(capsys, "count", "--poly", "n", "--x", "100",
                    "--segment-size", "1000")[0] == 4
    assert run_main(capsys, "count", "--poly", "n", "--x", "100",
                    "--checkpoints", "1000,2000")[0] == 4
    assert run_main(capsys, "predict", "--poly", "n", "--x", "100",
                    "--checkpoints", "0,100")[0] == 4
    for tol in ("nan", "inf"):
        assert run_main(capsys, "predict", "--poly", "6*n^2+1", "--x", "100",
                        "--tol", tol)[0] == 4, tol
    # checked even when every x is at or below the integrals' lower bounds
    assert run_main(capsys, "predict", "--poly", "n", "--x", "1",
                    "--tol", "-1")[0] == 4
    assert run_main(capsys, "predict", "--poly", "n", "--poly", "2*n+1",
                    "--x", "1", "--tol", "nan")[0] == 4
    code, _, err = run_main(capsys, "reproduce", "1", "--cap", "10")
    assert code == 4 and "excludes every reference row" in err
    code, _, err = run_main(capsys, "constant", "--poly", "n",
                            "--truncate", "2e12")
    assert code == 4 and "exceeds the 2^40 guard" in err


def test_quadratic_acceleration_needs_one_polynomial(capsys):
    code, _, err = run_main(capsys, "constant", "--poly", "n",
                            "--poly", "2*n+1", "--accelerate", "quadratic")
    assert code == 2
    assert "needs a single polynomial" in err


@pytest.mark.parametrize("text,value", [
    ("1e6", 10**6),
    ("2.5e1", 25),
    ("9007199254740993e0", 9007199254740993),      # 2^53 + 1, odd
    ("123456789012345678.0", 123456789012345678),
    ("1.000000000000000001e18", 10**18 + 1),
])
def test_int_arg_is_exact(text, value):
    assert cli._int_arg(text) == value


def test_syntax_error_exit_2(capsys):
    code, _, err = run_main(capsys, "constant", "--poly", "2n")
    assert code == 2
    assert run_main(capsys, "constant", "--poly", "n^\u00b2")[0] == 2


def test_help_exits_0(capsys):
    assert run_main(capsys, "--help")[0] == 0
    code, out, _ = run_main(capsys, "table", "--help")
    assert code == 0
    assert "--checkpoints" in out


def test_module_entry_point_warning_names_main(src_env):
    # under python -m the first frame outside the package is runpy's
    # frozen bootstrap, which has no source line to show
    proc = subprocess.run(
        [sys.executable, "-W", "always", "-m", "batemanhorn", "constant",
         "--poly", "n^4+1", "--truncate", "100"],
        env=src_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "<frozen" not in proc.stderr
    path, line = proc.stderr.split(": UserWarning")[0].rsplit(":", 1)
    assert os.path.basename(path) == "__main__.py", proc.stderr
    assert os.path.isfile(path) and int(line) > 0


def test_module_entry_point(src_env):
    proc = subprocess.run(
        [sys.executable, "-m", "batemanhorn", "count", "--poly", "n",
         "--x", "30", "--workers", "1", "--format", "csv"],
        env=src_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "30,10" in proc.stdout
