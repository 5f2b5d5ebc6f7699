"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

They check that corrupted results are counted as failures, that tracing
leaves the program's output unchanged and its counts repeatable, and that
BENCHMARK.json agrees with the metrics the code emits.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import client  # noqa: E402
import run  # noqa: E402
from spans import LAYER_METRICS, derived_metrics  # noqa: E402
from workloads import WORKLOADS, Command, check_reproduce  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def failures(command: Command, report: dict,
             reference: str | None = None) -> int:
    tally = run.Tally()
    tally.check(command, command.argv, report, reference)
    return tally.failed


def constant_command(name: str) -> Command:
    return next(c for c in WORKLOADS["constants"].commands
                if c.argv[2] == name)


# -- BENCHMARK.json and metric names -----------------------------------------

def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert spec["paths"] == ["perfbench"]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_metric_and_workload_names_use_allowed_characters():
    names = [*run.E2E_METRICS, *LAYER_METRICS, *WORKLOADS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in [*run.E2E_METRICS.values(), *LAYER_METRICS.values()]:
        assert UNIT.match(unit), unit


# -- output checks -----------------------------------------------------------

def test_reproduce_check_rejects_a_corrupted_count(monkeypatch):
    import batemanhorn.counting as counting

    command = Command(("reproduce", "1", "--cap", "1e4", "--workers", "1"),
                      check_reproduce)
    assert failures(command, client.run(list(command.argv), False)) == 0

    original = counting.count_series

    def off_by_one(*args, **kwargs):
        results = original(*args, **kwargs)
        last = results[-1]
        return results[:-1] + [dataclasses.replace(last,
                                                   count=last.count + 1)]

    monkeypatch.setattr(counting, "count_series", off_by_one)
    report = client.run(list(command.argv), False)
    assert report["rc"] == 1
    assert failures(command, report) == 1


def test_constant_check_rejects_a_corrupted_constant(monkeypatch):
    import batemanhorn.constants as constants

    command = constant_command("n")  # {n, 2n+1} against 2 * C2
    assert failures(command, client.run(list(command.argv), False)) == 0

    original = constants.bh_constant_naive

    def drifted(*args, **kwargs):
        r = original(*args, **kwargs)
        return dataclasses.replace(r, value=r.value * (1 + 1e-5))

    monkeypatch.setattr(constants, "bh_constant_naive", drifted)
    assert failures(command, client.run(list(command.argv), False)) == 1


def test_count_check_rejects_wrong_counts_and_certainty():
    (command,) = WORKLOADS["cubic-parallel"].commands
    good = ("| x       | count  |\n|---------|--------|\n"
            "| 1000000 | 33795  |\n| 4000000 | 122442 |\n"
            "certainty: probable\n")
    report = {"rc": 0, "stdout": good, "stderr": ""}
    assert failures(command, report) == 0
    for bad in (good.replace("122442", "122443"),
                good.replace("33795", "33796"),
                good.replace("probable", "deterministic")):
        assert failures(command, {**report, "stdout": bad}) == 1
    assert failures(command, {**report, "rc": 3}) == 1


def test_constant_checks_reject_other_values():
    for command in WORKLOADS["constants"].commands:
        out = "value,mode,truncation,error_estimate,l_value\n{},naive,1,0,\n"
        assert failures(command, {"rc": 0, "stdout": out.format(1.0),
                                  "stderr": ""}) == 1


def test_output_differing_from_the_reference_fails():
    command = Command(("x",), lambda rc, out: None)
    report = {"rc": 0, "stdout": "a\n", "stderr": ""}
    assert failures(command, report, "a\n") == 0
    assert failures(command, report, "b\n") == 1


# -- tracing -----------------------------------------------------------------

CHEAP = (
    ["reproduce", "1", "--cap", "1e6", "--workers", "1"],
    ["constant", "--poly", "6*n^2+1", "--truncate", "1e5", "--format", "csv"],
    ["count", "--poly", "n^3+2", "--x", "3e4", "--presieve", "1000",
     "--segment-size", "4096", "--workers", "2"],
)


@pytest.mark.parametrize("argv", CHEAP, ids=lambda a: a[0])
def test_traced_and_untraced_outputs_are_identical(argv):
    plain = client.run(argv, False)
    traced = client.run(argv, True)
    assert plain["rc"] == traced["rc"] == 0
    assert run.normalized(traced["stdout"]) == run.normalized(plain["stdout"])
    assert traced["spans"]["name"], "no spans recorded"


def test_traced_counts_repeat_exactly():
    argv = CHEAP[0]
    first = client.run(argv, True)["layers"]
    second = client.run(argv, True)["layers"]
    counts = [n for n, unit in LAYER_METRICS.items()
              if unit == "count" and n in first]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_layer_totals_are_consistent():
    layers = client.run(CHEAP[0], True)["layers"]
    # every value of {n, 2n+1} up to 1e6 is below B^2 = 1e10
    assert layers["primality.classify.sieve_proved"] == \
        layers["primality.classify.calls"] > 0
    assert layers["primality.classify.bpsw"] == 0
    assert 0 <= layers["counting.count_series.self_s"] <= \
        layers["counting.count_series.s"]
    assert layers["constants.primes"] == 78498  # primes below 1e6
    metrics = derived_metrics(layers, None, 2, 1.2, 1.0)
    assert list(metrics) == list(LAYER_METRICS)
    assert metrics["trace.overhead_frac"] == pytest.approx(0.2)
    assert metrics["primality.classify.prime_frac"] == 1.0


def test_pool_efficiency():
    serial = {"primality.classify.calls": 0, "primality.classify.primes": 0,
              "counting.count_series.s": 10.0}
    parallel = {"counting.count_series.s": 6.25}
    serial.update({n: 0 for n in LAYER_METRICS if n not in serial})
    metrics = derived_metrics(serial, parallel, 2, 1.0, 1.0)
    assert metrics["counting.pool_efficiency"] == pytest.approx(0.8)


def test_with_workers():
    assert run.with_workers(("count", "--workers", "2"), 1) == \
        ("count", "--workers", "1")
    assert run.with_workers(("constant",), 1) == ("constant",)
    assert run.with_workers(("count", "--workers", "2"), None) == \
        ("count", "--workers", "2")


# -- the benchmark without the program ---------------------------------------

def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sophie-germain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
