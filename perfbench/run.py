"""Benchmark of the batemanhorn command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S     # every workload

With --trace 0 it measures the end-to-end metrics of one workload:

* setup_s: median over SETUP_REPEATS fresh interpreters of the time to
  import batemanhorn and build the workload's polynomial systems;
* wall_s: median, over the repetitions that fit into S seconds, of the
  summed wall time of the workload's CLI commands, argv to return.  Each
  command runs in a fresh interpreter (client.py), one after another;
* peak_rss_mb: median over the repetitions of the largest summed peak
  resident set of a command's client and its pool workers.

With --trace 1 it reports the per-layer metrics of spans.LAYER_METRICS from
traced clients and writes the spans to .perfbench-out/.

Every command's output is checked (see workloads.py).  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; the line before it
records the machine and the raw samples.  The seed selects nothing, because
the inputs are the paper's tables; it is only recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

from spans import LAYER_METRICS, derived_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 9  # after one unmeasured warm-up
RUN_LIMIT_S = 170.0  # a workload run is abandoned past this
SAMPLE_PERIOD_S = 0.05
OUT_DIR = ".perfbench-out"

E2E_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# reproduce prints its own elapsed time; that is not part of the output
# compared between runs.
_ELAPSED = re.compile(r", \d+(\.\d+)?s\)$", re.M)

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import batemanhorn
from batemanhorn import build_system, parse_polynomial
for texts in json.loads(sys.argv[1]):
    build_system([parse_polynomial(s) for s in texts])
elapsed = time.perf_counter() - t0
print(json.dumps([elapsed, batemanhorn.__file__]))
"""


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("BH_WORKERS", None)
    return env


def measure_setup(systems) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(systems)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=60)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up failed: {proc.stderr.strip()}")
        elapsed, module_file = json.loads(proc.stdout)
        if not Path(module_file).resolve().is_relative_to(ROOT / "src"):
            raise BenchmarkError(f"imported batemanhorn from {module_file}")
        times.append(elapsed)
    return times[1:]  # the first one may compile bytecode


def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        p = todo.pop()
        found.append(p)
        try:
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
        except OSError:
            continue  # the process ended while being read
    return found


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeSampler(threading.Thread):
    """Largest sum, over samples, of the peak RSS of a process and its
    descendants alive at that sample (shared pages count in each)."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self.stopped = threading.Event()

    def run(self):
        while not self.stopped.wait(SAMPLE_PERIOD_S):
            total = sum(_peak_rss_kb(p) for p in _descendants(self.pid))
            self.peak_kb = max(self.peak_kb, total)


def with_workers(argv, workers: int | None) -> tuple[str, ...]:
    """argv with its --workers value replaced; unchanged if it has none."""
    argv = list(argv)
    if workers is not None and "--workers" in argv:
        argv[argv.index("--workers") + 1] = str(workers)
    return tuple(argv)


def run_command(argv, trace: bool, deadline: float) -> tuple[dict, int]:
    """Run one command through perfbench/client.py in a fresh interpreter;
    (the client's report, peak RSS of its process tree in kB)."""
    cmd = [sys.executable, str(HERE / "client.py")]
    cmd += ["--trace", "--", *argv] if trace else ["--", *argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    sampler = TreeSampler(proc.pid)
    sampler.start()
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{' '.join(argv)} ran past the time limit")
    finally:
        sampler.stopped.set()
        sampler.join()
    if proc.returncode != 0:
        raise BenchmarkError(f"client exited with code {proc.returncode} "
                             f"on {' '.join(argv)}")
    report = json.loads(out)
    return report, max(sampler.peak_kb, report["maxrss_kb"])


class Tally:
    """Commands attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, command, argv, report: dict,
              reference: str | None = None) -> str:
        """Check a command's report; returns its normalized stdout."""
        out = normalized(report["stdout"])
        reason = command.check(report["rc"], report["stdout"])
        if reason is None and reference is not None and out != reference:
            reason = "output differs from the untraced run"
        if reason is not None and report["stderr"].strip():
            reason += f" (stderr: {report['stderr'].strip()[-300:]})"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{' '.join(argv)}: {reason}")
        return out


def normalized(out: str) -> str:
    """stdout without the elapsed time that `reproduce` prints."""
    return _ELAPSED.sub(", <elapsed>)", out)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def more(durations: list[float], t0: float, seconds: float) -> bool:
    """Whether another repetition fits into the run (there is always one)."""
    return not durations or \
        time.monotonic() - t0 + statistics.median(durations) <= seconds


def end_to_end(workload, seconds: float, seed: int, deadline: float):
    setup = measure_setup([list(s) for s in workload.systems])
    tally = Tally()
    walls, peaks, durations = [], [], []
    t0 = time.monotonic()
    while more(durations, t0, seconds):
        start = time.monotonic()
        wall = peak = 0
        for command in workload.commands:
            report, peak_kb = run_command(command.argv, False, deadline)
            tally.check(command, command.argv, report)
            wall += report["wall"]
            peak = max(peak, peak_kb)
        walls.append(wall)
        peaks.append(peak)
        durations.append(time.monotonic() - start)
    values = {"wall_s": statistics.median(walls),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": statistics.median(peaks) / 1024}
    metrics = {name: metric(values[name], unit)
               for name, unit in E2E_METRICS.items()}
    detail = {"machine": report["machine"], "walls_s": walls,
              "peak_rss_kb": peaks, "setup_runs_s": setup}
    return tally, metrics, detail


def traced(workload, seconds: float, seed: int, deadline: float):
    """Rounds of one untraced repetition, a traced one at 1 worker and,
    when the workload counts, a traced one at nproc workers."""
    nproc = os.cpu_count() or 1
    variants = [1]
    if workload.counts and nproc > 1:
        variants.append(nproc)
    given = [c.argv for c in workload.commands]
    as_given = next((w for w in variants
                     if all(with_workers(a, w) == a for a in given)), None)
    if as_given is None:
        variants.append(None)  # also trace the argv as given
    tally = Tally()
    rounds, durations, traces = [], [], []
    missing = set()
    t0 = time.monotonic()
    while more(durations, t0, seconds):
        start = time.monotonic()
        untraced_wall, reference = 0.0, []
        for command in workload.commands:
            report, _ = run_command(command.argv, False, deadline)
            reference.append(tally.check(command, command.argv, report))
            untraced_wall += report["wall"]
        totals, walls = {}, {}
        for workers in variants:
            totals[workers], walls[workers] = Counter(), 0.0
            for command, ref in zip(workload.commands, reference):
                argv = with_workers(command.argv, workers)
                report, _ = run_command(argv, True, deadline)
                tally.check(command, argv, report, ref)
                missing.update(report["missing"])
                totals[workers].update(report["layers"])
                walls[workers] += report["wall"]
                traces.append({"round": len(rounds), "argv": argv,
                               "spans": report["spans"]})
        parallel = totals.get(nproc) if nproc > 1 else None
        rounds.append(derived_metrics(totals[1], parallel, nproc,
                                      walls[as_given], untraced_wall))
        durations.append(time.monotonic() - start)
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        values = [r[name] for r in rounds]
        if unit == "count" and len(set(values)) != 1:
            tally.attempted += 1
            tally.failed += 1
            tally.reasons.append(f"count {name} differs between rounds: "
                                 f"{values}")
        metrics[name] = metric(values[0] if unit == "count"
                               else statistics.median(values), unit)
    for name in sorted(missing):
        print(f"perfbench: {name} not found; not traced", file=sys.stderr)
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload.name}-seed{seed}.json"
    with open(spans_file, "w") as fh:
        json.dump({"machine": report["machine"], "workload": workload.name,
                   "traces": traces}, fh)
    detail = {"machine": report["machine"], "rounds": len(rounds),
              "spans_file": str(spans_file.relative_to(ROOT))}
    return tally, metrics, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    measure = traced if trace else end_to_end
    tally, metrics, detail = measure(WORKLOADS[name], seconds, seed, deadline)
    print(json.dumps({"workload": name, "seed": seed, "trace": trace,
                      **detail}))
    for reason in tally.reasons:
        print(f"perfbench: FAILED {reason}", file=sys.stderr)
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "batemanhorn" / "__init__.py").is_file():
        print(f"perfbench: no batemanhorn sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace))
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
