"""Run one batemanhorn CLI command in-process and report on it as JSON.

run.py starts this in a fresh interpreter for every command, with the
checkout's `src` on PYTHONPATH, as a user would start `batemanhorn`:

    python3 perfbench/client.py [--trace] -- ARGV...

It times cli.main(ARGV) from call to return with stdout and stderr
captured, and prints one JSON line: wall time, exit code, both outputs,
the process's peak RSS and the machine.  With --trace the call runs under a
spans.Tracer, and the line also holds the per-layer totals and the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
from time import perf_counter

import spans
from workloads import PRESIEVE_BOUND


def machine() -> dict:
    import numpy

    model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def run(argv: list[str], trace: bool) -> dict:
    from batemanhorn import cli

    tracer = spans.Tracer(PRESIEVE_BOUND) if trace else None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            tracer or contextlib.nullcontext():
        t = perf_counter()
        rc = cli.main(argv)
        wall = perf_counter() - t
    result = {"wall": wall, "rc": rc, "stdout": out.getvalue(),
              "stderr": err.getvalue(),
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "machine": machine()}
    if tracer is not None:
        result["layers"] = tracer.layer_totals()
        result["spans"] = tracer.spans()
        result["missing"] = tracer.missing
    return result


def main() -> int:
    args = sys.argv[1:]
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    if args[:1] != ["--"]:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(run(args[1:], trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
