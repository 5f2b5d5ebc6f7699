"""Spans and exact counters around the package's layers, recorded from outside.

`Tracer.install()` replaces selected functions of the batemanhorn modules
with wrappers, in every loaded batemanhorn module that holds a reference to
them, and `uninstall()` puts the originals back.  Spans live in memory as
columns (name, start, end, parent, busy, items); `spans()` returns them.

* A plain function gives one span per call; busy = end - start.
* A generator (`primes_up_to`) gives one span per generator object, from
  its first `next` to its exhaustion; busy is the time spent inside its
  `next` calls and items the number of values it yielded.  The consumer's
  own work between values is therefore not charged to the generator.
* Self time of a span is its busy time minus the busy time of its direct
  children.

Counters are exact integers, so they repeat bit for bit between runs of the
same code.  Functions listed in COUNTED are counted but get no span,
because timing each call would cost more than the call.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter

U64 = 1 << 64

SPANNED = {
    "poly": ("parse_polynomial", "build_system", "threshold_cutoff",
             "irreducibility_evidence"),
    "primality": ("classify", "factorize", "simple_sieve", "primes_up_to"),
    "modular": ("list_roots", "count_roots", "sqrt_mod"),
    "counting": ("count_series",),
    "constants": ("bh_constant_naive", "bh_constant_accelerated",
                  "l_value_negative_fundamental"),
    "quadrature": ("predict", "integrate_modified", "integrate_original"),
    "cli": ("main",),
}
# _process_chunk_state sieves and tests one segment of the counting engine.
COUNTED = {
    "modular": ("kronecker",),
    "counting": ("_process_chunk_state",),
}

# Per-layer metrics: name -> unit.  Every traced result reports all of them.
LAYER_METRICS = {
    "primality.classify.calls": "count",
    "primality.classify.s": "s",
    "primality.classify.prime_frac": "frac",
    "primality.classify.sieve_proved": "count",
    "primality.classify.bpsw": "count",
    "primality.primes_up_to.primes": "count",
    "primality.primes_up_to.s": "s",
    "modular.list_roots.calls": "count",
    "modular.list_roots.s": "s",
    "modular.list_roots.roots": "count",
    "modular.kronecker.calls": "count",
    "counting.count_series.s": "s",
    "counting.count_series.self_s": "s",
    "counting.segments": "count",
    "counting.pool_efficiency": "frac",
    "constants.bh_constant_naive.s": "s",
    "constants.bh_constant_accelerated.s": "s",
    "constants.primes": "count",
    "poly.build_system.s": "s",
    "poly.threshold_cutoff.s": "s",
    "quadrature.predict.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "frac",
}


class Tracer:
    def __init__(self, presieve_bound: int):
        self.sieve_square = presieve_bound * presieve_bound
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.parent = array("q")
        self.items = array("q")
        self.counters: Counter[str] = Counter()
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # Functions to wrap that the program no longer has; their metrics
        # read 0 until the tables above follow the program.
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, t: float) -> int:
        i = len(self.names)
        self.names.append(name)
        self.start.append(t)
        self.end.append(t)
        self.busy.append(0.0)
        self.parent.append(self._stack[-1])
        self.items.append(0)
        return i

    def _span(self, name, fn, observe):
        stack, open_ = self._stack, self._open

        def wrapper(*args, **kwargs):
            i = open_(name, perf_counter())
            stack.append(i)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                t = perf_counter()
                self.end[i] = t
                self.busy[i] = t - self.start[i]
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _generator_span(self, name, fn):
        stack, open_ = self._stack, self._open

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            i = open_(name, perf_counter())
            busy, items = 0.0, 0
            try:
                while True:
                    stack.append(i)
                    t = perf_counter()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - t
                        stack.pop()
                    items += 1
                    yield value
            finally:
                self.end[i] = perf_counter()
                self.busy[i] = busy
                self.items[i] = items

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_classify(self, args, result):
        v = int(args[0])
        c = self.counters
        c["primality.classify.primes"] += bool(result.prime)
        c["primality.classify.sieve_proved"] += v < self.sieve_square
        c["primality.classify.bpsw"] += v >= U64

    def _observe_list_roots(self, args, result):
        self.counters["modular.list_roots.roots"] += len(result.roots)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        observers = {"primality.classify": self._observe_classify,
                     "modular.list_roots": self._observe_list_roots}
        replace = {}
        for table, spanned in ((SPANNED, True), (COUNTED, False)):
            for mod_name, funcs in table.items():
                mod = importlib.import_module(f"batemanhorn.{mod_name}")
                for func in funcs:
                    fn = getattr(mod, func, None)
                    name = f"{mod_name}.{func}"
                    if fn is None:
                        self.missing.append(name)
                        continue
                    if not spanned:
                        replace[fn] = self._counted(name, fn)
                    elif inspect.isgeneratorfunction(fn):
                        replace[fn] = self._generator_span(name, fn)
                    else:
                        replace[fn] = self._span(name, fn,
                                                 observers.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "batemanhorn" and \
                    not mod_name.startswith("batemanhorn."):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in replace:
                    setattr(mod, attr, replace[value])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- analysis ----------------------------------------------------------

    def layer_totals(self) -> dict[str, float]:
        """Additive per-layer totals of this trace.

        Keys are the LAYER_METRICS that add up over commands, plus the
        number of prime verdicts; `derived_metrics` computes the ratios.
        Times are summed over outermost spans of each name, so a function
        that calls itself is not counted twice.
        """
        n = len(self.names)
        child_busy = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_busy[p] += self.busy[i]
        time_of: Counter[str] = Counter()
        self_of: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        items: Counter[str] = Counter()
        constant_primes = 0
        for i, name in enumerate(self.names):
            calls[name] += 1
            items[name] += self.items[i]
            self_of[name] += self.busy[i] - child_busy[i]
            ancestors = self._ancestor_names(i)
            if name not in ancestors:
                time_of[name] += self.busy[i]
            if name == "primality.primes_up_to" and \
                    ancestors & {"constants.bh_constant_naive",
                                 "constants.bh_constant_accelerated"}:
                constant_primes += self.items[i]
        c = self.counters
        return {
            "primality.classify.calls": calls["primality.classify"],
            "primality.classify.primes": c["primality.classify.primes"],
            "primality.classify.s": time_of["primality.classify"],
            "primality.classify.sieve_proved":
                c["primality.classify.sieve_proved"],
            "primality.classify.bpsw": c["primality.classify.bpsw"],
            "primality.primes_up_to.primes": items["primality.primes_up_to"],
            "primality.primes_up_to.s": time_of["primality.primes_up_to"],
            "modular.list_roots.calls": calls["modular.list_roots"],
            "modular.list_roots.s": time_of["modular.list_roots"],
            "modular.list_roots.roots": c["modular.list_roots.roots"],
            "modular.kronecker.calls": c["modular.kronecker"],
            "counting.count_series.s": time_of["counting.count_series"],
            "counting.count_series.self_s": self_of["counting.count_series"],
            "counting.segments": c["counting._process_chunk_state"],
            "constants.bh_constant_naive.s":
                time_of["constants.bh_constant_naive"],
            "constants.bh_constant_accelerated.s":
                time_of["constants.bh_constant_accelerated"],
            "constants.primes": constant_primes,
            "poly.build_system.s": time_of["poly.build_system"],
            "poly.threshold_cutoff.s": time_of["poly.threshold_cutoff"],
            "quadrature.predict.s": time_of["quadrature.predict"],
            "cli.main.self_s": self_of["cli.main"],
        }

    def _ancestor_names(self, i: int) -> set[str]:
        names = set()
        p = self.parent[i]
        while p >= 0:
            names.add(self.names[p])
            p = self.parent[p]
        return names

    def spans(self) -> dict:
        """The spans as columns, names interned into a table."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        return {"names": table,
                "name": [index[name] for name in self.names],
                "start": self.start.tolist(), "end": self.end.tolist(),
                "busy": self.busy.tolist(), "parent": self.parent.tolist(),
                "items": self.items.tolist(),
                "counters": dict(sorted(self.counters.items()))}


def derived_metrics(serial: dict, parallel: dict | None, nproc: int,
                    traced_wall: float, untraced_wall: float) -> dict:
    """Every LAYER_METRICS value from the summed totals of a traced run at
    1 worker and, when the workload counts, one at nproc workers.

    pool_efficiency is count time at 1 worker over nproc times the count
    time at nproc workers; it is 0 when nothing was counted.
    overhead_frac compares traced and untraced runs of the same argv.
    """
    values = {name: serial[name] for name in LAYER_METRICS if name in serial}
    calls = serial["primality.classify.calls"]
    values["primality.classify.prime_frac"] = \
        serial["primality.classify.primes"] / calls if calls else 0.0
    count_s = serial["counting.count_series.s"]
    if parallel is not None and parallel["counting.count_series.s"] > 0:
        values["counting.pool_efficiency"] = \
            count_s / (nproc * parallel["counting.count_series.s"])
    else:
        values["counting.pool_efficiency"] = 1.0 if count_s else 0.0
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    for name, unit in LAYER_METRICS.items():
        if unit != "count":
            values[name] = float(values[name])
    return {name: values[name] for name in LAYER_METRICS}
