"""Layer tracing from outside the package, and the per-layer metrics.

A traced pass replaces names in every package module's namespace with a
timing wrapper: every public function a module defines, and every package
function it imports from another module (count's ``_prime_unit_order``, for
example).  Calls between modules, and calls such as factorize -> is_prime
that go through a wrapped name, become spans.  A span is (name, start, end,
parent, op); spans stay in memory and are written out after the run.  A
layer's self time is its spans' duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "overpseudo"
LAYERS = ("arith", "order", "classify", "primover", "generate", "count",
          "witness", "cli")
BIG = 1 << 64  # is_prime is deterministic below, a probable-prime test above

# name, unit, better, the end-to-end metric it should move, on which workload
LAYER_METRICS = [
    ("count.self_s", "s", "lower", "run_s", "count"),
    ("count.calls", "count", "lower", "run_s", "count"),
    ("order.unit_order.calls", "count", "lower", "run_s, peak_rss_mb", "count"),
    ("order.unit_order.self_s", "s", "lower", "run_s, peak_rss_mb", "count"),
    ("order.coset_count.calls", "count", "lower", "op_p50_ms", "session"),
    ("order.coset_count.self_s", "s", "lower", "op_p50_ms", "session"),
    ("order.order_dividing.self_s", "s", "lower", "run_s", "orders"),
    ("order.self_s", "s", "lower", "run_s", "session"),
    ("arith.factorize.calls", "count", "lower", "run_s, op_p90_ms", "orders, session"),
    ("arith.factorize.self_s", "s", "lower", "run_s, op_p90_ms", "orders, session"),
    ("arith.factorize.incomplete", "count", "lower", "complete_frac", "orders"),
    ("arith.factorize.repeat_frac", "frac", "lower", "run_s", "orders, session"),
    ("arith.is_prime.calls", "count", "lower", "run_s, op_p90_ms", "orders"),
    ("arith.is_prime.small_s", "s", "lower", "run_s, op_p90_ms", "orders"),
    ("arith.is_prime.big_s", "s", "lower", "run_s, op_p90_ms", "orders"),
    ("arith.is_prime.repeat_frac", "frac", "lower", "run_s", "orders"),
    ("arith.self_s", "s", "lower", "run_s", "orders, session"),
    ("primover.primitive_part.calls", "count", "lower", "run_s", "orders"),
    ("primover.self_s", "s", "lower", "run_s", "orders"),
    ("generate.self_s", "s", "lower", "run_s", "orders"),
    ("classify.self_s", "s", "lower", "op_p50_ms", "session"),
    ("witness.self_s", "s", "lower", "op_p50_ms", "session"),
    ("witness.bases_checked", "count", "lower", "op_p50_ms", "session"),
    ("cli.self_s", "s", "lower", "run_s", "orders, count"),
    ("cli.out_bytes", "B", "lower", "run_s", "orders, count"),
    ("budget.units", "units", "lower", "complete_frac", "orders"),
    ("budget.units_per_s", "units/s", "higher", "complete_frac", "orders"),
    ("trace.overhead_s", "s", "lower", "run_s", "all"),
]

# Spans that keep their first argument (repeat_frac, the 2**64 split) or a
# note taken from their result.
_KEYED = {"arith.factorize", "arith.is_prime"}
_NOTES = {
    "arith.factorize": lambda res: not res.complete,
    "witness.least_witness": lambda res: res.bases_checked,
}


class Tracer:
    """Spans of one traced pass over a freshly imported package."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.budgets: list = []

    def install(self) -> None:
        """Wrap the functions of the package modules now in sys.modules."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        # the Budget of every operation, whether the CLI or the caller made it
        for module in (sys.modules[PACKAGE], sys.modules[PACKAGE + ".cli"]):
            module.Budget = self._budget_factory(module.Budget)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__ or ""
                if not (home == PACKAGE or home.startswith(PACKAGE + ".")):
                    continue
                if home != module.__name__ or not attr.startswith("_"):
                    span = f"{home.rsplit('.', 1)[-1]}.{obj.__name__}"
                    setattr(module, attr, self._wrap(span, obj))

    def _budget_factory(self, cls):
        def make(*args, **kwargs):
            budget = cls(*args, **kwargs)
            self.budgets.append(budget)
            return budget

        return make

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        keyed = name in _KEYED
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op,
                              args[0] if keyed and args else None,
                              note(result) if note and result is not None else None)

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of this pass, keyed like LAYER_METRICS."""
        child = defaultdict(float)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = defaultdict(int)
        layer_s = defaultdict(float)
        prime_s = {"small": 0.0, "big": 0.0}
        seen: dict[str, set] = defaultdict(set)
        repeats = defaultdict(int)
        incomplete = bases = 0
        for i, (name, t0, t1, _, op, key, note) in enumerate(self.spans):
            own = t1 - t0 - child[i]
            self_s[name] += own
            calls[name] += 1
            layer_s[name.split(".")[0]] += own
            if key is not None:
                if (op, key) in seen[name]:
                    repeats[name] += 1
                seen[name].add((op, key))
            if name == "arith.is_prime":
                prime_s["big" if key >= BIG else "small"] += own
            elif name == "arith.factorize":
                incomplete += bool(note)
            elif name == "witness.least_witness" and note is not None:
                bases += note
        out = {f"{layer}.self_s": layer_s[layer] for layer in LAYERS}
        out.update({
            "count.calls": sum(c for n, c in calls.items() if n.startswith("count.")),
            "order.unit_order.calls": calls["order._prime_unit_order"],
            "order.unit_order.self_s": self_s["order._prime_unit_order"],
            "order.coset_count.calls": calls["order.coset_count"],
            "order.coset_count.self_s": self_s["order.coset_count"],
            "order.order_dividing.self_s": self_s["order.order_dividing"],
            "arith.factorize.calls": calls["arith.factorize"],
            "arith.factorize.self_s": self_s["arith.factorize"],
            "arith.factorize.incomplete": incomplete,
            "arith.is_prime.calls": calls["arith.is_prime"],
            "arith.is_prime.small_s": prime_s["small"],
            "arith.is_prime.big_s": prime_s["big"],
            "primover.primitive_part.calls": calls["primover.primitive_part"],
            "witness.bases_checked": bases,
            "budget.units": sum(b.spent for b in self.budgets),
        })
        for name in _KEYED:
            metric = f"{name}.repeat_frac"
            out[metric] = repeats[name] / calls[name] if calls[name] else 0.0
        return out

    def dump(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times in seconds from origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, op, key, _ in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": t0 - origin, "end": t1 - origin,
                    "parent": parent, "op": op,
                    "arg_bits": None if key is None else key.bit_length(),
                }) + "\n")
