"""Run one workload of the overpseudo benchmark and print its metrics.

    python3 perfbench/run.py --workload count|orders|session --seed N \
        --seconds S --trace 0|1 [--quick]

Run it from the root of a checkout; the package is imported from ``src/``
there, so a directory without it makes the run fail.  One single-threaded
process runs the workload's seeded input set in passes until the next pass
would end after ``--seconds`` (at least one pass).  Every pass starts from a
fresh import of the package, so no pass sees another's caches; the import
plus one fixed warm-up call is timed as a ``setup_s`` sample, several times
before the first pass.

Every answer goes through the correctness gate: a complete answer must match
the digest recorded in perfbench/reference.json, and cheap checks with code
outside the package run after the timed passes.  CLI exit 1 or 3, an
exception other than budget exhaustion, or a mismatch stops the run with
exit code 1.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate (at least one of each) and
the last line holds the per-layer metrics of layers.LAYER_METRICS, averaged
over the traced passes; the spans of the last traced pass are written to
``.bench_out/``.  The line before the last is a report with the run's
metadata, sample counts, the failing operations and the gate's tallies.
``--quick`` runs a few operations only, for perfbench/selfcheck.py.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from clock import Clock  # noqa: E402
from layers import LAYER_METRICS, Tracer  # noqa: E402

OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
# factors with trial division, so it builds the prime table every CLI call needs
WARMUP_N = 2**32 + 1

E2E_UNITS = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "complete_frac": "frac", "peak_rss_mb": "MB"}
# The last line carries these; op_p50_ms stays in the report because on
# orders the median falls between the cheap complete operations and the
# budget-bound failing ones, where it moves by 40 % from seed to seed.
GATED = ("setup_s", "run_s", "op_p90_ms", "complete_frac", "peak_rss_mb")


def fresh_package(clock: Clock):
    """Import the package from scratch and warm it up.

    Returns the package, its cli module and the measurement (seconds, start,
    end), which Clock.scaled turns into a setup_s sample once probes around
    it have run.
    """
    for name in [n for n in sys.modules
                 if n == "overpseudo" or n.startswith("overpseudo.")]:
        del sys.modules[name]
    gc.collect()

    def setup():
        pkg = importlib.import_module("overpseudo")
        cli = importlib.import_module("overpseudo.cli")
        pkg.factorize(WARMUP_N)
        return pkg, cli

    (pkg, cli), *measured = clock.measure(setup)
    return pkg, cli, measured


def run_pass(clock: Clock, pkg, cli, ops: list[str], budget: int,
             tracer: Tracer | None) -> dict:
    outcomes, raw = [], []
    gc.collect()
    start = perf_counter()
    for i, label in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        outcome, seconds, t0, t1 = clock.measure(wl.run_op, pkg, cli, label, budget)
        outcomes.append(outcome)
        raw.append((seconds, t0, t1))
    wall = perf_counter() - start
    latencies = [clock.scaled(*r) for r in raw]
    return {"seconds": sum(latencies), "wall": wall, "latencies": latencies,
            "outcomes": outcomes, "tracer": tracer}


def gate(p: dict, ops: list[str], reference: dict, first: dict | None,
         tally: dict) -> None:
    """Reduce a pass's outcomes and compare every complete answer."""
    p["reduced"] = []
    p["results"] = []
    for i, label in enumerate(ops):
        complete, result, out_bytes = wl.reduce_outcome(label, p["outcomes"][i])
        if label not in reference:
            raise wl.BenchError(f"{label}: no reference answer recorded")
        got = wl.digest(result) if complete else None
        if complete:
            want = reference[label]
            if want is None:
                tally["unreferenced"] += 1
            elif got != want:
                raise wl.BenchError(f"{label}: answer digest {got} != reference {want}")
            else:
                tally["reference"] += 1
        if first is not None and first["reduced"][i][:2] != (complete, got):
            raise wl.BenchError(f"{label}: answer differs between passes")
        p["reduced"].append((complete, got, out_bytes))
        if first is None:
            p["results"].append(result)
    del p["outcomes"]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata(args) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "overpseudo").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "quick": args.quick,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.SPEC))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "overpseudo" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(src))
    reference = json.loads((HERE / "reference.json").read_text())
    spec = wl.SPEC[args.workload]
    ops = wl.inputs(args.workload, args.seed, args.quick, reference["session_pool"])

    tally = {"reference": 0, "unreferenced": 0, "independent": 0}
    setup: list[tuple] = []
    passes: list[dict] = []
    try:
        with Clock() as clock:
            for _ in range(SETUP_REPEATS):
                pkg = cli = None  # free the last package's prime table first
                pkg, cli, measured = fresh_package(clock)
                setup.append(measured)
            if Path(pkg.__file__).resolve().parent != src / "overpseudo":
                raise wl.BenchError(f"imported {pkg.__file__}, not {src}")
            start = perf_counter()
            while True:
                if passes:
                    pkg = cli = None
                    pkg, cli, measured = fresh_package(clock)
                    setup.append(measured)
                tracer = None
                if args.trace and len(passes) % 2 == 1:
                    tracer = Tracer()
                    tracer.install()
                p = run_pass(clock, pkg, cli, ops, spec["budget"], tracer)
                gate(p, ops, reference, passes[0] if passes else None, tally)
                passes.append(p)
                if args.trace and len(passes) < 2:
                    continue
                if perf_counter() - start + p["wall"] > args.seconds:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for label, (complete, *_), result in zip(ops, passes[0]["reduced"],
                                                  passes[0]["results"]):
            if complete:
                wl.independent_check(label, result)
                tally["independent"] += 1
    except wl.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": len(ops), "failed": 0,
                          "metrics": {}}))
        return 1

    first = passes[0]["reduced"]
    failing = [label for label, (complete, *_) in zip(ops, first) if not complete]
    plain = [p for p in passes if p["tracer"] is None]
    traced = [p for p in passes if p["tracer"] is not None]
    latencies = [t for p in plain for t in p["latencies"]]
    run_s = statistics.median(p["seconds"] for p in plain)
    e2e = {
        "setup_s": statistics.median(clock.scaled(*m) for m in setup),
        "run_s": run_s,
        "op_p50_ms": 1e3 * percentile(latencies, 0.5),
        "op_p90_ms": 1e3 * percentile(latencies, 0.9),
        "complete_frac": 1 - len(failing) / len(ops),
        "peak_rss_mb": peak_rss_mb,
    }
    report = {
        "meta": metadata(args),
        "spec": spec,
        "samples": {"setup_s": len(setup), "run_s": len(plain),
                    "op_ms": len(latencies), "traced_passes": len(traced)},
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        "wall_s": statistics.median(p["wall"] for p in plain),
        "host_speed": statistics.fmean(clock.speeds),
        "failed_frac": len(failing) / len(ops),
        "failing_ops": failing,
        "gate": tally,
    }
    if args.trace:
        figures = [p["tracer"].metrics() for p in traced]
        layer = {k: statistics.fmean(f[k] for f in figures) for k in figures[0]}
        layer["cli.out_bytes"] = sum(r[2] for r in first)
        layer["budget.units_per_s"] = layer["budget.units"] / run_s
        layer["trace.overhead_s"] = (statistics.median(p["seconds"] for p in traced)
                                     - run_s)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        traced[-1]["tracer"].dump(spans, start)
        report["spans_file"] = str(spans.relative_to(ROOT))
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, *_ in LAYER_METRICS}
    else:
        metrics = {k: report["end_to_end"][k] for k in GATED}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": True, "attempted": len(ops),
                      "failed": len(failing), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
