"""Self-check of the benchmark itself, in about a minute.

    python3 perfbench/selfcheck.py

Runs a few operations of every workload (``--quick``), untraced and traced,
through the command BENCHMARK.json names, and checks that:

* the last line has exactly the keys correct, attempted, failed, metrics;
* every end-to-end or per-layer metric of BENCHMARK.json is printed with
  its unit, and nothing else;
* the correctness gate compared answers with the reference and ran the
  independent checks;
* BENCHMARK.json agrees with the workload and layer tables in the code;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits with a nonzero code and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402


def need(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selfcheck failed: {what}")


def run(bench: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = bench["command"] + ["--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    need([w["name"] for w in bench["workloads"]] == sorted(wl.SPEC),
         "workload names")
    need(all(w["why"] == wl.SPEC[w["name"]]["why"] for w in bench["workloads"]),
         "workload reasons differ from workloads.SPEC")
    need([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
         == [row[:3] for row in LAYER_METRICS], "per_layer differs from LAYER_METRICS")

    for workload in sorted(wl.SPEC):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(bench, ROOT, workload, trace)
            need(proc.returncode == 0, f"{workload} trace={trace}: exit "
                 f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            need(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                 "result keys")
            need(result["correct"] is True and result["attempted"] >= 1,
                 f"{workload}: not correct")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            need(got == want, f"{workload} trace={trace}: metrics {got} != {want}")
            need(all(isinstance(v["value"], (int, float))
                     for v in result["metrics"].values()), "metric values")
            gate = report["gate"]
            need(gate["reference"] + gate["unreferenced"] >= 1
                 and gate["independent"] >= 1, f"{workload}: gate did not run")
            print(f"ok {workload} trace={trace}: {len(got)} metrics, gate {gate}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bench, bare, "count", 0)
    shutil.rmtree(bare)
    need(proc.returncode != 0 and '"correct"' not in proc.stdout,
         "a directory without the package must fail without a result")
    print(f"ok bare directory: exit {proc.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
