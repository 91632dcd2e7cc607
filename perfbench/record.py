"""Record the reference answers that the benchmark's correctness gate uses.

Run from the root of the repository at the commit whose answers become the
reference:

    python3 perfbench/record.py [count] [orders] [session]

Each named part is recomputed and replaced in perfbench/reference.json; the
other parts are kept.  Recording takes about 7 minutes on a 2-core host,
most of it in ``orders``.

* count: Ov and by_order for every x of the jitter grid, derived from the
  member list at the top of the grid, with each member's order from sympy.
* orders: digests of every primover, table and generate result in the
  workload's domain at a budget twenty times the workload's, so that a later
  change that completes more of them is still checked; null where even that
  budget does not finish.
* session: the input pool (odd n of 20-80 bits, overpseudoprimes above
  2**64 built from primitive parts and Aurifeuillian brackets, and x values)
  with the digest of every classify, least_witness and ov_count answer.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import sympy  # noqa: E402

import overpseudo  # noqa: E402
from overpseudo import cli  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE = HERE / "reference.json"
ORDERS_REFERENCE_BUDGET = 2_000_000
SPECIAL_POOL_BUDGET = 200_000
POOL_RANDOM, POOL_SPECIAL_EACH, POOL_X = 2000, 48, 200


def record_count() -> dict:
    out = {}
    for quick in (False, True):
        grid = wl.count_grid(quick)
        rec = overpseudo.ov_count(grid[-1],
                                  overpseudo.Budget(wl.SPEC["count"]["budget"]))
        order = {m: int(sympy.n_order(2, m)) for m in rec.members}
        for x in grid:
            members = [m for m in rec.members if m <= x]
            bound = float(x) ** 0.75
            result = {
                "x": x, "ov": len(members), "x_3_4": bound,
                "ratio": len(members) / bound,
                "by_order": sorted(map(list, Counter(order[m]
                                                     for m in members).items())),
            }
            out[f"count {x}"] = wl.digest(result)
    return out


def record_orders() -> dict:
    lo, end = wl.ORDER_STRATA[0], wl.ORDER_STRATA[1]
    klo, kend = wl.GENERATE_STRATA[0], wl.GENERATE_STRATA[1]
    labels = [f"{cmd} {n}" for n in range(lo, end) for cmd in ("primover", "table")]
    labels += [f"generate {k}" for k in range(klo, kend)]
    out = {}
    for label in labels:
        complete, result, _ = wl.reduce_outcome(
            label, wl.run_op(overpseudo, cli, label, ORDERS_REFERENCE_BUDGET))
        if complete:
            wl.independent_check(label, result)
        out[label] = wl.digest(result) if complete else None
    return out


def _special_pool(rng: random.Random) -> list[int]:
    """Overpseudoprimes p * q in (2**64, 2**96) with p < 2**32, checked by sympy."""
    budget = SPECIAL_POOL_BUDGET
    sources = {"primover": [], "aurifeuillian": []}
    for h in range(40, 201):
        part = overpseudo.primitive_part(h, overpseudo.Budget(budget))
        primes = [p for p, e in part.primitive_factors if e == 1]
        sources["primover"] += [(h, p, q) for i, p in enumerate(primes)
                                for q in primes[i + 1:]]
    for k in range(3, 61):
        try:
            trace = overpseudo.generate_trace(k, overpseudo.Budget(budget))
        except overpseudo.EffortError:
            continue
        sources["aurifeuillian"] += [(trace.pair.n, min(p, q), max(p, q))
                                     for p in trace.primitive_l
                                     for q in trace.primitive_m]
    pool = []
    for triples in sources.values():
        chosen = sorted({(h, p, q) for h, p, q in triples
                         if p < 2**32 and 2**64 < p * q < 2**96})
        for h, p, q in rng.sample(chosen, min(POOL_SPECIAL_EACH, len(chosen))):
            if not all(sympy.isprime(r) and wl.order_is(h, r) for r in (p, q)):
                raise SystemExit(f"{p} * {q} is not an overpseudoprime of order {h}")
            pool.append(p * q)
    return sorted(set(pool))


def record_session() -> dict:
    rng = random.Random("session pool")
    randoms = set()
    while len(randoms) < POOL_RANDOM:
        bits = rng.randint(20, 80)
        randoms.add(rng.getrandbits(bits) | (1 << (bits - 1)) | 1)
    pool = {
        "random": sorted(randoms),
        "special": _special_pool(rng),
        "x": sorted({int(10 ** rng.uniform(4, 7)) for _ in range(POOL_X)}),
    }
    pool["composite"] = [n for n in pool["random"] + pool["special"]
                         if not sympy.isprime(n)]
    composite = set(pool["composite"])
    labels = [f"classify {n}" for n in pool["random"] + pool["special"]]
    labels += [f"least_witness {n}" for n in sorted(composite)]
    labels += [f"ov_count {x}" for x in pool["x"]]
    out, slow = {"session_pool": pool}, []
    for label in labels:
        t = time.perf_counter()
        outcome = wl.run_op(overpseudo, cli, label, wl.SPEC["session"]["budget"])
        slow.append((time.perf_counter() - t, label))
        complete, result, _ = wl.reduce_outcome(label, outcome)
        if complete:
            wl.independent_check(label, result)
        out[label] = wl.digest(result) if complete else None
    slow.sort(reverse=True)
    print("session pool: total", round(sum(t for t, _ in slow), 2), "s; slowest",
          [(round(t, 3), label) for t, label in slow[:5]], file=sys.stderr)
    return out


# reference keys each part owns
_PREFIXES = {
    "count": ("count ",),
    "orders": ("primover ", "table ", "generate "),
    "session": ("session_pool", "classify ", "least_witness ", "ov_count "),
}


def main(argv: list[str]) -> int:
    parts = argv or ["count", "orders", "session"]
    recorders = {"count": record_count, "orders": record_orders,
                 "session": record_session}
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    for part in parts:
        t = time.perf_counter()
        fresh = recorders[part]()
        reference = {k: v for k, v in reference.items()
                     if not k.startswith(_PREFIXES[part])}
        reference.update(fresh)
        print(f"{part}: {len(fresh)} entries in {time.perf_counter() - t:.1f} s",
              file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, sort_keys=True, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
