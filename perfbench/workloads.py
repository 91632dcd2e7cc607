"""The three workloads: seeded inputs, the operations and their checks.

Every operation has a label such as ``primover 123`` or ``classify 2047``.
The label names the operation in the reference file, in the list of failing
operations and in the trace.  Results are reduced to plain JSON values whose
digest is compared with the recorded reference; ``effort_spent`` is left out
so that a change to budget accounting does not read as a wrong answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

# How each workload draws its inputs, its per-operation budget and why it is
# in the benchmark.  The reason sentences are repeated in BENCHMARK.json.
SPEC = {
    "count": {
        "inputs": "one `count x --format json` through cli.main, x = 1e10 + 1e6 * j "
                  "with j uniform in [-100, 100]",
        "budget": 200_000_000,
        "why": "Ov(x) near 1e10, where the progression scan in count takes "
               "almost all the time and a factor-first rewrite first pays off",
    },
    "orders": {
        "inputs": "`primover n` and `table n n` through cli.main for one window of "
                  "2 consecutive n in each stratum of 4 orders in [100, 399], and "
                  "`generate k` for one window of 3 consecutive k in each stratum "
                  "of 6 in [3, 60]",
        "budget": 100_000,
        "why": "building the paper's tables: budgeted factoring of 100-400-bit "
               "cyclotomic values in arith, with no work in count",
    },
    "session": {
        "inputs": "one caller of the library API: classify(n) on 1700 odd n of "
                  "20-80 bits and 48 overpseudoprimes above 2**64, "
                  "least_witness(n) on the composites, and ov_count(x) on 100 x "
                  "log-uniform in [1e4, 1e7], all drawn from the reference pool",
        "budget": 20_000_000,
        "why": "many mid-size factorizations, coset counts and witness scans, "
               "and ov_count only at small x",
    },
}

# A single window of orders would make the cost depend on where the seed
# puts it (an order near 400 costs about four times one near 100), so the
# seed places one short window in each stratum instead.
ORDER_STRATA = (100, 400, 4, 2)   # first n, end, stratum width, window
GENERATE_STRATA = (3, 61, 6, 3)   # first k, end, stratum width, window
COUNT_CENTER, COUNT_STEP, COUNT_JITTER = 10**10, 10**6, 100
QUICK_COUNT_CENTER, QUICK_COUNT_STEP = 10**7, 10**3
# Heavy factorizations are rare, so a small sample's cost moves with the
# seed; 1700 of the pool's 2000 n keep it within about 6 %.
SESSION_RANDOM, SESSION_SPECIAL, SESSION_COUNTS = 1700, 48, 100


def digest(result) -> str:
    """Digest of a result reduced to plain JSON values."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _windows(rng: random.Random, first: int, end: int, width: int,
             window: int) -> list[int]:
    out = []
    for lo in range(first, end, width):
        hi = min(lo + width, end)
        start = rng.randrange(lo, hi - window + 1)
        out.extend(range(start, start + window))
    return out


def count_grid(quick: bool) -> list[int]:
    """x values count runs on: 1e10 + 1e6 * j, j in [-100, 100] (1e7 + 1e3 * j quick)."""
    center, step = ((QUICK_COUNT_CENTER, QUICK_COUNT_STEP) if quick
                    else (COUNT_CENTER, COUNT_STEP))
    return [center + step * j for j in range(-COUNT_JITTER, COUNT_JITTER + 1)]


def inputs(name: str, seed: int, quick: bool, pool: dict) -> list[str]:
    """Operation labels of one workload for one seed, in execution order."""
    rng = random.Random(f"{name}:{seed}")
    if name == "count":
        return [f"count {rng.choice(count_grid(quick))}"]
    if name == "orders":
        ns = _windows(rng, *ORDER_STRATA)
        ks = _windows(rng, *GENERATE_STRATA)
        if quick:
            ns, ks = ns[:2], ks[:2]
        ops = [f"{cmd} {n}" for n in ns for cmd in ("primover", "table")]
        return ops + [f"generate {k}" for k in ks]
    if name == "session":
        sizes = (4, 1, 1) if quick else (SESSION_RANDOM, SESSION_SPECIAL,
                                         SESSION_COUNTS)
        ns = rng.sample(pool["random"], sizes[0]) + rng.sample(pool["special"],
                                                               sizes[1])
        rng.shuffle(ns)
        xs = rng.sample(pool["x"], sizes[2])
        composite = set(pool["composite"])
        every = max(1, len(ns) // len(xs))
        ops = []
        for i, n in enumerate(ns):
            if i % every == 0 and xs:
                ops.append(f"ov_count {xs.pop()}")
            ops.append(f"classify {n}")
            if n in composite:
                ops.append(f"least_witness {n}")
        ops.extend(f"ov_count {x}" for x in xs)
        return ops
    raise ValueError(f"unknown workload {name!r}")


class BenchError(RuntimeError):
    """An operation broke the correctness gate; the run stops."""


def _cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_op(pkg, cli, label: str, budget: int):
    """Run one operation; returns the raw outcome, reduced outside the timer."""
    cmd, arg = label.split()
    if cmd in ("count", "primover", "generate"):
        return "cli", _cli(cli, [cmd, arg, "--budget", str(budget),
                                 "--format", "json"])
    if cmd == "table":
        return "cli", _cli(cli, [cmd, arg, arg, "--budget", str(budget),
                                 "--format", "json"])
    fn = {"classify": pkg.classify, "least_witness": pkg.least_witness,
          "ov_count": pkg.ov_count}[cmd]
    try:
        return "lib", fn(int(arg), pkg.Budget(budget))
    except pkg.EffortError:
        return "lib", None
    except (ValueError, pkg.ContractViolationError) as exc:
        raise BenchError(f"{label}: {type(exc).__name__}: {exc}") from exc


def reduce_outcome(label: str, outcome) -> tuple[bool, object, int]:
    """(complete, result, CLI output bytes) of one outcome.

    CLI exit 1 or 3 raises BenchError; exit 2, budget exhaustion in a library
    call and a result marked ``complete: false`` are failures, not errors.
    """
    kind, value = outcome
    if kind == "cli":
        code, out, err = value
        if code == 2:
            return False, None, len(out)
        if code != 0:
            raise BenchError(f"{label}: exit {code}: {err.strip()}")
        result = json.loads(out.splitlines()[0])["result"]
        return result.get("complete", True), result, len(out)
    if value is None:
        return False, None, 0
    cmd = label.split()[0]
    if cmd == "classify":
        f = value.flags
        result = {
            "n": value.n,
            "factors": [list(pe) for pe in value.factorization.factors],
            "complete": value.factorization.complete,
            "h": value.h, "r": value.r,
            "flags": [f.prime, f.fermat_psp_base2, f.strong_psp_base2,
                      f.super_poulet, f.carmichael, f.overpseudoprime_base2],
            "verdict_basis": value.verdict_basis,
        }
    elif cmd == "least_witness":
        result = {"n": value.n, "witness": value.witness,
                  "bases_checked": value.bases_checked,
                  "skipped_noncoprime": value.skipped_noncoprime}
    else:
        result = {"x": value.x, "ov": value.ov,
                  "by_order": sorted(value.by_order.items()),
                  "members": None if value.members is None else list(value.members)}
        result = json.loads(json.dumps(result))
    return True, result, 0


def order_is(n: int, p: int) -> bool:
    """ord_p(2) == n, by plain modular powers."""
    if pow(2, n, p) != 1:
        return False
    m, f, primes = n, 2, []
    while f * f <= m:
        if m % f == 0:
            primes.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        primes.append(m)
    return all(pow(2, n // q, p) != 1 for q in primes)


def independent_check(label: str, result) -> None:
    """Cheap checks of a complete result with code outside the package."""
    import sympy

    cmd, arg = label.split()
    arg = int(arg)

    def need(cond, what):
        if not cond:
            raise BenchError(f"{label}: independent check failed: {what}")

    if cmd in ("count", "ov_count"):
        need(sum(c for _, c in result["by_order"]) == result["ov"],
             "by_order does not sum to ov")
        if result.get("members") is not None:
            need(len(result["members"]) == result["ov"], "member count != ov")
    elif cmd == "classify":
        product = 1
        for p, e in result["factors"]:
            need(sympy.isprime(p), f"factor {p} is not prime")
            product *= p**e
        need(product == arg, "factors do not multiply back to n")
        prime = result["flags"][0]
        need(prime == sympy.isprime(arg), "prime flag")
        orders = {int(sympy.n_order(2, p**i))
                  for p, e in result["factors"] for i in range(1, e + 1)}
        need(result["flags"][5] == (not prime and len(orders) == 1),
             "overpseudoprime flag disagrees with equal orders")
    elif cmd == "least_witness":
        w = result["witness"]
        need(w is None or (math.gcd(w, arg) == 1
                           and result["bases_checked"]
                           + result["skipped_noncoprime"] == w - 1),
             "witness scan tally")
    elif cmd == "primover":
        product = 1
        for p, e in result["primitive_factors"]:
            need(sympy.isprime(p) and order_is(arg, p), f"{p} is not primitive")
            need(((1 << arg) - 1) % p**e == 0 and ((1 << arg) - 1) % p**(e + 1),
                 f"valuation of {p}")
            product *= p**e
        need(product == result["cofactor"], "cofactor is not the product")
    elif cmd == "table":
        least = result["least"]
        need(least is None or (least % 2 == 1 and pow(2, arg, least) == 1),
             "least value has the wrong order")
    elif cmd == "generate":
        for side in ("L", "M"):
            product = 1
            for p, e in result[f"{side}_factors"]:
                need(sympy.isprime(p), f"{side} factor {p} is not prime")
                product *= p**e
            need(product == result[side], f"{side} factors do not rebuild {side}")
            need(all(order_is(8 * arg + 4, p)
                     for p in result[f"primitive_{side}"]), f"primitive_{side}")
        need(result["L"] * result["M"] == (1 << (4 * arg + 2)) + 1,
             "brackets do not multiply to 2**(4k+2) + 1")
        if result["value"] is not None:
            need(result["value"]
                 == result["primitive_L"][0] * result["primitive_M"][0],
                 "value is not the product of the least primitive divisors")
