#!/usr/bin/env python3
"""Build, or check, the table of factored Phi_h(2) that primover and count read.

For each order h in 3..999 the script factors Phi_h(2) without its
intrinsic prime by _factor_reduced, never by the table itself (every prime
is known to be 1 (mod lcm(2, h)), and for h = 4 (mod 8) the Aurifeuillian
halves are factored apart) under a fresh Budget(B).  Each complete
factorization is written as [[p, e], ...] under "factors"; for an order
left incomplete, the primes found are written the same way under
"partial", with the range and B.  Each partial order is then scanned with
count's own scan, count._scan, up to SCAN_BOUND, and every prime of that
order up to it is written, ascending, under "scanned" with the bound:
count reads a partial order there up to the bound and scans only above it.
The partial entries keep exactly what factoring found.  The same inputs
give the same file, byte for byte.  A build prints the file's SHA-256,
which must replace primover.PHI2_SHA256: the package reads no table with
another digest, and so checks no entry at run time beyond its product.

--check compares the file's digest with primover.PHI2_SHA256, puts every
entry through primover._prove_entry (each factor through the package's
is_prime, the product, a partial entry's composite rest), rebuilds
h = 3..150 to compare, and rescans the whole scanned section (about 30 s):
its bound, its orders, which must be the partial ones, and every list.

Usage:
  python scripts/factor_table.py                 # rebuild the table
  python scripts/factor_table.py --out phi2.json # write it elsewhere
  python scripts/factor_table.py --check         # digest, every entry, rebuild h = 3..150,
                                                 # rescan the scanned section
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from overpseudo import Budget, ContractViolationError, factorize
from overpseudo.count import _scan
from overpseudo.primover import PHI2_SHA256, _factor_reduced, _prove_entry

TABLE = Path(__file__).resolve().parent.parent / "src" / "overpseudo" / "data" / "phi2_factors.json"
ORDERS = (3, 999)
BUDGET = 1_000_000
CHECK_UPTO = 150  # the slice --check rebuilds, about 2 s
SCAN_BOUND = 1 << 30  # the partial orders' scanned primes go up to it, about 30 s


def build(first: int, last: int, budget: int) -> dict:
    """The table's content for the orders first..last at budget units each."""
    factors, partial = {}, {}
    for h in range(first, last + 1):
        fz = _factor_reduced(h, factorize(h).primes(), Budget(budget))
        (factors if fz.complete else partial)[h] = [list(pe) for pe in fz.factors]
    return {"orders": [first, last], "budget": budget, "factors": factors,
            "partial": partial}


def scan(orders, bound: int) -> dict:
    """The scanned section: every prime of each order up to bound, by count's scan."""
    return {"bound": bound,
            "primes": {h: _scan(h, factorize(h).primes(), 0, bound, Budget(bound))
                       for h in orders}}


def dumps(table: dict) -> str:
    """JSON with one line per order, in ascending order."""
    def entries(section):
        return ",\n".join(f'  "{h}": {json.dumps(v, separators=(",", ":"))}'
                           for h, v in sorted(section.items()))

    lines = [f'{{"orders": {json.dumps(table["orders"])},',
             f' "budget": {table["budget"]},']
    for key in ("factors", "partial"):
        lines += [f' "{key}": {{', entries(table[key]), " },"]
    scanned = table["scanned"]
    lines += [f' "scanned": {{"bound": {scanned["bound"]}, "primes": {{',
              entries(scanned["primes"]), " }}}"]
    return "\n".join(lines) + "\n"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(path: Path, last: int) -> list[str]:
    """The file's problems: its digest, each entry's full check, a rebuild up to last, a rescan."""
    problems = []
    digest = sha256(path)
    if digest != PHI2_SHA256:
        problems.append(f"SHA-256 {digest} is not primover.PHI2_SHA256 {PHI2_SHA256}")
    stored = json.loads(path.read_text())
    for key in ("factors", "partial"):
        for h, factors in stored[key].items():
            try:
                _prove_entry(int(h), factorize(int(h)).primes(), factors, key == "factors")
            except ContractViolationError as exc:
                problems.append(f"{key} of h = {h}: {exc}")
    first = stored["orders"][0]
    last = min(last, stored["orders"][1])
    fresh = build(first, last, stored["budget"])
    for key in ("factors", "partial"):
        for h in range(first, last + 1):
            want = fresh[key].get(h)
            got = stored[key].get(str(h))
            if want != got:
                problems.append(f"{key} of h = {h}: file has {got}, rebuild gives {want}")
    partial = sorted(map(int, stored["partial"]))
    return problems + scanned_problems(stored["scanned"], partial, SCAN_BOUND)


def scanned_problems(section: dict, orders, bound: int) -> list[str]:
    """The scanned section's problems against a rescan of the orders up to bound.

    Its bound must be bound, its orders exactly orders, and each list the
    scan's, so a dropped prime, an added composite or a prime of another
    order each fail.
    """
    problems = []
    if section["bound"] != bound:
        problems.append(f"scanned bound is {section['bound']}, not {bound}")
    got = {int(h): primes for h, primes in section["primes"].items()}
    if sorted(got) != sorted(orders):
        problems.append(f"scanned orders {sorted(set(got) ^ set(orders))} are not "
                        "exactly the partial ones")
    for h, want in scan(orders, bound)["primes"].items():
        if got.get(h) != want:
            problems.append(f"scanned of h = {h}: file has {got.get(h)}, rescan gives {want}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=TABLE)
    parser.add_argument("--check", action="store_true",
                        help="check --out's digest and every entry, rebuild the "
                             f"orders up to {CHECK_UPTO} to compare, and rescan the "
                             "scanned section")
    args = parser.parse_args()

    t0 = time.time()
    if args.check:
        problems = check(args.out, CHECK_UPTO)
        for line in problems:
            print(line)
        print(f"{len(problems)} problems, {time.time() - t0:.1f}s")
        return 1 if problems else 0
    table = build(ORDERS[0], ORDERS[1], BUDGET)
    table["scanned"] = scan(sorted(table["partial"]), SCAN_BOUND)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dumps(table))
    done = len(table["factors"])
    print(f"wrote {args.out}: {done} complete, {len(table['partial'])} partial, "
          f"{time.time() - t0:.1f}s")
    print(f"SHA-256 {sha256(args.out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
