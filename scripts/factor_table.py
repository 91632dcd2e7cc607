#!/usr/bin/env python3
"""Build, or check, the table of factored Phi_h(2) that count reads.

For each order h in 3..999 the script factors Phi_h(2) without its
intrinsic prime by primitive_part's own route (every prime is known to be
1 (mod lcm(2, h)), and for h = 4 (mod 8) the Aurifeuillian halves are
factored apart) under a fresh Budget(B).  Each complete factorization is
written as [[p, e], ...]; the orders left incomplete are listed, with the
range and B.  The same inputs give the same file, byte for byte.

Usage:
  python scripts/factor_table.py                 # rebuild the table
  python scripts/factor_table.py --out phi2.json # write it elsewhere
  python scripts/factor_table.py --check         # rebuild h = 3..150, compare
"""

import argparse
import json
import sys
import time
from pathlib import Path

from overpseudo import Budget, factorize
from overpseudo.primover import _factor_reduced

TABLE = Path(__file__).resolve().parent.parent / "src" / "overpseudo" / "data" / "phi2_factors.json"
ORDERS = (3, 999)
BUDGET = 1_000_000
CHECK_UPTO = 150  # the slice --check rebuilds, about 2 s


def build(first: int, last: int, budget: int) -> dict:
    """The table's content for the orders first..last at budget units each."""
    factors, incomplete = {}, []
    for h in range(first, last + 1):
        fz = _factor_reduced(h, factorize(h).primes(), Budget(budget))
        if fz.complete:
            factors[h] = [list(pe) for pe in fz.factors]
        else:
            incomplete.append(h)
    return {"orders": [first, last], "budget": budget,
            "incomplete": incomplete, "factors": factors}


def dumps(table: dict) -> str:
    """JSON with one line per order, in ascending order."""
    lines = [f'{{"orders": {json.dumps(table["orders"])},',
             f' "budget": {table["budget"]},',
             f' "incomplete": {json.dumps(table["incomplete"])},',
             ' "factors": {']
    entries = [f'  "{h}": {json.dumps(fs, separators=(",", ":"))}'
               for h, fs in sorted(table["factors"].items())]
    lines.append(",\n".join(entries))
    lines.append("}}")
    return "\n".join(lines) + "\n"


def check(path: Path, last: int) -> list[str]:
    """Mismatches between the file and a rebuild of its orders up to last."""
    stored = json.loads(path.read_text())
    first = stored["orders"][0]
    last = min(last, stored["orders"][1])
    fresh = build(first, last, stored["budget"])
    problems = []
    for h in range(first, last + 1):
        want = fresh["factors"].get(h)
        got = stored["factors"].get(str(h))
        if want != got:
            problems.append(f"h = {h}: file has {got}, rebuild gives {want}")
    in_slice = [h for h in stored["incomplete"] if h <= last]
    if in_slice != fresh["incomplete"]:
        problems.append(f"incomplete orders up to {last}: file has {in_slice}, "
                        f"rebuild gives {fresh['incomplete']}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=TABLE)
    parser.add_argument("--check", action="store_true",
                        help=f"rebuild the orders up to {CHECK_UPTO} and compare with --out")
    args = parser.parse_args()

    t0 = time.time()
    if args.check:
        problems = check(args.out, CHECK_UPTO)
        for line in problems:
            print(line)
        print(f"{len(problems)} mismatches, {time.time() - t0:.1f}s")
        return 1 if problems else 0
    table = build(ORDERS[0], ORDERS[1], BUDGET)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dumps(table))
    done = len(table["factors"])
    print(f"wrote {args.out}: {done} complete, {len(table['incomplete'])} incomplete, "
          f"{time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
