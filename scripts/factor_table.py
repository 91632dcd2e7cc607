#!/usr/bin/env python3
"""Build, or check, the package's data: the table of factored Phi_h(2), the index and links of 2.

For each order h in 3..999 the script factors Phi_h(2) without its
intrinsic prime by _factor_reduced, never by the table itself (every prime
is known to be 1 (mod lcm(2, h)), and for h = 4 (mod 8) the Aurifeuillian
halves are factored apart) under a fresh Budget(B).  Each complete
factorization is written as [[p, e], ...] under "factors"; for an order
left incomplete, the primes found are written the same way under
"partial", with the range and B.  Then every order h < SCAN_BELOW without
a complete entry, the partial ones and all of 1000..9999, is searched up
to SCAN_BOUND as count searches it: every order's primes below
TRIAL_DIVISION_LIMIT come from primover._linked_primes, which count reads
them through (the first prime of the order along q = 1 (mod h) over the
index of 2, then the links), and those from the limit up from count's own
scan, count._scan.  Every prime of those orders up to the bound is written under
"scanned" with "below" and "bound", as two flat lists ascending by
(order, prime): "orders" holds each prime's order and "primes" the prime.
Count reads such an order there up to the bound and scans only above it.
The scans run on a pool of worker processes, one per CPU, and are
assembled in order.  The partial entries keep exactly what factoring
found.  The same inputs give the same file, byte for byte, whatever the
number of CPUs.  A build (about 16 minutes for the factors and 2 more for
the scan on 2 cores) prints the file's SHA-256, which must replace
primover.PHI2_SHA256: the package reads no table with another digest, and
so checks no entry at run time beyond its product.

The index of 2 is (p - 1) / ord_p(2) for every odd prime p below
TRIAL_DIVISION_LIMIT, p ascending, which count reads in place of the order
of 2 modulo such a prime.  The links give each prime q there that is not
the largest of its order below the limit the next prime of that order,
which count's completion follows from an order's largest prime up to
sqrt(x).  Both come from one pass of count's _prime_orders, the generator
that gives count's sweep its orders above the limit (about 0.6 s).  The
index is written as unsigned 16-bit little-endian words, zlib-compressed,
to index2.zlib beside the table; the links as the 4400 q ascending, then
the next prime of each, unsigned 32-bit little-endian words,
zlib-compressed, to next2.zlib.  Their SHA-256s, printed, must replace
primover.INDEX2_SHA256 and primover.NEXT2_SHA256.  A build writes all
three files.

--check compares the table's digest with primover.PHI2_SHA256, checks
that every order of the range has exactly one entry, complete or partial
(primover._check_entry, which count also applies as it reads), puts every
entry through primover._prove_entry, which finds the primes of h itself
(the product, each factor through the package's is_prime, a partial
entry's composite rest), rebuilds h = 3..150 to compare, and rescans the
whole scanned section: "below", the bound, and the primes of every order
it covers.  It compares the digests of the index and the links with
primover.INDEX2_SHA256 and primover.NEXT2_SHA256 and their words, byte for
byte, with a rebuild's (the words, not the compressed bytes, which another
zlib may write differently), and
primover.WIEFERICH_PRIMES with a search of every prime below
TRIAL_DIVISION_LIMIT, on which count's exponent of 1 for every other
prime there rests.  It takes about 2 minutes on 2 cores.

Usage:
  python scripts/factor_table.py                 # rebuild the table, the index and the links
  python scripts/factor_table.py --out phi2.json # write the table elsewhere
  python scripts/factor_table.py --check         # digests, every entry, rebuild h = 3..150,
                                                 # rescan the scanned section, rebuild the index
                                                 # and the links, search the Wieferich primes
                                                 # below 10**6
"""

import argparse
import hashlib
import json
import sys
import time
import zlib
from array import array
from concurrent.futures import ProcessPoolExecutor
from itertools import repeat
from multiprocessing import get_context
from pathlib import Path

from overpseudo import Budget, ContractViolationError, factorize
from overpseudo.arith import TRIAL_DIVISION_LIMIT, small_primes
from overpseudo.count import _prime_orders, _scan
from overpseudo.primover import (INDEX2_SHA256, NEXT2_SHA256, PHI2_SHA256, WIEFERICH_PRIMES,
                                  _check_entry, _factor_reduced, _linked_primes, _prove_entry)

TABLE = Path(__file__).resolve().parent.parent / "src" / "overpseudo" / "data" / "phi2_factors.json"
INDEX = TABLE.with_name("index2.zlib")
NEXT = TABLE.with_name("next2.zlib")
ORDERS = (3, 999)
BUDGET = 1_000_000
CHECK_UPTO = 150  # the slice --check rebuilds, about 2 s
SCAN_BELOW = 10_000  # the scanned section covers every order below it with no complete entry
SCAN_BOUND = 1 << 30  # and lists their primes up to it


def build(first: int, last: int, budget: int) -> dict:
    """The table's content for the orders first..last at budget units each."""
    factors, partial = {}, {}
    for h in range(first, last + 1):
        fz = _factor_reduced(h, factorize(h).primes(), Budget(budget))
        (factors if fz.complete else partial)[h] = [list(pe) for pe in fz.factors]
    return {"orders": [first, last], "budget": budget, "factors": factors,
            "partial": partial}


def scanned_orders(complete) -> list[int]:
    """The orders the scanned section covers: every h in 3..SCAN_BELOW-1 not in complete."""
    complete = set(map(int, complete))
    return [h for h in range(3, SCAN_BELOW) if h not in complete]


def scan(orders, bound: int) -> dict:
    """Every prime of each order up to bound, by count's read and scan, as the section's two lists.

    primover._linked_primes gives each order its primes below
    TRIAL_DIVISION_LIMIT, as count reads them above a listed bound; the
    orders are scanned from the limit up on one worker process per CPU and
    assembled in ascending order, so the lists ascend by (order, prime) and
    do not depend on the number of CPUs.
    """
    orders = sorted(orders)
    with ProcessPoolExecutor(mp_context=get_context("spawn")) as pool:
        above = pool.map(_scan, orders, repeat(0), repeat(bound), [Budget(bound) for _ in orders])
        pairs = [(h, q) for h, primes in zip(orders, above)
                 for q in _linked_primes(h, 0, bound) + primes]
    return {"bound": bound, "orders": [h for h, _ in pairs], "primes": [q for _, q in pairs]}


def build_words() -> dict[str, bytes]:
    """{file name: its content as little-endian words}: the index of 2 and the links, one pass.

    index2.zlib holds the index (p - 1) / ord_p(2) of every odd prime p
    below TRIAL_DIVISION_LIMIT, p ascending, as 16-bit words; next2.zlib
    each prime q there that is not the largest of its order below the
    limit, ascending, then the next prime of that order after each q, as
    32-bit words.  Both come from one pass of count's _prime_orders.
    """
    # an index above 65535 would not fit, and raises OverflowError
    index, links, last = array("H"), {}, {}
    for p, h in _prime_orders(3, TRIAL_DIVISION_LIMIT - 1):
        index.append((p - 1) // h)
        if h in last:
            links[last[h]] = p
        last[h] = p
    linked = sorted(links)
    words = {INDEX.name: index, NEXT.name: array("I", linked + [links[q] for q in linked])}
    if sys.byteorder == "big":
        for w in words.values():
            w.byteswap()
    return {name: w.tobytes() for name, w in words.items()}


def check_words() -> list[str]:
    """The problems of the index and the links: each digest, and the words against a rebuild's."""
    problems = []
    fresh = build_words()
    for path, want in ((INDEX, INDEX2_SHA256), (NEXT, NEXT2_SHA256)):
        digest = sha256(path)
        if digest != want:
            problems.append(f"SHA-256 {digest} of {path.name} is not primover's {want}")
        if zlib.decompress(path.read_bytes()) != fresh[path.name]:
            problems.append(f"{path.name} is not what a rebuild gives")
    return problems


def check_wieferich() -> list[str]:
    """primover.WIEFERICH_PRIMES against every prime q below the limit with q*q | 2**(q-1) - 1."""
    found = tuple(q for q in small_primes() if pow(2, q - 1, q * q) == 1)
    if found == WIEFERICH_PRIMES:
        return []
    return [f"the Wieferich primes below {TRIAL_DIVISION_LIMIT} are {found}, "
            f"not primover.WIEFERICH_PRIMES {WIEFERICH_PRIMES}"]


def write_words() -> None:
    for name, words in build_words().items():
        path = TABLE.with_name(name)
        path.write_bytes(zlib.compress(words, 9))
        print(f"wrote {path}, SHA-256 {sha256(path)}")


def compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def dumps(table: dict) -> str:
    """JSON with one line per tabled order, ascending, and one per scanned list."""
    def entries(section):
        return ",\n".join(f'  "{h}": {compact(v)}' for h, v in sorted(section.items()))

    lines = [f'{{"orders": {json.dumps(table["orders"])},',
             f' "budget": {table["budget"]},']
    for key in ("factors", "partial"):
        lines += [f' "{key}": {{', entries(table[key]), " },"]
    scanned = table["scanned"]
    lines += [f' "scanned": {{"below": {scanned["below"]}, "bound": {scanned["bound"]},',
              f'  "orders": {compact(scanned["orders"])},',
              f'  "primes": {compact(scanned["primes"])}}}}}']
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
    problems += entry_problems(stored)
    for key in ("factors", "partial"):
        for h, factors in stored[key].items():
            try:
                _prove_entry(int(h), factors, key == "factors")
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
    section = stored["scanned"]
    if section["below"] != SCAN_BELOW:
        problems.append(f"scanned below is {section['below']}, not {SCAN_BELOW}")
    orders = scanned_orders(stored["factors"])
    return problems + scanned_problems(section, orders, SCAN_BOUND)


def entry_problems(stored: dict) -> list[str]:
    """What primover._check_entry finds for each order of the table's range."""
    first, last = stored["orders"]
    complete, partial = ({int(h) for h in stored[key]} for key in ("factors", "partial"))
    problems = []
    for h in range(first, last + 1):
        try:
            _check_entry(h, complete, partial)
        except ContractViolationError as exc:
            problems.append(str(exc))
    return problems


def _by_order(section: dict) -> dict[int, list[int]]:
    got: dict[int, list[int]] = {}
    for h, q in zip(section["orders"], section["primes"]):
        got.setdefault(h, []).append(q)
    return got


def scanned_problems(section: dict, orders, bound: int) -> list[str]:
    """The scanned section's problems against a rescan of the orders up to bound.

    Its bound must be bound, its two lists of one length and ascending
    strictly by (order, prime), and each order's primes the rescan's, with
    none of an order outside orders: so a dropped prime, an added
    composite, a prime of another order or a missing order each fail.
    """
    problems = []
    if section["bound"] != bound:
        problems.append(f"scanned bound is {section['bound']}, not {bound}")
    if len(section["orders"]) != len(section["primes"]):
        problems.append(f"scanned lists hold {len(section['orders'])} orders but "
                        f"{len(section['primes'])} primes")
    pairs = list(zip(section["orders"], section["primes"]))
    if any(a >= b for a, b in zip(pairs, pairs[1:])):
        problems.append("scanned pairs do not ascend strictly by (order, prime)")
    got, want = _by_order(section), _by_order(scan(orders, bound))
    for h in sorted(set(got) | set(want)):
        if got.get(h, []) != want.get(h, []):
            problems.append(f"scanned of h = {h}: file has {got.get(h, [])}, "
                            f"rescan gives {want.get(h, [])}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=TABLE)
    parser.add_argument("--check", action="store_true",
                        help="check --out's digest and every entry, rebuild the "
                             f"orders up to {CHECK_UPTO} to compare, rescan the "
                             "scanned section, check the index and the links against "
                             "a rebuild, "
                             "and search the Wieferich primes below the limit")
    args = parser.parse_args()

    t0 = time.time()
    if args.check:
        problems = check(args.out, CHECK_UPTO) + check_words() + check_wieferich()
        for line in problems:
            print(line)
        print(f"{len(problems)} problems, {time.time() - t0:.1f}s")
        return 1 if problems else 0
    table = build(ORDERS[0], ORDERS[1], BUDGET)
    table["scanned"] = {"below": SCAN_BELOW,
                        **scan(scanned_orders(table["factors"]), SCAN_BOUND)}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(dumps(table))
    done = len(table["factors"])
    print(f"wrote {args.out}: {done} complete, {len(table['partial'])} partial, "
          f"{len(table['scanned']['primes'])} scanned primes, {time.time() - t0:.1f}s")
    print(f"SHA-256 {sha256(args.out)}")
    write_words()
    return 0


if __name__ == "__main__":
    sys.exit(main())
