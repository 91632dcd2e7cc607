"""Exhaustive enumeration of overpseudoprimes below a bound, in two steps.

Every overpseudoprime m <= x factors into primes sharing one order h of 2,
and its least prime factor is at most sqrt(x).  The sweep gives every prime
p <= sqrt(x) its order h (the primes of p - 1, read off one table of
largest prime factors, give both h and h's primes) and lists them by order
as P_h.  The completion pass takes any map of such lists and finds the
primes of each order h in (sqrt(x), x / p_min(h)]: primover lists, count
scans above the listed bound.  primover lists all the primes of a complete
table entry, and those up to 2**30 of any other order below 10**4, from
the table's scanned section; an order from 10**4 up lists none.  Above the
bound each q = 1 (mod h) that survives a sieve and a mod-8 mask gets an
order test: q | Phi_h(2) while phi(h) < REMAINDER_BITS and enough
candidates survive to pay for Phi_h(2), else 2**h = 1 (mod q) and no
smaller order.  The sieve reads
candidates below TRIAL_DIVISION_LIMIT off the trial-division sieve
(arith.small_prime_flags), which flags exactly the primes, and strikes the
multiples of small primes above it.  A scan costs one unit per candidate
q = 1 (mod h) it sieves and tests; what primover lists costs nothing.
Prime powers q**i dividing 2**h - 1 are admitted; every product of at least
two slots is a member.  ov_count completes the sweep's orders,
ov_count_upto_order those up to n, and ov_count_by_order the one order n,
its P_n from a scan up to sqrt(x).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress

from . import primover
from .arith import (TRIAL_DIVISION_LIMIT, Budget, _primes_below, factorize, is_prime,
                    small_prime_flags, small_primes)
from .errors import EffortError
from .order import _strip
from .primover import _cyclotomic_value, _slots_of_order

REMAINDER_BITS = 2048


def _primes_of_order(h: int, h_primes, lo: int, limit: int, budget: Budget) -> list[int]:
    """All primes q in (lo, limit] with ord_q(2) == h, ascending, given h's primes h_primes.

    primover lists, count scans above the listed bound: the primes
    primover._listed_primes lists in (lo, limit], free, then _scan above
    max(lo, bound) unless bound is None.  No odd q = 1 (mod h) there: [].
    """
    start, _ = _progression(h, lo)
    if limit < start:
        return []
    listed, bound = primover._listed_primes(h, h_primes)
    got = [q for q in listed if lo < q <= limit] if listed else []  # most orders list none
    return got if bound is None else got + _scan(h, h_primes, max(lo, bound), limit, budget)


def _progression(h: int, lo: int) -> tuple[int, int]:
    """(the first candidate q = 1 (mod h) above lo that is odd, the step between candidates)."""
    # candidates must be odd: steps of 2h when h is odd, h when even
    start, step = (2 * h + 1, 2 * h) if h % 2 else (h + 1, h)
    return start + max(0, (lo - start) // step + 1) * step, step


def _scan(h: int, h_primes, lo: int, limit: int, budget: Budget) -> list[int]:
    """The primes of order h in (lo, limit], h >= 3, by testing every candidate there.

    One unit per candidate in (lo, limit], sieved out or not.  A scan tests
    the order of 2 for each candidate.  _scan_sieve first drops the
    candidates below TRIAL_DIVISION_LIMIT that the trial-division sieve
    marks composite, composites above it with a small prime factor, and
    primes of another order by a mod-8 mask; a scan of fewer than 8
    candidates, where the sieve's set-up costs more than it saves, tests
    each directly.  A candidate never divides h, so a prime q has order h
    iff q | Phi_h(2): while phi(h) < REMAINDER_BITS and at least
    4 * 2**omega(h) candidates survive, enough to pay for building
    Phi_h(2), one remainder decides it; otherwise 2**h = 1 (mod q) and no
    smaller order do.  A composite of primes of order h (88357 = 149 * 593
    for h = 148) can pass either, so primality is tested last, once per
    prime, by its own order.  scripts/factor_table.py builds the table's
    scanned section with it, each order below 10**4 with no complete entry
    up to 2**30.
    """
    start, step = _progression(h, lo)
    if limit < start:
        return []
    n = (limit - start) // step + 1
    budget.charge(n)
    qs = range(start, limit + 1, step)
    if n >= 8:
        qs = list(compress(qs, _scan_sieve(h, start, step, n)))
        phi = h // math.prod(h_primes) * math.prod(f - 1 for f in h_primes)
        # Phi_h(2) is built from 2**omega(h) factors 2**d - 1: worth it at 4 survivors each
        if phi < REMAINDER_BITS and len(qs) >= 4 << len(h_primes):
            c = _cyclotomic_value(h, h_primes)
            return [q for q in qs if c % q == 0 and is_prime(q)]
    return [q for q in qs
            if pow(2, h, q) == 1 and _strip(2, h, h_primes, q) == h and is_prime(q)]


def _scan_sieve(h: int, start: int, step: int, n: int) -> bytearray:
    """Flags of the n candidates q = start + k*step that may have order h.

    start = 1 (mod step).  A candidate below TRIAL_DIVISION_LIMIT is flagged
    iff it is prime, read off the trial-division sieve (small_prime_flags).
    Above the limit the odd primes r <= min(sqrt(q_last), m // 64) strike
    their multiples, m the candidates above the limit and q_last the last
    candidate; each such r lies below the limit, so it strikes no prime.  A
    prime above sqrt(q_last) strikes nothing; below it, r strikes about m/r
    candidates and pays only when that beats its set-up, about 64 tests.
    Last, when (q-1)/h is even, the q = +-3 (mod 8) are dropped, which have
    no square root of 2.
    """
    # flags[k] is q = start + k*step; the first k0 candidates lie below the
    # limit, and q, odd, is index q // 2 of the sieve, which advances by step // 2
    k0 = min(n, max(0, -((start - TRIAL_DIVISION_LIMIT) // step)))
    flags = small_prime_flags()[start // 2:start // 2 + k0 * (step // 2):step // 2]
    flags += b"\x01" * (n - k0)
    # q = 1 (mod step), so a prime r | step divides no candidate, and
    # q = 0 (mod r) iff k = -start * step**-1 (mod r)
    primes = small_primes()
    bound = min(math.isqrt(start + (n - 1) * step), (n - k0) // 64)
    for r in primes[1:bisect_right(primes, bound)]:
        if step % r:
            k = k0 + (-start - k0 * step) * pow(step, -1, r) % r
            flags[k::r] = bytes(len(range(k, n, r)))
    # ord_q(2) = h | (q-1)/2 makes 2 a square mod q, so q = +-1 (mod 8);
    # parity of (q-1)/h and q mod 8 have period 4 in k since step is even
    for k in range(min(4, n)):
        q = start + k * step
        if (q - 1) // h % 2 == 0 and q % 8 in (3, 5):
            flags[k::4] = bytes(len(range(k, n, 4)))
    return flags


def _products(slots: list[tuple[int, int]], x: int) -> list[int]:
    """All products <= x, unsorted, of at least two slots (ascending, capped powers)."""
    out: list[int] = []
    if sum(e for _, e in slots) < 2:  # a lone prime, as most orders have, forms none
        return out

    def rec(i: int, prod: int, omega: int) -> None:
        if omega >= 2:
            out.append(prod)
        for j in range(i, len(slots)):
            q, emax = slots[j]
            if prod * q > x:
                break
            v = prod
            for a in range(1, emax + 1):
                v *= q
                if v > x:
                    break
                rec(j + 1, v, omega + a)

    rec(0, 1, 0)
    return out


def _p_minus_1_primes(limit: int):
    """(p, the primes of p - 1 ascending) for every odd prime p <= limit, p ascending.

    One table of the largest prime factor of each m <= limit, written by
    the primes in ascending order, strips each p - 1 with no division test.
    """
    primes = _primes_below(limit + 1)
    top = array("I", [0]) * (limit + 1)
    for r in primes:
        top[r::r] = array("I", [r]) * (limit // r)
    for p in primes[1:]:
        m, p_primes = p - 1, []
        while m > 1:
            f = top[m]
            p_primes.append(f)
            while m % f == 0:
                m //= f
        yield p, p_primes[::-1]


def _sweep(x: int) -> dict:
    """Every prime p <= sqrt(x) by its order h: {h: (P_h ascending, h's primes)}.

    The primes of each p - 1 come from _p_minus_1_primes, so nothing is
    factored or charged.
    """
    orders = {}
    # x < 0 sweeps nothing; _complete refuses every x < 3
    for p, p_primes in _p_minus_1_primes(math.isqrt(max(x, 0))):
        h = _strip(2, p - 1, p_primes, p)
        if h not in orders:
            orders[h] = [], tuple(f for f in p_primes if h % f == 0)
        orders[h][0].append(p)
    return orders


def _complete(x: int, orders: dict, budget: Budget) -> dict[int, list[int]]:
    """Members <= x by order, h ascending, for each h of a map like _sweep's that has any."""
    if x < 3:
        raise ValueError("x must be >= 3")
    root = math.isqrt(x)
    groups: dict[int, list[int]] = {}
    for h in sorted(orders):
        seeds, h_primes = orders[h]
        try:
            qs = seeds + _primes_of_order(h, h_primes, root, x // seeds[0], budget)
            prods = _products(_slots_of_order(h, qs, x), x)
        except EffortError as exc:
            raise EffortError(
                f"{exc}; orders below {h} were completed: {sorted(groups)}"
            ) from exc
        if prods:
            groups[h] = prods
    return groups


def enumerate_overpseudoprimes(x: int, budget: Budget | None = None) -> list[int]:
    """Exactly the overpseudoprimes <= x, sorted ascending."""
    return list(ov_count(x, budget).members)


@dataclass(frozen=True)
class CountRecord:
    """Ov(x) with its x**(3/4) envelope and the per-order breakdown."""

    x: int
    ov: int
    bound: float
    ratio: float
    by_order: dict[int, int]
    members: tuple[int, ...]


def ov_count(x: int, budget: Budget | None = None) -> CountRecord:
    """Ov(x) by order, with the members ascending."""
    budget = Budget() if budget is None else budget
    groups = _complete(x, _sweep(x), budget)
    members = tuple(sorted(m for lst in groups.values() for m in lst))
    row = _bound_row(x, len(members))
    return CountRecord(x, row.ov, row.x_3_4, row.ratio,
                       {h: len(v) for h, v in groups.items()}, members)


def ov_count_by_order(x: int, n: int, budget: Budget | None = None) -> int:
    """Number of overpseudoprimes m <= x with order of 2 exactly n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    budget = Budget() if budget is None else budget
    root = math.isqrt(max(x, 0))
    # P_n from a scan up to sqrt(x); no candidate q = 1 (mod n) is <= root unless n < root
    n_primes = factorize(n, budget).primes() if n < root else ()
    seeds = _primes_of_order(n, n_primes, 0, root, budget)
    return len(_complete(x, {n: (seeds, n_primes)} if seeds else {}, budget).get(n, []))


def ov_count_upto_order(x: int, n: int, budget: Budget | None = None) -> int:
    """Number of overpseudoprimes m <= x whose order of 2 is at most n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    budget = Budget() if budget is None else budget
    orders = {h: group for h, group in _sweep(x).items() if h <= n}
    return sum(len(v) for v in _complete(x, orders, budget).values())


@dataclass(frozen=True)
class BoundRow:
    x: int
    ov: int
    x_3_4: float
    ratio: float
    x_1_2: float


def _bound_row(x: int, ov: int) -> BoundRow:
    b = float(x) ** 0.75
    return BoundRow(x, ov, b, ov / b, float(x) ** 0.5)


def bound_report(xs, budget: Budget | None = None) -> list[BoundRow]:
    """One row per x: Ov(x) against x**(3/4), with the x**(1/2) reference column.

    xs must be ascending from 1 up; a single enumeration at the largest x
    serves all rows.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("xs must be nonempty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("xs must be strictly ascending")
    if xs[0] < 1:
        raise ValueError("xs must be >= 1")
    # the least overpseudoprime is 2047, so a sweep to 3 serves any x < 3
    members = enumerate_overpseudoprimes(max(xs[-1], 3), budget)
    return [_bound_row(x, bisect_right(members, x)) for x in xs]


def bound_report_csv(rows: list[BoundRow]) -> str:
    """CSV with header x,ov,x_3_4,ratio,x_1_2 and six fractional digits."""
    lines = ["x,ov,x_3_4,ratio,x_1_2"]
    for row in rows:
        lines.append(
            f"{row.x},{row.ov},{row.x_3_4:.6f},{row.ratio:.6f},{row.x_1_2:.6f}"
        )
    return "\n".join(lines) + "\n"
