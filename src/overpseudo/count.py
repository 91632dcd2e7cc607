"""Exhaustive enumeration of overpseudoprimes below a bound, in two steps.

Every overpseudoprime m <= x factors into primes sharing one order h of 2,
and its least prime factor is at most sqrt(x).  The sweep gives every prime
p <= sqrt(x) its order h and lists them by order as P_h: below
TRIAL_DIVISION_LIMIT primover._orders_below reads h off the stored index of
2; above it (x > 10**12) one table of least prime factors sieves those p
and gives the primes of p - 1 that strip it to h.  The completion pass
takes any map of such lists and completes each order h in one flat step
over (sqrt(x), x / p_min(h)]: _primes_of_order makes one call into a reader
that primover._known_reader builds once per count over its stores, which
gives the primes known without an order test and the candidates left, and
count charges those and tests them from TRIAL_DIVISION_LIMIT up.  An order
with no candidate goes no further than the reader's first test.  primover
lists all the primes of a complete table entry, and those up to 2**30 of
any other order below 10**4, from the table's scanned section; an order
from 10**4 up lists none.  Above that bound it reads the primes below the
limit off stored links, each prime there to the next prime of its order:
the completion follows them from the largest prime of P_h, and a read of
one order with no prime in hand (the by-order seed read, the table's build)
first steps along q = 1 (mod h) to the first prime of order h, then follows
them.  From the limit up _scan tests: each candidate that survives a sieve
and a mod-8 mask gets an order test, q | Phi_h(2) while
phi(h) < REMAINDER_BITS and enough candidates survive to pay for
Phi_h(2), else 2**h = 1 (mod q) and no smaller order.  The primes of h are
found only for that order test and for a complete entry's read.  An order
costs one unit per candidate q = 1 (mod h) above the listed bound, however
it is decided; what primover lists costs nothing.  Prime powers q**i
dividing 2**h - 1 are admitted (primover._exponent_cap); every product of
at least two slots is a member, and an order whose one prime has exponent
1, as every prime below the limit has but the Wieferich primes, forms
none, so it builds no slots.  At 1e10, 1857 of the sweep's 8951 orders
have no candidate; of the 7094 read, 5853 end with a lone prime, 3844 of
them from 10**4 up (a link lookup and a charge each) and 1728 from 1000 to
9999 (a bisection of the section each), and 1241 form members.  ov_count
completes the sweep's orders, ov_count_upto_order those up to n, and
ov_count_by_order the one order n, its P_n read up to sqrt(x).
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, islice

from . import primover
from .arith import TRIAL_DIVISION_LIMIT, Budget, is_prime, small_primes
from .errors import EffortError
from .order import _complete_factorization, _strip
from .primover import WIEFERICH_PRIMES, _cyclotomic_value, _exponent_cap, _slots_of_order

REMAINDER_BITS = 2048


def _primes_of_order(h: int, lo: int, limit: int, budget: Budget,
                     seed: int | None = None, known=None) -> list[int]:
    """All primes q in (lo, limit] with ord_q(2) == h, ascending.

    In this order: those known without an order test, from known, the
    reader primover._known_reader builds (a count builds one and passes
    it; one is built when none is given), read from seed, a prime of order
    h at or below lo, if given; one unit per candidate the reader leaves,
    those in (max(lo, bound), limit], however it is decided, the one
    charge; and _scan's order tests from the limit up.  No odd q = 1 (mod h)
    in the interval: nothing, at no charge and with no store read.
    """
    got, units, bound = (known or primover._known_reader())(h, lo, limit, seed)
    if units:
        budget.charge(units)
        if limit >= TRIAL_DIVISION_LIMIT:
            got += _scan(h, max(lo, bound), limit, budget)
    return got


def _scan(h: int, lo: int, limit: int, budget: Budget) -> list[int]:
    """The primes of order h in (lo, limit] from TRIAL_DIVISION_LIMIT up, h >= 3, by order tests.

    lo is raised to TRIAL_DIVISION_LIMIT - 1, below which _primes_of_order
    reads the primes, and nothing is charged here:
    _primes_of_order charges the candidates.  _scan_sieve first drops
    composites with a small prime factor and primes of another order by a
    mod-8 mask; a scan of fewer than 8 such candidates, where the sieve's
    set-up costs more than it saves, tests each directly.  A candidate
    never divides h, so a prime q has order h iff q | Phi_h(2): while
    phi(h) < REMAINDER_BITS and at least 4 * 2**omega(h) candidates
    survive, enough to pay for building Phi_h(2), one remainder decides
    it; otherwise 2**h = 1 (mod q) and no smaller order do.  h is factored
    only for these tests, when 8 candidates survive or one passes
    2**h = 1, and must factor completely.  A composite of primes of order h
    (2304167 = 1103 * 2089 for h = 29) can pass either, so primality is
    tested last, once per prime, by its own order.  scripts/factor_table.py
    builds the table's scanned section with it and primover's reader of the
    links, each order below 10**4 with no complete entry up to 2**30.
    """
    # candidates are odd: steps of 2h when h is odd, h when even
    lo, step = max(lo, TRIAL_DIVISION_LIMIT - 1), h if h % 2 == 0 else 2 * h
    start = lo + 1 + -lo % step
    if limit < start:
        return []
    n = (limit - start) // step + 1
    qs = range(start, limit + 1, step)
    if n >= 8:
        qs = list(compress(qs, _scan_sieve(h, start, step, n)))
    h_primes = None
    # Phi_h(2) is built from 2**omega(h) >= 2 factors 2**d - 1: worth it at 4 survivors each
    if len(qs) >= 8:
        h_primes = _complete_factorization(h, budget).primes()
        phi = h // math.prod(h_primes) * math.prod(f - 1 for f in h_primes)
        if phi < REMAINDER_BITS and len(qs) >= 4 << len(h_primes):
            c = _cyclotomic_value(h, h_primes)
            return [q for q in qs if c % q == 0 and is_prime(q)]
    passed = [q for q in qs if pow(2, h, q) == 1]
    if not passed:
        return []
    h_primes = h_primes or _complete_factorization(h, budget).primes()
    return [q for q in passed if _strip(2, h, h_primes, q) == h and is_prime(q)]


def _scan_sieve(h: int, start: int, step: int, n: int) -> bytearray:
    """Flags of the n candidates q = start + k*step that may have order h.

    start = 1 (mod step) and start >= TRIAL_DIVISION_LIMIT.  The odd primes
    r <= min(sqrt(q_last), n // 64) strike their multiples, q_last the last
    candidate; each such r lies below the limit, so below every candidate,
    and strikes no prime.  A prime above sqrt(q_last) strikes nothing; below
    it, r strikes about n/r candidates and pays only when that beats its
    set-up, about 64 tests.  Last, when (q-1)/h is even, the q = +-3 (mod 8)
    are dropped, which have no square root of 2.
    """
    flags = bytearray(b"\x01") * n
    # q = 1 (mod step), so a prime r | step divides no candidate, and
    # q = 0 (mod r) iff k = -start * step**-1 (mod r)
    primes = small_primes()
    bound = min(math.isqrt(start + (n - 1) * step), n // 64)
    for r in primes[1:bisect_right(primes, bound)]:
        if step % r:
            k = -start * pow(step, -1, r) % r
            flags[k::r] = bytes(len(range(k, n, r)))
    # ord_q(2) = h | (q-1)/2 makes 2 a square mod q, so q = +-1 (mod 8);
    # parity of (q-1)/h and q mod 8 have period 4 in k since step is even
    for k in range(min(4, n)):
        q = start + k * step
        if (q - 1) // h % 2 == 0 and q % 8 in (3, 5):
            flags[k::4] = bytes(len(range(k, n, 4)))
    return flags


def _products(slots: list[tuple[int, int]], x: int) -> list[int]:
    """All products <= x, unsorted, of at least two slots (ascending, capped powers).

    A lone slot of exponent 1 gives none; _complete passes over such an
    order without building its slots.
    """
    out: list[int] = []

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


def _prime_orders(first: int, limit: int):
    """(p, ord_p(2)) for every prime p in [first, limit], p ascending.

    first >= 3 and isqrt(limit) < TRIAL_DIVISION_LIMIT (x < 10**24).  The one
    sieve is a table of least prime factors, struck from r*r by the held
    primes r <= isqrt(limit), largest first: a prime reads 0 in it, and
    _strip takes each p - 1 down to the order by the primes read off it.
    """
    if limit < first:
        return
    primes = small_primes()
    least = array("I", [0]) * (limit + 1)
    for r in reversed(primes[:bisect_right(primes, math.isqrt(limit))]):
        least[r * r::r] = array("I", [r]) * ((limit - r * r) // r + 1)
    start = first | 1
    is_odd_prime = map(operator.not_, islice(least, start, None, 2))
    for p in compress(range(start, limit + 1, 2), is_odd_prime):
        m, p_primes = p - 1, []
        while m > 1:
            f = least[m] or m  # m itself is prime when it reads 0
            p_primes.append(f)
            while m % f == 0:
                m //= f
        yield p, _strip(2, p - 1, p_primes, p)


def _sweep(x: int) -> dict[int, list[int]]:
    """Every prime p <= sqrt(x) by its order h: {h: P_h ascending}.

    Below TRIAL_DIVISION_LIMIT primover._orders_below reads h off the index
    of 2; from the limit up _prime_orders gives h off one table of least
    prime factors.  Nothing is factored or charged.
    """
    # x < 0 sweeps nothing; _complete refuses every x < 3
    root = math.isqrt(max(x, 0))
    orders = primover._orders_below(root)
    for p, h in _prime_orders(TRIAL_DIVISION_LIMIT, root):
        orders.setdefault(h, []).append(p)
    return orders


def _complete(x: int, orders: dict[int, list[int]], budget: Budget) -> dict[int, list[int]]:
    """Members <= x by order, h ascending, for each h of a map like _sweep's that has any.

    A budget that runs out raises EffortError naming the orders completed,
    with their members, ascending, as its partial: {h: members}.
    """
    if x < 3:
        raise ValueError("x must be >= 3")
    root, known = math.isqrt(x), primover._known_reader()
    groups: dict[int, list[int]] = {}
    for h in sorted(orders):
        seeds = orders[h]
        try:
            # the links run on from P_h's largest prime, the last at or below sqrt(x)
            qs = seeds + _primes_of_order(h, root, x // seeds[0], budget, seeds[-1], known)
            # a lone prime of exponent 1 forms no member, and below the limit
            # every prime but the Wieferich primes has it, with no pow
            if len(qs) == 1 and (qs[0] < TRIAL_DIVISION_LIMIT and qs[0] not in WIEFERICH_PRIMES
                                 or _exponent_cap(h, qs[0], x) == 1):
                continue
            prods = _products(_slots_of_order(h, qs, x), x)
        except EffortError as exc:
            raise EffortError(
                f"{exc}; orders below {h} were completed: {sorted(groups)}",
                partial={g: sorted(groups[g]) for g in sorted(groups)},
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
    # P_n read up to sqrt(x)
    seeds = _primes_of_order(n, 0, math.isqrt(max(x, 0)), budget)
    return len(_complete(x, {n: seeds} if seeds else {}, budget).get(n, []))


def ov_count_upto_order(x: int, n: int, budget: Budget | None = None) -> int:
    """Number of overpseudoprimes m <= x whose order of 2 is at most n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    budget = Budget() if budget is None else budget
    orders = {h: seeds for h, seeds in _sweep(x).items() if h <= n}
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
