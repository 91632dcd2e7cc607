"""Test-side oracles kept independent of the code paths they check."""

from array import array
from bisect import bisect_right
from itertools import compress, islice
from math import gcd, isqrt, lcm
from pathlib import Path

import sympy

from overpseudo import EffortError, is_overpseudoprime_def
from overpseudo import count, primover
from overpseudo.arith import (
    Budget,
    Factorization,
    _split,
    is_prime,
    small_primes,
)


def brute_order(a, n):
    """Order of a mod n by plain stepping."""
    x = a % n
    t = 1
    while x != 1:
        x = x * a % n
        t += 1
    return t


def brute_lambda(n):
    """Carmichael lambda by stepping through every unit of Z/n."""
    out = 1
    for u in range(1, n):
        if gcd(u, n) == 1:
            out = lcm(out, brute_order(u, n))
    return out


def brute_overpseudoprimes(x):
    """Every odd composite <= x passing the definition predicate."""
    return [n for n in range(9, x + 1, 2) if is_overpseudoprime_def(n)]


def sympy_overpseudoprimes(x):
    """Fully independent re-derivation: equal sympy n_order on all divisors."""
    out = []
    for n in range(9, x + 1, 2):
        if sympy.isprime(n) or pow(2, n - 1, n) != 1:
            continue
        h = sympy.n_order(2, n)
        if all(sympy.n_order(2, d) == h for d in sympy.divisors(n) if d > 1):
            out.append(n)
    return out


def sympy_primes_of_order(h, limit):
    """Primes q <= limit with ord_q(2) == h, by scanning q = 1 (mod h)."""
    return [q for q in range(h + 1, limit + 1, h)
            if pow(2, h, q) == 1 and sympy.isprime(q)
            and sympy.n_order(2, q) == h]


def pow_primes_of_order(h, lo, limit):
    """Primes q in (lo, limit] with ord_q(2) == h: q = 1 (mod h), 2**h = 1 (mod q),
    2**(h/r) != 1 (mod q) for each prime r of h, and sympy's primality."""
    rs = sympy.primefactors(h)
    first = lo + 1 + (-lo) % h  # the least q = 1 (mod h) above lo
    return [q for q in range(max(first, h + 1), limit + 1, h)
            if pow(2, h, q) == 1 and all(pow(2, h // r, q) != 1 for r in rs)
            and sympy.isprime(q)]


def walked_primes(lo, caps):
    """Reference for primover's reads below 10**6: {h: the primes q of order h
    in (lo, caps[h]], q < 10**6, ascending}, for each order h of caps.

    One walk over every prime from lo up to the largest cap, each q filed
    under its order (q - 1) / i_q, i_q its stored index of 2; no progression
    and no link is read.
    """
    primes, index = small_primes(), primover._orders2()[0]
    # 2, index 0, has no order
    start = max(1, bisect_right(primes, lo))
    end = bisect_right(primes, max(caps.values()))
    walked = {}
    for q, i in zip(islice(primes, start, end), islice(index, start, end)):
        h = (q - 1) // i
        if q <= caps.get(h, 0):
            walked.setdefault(h, []).append(q)
    return walked


def sieve_primes_below(limit):
    """Reference for arith.small_primes: a sieve over every number below limit."""
    sieve = bytearray(b"\x01") * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            start = p * p
            sieve[start::p] = b"\x00" * ((limit - 1 - start) // p + 1)
    return array("I", compress(range(limit), sieve))


def per_prime_factorize(n, budget=None):
    """Reference for factorize: m % p for each small prime in turn, then splits.

    Trial division stops where factorize's does (the end of the table,
    p*p > m, or a leftover of 1 or a prime); each split of a composite
    leftover (rho, then ECM) is the library's.
    """
    if budget is None:
        budget = Budget()
    if n == 1:
        return Factorization(1, (), True)
    found = {}
    m = n
    if not is_prime(m):
        for p in small_primes():
            if p * p > m:
                break
            if m % p:
                continue
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            found[p] = e
            if m == 1 or is_prime(m):
                break
    unfactored = 1
    stack = [m] if m > 1 else []
    while stack:
        c = stack.pop()
        if is_prime(c):
            found[c] = found.get(c, 0) + 1
            continue
        d = _split(c, budget)
        if d is None:
            unfactored *= c
            continue
        stack.append(d)
        stack.append(c // d)
    return Factorization(n, tuple(sorted(found.items())), unfactored == 1,
                         unfactored)


def per_order_complete(x, orders, budget):
    """Reference for count._complete: a plain loop over the orders, none of count's reads.

    Each order in ascending h takes its primes in (sqrt(x), x // P_h[0]]:
    those the table lists, read off the stores as parsed (all of a
    complete entry's, or the scanned section's up to its bound B for any
    other order below its limit; none, B = 0, for an order from there up),
    then above B those below 10**6 from walked_primes, one walk of the
    index of 2 for all the orders, and those from 10**6 up from
    pow_primes_of_order.  An order with a bound pays first one unit per
    odd candidate q = 1 (mod h) above max(sqrt(x), B), counted here.  Every
    prime's exponent comes from pow, with no order passed over; the
    exhaustion message and its partial are count's.
    """
    root = isqrt(x)
    caps = {h: x // seeds[0] for h, seeds in orders.items()}
    walked = walked_primes(root, caps) if caps else {}
    table = primover._phi2_table()
    below, bound, section_orders, section_primes = primover._phi2_scanned()
    section = {}
    for h, q in zip(section_orders, section_primes):
        section.setdefault(h, []).append(q)
    groups = {}
    for h in sorted(orders):
        seeds, limit = orders[h], caps[h]
        if h < 3:
            listed, upto = [3] if h == 2 else [], None
        elif h in table:
            listed, upto = [p for p, _ in table[h]], None
        elif h < below:
            listed, upto = section.get(h, []), bound
        else:
            listed, upto = [], 0
        primes = [q for q in listed if root < q <= limit]
        try:
            if upto is not None:
                lo, step = max(root, upto), h if h % 2 == 0 else 2 * h
                # the q = 1 (mod step) in (lo, limit], lo >= 1
                budget.charge(max(0, (limit - 1) // step - (lo - 1) // step))
                primes += [q for q in walked.get(h, []) if q > lo]
                primes += pow_primes_of_order(h, max(lo, 10**6 - 1), limit)
            slots = []
            for q in seeds + primes:
                e, nq = 1, q * q
                while nq <= x and pow(2, h, nq) == 1:
                    e, nq = e + 1, nq * q
                slots.append((q, e))
            prods = count._products(slots, x)
        except EffortError as exc:
            raise EffortError(
                f"{exc}; orders below {h} were completed: {sorted(groups)}",
                partial={g: sorted(groups[g]) for g in sorted(groups)},
            ) from exc
        if prods:
            groups[h] = prods
    return groups


# verified against sympy_overpseudoprimes and the published sequence data
MEMBERS_1E6 = [
    2047, 3277, 4033, 8321, 65281, 80581, 85489, 88357, 104653, 130561,
    220729, 253241, 256999, 280601, 390937, 458989, 486737, 514447,
    580337, 818201, 838861, 877099, 916327, 976873,
]


def factor_table_script():
    """scripts/factor_table.py, loaded as a module."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / "factor_table.py"
    spec = importlib.util.spec_from_file_location("factor_table", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script
