"""Primitive prime divisors of 2**n - 1 and the primover cofactor.

A prime p is a primitive divisor of 2**n - 1 when the multiplicative order
of 2 mod p is exactly n.  The cofactor Pr(2**n - 1) is their product taken
with the multiplicity each prime carries inside 2**n - 1, so Wieferich
squares count fully.  When the cofactor is composite it is called a full
overpseudoprime.
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache

from .arith import (TRIAL_DIVISION_LIMIT, Budget, Factorization, factorize, is_prime,
                    small_prime_flags, small_primes)
from .errors import ContractViolationError, EffortError
from .order import _complete_factorization, _has_order, _two_routes

MERSENNE_PRIME = "prime"
MERSENNE_OVERPSEUDOPRIME = "overpseudoprime"


def cyclotomic_value(n: int) -> int:
    """Value of the n-th cyclotomic polynomial at 2, exactly.

    Computed as the product over squarefree divisors d of n, built from the
    distinct primes of n, of (2**(n/d) - 1)**((-1)**omega(d)); numerator and
    denominator are kept separate and divided once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _cyclotomic_value(n, factorize(n).primes())


def _cyclotomic_value(n: int, n_primes) -> int:
    """cyclotomic_value(n), given the distinct primes of n."""
    terms = [(1, False)]  # (d, omega(d) odd)
    for p in n_primes:
        terms += [(d * p, not odd) for d, odd in terms]
    num = den = 1
    for d, odd in terms:
        if odd:
            den *= (1 << n // d) - 1
        else:
            num *= (1 << n // d) - 1
    assert num % den == 0
    return num // den


def _reduced_cyclotomic_value(n: int, n_primes) -> int:
    """Phi_n(2) without its intrinsic prime, the largest of n's primes n_primes."""
    value = _cyclotomic_value(n, n_primes)
    intrinsic = max(n_primes)
    while value % intrinsic == 0:
        value //= intrinsic
    return value


def _aurifeuillian_brackets(k: int) -> tuple[int, int]:
    """(L, M) with 2**(4k+2) + 1 = L * M: 2**(2k+1) -+ 2**(k+1) + 1."""
    half, step = 1 << (2 * k + 1), 1 << (k + 1)
    return half - step + 1, half + step + 1


def _aurifeuillian_halves(n: int, value: int) -> tuple[int, int] | None:
    """value's gcds with the brackets of 2**(n/2) + 1, for n = 4 (mod 8), n >= 12.

    Phi_n(2) divides 2**(n/2) + 1 = L * M with L, M coprime, so the halves
    of any divisor of Phi_n(2) multiply back to it; None when they do not,
    or when n has no such split.
    """
    if n % 8 != 4 or n < 12:
        return None
    halves = tuple(math.gcd(value, b) for b in _aurifeuillian_brackets(n // 8))
    return halves if halves[0] * halves[1] == value else None


def _factor_reduced(n: int, n_primes, budget: Budget) -> Factorization:
    """Factorization of Phi_n(2) without its intrinsic prime, by its two halves when it splits.

    Every prime of it is 1 (mod lcm(2, n)), which factorize is told.
    """
    value = _reduced_cyclotomic_value(n, n_primes)
    known = math.lcm(2, n)
    halves = _aurifeuillian_halves(n, value)
    if halves is None:
        return factorize(value, budget, known=known)
    a, b = (factorize(h, budget, known=known) for h in halves)
    return Factorization(value, tuple(sorted(a.factors + b.factors)),
                         a.complete and b.complete,
                         a.unfactored_cofactor * b.unfactored_cofactor)


# SHA-256 of data/phi2_factors.json and data/orders2.zlib, as
# scripts/factor_table.py prints them after a build; a rebuilt file must
# update its digest
PHI2_SHA256 = "c82d44bd6de8c837b9667b025e369117e47d531a38578d21e7eab555c74b8de7"
ORDERS2_SHA256 = "0c5ff714f0fcec96e173f738dc419d1e7ba40cae5ebe54277c508c486076bd5e"


def _data_file(name: str, digest: str) -> bytes:
    """The bytes of data/<name>; a file whose SHA-256 is not digest raises."""
    # imported here: at module level they would add about 10 ms to the package's import
    import hashlib
    from importlib import resources

    raw = (resources.files(__package__) / "data" / name).read_bytes()
    if hashlib.sha256(raw).hexdigest() != digest:
        raise ContractViolationError(f"data/{name} does not match its SHA-256")
    return raw


@cache
def _phi2_data() -> dict:
    """data/phi2_factors.json, read on first use; a file of another digest raises."""
    import json

    return json.loads(_data_file("phi2_factors.json", PHI2_SHA256))


@cache
def _orders2() -> tuple[array, dict[int, int]]:
    """(the index of 2, the links of 2) of the primes below TRIAL_DIVISION_LIMIT.

    The index (p - 1) / ord_p(2) is aligned with small_primes(): index[j]
    belongs to small_primes()[j], and 2, which has no order, gets 0.  The
    links are {q: the next prime of q's order of 2} for each prime q below
    the limit but the largest of its order there.  data/orders2.zlib is one
    zlib stream of little-endian words: the 78497 odd primes' indices, the
    largest 27594, as unsigned 16-bit words, then the 4400 linked q,
    ascending, and the next prime of each, as unsigned 32-bit words.  Both
    are read on first use, a process's first count, and a file of another
    digest raises.  scripts/factor_table.py builds them in one pass from
    the primes of each p - 1 and checks them.
    """
    import zlib

    raw = memoryview(zlib.decompress(_data_file("orders2.zlib", ORDERS2_SHA256)))
    split = 2 * (len(small_primes()) - 1)
    index, words = array("H", [0]), array("I")
    index.frombytes(raw[:split])
    words.frombytes(raw[split:])
    if sys.byteorder == "big":
        index.byteswap()
        words.byteswap()
    half = len(words) // 2
    return index, dict(zip(words[:half], words[half:]))


@cache
def _phi2_table() -> dict[int, list[list[int]]]:
    """{n: [[p, e], ...]}, the table's complete factorizations."""
    return {int(n): factors for n, factors in _phi2_data()["factors"].items()}


@cache
def _phi2_partial() -> dict[int, list[list[int]]]:
    """{n: [[p, e], ...]}, the primes found for the orders the table's budget left incomplete."""
    return {int(n): factors for n, factors in _phi2_data()["partial"].items()}


@cache
def _phi2_scanned() -> tuple[int, int, list[int], list[int]]:
    """(below, B, orders, primes): the table's scanned section, read as stored.

    It lists every prime up to B of each order 3 <= n < below with no
    complete entry.  The two lists pair up and ascend by (order, prime):
    primes[i] has order orders[i], and an order with no prime up to B
    appears in neither.  Parsed, they hold about half what one list per
    order would.
    """
    scanned = _phi2_data()["scanned"]
    return scanned["below"], scanned["bound"], scanned["orders"], scanned["primes"]


def _checked_entry(n: int, factors, complete: bool) -> tuple[Factorization, tuple[int, ...]]:
    """(a table entry as the factored reduced Phi_n(2), the primes of n), after the cheap checks.

    The primes of n, found here, give the reduced Phi_n(2).  The entry's
    primes must ascend strictly with exponents e >= 1, and its prime powers
    must multiply to the reduced Phi_n(2), or for a partial entry divide it
    and leave a rest above 1; else ContractViolationError.
    """
    n_primes = _complete_factorization(n, None).primes()
    value = _reduced_cyclotomic_value(n, n_primes)
    primes = [p for p, _ in factors]
    if primes != sorted(set(primes)) or any(e < 1 for _, e in factors):
        raise ContractViolationError(f"table entry for Phi_{n}(2) is unsorted or has e < 1")
    rest, left = divmod(value, math.prod(p**e for p, e in factors))
    if left or (rest == 1) != complete:
        raise ContractViolationError(f"table entry for Phi_{n}(2) does not multiply to it")
    return Factorization(value, factors, complete, rest), n_primes


@cache
def _tabled_factorization(n: int) -> tuple[Factorization, tuple[int, ...]]:
    """_checked_entry of the table's entry for n, at no charge, once per process.

    It keeps the primes of n for the order check of _reduced_factorization,
    so a tabled n is factored on its first read only.  Its primality is not
    tested here: the file passed _phi2_data's digest, and the entries
    behind that digest passed _prove_entry where the table is built and
    checked.
    """
    complete = n in _phi2_table()
    factors = tuple(map(tuple, (_phi2_table() if complete else _phi2_partial())[n]))
    return _checked_entry(n, factors, complete)


def _check_entry(n: int, complete, partial) -> None:
    """An order n of the table's factored range has one entry, complete or partial.

    It must be in exactly one of the containers complete and partial; else
    ContractViolationError.
    """
    if (n in complete) == (n in partial):
        kind = "a complete and a partial entry" if n in complete else "no entry"
        raise ContractViolationError(f"the table has {kind} for Phi_{n}(2)")


def _orders_below(root: int) -> dict[int, list[int]]:
    """{h: the odd primes p <= root of order h below TRIAL_DIVISION_LIMIT, ascending}.

    Read off _orders2()'s index: p has order (p - 1) / i_p.
    """
    primes, index = small_primes(), _orders2()[0]
    orders: dict[int, list[int]] = {}
    # 2, index 0, has no order; the view reads the index without a copy
    for p, i in zip(primes[1:bisect_right(primes, root)], memoryview(index)[1:]):
        orders.setdefault((p - 1) // i, []).append(p)
    return orders


def _known_reader(listed: bool = True):
    """A reader of the primes of an order known with no order test, over the stores as they are.

    The reader, known(h, lo, limit, seed=None) with lo >= 0, gives (those
    primes of order h in (lo, limit], ascending; the candidates left, the
    odd q = 1 (mod h) in (max(lo, B), limit]; B, up to which they are all).
    An interval with no candidate gives ([], 0, None) and reads nothing.
    B is None when they are all: 3 for h = 2, none for h = 1, a complete
    entry's primes, read through _tabled_factorization.  Any other order
    below the scanned section's limit, partial or untabled, lists its
    primes there, found by bisection and checked where the table is built,
    up to the section's bound B; such an order inside the table's factored
    range goes through _check_entry, as one with no entry means the file's
    sections disagree.  An order from the limit up lists none, B = 0.
    Where candidates in (max(lo, B), limit] lie below TRIAL_DIVISION_LIMIT,
    one walk of _orders2()'s links gives their primes: from seed, a prime
    of order h at or below lo, or with no seed from the first prime of
    order h among them, found by stepping through them until one is prime
    by small_prime_flags() and has index (q - 1) / h.

    The stores are fetched when the reader is built, and count builds one
    per count, so a count sees a table or section hidden before it.  With
    listed False the table and the section are not read and no order lists
    any prime: scripts/factor_table.py builds the section from the links.
    """
    table, below = {}, 0
    if listed:
        table, (below, bound, orders, listing) = _phi2_table(), _phi2_scanned()
        least, most = _phi2_data()["orders"]
    index, links = _orders2()

    def known(h: int, lo: int, limit: int,
              seed: int | None = None) -> tuple[list[int], int, int | None]:
        step = h if h % 2 == 0 else 2 * h
        # the least q = 1 (mod step) above lo and above 1, the first candidate
        first = lo + 1 + -lo % step if lo else step + 1
        if limit < first:
            return [], 0, None
        # a hidden section has below 0, so the table comes first
        if h in table:
            return [q for q in _tabled_factorization(h)[0].primes() if lo < q <= limit], 0, None
        if h < 3:
            return ([3] if h == 2 and lo < 3 <= limit else []), 0, None
        got, upto = [], 0
        if h < below:
            if least <= h <= most:
                _check_entry(h, table, _phi2_partial())
            i = bisect_left(orders, h)
            j = bisect_right(orders, h, i)
            got = listing[bisect_right(listing, lo, i, j):bisect_right(listing, limit, i, j)]
            upto = bound
            if upto > lo:
                lo, first = upto, upto + 1 + -upto % step
                if limit < first:
                    return got, 0, upto
        if first < TRIAL_DIVISION_LIMIT:
            if seed is None:
                flags, primes = small_prime_flags(), small_primes()
                # flags[i] stands for 2i + 1, so flags[0] for q = 1; none found: limit + 1
                last = min(limit, TRIAL_DIVISION_LIMIT - 1)
                seed = next((q for q in range(first, last + 1, step)
                             if flags[q >> 1] and index[bisect_left(primes, q)] * h == q - 1),
                            limit + 1)
            q = seed
            while q <= limit:
                if lo < q:
                    got.append(q)
                # a prime with no link is the largest of its order below the limit
                q = links.get(q, limit + 1)
        return got, (limit - first) // step + 1, upto

    return known


def _prove_entry(n: int, factors, complete: bool) -> None:
    """A table entry's full check: _checked_entry's, every factor prime, a partial rest composite.

    scripts/factor_table.py --check runs it on every entry.  A partial
    entry's rest, a product of primes of order n, passes is_prime's base-2
    round, which leaves the Lucas test to run to its end; a Fermat test at
    base 3 proves it composite first, and is_prime decides only a rest that
    passes it.
    """
    rest = _checked_entry(n, factors, complete)[0].unfactored_cofactor
    # 3 has order 2, so it divides no rest and a failed base-3 test proves a
    # composite; a complete entry's rest 1 gives pow 0
    if not all(is_prime(p) for p, _ in factors) or (pow(3, rest - 1, rest) == 1
                                                    and is_prime(rest)):
        raise ContractViolationError(f"table entry for Phi_{n}(2) lists a composite "
                                     "or leaves a prime")


def _reduced_factorization(n: int, budget: Budget, n_primes=None) -> Factorization:
    """Factored Phi_n(2) without its intrinsic prime: the table's entry, else _factor_reduced's.

    A partial entry serves only a budget with no more than the table's
    budget B left.  Every charge of a run that completes with fewer units
    also succeeds under B, along the same steps, so such a call cannot
    complete either; it gets the primes B found, at no charge.  Any other
    n is factored under the budget, unless its primes n_primes are given.
    Either way every prime of the result must have order n; else
    ContractViolationError.
    """
    if n in _phi2_table() or (n in _phi2_partial()
                              and budget.remaining <= _phi2_data()["budget"]):
        fz, n_primes = _tabled_factorization(n)
    else:
        n_primes = n_primes or _complete_factorization(n, budget).primes()
        fz = _factor_reduced(n, n_primes, budget)
    for p in fz.primes():
        if not _has_order(2, p, n, n_primes):
            raise ContractViolationError(
                f"prime {p} of the reduced cyclotomic value has order != {n}"
            )
    return fz


@dataclass(frozen=True)
class PrimitivePart:
    """Primitive prime powers of 2**n - 1 and their product.

    primitive_factors holds (p, v) with v the p-adic valuation of 2**n - 1.
    cofactor is the product of those prime powers times any unfactored
    remainder; with complete=True it equals Pr(2**n - 1) exactly.
    is_full_overpseudoprime is only asserted for complete results.
    """

    n: int
    primitive_factors: tuple[tuple[int, int], ...]
    cofactor: int
    complete: bool
    unfactored: int
    is_full_overpseudoprime: bool

    def slots(self) -> list[int]:
        """Known primitive primes repeated with multiplicity, ascending."""
        out: list[int] = []
        for p, e in self.primitive_factors:
            out.extend([p] * e)
        return out


# The Wieferich primes to base 2 below TRIAL_DIVISION_LIMIT: the primes q
# there with q*q | 2**(q - 1) - 1.  scripts/factor_table.py --check and the
# tests search every prime below the limit for another.
WIEFERICH_PRIMES = (1093, 3511)


def _exponent_cap(h: int, q: int, x: int) -> int:
    """The largest e with q**e | 2**h - 1 and q**e <= x, for a prime q of order h.

    q*q | 2**h - 1 with h | q - 1 makes q a Wieferich prime, so below
    TRIAL_DIVISION_LIMIT every prime but WIEFERICH_PRIMES has e = 1 with no
    pow; from the limit up each power is tested.
    """
    e, nq = 1, q * q
    if q < TRIAL_DIVISION_LIMIT and q not in WIEFERICH_PRIMES:
        return e
    while nq <= x and pow(2, h, nq) == 1:
        e += 1
        nq *= q
    return e


def _slots_of_order(h: int, primes, x: int) -> list[tuple[int, int]]:
    """Cap each prime of order h at its admissible power q**i | 2**h - 1, q**i <= x."""
    return [(q, _exponent_cap(h, q, x)) for q in primes]


def primitive_part(n: int, budget: Budget | None = None) -> PrimitivePart:
    """Extract the primitive prime powers of 2**n - 1 for n >= 2.

    Takes the cyclotomic value at 2 (exponentially smaller than 2**n - 1)
    without its intrinsic prime (the largest prime factor of n), factored
    by _reduced_factorization, which checks order exactly n for every
    prime of it.  Exponents n = 1 and 6 legitimately produce an empty
    primitive part.  A tabled n reads its factors at no charge, and is
    factored once per process, on that read.  Any other n is factored in its
    two Aurifeuillian halves when n = 4 (mod 8), n >= 12, each prime known
    to be 1 (mod lcm(2, n)), which gives each composite cofactor a Pollard
    p-1 attempt before rho and ECM.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    budget = Budget() if budget is None else budget
    fz = _reduced_factorization(n, budget)
    prim = _slots_of_order(n, fz.primes(), (1 << n) - 1)
    cofactor = fz.unfactored_cofactor * math.prod(p**e for p, e in prim)
    omega = sum(e for _, e in prim)
    return PrimitivePart(
        n, tuple(prim), cofactor, fz.complete, fz.unfactored_cofactor,
        fz.complete and omega >= 2,
    )


def check_mersenne_dichotomy(p: int, budget: Budget | None = None) -> str:
    """Classify 2**p - 1 for prime p as "prime" or "overpseudoprime".

    Any other outcome raises ContractViolationError; both overpseudoprime
    routes must agree for the composite case.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    budget = Budget() if budget is None else budget
    m = (1 << p) - 1
    # for prime p, Phi_p(2) is m itself and has no intrinsic prime
    fz = _reduced_factorization(p, budget, (p,))
    # the factorization, tabled or not, lists m itself exactly when m is prime
    if fz.factors == ((m, 1),):
        return MERSENNE_PRIME
    if not fz.complete:
        raise EffortError(f"cannot factor 2**{p} - 1 within budget")
    _, _, by_def, by_crit = _two_routes(m, fz, budget)
    if by_def and by_crit:
        return MERSENNE_OVERPSEUDOPRIME
    raise ContractViolationError(
        f"2**{p} - 1 is neither prime nor overpseudoprime "
        f"(definition={by_def}, criterion={by_crit})"
    )


def _omega_bound(part: PrimitivePart) -> tuple[int, float]:
    if not part.complete:
        raise EffortError(f"primitive part of 2**{part.n} - 1 is incomplete")
    if not part.is_full_overpseudoprime:
        raise ValueError(f"Pr(2**{part.n} - 1) is not composite")
    omega = sum(e for _, e in part.primitive_factors)
    return omega, part.n / math.log2(part.n)


def _ratio(part: PrimitivePart) -> float:
    if not part.complete:
        raise EffortError(f"primitive part of 2**{part.n} - 1 is incomplete")
    if part.cofactor == 1:
        raise ValueError(f"2**{part.n} - 1 has no primitive prime divisor")
    return math.log((1 << part.n) - 1) / math.log(part.cofactor)


def omega_bound_report(n: int, budget: Budget | None = None) -> tuple[int, float]:
    """(Omega(Pr(2**n - 1)), n / log2(n)) for a full overpseudoprime cofactor."""
    return _omega_bound(primitive_part(n, budget))


def primover_ratio(n: int, budget: Budget | None = None) -> float:
    """ln(2**n - 1) / ln(Pr(2**n - 1)); 1.0 exactly when n is prime.

    Reported as an empirical exponent only; the constant that bounds it is
    not computable here.
    """
    return _ratio(primitive_part(n, budget))
