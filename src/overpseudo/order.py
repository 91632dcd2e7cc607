"""Multiplicative orders and cyclotomic-coset decompositions for odd moduli."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .arith import Budget, Factorization, factorize, is_prime
from .errors import ContractViolationError, EffortError


def _validate(base: int, modulus: int) -> None:
    if modulus < 1 or modulus % 2 == 0:
        raise ValueError("modulus must be odd and positive")
    if base < 1:
        raise ValueError("base must be positive")
    if gcd(base, modulus) != 1:
        raise ValueError(f"base {base} shares a factor with modulus {modulus}")


def _strip(base: int, t: int, primes, modulus: int) -> int:
    """Order of base mod modulus, given base**t == 1 and every prime of t in primes."""
    for f in primes:
        while t % f == 0 and pow(base, t // f, modulus) == 1:
            t //= f
    return t


def _has_order(base: int, p: int, n: int, n_primes) -> bool:
    """ord_p(base) == n, given the primes of n; base**n == 1 (mod p) must hold."""
    if pow(base, n, p) != 1:
        raise ContractViolationError(f"the order of {base} mod {p} does not divide {n}")
    return _strip(base, n, n_primes, p) == n


def _prime_unit_order(base: int, p: int, budget: Budget,
                      primes: tuple | None = None) -> tuple[int, tuple | None]:
    """(ord_p(base), primes of p - 1), p prime; factors p - 1 unless primes are given.

    base == 1 (mod p) factors nothing and passes the given primes through.
    """
    b = base % p
    if b == 1:
        return 1, primes
    if primes is None:
        fz = factorize(p - 1, budget)
        if not fz.complete:
            raise EffortError(f"cannot factor {p} - 1 to derive an order")
        primes = fz.primes()
    return _strip(b, p - 1, primes, p), primes


def prime_power_order(base: int, p: int, e: int, budget: Budget | None = None) -> int:
    """Order of base modulo p**e for odd prime p coprime to base and e >= 1."""
    _validate(base, p)
    if e < 1 or not is_prime(p):
        raise ValueError(f"need an odd prime p and e >= 1, got p = {p}, e = {e}")
    return _Orders(p**e, budget).chain(base, p, e)[-1]


def _complete_factorization(n: int, budget: Budget | None,
                            fz: Factorization | None = None) -> Factorization:
    """The given or a fresh factorization of n; complete or EffortError."""
    if fz is None:
        fz = factorize(n, budget)
    if not fz.complete:
        raise EffortError(f"incomplete factorization of {n}")
    return fz


class _Orders:
    """Orders at any base modulo the prime powers of n, for one call.

    n's factorization is completed on first need; the primes of each p - 1
    are kept once found, so no p - 1 is factored twice.
    """

    def __init__(self, n: int, budget: Budget | None,
                 factorization: Factorization | None = None):
        self.n, self.fz = n, factorization
        self.budget = Budget() if budget is None else budget
        self._unit_primes: dict[int, tuple[int, ...] | None] = {}

    def chain(self, base: int, p: int, e: int) -> list[int]:
        """Orders of base mod p, p**2, ..., p**e (nondecreasing)."""
        t, self._unit_primes[p] = _prime_unit_order(base, p, self.budget,
                                                    self._unit_primes.get(p))
        chain = [t]
        pk = p
        for _ in range(1, e):
            pk *= p
            if pow(base, t, pk) != 1:
                t *= p
            chain.append(t)
        return chain

    def chains(self, base: int):
        """Lazily, the chain of base for each (p, e) of n's factorization."""
        self.fz = _complete_factorization(self.n, self.budget, self.fz)
        for p, e in self.fz.factors:
            yield self.chain(base, p, e)


def mult_order(base: int, modulus: int, *, budget: Budget | None = None) -> int:
    """Least t >= 1 with base**t == 1 (mod modulus); mult_order(a, 1) == 1.

    Works through the factorization of the modulus so that large prime
    moduli cost a handful of modular exponentiations instead of O(modulus)
    steps; EffortError when that factorization does not complete.
    """
    _validate(base, modulus)
    if modulus == 1 or base % modulus == 1:
        return 1
    chains = _Orders(modulus, budget).chains(base)
    return lcm(*(chain[-1] for chain in chains))


@dataclass(frozen=True)
class CosetDecomposition:
    """Orbits of multiplication by `base` on {1, ..., modulus-1}.

    Each coset is sorted ascending and cosets are listed by least element;
    r is the number of cosets and h the lcm of their sizes, which equals
    mult_order(base, modulus).
    """

    modulus: int
    base: int
    cosets: tuple[tuple[int, ...], ...]
    r: int
    h: int


def cyclotomic_cosets(base: int, modulus: int) -> CosetDecomposition:
    """Direct orbit enumeration of the coset partition (O(modulus) memory)."""
    _validate(base, modulus)
    if modulus < 3:
        raise ValueError("modulus must be >= 3")
    if modulus > 100_000_000:
        raise ValueError("modulus too large for direct coset enumeration")
    b = base % modulus
    seen = bytearray(modulus)
    cosets = []
    h = 1
    for s in range(1, modulus):
        if seen[s]:
            continue
        orbit = [s]
        seen[s] = 1
        x = s * b % modulus
        while x != s:
            orbit.append(x)
            seen[x] = 1
            x = x * b % modulus
        orbit.sort()
        cosets.append(tuple(orbit))
        h = lcm(h, len(orbit))
    return CosetDecomposition(modulus, base % modulus, tuple(cosets), len(cosets), h)


def coset_count(base: int, modulus: int, *,
                budget: Budget | None = None) -> tuple[int, int]:
    """(r, h) without materializing cosets.

    r is the sum over divisors d > 1 of the modulus of phi(d) / ord_d(base);
    every orbit inside the units of Z/d has size ord_d(base), which is why
    the division is exact.  EffortError when the modulus does not factor
    completely.
    """
    _validate(base, modulus)
    if modulus < 3:
        raise ValueError("modulus must be >= 3")
    orders = _Orders(modulus, budget)
    chains = list(orders.chains(base))
    return _chain_coset_count(orders.fz, chains)


def _chain_coset_count(fz: Factorization, chains) -> tuple[int, int]:
    """coset_count's (r, h) from the order chains of a complete factorization."""
    # (phi(d), ord_d(base)) for every divisor d, built prime by prime
    divisor_data = [(1, 1)]
    h = 1
    for (p, e), chain in zip(fz.factors, chains):
        h = lcm(h, chain[-1])
        rows = []
        phi, pk = p - 1, 1
        for j in range(e):
            rows.append((phi * pk, chain[j]))
            pk *= p
        divisor_data += [
            (phi0 * phi_j, lcm(o0, o_j))
            for phi0, o0 in divisor_data
            for phi_j, o_j in rows
        ]
    r = 0
    for phi, o in divisor_data[1:]:
        r += phi // o
    return r, h


def _one_order(chains) -> bool:
    """Every chain constant and all equal (the criterion); stops at the first not."""
    t = None
    for chain in chains:
        if chain[-1] != chain[0] or t not in (None, chain[0]):
            return False
        t = chain[0]
    return True


def _two_routes(n: int, fz: Factorization, budget: Budget) -> tuple[int, int, bool, bool]:
    """(r, h, n == r*h + 1, _one_order) at base 2 from one set of order chains of fz."""
    chains = list(_Orders(n, budget, fz).chains(2))
    r, h = _chain_coset_count(fz, chains)
    return r, h, n == r * h + 1, _one_order(chains)

