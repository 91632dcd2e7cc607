"""Overpseudoprimality to an arbitrary base and least-witness searches.

A base a with gcd(a, n) = 1 is a witness for the odd composite n when n
fails n == r_a(n) * h_a(n) + 1 at base a.  Bases 1 and n - 1 can never
witness (singleton cosets, and pairing x with n - x, respectively), so the
scan runs over 2 <= a <= n - 2.  Bases sharing a factor with n are skipped
and tallied; the coset definition does not cover them.

A scan decides each base by the Fermat check and then by equal orders mod
every prime power of n, stopping at the first prime that differs; it
factors each p - 1 of n at most once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import Budget, factorize, is_prime
from .order import _complete_factorization, _one_order, _Orders


@dataclass(frozen=True)
class WitnessRecord:
    """Least-witness scan outcome; witness is None if the scan range ran out."""

    n: int
    witness: int | None
    bases_checked: int
    skipped_noncoprime: int


def _validate_composite(n: int) -> None:
    if n < 9 or n % 2 == 0 or is_prime(n):
        raise ValueError("n must be an odd composite")


def is_overpseudoprime_base(n: int, a: int, budget: Budget | None = None) -> bool:
    """True iff n == r_a(n) * h_a(n) + 1 for the coset structure of base a.

    r_a = sum of phi(d) / ord_d(a) over d | n, d > 1, and those phi(d) sum
    to n - 1, so this holds iff every ord_{p**j}(a) is the same.
    """
    _validate_composite(n)
    if not 1 <= a <= n - 1:
        raise ValueError("base must lie in [1, n-1]")
    if gcd(a, n) != 1:
        raise ValueError("base must be coprime to n")
    return _passes(a, _Orders(n, budget))


def _passes(a: int, orders: _Orders) -> bool:
    """n == r_a * h_a + 1 for n = orders.n, by Fermat and then equal orders."""
    # h_a | n - 1 is forced, so a failed Fermat condition decides early
    return pow(a, orders.n - 1, orders.n) == 1 and _one_order(orders.chains(a))


def least_witness(n: int, budget: Budget | None = None) -> WitnessRecord:
    """Scan a = 2, 3, ... for the least base witnessing n.

    Noncoprime bases are skipped.  If no coprime base below n - 1
    witnesses, the record carries witness=None.
    """
    _validate_composite(n)
    if budget is None:
        budget = Budget()
    orders = _Orders(n, budget, _complete_factorization(n, budget))
    checked = skipped = 0
    for a in range(2, n - 1):
        if gcd(a, n) != 1:
            skipped += 1
            continue
        checked += 1
        if not _passes(a, orders):
            return WitnessRecord(n, a, checked, skipped)
    return WitnessRecord(n, None, checked, skipped)


def common_witness(ns, a_max: int, budget: Budget | None = None) -> int | None:
    """Least a <= a_max witnessing every n in ns, or None.

    A base sharing a factor with some n does not count as witnessing that
    n, matching the skip convention of least_witness.  Bases beyond n act
    through their residue (the coset structure only sees a mod n).
    """
    ns = list(ns)
    if not ns:
        raise ValueError("ns must be nonempty")
    for n in ns:
        _validate_composite(n)
    if budget is None:
        budget = Budget()
    orders = {n: _Orders(n, budget, factorize(n, budget)) for n in ns}

    def witnesses(a: int, n: int) -> bool:
        return gcd(a, n) == 1 and not _passes(a % n, orders[n])

    for a in range(2, a_max + 1):
        if all(witnesses(a, n) for n in ns):
            return a
    return None
