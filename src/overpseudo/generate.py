"""Constructive production of overpseudoprimes.

Two routes: the Aurifeuillian split of 2**(4k+2) + 1 into two coprime
brackets whose primitive divisors multiply into an overpseudoprime of
order 8k + 4, and direct minimization over the primitive prime-power
slots of 2**n - 1 for arbitrary n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import TRIAL_DIVISION_LIMIT, Budget, Factorization, factorize
from .errors import ContractViolationError, EffortError
from .order import _complete_factorization, _has_order, _one_order, _Orders
from .primover import _aurifeuillian_brackets, primitive_part


@dataclass(frozen=True)
class AurifeuillianPair:
    """The two brackets L, M of 2**(4k+2) + 1 = L * M with M - L = 2**(k+2)."""

    k: int
    n: int
    L: int
    M: int

    def __post_init__(self):
        if self.L * self.M != (1 << (4 * self.k + 2)) + 1:
            raise ContractViolationError("bracket product mismatch")
        if self.M - self.L != 1 << (self.k + 2):
            raise ContractViolationError("bracket difference is not 2**(k+2)")
        if gcd(self.L, self.M) != 1:
            raise ContractViolationError("brackets are not coprime")


def aurifeuillian_pair(k: int) -> AurifeuillianPair:
    if k < 1:
        raise ValueError("k must be >= 1")
    return AurifeuillianPair(k, 8 * k + 4, *_aurifeuillian_brackets(k))


@dataclass(frozen=True)
class GenerationTrace:
    """Everything the Aurifeuillian construction saw on the way to its result."""

    pair: AurifeuillianPair
    l_factorization: Factorization
    m_factorization: Factorization
    primitive_l: tuple[int, ...]
    primitive_m: tuple[int, ...]
    value: int | None


def generate_trace(k: int, budget: Budget | None = None) -> GenerationTrace:
    """Run the bracket construction and keep the intermediate factorizations.

    The product of the smallest primitive divisor of each bracket is
    verified overpseudoprime, on its two known primes, before being
    reported.  For k >= 3 both brackets are guaranteed a primitive divisor,
    so absence raises ContractViolationError; for k in {1, 2} absence is
    reported as a None value.
    """
    pair = aurifeuillian_pair(k)
    if budget is None:
        budget = Budget()
    lf = factorize(pair.L, budget)
    mf = factorize(pair.M, budget)
    if not (lf.complete and mf.complete):
        raise EffortError(f"cannot factor the Aurifeuillian brackets for k={k}")
    n_primes = _complete_factorization(pair.n, budget).primes()
    prim_l = tuple(p for p in lf.primes() if _has_order(2, p, pair.n, n_primes))
    prim_m = tuple(p for p in mf.primes() if _has_order(2, p, pair.n, n_primes))
    if not (prim_l and prim_m):
        if k >= 3:
            raise ContractViolationError(
                f"a bracket for k={k} lacks a primitive divisor"
            )
        return GenerationTrace(pair, lf, mf, prim_l, prim_m, None)
    value = prim_l[0] * prim_m[0]
    fz = Factorization(value, tuple(sorted([(prim_l[0], 1), (prim_m[0], 1)])), True)
    if not _one_order(_Orders(value, budget, fz).chains(2)):
        raise ContractViolationError(
            f"constructed value {value} failed the overpseudoprime check"
        )
    return GenerationTrace(pair, lf, mf, prim_l, prim_m, value)


def generate_overpseudoprime(k: int, budget: Budget | None = None) -> int | None:
    """Overpseudoprime of order 8k + 4 from the bracket construction.

    None when k < 3 and a bracket has no primitive divisor.
    """
    return generate_trace(k, budget).value


def least_overpseudoprime_with_order(n: int, budget: Budget | None = None) -> int | None:
    """Smallest overpseudoprime whose order of 2 is exactly n.

    This is the product of the two smallest primitive prime-power slots of
    2**n - 1 (a prime p contributes v_p(2**n - 1) slots).  Returns None when
    fewer than two slots exist, meaning no overpseudoprime has this order.

    With an incomplete factorization the minimum is still returned when it
    is provable: every unknown prime exceeds the trial-division limit, so
    it cannot undercut a second known slot at or below that limit.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if budget is None:
        budget = Budget()
    part = primitive_part(n, budget)
    slots = part.slots()
    if len(slots) >= 2 and (part.complete or slots[1] <= TRIAL_DIVISION_LIMIT):
        return slots[0] * slots[1]
    if part.complete:
        return None
    raise EffortError(
        f"cannot prove the least overpseudoprime of order {n} within budget"
    )
