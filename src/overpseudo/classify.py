"""Pseudoprime taxonomy for odd numbers.

Covers Fermat and strong pseudoprimes to base 2, super-Poulet numbers,
Carmichael numbers (Korselt criterion), and overpseudoprimality through two
independent routes: the coset-count identity n == r(n) * h(n) + 1, and the
criterion that every prime-power divisor shares one multiplicative order
of 2.  Even, prime, or unit inputs return False from every predicate; a
predicate that needs n's factorization factors n under its budget and
raises EffortError when that factorization does not complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import Budget, Factorization, _mr_witness, factorize, is_prime
from .errors import ContractViolationError, EffortError
from .order import (_complete_factorization, _one_order, _Orders, _two_routes,
                    coset_count)

VERDICT_DEFINITION = "definition"
VERDICT_BOTH = "both"


@dataclass(frozen=True)
class ClassificationFlags:
    """Taxonomy verdicts; None marks a flag left undecided by budget limits."""

    prime: bool | None = None
    fermat_psp_base2: bool | None = None
    strong_psp_base2: bool | None = None
    super_poulet: bool | None = None
    carmichael: bool | None = None
    overpseudoprime_base2: bool | None = None


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    factorization: Factorization
    h: int | None
    r: int | None
    flags: ClassificationFlags
    verdict_basis: str


def is_fermat_psp(n: int, base: int) -> bool:
    """Composite odd n coprime to base with base**(n-1) == 1 (mod n)."""
    if n < 9 or n % 2 == 0 or gcd(base, n) != 1 or pow(base, n - 1, n) != 1:
        return False
    return not is_prime(n)


def is_strong_psp(n: int, base: int) -> bool:
    """Composite odd n passing one Miller-Rabin round at the given base."""
    return n >= 9 and n % 2 == 1 and _mr_witness(n, base) and not is_prime(n)


def is_super_poulet(n: int, budget: Budget | None = None) -> bool:
    """Odd composite n whose every divisor d satisfies d | 2**d - 2."""
    if n < 9 or n % 2 == 0 or pow(2, n, n) != 2 or is_prime(n):
        return False
    return _super_poulet(_complete_factorization(n, budget))


def _super_poulet(fz: Factorization) -> bool:
    """Every divisor d > 1 of a complete factorization has d | 2**d - 2."""
    return all(pow(2, d, d) == 2 for d in fz.divisors() if d > 1)


def is_carmichael(n: int, budget: Budget | None = None) -> bool:
    """Korselt criterion: odd composite, squarefree, (p-1) | (n-1) for all p | n."""
    if n < 9 or n % 2 == 0 or is_prime(n):
        return False
    return _korselt(n, _complete_factorization(n, budget))


def _korselt(n: int, fz: Factorization) -> bool:
    """Squarefree with (p-1) | (n-1) for every p, on a complete factorization of n."""
    return all(e == 1 and (n - 1) % (p - 1) == 0 for p, e in fz.factors)


def is_overpseudoprime_def(n: int, budget: Budget | None = None) -> bool:
    """Definition route: odd composite n with n == r(n) * h(n) + 1 at base 2."""
    # h | n - 1 is forced, so a failed Fermat condition decides early
    if n < 9 or n % 2 == 0 or pow(2, n - 1, n) != 1 or is_prime(n):
        return False
    r, h = coset_count(2, n, budget=budget)
    return n == r * h + 1


def is_overpseudoprime_criterion(n: int, budget: Budget | None = None) -> bool:
    """Criterion route: every prime-power divisor of n has one order of 2.

    Equal orders on the maximal prime powers p**e (checked as ord_p(2) all
    equal to some t with p**e | 2**t - 1) force the order of every divisor
    of n to be t, which is the full sub-product condition.  They also give
    2**t == 1 (mod n) and n == 1 (mod t), so n failing the base-2 Fermat
    check is decided before anything is factored.
    """
    if n < 9 or n % 2 == 0 or pow(2, n - 1, n) != 1 or is_prime(n):
        return False
    return _one_order(_Orders(n, budget).chains(2))


def classify(n: int, budget: Budget | None = None) -> ClassificationReport:
    """Full taxonomy for odd n >= 3, cross-checking both overpseudoprime routes.

    Raises EffortError (with a partial report attached) when the
    factorization does not complete, and ContractViolationError if the two
    overpseudoprime routes ever disagree.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("classify requires an odd n >= 3")
    if budget is None:
        budget = Budget()
    fz = factorize(n, budget)
    # factorize lists n itself exactly when n is prime; no flag tests it again
    prime = fz.factors == ((n, 1),)
    fermat = not prime and pow(2, n - 1, n) == 1
    strong = not prime and _mr_witness(n, 2)
    if not fz.complete:
        partial = ClassificationReport(
            n, fz, None, None,
            ClassificationFlags(prime=prime, fermat_psp_base2=fermat,
                                strong_psp_base2=strong),
            VERDICT_DEFINITION,
        )
        raise EffortError(f"incomplete factorization of {n}", partial=partial)

    r, h, by_def, by_crit = _two_routes(n, fz, budget)
    over_def, over_crit = not prime and by_def, not prime and by_crit
    if over_def != over_crit:
        raise ContractViolationError(
            f"overpseudoprime routes disagree for {n}: "
            f"definition={over_def}, criterion={over_crit}"
        )
    flags = ClassificationFlags(
        prime=prime,
        fermat_psp_base2=fermat,
        strong_psp_base2=strong,
        super_poulet=fermat and _super_poulet(fz),  # odd n: fermat iff 2**n == 2
        carmichael=not prime and _korselt(n, fz),
        overpseudoprime_base2=over_def,
    )
    return ClassificationReport(n, fz, h, r, flags, VERDICT_BOTH)
