"""Primitive prime divisors of 2**n - 1 and the primover cofactor.

A prime p is a primitive divisor of 2**n - 1 when the multiplicative order
of 2 mod p is exactly n.  The cofactor Pr(2**n - 1) is their product taken
with the multiplicity each prime carries inside 2**n - 1, so Wieferich
squares count fully.  When the cofactor is composite it is called a full
overpseudoprime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .arith import Budget, Factorization, factorize, is_prime
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


def _slots_of_order(h: int, primes, x: int) -> list[tuple[int, int]]:
    """Cap each prime's exponent at its admissible power q**i | 2**h - 1, q**i <= x."""
    slots = []
    for q in primes:
        e, nq = 1, q * q
        while nq <= x and pow(2, h, nq) == 1:
            e += 1
            nq *= q
        slots.append((q, e))
    return slots


def primitive_part(n: int, budget: Budget | None = None) -> PrimitivePart:
    """Extract the primitive prime powers of 2**n - 1 for n >= 2.

    Factors the cyclotomic value at 2 (exponentially smaller than 2**n - 1),
    discards the single intrinsic prime (the largest prime factor of n) when
    it divides, and checks order exactly n for every survivor.  Exponents
    n = 1 and 6 legitimately produce an empty primitive part.  For
    n = 4 (mod 8), n >= 12, the value is first split into its gcds with the
    two Aurifeuillian brackets of 2**(n/2) + 1 and each half is factored
    alone.  factorize is told that every prime is 1 (mod lcm(2, n)), which
    gives each composite cofactor a Pollard p-1 attempt before rho and ECM.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if budget is None:
        budget = Budget()
    n_primes = _complete_factorization(n, budget).primes()
    fz = _factor_reduced(n, n_primes, budget)
    for p in fz.primes():
        if not _has_order(2, p, n, n_primes):
            raise ContractViolationError(
                f"prime {p} of the reduced cyclotomic value has order != {n}"
            )
    prim = _slots_of_order(n, fz.primes(), (1 << n) - 1)
    cofactor = fz.unfactored_cofactor
    for p, e in prim:
        cofactor *= p**e
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
    if budget is None:
        budget = Budget()
    m = (1 << p) - 1
    # every prime of m has order p, so it is 1 (mod 2p) for odd p
    fz = factorize(m, budget, known=math.lcm(2, p))
    # factorize lists m itself exactly when m is prime
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
