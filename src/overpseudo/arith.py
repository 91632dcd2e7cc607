"""Exact integer arithmetic: primality, budgeted factoring, gcd/lcm.

Everything works on plain Python ints, which are arbitrary precision;
no float enters any result that is meant to be exact.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from math import gcd, lcm  # noqa: F401  (re-exported as part of the API)

from .errors import EffortError

DEFAULT_WORK_UNITS = 20_000_000
TRIAL_DIVISION_LIMIT = 1_000_000

_RHO_BLOCK = 128
# rho's share of a split: its stages r = 1, 2, ..., 4096 cost 2r units each,
# 16382 in all, when no batched gcd overshoots
_RHO_UNITS = 1 << 14
# ECM after rho: stage-1 bound, stage-2 bound and giant-step width D
_ECM_B1, _ECM_B2, _ECM_D = 400, 20_000, 210
# ECM's units, measured so that each costs at most the wall time of a rho
# unit at 64-400-bit n: 8 per ladder bit (11 modular products), 6 per point
# addition or normalization, and 3 per 2 prime pairs of stage 2 (2 products
# each); ladder bits are charged _ECM_BLOCK at a time
_ECM_BIT_UNITS = 8
_ECM_ADD_UNITS = 6
_ECM_BLOCK = 32
# Pollard p-1 ahead of rho when the primes of n are known to be 1 (mod known):
# stage-1 bound, stage-2 bound, and stage-2 primes per charge and gcd
_PM1_B1, _PM1_B2 = 1000, 50_000
_PM1_BLOCK = 512
# primes per trial-division block: one gcd with their product per block
_TRIAL_BLOCK = 256


@dataclass
class Budget:
    """Abstract work meter; one unit is roughly one Pollard-rho iteration.

    ECM's charges (per ladder bit, point addition and giant step) are set
    so that an ECM unit takes no more time than a rho iteration.

    A shared Budget threads through an operation so that callers can bound
    and report effort deterministically (never wall-clock).
    """

    limit: int = DEFAULT_WORK_UNITS
    spent: int = 0

    @property
    def remaining(self) -> int:
        return self.limit - self.spent

    def charge(self, units: int) -> None:
        """Consume units, raising EffortError once the limit is exceeded."""
        self.spent += units
        if self.spent > self.limit:
            raise EffortError(
                f"work budget exhausted ({self.spent} of {self.limit} units)"
            )

    def try_charge(self, units: int) -> bool:
        """Like charge() but returns False instead of raising."""
        if self.spent + units > self.limit:
            return False
        self.spent += units
        return True


def pow_mod(base: int, exponent: int, modulus: int) -> int:
    """base**exponent mod modulus for nonnegative exponent, modulus >= 2."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    return pow(base, exponent, modulus)


# Smallest strong pseudoprime to the listed bases exceeds the bound, so each
# rung is a deterministic primality test below its bound; no rung is covered
# by a later one with as few bases (Jaeschke, Math. Comp. 61, 1993).  Below
# TRIAL_DIVISION_LIMIT is_prime reads the sieve instead.
_MR_LADDER = (
    (9_080_191, (31, 73)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1662803)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (1 << 64, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

PROBABLE_PRIME_THRESHOLD = 1 << 64


def _mr_witness(n: int, a: int) -> bool:
    """True if odd n > 1 passes one Miller-Rabin round at base a."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    x = pow(a, d >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameter choice.

    Assumes n is odd, > 5, not a perfect square and has no tiny factors.
    """
    d = 5
    while _jacobi(d, n) != -1:
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4

    def half(x):
        return (x + n if x & 1 else x) >> 1

    k = n + 1
    s = (k & -k).bit_length() - 1
    d0 = k >> s
    u, v, qk = 1, 1, q % n
    for bit in bin(d0)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = half((u + v) % n), half((d * u + v) % n)
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Primality test: deterministic below 2**64, Baillie-PSW style above.

    Below TRIAL_DIVISION_LIMIT the answer is read off small_prime_flags();
    from there to 2**64 a Miller-Rabin rung of _MR_LADDER decides.  Above
    2**64 no counterexample to the combined test is known; callers that
    surface verdicts for such n should label them probable.
    """
    if n < 2:
        return False
    if n < TRIAL_DIVISION_LIMIT:
        # index i of the flags stands for the odd 2i + 1
        return n == 2 if n % 2 == 0 else small_prime_flags()[n // 2] == 1
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < PROBABLE_PRIME_THRESHOLD:
        for bound, bases in _MR_LADDER:
            if n < bound:
                return all(_mr_witness(n, a) for a in bases)
    if not _mr_witness(n, 2):
        return False
    r = math.isqrt(n)
    if r * r == n:
        return False
    return _strong_lucas_prp(n)


def _odd_sieve(limit: int) -> bytearray:
    """Prime flags of the odd numbers below limit: index i stands for 2i + 1.

    An odd prime p strikes from p*p with step p in index space.
    """
    size = limit // 2
    sieve = bytearray(b"\x01") * size
    sieve[:1] = b"\x00"
    for i in range(1, (math.isqrt(limit - 1) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            start = p * p // 2
            sieve[start::p] = b"\x00" * ((size - 1 - start) // p + 1)
    return sieve


@lru_cache(maxsize=1)
def small_prime_flags() -> bytearray:
    """_odd_sieve(TRIAL_DIVISION_LIMIT), cached: the one sieve below the trial-division limit.

    is_prime answers below the limit from it, small_primes() is read off
    it, and count's order scan reads off it the primality of each
    candidate below the limit before it reads the candidate's index of 2.
    """
    return _odd_sieve(TRIAL_DIVISION_LIMIT)


@lru_cache(maxsize=1)
def small_primes() -> array:
    """Primes below the trial-division limit, cached, read off small_prime_flags().

    4-byte items, a tenth of a tuple's memory, 2 put in front of the flags' odd primes.
    """
    primes = array("I", [2])
    primes.extend(compress(range(1, TRIAL_DIVISION_LIMIT, 2), small_prime_flags()))
    return primes


@lru_cache(maxsize=1024)
def _block_product(start: int, end: int) -> int:
    """Product of small_primes()[start:end], built on first use."""
    return math.prod(small_primes()[start:end])


@dataclass(frozen=True)
class Factorization:
    """Multiset of (prime, exponent) pairs plus a completeness flag.

    Invariants: factors are sorted by prime, every listed prime is prime,
    and product(p**e) * unfactored_cofactor == value.  complete is True
    iff unfactored_cofactor == 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]
    complete: bool
    unfactored_cofactor: int = 1

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def rebuild(self) -> int:
        out = self.unfactored_cofactor
        for p, e in self.factors:
            out *= p**e
        return out

    def divisors(self) -> list[int]:
        """All divisors of value, ascending; requires a complete factorization."""
        if not self.complete:
            raise ValueError("divisors need a complete factorization")
        divs = [1]
        for p, e in self.factors:
            pk = 1
            ext = []
            for _ in range(e):
                pk *= p
                ext.extend(d * pk for d in divs)
            divs.extend(ext)
        return sorted(divs)


def _rho_brent(n: int, budget: Budget) -> int | None:
    """Brent-cycle Pollard rho with deterministic parameters.

    Returns a nontrivial factor of composite n, or None once the budget
    is exhausted.  Polynomial constants are tried in a fixed order so the
    outcome never depends on randomness.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            if not budget.try_charge(r):
                return None
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                block = min(_RHO_BLOCK, r - k)
                if not budget.try_charge(block):
                    return None
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += block
            r <<= 1
        if g != n:
            return g
        # the batched gcd overshot; replay one step at a time
        g = 1
        while g == 1:
            if not budget.try_charge(1):
                return None
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
        if g != n:
            return g
        c += 1


def _xadd(x1: int, z1: int, x2: int, z2: int, xd: int, zd: int,
          n: int) -> tuple[int, int]:
    """x-only sum of two points on a Montgomery curve, given their difference."""
    u = (x1 - z1) * (x2 + z2) % n
    v = (x1 + z1) * (x2 - z2) % n
    return zd * ((u + v) ** 2 % n) % n, xd * ((u - v) ** 2 % n) % n


def _xdbl(x: int, z: int, a24: int, n: int) -> tuple[int, int]:
    """x-only double on the Montgomery curve with a24 = (A + 2) / 4."""
    s = (x + z) ** 2 % n
    d = (x - z) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t % n) % n


def _ladder(k: int, x: int, a24: int, n: int,
            budget: Budget) -> tuple[int, int, int, int] | None:
    """Montgomery's ladder: (x:z) of k*P and (k+1)*P for P = (x:1), k >= 1.

    Charges _ECM_BIT_UNITS per bit of k, a block of bits at a time; None
    once the budget runs out.
    """
    x0, z0 = x, 1
    x1, z1 = _xdbl(x, 1, a24, n)
    bits = bin(k)[3:]
    for start in range(0, len(bits), _ECM_BLOCK):
        block = bits[start:start + _ECM_BLOCK]
        if not budget.try_charge(_ECM_BIT_UNITS * len(block)):
            return None
        for bit in block:
            # _xdbl and _xadd inlined: (R0, R1) -> (2 R0, R0 + R1), with R0
            # and R1 swapped around it when the bit is 1; R1 - R0 == P
            if bit == "1":
                x0, z0, x1, z1 = x1, z1, x0, z0
            a, b = x0 + z0, x0 - z0
            u = b * (x1 + z1) % n
            v = a * (x1 - z1) % n
            w = u + v
            x1 = w * w % n
            w = u - v
            z1 = x * (w * w % n) % n
            s = a * a % n
            d = b * b % n
            t = s - d
            x0 = s * d % n
            z0 = t * (d + a24 * t % n) % n
            if bit == "1":
                x0, z0, x1, z1 = x1, z1, x0, z0
    return x0, z0, x1, z1


@lru_cache(maxsize=1)
def _ecm_plan() -> tuple[int, tuple[int, ...], int, tuple[tuple[int, ...], ...]]:
    """(lcm(1..B1), baby steps j, first giant step m0, baby indices per giant step).

    Every prime q in (B1, B2] is m*D +- j for one m and one j < D/2 prime to
    D; giant step m0 + i lists the indices of the j that pair with it.
    """
    babies = tuple(j for j in range(1, _ECM_D // 2, 2) if gcd(j, _ECM_D) == 1)
    index = {j: i for i, j in enumerate(babies)}
    pairs: dict[int, set[int]] = {}
    for q in small_primes():
        if q > _ECM_B2:
            break
        if q > _ECM_B1:
            m = (q + _ECM_D // 2) // _ECM_D
            pairs.setdefault(m, set()).add(index[abs(q - m * _ECM_D)])
    m0 = min(pairs)
    steps = tuple(tuple(sorted(pairs.get(m, ()))) for m in range(m0, max(pairs) + 1))
    return lcm(*range(1, _ECM_B1 + 1)), babies, m0, steps


def _inverses(values: list[int], n: int) -> tuple[int, list[int]]:
    """(1, inverses mod n of values) by one inversion.

    (g, []) instead when g = gcd(product of values, n) exceeds 1.
    """
    prefix = [1]
    for v in values:
        prefix.append(prefix[-1] * v % n)
    g = gcd(prefix[-1], n)
    if g != 1:
        return g, []
    inv = pow(prefix[-1], -1, n)
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = prefix[i] * inv % n
        inv = inv * values[i] % n
    return 1, out


def _ecm(n: int, budget: Budget) -> int | None:
    """Lenstra's ECM on Montgomery curves: a nontrivial factor of n, or None.

    Curves follow Suyama's parametrization at sigma = 6, 7, 8, ... in turn,
    so the outcome never depends on randomness; a curve whose gcd is n
    itself gives way to the next one.  None once the budget is exhausted.
    """
    sigma = 6
    while True:
        g = _ecm_curve(n, sigma, budget)
        if g is None or 1 < g < n:
            return g
        sigma += 1


def _ecm_curve(n: int, sigma: int, budget: Budget) -> int | None:
    """gcd(n, what one curve finds): 1 or n when it splits nothing.

    None once the budget runs out.  Stage 1 multiplies the starting point
    by lcm(1..B1) with Montgomery's ladder; stage 2 covers every prime in
    (B1, B2] by baby steps j*Q and giant steps m*D*Q (Montgomery, Math.
    Comp. 48, 1987).  Ladder bits, point additions and giant steps are
    charged before they run.
    """
    k, babies, m0, steps = _ecm_plan()
    u, v = sigma * sigma - 5, 4 * sigma
    # x = u^3 / v^3 and a24 = (v - u)^3 (3u + v) / (16 u^3 v)
    g, inv = _inverses([16 * u**3 * v**3 % n], n)
    if g != 1:
        return g
    x = 16 * u**6 * inv[0] % n
    a24 = (v - u) ** 3 * (3 * u + v) * v * v * inv[0] % n
    stage1 = _ladder(k, x, a24, n, budget)
    if stage1 is None:
        return None
    xq, zq = stage1[:2]
    g = gcd(zq, n)
    if g != 1:
        return g

    # odd multiples j*Q up to D/2 and G = D*Q, then the baby steps and G
    # brought to z = 1
    if not budget.try_charge(_ECM_ADD_UNITS * (_ECM_D // 4 + 2 + len(babies))):
        return None
    x2, z2 = _xdbl(xq, zq, a24, n)
    odd = [(xq, zq), _xadd(x2, z2, xq, zq, xq, zq, n)]
    while len(odd) <= _ECM_D // 4:
        odd.append(_xadd(*odd[-1], x2, z2, *odd[-2], n))
    points = [odd[j // 2] for j in babies] + [_xdbl(*odd[-1], a24, n)]
    g, inv = _inverses([z for _, z in points], n)
    if g != 1:
        return g
    bx = [x * i % n for (x, _), i in zip(points, inv)]
    xg = bx.pop()
    giant = _ladder(m0, xg, a24, n, budget)
    if giant is None:
        return None
    x0, z0, x1, z1 = giant
    acc = 1
    for js in steps:
        # x(m*D*Q) == x(j*Q) mod p exactly when m*D +- j kills Q mod p
        if not budget.try_charge(_ECM_ADD_UNITS + (3 * len(js) + 1) // 2):
            return None
        for i in js:
            acc = acc * (x0 - bx[i] * z0) % n
        x0, z0, x1, z1 = x1, z1, *_xadd(x1, z1, xg, 1, x0, z0, n)
    return gcd(acc, n)


@lru_cache(maxsize=1)
def _pm1_plan() -> tuple[int, array]:
    """(lcm(1..B1), the primes in (B1, B2]) for Pollard's p-1."""
    primes = small_primes()
    return (lcm(*range(1, _PM1_B1 + 1)),
            primes[bisect_right(primes, _PM1_B1):bisect_right(primes, _PM1_B2)])


def _pm1(n: int, known: int, budget: Budget) -> int | None:
    """Pollard's p-1 on n whose primes are all 1 (mod known): gcd(n, what it finds).

    1 or n when it splits nothing; None once the budget runs out.  Stage 1
    raises 3 to known * lcm(1..B1), for one unit per bit of that exponent;
    it finds each prime q of n with (q - 1) / known B1-smooth.  Stage 2
    then raises the result to each prime in (B1, B2] in turn, one unit per
    prime, charged and gcd-tested _PM1_BLOCK primes at a time (Pollard,
    1974).  Every charge is made before its work runs.
    """
    k, qs = _pm1_plan()
    e = known * k
    if not budget.try_charge(e.bit_length()):
        return None
    a = pow(3, e, n)
    g = gcd(a - 1, n)
    if g != 1:
        return g
    # x = a**q for the current prime q, stepped by powers a**gap cached by gap
    steps: dict[int, int] = {}
    x, prev = 1, 0
    for start in range(0, len(qs), _PM1_BLOCK):
        block = qs[start:start + _PM1_BLOCK]
        if not budget.try_charge(len(block)):
            return None
        acc = 1
        for q in block:
            gap = q - prev
            if gap not in steps:
                steps[gap] = pow(a, gap, n)
            x = x * steps[gap] % n
            prev = q
            acc = acc * (x - 1) % n
        g = gcd(acc, n)
        if g != 1:
            return g
    return 1


def _split(n: int, budget: Budget) -> int | None:
    """A nontrivial factor of composite n, or None once the budget is exhausted.

    Brent's rho runs first, for at most _RHO_UNITS units.  When it finds
    nothing there, the whole _RHO_UNITS is charged and ECM goes on with
    what remains.  Charging the cap makes a split that needed ECM cost at
    least _RHO_UNITS, so any budget that could pay for it gives rho the
    same cap; charges depend only on n and the remaining budget.  With
    less than _RHO_UNITS left, rho alone runs on what remains.
    """
    if budget.remaining < _RHO_UNITS:
        return _rho_brent(n, budget)
    rho = Budget(_RHO_UNITS)
    d = _rho_brent(n, rho)
    if d is not None:
        budget.spent += rho.spent
        return d
    budget.spent += _RHO_UNITS
    return _ecm(n, budget)


# complete factorize results that charged units: (n, known) -> (result, cost)
_factor_memo: dict[tuple[int, int], tuple[Factorization, int]] = {}
_FACTOR_MEMO_SIZE = 1024


def factorize(n: int, budget: Budget | None = None, known: int = 1) -> Factorization:
    """Factor n >= 1; budget exhaustion yields an incomplete result, not an error.

    known > 1 promises that every prime factor of n is 1 (mod known), as
    for the primes of order h, which are 1 (mod lcm(2, h)).  Trial division
    by the primes below TRIAL_DIVISION_LIMIT goes block by block: one gcd
    of what is left with the product of a block of _TRIAL_BLOCK primes, and
    a scan of that block only when the gcd exceeds 1.  It stops at the
    first block whose least prime p has p*p above what is left, or once a
    block leaves 1 or a prime.
    Each composite cofactor is then split while the budget lasts.  With
    known > 1 it first gets one Pollard p-1 attempt (_pm1, to the bounds
    _PM1_B1 and _PM1_B2, one unit per exponent bit and per stage-2 prime);
    a budget too small for it leaves the cofactor unfactored, so that a
    complete result never depends on p-1 having been skipped.  Then comes _split: Brent's rho for up to _RHO_UNITS units,
    then ECM on Montgomery curves, charged per ladder bit and giant step.
    Composite leftovers land multiplied into unfactored_cofactor.  Each
    cofactor is tested for primality once.  With known = 1 no p-1 runs.

    A complete result that charged units is kept in a per-process memo of
    _FACTOR_MEMO_SIZE entries, keyed by (n, known), with its cost.  The
    charges depend only on n, known and the remaining budget, so a later
    call whose remaining budget covers that cost reuses the result,
    charging the same cost; results and Budget.spent are those of a fresh
    run.  An incomplete result is not kept, and evicts nothing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if known < 1:
        raise ValueError("known must be >= 1")
    if budget is None:
        budget = Budget()
    if n == 1:
        return Factorization(1, (), True)
    hit = _factor_memo.get((n, known))
    if hit is not None and budget.remaining >= hit[1]:
        budget.spent += hit[1]
        return hit[0]
    spent0 = budget.spent

    found: dict[int, int] = {}
    m, m_prime = n, is_prime(n)
    if not m_prime:
        primes = small_primes()
        for start in range(0, len(primes), _TRIAL_BLOCK):
            if primes[start] ** 2 > m:
                # no prime below primes[start] divides m, so m is 1 or prime
                m_prime = m > 1
                break
            end = start + _TRIAL_BLOCK
            g = gcd(m, _block_product(start, end))
            if g == 1:
                continue
            for p in primes[start:end]:
                if g < p * p:
                    # g is squarefree with no prime factor below p: a prime
                    p = g
                elif g % p:
                    continue
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                found[p] = e
                g //= p
                if g == 1:
                    break
            if m > 1 and is_prime(m):
                m_prime = True
                break
    if m_prime:
        found[m] = 1
        m = 1

    unfactored = 1
    stack = [m] if m > 1 else []
    while stack:
        c = stack.pop()
        d = _pm1(c, known, budget) if known > 1 else 1
        if d is not None and not 1 < d < c:
            d = _split(c, budget)
        if d is None:
            unfactored *= c
            continue
        for part in (d, c // d):
            if is_prime(part):
                found[part] = found.get(part, 0) + 1
            else:
                stack.append(part)

    fz = Factorization(n, tuple(sorted(found.items())), unfactored == 1, unfactored)
    cost = budget.spent - spent0
    if cost and fz.complete:
        if len(_factor_memo) >= _FACTOR_MEMO_SIZE:
            del _factor_memo[next(iter(_factor_memo))]  # the oldest entry
        _factor_memo[n, known] = fz, cost
    return fz
