import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import factor_table_script, per_prime_factorize, sieve_primes_below
from overpseudo import arith, enumerate_overpseudoprimes
from overpseudo.arith import (
    Budget,
    Factorization,
    TRIAL_DIVISION_LIMIT,
    _TRIAL_BLOCK,
    factorize,
    gcd,
    is_prime,
    lcm,
    pow_mod,
)
from overpseudo.errors import EffortError


class TestPowMod:
    def test_examples(self):
        assert pow_mod(2, 11, 2047) == 1
        assert pow_mod(2, 0, 15) == 1
        assert pow_mod(2, 4, 15) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pow_mod(2, 3, 1)
        with pytest.raises(ValueError):
            pow_mod(2, 3, 0)
        with pytest.raises(ValueError):
            pow_mod(2, -1, 7)

    @given(st.integers(0, 10**9), st.integers(0, 10**4), st.integers(0, 10**4),
           st.integers(2, 10**9))
    def test_composition(self, a, m, k, n):
        assert pow_mod(a, m * k, n) == pow_mod(pow_mod(a, m, n), k, n)


class TestIsPrime:
    def test_examples(self):
        assert is_prime(113)
        assert not is_prime(2047)
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(2)

    def test_flags_meet_the_ladder_at_the_limit(self):
        # below 10**6 the held flags answer, from it a Miller-Rabin rung; the
        # n < 2 guard keeps a negative odd n from reading the flags from the end
        primes = set(sieve_primes_below(10**6 + 201))
        wrong = [n for n in range(-10, 10**6 + 201) if is_prime(n) != (n in primes)]
        assert wrong == []

    def test_matches_sieve_exhaustive(self):
        limit = 10**7
        sieve = bytearray(b"\x01") * (limit + 1)
        sieve[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if sieve[p]:
                start = p * p
                sieve[start::p] = b"\x00" * ((limit - start) // p + 1)
        mismatches = [n for n in range(limit + 1) if is_prime(n) != bool(sieve[n])]
        assert mismatches == []

    @given(st.integers(2, 1 << 80))
    @settings(max_examples=300)
    def test_matches_sympy(self, n):
        assert is_prime(n) == sympy.isprime(n)

    def test_large_values(self):
        assert is_prime(2**89 - 1)
        assert is_prime(2**107 - 1)
        assert not is_prime(2**83 - 1)
        assert not is_prime((2**61 - 1) * (2**31 - 1))

    def test_perfect_squares_above_64_bits(self):
        p = sympy.nextprime(1 << 40)
        assert not is_prime(p * p)

    def test_ladder_bounds_are_composite(self):
        # each is the least strong pseudoprime to the bases of a ladder rung
        for n in (1373653, 25326001, 3215031751, 9080191, 4759123141):
            assert not is_prime(n), n

    def test_no_overpseudoprime_tests_prime(self):
        # every overpseudoprime is a base-2 strong pseudoprime
        members = enumerate_overpseudoprimes(10**10)
        assert len(members) == 1730
        assert sum(9_080_191 <= m < 4_759_123_141 for m in members) == 1156
        assert not any(is_prime(m) for m in members)

    def test_matches_sympy_in_the_2_7_61_range(self):
        rng = random.Random(61)
        for _ in range(20000):
            n = rng.randrange(9_080_191, 4_759_123_141)
            assert is_prime(n) == sympy.isprime(n), n


class TestFactorize:
    def test_examples(self):
        assert factorize(3277).factors == ((29, 1), (113, 1))
        assert factorize(3277).complete
        assert factorize(1541955409).factors == ((499, 1), (1163, 1), (2657, 1))
        assert factorize(8).factors == ((2, 3),)
        assert factorize(1) == Factorization(1, (), True)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(15, known=0)

    def test_matches_sympy_small(self):
        for n in range(1, 3000):
            fz = factorize(n)
            assert fz.complete
            assert dict(fz.factors) == sympy.factorint(n)

    def test_roundtrip_random_below_2_80(self):
        rng = random.Random(80801)
        for _ in range(10**4):
            n = rng.randrange(2, 1 << 80)
            fz = factorize(n, Budget(4_000))
            assert fz.value == n
            assert fz.rebuild() == n
            assert list(fz.factors) == sorted(fz.factors)
            assert fz.complete == (fz.unfactored_cofactor == 1)
            for p, e in fz.factors:
                assert e >= 1
                assert is_prime(p)

    def test_budget_exhaustion_is_encoded_not_raised(self):
        p = sympy.nextprime(1 << 40)
        q = sympy.nextprime(p)
        fz = factorize(p * q, Budget(50))
        assert not fz.complete
        assert fz.unfactored_cofactor == p * q
        assert fz.rebuild() == p * q

    def test_hard_composite_completes_with_default_budget(self):
        fz = factorize(2**101 - 1)
        assert fz.complete
        assert fz.factors == ((7432339208719, 1), (341117531003194129, 1))

    def test_divisors(self):
        assert factorize(12).divisors() == [1, 2, 3, 4, 6, 12]
        with pytest.raises(ValueError):
            Factorization(15, (), False, 15).divisors()

    def test_each_cofactor_tested_for_primality_once(self, monkeypatch):
        tested = []

        def spy(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(arith, "is_prime", spy)
        p = sympy.nextprime(1 << 64)
        assert factorize(p).factors == ((p, 1),)
        assert tested == [p]
        tested.clear()
        q = sympy.nextprime(1 << 90)
        assert factorize(1009 * q).factors == ((1009, 1), (q, 1))
        assert tested.count(1009 * q) == 1
        assert tested.count(q) == 1


class TestPrimesBelow:
    """The one odd-only sieve, held at the trial-division limit."""

    def test_one_sieve_per_process(self, monkeypatch):
        # small_primes, is_prime below the limit, the sweep above it and the
        # build of the index and the links all read the held flags; nothing
        # sieves again
        from overpseudo import count

        sieved = []
        odd_sieve = arith._odd_sieve
        monkeypatch.setattr(arith, "_odd_sieve", lambda limit: sieved.append(limit) or
                            odd_sieve(limit))
        arith.small_prime_flags.cache_clear()
        arith.small_primes.cache_clear()
        assert arith.small_primes()[-1] == 999983
        assert is_prime(999983)
        orders = count._sweep((10**6 + 100) ** 2)
        assert sum(map(len, orders.values())) == 78498 - 1 + 6
        factor_table_script().build_words()
        assert sieved == [TRIAL_DIVISION_LIMIT]

    def test_small_primes(self):
        primes = arith.small_primes()
        assert len(primes) == 78498
        assert list(primes[:3]) == [2, 3, 5] and primes[-1] == 999983

    def test_small_primes_are_read_off_the_held_flags(self):
        # one sieve below the trial-division limit: index i of the flags is 2i + 1
        flags = arith.small_prime_flags()
        assert flags is arith.small_prime_flags()
        assert len(flags) == arith.TRIAL_DIVISION_LIMIT // 2 and sum(flags) == 78497
        assert arith.small_primes() == sieve_primes_below(arith.TRIAL_DIVISION_LIMIT)
        assert [2 * i + 1 for i, f in enumerate(flags) if f] == list(arith.small_primes()[1:])


def _block_edges():
    primes = arith.small_primes()
    return [(primes[b], primes[min(b + _TRIAL_BLOCK, len(primes)) - 1])
            for b in (0, _TRIAL_BLOCK, 100 * _TRIAL_BLOCK,
                      len(primes) // _TRIAL_BLOCK * _TRIAL_BLOCK)]


class TestBlockTrialDivision:
    """factorize against the per-prime trial-division loop it replaced."""

    @staticmethod
    def assert_matches_loop(n):
        for limit in (0, arith.DEFAULT_WORK_UNITS):
            budget, want_budget = Budget(limit), Budget(limit)
            got = factorize(n, budget)
            want = per_prime_factorize(n, want_budget)
            assert (got.factors, got.complete, got.unfactored_cofactor,
                    budget.spent) == (want.factors, want.complete,
                                      want.unfactored_cofactor,
                                      want_budget.spent), n

    def test_random_below_2_80(self):
        rng = random.Random(2080)
        for _ in range(100):
            self.assert_matches_loop(rng.randrange(2, 1 << 80))

    def test_block_edge_products(self):
        rng = random.Random(256)
        for first, last in _block_edges():
            self.assert_matches_loop(first * last)
            self.assert_matches_loop(first * first)
            self.assert_matches_loop(last * last)
            self.assert_matches_loop(first * last * rng.randrange(2, 1 << 40))

    def test_prime_powers_and_smooth_values(self):
        for k in range(1, 5):
            self.assert_matches_loop(999983**k)
        for k in range(0, 40, 7):
            for j in range(0, 30, 6):
                self.assert_matches_loop(2**k * 3**j)

    def test_primes_above_2_64(self):
        for n in (sympy.nextprime(1 << 64), 2**89 - 1, sympy.nextprime(1 << 100)):
            self.assert_matches_loop(n)

    def test_trial_limit_inside_and_at_block_edges(self):
        primes = arith.small_primes()
        edge = primes[_TRIAL_BLOCK]
        middle = primes[_TRIAL_BLOCK + _TRIAL_BLOCK // 2]
        big = sympy.nextprime(1 << 40)
        for n in (edge * middle * big, primes[_TRIAL_BLOCK - 1] * edge,
                  3 * middle**2, edge * big, 1000003 * 1000033):
            self.assert_matches_loop(n)


def _two_prime_products():
    rng = random.Random(2045)
    out = []
    # both factors above the trial-division table, so rho must split them
    for small_bits, big_bits in ((21, 21), (22, 30), (24, 45), (26, 38), (28, 45)):
        p = sympy.nextprime(rng.getrandbits(small_bits) | 1 << (small_bits - 1))
        q = sympy.nextprime(rng.getrandbits(big_bits) | 1 << (big_bits - 1))
        out.append(p * q)
    return out


def _pm1_products():
    """(known, semiprimes of primes q = 1 (mod known) above the trial-division table).

    "stage1": one prime's (q - 1) / known is 1000-smooth, so stage 1 finds
    it; "stage2": it also has one prime in (1000, 50000], so stage 2 does;
    "none": both primes have a prime above 50000 in (q - 1) / known, and
    rho splits them; "both": both primes are 1000-smooth past known, so
    stage 1 returns n itself.
    """
    known = 326  # lcm(2, 163): the primes of order 163
    rng = random.Random(1974)

    def prime(cofactor):
        while True:
            m = cofactor()
            if sympy.isprime(known * m + 1):
                return known * m + 1

    def smooth():
        return math.prod(rng.sample(list(sympy.primerange(2, 1000)), 5))

    def rough():
        return sympy.nextprime(rng.randrange(1 << 17, 1 << 20))

    found = prime(smooth)
    return known, {
        "stage1": found * prime(rough),
        "stage2": prime(lambda: smooth() * sympy.nextprime(rng.randrange(2000, 49000)))
        * prime(rough),
        "none": prime(rough) * prime(rough),
        "both": found * prime(smooth),
    }


class TestPm1:
    """Pollard p-1 for n whose primes are 1 (mod known)."""

    def test_each_stage_splits_its_product(self):
        known, ns = _pm1_products()
        stage1 = (known * arith._pm1_plan()[0]).bit_length()
        for name, n in ns.items():
            arith._factor_memo.clear()
            budget = Budget()
            d = arith._pm1(n, known, budget)
            assert d is not None and n % d == 0, name
            assert (1 < d < n) == (name in ("stage1", "stage2")), name
            # stage 1 decides alone exactly when it finds something
            assert (budget.spent == stage1) == (name in ("stage1", "both")), name
            fz = factorize(n, Budget(), known)
            assert dict(fz.factors) == sympy.factorint(n), name

    def test_any_factor_divides_n(self):
        # odd composites, most with primes of no particular form
        rng = random.Random(1993)
        known, ns = _pm1_products()
        cases = [(n, known) for n in ns.values()]
        cases += [(rng.getrandbits(bits) | 1, rng.choice((1, 2, 6, 326)))
                  for bits in range(40, 200, 8)]
        for n, k in cases:
            d = arith._pm1(n, k, Budget())
            assert d is not None and n % d == 0, (n, k)

    def test_budget_runs_out_before_each_stage(self):
        known, ns = _pm1_products()
        n = ns["stage2"]
        stage1 = (known * arith._pm1_plan()[0]).bit_length()
        # too little for stage 1, then for stage 2's first block
        for limit, spent in ((stage1 - 1, 0), (stage1 + arith._PM1_BLOCK - 1, stage1)):
            budget = Budget(limit)
            assert arith._pm1(n, known, budget) is None
            assert budget.spent == spent
            # a cofactor p-1 cannot pay for stays unfactored
            arith._factor_memo.clear()
            fz = factorize(n, Budget(limit), known)
            assert (fz.complete, fz.unfactored_cofactor) == (False, n)

    def test_known_one_runs_no_pm1(self, monkeypatch):
        calls = []
        monkeypatch.setattr(arith, "_pm1", lambda *args: calls.append(args))
        arith._factor_memo.clear()
        assert factorize(_pm1_products()[1]["stage1"]).complete
        assert calls == []


class TestFactorMemo:
    """Reused factorizations against a cold run with the memo cleared."""

    @staticmethod
    def run(n, budget, known=1):
        fz = factorize(n, budget, known)
        return fz.factors, fz.complete, fz.unfactored_cofactor, budget.spent

    def cold(self, n, remaining, known=1):
        arith._factor_memo.clear()
        return self.run(n, Budget(remaining), known)

    def assert_reuse_exact(self, n, prime_at, spy, known=1):
        """Prime the memo at prime_at remaining, then compare nearby budgets."""
        arith._factor_memo.clear()
        primed = Budget(prime_at)
        fz = factorize(n, primed, known)
        cost = primed.spent
        # only a complete result is kept, with its cost
        assert arith._factor_memo.get((n, known)) == ((fz, cost) if fz.complete else None)
        assert cost > 0
        for remaining in sorted({prime_at - 1, prime_at, prime_at + 1, cost - 1, cost,
                                 cost + 1, 2 * cost, cost // 2, 1}):
            want = self.cold(n, remaining, known)
            arith._factor_memo.clear()
            factorize(n, Budget(prime_at), known)
            spy.clear()
            # spent before the call must not matter, only what remains
            got = self.run(n, Budget(remaining + 1000, spent=1000), known)
            assert got[:3] == want[:3], (n, prime_at, remaining)
            assert got[3] - 1000 == want[3], (n, prime_at, remaining)
            reused = fz.complete and remaining >= cost
            assert (spy == []) == reused, (n, prime_at, remaining)

    @pytest.fixture
    def split_calls(self, monkeypatch):
        calls = []
        split, pm1 = arith._split, arith._pm1

        def spy(n, budget):
            calls.append(n)
            return split(n, budget)

        def pm1_spy(n, known, budget):
            calls.append(n)
            return pm1(n, known, budget)

        monkeypatch.setattr(arith, "_split", spy)
        monkeypatch.setattr(arith, "_pm1", pm1_spy)
        return calls

    def test_reuse_matches_cold_run(self, split_calls):
        for n in _two_prime_products():
            cost = self.cold(n, arith.DEFAULT_WORK_UNITS)[3]
            # complete at the default budget, and budgets running out in rho
            for prime_at in (arith.DEFAULT_WORK_UNITS, cost, cost - 1,
                             cost // 3, 40):
                self.assert_reuse_exact(n, prime_at, split_calls)

    def test_incomplete_call_keeps_the_complete_entry(self, split_calls):
        for n in _two_prime_products():
            cost = self.cold(n, arith.DEFAULT_WORK_UNITS)[3]
            want = self.cold(n, cost - 1)
            arith._factor_memo.clear()
            full = factorize(n, Budget())
            assert full.complete and arith._factor_memo[n, 1][:2] == (full, cost)
            # one unit short: the cold run's incomplete result and charge,
            # and the complete entry stays
            assert self.run(n, Budget(cost - 1)) == want and not want[1]
            assert list(arith._factor_memo) == [(n, 1)]
            assert arith._factor_memo[n, 1][:2] == (full, cost)
            # so the full budget reuses it, with no split
            split_calls.clear()
            assert self.run(n, Budget()) == (full.factors, True, 1, cost)
            assert split_calls == []

    def test_three_prime_product_runs_out_between_splits(self, split_calls):
        p, q, r = (sympy.nextprime(1 << b) for b in (21, 22, 24))
        n = p * q * r
        cost = self.cold(n, arith.DEFAULT_WORK_UNITS)[3]
        first_split = self.cold(p * q, arith.DEFAULT_WORK_UNITS)[3]
        for prime_at in (cost, cost - 1, first_split, cost // 2):
            self.assert_reuse_exact(n, prime_at, split_calls)

    def test_reuse_after_ecm(self, split_calls):
        # rho gives up on the 31-bit factor; the first curve finds it
        n = 1100109161 * 672031721171
        cost = self.cold(n, arith.DEFAULT_WORK_UNITS)[3]
        assert cost > arith._RHO_UNITS
        # complete, and budgets running out in ECM's stage 1 and at its end
        for prime_at in (arith.DEFAULT_WORK_UNITS, cost, cost - 1,
                         arith._RHO_UNITS + 2000):
            self.assert_reuse_exact(n, prime_at, split_calls)

    def test_reuse_with_known(self, split_calls):
        known, ns = _pm1_products()
        stage1 = (known * arith._pm1_plan()[0]).bit_length()
        for name in ("stage2", "none"):
            n = ns[name]
            cost = self.cold(n, arith.DEFAULT_WORK_UNITS, known)[3]
            # complete, and budgets running out in p-1's stage 2 and, for
            # "none", in rho
            for prime_at in (arith.DEFAULT_WORK_UNITS, cost, cost - 1,
                             stage1 + 1):
                self.assert_reuse_exact(n, prime_at, split_calls, known)

    def test_plain_and_known_calls_are_separate_entries(self):
        known, ns = _pm1_products()
        n = ns["stage2"]
        arith._factor_memo.clear()
        plain, with_known = Budget(), Budget()
        assert factorize(n, plain) == factorize(n, with_known, known)
        assert set(arith._factor_memo) == {(n, 1), (n, known)}
        # p-1 finds the factor before rho runs
        assert plain.spent != with_known.spent
        assert arith._factor_memo[n, known][1] == with_known.spent

    def test_trial_only_calls_are_not_stored(self):
        arith._factor_memo.clear()
        for n in (2**40 * 3**7, 999983**3, sympy.nextprime(1 << 80),
                  1009 * sympy.nextprime(1 << 70)):
            assert factorize(n).complete
        # rho could not charge a single unit
        assert not factorize(_two_prime_products()[0], Budget(0)).complete
        assert arith._factor_memo == {}

    def test_entry_bound(self):
        arith._factor_memo.clear()
        size = arith._FACTOR_MEMO_SIZE
        primes = [sympy.nextprime(TRIAL_DIVISION_LIMIT)]
        while len(primes) < size + 11:
            primes.append(sympy.nextprime(primes[-1]))
        ns = [p * primes[0] for p in primes[1:]]
        for n in ns:
            factorize(n)
        assert len(arith._factor_memo) == size
        assert set(arith._factor_memo) == {(n, 1) for n in ns[-size:]}
        # an incomplete call on a stored key evicts nothing
        factorize(ns[-1], Budget(1))
        assert len(arith._factor_memo) == size


def _ecm_products():
    """Semiprimes and 3-prime products with least factors of 25-50 bits."""
    rng = random.Random(1987)

    def prime(bits):
        return sympy.nextprime(rng.getrandbits(bits) | 1 << (bits - 1))

    semiprimes = [prime(b) * prime(70) for b in (25, 30, 35, 40, 45, 50)]
    triples = [prime(b) * prime(b + 5) * prime(60) for b in (25, 35, 40)]
    return semiprimes, triples


class TestSplit:
    """The split of a composite cofactor: rho up to its cap, then ECM."""

    # (6k + 1)(12k + 1)(18k + 1) with k = 1025300833811: three 43-44-bit primes
    CHERNICK = 1396879465676400832469271696291467558089

    @pytest.fixture
    def ecm_results(self, monkeypatch):
        results = []
        ecm = arith._ecm

        def spy(n, budget):
            results.append(ecm(n, budget))
            return results[-1]

        monkeypatch.setattr(arith, "_ecm", spy)
        return results

    def test_matches_sympy(self, ecm_results):
        semiprimes, triples = _ecm_products()
        for n in semiprimes + triples + [self.CHERNICK]:
            fz = factorize(n)
            assert fz.complete, n
            if n in triples:
                # sympy's factorint takes seconds here; prime factors whose
                # product is n are its answer, by unique factorization
                assert fz.rebuild() == n and all(map(sympy.isprime, fz.primes()))
            else:
                assert dict(fz.factors) == sympy.factorint(n), n
        # every factor of 35 bits or more came from ECM
        assert len(ecm_results) >= 10 and None not in ecm_results

    def test_cold_runs_repeat_exactly(self):
        for n in (self.CHERNICK, _ecm_products()[0][4]):
            runs = []
            for _ in range(2):
                arith._factor_memo.clear()
                budget = Budget()
                runs.append((factorize(n, budget), budget.spent))
            assert runs[0] == runs[1]
            assert runs[0][1] > arith._RHO_UNITS

    def test_budget_runs_out_inside_each_stage(self, monkeypatch):
        ladders = []
        ladder = arith._ladder

        def spy(*args):
            out = ladder(*args)
            ladders.append(out is not None)
            return out

        monkeypatch.setattr(arith, "_ladder", spy)
        n = _ecm_products()[0][5]  # a 50-bit factor: no curve finds it at once
        k = arith._ecm_plan()[0]
        stage1 = arith._ECM_BIT_UNITS * (k.bit_length() - 1)
        # the budget ends in the first stage-1 ladder, then in the giant steps
        for extra, want in ((stage1 // 2, [False]), (stage1 + 1000, [True, True])):
            arith._factor_memo.clear()
            ladders.clear()
            limit = arith._RHO_UNITS + extra
            budget = Budget(limit)
            fz = factorize(n, budget)
            assert (fz.complete, fz.unfactored_cofactor) == (False, n)
            # no more than one charge (a block of ladder bits at most) is left
            block = arith._ECM_BIT_UNITS * arith._ECM_BLOCK
            assert limit - block < budget.spent <= limit
            assert ladders == want


class TestBudget:
    def test_charge_raises_past_limit(self):
        b = Budget(10)
        b.charge(10)
        with pytest.raises(EffortError):
            b.charge(1)

    def test_try_charge_does_not_overspend(self):
        b = Budget(10)
        assert b.try_charge(7)
        assert not b.try_charge(4)
        assert b.spent == 7


def test_gcd_lcm_examples():
    assert gcd(2047, 3277) == 1
    assert lcm(4, 2) == 4
    assert gcd(0, 7) == 7
    assert gcd(0, 0) == 0
    assert lcm(0, 5) == 0
