import importlib
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import MEMBERS_1E6, sympy_overpseudoprimes
from overpseudo import (
    Budget,
    ContractViolationError,
    EffortError,
    classify,
    is_carmichael,
    is_fermat_psp,
    is_overpseudoprime_criterion,
    is_overpseudoprime_def,
    is_strong_psp,
    is_super_poulet,
    mult_order,
)


class TestOverpseudoprimeDef:
    def test_examples(self):
        assert is_overpseudoprime_def(3277)
        assert not is_overpseudoprime_def(341)
        assert not is_overpseudoprime_def(15)

    def test_trivial_inputs_return_false(self):
        assert not is_overpseudoprime_def(1)
        assert not is_overpseudoprime_def(2)
        assert not is_overpseudoprime_def(4)
        assert not is_overpseudoprime_def(97)


class TestOverpseudoprimeCriterion:
    def test_examples(self):
        assert is_overpseudoprime_criterion(2047)
        assert is_overpseudoprime_criterion(1194649)
        assert not is_overpseudoprime_criterion(4681)

    def test_fermat_failure_factors_nothing(self):
        # 3 * 563045318627147: 2**(n-1) != 1 (mod n) decides it, as in the
        # definition route
        for route in (is_overpseudoprime_criterion, is_overpseudoprime_def):
            budget = Budget()
            assert not route(1689135955881441, budget)
            assert budget.spent == 0, route

    def test_agrees_with_definition_below_2e4(self):
        budget = Budget()
        for n in range(9, 2 * 10**4, 2):
            if sympy.isprime(n):
                continue
            assert is_overpseudoprime_def(n, budget) == \
                is_overpseudoprime_criterion(n, budget), n

    def test_prime_power_reduction_matches_full_subproduct_check(self):
        # the criterion only inspects maximal prime powers; the underlying
        # condition quantifies over every divisor > 1
        budget = Budget()
        for n in range(9, 10**5, 2):
            if sympy.isprime(n):
                continue
            by_reduction = is_overpseudoprime_criterion(n, budget)
            h = mult_order(2, n, budget=budget)
            full = all(
                mult_order(2, d, budget=budget) == h
                for d in sympy.divisors(n)
                if d > 1
            )
            assert by_reduction == full, n

    @given(st.integers(9, 10**9))
    @settings(max_examples=150)
    def test_routes_agree_random(self, n):
        n |= 1
        assert is_overpseudoprime_def(n) == is_overpseudoprime_criterion(n)


class TestFermat:
    def test_examples(self):
        assert is_fermat_psp(341, 2)
        assert not is_fermat_psp(15, 2)
        assert is_fermat_psp(9, 8)

    def test_primes_and_evens_false(self):
        assert not is_fermat_psp(341, 341)
        assert not is_fermat_psp(13, 2)
        assert not is_fermat_psp(10, 3)


class TestStrong:
    def test_examples(self):
        assert is_strong_psp(2047, 2)
        assert not is_strong_psp(341, 2)
        assert is_strong_psp(3277, 2)

    def test_classic_strong_pseudoprimes(self):
        # first strong pseudoprimes to base 2
        expected = [2047, 3277, 4033, 4681, 8321, 15841, 29341]
        found = [n for n in range(9, 30000, 2) if is_strong_psp(n, 2)]
        assert found == expected


class TestSuperPoulet:
    def test_examples(self):
        assert is_super_poulet(341)
        assert not is_super_poulet(561)
        assert is_super_poulet(3277)

    def test_561_fails_at_divisor_33(self):
        assert pow(2, 33, 33) != 2

    def test_matches_divisor_definition_small(self):
        for n in range(9, 4000, 2):
            if sympy.isprime(n):
                continue
            expected = all(pow(2, d, d) == 2 for d in sympy.divisors(n) if d > 1)
            assert is_super_poulet(n) == expected, n


class TestCarmichael:
    def test_examples(self):
        assert is_carmichael(561)
        assert not is_carmichael(2047)

    def test_first_carmichael_numbers(self):
        expected = [561, 1105, 1729, 2465, 2821, 6601, 8911]
        found = [n for n in range(9, 10**4, 2) if is_carmichael(n)]
        assert found == expected

    def test_published_example_fails_korselt(self):
        # 2656 = 2**5 * 83 does not divide n - 1 (whose 2-part is 2**4)
        n = 1541955409
        assert (n - 1) % (2657 - 1) != 0
        assert not is_carmichael(n)


class TestIncompleteFactorizationGuard:
    """Predicates whose factorization of n does not complete, as mult_order's."""

    def test_raises_above_the_trial_bound(self):
        # 2**67 - 1 = 193707721 * 761838257287 > 10**12 passes the Fermat
        # pre-checks; trial division alone cannot split it
        n = (1 << 67) - 1
        for predicate in (is_carmichael, is_super_poulet,
                          is_overpseudoprime_criterion, is_overpseudoprime_def):
            with pytest.raises(EffortError):
                predicate(n, Budget(0))

    def test_primes_skip_the_factorization(self):
        p = 1000003
        for predicate in (is_carmichael, is_super_poulet,
                          is_overpseudoprime_criterion):
            assert predicate(p, Budget(0)) is False


class TestClassify:
    def test_carmichael_like_overpseudoprime(self):
        rep = classify(1541955409)
        assert rep.flags.overpseudoprime_base2 is True
        assert rep.flags.strong_psp_base2 is True
        assert rep.flags.super_poulet is True
        assert rep.flags.carmichael is False
        assert rep.h == 166
        assert rep.r == 9288888
        assert rep.verdict_basis == "both"

    def test_least_overpseudoprime_of_order_28(self):
        rep = classify(3277)
        assert rep.flags.overpseudoprime_base2 is True
        assert rep.flags.super_poulet is True
        assert rep.flags.strong_psp_base2 is True
        assert rep.flags.carmichael is False
        assert rep.h == 28

    def test_nine_has_no_pseudoprime_flags(self):
        rep = classify(9)
        flags = rep.flags
        assert flags.prime is False
        assert not any([flags.fermat_psp_base2, flags.strong_psp_base2,
                        flags.super_poulet, flags.carmichael,
                        flags.overpseudoprime_base2])
        assert (rep.r, rep.h) == (2, 6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            classify(4)
        with pytest.raises(ValueError):
            classify(1)

    def test_effort_error_carries_partial_report(self):
        p = sympy.nextprime(1 << 42)
        q = sympy.nextprime(p)
        with pytest.raises(EffortError) as err:
            classify(p * q, Budget(50))
        partial = err.value.partial
        assert partial is not None
        assert partial.flags.prime is False
        assert partial.flags.overpseudoprime_base2 is None
        assert partial.h is None

    def test_primes_are_never_overpseudoprime(self):
        for p in sympy.primerange(3, 500):
            rep = classify(p)
            assert rep.flags.prime is True
            assert rep.flags.overpseudoprime_base2 is False


class TestClassifyFromOneFactorization:
    """classify reads every flag off its factorization and one primality test."""

    def test_n_tested_for_primality_once(self, monkeypatch):
        from overpseudo import arith

        # the package re-exports the function classify under the module's name
        classify_module = importlib.import_module("overpseudo.classify")

        tested = []

        def spy(n):
            tested.append(n)
            return arith_is_prime(n)

        arith_is_prime = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", spy)
        monkeypatch.setattr(classify_module, "is_prime", spy)
        # a memo hit would skip the one test inside factorize
        monkeypatch.setattr(arith, "_factor_memo", {})
        for n in (1541955409, (1 << 67) - 1):
            tested.clear()
            rep = classify(n)
            assert rep.flags.overpseudoprime_base2 is True
            assert tested.count(n) == 1, n

    def test_flags_match_the_public_predicates(self):
        for n in range(9, 5000, 2):
            flags = classify(n).flags
            assert (flags.fermat_psp_base2, flags.strong_psp_base2,
                    flags.super_poulet, flags.carmichael) == (
                is_fermat_psp(n, 2), is_strong_psp(n, 2),
                is_super_poulet(n), is_carmichael(n)), n


class TestNoOrderStateAcrossCalls:
    """A repeated call charges what it charges in a fresh process."""

    def test_repeat_spends_the_same(self):
        # 83 * 203906404052574012401; p - 1 of the large prime needs rho
        spent = []
        for _ in range(2):
            budget = Budget()
            classify(16924231536363643029283, budget)
            spent.append(budget.spent)
        assert spent == [1790, 1790]

    def test_charge_of_a_fresh_process(self):
        # 5 * 233678182821636762067; the criterion reuses the definition's
        # orders.  A p - 1 here needs more than rho's cap, so its split ends
        # in ECM
        budget = Budget()
        classify(1168390914108183810335, budget)
        assert budget.spent == 24500


class TestImplicationChain:
    def test_members_below_1e6_are_super_poulet_and_strong(self):
        for n in MEMBERS_1E6:
            assert is_overpseudoprime_def(n)
            assert is_super_poulet(n)
            assert is_strong_psp(n, 2)
            assert is_fermat_psp(n, 2)

    def test_distinct_orders_make_members_coprime(self):
        orders = {n: mult_order(2, n) for n in MEMBERS_1E6}
        for i, a in enumerate(MEMBERS_1E6):
            for b in MEMBERS_1E6[i + 1:]:
                if orders[a] != orders[b]:
                    assert gcd(a, b) == 1, (a, b)


def test_independent_oracle_agrees_below_1e4():
    ours = [n for n in range(9, 10**4, 2) if is_overpseudoprime_def(n)]
    assert ours == sympy_overpseudoprimes(10**4)
    assert ours == [2047, 3277, 4033, 8321]
