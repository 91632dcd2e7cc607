import random
from math import gcd

import pytest
import sympy

from _oracles import MEMBERS_1E6
from overpseudo import (
    Budget,
    EffortError,
    WitnessRecord,
    common_witness,
    coset_count,
    cyclotomic_cosets,
    is_overpseudoprime_base,
    least_witness,
)


class TestIsOverpseudoprimeBase:
    def test_carmichael_like_example(self):
        assert is_overpseudoprime_base(1541955409, 2) is True
        assert is_overpseudoprime_base(1541955409, 3) is False

    def test_base_n_minus_1_always_true(self):
        for n in (9, 15, 341, 561, 2047):
            assert is_overpseudoprime_base(n, n - 1)

    def test_base_1_always_true(self):
        for n in (9, 15, 341):
            assert is_overpseudoprime_base(n, 1)

    def test_structural_bases_random(self):
        rng = random.Random(1713)
        done = 0
        while done < 500:
            n = rng.randrange(9, 10**5, 2)
            if sympy.isprime(n):
                continue
            done += 1
            assert is_overpseudoprime_base(n, 1)
            assert is_overpseudoprime_base(n, n - 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            is_overpseudoprime_base(15, 3)
        with pytest.raises(ValueError):
            is_overpseudoprime_base(17, 2)
        with pytest.raises(ValueError):
            is_overpseudoprime_base(16, 3)
        with pytest.raises(ValueError):
            is_overpseudoprime_base(15, 0)

    def test_base_2_matches_classifier(self):
        from overpseudo import is_overpseudoprime_def

        for n in range(9, 3000, 2):
            if sympy.isprime(n):
                continue
            assert is_overpseudoprime_base(n, 2) == is_overpseudoprime_def(n)

    @staticmethod
    def small_cases(limit):
        for n in range(9, limit, 2):
            if sympy.isprime(n):
                continue
            for a in range(2, min(20, n - 2) + 1):
                if gcd(a, n) == 1:
                    yield n, a

    def test_criterion_matches_coset_identity_below_1e4(self):
        for n, a in self.small_cases(10**4):
            r, h = coset_count(a, n)
            assert is_overpseudoprime_base(n, a) == (n == r * h + 1), (n, a)

    def test_criterion_matches_coset_enumeration_below_1000(self):
        # cyclotomic_cosets walks the orbits and derives no order chains
        for n, a in self.small_cases(1000):
            dec = cyclotomic_cosets(a, n)
            assert is_overpseudoprime_base(n, a) == (n == dec.r * dec.h + 1), (n, a)


class TestLeastWitness:
    def test_examples(self):
        assert least_witness(1541955409).witness == 3
        assert least_witness(9).witness == 2
        assert least_witness(341).witness == 2

    def test_record_fields(self):
        rec = least_witness(1541955409)
        assert rec.bases_checked == 2
        assert rec.skipped_noncoprime == 0
        rec = least_witness(9)
        assert rec.bases_checked == 1
        assert rec.skipped_noncoprime == 0

    def test_base_2_is_never_skipped_for_odd_n(self):
        rec = least_witness(15)
        assert rec.witness == 2
        assert rec.skipped_noncoprime == 0
        rec2 = least_witness(25)
        assert rec2.witness == 2

    def test_witness_2_iff_not_overpseudoprime_base2(self):
        for n in range(9, 2000, 2):
            if sympy.isprime(n):
                continue
            rec = least_witness(n)
            if is_overpseudoprime_base(n, 2):
                assert rec.witness is None or rec.witness >= 3
            else:
                assert rec.witness == 2

    def test_enumerated_members_need_base_3(self):
        for n in MEMBERS_1E6:
            rec = least_witness(n)
            assert rec.witness == 3
            assert rec.bases_checked == 2

    def test_domain_error(self):
        with pytest.raises(ValueError):
            least_witness(13)

    @pytest.mark.parametrize("n, record", [
        (1541955409, WitnessRecord(1541955409, 3, 2, 0)),
        # an overpseudoprime above 2**64
        (2**67 - 1, WitnessRecord(2**67 - 1, 3, 2, 0)),
    ])
    def test_n_tested_for_primality_at_most_twice(self, monkeypatch, n, record):
        from overpseudo import arith, witness

        tested = []

        def spy(m):
            tested.append(m)
            return arith_is_prime(m)

        arith_is_prime = arith.is_prime
        for module in (arith, witness):
            monkeypatch.setattr(module, "is_prime", spy)
        assert least_witness(n) == record
        # once when validating n, once inside factorize
        assert tested.count(n) <= 2

    def test_incomplete_factorization_raises(self):
        # both primes lie above the trial-division table and rho gets no units
        with pytest.raises(EffortError):
            least_witness(1000003 * 1000033, Budget(0))
        # below TRIAL_DIVISION_LIMIT**2 trial division alone completes
        assert least_witness(999983 * 1000003, Budget(0)).witness == 2


class TestCommonWitness:
    def test_examples(self):
        assert common_witness([9, 341], 10) == 2
        assert common_witness([1541955409], 2) is None
        assert common_witness([15], 10) == 2

    def test_noncoprime_base_does_not_witness(self):
        # 3 witnesses 341 but divides 15, so the pair needs a larger base
        assert common_witness([15, 341], 10) == 2
        assert common_witness([9, 15], 10) == 2

    def test_gcd_skip_convention(self):
        # for n = 9 alone, base 3 is skipped: it cannot be the answer
        assert common_witness([9], 10) == 2

    def test_bases_beyond_smallest_member_act_by_residue(self):
        # 2047 is overpseudoprime to bases 2, 4, 8; gcds block 3, 5, 6, 7,
        # 9, 10, 11, 12; the scan must walk past 9 - 1 without erroring
        assert common_witness([9, 25, 49, 341, 2047], 20) == 13

    def test_empty_domain_error(self):
        with pytest.raises(ValueError):
            common_witness([], 10)

    def test_each_p_minus_1_factored_once(self, monkeypatch):
        from overpseudo import order

        factored = []
        factorize = order.factorize

        def spy(n, budget=None):
            factored.append(n)
            return factorize(n, budget)

        monkeypatch.setattr(order, "factorize", spy)
        assert common_witness([561, 2047], 10) == 5
        # 561 = 3 * 11 * 17: every base stops at 11, so 16 is never factored;
        # 2047 = 23 * 89: bases 2 and 4 share the primes of 22 and 88
        assert sorted(factored) == [2, 10, 22, 88]
