from math import gcd

import pytest

from overpseudo import (
    Budget,
    EffortError,
    aurifeuillian_pair,
    generate_overpseudoprime,
    generate_trace,
    is_overpseudoprime_def,
    least_overpseudoprime_with_order,
    mult_order,
    primitive_part,
)

# smallest primitive divisor of each bracket, multiplied
GENERATED = {
    3: 3277, 4: 4033, 5: 838861, 6: 85489, 7: 80581, 8: 3605429,
    9: 120296677, 10: 20647621, 11: 280601, 12: 27118601, 13: 68719214593,
}

# true minimum over the primitive prime-power slots of 2**n - 1
LEAST_BY_ORDER = {
    28: 3277, 36: 4033, 44: 838861, 52: 8321, 60: 80581, 68: 130561,
    76: 104653, 84: 20647621, 92: 280601, 100: 818201, 108: 68719214593,
}


class TestAurifeuillianPair:
    def test_examples(self):
        pair = aurifeuillian_pair(3)
        assert (pair.L, pair.M, pair.n) == (113, 145, 28)
        pair = aurifeuillian_pair(4)
        assert (pair.L, pair.M) == (481, 545)
        pair = aurifeuillian_pair(1)
        assert (pair.L, pair.M, pair.n) == (5, 13, 12)
        assert pair.L * pair.M == 65

    def test_identities_hold_up_to_64(self):
        for k in range(1, 65):
            pair = aurifeuillian_pair(k)
            assert pair.L * pair.M == (1 << (4 * k + 2)) + 1
            assert pair.M - pair.L == 1 << (k + 2)
            assert gcd(pair.L, pair.M) == 1

    def test_domain_error(self):
        with pytest.raises(ValueError):
            aurifeuillian_pair(0)


class TestGenerate:
    def test_golden_values(self):
        for k, expected in GENERATED.items():
            assert generate_overpseudoprime(k) == expected, k

    def test_below_guarantee_reports_absence(self):
        assert generate_overpseudoprime(1) is None
        assert generate_overpseudoprime(2) is None
        trace = generate_trace(1)
        assert trace.primitive_l == ()
        assert trace.primitive_m == (13,)

    def test_trace_for_k3(self):
        trace = generate_trace(3)
        assert trace.pair.L == 113 and trace.pair.M == 145
        assert trace.primitive_l == (113,)
        assert trace.primitive_m == (29,)
        assert trace.value == 3277

    def test_invariants_k3_to_k12(self):
        values = {}
        for k in range(3, 13):
            n = 8 * k + 4
            v = generate_overpseudoprime(k)
            values[k] = v
            assert is_overpseudoprime_def(v)
            assert mult_order(2, v) == n
            least = least_overpseudoprime_with_order(n)
            assert least is not None and v >= least
        ks = sorted(values)
        for i, k1 in enumerate(ks):
            for k2 in ks[i + 1:]:
                assert gcd(values[k1], values[k2]) == 1


class TestGenerateFromKnownFactors:
    """generate_trace checks its value on the two primes it has certified."""

    @pytest.mark.parametrize("k", [27, 31])
    def test_completes_at_budget_100000(self, k):
        # factoring the value p * q would take rho past this budget
        assert generate_trace(k, Budget(100_000)) == generate_trace(k)

    def test_k14_spends_nothing(self):
        budget = Budget(100_000)
        assert generate_trace(14, budget).value is not None
        assert budget.spent == 0

    def test_values_pass_the_definition_on_a_fresh_factorization(self):
        for k in range(3, 27):
            assert is_overpseudoprime_def(generate_overpseudoprime(k)), k

    def test_order_factored_once_and_value_never(self, monkeypatch):
        from overpseudo import arith, generate, order

        factored = []

        def spy(n, budget=None):
            factored.append(n)
            return arith_factorize(n, budget)

        arith_factorize = arith.factorize
        monkeypatch.setattr(generate, "factorize", spy)
        monkeypatch.setattr(order, "factorize", spy)
        trace = generate_trace(10)
        assert trace.value == GENERATED[10]
        assert factored.count(84) == 1
        assert trace.value not in factored


class TestLeastWithOrder:
    def test_golden_values(self):
        for n, expected in LEAST_BY_ORDER.items():
            assert least_overpseudoprime_with_order(n) == expected, n

    def test_results_are_overpseudoprime_with_that_order(self):
        for n, expected in LEAST_BY_ORDER.items():
            assert is_overpseudoprime_def(expected)
            assert mult_order(2, expected) == n

    def test_orders_with_too_few_slots(self):
        assert least_overpseudoprime_with_order(6) is None
        assert least_overpseudoprime_with_order(20) is None
        assert least_overpseudoprime_with_order(2) is None

    def test_prime_exponent(self):
        assert least_overpseudoprime_with_order(11) == 2047

    def test_wieferich_square_is_least_for_order_364(self):
        assert least_overpseudoprime_with_order(364, Budget(2_000_000)) == 1194649

    @pytest.mark.usefixtures("no_phi2_table")
    def test_incomplete_part_proven_by_trial_division(self):
        # the second slot 2689 is below the trial-division limit, so the
        # unfactored cofactor's primes cannot undercut 449 * 2689
        part = primitive_part(224, Budget(0))
        assert not part.complete and part.slots()[:2] == [449, 2689]
        assert least_overpseudoprime_with_order(224, Budget(0)) == 1207361

    @pytest.mark.usefixtures("no_phi2_table")
    def test_incomplete_part_unproven_raises(self):
        with pytest.raises(EffortError):
            least_overpseudoprime_with_order(111, Budget(0))

    def test_least_for_order_52_matches_brute_force(self, oracle_members_1e5):
        of_order_52 = [n for n in oracle_members_1e5 if mult_order(2, n) == 52]
        assert of_order_52 == [8321, 85489]
        assert least_overpseudoprime_with_order(52) == min(of_order_52)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            least_overpseudoprime_with_order(1)
