import math
from functools import cache

import pytest
import sympy

from overpseudo import primover
from overpseudo import (
    Budget,
    ContractViolationError,
    EffortError,
    check_mersenne_dichotomy,
    cyclotomic_value,
    mult_order,
    omega_bound_report,
    primitive_part,
    primover_ratio,
)


class TestCyclotomicValue:
    def test_examples(self):
        assert cyclotomic_value(11) == 2047
        assert cyclotomic_value(108) == 68719214593
        assert cyclotomic_value(1) == 1

    def test_domain_error(self):
        with pytest.raises(ValueError):
            cyclotomic_value(0)

    def test_product_over_divisors_rebuilds_mersenne(self):
        for n in range(1, 201):
            prod = 1
            for d in sympy.divisors(n):
                prod *= cyclotomic_value(d)
            assert prod == (1 << n) - 1, n

    def test_matches_sympy_polynomial(self):
        for n in (7, 12, 28, 52, 100, 105, 364):
            assert cyclotomic_value(n) == sympy.cyclotomic_poly(n, 2)


# complete at Budget(100000) only with the Aurifeuillian halves (n = 4 mod 8)
# or the p-1 stage that knows every prime is 1 (mod lcm(2, n))
NEWLY_COMPLETE = (125, 163, 169, 191, 220, 235, 252, 265, 284, 292, 302, 307,
                  308, 316, 332, 333, 343, 356, 364, 372, 379, 380, 388, 395,
                  396)


def assert_is_primitive_part(n, part):
    """A complete part checked by sympy: it rebuilds Phi_n(2) without its
    intrinsic prime, every prime has order n, and every exponent is the
    valuation in 2**n - 1."""
    value = sympy.cyclotomic_poly(n, 2)
    intrinsic = max(sympy.primefactors(n))
    while value % intrinsic == 0:
        value //= intrinsic
    mersenne = (1 << n) - 1
    product = 1
    for p, e in part.primitive_factors:
        assert sympy.isprime(p), (n, p)
        assert pow(2, n, p) == 1, (n, p)
        assert all(pow(2, n // r, p) != 1 for r in sympy.primefactors(n)), (n, p)
        assert e == sympy.multiplicity(p, mersenne), (n, p)
        product *= p ** sympy.multiplicity(p, value)
    assert product == value, n
    assert part.cofactor == math.prod(p**e for p, e in part.primitive_factors)


class TestPrimitivePart:
    def test_order_28(self):
        part = primitive_part(28)
        assert part.primitive_factors == ((29, 1), (113, 1))
        assert part.cofactor == 3277
        assert part.complete
        assert part.is_full_overpseudoprime

    def test_zsygmondy_exception(self):
        part = primitive_part(6)
        assert part.primitive_factors == ()
        assert part.cofactor == 1
        assert part.complete
        assert not part.is_full_overpseudoprime

    def test_order_11(self):
        part = primitive_part(11)
        assert part.primitive_factors == ((23, 1), (89, 1))
        assert part.cofactor == 2047
        assert part.is_full_overpseudoprime

    def test_prime_cofactor_is_not_full(self):
        part = primitive_part(13)
        assert part.cofactor == 8191
        assert not part.is_full_overpseudoprime

    def test_domain_error(self):
        with pytest.raises(ValueError):
            primitive_part(1)

    def test_wieferich_square_carries_multiplicity(self):
        # ord_3511(2) = 1755 and 3511**2 divides 2**1755 - 1
        part = primitive_part(1755, Budget(100_000))
        assert not part.complete
        factors = dict(part.primitive_factors)
        assert factors[3511] == 2
        assert part.unfactored > 1
        assert part.cofactor % 3511**2 == 0

    def test_wieferich_primes_below_the_limit_are_the_held_pair(self):
        # below 10**6 only these two primes q have q*q | 2**(q-1) - 1, so
        # _slots_of_order runs no pow for any other prime there
        from overpseudo.arith import TRIAL_DIVISION_LIMIT

        assert primover.WIEFERICH_PRIMES == (1093, 3511)
        assert all((pow(2, q - 1, q * q) == 1) == (q in primover.WIEFERICH_PRIMES)
                   for q in sympy.primerange(TRIAL_DIVISION_LIMIT))
        assert primover._slots_of_order(364, [1093], 1093**3) == [(1093, 2)]
        assert primover._slots_of_order(1755, [3511], 3511**2 - 1) == [(3511, 1)]

    def test_factor_table_check_searches_the_wieferich_primes(self, monkeypatch):
        from _oracles import factor_table_script

        script = factor_table_script()
        assert script.check_wieferich() == []
        monkeypatch.setattr(script, "WIEFERICH_PRIMES", (1093,))
        assert script.check_wieferich() == [
            "the Wieferich primes below 1000000 are (1093, 3511), "
            "not primover.WIEFERICH_PRIMES (1093,)"]

    @pytest.mark.usefixtures("no_phi2_table")
    @pytest.mark.parametrize("stray", [7, 127])
    def test_prime_of_another_order_is_a_contract_violation(self, monkeypatch, stray):
        # ord_7(2) = 3 does not divide 28; ord_127(2) = 7 divides 28 but is not 28
        from overpseudo import primover

        reduced = primover._reduced_cyclotomic_value
        monkeypatch.setattr(primover, "_reduced_cyclotomic_value",
                            lambda n, n_primes: reduced(n, n_primes) * stray)
        with pytest.raises(ContractViolationError):
            primitive_part(28)

    def test_order_factored_once(self, monkeypatch):
        from overpseudo import arith, order, primover

        factored = []

        def spy(n, budget=None, known=1):
            factored.append(n)
            return arith_factorize(n, budget, known)

        arith_factorize = arith.factorize
        monkeypatch.setattr(primover, "factorize", spy)
        monkeypatch.setattr(order, "factorize", spy)
        monkeypatch.setattr(primover, "_tabled_factorization",
                            cache(primover._tabled_factorization.__wrapped__))
        part = primitive_part(300)
        assert len(part.primitive_factors) > 1
        assert factored.count(300) == 1
        # a tabled order is factored on its first read only
        assert primitive_part(300) == part and factored.count(300) == 1

    @pytest.mark.usefixtures("no_phi2_table")
    def test_newly_complete_at_1e5_units(self):
        for n in NEWLY_COMPLETE:
            part = primitive_part(n, Budget(100_000))
            assert part.complete, n
            assert_is_primitive_part(n, part)

    def test_aurifeuillian_halves_rebuild_the_value(self):
        for n in range(2, 401):
            value = primover._reduced_cyclotomic_value(n, sympy.primefactors(n))
            halves = primover._aurifeuillian_halves(n, value)
            if n % 8 != 4 or n == 4:
                assert halves is None, n
                continue
            a, b = halves
            assert math.gcd(a, b) == 1 and a * b == value, n

    def test_sweep_2_to_120(self, primitive_parts_120):
        for n, part in primitive_parts_120.items():
            assert part.complete
            product = part.unfactored
            for p, e in part.primitive_factors:
                assert mult_order(2, p) == n
                assert (p - 1) % n == 0
                assert ((1 << n) - 1) % p**e == 0
                assert ((1 << n) - 1) % p**(e + 1) != 0
                product *= p**e
            assert product == part.cofactor


class TestTableFirst:
    """primitive_part and the dichotomy read a tabled order from the table
    of factored Phi_n(2), for the values factoring gives without it."""

    def test_tabled_parts_match_factoring_up_to_150(self, monkeypatch):
        # the slice of the table that scripts/factor_table.py --check rebuilds
        tabled = [n for n in sorted(primover._phi2_table()) if n <= 150]
        assert len(tabled) > 100
        from_table = {n: primitive_part(n) for n in tabled}
        monkeypatch.setattr(primover, "_phi2_table", dict)
        for n in tabled:
            assert from_table[n] == primitive_part(n, Budget(10**6)), n

    def test_tabled_part_is_complete_at_no_charge(self):
        for n in sorted(primover._phi2_table()):
            if n < 400:
                budget = Budget(0)
                assert primitive_part(n, budget).complete, n
                assert budget.spent == 0, n

    def test_dichotomy_to_61_at_no_charge(self):
        verdicts = {p: check_mersenne_dichotomy(p, Budget(0)) for p in sympy.primerange(3, 62)}
        assert {p for p, v in verdicts.items() if v == "overpseudoprime"} == {
            11, 23, 29, 37, 41, 43, 47, 53, 59}
        assert {p for p, v in verdicts.items() if v == "prime"} == {
            3, 5, 7, 13, 17, 19, 31, 61}


class TestPartialEntries:
    """An order the table's budget left incomplete is read from its partial
    entry while no more than that budget is left, and factored otherwise."""

    def test_partial_entry_up_to_the_table_budget(self, monkeypatch):
        limit = primover._phi2_data()["budget"]
        for n in (137, 274, 391):
            entry = primover._phi2_partial()[n]
            for budget in (Budget(0), Budget(10**5), Budget(limit)):
                part = primitive_part(n, budget)
                assert not part.complete and budget.spent == 0, n
                assert [p for p, _ in part.primitive_factors] == [p for p, _ in entry], n

        class Factored(Exception):
            pass

        def factor_spy(n, n_primes, budget):
            raise Factored(n)

        monkeypatch.setattr(primover, "_factor_reduced", factor_spy)
        with pytest.raises(Factored):
            primitive_part(137, Budget(limit + 1))
        with pytest.raises(Factored):
            check_mersenne_dichotomy(137)

    def test_no_smaller_budget_completes_a_partial_order(self):
        # the slice scripts/factor_table.py --check rebuilds; the entry serves
        # these budgets because factoring with them cannot complete
        partial = [n for n in sorted(primover._phi2_partial()) if n <= 150]
        assert partial == [137, 149]
        for n in partial:
            for units in (0, 10**4, 10**5):
                fz = primover._factor_reduced(n, sympy.primefactors(n), Budget(units))
                assert not fz.complete, (n, units)

    def test_tampered_partial_entry_raises(self, monkeypatch):
        # 2**137 - 1 = 32032215596496435569 * 5439042183600204290159: an entry
        # of the first leaves the second, a prime, which the full check
        # catches; an entry that does not divide fails its first read too
        for entry, message in (([[32032215596496435569, 1]], "leaves a prime"),
                               ([[3, 1]], "does not multiply")):
            with pytest.raises(ContractViolationError, match=message):
                primover._prove_entry(137, entry, False)
        monkeypatch.setattr(primover, "_phi2_partial", lambda: {137: [[3, 1]]})
        monkeypatch.setattr(primover, "_tabled_factorization",
                            cache(primover._tabled_factorization.__wrapped__))
        with pytest.raises(ContractViolationError, match="does not multiply"):
            primitive_part(137, Budget(10**5))

    @pytest.fixture
    def lucas_tested(self, monkeypatch):
        """The numbers is_prime hands to its strong Lucas test."""
        from overpseudo import arith

        lucas, tested = arith._strong_lucas_prp, []

        def spy(n):
            tested.append(n)
            return lucas(n)

        monkeypatch.setattr(arith, "_strong_lucas_prp", spy)
        return tested

    def test_partial_rest_is_proved_composite_before_the_lucas_test(self, lucas_tested):
        for n in (137, 274, 391):
            primover._prove_entry(n, primover._phi2_partial()[n], False)
            fz = primover._reduced_factorization(n, Budget(0))
            assert not fz.complete and fz.unfactored_cofactor > 1, n
            assert fz.unfactored_cofactor not in lucas_tested, n

    def test_every_partial_rest_fails_fermat_at_base_3(self):
        for n, entry in primover._phi2_partial().items():
            value = primover._reduced_cyclotomic_value(n, sympy.primefactors(n))
            rest = value // math.prod(p**e for p, e in entry)
            assert pow(3, rest - 1, rest) != 1, n

    def test_prime_rest_that_passes_base_3_goes_to_bpsw(self, lucas_tested):
        # 2**83 - 1 = 167 * 57912614113275649087721: the entry taken as
        # partial without its prime above 2**64 leaves that prime
        *entry, (big, _) = primover._phi2_table()[83]
        assert big >= 1 << 64 and pow(3, big - 1, big) == 1
        with pytest.raises(ContractViolationError, match="lists a composite or leaves a prime"):
            primover._prove_entry(83, entry, False)
        assert big in lucas_tested


class TestMersenneDichotomy:
    def test_examples(self):
        assert check_mersenne_dichotomy(13) == "prime"
        assert check_mersenne_dichotomy(11) == "overpseudoprime"
        assert check_mersenne_dichotomy(29) == "overpseudoprime"

    def test_rejects_composite_exponent(self):
        with pytest.raises(ValueError):
            check_mersenne_dichotomy(4)

    def test_small_exponents(self):
        verdicts = {p: check_mersenne_dichotomy(p) for p in sympy.primerange(2, 32)}
        assert verdicts == {
            2: "prime", 3: "prime", 5: "prime", 7: "prime",
            11: "overpseudoprime", 13: "prime", 17: "prime", 19: "prime",
            23: "overpseudoprime", 29: "overpseudoprime", 31: "prime",
        }

    @pytest.mark.usefixtures("no_phi2_table")
    def test_mersenne_number_tested_for_primality_once(self, monkeypatch):
        from overpseudo import arith, primover

        tested = []

        def spy(n):
            tested.append(n)
            return arith_is_prime(n)

        arith_is_prime = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", spy)
        monkeypatch.setattr(primover, "is_prime", spy)
        m = (1 << 67) - 1
        # both primes of 2**67 - 1 lie above the trial-division table
        with pytest.raises(EffortError):
            check_mersenne_dichotomy(67, Budget(10))
        assert tested.count(m) == 1
        assert tested.count(67) == 1


class TestOmegaBound:
    def test_examples(self):
        assert omega_bound_report(11) == (2, pytest.approx(3.1797130894967665))
        assert omega_bound_report(28) == (2, pytest.approx(5.824408734942265))
        assert omega_bound_report(36) == (2, pytest.approx(6.963350530221748))

    def test_rejects_prime_cofactor(self):
        with pytest.raises(ValueError):
            omega_bound_report(13)

    def test_bound_holds_up_to_120(self, primitive_parts_120):
        for n, part in primitive_parts_120.items():
            if not part.is_full_overpseudoprime:
                continue
            omega = sum(e for _, e in part.primitive_factors)
            assert omega < n / math.log2(n), n


class TestPrimoverRatio:
    def test_prime_exponent_gives_exactly_one(self):
        assert primover_ratio(11) == 1.0
        assert primover_ratio(13) == 1.0

    def test_order_28(self):
        assert primover_ratio(28) == pytest.approx(2.397637992322646)

    def test_zsygmondy_domain_error(self):
        with pytest.raises(ValueError):
            primover_ratio(6)

    def test_composite_cofactors_classify_overpseudoprime(self, primitive_parts_120):
        from overpseudo import is_overpseudoprime_def

        for part in primitive_parts_120.values():
            if part.is_full_overpseudoprime:
                assert is_overpseudoprime_def(part.cofactor)


def test_incomplete_primitive_part_raises_effort():
    with pytest.raises(EffortError):
        omega_bound_report(1755, Budget(100_000))
