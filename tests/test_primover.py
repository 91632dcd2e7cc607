import math

import pytest
import sympy

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
        part = primitive_part(364, Budget(1_000_000))
        assert not part.complete
        factors = dict(part.primitive_factors)
        assert factors[1093] == 2
        assert factors[4733] == 1
        assert part.unfactored > 1
        assert part.cofactor % 1093**2 == 0

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

        def spy(n, budget=None):
            factored.append(n)
            return arith_factorize(n, budget)

        arith_factorize = arith.factorize
        monkeypatch.setattr(primover, "factorize", spy)
        monkeypatch.setattr(order, "factorize", spy)
        part = primitive_part(300)
        assert len(part.primitive_factors) > 1
        assert factored.count(300) == 1

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
        omega_bound_report(364, Budget(1_000_000))
