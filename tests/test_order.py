import random
from math import gcd, isqrt

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import brute_lambda, brute_order
from overpseudo.arith import Budget
from overpseudo.errors import EffortError
from overpseudo.order import (
    CosetDecomposition,
    coset_count,
    cyclotomic_cosets,
    mult_order,
    prime_power_order,
)


class TestMultOrder:
    def test_examples(self):
        assert mult_order(2, 15) == 4
        assert mult_order(2, 29) == 28
        assert mult_order(2, 1) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mult_order(2, 12)
        with pytest.raises(ValueError):
            mult_order(3, 15)

    def test_matches_brute_stepping(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(3, 2001, 2)
            a = rng.randrange(2, n)
            if gcd(a, n) != 1:
                continue
            assert mult_order(a, n) == brute_order(a, n)

    @given(st.integers(3, 10**6), st.integers(2, 10**6))
    def test_matches_sympy(self, n, a):
        n |= 1
        if gcd(a, n) != 1:
            a = 2 if gcd(2, n) == 1 else 4
        assert mult_order(a, n) == sympy.n_order(a, n)

    def test_divides_carmichael_lambda(self):
        for n in range(3, 10**4, 2):
            assert sympy.reduced_totient(n) % mult_order(2, n) == 0

    def test_brute_lambda_agrees_with_formula(self):
        for n in range(3, 400, 2):
            assert brute_lambda(n) == sympy.reduced_totient(n)

    def test_incomplete_factorization_raises(self):
        # 2**67 - 1 = 193707721 * 761838257287: trial division cannot split it
        with pytest.raises(EffortError):
            mult_order(2, (1 << 67) - 1, budget=Budget(0))


def test_prime_power_order_wieferich():
    assert prime_power_order(2, 1093, 1) == 364
    assert prime_power_order(2, 1093, 2) == 364
    assert prime_power_order(2, 1093, 3) == 364 * 1093
    assert prime_power_order(2, 3, 2) == 6


@pytest.mark.parametrize("base, p, e", [
    (2, 9, 1),   # 9 is no prime; ord_9(2) = 6
    (2, 3, 0),
    (3, 3, 2),   # base shares a factor with p
    (2, 2, 3),
    (0, 3, 1),
    (2, 3, -1),
])
def test_prime_power_order_rejects_bad_inputs(base, p, e):
    with pytest.raises(ValueError):
        prime_power_order(base, p, e)


def test_prime_power_order_matches_mult_order():
    for p in sympy.primerange(3, 60):
        for e in range(1, 4):
            for a in range(2, 8):
                if a % p:
                    assert prime_power_order(a, p, e) == mult_order(a, p**e), (a, p, e)


class TestCyclotomicCosets:
    def test_worked_example_base2_mod15(self):
        dec = cyclotomic_cosets(2, 15)
        assert dec.cosets == ((1, 2, 4, 8), (3, 6, 9, 12), (5, 10), (7, 11, 13, 14))
        assert dec.r == 4
        assert dec.h == 4

    def test_small_examples(self):
        assert cyclotomic_cosets(2, 7).cosets == ((1, 2, 4), (3, 5, 6))
        dec = cyclotomic_cosets(4, 5)
        assert dec.cosets == ((1, 4), (2, 3))
        assert (dec.r, dec.h) == (2, 2)

    def test_partition_property_random(self):
        rng = random.Random(421)
        done = 0
        while done < 1000:
            n = rng.randrange(3, 10**5, 2)
            a = rng.randrange(1, n)
            if gcd(a, n) != 1:
                continue
            done += 1
            dec = cyclotomic_cosets(a, n)
            sizes = [len(c) for c in dec.cosets]
            assert sum(sizes) == n - 1
            assert len({x for c in dec.cosets for x in c}) == n - 1
            assert dec.r == len(dec.cosets)
            assert dec.h == mult_order(a, n)
            first = dec.cosets[rng.randrange(len(dec.cosets))]
            assert set(first) == {x * a % n for x in first}
            assert list(first) == sorted(first)

    def test_cosets_ordered_by_least_element(self):
        dec = cyclotomic_cosets(2, 9)
        assert [c[0] for c in dec.cosets] == sorted(c[0] for c in dec.cosets)


class TestCosetCount:
    def test_examples(self):
        assert coset_count(2, 15) == (4, 4)
        assert coset_count(2, 2047) == (186, 11)
        assert coset_count(2, 9) == (2, 6)

    def test_formula_matches_enumeration_below_1e4(self):
        for n in range(3, 10**4, 2):
            dec = cyclotomic_cosets(2, n)
            assert coset_count(2, n) == (dec.r, dec.h)

    def test_prime_case_equal_sizes(self):
        for p in sympy.primerange(3, 10**4):
            dec = cyclotomic_cosets(2, p)
            sizes = {len(c) for c in dec.cosets}
            assert len(sizes) == 1
            assert p == dec.r * dec.h + 1

    def test_incomplete_factorization_raises_for_large_moduli(self):
        with pytest.raises(EffortError):
            coset_count(2, (1 << 67) - 1, budget=Budget(0))

    @given(st.integers(3, 10**4))
    @settings(max_examples=60)
    def test_random_base_agrees_with_enumeration(self, n):
        n |= 1
        for a in (3, 5, n - 1):
            if gcd(a, n) != 1 or a >= n:
                continue
            dec = cyclotomic_cosets(a, n)
            assert coset_count(a, n) == (dec.r, dec.h)
