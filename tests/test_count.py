import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import zlib
from bisect import bisect_right
from functools import cache
from pathlib import Path

import pytest
from sympy import divisors, isprime, mobius, n_order, primefactors, primerange

from _oracles import (MEMBERS_1E6, brute_overpseudoprimes, factor_table_script,
                      per_order_complete, pow_primes_of_order, sieve_primes_below,
                      sympy_primes_of_order, walked_primes)
from overpseudo import count as count_module
from overpseudo import primover
from overpseudo import (
    Budget,
    ContractViolationError,
    EffortError,
    bound_report,
    bound_report_csv,
    enumerate_overpseudoprimes,
    is_overpseudoprime_def,
    mult_order,
    ov_count,
    ov_count_by_order,
    ov_count_upto_order,
    primitive_part,
)


class TestEnumerate:
    def test_examples(self):
        assert enumerate_overpseudoprimes(2047) == [2047]
        assert enumerate_overpseudoprimes(5000) == [2047, 3277, 4033]
        assert enumerate_overpseudoprimes(100) == []

    def test_matches_oracle_below_1e4(self):
        assert enumerate_overpseudoprimes(10**4) == brute_overpseudoprimes(10**4)

    def test_members_below_1e6(self):
        assert enumerate_overpseudoprimes(10**6) == MEMBERS_1E6

    def test_deterministic(self):
        assert enumerate_overpseudoprimes(10**5) == enumerate_overpseudoprimes(10**5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            enumerate_overpseudoprimes(2)

    @pytest.mark.usefixtures("no_scanned_section")
    def test_budget_exhaustion_names_completed_orders(self):
        # every order below 10**4 is read from the table, at no charge, so
        # the section is hidden: then 3e6 scans the partial orders, and runs
        # out at order 243
        with pytest.raises(EffortError) as err:
            enumerate_overpseudoprimes(3 * 10**6, Budget(5))
        assert "orders below 243 were completed" in str(err.value)
        # the orders it names, with their members ascending, by mult_order
        partial = err.value.partial
        assert f"were completed: {list(partial)}" in str(err.value)
        members = ov_count(3 * 10**6).members
        assert partial == {h: [m for m in members if mult_order(2, m) == h]
                           for h in sorted({mult_order(2, m) for m in members}) if h < 243}
        assert partial


@cache
def _primes_below_1e6():
    return frozenset(sieve_primes_below(10**6))


def reduced_phi2(h):
    """Phi_h(2) by the Moebius product over the divisors of h, without h's largest prime."""
    num = den = 1
    for d in divisors(h):
        mu = mobius(h // d)
        if mu == 1:
            num *= 2**d - 1
        elif mu == -1:
            den *= 2**d - 1
    value, r = num // den, max(primefactors(h))
    while value % r == 0:
        value //= r
    return value


def candidates_above(h, lo, limit):
    """The odd candidates q = 1 (mod h) in (lo, limit] that a scan of order h tests."""
    first = 2 * h + 1 if h % 2 else h + 1
    candidates = range(first, limit + 1, first - 1)
    return candidates[bisect_right(candidates, lo):]


def walk_and_scan(h, lo, limit):
    """The primes of order h in (lo, limit] by the walk of the index of 2
    below 10**6, the oracle, then count's scan, its order tests from there up."""
    below = walked_primes(lo, {h: limit}).get(h, [])
    return below + count_module._scan(h, lo, limit, Budget())


@pytest.fixture
def links_followed(monkeypatch):
    """Count's lookups in primover._orders2's links, recorded in order as
    (q, the next prime of q's order, or None where q is the last)."""
    followed = []
    index, links = primover._orders2()

    class Recording(dict):
        def get(self, q, default=None):
            followed.append((q, links.get(q)))
            return links.get(q, default)

    recording = Recording()
    monkeypatch.setattr(primover, "_orders2", lambda: (index, recording))
    return followed


class TestPrimesOfOrder:
    def test_matches_scan_oracle_on_both_paths(self, monkeypatch):
        # with the table, a tabled order with a candidate reads its entry, a
        # partial order reads the scanned section, below its bound at every
        # limit here; every other order h >= 3 scans, and sieves from 8
        # candidates on
        looked_up, sieved = [], []
        lookup, sieve = primover._tabled_factorization, count_module._scan_sieve

        def lookup_spy(h):
            looked_up.append(h)
            return lookup(h)

        def sieve_spy(h, start, step, n):
            sieved.append(h)
            return sieve(h, start, step, n)

        monkeypatch.setattr(primover, "_tabled_factorization", lookup_spy)
        monkeypatch.setattr(count_module, "_scan_sieve", sieve_spy)
        # every order up to 136 is a complete entry, 137 and 149 are partial
        partial = primover._phi2_partial()
        for limit, last in ((10**3, 400), (10**5, 400), (10**6, 150)):
            looked_up.clear()
            sieved.clear()
            read, scanned = [], []
            for h in range(2, last + 1):
                got = count_module._primes_of_order(h, 0, limit, Budget())
                assert got == sympy_primes_of_order(h, limit), (h, limit)
                n = len(candidates_above(h, 0, limit))
                if h in primover._phi2_table() and n:
                    read.append(h)
                elif h > 2 and n >= 8 and h not in partial:
                    scanned.append(h)
            assert looked_up == read and read, limit
            assert sieved == scanned, limit
            # 97's entry holds a prime > 2**64; its scan would have 5, 515 and 5154 candidates
            assert 97 in looked_up, limit

    @pytest.mark.usefixtures("no_phi2_table")
    def test_interval_matches_oracle_and_charge_is_the_candidates_above_lo(self, monkeypatch):
        # the primes of order h in (lo, limit], every h >= 3 scanned; the
        # charge counts the candidates in (lo, limit], those the scan tests.
        # The intervals lie above 10**6, where the scan sieves; below it the
        # index of 2 decides each candidate (TestIndexOf2)
        sieved = []
        sieve = count_module._scan_sieve

        def sieve_spy(h, start, step, n):
            sieved.append((start, step, n))
            return sieve(h, start, step, n)

        monkeypatch.setattr(count_module, "_scan_sieve", sieve_spy)
        cases = [(h, width) for width in (10**3, 10**5, 10**6) for h in range(3, 121)]
        cases += [(h, 10**5) for h in range(121, 401)]
        scans = unsieved = 0
        for h, width in cases:
            limit = 10**6 + width
            expected = pow_primes_of_order(h, 10**6, limit)
            for lo in (10**6 + d for d in (0, math.isqrt(width), width // 3)):
                above = candidates_above(h, lo, limit)
                sieved.clear()
                budget = Budget()
                got = count_module._primes_of_order(h, lo, limit, budget)
                assert got == [q for q in expected if q > lo], (h, lo, limit)
                assert budget.spent == len(above), (h, lo, limit)
                # the scan sieves exactly the candidates in (lo, limit], if
                # there are 8 or more; fewer are order-tested one by one
                sieves = len(above) >= 8
                assert sieved == ([(above.start, above.step, len(above))] if sieves else []), \
                    (h, lo, limit)
                scans += bool(sieved)
                unsieved += 0 < len(above) < 8
        assert scans > 0 and unsieved > 0

    @pytest.mark.usefixtures("no_phi2_table")
    def test_empty_interval_builds_nothing(self, monkeypatch):
        # h = 100 up to 1e5 takes the scan path; 99901 is its last candidate
        built = []
        for name in ("_cyclotomic_value", "_scan_sieve"):
            monkeypatch.setattr(count_module, name, lambda *args, name=name: built.append(name))
        for lo in (99901, 10**5):
            budget = Budget()
            assert count_module._primes_of_order(100, lo, 10**5, budget) == []
            assert budget.spent == 0
        assert built == []

    def test_charges_fewer_units_than_candidates(self):
        # Phi_28(2) = 29 * 113, a complete table entry: read at no charge, not
        # every q = 1 (mod 28) to 2**28 tested
        assert 28 in primover._phi2_table()
        budget = Budget()
        got = count_module._primes_of_order(28, 0, (1 << 28) - 1, budget)
        assert got == [29, 113]
        assert budget.spent == 0

    @pytest.mark.usefixtures("no_phi2_table")
    def test_sieve_keeps_sieving_primes_that_are_candidates(self):
        # both are scanned, and 53 and 101 are sieving primes; below 10**6
        # the index decides, and from 10**6 up every candidate lies above
        # every sieving prime
        primes_of_order = count_module._primes_of_order
        assert primes_of_order(52, 0, 4000, Budget()) == [53, 157, 1613]
        assert primes_of_order(100, 0, 10**5, Budget()) == [101, 8101]

    @pytest.mark.usefixtures("no_phi2_table")
    def test_scan_charges_every_candidate(self):
        # h = 100 up to 1e5 takes the scan path: q = 101, 201, ..., 99901
        budget = Budget()
        count_module._primes_of_order(100, 0, 10**5, budget)
        assert budget.spent == (10**5 - 101) // 100 + 1

    @pytest.mark.usefixtures("no_phi2_table")
    def test_sieved_scan_matches_oracle(self):
        # intervals above 10**6 where the candidate count, or for h <= 12
        # over 2**20 isqrt(q_last), bounds the sieve
        for width, last in ((4000, 120), (16383, 120), (1 << 20, 12)):
            for h in range(2, last + 1):
                got = count_module._primes_of_order(h, 10**6, 10**6 + width, Budget())
                assert got == pow_primes_of_order(h, 10**6, 10**6 + width), (h, width)

    @pytest.mark.usefixtures("no_phi2_table")
    def test_remainder_and_pow_tests_match_oracle(self, monkeypatch):
        # REMAINDER_BITS = 0 sends every scan to the pow test and 10**6 every
        # scan to the remainder of Phi_h(2); the default sits between 2039
        # (phi 2038) and 2053, 2063 (phi 2052, 2062).  The order tests run
        # from 10**6 up, so the intervals lie there
        cases = [(h, 10**6, 10**6 + width) for width in (10**4, 10**5) for h in range(2, 401)]
        cases += [(h, 10**6, 2 * 10**6) for h in (2039, 2053, 2063)]
        cases += [(29, 2 * 10**6, 3 * 10**6)]
        expected = {case: pow_primes_of_order(*case) for case in cases}
        # 2304167 = 1103 * 2089 passes both order tests but is no prime
        assert pow(2, 29, 1103 * 2089) == 1 and expected[29, 2 * 10**6, 3 * 10**6] == []
        remainder = []
        cyclotomic = count_module._cyclotomic_value

        def spy(h, h_primes):
            remainder.append(h)
            return cyclotomic(h, h_primes)

        monkeypatch.setattr(count_module, "_cyclotomic_value", spy)
        for bits in (0, count_module.REMAINDER_BITS, 10**6):
            monkeypatch.setattr(count_module, "REMAINDER_BITS", bits)
            remainder.clear()
            for h, lo, limit in cases:
                got = count_module._primes_of_order(h, lo, limit, Budget())
                assert got == expected[h, lo, limit], (bits, h, limit)
            assert (148 in remainder, 29 in remainder) == (bits > 0, bits > 0)
            assert (2039 in remainder, 2063 in remainder) == (bits > 2038, bits > 2062)

    @pytest.mark.usefixtures("no_phi2_table")
    def test_remainder_is_built_only_for_enough_survivors(self, monkeypatch):
        # Phi_h(2), a quotient of 2**omega(h) factors, is built only when at
        # least 4 * 2**omega(h) candidates survive the sieve; the two tests
        # admit different composites, so only the final primes are compared
        built, survivors = [], {}
        cyclotomic, sieve = count_module._cyclotomic_value, count_module._scan_sieve

        def cyclotomic_spy(h, h_primes):
            built.append(h)
            return cyclotomic(h, h_primes)

        def sieve_spy(h, start, step, n):
            flags = sieve(h, start, step, n)
            survivors[h] = sum(flags)
            return flags

        monkeypatch.setattr(count_module, "_cyclotomic_value", cyclotomic_spy)
        monkeypatch.setattr(count_module, "_scan_sieve", sieve_spy)
        few = many = 0
        for limit in (10**6 + 10**4, 10**6 + 10**5):
            for h in range(3, 401):
                built.clear()
                survivors.clear()
                got = count_module._primes_of_order(h, 10**6, limit, Budget())
                assert got == pow_primes_of_order(h, 10**6, limit), (h, limit)
                enough = survivors.get(h, 0) >= 4 << len(primefactors(h))
                assert built == ([h] if enough else []), (h, limit)
                few += bool(survivors) and not enough
                many += enough
        assert few > 100 and many > 100

    @pytest.mark.usefixtures("no_phi2_table")
    def test_scan_without_sieve_matches_oracle(self, monkeypatch):
        # scans of a handful of candidates above 10**6, where the sieve has
        # (almost) no primes below its bound min(isqrt(q_last), n // 64) to
        # drop by, and below 8 candidates is skipped
        sieved = []
        sieve = count_module._scan_sieve

        def sieve_spy(h, start, step, n):
            sieved.append(n)
            return sieve(h, start, step, n)

        monkeypatch.setattr(count_module, "_scan_sieve", sieve_spy)
        small = unsieved = 0
        for limit in (10**6 + 200, 10**6 + 1000, 10**6 + 4000):
            for h in range(2, 121):
                sieved.clear()
                budget = Budget()
                got = count_module._primes_of_order(h, 10**6, limit, budget)
                assert got == pow_primes_of_order(h, 10**6, limit), (h, limit)
                n = len(candidates_above(h, 10**6, limit))
                # order 2 is a one-line case, every other order scans
                if n == 0 or h == 2:
                    assert sieved == []
                elif n < 8:
                    # each candidate order-tested directly, at the same charge
                    assert sieved == [] and budget.spent == n, (h, limit)
                    unsieved += 1
                else:
                    # every other scan runs the sieve once over all its candidates
                    assert sieved == [n], (h, limit)
                    small += n <= 128
        assert small > 100 and unsieved > 50
        # 2304167 = 1103 * 2089 passes the order test of 29 but is no prime:
        # a short scan around it, with no sieve, still tests primality last
        sieved.clear()
        budget = Budget()
        got = count_module._primes_of_order(29, 2304167 - 174, 2304167 + 174, budget)
        assert got == [] and sieved == [] and budget.spent == 6

    def test_sieve_bound_comes_from_the_scan(self):
        # q_last = 20199937 and n // 64 = 4687, so the bound is isqrt(q_last)
        h, start, step, n = 64, 1000001, 64, 300000
        q_last = start + (n - 1) * step
        bound = min(math.isqrt(q_last), n // 64)
        assert bound == 4494
        flags = count_module._scan_sieve(h, start, step, n)
        assert len(flags) == n
        for r in primerange(3, bound + 1):
            # candidate k is q = start + k*step, a multiple of r for these k
            k0 = -start * pow(step, -1, r) % r
            kept = [start + k * step for k in range(k0, n, r) if flags[k]]
            assert all(q < r * r for q in kept), (r, kept[:3])
        for k in range(n):
            q = start + k * step
            assert flags[k] or not isprime(q), q

    @pytest.mark.parametrize("h", [3, 4, 6, 27, 64, 100, 333, 996, 997, 499991])
    def test_sieve_reads_primality_below_the_trial_division_limit(self, h):
        # the fast paths against exact primality: below 10**6 the walk reads
        # each prime's order off the index of 2, and keeps exactly the
        # primes of order h, and so does the read with no prime in hand,
        # where the scan tests nothing; from 10**6 up the sieve drops no
        # prime the mod-8 mask keeps
        primes = _primes_below_1e6()
        start, step = (2 * h + 1, 2 * h) if h % 2 else (h + 1, h)
        below = pow_primes_of_order(h, 0, 10**6 - 1)
        assert all(q in primes for q in below)
        assert walked_primes(0, {h: 10**6 - 1}).get(h, []) == below
        assert primover._known_reader(listed=False)(h, 0, 10**6 - 1)[0] == below
        assert count_module._scan(h, 0, 10**6 - 1, Budget()) == []
        first = start + (10**6 - start) // step * step + step
        n = (1_100_000 - first) // step + 1
        flags = count_module._scan_sieve(h, first, step, n)
        assert len(flags) == n
        for k in range(n):
            q = first + k * step
            masked = (q - 1) // h % 2 == 0 and q % 8 in (3, 5)
            if isprime(q) and not masked:
                assert flags[k], (h, q)

    @pytest.mark.usefixtures("no_phi2_table")
    def test_scans_straddling_the_limit_keep_999983_and_1000003(self):
        # the last prime below 10**6 and the first above it, each in
        # intervals with candidates on both sides: 999983 = 1 (mod 158 and
        # 12658) is read by its index, and the walk and the scan give each
        # interval the oracle's primes; 1000003 = 1 (mod 6), where
        # (q - 1) / 6 is odd, so no mask drops it, and the sieve from 10**6
        # up keeps it.  With the table hidden, _primes_of_order gives the
        # same primes and charges every candidate
        for h, q in ((79, 999983), (158, 999983), (6329, 999983), (6, 1000003)):
            start, step = (2 * h + 1, 2 * h) if h % 2 else (h + 1, h)
            for first in (start, q - 3 * step):
                last = q + 3 * step
                expected = pow_primes_of_order(h, first - 1, last)
                assert walk_and_scan(h, first - 1, last) == expected, (h, first)
                budget = Budget()
                got = count_module._primes_of_order(h, first - 1, last, budget)
                assert got == expected, (h, first)
                assert budget.spent == len(candidates_above(h, first - 1, last)), (h, first)
        assert count_module._scan_sieve(6, 1000003, 6, 7)[0]
        # 999983 has order 499991 = 79 * 6329, and its scan's next candidate is 1999965
        budget = Budget()
        assert count_module._primes_of_order(499991, 0, 2 * 10**6, budget) == [999983]
        assert budget.spent == 2
        # order 2249 = 13 * 173 has a prime on each side of 10**6, and pays
        # for every candidate in (9e5, 2e6]; count reads it from the scanned
        # section, hidden here
        assert walk_and_scan(2249, 900_000, 2 * 10**6) == [931087, 1619281]
        budget = Budget()
        got = count_module._primes_of_order(2249, 900_000, 2 * 10**6, budget)
        assert got == [931087, 1619281]
        assert budget.spent == len(candidates_above(2249, 900_000, 2 * 10**6)) == 244

    @pytest.mark.usefixtures("no_phi2_table")
    def test_intervals_across_the_limit_match_oracle(self):
        # lo in [9e5, 1e6) and limit in (1e6, 1.1e6]: one scan reads the
        # flags below 10**6 and strikes multiples of small primes above it
        for h in [*range(3, 200), 499991]:
            lo = 900_000 + h * 7919 % 100_000
            limit = 1_000_001 + h * 104729 % 100_000
            expected = [q for q in sympy_primes_of_order(h, limit) if q > lo]
            got = count_module._primes_of_order(h, lo, limit, Budget())
            assert got == expected, (h, lo, limit)

    @pytest.mark.usefixtures("no_phi2_table")
    @pytest.mark.parametrize("h", [3, 11, 148, 2249, 10044, 99991])
    def test_scan_below_and_across_the_limit_matches_the_pow_oracle(self, monkeypatch, h):
        # the walk of the index of 2 reads below 10**6 and the scan's order
        # tests decide from 10**6 up: below, across and just above the limit
        # the two halves give the pow oracle's primes, and so does
        # _primes_of_order, which reads below 10**6 from the first prime of
        # order h, at one unit per candidate; only candidates from 10**6 up
        # are sieved
        sieved = []
        sieve = count_module._scan_sieve

        def sieve_spy(h, start, step, n):
            sieved.append(start)
            return sieve(h, start, step, n)

        monkeypatch.setattr(count_module, "_scan_sieve", sieve_spy)
        step = h if h % 2 == 0 else 2 * h
        for lo, limit in ((0, 10**6 - 1), (0, 2 * 10**6),
                          (max(0, 10**6 - 40 * step), 10**6 + 40 * step),
                          (10**6 - 1, 10**6 + 40 * step)):
            expected = pow_primes_of_order(h, lo, limit)
            assert walk_and_scan(h, lo, limit) == expected, (h, lo, limit)
            budget = Budget()
            got = count_module._primes_of_order(h, lo, limit, budget)
            assert got == expected, (h, lo, limit)
            assert budget.spent == len(candidates_above(h, lo, limit)), (h, lo, limit)
        assert sieved and min(sieved) > 10**6


@cache
def _rebuilt_orders2_words():
    """scripts/factor_table.py's build of orders2.zlib's words from count's
    _prime_orders, about 0.6 s, made once for both parts' rebuild tests."""
    return factor_table_script().build_words()


class _PartOfOrders2:
    """One part of data/orders2.zlib, whose one digest covers both: the
    index of 2's 78497 16-bit words, then the links' 32-bit words."""

    FILE = Path(primover.__file__).parent / "data" / "orders2.zlib"
    SPLIT = 2 * 78497
    PART: slice

    def words(self):
        return zlib.decompress(self.FILE.read_bytes())

    def test_digest_is_the_committed_file_sha256(self):
        assert primover.ORDERS2_SHA256 == hashlib.sha256(self.FILE.read_bytes()).hexdigest()

    def test_tampered_byte_fails_the_digest_on_first_read(self, tmp_path):
        # a copy of the package with one bit flipped in the middle of this
        # part's words, compressed again: the first count refuses it, while
        # primitive_part, which reads neither part, runs
        package = tmp_path / "overpseudo"
        shutil.copytree(self.FILE.parents[1], package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        words = bytearray(self.words())
        part = range(len(words))[self.PART]
        words[part[len(part) // 2]] ^= 1
        (package / "data" / self.FILE.name).write_bytes(zlib.compress(bytes(words), 9))
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        code = "from overpseudo import *; assert primitive_part(97).complete; ov_count(10**6)"
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert ("overpseudo.errors.ContractViolationError: data/orders2.zlib "
                "does not match its SHA-256") in proc.stderr, proc.stderr


class TestIndexOf2(_PartOfOrders2):
    """The stored index (p - 1) / ord_p(2) of 2 of every odd prime p below 10**6."""

    PART = slice(None, _PartOfOrders2.SPLIT)

    def test_committed_index_equals_a_rebuild(self):
        # the words are compared, not the compressed bytes; one entry per odd prime
        assert self.words()[self.PART] == _rebuilt_orders2_words()[self.PART]
        # read aligned with small_primes(), 2 getting 0
        index = primover._orders2()[0]
        assert len(index) == len(count_module.small_primes()) == 78498
        # 3 has index 1 (order 2), and 2**19 - 1 the largest, 27594 (order 19)
        assert index[:2].tolist() == [0, 1] and max(index) == index[43389] == 27594
        assert count_module.small_primes()[43389] == (1 << 19) - 1

    def test_sampled_entries_match_sympy_n_order(self):
        primes, index = count_module.small_primes(), primover._orders2()[0]
        for j in random.Random(30).sample(range(1, len(primes)), 500):
            assert index[j] == (primes[j] - 1) // n_order(2, primes[j]), primes[j]


class TestLinksOf2(_PartOfOrders2):
    """The stored links: each prime q below 10**6 but the last of its order there, to the next."""

    PART = slice(_PartOfOrders2.SPLIT, None)

    def test_committed_links_equal_a_rebuild(self):
        # the words after the index's, compared with the same rebuild; they
        # end the file, 4400 q and their next
        words = self.words()
        assert words[self.PART] == _rebuilt_orders2_words()[self.PART]
        # read as {q: next}, the 4400 q ascending, each link going up
        links = primover._orders2()[1]
        assert len(words) == self.SPLIT + 4 * 2 * len(links)
        assert len(links) == 4400 and list(links) == sorted(links)
        assert all(q < nxt < 10**6 for q, nxt in links.items())

    def test_sampled_links_match_sympy_n_order(self):
        # q and its next prime have one order, and no prime of it lies between
        links = primover._orders2()[1]
        for q in random.Random(35).sample(sorted(links), 200):
            nxt, h = links[q], n_order(2, q)
            assert isprime(nxt) and n_order(2, nxt) == h, q
            assert pow_primes_of_order(h, q, nxt - 1) == [], q


def test_factor_table_check_finds_a_changed_word_of_orders2(monkeypatch, tmp_path):
    # scripts/factor_table.py --check's part for orders2.zlib: nothing on the
    # committed file; a copy with the last link's bit flipped differs from
    # primover's digest and from a rebuild
    script, committed = factor_table_script(), _PartOfOrders2.FILE
    assert script.check_words() == []
    words = bytearray(zlib.decompress(committed.read_bytes()))
    words[-4] ^= 1
    copy = tmp_path / committed.name
    copy.write_bytes(zlib.compress(bytes(words), 9))
    monkeypatch.setattr(script, "ORDERS2", copy)
    problems = script.check_words()
    assert len(problems) == 2 and problems[0].startswith("SHA-256 ")
    assert problems[1] == "orders2.zlib is not what a rebuild gives"


def test_data_holds_only_the_files_primover_reads():
    # each with its digest constant, so a file left behind by a rename fails
    data = Path(primover.__file__).parent / "data"
    digests = {"phi2_factors.json": primover.PHI2_SHA256, "orders2.zlib": primover.ORDERS2_SHA256}
    assert sorted(path.name for path in data.iterdir()) == sorted(digests)
    for name, digest in digests.items():
        assert hashlib.sha256((data / name).read_bytes()).hexdigest() == digest, name


class TestPhi2Table:
    FILE = Path(primover.__file__).parent / "data" / "phi2_factors.json"

    def test_file_covers_the_orders_below_1000(self):
        data = json.loads(self.FILE.read_text())
        assert data["orders"] == [3, 999]
        tabled = {int(h) for h in data["factors"]}
        partial = {int(h) for h in data["partial"]}
        assert tabled.isdisjoint(partial)
        assert tabled | partial == set(range(3, 1000))
        assert len(tabled) >= 450
        assert primover._phi2_table() == {int(h): f for h, f in data["factors"].items()}
        assert primover._phi2_partial() == {int(h): f for h, f in data["partial"].items()}
        # what primover lists is all of an order's primes for h <= 2 and a
        # complete entry, all up to the section's bound for any other order
        # below 10**4, partial or untabled, and nothing for one above it,
        # whose primes below 10**6 the links give and whose candidates are left
        known = primover._known_reader()
        assert known(1, 0, 10) == ([], 0, None)
        assert known(2, 0, 10) == ([3], 0, None)
        bound = data["scanned"]["bound"]
        assert data["scanned"]["below"] == 10**4
        for h in [*range(1, 1001), 1001, 1122, 2249, 9999, 10**4, 499991]:
            listed, left, upto = known(h, 0, bound)
            assert listed == sorted(set(listed)), h
            assert upto == (None if h <= 2 or h in tabled else bound if h < 10**4 else 0), h
            assert (left == 0) == (upto != 0), h
            # from 10**6 up no link is read
            assert upto != 0 or known(h, 10**6 - 1, bound)[0] == [], h
        assert known(2249, 0, bound)[0][:2] == [931087, 1619281]

    def test_every_entry_is_the_primes_of_order_h(self):
        # primality by sympy, the order by pow, the product by the Moebius formula
        known = primover._known_reader()
        for h, factors in primover._phi2_table().items():
            primes = [p for p, _ in factors]
            assert primes == sorted(set(primes)), h
            assert known(h, 0, (1 << h) - 1) == (primes, 0, None), h
            assert math.prod(p**e for p, e in factors) == reduced_phi2(h), h
            for p, e in factors:
                assert e >= 1 and isprime(p), (h, p)
                assert pow(2, h, p) == 1, (h, p)
                assert all(pow(2, h // r, p) != 1 for r in primefactors(h)), (h, p)

    def test_every_partial_entry_divides_and_leaves_a_composite(self):
        for h, factors in primover._phi2_partial().items():
            primes = [p for p, _ in factors]
            assert primes == sorted(set(primes)), h
            rest, left = divmod(reduced_phi2(h), math.prod(p**e for p, e in factors))
            assert left == 0 and rest > 1 and not isprime(rest), h
            for p, e in factors:
                assert e >= 1 and isprime(p), (h, p)
                assert pow(2, h, p) == 1, (h, p)
                assert all(pow(2, h // r, p) != 1 for r in primefactors(h)), (h, p)

    def test_lookup_matches_the_scan(self, monkeypatch):
        # same primes with the table and with it hidden; for h <= 120 both
        # are the sympy scan's.  A tabled order is free at every limit, read
        # or scanned; an untabled scan pays for each candidate in (lo, limit]
        lookup = primover._tabled_factorization
        looked_up = []

        def lookup_spy(h):
            looked_up.append(h)
            return lookup(h)

        monkeypatch.setattr(primover, "_tabled_factorization", lookup_spy)
        tabled = [h for h in sorted(primover._phi2_table()) if h <= 400]
        for limit in (10**4, 10**5, 10**6):
            for h in tabled:
                oracle = sympy_primes_of_order(h, limit) if h <= 120 else None
                for lo in (0, math.isqrt(limit)):
                    table_budget, scan_budget = Budget(), Budget()
                    got = count_module._primes_of_order(h, lo, limit, table_budget)
                    with monkeypatch.context() as hidden:
                        hidden.setattr(primover, "_phi2_table", dict)
                        hidden.setattr(primover, "_phi2_scanned", lambda: (0, 0, [], []))
                        scanned = count_module._primes_of_order(h, lo, limit, scan_budget)
                    assert got == scanned, (h, lo, limit)
                    assert table_budget.spent == 0, (h, lo, limit)
                    assert scan_budget.spent == len(candidates_above(h, lo, limit)), \
                        (h, lo, limit)
                    if oracle is not None:
                        assert got == [q for q in oracle if q > lo], (h, lo, limit)
        assert looked_up

    def test_every_complete_entry_is_read_at_no_charge(self):
        # the entry is the answer for its order: no budget is needed to read it
        for h, factors in primover._phi2_table().items():
            got = count_module._primes_of_order(h, 0, 10**13, Budget(0))
            assert got == [p for p, _ in factors if p <= 10**13], h

    def test_count_scans_no_tabled_order(self, monkeypatch):
        # every tabled order with a candidate is read, at no charge, and so is
        # every other order below 10**4, whose limits at 1e9 all lie below
        # the scanned section's bound, so the charge is the scans' of the
        # orders from 10**4 up alone; the sweep's orders are completed h
        # ascending, each over (sqrt(x), x // P_h[0]]
        looked_up = []
        lookup = primover._tabled_factorization

        def lookup_spy(h):
            looked_up.append(h)
            return lookup(h)

        monkeypatch.setattr(primover, "_tabled_factorization", lookup_spy)
        budget = Budget()
        assert ov_count(10**9, budget).ov == 663
        assert budget.spent == 1268
        calls = [(h, math.isqrt(10**9), 10**9 // seeds[0])
                 for h, seeds in sorted(count_module._sweep(10**9).items())]
        table = primover._phi2_table()
        below, bound = primover._phi2_scanned()[:2]
        assert all(limit < bound for h, _, limit in calls if h < below)
        candidates = [(h, len(candidates_above(h, lo, limit))) for h, lo, limit in calls if h > 2]
        assert looked_up == [h for h, n in candidates if n and h in table]
        assert budget.spent == sum(n for h, n in candidates if h >= below) > 0
        assert 97 in looked_up

    def test_entries_with_a_prime_above_2_64_are_read_and_match_the_scan(self, monkeypatch):
        # every complete entry with a prime >= 2**64 is read at no charge over
        # 4097 candidates, and gives the primes a scan with the table hidden finds
        looked_up = []
        lookup = primover._tabled_factorization

        def lookup_spy(h):
            looked_up.append(h)
            return lookup(h)

        monkeypatch.setattr(primover, "_tabled_factorization", lookup_spy)
        big = {h: f for h, f in primover._phi2_table().items()
               if any(p >= 1 << 64 for p, _ in f)}
        assert len(big) > 300
        for h, factors in big.items():
            first = 2 * h + 1 if h % 2 else h + 1
            limit = first + 4096 * (first - 1)
            assert len(candidates_above(h, 0, limit)) == 4097
            looked_up.clear()
            got = count_module._primes_of_order(h, 0, limit, Budget(0))
            assert got == [p for p, _ in factors if p <= limit] and looked_up == [h], h
            with monkeypatch.context() as hidden:
                hidden.setattr(primover, "_phi2_table", dict)
                hidden.setattr(primover, "_phi2_scanned", lambda: (0, 0, [], []))
                scanned = count_module._primes_of_order(h, 0, limit, Budget())
            assert scanned == got, h
        # h = 97: [[11447, 1], [13842607235828485645766393, 1]], read over 2577 candidates
        looked_up.clear()
        got = count_module._primes_of_order(97, 0, 5 * 10**5, Budget(0))
        assert len(candidates_above(97, 0, 5 * 10**5)) == 2577
        assert got == [11447] and looked_up == [97]
        # the same read in a fresh process: one entry through the cheap
        # checks, and no primality test of its prime above 2**64
        from overpseudo import arith

        lucas, lucas_tested = arith._strong_lucas_prp, []

        def lucas_spy(n):
            lucas_tested.append(n)
            return lucas(n)

        monkeypatch.setattr(arith, "_strong_lucas_prp", lucas_spy)
        monkeypatch.setattr(primover, "_tabled_factorization", cache(lookup.__wrapped__))
        got = count_module._primes_of_order(97, 0, 5 * 10**5, Budget(0))
        assert got == [11447] and lucas_tested == []
        assert primover._tabled_factorization.cache_info().currsize == 1

    def test_every_entry_passes_the_full_check(self):
        # what scripts/factor_table.py --check runs, with the package's own is_prime
        for complete, entries in ((True, primover._phi2_table()),
                                  (False, primover._phi2_partial())):
            for h, factors in entries.items():
                primover._prove_entry(h, factors, complete)

    def test_entry_problems_name_an_order_with_no_entry_or_two(self):
        # the script's check that the file's complete and partial entries
        # cover its range once each, on doctored copies of the parsed file
        script = factor_table_script()
        stored = json.loads(self.FILE.read_text())
        assert script.entry_problems(stored) == []
        doctored = json.loads(self.FILE.read_text())
        del doctored["factors"]["5"]
        doctored["factors"]["137"] = doctored["partial"]["137"]
        assert script.entry_problems(doctored) == [
            "the table has no entry for Phi_5(2)",
            "the table has a complete and a partial entry for Phi_137(2)"]

    @pytest.mark.parametrize("hide", ["_phi2_table", "_phi2_partial"])
    def test_order_with_no_entry_in_the_range_raises(self, monkeypatch, hide):
        # with only one of the two kinds of entry hidden, the section's
        # orders no longer fit the entries: an order of the range that has
        # neither kind raises instead of listing nothing; one above the
        # range, and one above the section's limit, lists as before
        h = 3 if hide == "_phi2_table" else 137
        listed_1000, listed_10007 = (primover._known_reader()(n, 0, 2**30) for n in (1000, 10007))
        monkeypatch.setattr(primover, hide, dict)
        known = primover._known_reader()
        with pytest.raises(ContractViolationError, match=f"no entry for Phi_{h}\\(2\\)"):
            known(h, 0, 10**4)
        with pytest.raises(ContractViolationError, match=f"no entry for Phi_{h}\\(2\\)"):
            count_module._primes_of_order(h, 0, 10**4, Budget())
        assert known(1000, 0, 2**30) == listed_1000
        assert known(10007, 0, 2**30) == listed_10007
        assert listed_10007[2] == 0 and known(10007, 10**6 - 1, 2**30)[0] == []

    def test_digest_is_the_committed_file_sha256(self):
        assert primover.PHI2_SHA256 == hashlib.sha256(self.FILE.read_bytes()).hexdigest()

    @pytest.mark.parametrize("tamper", ["merge", "one byte", "section"])
    @pytest.mark.parametrize("call", ["ov_count(10**6)", "primitive_part(97)"],
                             ids=["count", "primitive_part"])
    def test_tampered_file_fails_the_digest_on_first_read(self, tmp_path, call, tamper):
        # a copy of the package whose table has h = 97's two primes merged,
        # which keeps the product, or its last byte, a newline, made a space,
        # which keeps the content, or one digit of the scanned section
        # changed, which makes 2916841 of order 223 the composite 2916851
        # = 7 * 416693; the first read refuses each
        package = tmp_path / "overpseudo"
        shutil.copytree(self.FILE.parents[1], package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        text = self.FILE.read_text()
        merged = text.replace('"97": [[11447,1],[13842607235828485645766393,1]]',
                              f'"97": [[{(1 << 97) - 1},1]]')
        assert merged != text and (1 << 97) - 1 == 11447 * 13842607235828485645766393
        assert text.count(",2916841,") == 1
        section = text.replace(",2916841,", ",2916851,")
        assert text.index('"scanned"') < text.index(",2916841,")
        (package / "data" / self.FILE.name).write_text(
            {"merge": merged, "one byte": text[:-1] + " ", "section": section}[tamper])
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        proc = subprocess.run([sys.executable, "-c", f"from overpseudo import *; {call}"],
                              env=env, timeout=120, capture_output=True, text=True)
        assert proc.returncode == 1
        assert ("overpseudo.errors.ContractViolationError: data/phi2_factors.json "
                "does not match its SHA-256") in proc.stderr, proc.stderr

    @pytest.mark.parametrize("tamper, message", [
        ("drop", "does not multiply"), ("raise", "does not multiply"),
        ("merge", "lists a composite"), ("merge above limit", "lists a composite"),
        ("repeat", "unsorted")])
    def test_tampered_entry_raises_on_first_use(self, monkeypatch, tamper, message):
        # the full check catches every tamper of h = 148's entry, and its
        # first read, up to 1e6, all but a merge: a merge keeps the product,
        # so only the primality test catches it, also 184481113 * 231769777
        # above the limit (at run time the file's digest does); a repeat with
        # exponent 0 keeps both, so only the order of the primes does
        table = dict(primover._phi2_table())
        factors = table[148]
        assert factors == [[149, 1], [593, 1], [184481113, 1], [231769777, 1]]
        table[148] = {"drop": factors[1:],
                      "raise": [[149, 2]] + factors[1:],
                      "merge": [[88357, 1]] + factors[2:],
                      "merge above limit": factors[:2] + [[184481113 * 231769777, 1]],
                      "repeat": [[149, 1], [149, 0]] + factors[1:]}[tamper]
        monkeypatch.setattr(primover, "_phi2_table", lambda: table)
        monkeypatch.setattr(primover, "_tabled_factorization",
                            cache(primover._tabled_factorization.__wrapped__))
        with pytest.raises(ContractViolationError, match=message):
            primover._prove_entry(148, table[148], True)
        if tamper.startswith("merge"):
            return
        with pytest.raises(ContractViolationError, match=message):
            count_module._primes_of_order(148, 0, 10**6, Budget())
        with pytest.raises(ContractViolationError, match=message):
            primitive_part(148)

    def test_entry_checked_once_per_process(self, monkeypatch):
        checked = []
        reduced = primover._reduced_cyclotomic_value

        def reduced_spy(h, h_primes):
            checked.append(h)
            return reduced(h, h_primes)

        monkeypatch.setattr(primover, "_reduced_cyclotomic_value", reduced_spy)
        monkeypatch.setattr(primover, "_tabled_factorization",
                            cache(primover._tabled_factorization.__wrapped__))
        for _ in range(3):
            got = count_module._primes_of_order(148, 0, 10**6, Budget())
            assert got == [149, 593]
        assert checked == [148]

    def test_import_reads_no_table(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # with sympy, numpy and gmpy2 blocked, so the core runs on pure Python
        code = ("import sys\n"
                "for name in ('sympy', 'numpy', 'gmpy2'):\n"
                "    sys.modules[name] = None\n"
                "import overpseudo.cli\n"
                "from overpseudo import count, primover\n"
                "assert primover._phi2_table.cache_info().currsize == 0\n"
                "assert primover._orders2.cache_info().currsize == 0\n"
                "assert count.ov_count(10**6).ov == 24\n"
                "assert primover._phi2_table.cache_info().currsize == 1\n"
                "assert primover._orders2.cache_info().currsize == 1\n"
                "import overpseudo as o\n"
                "assert o.classify(2047).flags.overpseudoprime_base2\n"
                "assert o.least_witness(2047).witness == 3\n"
                "assert o.primitive_part(97).primitive_factors == "
                "((11447, 1), (13842607235828485645766393, 1))\n"
                "assert overpseudo.cli.main(['count', '1000000']) == 0\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "ov: 24\n" in proc.stdout


def _scanned_by_order() -> dict[int, list[int]]:
    """The scanned section's primes by order, for each order that has one."""
    by_order: dict[int, list[int]] = {}
    _, _, orders, primes = primover._phi2_scanned()
    for h, q in zip(orders, primes):
        by_order.setdefault(h, []).append(q)
    return by_order


class TestScannedSection:
    """The table's scanned section lists every prime up to its bound B of
    each order below 10**4 with no complete entry; count reads such an order
    there below B, at no charge, and scans only above B."""

    def test_section_holds_the_primes_of_exactly_the_partial_orders(self):
        # the orders below 10**4 with no complete entry, the partial ones and
        # every order from 1000 up: sympy's primality and the order by pow,
        # for every listed prime
        data = json.loads(TestPhi2Table.FILE.read_text())
        below, bound, orders, primes = primover._phi2_scanned()
        assert data["scanned"]["bound"] == bound == 1 << 30
        assert data["scanned"]["below"] == below == 10**4
        assert len(orders) == len(primes) > 8000
        pairs = list(zip(orders, primes))
        assert all(a < b for a, b in zip(pairs, pairs[1:]))
        covered = [h for h in range(3, below) if h not in primover._phi2_table()]
        assert set(covered) == set(primover._phi2_partial()) | set(range(1000, below))
        by_order = _scanned_by_order()
        assert set(by_order) <= set(covered)
        known = primover._known_reader()
        for h in covered:
            listed = by_order.get(h, [])
            assert all(q <= bound for q in listed), h
            assert known(h, 0, bound) == (listed, 0, bound), h
            for q in listed:
                assert isprime(q) and pow(2, h, q) == 1, (h, q)
                assert all(pow(2, h // r, q) != 1 for r in primefactors(h)), (h, q)
        # the partial entry keeps what factoring found, so its primes up to
        # B are among them, though not always all of them
        for h, factors in primover._phi2_partial().items():
            assert {p for p, _ in factors if p <= bound} <= set(by_order.get(h, [])), h

    def test_rescan_below_2_25_and_of_every_order_from_900(self):
        # a slice, about 8 s, of the rescan of the whole section that
        # scripts/factor_table.py --check runs (about 2 minutes on 2 cores;
        # opt-in below): the partial orders below 900 up to 2**25, the
        # orders 900-999 and 9990-9999 up to B, and the others from 1000 up
        # to 2**23
        below, bound = primover._phi2_scanned()[:2]
        by_order = _scanned_by_order()
        covered = [h for h in range(3, below) if h not in primover._phi2_table()]
        assert sum(900 <= h < 1000 for h in covered) > 50
        uptos = {h: (bound if 900 <= h < 1000 or h >= 9990 else
                     1 << 25 if h < 900 else 1 << 23) for h in covered}
        # one walk reads every order's primes below 10**6, the scans test above
        walked = walked_primes(0, uptos)
        for h, upto in uptos.items():
            got = walked.get(h, []) + count_module._scan(h, 0, upto, Budget(upto))
            assert got == [q for q in by_order.get(h, []) if q <= upto], h

    @pytest.mark.parametrize("tamper", ["none", "drop", "composite", "other order",
                                        "bound", "orders", "lengths", "unordered"])
    def test_check_fails_on_a_tampered_section(self, tamper):
        # the script's check of the section, on h = 223 and 299 up to 2**24:
        # a dropped prime, an added composite (447 = 3 * 149 = 1 (mod 446)),
        # a prime of another order (599, of order 299), another bound, a
        # missing order, lists of unequal length, or a pair out of order
        # each fail it
        script = factor_table_script()
        upto = 1 << 24
        by_order = _scanned_by_order()
        primes = {h: [q for q in by_order[h] if q <= upto] for h in (223, 299)}
        assert primes == {223: [18287, 196687, 1466449, 2916841], 299: [599, 9341359]}
        pairs = [(h, q) for h in (223, 299) for q in primes[h]]
        if tamper == "drop":
            pairs.remove((223, 1466449))
        elif tamper == "composite":
            pairs.insert(0, (223, 447))
        elif tamper == "other order":
            pairs.insert(0, (223, 599))
        elif tamper == "orders":
            pairs = [(h, q) for h, q in pairs if h != 299]
        elif tamper == "unordered":
            pairs[1], pairs[2] = pairs[2], pairs[1]
        section = {"bound": upto + (tamper == "bound"),
                   "orders": [h for h, _ in pairs], "primes": [q for _, q in pairs]}
        if tamper == "lengths":
            section["orders"].append(299)
        problems = script.scanned_problems(section, [223, 299], upto)
        assert bool(problems) == (tamper != "none"), problems

    def test_partial_order_is_read_below_the_bound_at_no_charge(self):
        # 1466449 and 2916841 divide 2**223 - 1 but not h = 223's partial entry
        assert 1466449 not in {p for p, _ in primover._phi2_partial()[223]}
        got = count_module._primes_of_order(223, 10**5, 10**7, Budget(0))
        assert got == [196687, 1466449, 2916841]

    @pytest.mark.parametrize("h", [223, 299])
    def test_reads_up_to_the_bound_and_scans_above_it(self, monkeypatch, h):
        # on (B - 10**6, B + 10**6] the read and the scan above B give what
        # the scan of the whole interval gives, and only the candidates
        # above B are charged
        bound = primover._phi2_scanned()[1]
        lo, limit = bound - 10**6, bound + 10**6
        budget = Budget()
        got = count_module._primes_of_order(h, lo, limit, budget)
        assert budget.spent == len(candidates_above(h, bound, limit)) > 0
        with monkeypatch.context() as hidden:
            hidden.setattr(primover, "_phi2_scanned", lambda: (0, 0, [], []))
            scan_budget = Budget()
            scanned = count_module._primes_of_order(h, lo, limit, scan_budget)
        assert got == scanned, h
        assert scan_budget.spent == len(candidates_above(h, lo, limit))

    def test_read_and_scan_meet_at_the_bound(self, monkeypatch):
        # a section cut at 2e6 puts h = 223's primes on both sides of its
        # bound: 196687 and 1466449 read, 2916841 scanned
        cut = 2 * 10**6
        kept = [q for q in _scanned_by_order()[223] if q <= cut]
        monkeypatch.setattr(primover, "_phi2_scanned",
                            lambda: (10**4, cut, [223] * len(kept), kept))
        budget = Budget()
        got = count_module._primes_of_order(223, 10**5, 10**7, budget)
        assert got == [196687, 1466449, 2916841]
        assert budget.spent == len(candidates_above(223, cut, 10**7))

    def test_section_hidden_route_at_1e9(self, request):
        # with only the section hidden, every partial order is scanned from
        # sqrt(x) up, for the same count and the parent's charge
        section = ov_count(10**9)
        request.getfixturevalue("no_scanned_section")
        budget = Budget()
        scan = ov_count(10**9, budget)
        assert section.ov == scan.ov == 663
        assert scan.by_order == section.by_order
        assert scan.members == section.members
        assert budget.spent == 169923


@pytest.mark.skipif(not os.environ.get("OVERPSEUDO_SLOW"),
                    reason="opt-in checks of the scanned section: set OVERPSEUDO_SLOW=1")
class TestCrossChecksOfTheScannedSection:
    """The whole scanned section against a rescan, and count with it hidden at 1e10 and 1e11."""

    def test_full_rescan(self):
        # what scripts/factor_table.py --check runs, about 2 minutes on 2 cores
        script = factor_table_script()
        data = json.loads(TestPhi2Table.FILE.read_text())
        assert data["scanned"]["below"] == script.SCAN_BELOW
        orders = script.scanned_orders(data["factors"])
        assert len(orders) == len(primover._phi2_partial()) + script.SCAN_BELOW - 1000
        assert script.scanned_problems(data["scanned"], orders, script.SCAN_BOUND) == []

    @pytest.mark.parametrize("x, ov, spent", [(10**10, 1730, 1867171),
                                              (10**11, 4480, 19417801)])
    def test_section_hidden_route(self, request, x, ov, spent):
        section = ov_count(x)
        request.getfixturevalue("no_scanned_section")
        budget = Budget(10**8)
        scan = ov_count(x, budget)
        assert section.ov == scan.ov == ov
        assert scan.by_order == section.by_order
        assert scan.members == section.members
        assert budget.spent == spent


class TestSweepFactorsNothing:
    def test_no_factorize_call_and_no_order_alone(self, monkeypatch):
        from overpseudo import arith
        from overpseudo import order as order_module

        calls = []  # (order whose primes are being found, or None; value)
        active = []
        factorize = arith.factorize
        primes_of_order = count_module._primes_of_order

        def factorize_spy(n, budget=None):
            calls.append((active[-1] if active else None, n))
            return factorize(n, budget)

        def primes_of_order_spy(h, *args):
            active.append(h)
            try:
                return primes_of_order(h, *args)
            finally:
                active.pop()

        scan_factored = []  # the orders count's scans factor
        complete_factorization = count_module._complete_factorization

        def scan_spy(n, budget):
            scan_factored.append(n)
            return complete_factorization(n, budget)

        monkeypatch.setattr(order_module, "factorize", factorize_spy)
        monkeypatch.setattr(count_module, "_primes_of_order", primes_of_order_spy)
        monkeypatch.setattr(count_module, "_complete_factorization", scan_spy)
        monkeypatch.setattr(primover, "_tabled_factorization",
                            cache(primover._tabled_factorization.__wrapped__))
        assert ov_count(10**8).ov == 266
        # the sweep reads each order off the index of 2, and at 1e8 no scan
        # reaches 10**6, where count finds an order's primes; h is factored
        # only for a complete entry's read
        assert [n for h, n in calls if h is None] == []
        assert scan_factored == []
        assert {n for h, n in calls if n == h} <= set(primover._phi2_table())

    def test_primes_of_an_order_found_only_where_used(self, monkeypatch):
        # count finds the primes of h for a scan that reaches 10**6, and
        # primover for a complete entry's read; at 1e10 every candidate of a
        # scan lies below 10**6, so only the complete entries read factor h,
        # each once, in ascending order
        factored = {count_module: [], primover: []}
        for module in factored:
            def spy(n, budget, real=module._complete_factorization, got=factored[module]):
                got.append(n)
                return real(n, budget)

            monkeypatch.setattr(module, "_complete_factorization", spy)
        monkeypatch.setattr(primover, "_tabled_factorization",
                            cache(primover._tabled_factorization.__wrapped__))
        assert ov_count(10**10).ov == 1730
        read = factored[primover]
        assert factored[count_module] == [] and read == sorted(set(read))
        assert len(read) > 100 and set(read) <= set(primover._phi2_table())
        # a scan across 10**6 factors its order, once
        assert walk_and_scan(2249, 900_000, 2 * 10**6) == [931087, 1619281]
        assert factored[count_module] == [2249]

    def test_second_count_factors_nothing(self, monkeypatch):
        # the table's reads are kept by order, so the first count factors
        # each complete entry's order it reads, once, and a second count in
        # the same process factors nothing
        from overpseudo import order as order_module

        calls = []
        factorize = order_module.factorize

        def factorize_spy(n, budget=None):
            calls.append(n)
            return factorize(n, budget)

        monkeypatch.setattr(order_module, "factorize", factorize_spy)
        monkeypatch.setattr(primover, "_tabled_factorization",
                            cache(primover._tabled_factorization.__wrapped__))
        first = ov_count(10**7)
        assert len(calls) == 181 and set(calls) <= set(primover._phi2_table())
        calls.clear()
        assert ov_count(10**7) == first and first.ov == 91
        assert calls == []

    def test_prime_orders_reproduce_the_index(self):
        # below 10**6 every prime's order gives back its stored index of 2
        primes, index = count_module.small_primes(), primover._orders2()[0]
        got = list(count_module._prime_orders(3, 10**6 - 1))
        assert [p for p, _ in got] == list(primes[1:])
        assert all((p - 1) // h == i for (p, h), i in zip(got, index[1:]))

    def test_prime_orders_match_mult_order_above_the_limit(self):
        # mult_order factors each p - 1 on its own
        limit = 10**6 + 2 * 10**5
        got = list(count_module._prime_orders(10**6, limit))
        assert [p for p, _ in got] == list(primerange(10**6, limit + 1))
        assert all(h == mult_order(2, p) for p, h in got)

    def test_prime_orders_edges(self):
        orders = count_module._prime_orders
        assert list(orders(10**6 + 4, 10**6 + 3)) == []
        # an even first starts at the next odd number
        assert [p for p, _ in orders(4, 30)] == list(primerange(4, 31))
        assert list(orders(1000003, 1000003)) == [(1000003, n_order(2, 1000003))]
        # 1009**2 is struck by 1009 alone, the last striking prime
        limit = 1009**2
        got = list(orders(limit - 400, limit))
        assert [p for p, _ in got] == list(primerange(limit - 400, limit + 1))
        assert all(h == n_order(2, p) for p, h in got)


class TestCountFactorsNothing:
    """Count's primes of an order come from a complete table entry or a scan."""

    @pytest.fixture
    def no_factoring(self, monkeypatch):
        def refuse(n, n_primes, budget):
            raise AssertionError(f"count factored Phi_{n}(2)")

        monkeypatch.setattr(primover, "_factor_reduced", refuse)

    @pytest.mark.usefixtures("no_factoring")
    def test_counts_run_without_factoring(self):
        budget = Budget()
        assert ov_count(10**9, budget).ov == 663
        assert budget.spent == 1268
        by_order = sum(ov_count_by_order(10**8, n) for n in range(1, 200))
        assert by_order == ov_count_upto_order(10**8, 199)
        assert ov_count_by_order(10**6, 2) == 0

    @pytest.mark.usefixtures("no_factoring")
    @pytest.mark.parametrize("hidden", [False, True])
    def test_order_2_is_3_alone_at_no_charge(self, monkeypatch, hidden):
        sieved = []
        monkeypatch.setattr(count_module, "_scan_sieve", lambda *args: sieved.append(args))
        if hidden:
            monkeypatch.setattr(primover, "_phi2_table", dict)
            monkeypatch.setattr(primover, "_phi2_partial", dict)
        for lo in (-1, 0, 2, 3, 4, 10**6):
            for limit in (0, 2, 3, 4, 10**6, 10**12):
                got = count_module._primes_of_order(2, lo, limit, Budget(0))
                assert got == ([3] if lo < 3 <= limit else []), (lo, limit)
        assert sieved == []

    def test_scan_route_equals_the_table_route_at_1e9(self, request):
        # with the table hidden every order h >= 3 is scanned
        table = ov_count(10**9)
        request.getfixturevalue("no_phi2_table")
        budget = Budget(2 * 10**8)
        scan = ov_count(10**9, budget)
        assert table.ov == scan.ov == 663
        assert scan.by_order == table.by_order
        assert scan.members == table.members
        assert budget.spent == 116429383

    def test_table_reaches_count_only_through_listed_primes(self, monkeypatch, request):
        # primover listing nothing for h >= 3, with the two stores its reader
        # lists from hidden (the complete entries and the scanned section),
        # gives what hiding the whole table, partial entries too, gives: the
        # same record, and the same charge for the scans
        with monkeypatch.context() as unlisted:
            unlisted.setattr(primover, "_phi2_table", dict)
            unlisted.setattr(primover, "_phi2_scanned", lambda: (0, 0, [], []))
            known = primover._known_reader()
            assert [known(h, 10**6 - 1, 10**7)[::2] for h in (3, 97, 137, 1000)] == [([], 0)] * 4
            unlisted_budget = Budget()
            got = ov_count(10**7, unlisted_budget)
        request.getfixturevalue("no_phi2_table")
        hidden_budget = Budget()
        assert ov_count(10**7, hidden_budget) == got and got.ov == 91
        assert unlisted_budget.spent == hidden_budget.spent > 0


@pytest.mark.skipif(not os.environ.get("OVERPSEUDO_SLOW"),
                    reason="opt-in cross-checks at 1e10: set OVERPSEUDO_SLOW=1")
class TestCrossChecksAt1e10:
    """Each of count's routes against another at 1e10, where no outside value exists."""

    def test_remainder_and_pow_tests_agree(self, monkeypatch):
        # every order of the sweep with no complete entry, partial ones too,
        # scanned over its completion interval, by the pow test alone
        # (REMAINDER_BITS = 0) and by the remainder of Phi_h(2) wherever
        # enough candidates survive the sieve; about 1 s.  802 primes is a
        # self-computed pin
        x = 10**10
        sample = [(h, x // seeds[0]) for h, seeds in sorted(count_module._sweep(x).items())
                  if h > 2 and h not in primover._phi2_table()]
        built = []
        cyclotomic = count_module._cyclotomic_value

        def spy(h, h_primes):
            built.append(h)
            return cyclotomic(h, h_primes)

        monkeypatch.setattr(count_module, "_cyclotomic_value", spy)
        got = {}
        walked = walked_primes(math.isqrt(x), dict(sample))
        for bits in (0, 10**6):
            monkeypatch.setattr(count_module, "REMAINDER_BITS", bits)
            built.clear()
            got[bits] = [walked.get(h, []) + count_module._scan(h, math.isqrt(x), limit,
                                                                Budget(10**9))
                         for h, limit in sample]
            assert (len(built) > 500) == (bits > 0), bits
        assert got[0] == got[10**6]
        assert sum(map(len, got[0])) == 802

    def test_scan_route_equals_the_table_route(self, request):
        # with the table hidden every order h >= 3 is scanned: 1165054796
        # units, about 45 s and 2.4 GB peak RSS on a 2-core host, since a scan
        # holds its flags and survivors (h = 3 has about 2.4e8 candidates)
        table = ov_count(10**10)
        request.getfixturevalue("no_phi2_table")
        scan = ov_count(10**10, Budget(2 * 10**9))
        assert table.ov == scan.ov == 1730
        assert scan.by_order == table.by_order
        assert scan.members == table.members


class TestOvCount:
    def test_boundary_fence(self):
        assert ov_count(3276).ov == 1
        assert ov_count(3277).ov == 2

    def test_record_at_2047(self):
        rec = ov_count(2047)
        assert rec.ov == 1
        # 2047 = 23 * 89 has the tabled order 11, so it needs no budget
        assert ov_count(2047, Budget(0)) == rec
        assert rec.members == (2047,)
        assert rec.by_order == {11: 1}
        assert rec.ratio == pytest.approx(1 / 2047**0.75)

    def test_record_invariants_at_1e5(self, oracle_members_1e5):
        rec = ov_count(10**5)
        assert rec.members is not None
        assert list(rec.members) == oracle_members_1e5
        assert rec.ov == sum(rec.by_order.values()) == len(rec.members)
        assert all(a < b for a, b in zip(rec.members, rec.members[1:]))
        root = math.isqrt(rec.x)
        log2x = math.log2(rec.x)
        omega_cap = log2x / math.log2(log2x)
        for m in rec.members:
            assert is_overpseudoprime_def(m)
            h = mult_order(2, m)
            assert h <= root
            assert rec.by_order[h] >= 1
        for h, c in rec.by_order.items():
            members_h = [m for m in rec.members if mult_order(2, m) == h]
            assert len(members_h) == c
            for m in members_h:
                from sympy import factorint
                assert sum(factorint(m).values()) <= omega_cap

    def test_count_at_1e8(self):
        rec = ov_count(10**8)
        assert rec.ov == 266
        assert sum(rec.by_order.values()) == rec.ov

    def test_no_prime_up_to_sqrt_x_tested_again(self, monkeypatch, request):
        # the sweep lists the primes <= sqrt(x) with their order; the scan
        # tests only candidates above sqrt(x), for the same count and charge.
        # At 1e8 every order is below 10**4 and read from the table, at no
        # charge, so the scans are watched with the scanned section hidden.
        # Every prime below 10**6 then comes off the links, followed from
        # each order's largest prime up to sqrt(x), with no primality test;
        # at 1e10 the scans find primes above 10**6, where the primality
        # tests are watched
        x = 10**8
        budget = Budget()
        assert ov_count(x, budget).ov == 266
        assert budget.spent == 0
        request.getfixturevalue("no_scanned_section")
        followed = request.getfixturevalue("links_followed")
        tested = []
        is_prime = count_module.is_prime

        def spy(q):
            tested.append(q)
            return is_prime(q)

        monkeypatch.setattr(count_module, "is_prime", spy)
        budget = Budget()
        assert ov_count(x, budget).ov == 266
        assert budget.spent == 13648
        read = [q for _, q in followed if q]
        assert read and min(read) > math.isqrt(x)
        assert tested == []
        assert ov_count(10**10).ov == 1730
        assert tested and min(tested) > math.isqrt(10**10)

    def test_count_and_units_at_1e9(self, monkeypatch, request):
        # and no candidate is tested for primality twice: the order test
        # comes first, so a prime of order d is not tested again by every
        # order h that d divides.  With the table every candidate at 1e9
        # lies below 10**6, decided by the index of 2 with no primality
        # test, so the tests are watched at 1e10 with the scanned section
        # hidden, where the scans find primes above 10**6
        tested = []
        is_prime = count_module.is_prime

        def spy(q):
            tested.append(q)
            return is_prime(q)

        monkeypatch.setattr(count_module, "is_prime", spy)
        budget = Budget()
        assert ov_count(10**9, budget).ov == 663
        assert budget.spent == 1268
        assert tested == []
        request.getfixturevalue("no_scanned_section")
        assert ov_count(10**10).ov == 1730
        assert tested and len(tested) == len(set(tested))

    def test_count_and_units_at_1e10_run_both_order_tests(self, monkeypatch, request):
        # self-computed regression pins: the values this implementation gives,
        # not checked against an outside source.  With the table only orders
        # from 10**4 up are scanned, every candidate below 10**6, decided by
        # the index of 2, so neither order test runs (and none of those
        # orders has phi(h) below REMAINDER_BITS); with the scanned section
        # hidden the orders below 10**4 are scanned above 10**6 too, and run
        # both tests
        tests = {"remainder": 0, "pow": 0}
        cyclotomic, strip = count_module._cyclotomic_value, count_module._strip

        def cyclotomic_spy(*args):
            tests["remainder"] += 1
            return cyclotomic(*args)

        def strip_spy(*args):
            tests["pow"] += 1
            return strip(*args)

        monkeypatch.setattr(count_module, "_cyclotomic_value", cyclotomic_spy)
        monkeypatch.setattr(count_module, "_strip", strip_spy)
        budget = Budget()
        assert ov_count(10**10, budget).ov == 1730
        assert budget.spent == 36701
        assert tests["remainder"] == tests["pow"] == 0
        request.getfixturevalue("no_scanned_section")
        budget = Budget()
        assert ov_count(10**10, budget).ov == 1730
        assert budget.spent == 1867171
        assert tests["remainder"] > 0 and tests["pow"] > 0

    def test_count_units_and_members_at_1e11(self):
        # self-computed regression pin: the first x of the grid whose pass
        # over the index of 2 meets 10**6, so that orders from 10**4 up read
        # their primes below 10**6 off the pass and scan above it
        budget = Budget()
        rec = ov_count(10**11, budget)
        assert rec.ov == 4480
        assert budget.spent == 548745
        assert hashlib.sha256(",".join(map(str, rec.members)).encode()).hexdigest() == (
            "e18c0842175f56d9db62e3137d623c2452f62fb475f0fb26ae2c5ebd5af3b94b"
        )

    def test_default_budget_reach(self):
        # README's largest x on the grid of multiples of 1e9 that the default
        # budget completes, and the next grid point, which it refuses
        assert ov_count(938 * 10**9).ov == 11440
        with pytest.raises(EffortError, match="of 20000000 units"):
            ov_count(939 * 10**9)

    def test_distinct_primes_per_order_stay_under_omega_bound(self):
        from sympy import factorint

        rec = ov_count(10**6)
        for h, _ in rec.by_order.items():
            primes = set()
            for m in rec.members:
                if mult_order(2, m) == h:
                    primes.update(factorint(m))
            assert len(primes) < h / math.log2(h), h


class TestTwoSteps:
    def test_sweep_lists_each_prime_up_to_sqrt_x_by_order(self):
        x = 10**6
        orders = count_module._sweep(x)
        for h, seeds in orders.items():
            assert seeds == sorted(seeds)
            assert all(mult_order(2, p) == h for p in seeds), h
        listed = sorted(p for seeds in orders.values() for p in seeds)
        assert listed == list(primerange(3, math.isqrt(x) + 1))

    def test_sweep_strips_p_minus_1_above_the_limit(self):
        # (10**6 + 100)**2 puts six primes above 10**6 below sqrt(x), whose
        # orders come from the primes of p - 1, not from the index
        orders = count_module._sweep((10**6 + 100) ** 2)
        assert all(seeds == sorted(seeds) for seeds in orders.values())
        listed = sorted(p for seeds in orders.values() for p in seeds)
        assert listed == list(primerange(3, 10**6 + 101))
        above = {p: h for h, seeds in orders.items() for p in seeds if p > 10**6}
        assert sorted(above) == [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
        assert all(n_order(2, p) == h for p, h in above.items())

    def test_completion_of_any_subset_of_orders(self):
        # completing some orders of the sweep gives exactly their groups
        x = 10**6
        full = ov_count(x)
        orders = count_module._sweep(x)
        odd = {h: group for h, group in orders.items() if h % 2}
        groups = count_module._complete(x, odd, Budget())
        assert {h: len(v) for h, v in groups.items()} == {
            h: c for h, c in full.by_order.items() if h % 2}
        members = sorted(m for v in groups.values() for m in v)
        assert members == [m for m in full.members if mult_order(2, m) % 2]


class TestOnePass:
    """count._complete against the plain per-order loop, and its reads below 10**6, with a prime
    of the order in hand and without, against the walk of the index of 2."""

    @pytest.mark.parametrize("hidden", [False, True])
    @pytest.mark.parametrize("x", [10**9, 10**10 - 10**8, 10**10 + 10**8, 2 * 10**10])
    def test_equals_the_per_order_loop(self, request, x, hidden):
        if hidden:
            request.getfixturevalue("no_scanned_section")
        orders = count_module._sweep(x)
        one_pass, per_order = Budget(10**8), Budget(10**8)
        got = count_module._complete(x, orders, one_pass)
        assert got == per_order_complete(x, orders, per_order)
        assert one_pass.spent == per_order.spent > 0

    @pytest.mark.parametrize("units", [1, 10, 5000, 20000, 36700])
    def test_runs_out_where_the_per_order_loop_does(self, units):
        # ov_count(10**10) spends 36701 units
        orders = count_module._sweep(10**10)
        with pytest.raises(EffortError) as one_pass:
            count_module._complete(10**10, orders, Budget(units))
        with pytest.raises(EffortError) as per_order:
            per_order_complete(10**10, orders, Budget(units))
        assert str(one_pass.value) == str(per_order.value)
        assert one_pass.value.partial == per_order.value.partial
        assert list(one_pass.value.partial) == sorted(one_pass.value.partial)

    def test_runs_once_and_only_where_a_scan_starts_below_the_limit(self, links_followed):
        # up to 1e8 every order is read from the table, so no order needs
        # the links; at 1e10 each order from 10011 up, the first that lists
        # none, follows them once from its largest prime up to sqrt(x) =
        # 10**5 where a candidate lies in (10**5, x // P_h[0]]
        assert ov_count(10**8).ov == 266
        assert links_followed == []
        assert ov_count(10**10).ov == 1730
        orders = count_module._sweep(10**10)
        above = [h for h in sorted(orders) if h >= 10011]
        read = [h for h in above if candidates_above(h, 10**5, 10**10 // orders[h][0])]
        starts = [q for q, _ in links_followed if q <= 10**5]
        assert starts == [orders[h][-1] for h in read]
        assert read[0] == 10011 and 0 < len(read) < len(above) == 6117

    @pytest.mark.parametrize("x, hidden", [
        (10**9, False), (10**9, True), (10**10, False), (2 * 10**10, False), (10**11, False),
        ((10**6 + 100) ** 2, False)])
    def test_link_read_equals_the_walk(self, monkeypatch, request, links_followed, x, hidden):
        # every order of the sweep gets from _primes_of_order the same primes
        # at the same charge whether it is given its largest prime up to
        # sqrt(x) or none, and below 10**6 they are what one walk of the
        # index of 2 over all the orders gives, cut to the interval of each;
        # the scan from 10**6 up, the same code on both routes, is left out
        if hidden:
            request.getfixturevalue("no_scanned_section")
        monkeypatch.setattr(count_module, "_scan", lambda h, lo, limit, budget: [])
        root, orders = math.isqrt(x), count_module._sweep(x)
        caps = {h: x // seeds[0] for h, seeds in orders.items()}
        walk = walked_primes(root, caps)
        read = 0
        for h, seeds in orders.items():
            by_links, no_seed = Budget(), Budget()
            got = count_module._primes_of_order(h, root, caps[h], by_links, seeds[-1])
            assert got == count_module._primes_of_order(h, root, caps[h], no_seed), h
            assert by_links.spent == no_seed.spent, h
            assert [q for q in got if q < 10**6] == walk.get(h, []), h
            read += len(walk.get(h, []))
        # (10**6 + 100)**2 has no candidate below 10**6, and follows no link
        assert (read > 0) == (root < 10**6) == (links_followed != [])

    @pytest.mark.usefixtures("no_phi2_table")
    def test_link_read_keeps_the_limit_and_drops_lo(self):
        # the first three primes of order 11812, linked: a read, given the
        # first or no prime in hand, keeps a prime at the limit itself and
        # drops one at lo, as the walk does, at the walk's charge
        h, (q, r, s) = 11812, (11813, 35437, 566977)
        assert pow_primes_of_order(h, 0, s) == [q, r, s]
        for lo, limit, want in ((q, r, [r]), (r, s, [s]), (q, s - 1, [r])):
            assert walked_primes(lo, {h: limit}).get(h, []) == want
            by_links, no_seed = Budget(), Budget()
            assert count_module._primes_of_order(h, lo, limit, by_links, q) == want
            assert count_module._primes_of_order(h, lo, limit, no_seed) == want
            assert by_links.spent == no_seed.spent == len(candidates_above(h, lo, limit)) > 0
        # with the table hidden order 6 lists nothing, and has no prime at
        # all: the read with none in hand steps over every candidate below
        # 10**6 and finds none, charging each
        assert primover._known_reader()(6, 0, 10**6 - 1) == ([], 166666, 0)
        budget = Budget()
        assert count_module._primes_of_order(6, 0, 10**6 - 1, budget) == []
        assert budget.spent == len(candidates_above(6, 0, 10**6 - 1)) == 166666

    def test_scan_tests_only_from_the_limit_up(self, monkeypatch):
        # the links read every prime below 10**6, so at 1e10, where every
        # limit lies below it, no order calls the scan; at 1e11 each call's
        # limit reaches 10**6, and the primes it finds lie from there up
        calls = []
        scan = count_module._scan

        def spy(h, lo, limit, budget):
            got = scan(h, lo, limit, budget)
            calls.append((limit, got))
            return got

        monkeypatch.setattr(count_module, "_scan", spy)
        assert ov_count(10**10).ov == 1730
        assert calls == []
        budget = Budget()
        assert ov_count(10**11, budget).ov == 4480
        assert budget.spent == 548745
        assert calls and all(limit >= 10**6 for limit, _ in calls)
        assert any(got for _, got in calls)
        assert all(q >= 10**6 for _, got in calls for q in got)
        # order 11520 lists none and has a prime on each side of 10**6: the
        # walk reads one and the scan finds the other, and the candidates
        # in (9e5, 2e6] are charged once
        calls.clear()
        budget = Budget()
        got = count_module._primes_of_order(11520, 900_000, 2 * 10**6, budget)
        assert got == [921601, 1198081]
        assert calls == [(2 * 10**6, [1198081])]
        assert budget.spent == len(candidates_above(11520, 900_000, 2 * 10**6)) == 95


class TestFlatStep:
    """Each decision of count's one step per order, at its boundary: the
    exponent of a lone prime, a read that ends at the limit or starts at
    sqrt(x), and the scan from 10**6 up."""

    @pytest.mark.parametrize("h, q", [(364, 1093), (1755, 3511)])
    def test_lone_wieferich_prime(self, h, q):
        # a lone prime below 10**6 forms no member, but for 1093 and 3511,
        # whose squares divide 2**h - 1: a member at x = q**2, none below it
        assert count_module._sweep(q * q)[h] == [q]
        for x, want in ((q * q, {h: [q * q]}), (q * q - 1, {})):
            budget = Budget(0)
            assert count_module._complete(x, {h: [q]}, budget) == want, x
        assert ov_count(q * q).by_order[h] == 1
        assert h not in ov_count(q * q - 1).by_order

    def test_linked_prime_at_the_limit(self):
        # order 11812 lists nothing; at x = q * r its one seed q has the
        # limit x // q = r, the next prime of its order by the links, which
        # is read, and one below that limit it is not; at x = r**2 the
        # largest seed is sqrt(x) itself, where the links start, and is not
        # read again.  Each pays for every candidate in (sqrt(x), limit]
        h, q, r = 11812, 11813, 35437
        assert primover._orders2()[1][q] == r
        for x, seeds, want in ((q * r, [q], {h: [q * r]}), (q * r - 1, [q], {}),
                               (r * r, [q, r], {h: [q * r]})):
            assert count_module._sweep(x)[h] == seeds
            budget = Budget()
            assert count_module._complete(x, {h: seeds}, budget) == want, x
            assert budget.spent == len(candidates_above(h, math.isqrt(x), x // q)) > 0, x

    def test_section_prime_at_sqrt_x_and_at_the_limit(self):
        # order 1076 lists 2153, 3229, 5381 and 8609 first in the scanned section:
        # at x = 3229**2 the prime at sqrt(x) is a seed and is not read again,
        # and at x = 2153 * 5381 the prime at the limit x // 2153 is read, as
        # at x = 2153 * 3229, where it is the one candidate above sqrt(x); a
        # section order below its bound is read at no charge
        h = 1076
        assert _scanned_by_order()[h][:4] == [2153, 3229, 5381, 8609]
        assert candidates_above(h, math.isqrt(2153 * 3229), 3229) == range(3229, 3230, 1076)
        for x, seeds, want in ((2153 * 3229, [2153], [2153 * 3229]),
                               (3229**2, [2153, 3229], [2153 * 3229]),
                               (2153 * 5381, [2153, 3229], [2153 * 3229, 2153 * 5381]),
                               (2153 * 5381 - 1, [2153, 3229], [2153 * 3229])):
            assert count_module._sweep(x)[h] == seeds
            budget = Budget(0)
            assert sorted(count_module._complete(x, {h: seeds}, budget)[h]) == want, x

    def test_limit_across_the_trial_division_limit(self):
        # order 10396 has the primes 31189 and 1070789 up to 3e6: at
        # x = 31189 * 1070789 the read below 10**6 finds nothing more and
        # the scan from there up finds the prime at the limit; one below,
        # nothing; each candidate in (sqrt(x), limit] is charged once
        h, q, r = 10396, 31189, 1070789
        assert pow_primes_of_order(h, 0, 3 * 10**6) == [q, r]
        for x, want in ((q * r, {h: [q * r]}), (q * r - 1, {})):
            budget = Budget()
            assert count_module._complete(x, {h: [q]}, budget) == want, x
            assert budget.spent == len(candidates_above(h, math.isqrt(x), x // q)), x

    @pytest.mark.usefixtures("no_scanned_section")
    def test_section_hidden_reads_the_table_first(self):
        # with the section hidden its limit reads 0, below every order, yet
        # a tabled order is still read off its entry, at no charge, while
        # order 1076 lists nothing and pays for each candidate from sqrt(x)
        # up, with the members it has with the section
        x = 2153 * 5381
        orders = count_module._sweep(x)
        assert orders[11] == [23, 89]
        assert count_module._complete(x, {11: orders[11]}, Budget(0)) == {11: [2047]}
        budget = Budget()
        got = count_module._complete(x, {1076: orders[1076]}, budget)
        assert sorted(got[1076]) == [2153 * 3229, 2153 * 5381]
        assert budget.spent == len(candidates_above(1076, math.isqrt(x), x // 2153)) > 0

    @pytest.mark.usefixtures("no_phi2_table")
    @pytest.mark.parametrize("x", [10**7, 3 * 10**7])
    def test_table_hidden_equals_the_per_order_loop(self, x):
        # with the whole table hidden every order h >= 3 lists nothing: the
        # links below 10**6 and the scan above, charged from sqrt(x) up
        orders = count_module._sweep(x)
        one_pass, per_order = Budget(10**8), Budget(10**8)
        assert count_module._complete(x, orders, one_pass) == per_order_complete(x, orders,
                                                                                per_order)
        assert one_pass.spent == per_order.spent > 0


class TestByOrder:
    def test_examples(self):
        assert ov_count_by_order(10**4, 28) == 1
        assert ov_count_by_order(2046, 11) == 0
        assert ov_count_by_order(10**6, 1) == 0

    def test_wieferich_spot_query(self):
        assert ov_count_by_order(1194649, 364) == 1
        assert ov_count_by_order(1194648, 364) == 0

    def test_upto_order_consistency(self):
        total = ov_count(10**5).ov
        assert ov_count_upto_order(10**5, math.isqrt(10**5)) == total
        by_hand = sum(ov_count_by_order(10**5, h) for h in (11, 28, 36, 48, 52, 60))
        assert ov_count_upto_order(10**5, 60) == by_hand

    @pytest.mark.parametrize("x", [10**5, 1194649, 10**6, 10**11])
    def test_seed_scan_matches_the_sweep(self, x):
        # by order, the least prime of h comes from a read of h alone, not
        # the sweep of p <= sqrt(x)
        by_order = ov_count(x).by_order
        if x == 10**11:
            # every order from 10**4 up lists none, so the read with no prime
            # in hand steps along q = 1 (mod h) from 0: the 2062 such orders
            # with members, and as many without, a seeded sample
            listed = [h for h in by_order if h >= 10**4]
            unlisted = [h for h in range(10**4, math.isqrt(x) + 1) if h not in by_order]
            assert len(listed) == 2062
            for h in listed + random.Random(36).sample(unlisted, len(listed)):
                assert ov_count_by_order(x, h) == by_order.get(h, 0), h
            return
        for h in range(1, math.isqrt(x) + 1):
            assert ov_count_by_order(x, h) == by_order.get(h, 0), h
        running = 0
        for h, c in by_order.items():
            running += c
            assert ov_count_upto_order(x, h) == running, h
            assert ov_count_upto_order(x, h - 1) == running - c, h

    @pytest.mark.parametrize("x, n, count, spent", [
        (1194649, 364, 1, 0), (10**6, 28, 1, 0), (10**8, 1000, 0, 0), (10**10, 10044, 1, 33),
        (10**11, 10820, 7, 170)])
    def test_by_order_charge(self, x, n, count, spent):
        # self-computed regression pins: the seed read up to sqrt(x), then
        # the completion of the one order; orders below 10**4 are read from
        # the table, so only 10044 and 10820 are charged
        budget = Budget()
        assert ov_count_by_order(x, n, budget) == count
        assert budget.spent == spent

    @pytest.mark.parametrize("x, n, count, spent", [
        (1194649, 364, 28, 0), (10**8, 1000, 168, 0), (3 * 10**8, 10098, 409, 6)])
    def test_upto_order_charge(self, x, n, count, spent):
        # self-computed regression pins: the whole sweep, then the
        # completion of the orders up to n; orders below 10**4 are read from
        # the table, so only 10098 is charged
        budget = Budget()
        assert ov_count_upto_order(x, n, budget) == count
        assert budget.spent == spent

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ov_count_by_order(10**4, 0)
        for x in (-5, 2):
            with pytest.raises(ValueError, match="x must be >= 3"):
                ov_count(x)
            with pytest.raises(ValueError, match="x must be >= 3"):
                ov_count_by_order(x, 28)
            with pytest.raises(ValueError, match="x must be >= 3"):
                ov_count_upto_order(x, 28)


class TestBoundReport:
    def test_csv_golden(self):
        rows = bound_report([1000, 2047])
        assert bound_report_csv(rows) == (
            "x,ov,x_3_4,ratio,x_1_2\n"
            "1000,0,177.827941,0.000000,31.622777\n"
            "2047,1,304.325526,0.003286,45.243784\n"
        )

    def test_row_fields(self):
        (row,) = bound_report([2047])
        assert row.x == 2047
        assert row.ov == 1
        assert row.x_3_4 == pytest.approx(2047**0.75)
        assert row.x_1_2 == pytest.approx(2047**0.5)
        assert row.ratio == pytest.approx(1 / 2047**0.75)

    def test_monotone_counts(self):
        rows = bound_report([10**4, 10**5, 10**6])
        assert [r.ov for r in rows] == [4, 8, 24]
        assert all(r.ratio < 1 for r in rows)

    def test_requires_ascending(self):
        with pytest.raises(ValueError):
            bound_report([100, 100])
        with pytest.raises(ValueError):
            bound_report([200, 100])
        with pytest.raises(ValueError):
            bound_report([])

    def test_bounds_below_3(self):
        # no overpseudoprime lies below 2047; the enumeration itself starts at 3
        for xs in ([1], [2], [1, 2], [2, 3], [1, 2, 2047]):
            rows = bound_report(xs)
            assert [(r.x, r.ov) for r in rows] == [(x, int(x == 2047)) for x in xs]
        with pytest.raises(ValueError):
            enumerate_overpseudoprimes(2)

    def test_rejects_x_below_1(self):
        for xs in ([0, 100], [-5, 100], [0]):
            with pytest.raises(ValueError):
                bound_report(xs)
        row = bound_report([1, 100])[0]
        assert (row.x, row.ov, row.x_3_4, row.ratio) == (1, 0, 1.0, 0.0)
