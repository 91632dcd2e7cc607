"""Toolkit for overpseudoprimes to base 2 and their generalizations.

An overpseudoprime is an odd composite n equal to r(n) * h(n) + 1, where
h(n) is the multiplicative order of 2 mod n and r(n) the number of
cyclotomic cosets of 2 mod n; equivalently, every prime-power divisor of n
shares one multiplicative order of 2.  The package detects them, builds
them from Aurifeuillian factorizations and primitive parts of 2**n - 1,
enumerates and counts them up to a bound, and searches witness bases.
"""

from .arith import (
    Budget,
    DEFAULT_WORK_UNITS,
    Factorization,
    factorize,
    gcd,
    is_prime,
    lcm,
    pow_mod,
)
from .classify import (
    ClassificationFlags,
    ClassificationReport,
    classify,
    is_carmichael,
    is_fermat_psp,
    is_overpseudoprime_criterion,
    is_overpseudoprime_def,
    is_strong_psp,
    is_super_poulet,
)
from .count import (
    BoundRow,
    CountRecord,
    bound_report,
    bound_report_csv,
    enumerate_overpseudoprimes,
    ov_count,
    ov_count_by_order,
    ov_count_upto_order,
)
from .errors import ContractViolationError, EffortError
from .generate import (
    AurifeuillianPair,
    GenerationTrace,
    aurifeuillian_pair,
    generate_overpseudoprime,
    generate_trace,
    least_overpseudoprime_with_order,
)
from .order import (
    CosetDecomposition,
    coset_count,
    cyclotomic_cosets,
    mult_order,
    prime_power_order,
)
from .primover import (
    MERSENNE_OVERPSEUDOPRIME,
    MERSENNE_PRIME,
    PrimitivePart,
    check_mersenne_dichotomy,
    cyclotomic_value,
    omega_bound_report,
    primitive_part,
    primover_ratio,
)
from .witness import (
    WitnessRecord,
    common_witness,
    is_overpseudoprime_base,
    least_witness,
)

__version__ = "0.1.0"

__all__ = [
    "AurifeuillianPair",
    "BoundRow",
    "Budget",
    "ClassificationFlags",
    "ClassificationReport",
    "ContractViolationError",
    "CosetDecomposition",
    "CountRecord",
    "DEFAULT_WORK_UNITS",
    "EffortError",
    "Factorization",
    "GenerationTrace",
    "MERSENNE_OVERPSEUDOPRIME",
    "MERSENNE_PRIME",
    "PrimitivePart",
    "WitnessRecord",
    "aurifeuillian_pair",
    "bound_report",
    "bound_report_csv",
    "check_mersenne_dichotomy",
    "classify",
    "common_witness",
    "coset_count",
    "cyclotomic_cosets",
    "cyclotomic_value",
    "enumerate_overpseudoprimes",
    "factorize",
    "gcd",
    "generate_overpseudoprime",
    "generate_trace",
    "is_carmichael",
    "is_fermat_psp",
    "is_overpseudoprime_base",
    "is_overpseudoprime_criterion",
    "is_overpseudoprime_def",
    "is_prime",
    "is_strong_psp",
    "is_super_poulet",
    "lcm",
    "least_overpseudoprime_with_order",
    "least_witness",
    "mult_order",
    "omega_bound_report",
    "ov_count",
    "ov_count_by_order",
    "ov_count_upto_order",
    "pow_mod",
    "prime_power_order",
    "primitive_part",
    "primover_ratio",
]
