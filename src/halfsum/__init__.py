"""Verification toolkit for half-interval quadratic residue counts.

Core claim under audit: for every prime p = 3 mod 4, the character sum
A(p) = sum of (a/p) over a = 1 .. (p-1)/2 is strictly positive. The
package evaluates Legendre symbols by two independent methods, counts
residues in the half interval, executes a constructive pairing audit,
checks an exact floor-series identity, and cross-checks class numbers
h(-p) computed two ways.
"""

__version__ = "0.1.0"

from .arith import (
    OddPrime,
    is_prime,
    legendre_euler,
    legendre_reciprocity,
)
from .charsum import (
    HalfSumRecord,
    full_sum,
    half_sum,
    half_sum_direct,
    half_sum_sieve,
)
from .classnum import (
    ClassNumberRecord,
    LFunctionRecord,
    ReducedForm,
    class_number_character_sum,
    identity_check,
    l_value_estimate,
    reduced_forms,
    reduced_forms_count,
)
from .construction import (
    ConstructionReport,
    DedupEntry,
    FamilyReport,
    PairWitness,
    build_report,
    case1_bounds,
    case2_bounds,
    classify_case,
    construct_case1,
    construct_case2,
    verify_small_regime,
)
from .errors import ConsistencyError, DomainError, ResourceLimitError
from .floorlemma import floor_half_series, truncation_index
from .primes import iter_primes, primes_in_range

__all__ = [
    "OddPrime",
    "is_prime",
    "legendre_euler",
    "legendre_reciprocity",
    "HalfSumRecord",
    "full_sum",
    "half_sum",
    "half_sum_direct",
    "half_sum_sieve",
    "ClassNumberRecord",
    "LFunctionRecord",
    "ReducedForm",
    "class_number_character_sum",
    "identity_check",
    "l_value_estimate",
    "reduced_forms",
    "reduced_forms_count",
    "ConstructionReport",
    "DedupEntry",
    "FamilyReport",
    "PairWitness",
    "build_report",
    "case1_bounds",
    "case2_bounds",
    "classify_case",
    "construct_case1",
    "construct_case2",
    "verify_small_regime",
    "ConsistencyError",
    "DomainError",
    "ResourceLimitError",
    "floor_half_series",
    "truncation_index",
    "iter_primes",
    "primes_in_range",
    "__version__",
]
