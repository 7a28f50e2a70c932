"""Superpatterns on small alphabets.

Pattern containment by dense-rank order isomorphism, classification and
exhaustive enumeration of superpatterns over d-letter alphabets (as far as
the containment automaton's budgets allow), exact rational waiting-time
distributions for two and three letters with their generating functions, and
a seeded Monte Carlo simulator.  See the README for the matching CLI.
"""

from .automaton import ContainmentAutomaton, get_automaton
from .classify import (
    QUATERNARY_EXAMPLE,
    BudgetExceededError,
    ClassFlags,
    CountReport,
    classify,
    count_beta_bruteforce,
    count_formulas,
    count_minimal_upto_iso,
    count_strict_minimal_upto_iso,
    count_strict_superpatterns,
    ends_with_minimum_superpattern,
    has_flanking_pairs,
    is_superpattern,
    iter_strict_minimal_upto_iso,
    iter_strict_superpatterns,
    iter_superpatterns,
    min_superpattern_length,
    minimum_superpatterns_ternary,
    missing_patterns,
    strict_counts_by_length,
    verify_quaternary_counterexample,
)
from .patterns import (
    Pattern,
    Word,
    contains_pattern,
    dense_rank,
    enumerate_preferential_arrangements,
    fubini,
    relabel_canonical,
)
from .series import Polynomial, RationalFunction, moments_from_gf
from .waiting import (
    SimSummary,
    binary_pmf,
    brute_force_pmf,
    coupon_expectations,
    pmf_table,
    simulate_tau,
    ternary_pmf,
    waiting_time_gf,
)

__version__ = "0.1.0"

__all__ = [
    "Word",
    "Pattern",
    "dense_rank",
    "contains_pattern",
    "enumerate_preferential_arrangements",
    "fubini",
    "relabel_canonical",
    "ContainmentAutomaton",
    "get_automaton",
    "BudgetExceededError",
    "ClassFlags",
    "CountReport",
    "is_superpattern",
    "missing_patterns",
    "classify",
    "min_superpattern_length",
    "strict_counts_by_length",
    "count_strict_superpatterns",
    "iter_strict_superpatterns",
    "iter_superpatterns",
    "count_minimal_upto_iso",
    "iter_strict_minimal_upto_iso",
    "count_strict_minimal_upto_iso",
    "count_formulas",
    "count_beta_bruteforce",
    "has_flanking_pairs",
    "ends_with_minimum_superpattern",
    "minimum_superpatterns_ternary",
    "QUATERNARY_EXAMPLE",
    "verify_quaternary_counterexample",
    "Polynomial",
    "RationalFunction",
    "moments_from_gf",
    "SimSummary",
    "binary_pmf",
    "ternary_pmf",
    "brute_force_pmf",
    "simulate_tau",
    "pmf_table",
    "coupon_expectations",
    "waiting_time_gf",
    "__version__",
]
