"""Exact-arithmetic kernel for a shift-basis module algebra, its integer
multiset cone calculus, coefficient-family recurrences, an independent
Laurent evaluation oracle, and certificate emission."""

from .certifier import (
    ConeCertificate,
    PositivityCertificate,
    certify_cone,
    certify_pair,
    certify_positivity,
)
from .laurent_oracle import LaurentPoly, cross_check, eval_basis, evaluate, lmul
from .multiset_cone import (
    ConeDecomposition,
    IntegerMultiset,
    cone_subset_check,
    decompose_cone,
    in_cone,
    interval,
    interval_sum_decompose,
    msum,
    munion,
    to_tilde,
)
from .recurrence_engine import (
    CheckResult,
    check_structure,
    closed_element,
    e0_closed,
    e0_raw,
    e1_closed,
    e1_raw,
    growth_stats,
    raw_element,
)
from .tilde_ring import (
    ChElement,
    TildeElement,
    basis,
    fold_L,
    left_mul_h,
    mul,
    w0,
    w1,
)

__version__ = "0.1.0"

__all__ = [
    "ChElement",
    "CheckResult",
    "ConeCertificate",
    "ConeDecomposition",
    "IntegerMultiset",
    "LaurentPoly",
    "PositivityCertificate",
    "TildeElement",
    "basis",
    "certify_cone",
    "certify_pair",
    "certify_positivity",
    "check_structure",
    "closed_element",
    "cone_subset_check",
    "cross_check",
    "decompose_cone",
    "e0_closed",
    "e0_raw",
    "e1_closed",
    "e1_raw",
    "eval_basis",
    "evaluate",
    "fold_L",
    "growth_stats",
    "in_cone",
    "interval",
    "interval_sum_decompose",
    "left_mul_h",
    "lmul",
    "msum",
    "mul",
    "munion",
    "raw_element",
    "to_tilde",
    "w0",
    "w1",
]
