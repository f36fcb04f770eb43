"""Exact-arithmetic kernel for a shift-basis module algebra, its integer
multiset cone calculus, coefficient-family recurrences, an independent
Laurent evaluation oracle, and certificate emission."""

__version__ = "0.1.0"
