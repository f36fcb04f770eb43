"""The telescoped left action against naive reference implementations.

mul, left_mul_h, msum and the closed-route expansion all run on one
sparse product plus an exact division by x^2 - 1.  The references below
are the direct loops those functions used to be: one shifted copy of the
right factor per index -i, -i+2, ..., i of every folded term.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcone.multiset_cone import (
    IntegerMultiset,
    interval,
    msum,
    random_cone_member,
    to_tilde,
)
from chebcone.recurrence_engine import _left_expand
from chebcone.tilde_ring import (
    TildeElement,
    basis,
    fold_L,
    left_mul_h,
    mul,
    random_element,
)

BIG = 2**64


def ref_mul(g1: TildeElement, g2: TildeElement) -> TildeElement:
    acc: dict[int, int] = {}
    for i, c in fold_L(g1).items():
        for k in range(-i, i + 1, 2):
            for j, d in g2.items():
                acc[j + k] = acc.get(j + k, 0) + c * d
    return TildeElement(acc)


def ref_left_mul_h(i: int, g: TildeElement) -> TildeElement:
    acc: dict[int, int] = {}
    for k in range(-i, i + 1, 2):
        for j, c in g.items():
            acc[j + k] = acc.get(j + k, 0) + c
    return TildeElement(acc)


def ref_msum(m1: IntegerMultiset, m2: IntegerMultiset) -> IntegerMultiset:
    acc: dict[int, int] = {}
    for a, ca in m1.items():
        for b, cb in m2.items():
            acc[a + b] = acc.get(a + b, 0) + ca * cb
    return IntegerMultiset.from_counts(acc)


def ref_left_expand(weights: IntegerMultiset, addend: IntegerMultiset) -> IntegerMultiset:
    acc: dict[int, int] = {}
    for i, d in fold_L(to_tilde(weights)).items():
        if d < 0:
            raise ValueError(f"negative folded weight {d} at h[{i}]: not a multiset")
        for x, m in ref_msum(interval(-i, i), addend).items():
            acc[x] = acc.get(x, 0) + d * m
    return IntegerMultiset.from_counts(acc)


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

coefficients = st.one_of(st.integers(-3, 3), st.integers(-(BIG**2), BIG**2))
elements = st.dictionaries(st.integers(-14, 14), coefficients, max_size=8).map(TildeElement)
multisets = st.dictionaries(
    st.integers(-14, 14), st.integers(1, 3) | st.integers(BIG, BIG**2), max_size=8
).map(IntegerMultiset.from_counts)


@PROPERTY
@given(elements, elements)
def test_mul_matches_reference(g1, g2):
    assert mul(g1, g2) == ref_mul(g1, g2)


@PROPERTY
@given(st.integers(0, 12), elements)
def test_left_mul_h_matches_reference(i, g):
    assert left_mul_h(i, g) == ref_left_mul_h(i, g)


@PROPERTY
@given(multisets, multisets)
def test_msum_matches_reference(m1, m2):
    assert msum(m1, m2) == ref_msum(m1, m2)


@PROPERTY
@given(multisets, multisets)
def test_left_expand_matches_reference(weights, addend):
    try:
        expected = ref_left_expand(weights, addend)
    except ValueError as exc:
        with pytest.raises(ValueError, match="negative folded weight") as info:
            _left_expand(weights, addend)
        assert str(info.value) == str(exc)
    else:
        assert _left_expand(weights, addend) == expected


def test_seeded_products_match_reference():
    rng = random.Random(31)
    for _ in range(300):
        span = rng.randint(0, 20)
        bound = rng.choice((1, 3, BIG * 5))
        g1 = random_element(rng, span=span, coeff_bound=bound, density=rng.random())
        g2 = random_element(rng, span=span, coeff_bound=bound, density=rng.random())
        assert mul(g1, g2) == ref_mul(g1, g2)
        i = rng.randint(0, 15)
        assert left_mul_h(i, g2) == ref_left_mul_h(i, g2)


def test_seeded_expansions_of_cone_members_match_reference():
    # members of a cone centered at c >= 0 fold to non-negative weights
    rng = random.Random(32)
    for _ in range(100):
        weights = random_cone_member(rng, rng.randint(0, 6))
        addend = random_cone_member(rng, rng.randint(-6, 6))
        assert _left_expand(weights, addend) == ref_left_expand(weights, addend)
        assert msum(weights, addend) == ref_msum(weights, addend)


def test_empty_operands():
    zero = TildeElement.zero()
    g = basis(-3) + 2 * basis(4)
    assert mul(zero, g) == zero
    assert mul(g, zero) == zero
    assert left_mul_h(5, zero) == zero
    empty = IntegerMultiset.empty()
    m = IntegerMultiset([0, 2, 2])
    assert msum(empty, m) == empty
    assert msum(m, empty) == empty
    assert _left_expand(empty, m) == empty
    assert _left_expand(m, empty) == empty


def test_left_factors_that_fold_to_zero():
    g = basis(-5) + 3 * basis(2) - basis(7)
    assert mul(basis(-1), g) == TildeElement.zero()
    assert mul(basis(0) + basis(-2), g) == TildeElement.zero()
    assert mul(basis(3) + basis(-5), g) == TildeElement.zero()
    assert _left_expand(IntegerMultiset([-1, -1]), IntegerMultiset([4])).is_empty()


def test_identity_and_mixed_parity():
    g = basis(-6) - basis(-3) + 5 * basis(0) + basis(1) - 2 * basis(8)
    assert left_mul_h(0, g) == g
    assert mul(basis(0), g) == g
    # even and odd indices on both sides, with cancellation between terms
    h = basis(-4) + basis(-1) - basis(2) + basis(3)
    assert mul(h, g) == ref_mul(h, g)
    assert mul(basis(1), basis(0) - basis(2)) == basis(-1) - basis(3)


def test_coefficients_beyond_machine_range():
    big = 3 * BIG + 1
    g1 = big * basis(2) - (big + 7) * basis(-4)
    g2 = (BIG**2) * basis(-1) - big * basis(5)
    product = mul(g1, g2)
    assert product == ref_mul(g1, g2)
    assert max(abs(c) for _, c in product.items()) > BIG**3


def test_negative_folded_weight_is_rejected():
    with pytest.raises(ValueError, match=r"negative folded weight -1 at h\[1\]"):
        _left_expand(IntegerMultiset([-3]), IntegerMultiset([0]))
