"""The telescoped left action against naive reference implementations.

mul, left_mul_h, msum and the closed-route expansion all run on one
sparse product plus an exact division by x^2 - 1.  The references below
are the direct loops those functions used to be: one shifted copy of the
right factor per index -i, -i+2, ..., i of every folded term.  Products
of at least KRONECKER_MIN_TERM_OPS term pairs are packed into one big-int
multiply; the large-operand cases below reach both sides of that constant.
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
from chebcone import recurrence_engine, tilde_ring
from chebcone.cli import main
from chebcone.recurrence_engine import _left_expand
from chebcone.tilde_ring import (
    KRONECKER_MIN_TERM_OPS,
    TildeElement,
    _kronecker_pack,
    _kronecker_product,
    _kronecker_unpack,
    _numerator,
    _sparse_product,
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


def ref_product(a, b) -> dict[int, int]:
    """Sparse product with cancelled coefficients dropped."""
    acc: dict[int, int] = {}
    for i, c in a:
        for j, d in b:
            acc[i + j] = acc.get(i + j, 0) + c * d
    return {k: v for k, v in acc.items() if v}


def nonzero(p: dict[int, int]) -> dict[int, int]:
    return {k: v for k, v in p.items() if v}


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
LARGE = settings(max_examples=25, deadline=None, derandomize=True, database=None)

coefficients = st.one_of(st.integers(-3, 3), st.integers(-(BIG**2), BIG**2))
elements = st.dictionaries(st.integers(-14, 14), coefficients, max_size=8).map(TildeElement)
multisets = st.dictionaries(
    st.integers(-14, 14), st.integers(1, 3) | st.integers(BIG, BIG**2), max_size=8
).map(IntegerMultiset.from_counts)


def _with_parity(keys: dict, parity: int | None) -> dict:
    # parity None keeps both parities, so the packed product uses step 1
    return keys if parity is None else {2 * k + parity: c for k, c in keys.items()}


def large(values, lo=-40):
    """Maps of 20 to 80 keys, all of one parity or mixed."""
    keys = st.dictionaries(st.integers(lo, 40), values, min_size=20, max_size=80)
    return st.builds(_with_parity, keys, st.sampled_from((None, 0, 1)))


large_elements = large(coefficients).map(TildeElement)
multiplicities = st.integers(1, 3) | st.integers(BIG, BIG**2)
large_multisets = large(multiplicities).map(IntegerMultiset.from_counts)
# non-negative elements fold to non-negative weights
large_weights = large(multiplicities, lo=0).map(IntegerMultiset.from_counts)


@LARGE
@given(large_elements, large_elements)
def test_large_mul_matches_reference(g1, g2):
    assert mul(g1, g2) == ref_mul(g1, g2)


@LARGE
@given(large_multisets, large_multisets)
def test_large_msum_matches_reference(m1, m2):
    assert msum(m1, m2) == ref_msum(m1, m2)


@LARGE
@given(large_weights, large_multisets)
def test_large_left_expand_matches_reference(weights, addend):
    assert _left_expand(weights, addend) == ref_left_expand(weights, addend)


@LARGE
@given(st.integers(0, 12), st.integers(500, 560), st.integers(0, 2**70), st.sampled_from((1, 2)))
def test_large_left_mul_h_matches_reference(i, size, seed, step):
    # the numerator of h[i] has two terms, so g needs 512 terms to be packed
    rng = random.Random(seed)
    g = TildeElement({step * k: rng.randint(-BIG, BIG) for k in range(size)})
    assert left_mul_h(i, g) == ref_left_mul_h(i, g)


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
    empty = IntegerMultiset()
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


def dense(n: int, lo: int = 0, step: int = 1, coeff=lambda k: k % 7 - 3 or 5) -> list:
    return [(lo + step * k, coeff(k)) for k in range(n)]


@pytest.fixture
def packed_calls(monkeypatch):
    """Records the operand sizes of every packed product."""
    calls = []

    def spy(a, b):
        calls.append(len(a) * len(b))
        return _kronecker_product(a, b)

    monkeypatch.setattr(tilde_ring, "_kronecker_product", spy)
    return calls


def test_threshold_selects_the_packed_path_exactly_at_the_constant(packed_calls):
    assert KRONECKER_MIN_TERM_OPS % 2 == 0
    half = KRONECKER_MIN_TERM_OPS // 2
    below = TildeElement(dict(dense(half - 1, step=2)))
    at = TildeElement(dict(dense(half, step=2)))
    # h[3] has the two-term numerator x^5 - x^-3
    assert left_mul_h(3, below) == ref_left_mul_h(3, below)
    assert packed_calls == []
    assert left_mul_h(3, at) == ref_left_mul_h(3, at)
    assert packed_calls == [KRONECKER_MIN_TERM_OPS]
    a, b = dense(half), dense(2, lo=-1)
    assert _sparse_product(a, b) == ref_product(a, b)
    assert packed_calls == [KRONECKER_MIN_TERM_OPS] * 2


def test_default_verify_never_packs(packed_calls, capsys):
    # the largest product of a default verify has 580 term pairs
    for name in ("e0_raw", "e1_raw", "_penultimate_first_lines", "e0_closed", "e1_closed"):
        getattr(recurrence_engine, name).cache_clear()
    assert main(["verify", "--seed", "0"]) == 0
    capsys.readouterr()
    assert packed_calls == []


def test_one_term_times_many_terms(packed_calls):
    many = dense(KRONECKER_MIN_TERM_OPS + 5, lo=-300, step=2)
    one = [(7, -(3**50))]
    assert nonzero(_sparse_product(one, many)) == ref_product(one, many)
    assert nonzero(_sparse_product(many, one)) == ref_product(many, one)
    assert len(packed_calls) == 2


def test_interior_cancellation_drops_every_zero():
    # (1 + x + ... + x^(n-1)) * (1 - x) = 1 - x^n: all interior slots cancel
    n = KRONECKER_MIN_TERM_OPS
    assert _kronecker_product(dense(n, coeff=lambda k: 1), [(0, 1), (1, -1)]) == {0: 1, n: -1}
    # a left factor whose fold cancels term by term acts as zero
    g1 = TildeElement({i: 1 for i in range(40)}) + TildeElement({-i - 2: 1 for i in range(40)})
    assert mul(g1, TildeElement(dict(dense(60)))) == TildeElement.zero()


def test_all_negative_operands():
    a = dense(40, lo=-11, step=2, coeff=lambda k: -(k + 1))
    b = dense(30, lo=4, step=2, coeff=lambda k: -(2**70) - k)
    p = _kronecker_product(a, b)
    assert p == ref_product(a, b)
    assert all(c > 0 for c in p.values())


def test_mixed_parity_uses_step_one():
    a = dense(40, lo=-5, step=2) + [(0, 9)]
    b = dense(30, lo=3, step=2)
    assert _kronecker_product(a, b) == ref_product(a, b)
    assert _kronecker_product(b, a) == ref_product(b, a)


def test_coefficients_above_2_to_the_200():
    a = dense(35, lo=-20, coeff=lambda k: (-1) ** k * (2**200 + k))
    b = dense(35, lo=1, step=1, coeff=lambda k: 2**201 - 3 * k)
    p = _kronecker_product(a, b)
    assert p == ref_product(a, b)
    assert max(abs(c) for c in p.values()).bit_length() > 400


@pytest.mark.parametrize("width", [1, 2, 5])
def test_slots_at_the_limits_of_their_width_decode_on_their_own(width):
    top = 2 ** (8 * width - 1) - 1
    values = [top, -top, -top, top, 0, 1, -1, top, 0, -top]
    terms = [(3 + 2 * k, v) for k, v in enumerate(values) if v]
    value = _kronecker_pack(terms, 3, 2, len(values), width)
    assert _kronecker_unpack(value, 3, 2, len(values), width) == dict(terms)


def test_slot_sums_need_the_sign_bit():
    # 15 terms of coefficient 3 on each side: 2 + 2 + bit_length(15) = 8 bits
    # of magnitude, and the middle slot sums 15 * 3 * 3 = 135 > 2^7 - 1, so
    # only the sign bit's second byte lets it decode
    for sign in (1, -1):
        a = dense(15, coeff=lambda k: sign * 3)
        b = dense(15, lo=-7, coeff=lambda k: 3)
        p = _kronecker_product(a, b)
        assert p == ref_product(a, b)
        assert p[7] == sign * 135


def test_operands_too_sparse_to_pack_fall_back_to_the_loop(packed_calls):
    a = [(k * 10**9, k + 1) for k in range(40)]
    b = [(-k * 10**9 + 1, 2 - k) for k in range(40)]
    assert _kronecker_product(a, b) is None
    assert nonzero(_sparse_product(a, b)) == ref_product(a, b)
    assert packed_calls == [1600]


def test_numerator_needs_no_fold():
    # x^2 g(x) - g(1/x): h~[-1] cancels, and h~[j], h~[-j-2] share the
    # numerator terms of the folded h[j]
    assert _numerator({-1: 7}.items()) == {}
    assert _numerator({4: 3, -6: 3}.items()) == {}
    assert _numerator({4: 3, -6: 1}.items()) == {6: 2, -4: -2}
    assert _numerator({-5: 2}.items()) == {-3: 2, 5: -2}
    assert _numerator({0: 1, -2: 1, -1: 4}.items()) == {}


PARTNER_FACTORS = [
    {4: 3, -6: 1, 0: 2},  # j and -j - 2 fold onto h[4] and partly cancel
    {-1: 7, 3: 1, -4: 5},  # index -1 folds to zero
    {5: 2, -7: 2, -1: 1, 1: 1, -3: 4, 6: -(BIG**2)},  # both, h[5] cancelled
]


@pytest.mark.parametrize("terms", PARTNER_FACTORS)
def test_mul_with_partner_indices_on_both_sides_of_the_threshold(terms, packed_calls):
    g1 = TildeElement(terms)
    width = len(_numerator(g1.items()))
    at = -(-KRONECKER_MIN_TERM_OPS // width)  # fewest right terms that pack
    for size, packs in ((at - 1, False), (at, True)):
        del packed_calls[:]
        g2 = TildeElement(dict(dense(size, lo=-size, coeff=lambda k: (k % 11 - 5) or BIG)))
        assert mul(g1, g2) == ref_mul(g1, g2)
        assert packed_calls == ([size * width] if packs else [])
