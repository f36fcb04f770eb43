"""The telescoped left action against naive reference implementations.

mul, left_mul_h, msum and the closed-route expansion all run on one
sparse product plus an exact division by x^2 - 1.  The references below
are the direct loops those functions used to be: one shifted copy of the
right factor per index -i, -i+2, ..., i of every folded term.  Products
of at least KRONECKER_MIN_TERM_OPS term pairs are packed into one big-int
multiply; the large-operand cases below reach both sides of that constant.
mul takes the word route (_word_mul) from WORD_MIN_TERM_OPS term pairs on
while every product slot fits a signed 64-bit word; the word-route cases
reach both sides of that constant and of that bound.  A one-term right
factor takes the left factor's shift kernel, which the left factor keeps,
as it keeps the packed kernel of the word route; the reuse cases run one
left factor through every route in turn.
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
    H1,
    KRONECKER_MIN_TERM_OPS,
    WORD_MAX_SLOTS,
    WORD_MIN_TERM_OPS,
    TildeElement,
    _kronecker_pack,
    _kronecker_product,
    _kronecker_unpack,
    _numerator,
    _sparse_product,
    _word_mul,
    _word_pack,
    _word_unpack,
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


word_values = st.integers(-(2**31) + 1, 2**31 - 1)
word_elements = st.builds(
    _with_parity,
    st.dictionaries(st.integers(-20, 20), st.integers(-(2**20), 2**20), min_size=1, max_size=12),
    st.sampled_from((None, 0, 1)),
).map(TildeElement)


def word_bits(g1: TildeElement, g2: TildeElement) -> int:
    """The slot width _word_mul asks for: the sum of |g1| bounds the kernel."""
    a, b = dict(g1.items()), dict(g2.items())
    m = max(max(a), -2 - min(a))
    return (
        sum(abs(c) for c in a.values()).bit_length()
        + max(abs(c) for c in b.values()).bit_length()
        + min(2 * m + 1, len(b)).bit_length()
        + 1
    )


@PROPERTY
@given(st.lists(word_values, min_size=1, max_size=40),
       st.lists(st.integers(-(2**25), 2**25), min_size=1, max_size=40),
       st.integers(-30, 30))
def test_word_packed_product_matches_reference(u, v, lo):
    # every slot sums at most 40 products below 2^56 in magnitude
    expected = ref_product([(lo + k, c) for k, c in enumerate(u)], list(enumerate(v)))
    product = _word_pack(u) * _word_pack(v)
    assert _word_unpack(product, lo, len(u) + len(v) - 1) == expected


@PROPERTY
@given(word_elements, word_elements)
def test_word_route_matches_reference(g1, g2):
    # 1 to 144 term pairs, one parity or mixed on each side
    expected = ref_mul(g1, g2)
    assert mul(g1, g2) == expected
    if g1 and g2:  # mul offers the word route non-empty operands only
        packed = _word_mul(g1, dict(g2.items()))
        assert packed is None or packed == dict(expected.items())


@PROPERTY
@given(word_elements, word_elements)
def test_word_route_drops_every_cancelled_slot(g1, h):
    # K * (x^2 - 1) * h is the sparse numerator times h: most slots cancel
    g2 = h.shift(2) - h
    product = mul(g1, g2)
    assert product == ref_mul(g1, g2)
    assert 0 not in dict(product.items()).values()


@PROPERTY
@given(st.integers(3, 8), st.integers(-5, 0), st.integers(8, 20), st.integers(-9, 9),
       st.integers(22, 34), st.integers(22, 34), st.sampled_from((1, -1)))
def test_word_route_on_both_sides_of_the_64_bit_bound(n1, lo1, n2, lo2, e1, e2, sign):
    # coefficients near 2^e1 and 2^e2 ask for slots of about e1 + e2 + 10 bits
    g1 = TildeElement(dict(dense(n1, lo=lo1, coeff=lambda k: (-1) ** k * (2**e1 - k))))
    g2 = TildeElement(dict(dense(n2, lo=lo2, coeff=lambda k: sign * (2**e2 + 3 * k))))
    expected = ref_mul(g1, g2)
    packed = _word_mul(g1, dict(g2.items()))
    assert (packed is not None) == (word_bits(g1, g2) <= 64)
    assert packed is None or packed == dict(expected.items())
    assert mul(g1, g2) == expected


@pytest.mark.parametrize("values", [
    [2**63 - 1],
    [-(2**63) + 1],
    [2**63 - 1, -(2**63) + 1, 0, 1, -1, 2**63 - 1, 0, -(2**63) + 1],
    [0, 0, -(2**63) + 1, 0],
])
def test_word_slots_at_the_limits_decode_on_their_own(values):
    expected = {-3 + k: v for k, v in enumerate(values) if v}
    assert _word_unpack(_word_pack(values), -3, len(values)) == expected
    # times 1 and times -1 leave every slot in place, sign for sign
    assert _word_unpack(_word_pack(values) * _word_pack([1]), -3, len(values)) == expected
    negated = {k: -v for k, v in expected.items()}
    assert _word_unpack(_word_pack(values) * _word_pack([0, -1]), -4, len(values) + 1) == negated


def test_slot_sums_that_need_bit_63_fall_back_to_the_big_int_packer(word_calls, packed_calls):
    # K = sum over i = 0, 2, ..., 30 of x^-i + ... + x^i peaks at 16, and
    # 32 right terms of 2^56 make slots of up to 192 * 2^56 > 2^63
    g1 = TildeElement({j: 1 for j in range(0, 32, 2)})
    g2 = TildeElement(dict(dense(32, coeff=lambda k: 2**56)))
    product = mul(g1, g2)
    assert product == ref_mul(g1, g2)
    assert max(abs(c) for _, c in product.items()) >= 2**63
    assert word_calls == [(16 * 32, False)]
    assert packed_calls == [len(_numerator(g1.items())) * 32] == [KRONECKER_MIN_TERM_OPS]


@pytest.mark.parametrize("size, packed", [
    (WORD_MAX_SLOTS, True),
    (WORD_MAX_SLOTS + 1, False),
])
def test_products_past_the_widest_mask_decline_the_word_route(size, packed, word_calls):
    # h~[0] has the kernel 1, so the product has exactly the slots of g2
    g2 = TildeElement(dict(dense(size, lo=-500)))
    assert mul(basis(0), g2) == g2 == ref_mul(basis(0), g2)
    assert word_calls == [(size, packed)]
    values = [(-1) ** k * (2**63 - 1 - k) for k in range(WORD_MAX_SLOTS)]
    assert _word_unpack(_word_pack(values), 0, WORD_MAX_SLOTS) == dict(enumerate(values))


@pytest.mark.parametrize("terms", [
    {-1: 5},  # h~[-1] folds to zero
    {3: 2, -5: 2},  # h~[j] + h~[-j-2] folds to zero
    {0: 1, -2: 1, -1: -4},
    {**{j: 3 for j in range(8)}, **{-j - 2: 3 for j in range(8)}},
])
def test_left_factors_with_a_zero_kernel_take_the_word_route(terms, word_calls):
    g1 = TildeElement(terms)
    g2 = TildeElement(dict(dense(20, lo=-7)))
    assert mul(g1, g2) == TildeElement.zero() == ref_mul(g1, g2)
    assert word_calls == [(len(terms) * 20, True)]


ROUTES = ("one-term", "small", "word", "wide", "bytes")


def right_factor(route: str, rng: random.Random) -> TildeElement:
    """A right factor that takes the given route of mul against a left
    factor of at most 7 terms, each folding onto some h[i] with i <= 8."""
    lo = rng.randint(-12, 4)
    if route == "one-term":
        return TildeElement({lo: rng.choice((1, -1, rng.randint(2, BIG**2)))})
    if route == "small":  # at most 7 x 2 term pairs: the loop
        return TildeElement({lo: rng.randint(1, 9), lo + rng.randint(1, 5): -rng.randint(1, 9)})
    if route == "word":  # at most 17 + 23 slots: within two per term pair
        return TildeElement({lo + k: rng.randint(-(2**20), 2**20) for k in range(24)})
    if route == "wide":  # one coefficient above 2^64 declines the word route
        return TildeElement({lo + k: rng.randint(-9, 9) for k in range(17)} | {lo: BIG + 1})
    # at least 2 x 520 pairs of numerator and right terms, fields above 64 bits
    return TildeElement({lo + k: rng.randint(BIG, 2 * BIG) for k in range(520)})


reused_left_factors = st.one_of(
    st.dictionaries(st.integers(-10, 8), st.integers(-(2**20), 2**20), min_size=1, max_size=7),
    st.sampled_from(({-1: 5}, {3: 2, -5: 2}, {})),  # fold to zero, and the empty element
).map(TildeElement)
route_orders = st.lists(st.sampled_from(ROUTES), max_size=5).flatmap(
    lambda extra: st.permutations(ROUTES + tuple(extra))
)


@LARGE
@given(reused_left_factors, route_orders, st.integers(0, 2**32))
def test_a_reused_left_factor_matches_reference_on_every_route(g1, routes, seed):
    # each route reads or fills the kernels that g1 keeps from the routes before
    rng = random.Random(seed)
    for route in routes:
        g2 = right_factor(route, rng)
        assert mul(g1, g2) == ref_mul(g1, g2)


@pytest.mark.parametrize("route", ROUTES)
def test_right_factors_take_their_route(route, word_calls, packed_calls):
    g1 = TildeElement({8: 3, -10: 1, 0: -2, 5: 7, -4: 1, 2: 2, -1: 9})  # 7 terms, h[8] the widest
    g2 = right_factor(route, random.Random(5))
    assert mul(g1, g2) == ref_mul(g1, g2)
    offered = {"word": [True], "wide": [False], "bytes": [False]}.get(route, [])
    assert [packed for _, packed in word_calls] == offered
    assert len(packed_calls) == (route == "bytes")


def test_one_term_right_factors_take_neither_product(word_calls, sparse_calls):
    # 20 x 1 term pairs would be offered the word route, 2 x 1 the loop
    many = TildeElement(dict(dense(20, lo=-9)))
    for g1 in (many, basis(3) - 2 * basis(-2), TildeElement.zero()):
        for g2 in (3 * basis(5), -basis(-2), (BIG + 1) * basis(0), 3 * basis(5)):
            assert mul(g1, g2) == ref_mul(g1, g2)
    assert word_calls == [] and sparse_calls == []


def test_a_reused_left_factor_packs_its_kernel_once(word_calls, word_packs):
    # K of g1 spans -2..2, so its numerator packs into 2 * 2 + 3 fields
    g1 = TildeElement(dict(dense(6, lo=-3)))
    g2 = TildeElement(dict(dense(20, lo=-7)))
    g3 = TildeElement(dict(dense(30, lo=2, coeff=lambda k: 2**20 - k)))
    assert mul(g1, g2) == ref_mul(g1, g2)
    assert word_packs == [7, 20]
    assert mul(g1, g3) == ref_mul(g1, g3)
    assert word_packs == [7, 20, 30]
    # the packed kernel belongs to the element, not to its value
    assert mul(TildeElement(dict(g1.items())), g3) == ref_mul(g1, g3)
    assert word_packs == [7, 20, 30, 7, 30]
    assert word_calls == [(120, True), (180, True), (180, True)]


def test_w1_passes_one_shared_h1(monkeypatch):
    lefts = []
    monkeypatch.setattr(tilde_ring, "mul", lambda g1, g2: lefts.append(g1) or mul(g1, g2))
    g = basis(4) - basis(-1) + 2 * basis(3)
    assert tilde_ring.w1(g, g, g) == tilde_ring.w1(g, g, g) == tilde_ring.w0(g, g, g).shift(-1)
    assert sum(left is H1 for left in lefts) == 2
    assert H1 == basis(1) and recurrence_engine.e0_raw(0, 1) is H1


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
    assert mul(zero, basis(3)) == zero
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


@pytest.fixture
def sparse_calls(monkeypatch):
    """Records the operand sizes of every sparse product of the kernel."""
    calls = []

    def spy(a, b):
        calls.append(len(a) * len(b))
        return _sparse_product(a, b)

    monkeypatch.setattr(tilde_ring, "_sparse_product", spy)
    return calls


@pytest.fixture
def word_packs(monkeypatch):
    """Records the number of fields of every word pack."""
    calls = []

    def spy(values):
        calls.append(len(values))
        return _word_pack(values)

    monkeypatch.setattr(tilde_ring, "_word_pack", spy)
    return calls


@pytest.fixture
def word_calls(monkeypatch):
    """Records (term pairs, packed) for every product mul offers the word route."""
    calls = []

    def spy(g1, b):
        result = _word_mul(g1, b)
        calls.append((g1.support_size() * len(b), result is not None))
        return result

    monkeypatch.setattr(tilde_ring, "_word_mul", spy)
    return calls


def test_threshold_selects_the_packed_path_exactly_at_the_constant(packed_calls, word_calls):
    # mul: word route from WORD_MIN_TERM_OPS pairs of g1 and g2 terms on
    g1 = basis(3) - 2 * basis(-2)
    half = WORD_MIN_TERM_OPS // 2
    assert WORD_MIN_TERM_OPS % 2 == 0
    below = TildeElement(dict(dense(half - 1, lo=-4)))
    at = TildeElement(dict(dense(half, lo=-4)))
    assert mul(g1, below) == ref_mul(g1, below)
    assert word_calls == []
    assert mul(g1, at) == ref_mul(g1, at)
    assert word_calls == [(WORD_MIN_TERM_OPS, True)]
    assert packed_calls == []
    # the other products: one big-int multiply from KRONECKER_MIN_TERM_OPS on
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


def test_default_verify_never_packs(packed_calls, word_calls, capsys):
    # the largest product of a default verify has 580 term pairs, so no
    # product reaches the big-int packer; thousands of mul products take
    # the word route, and only a few decline it, for sparsity (no field of
    # a default verify needs more than 64 bits)
    for name in ("e0_raw", "e1_raw", "_penultimate_first_lines", "e0_closed", "e1_closed"):
        getattr(recurrence_engine, name).cache_clear()
    assert main(["verify", "--seed", "0"]) == 0
    capsys.readouterr()
    assert packed_calls == []
    assert all(pairs >= WORD_MIN_TERM_OPS for pairs, _ in word_calls)
    assert sum(packed for _, packed in word_calls) > 3000
    assert sum(not packed for _, packed in word_calls) < 20


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


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("terms", PARTNER_FACTORS)
def test_mul_with_partner_indices_on_both_sides_of_the_threshold(terms, wide, word_calls):
    g1 = TildeElement(terms)
    at = -(-WORD_MIN_TERM_OPS // len(terms))  # fewest right terms offered the word route
    # a coefficient of 2^64 on the right, or of 2^128 on the left, needs
    # fields wider than 64 bits, and the product falls back to the loop
    fits = not wide and max(abs(c) for c in terms.values()) < BIG
    filler = BIG if wide else 7
    for size, offered in ((at - 1, False), (at, True)):
        del word_calls[:]
        g2 = TildeElement(dict(dense(size, lo=-size, coeff=lambda k: (k % 11 - 5) or filler)))
        assert mul(g1, g2) == ref_mul(g1, g2)
        assert word_calls == ([(size * len(terms), fits)] if offered else [])
