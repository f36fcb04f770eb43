"""Unit tests for the shift-basis module arithmetic."""

import random

import pytest

from chebcone.multiset_cone import IntegerMultiset
from chebcone.suites import random_element
from chebcone.tilde_ring import (
    ChElement,
    TildeElement,
    basis,
    fold_L,
    mul,
    w0,
    w1,
)


def test_basis_constructors():
    assert basis(2) == TildeElement({2: 1})
    assert basis(-1) == TildeElement({-1: 1})
    assert basis(-1) != TildeElement()
    assert basis(0).coeff(0) == 1


def test_canonical_form_drops_zeros():
    g = TildeElement({3: 0, 5: 2, -1: 0})
    assert g.terms() == [(5, 2)]
    assert basis(4) - basis(4) == TildeElement()
    assert not (basis(4) - basis(4))


def test_shift_basics():
    assert basis(2).shift(-1) == basis(1)
    assert (basis(2) + basis(4) + basis(6)).shift(-1) == basis(1) + basis(3) + basis(5)
    assert TildeElement().shift(17) == TildeElement()


def test_shift_composes():
    rng = random.Random(1)
    for _ in range(25):
        g = random_element(rng)
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        assert g.shift(a).shift(b) == g.shift(a + b)
        assert g.shift(0) == g


def test_fold_cases():
    assert fold_L(basis(-1)) == ChElement()
    assert fold_L(basis(-3)) == ChElement({1: -1})
    assert fold_L(basis(5)) == ChElement({5: 1})
    # the two negative-side images cancel against the matching positive terms
    assert fold_L(basis(-2) + basis(0) + basis(2)) == ChElement({2: 1})


def test_ch_element_rejects_negative_indices():
    with pytest.raises(ValueError):
        ChElement({-2: 1})
    with pytest.raises(ValueError, match="negative index -1"):
        ChElement({-1: 1})
    with pytest.raises(ValueError):
        ChElement({3: 1, -1: 0})


# non-int members, each refused wherever it sits, a zero coefficient's index too
NOT_INTS = [{0: 0.5}, {0.5: 1}, {1.5: 0}, {0: 0.0}, {0: True}, {True: 1}, {0: "1"}]


@pytest.mark.parametrize("coeffs", NOT_INTS)
@pytest.mark.parametrize("cls", [TildeElement, ChElement])
def test_value_types_take_only_int_indices_and_coefficients(cls, coeffs):
    with pytest.raises(TypeError, match="expected an int"):
        cls(coeffs)


def test_a_non_int_coefficient_never_reaches_a_product():
    # stored, a 0.5 made the loop return floats and the packed route raise
    # AttributeError on float.bit_length, so the result hung on the route
    left = TildeElement({j: 1 for j in range(0, 40, 2)})
    for right in ({0: 0.5, 2: 1}, {j: 0.5 for j in range(0, 40, 2)}):
        with pytest.raises(TypeError, match="expected an int, got 0.5"):
            mul(left, TildeElement(right))
    with pytest.raises(TypeError):
        0.5 * basis(1)
    big = 3**200
    assert (big * left).coeff(38) == big and TildeElement({-7: -big}).terms() == [(-7, -big)]


@pytest.mark.parametrize("offset", [0.5, True])
def test_shift_takes_only_an_int_offset(offset):
    # 0.5 once made float indices, and a packed msum of them raised an
    # unrelated TypeError; True passed as 1
    for value in (basis(1), IntegerMultiset(range(10))):
        with pytest.raises(TypeError, match="expected an int, got"):
            value.shift(offset)


def test_shift_is_one_method_that_keeps_the_callers_type():
    assert TildeElement.shift is IntegerMultiset.shift
    assert type(basis(2).shift(-1)) is TildeElement
    assert type(IntegerMultiset([2, 2, 5]).shift(-1)) is IntegerMultiset
    assert IntegerMultiset([2, 2, 5]).shift(-1) == IntegerMultiset([1, 1, 4])
    # a fold has no shift, so it can never reach an index below 0
    assert ChElement.shift is None
    with pytest.raises(TypeError):
        ChElement({0: 1}).shift(-1)


def test_shared_base_keeps_each_type_apart():
    g = TildeElement({0: 1, 2: -3})
    x = ChElement({0: 1, 2: -3})
    assert g != x and x != g
    assert dict(g.items()) == dict(x.items())
    with pytest.raises(TypeError):
        g + x
    with pytest.raises(TypeError):
        x - g
    assert type(x - x) is ChElement and type(x + x) is ChElement
    assert type(g.shift(1)) is TildeElement and type(3 * g) is TildeElement
    assert len(g.items()) == 2 and list(g.items()) == list(g.items())
    assert repr(x) == "ChElement({0: 1, 2: -3})"
    assert str(x) == "h[0] - 3*h[2]"
    assert repr(g) == "TildeElement({0: 1, 2: -3})"
    assert x.all_nonnegative() is False and ChElement().all_nonnegative()


def test_a_used_left_factor_is_indistinguishable_from_an_unused_copy():
    g = TildeElement({k: k % 5 - 2 or 3 for k in range(-3, 4)})
    unused = TildeElement(dict(g.items()))
    mul(g, basis(2))  # one-term right factor: keeps the kernel
    mul(g, TildeElement({k: 1 for k in range(40)}))  # packed route: reads the kept kernel
    assert g._kernel and TildeElement.__slots__ == ("_kernel",)
    assert g == unused and unused == g and hash(g) == hash(unused)
    assert repr(g) == repr(unused)
    assert repr(g) == "TildeElement({-3: 3, -2: 1, -1: 2, 0: -2, 1: -1, 2: 3, 3: 1})"
    assert str(g) == str(unused)
    assert {g, unused} == {unused} and len({g, unused}) == 1
    assert {unused: "value"}[g] == "value" and {g: "value"}[unused] == "value"


@pytest.mark.parametrize("value", [ChElement({0: 1, 2: 3}), IntegerMultiset.from_counts({0: 3})])
def test_only_tilde_elements_keep_a_kernel(value):
    assert not hasattr(type(value), "_kernel")
    with pytest.raises(AttributeError):
        value._kernel = {}


def test_action_of_h():
    # h~[i] folds to h[i] for i >= 0, so basis(i) acts on the left as h[i]
    assert mul(basis(2), basis(2)) == basis(0) + basis(2) + basis(4)
    g = basis(-5) + 3 * basis(2)
    assert mul(basis(0), g) == g
    assert mul(basis(1), basis(-3)) == basis(-4) + basis(-2)
    assert fold_L(mul(basis(1), basis(-3))) == ChElement({0: -1, 2: -1})


def test_mul_examples():
    assert mul(basis(2), basis(4)) == basis(2) + basis(4) + basis(6)
    assert mul(basis(-1), basis(9) - 2 * basis(-4)) == TildeElement()
    assert mul(basis(2), basis(2)) - mul(basis(1), basis(1)) == basis(4)


@pytest.mark.parametrize("a", range(-4, 5))
@pytest.mark.parametrize("b", range(-4, 5))
def test_pair_identities_small_range(a, b):
    assert mul(basis(a), basis(b)) - mul(basis(a - 1), basis(b - 1)) == basis(a + b)
    assert mul(basis(a), basis(b)) - mul(basis(a - 1), basis(b + 1)) == basis(b - a)


def test_triple_identities_small_range():
    h1 = basis(1)
    for b in range(-3, 4):
        hb = basis(b)
        for a1 in range(-3, 4):
            for a2 in range(-3, 4):
                lhs = mul(mul(hb, basis(a1)), basis(a2)) - mul(
                    mul(hb, basis(a1 - 1)), basis(a2 - 1)
                )
                assert lhs == mul(hb, basis(a1 + a2))
                lhs2 = (
                    mul(mul(basis(a1), hb), basis(a2 - 1))
                    + mul(mul(basis(a1 - 1), hb), basis(a2))
                    - mul(mul(mul(basis(a1 - 1), h1), hb), basis(a2 - 1))
                )
                assert lhs2 == mul(hb, basis(a1 + a2 - 1))


def test_mul_is_bilinear():
    rng = random.Random(2)
    for _ in range(25):
        a, b, c = (random_element(rng) for _ in range(3))
        assert mul(a + b, c) == mul(a, c) + mul(b, c)
        assert mul(a, b + c) == mul(a, b) + mul(a, c)
        k = rng.randint(-4, 4)
        assert mul(k * a, b) == k * mul(a, b)
        assert mul(a, k * b) == k * mul(a, b)


def test_mul_associative_empirically():
    # not relied on anywhere, but a regression canary for the product
    rng = random.Random(3)
    for _ in range(50):
        a, b, c = (random_element(rng) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def ch_left_mul(i: int, x: ChElement) -> ChElement:
    """Product h[i] * x inside the folded algebra, by the closed interval
    rule h[i] h[j] = h[|i-j|] + h[|i-j|+2] + ... + h[i+j]: a reference for
    the fold homomorphism, independent of the h~ machinery."""
    acc: dict[int, int] = {}
    for j, c in x.items():
        for m in range(abs(i - j), i + j + 1, 2):
            acc[m] = acc.get(m, 0) + c
    return ChElement(acc)


def test_fold_commutes_with_left_action():
    # folding after acting equals acting on the folded image, where the
    # folded-side product uses the independent closed interval rule
    rng = random.Random(4)
    for _ in range(40):
        g = random_element(rng)
        for i in range(7):
            assert fold_L(mul(basis(i), g)) == ch_left_mul(i, fold_L(g))


def test_ch_left_mul_interval_rule():
    x = ChElement({3: 1})
    assert ch_left_mul(2, x) == ChElement({1: 1, 3: 1, 5: 1})
    assert ch_left_mul(3, ChElement({0: 1})) == ChElement({3: 1})
    assert ch_left_mul(2, ChElement({0: 1})) == ChElement({2: 1})


def test_w0_examples():
    h = basis
    assert w0(h(2), h(2), h(1)) == h(1) + h(3) + h(5)
    assert w0(h(2), h(2), h(2)) == h(2) + h(4) + h(6)
    assert w0(TildeElement(), h(2), h(3)) == TildeElement()


def ref_w1(g1: TildeElement, g2: TildeElement, g3: TildeElement) -> TildeElement:
    """Test-only reference: w1 read literally off its formula, six products."""
    s1, s3 = g1.shift(-1), g3.shift(-1)
    return mul(s1, mul(g2, g3)) + mul(g1, mul(g2, s3)) - mul(s1, mul(basis(1), mul(g2, s3)))


def test_w1_examples():
    h = basis
    assert w1(h(2), h(2), h(2)) == w0(h(2), h(2), h(2)).shift(-1)
    assert w1(h(2), h(2), h(2)) == h(1) + h(3) + h(5)
    assert w1(TildeElement(), h(2), h(3)) == TildeElement()
    assert w1(h(1), h(2), h(1)) == w0(h(1), h(2), h(1)).shift(-1)
    for j1 in range(-3, 4):
        for j2 in range(-3, 4):
            for j3 in range(-3, 4):
                assert w1(h(j1), h(j2), h(j3)) == ref_w1(h(j1), h(j2), h(j3))


def test_w1_is_shifted_w0_on_random_triples():
    rng = random.Random(5)
    for _ in range(100):
        g1, g2, g3 = (random_element(rng) for _ in range(3))
        w = w1(g1, g2, g3)
        assert w == w0(g1, g2, g3).shift(-1)
        assert w == ref_w1(g1, g2, g3)


def test_rendering():
    assert str(TildeElement()) == "0"
    assert str(basis(2) + basis(4)) == "h~[2] + h~[4]"
    assert str(basis(-3)) == "h~[-3]"
    assert str(2 * basis(0) - basis(2)) == "2*h~[0] - h~[2]"
    assert str(fold_L(basis(3))) == "h[3]"


def test_element_stats():
    g = 2 * basis(-1) - 3 * basis(4)
    assert g.mass() == 5
    assert g.min_index() == -1
    assert g.max_index() == 4
    assert g.support_size() == 2
    assert TildeElement().max_index() is None
