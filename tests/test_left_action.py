"""The left actions and the multiset sum against naive reference
implementations.

mul and msum both run on one product of two plain maps
(tilde_ring._product): a left operand, the left factor's shift kernel or a
plain multiset, times the right factor.  The closed route forms only
multiset sums, with the kernel of a multiset as one operand.  The references below
are the direct loops those functions used to be: one shifted copy of the
right factor per index -i, -i+2, ..., i of every folded term.  The action
of h[i] is mul(basis(i), g), checked against its own loop too.  From
MIN_TERM_OPS term products on, a product is one big-int multiply with
8-byte fields while every product slot fits a signed 64-bit word, and
whole-byte fields above that, at exponent step 2 when both operands have
one parity; below that, and for operands too sparse to pack, it is the
double loop.  The cases below reach both sides of the threshold, of the
64-bit bound and of the sparsity cut-off, and both steps.  A one-term
right factor takes the left factor's shift kernel, which the left factor
keeps; the reuse cases run one left factor through every route in turn.
"""

import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcone.multiset_cone import (
    IntegerMultiset,
    interval,
    msum,
    to_tilde,
)
from chebcone import multiset_cone, recurrence_engine, tilde_ring
from chebcone.cli import main
from chebcone.recurrence_engine import _multiset_kernel
from chebcone.suites import random_cone_member, random_element
from chebcone.tilde_ring import (
    H1,
    MIN_TERM_OPS,
    TildeElement,
    _field_tops,
    _kernel,
    _pack,
    _product,
    _unpack,
    basis,
    fold_L,
    mul,
)

BIG = 2**64


def ref_mul(g1: TildeElement, g2: TildeElement) -> TildeElement:
    acc: dict[int, int] = {}
    for i, c in fold_L(g1).items():
        for k in range(-i, i + 1, 2):
            for j, d in g2.items():
                acc[j + k] = acc.get(j + k, 0) + c * d
    return TildeElement(acc)


def ref_kernel(g1: TildeElement) -> dict[int, int]:
    """The shift kernel of g1: x^-i + x^(-i+2) + ... + x^i per folded h[i]."""
    acc: dict[int, int] = {}
    for i, c in fold_L(g1).items():
        for k in range(-i, i + 1, 2):
            acc[k] = acc.get(k, 0) + c
    return nonzero(acc)


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
    for i, d in sorted(fold_L(to_tilde(weights)).items()):  # the lowest index first
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
    assert _multiset_kernel(weights) + addend == ref_left_expand(weights, addend)


@LARGE
@given(st.integers(0, 12), st.integers(500, 560), st.integers(0, 2**70), st.sampled_from((1, 2)))
def test_large_action_of_h_matches_reference(i, size, seed, step):
    # the kernel of h[i] has i + 1 terms, so every g here is packed, with
    # fields wider than 64 bits for coefficients near 2^64
    rng = random.Random(seed)
    g = TildeElement({step * k: rng.randint(-BIG, BIG) for k in range(size)})
    assert mul(basis(i), g) == ref_left_mul_h(i, g)


@PROPERTY
@given(elements, elements)
def test_mul_matches_reference(g1, g2):
    assert mul(g1, g2) == ref_mul(g1, g2)


@PROPERTY
@given(elements)
def test_kernel_matches_reference(g1):
    assert _kernel(g1) == ref_kernel(g1)


@pytest.mark.parametrize("terms, expected", [
    # h~[j] and h~[-j-2] fold onto h[j] and partly cancel: 2 * h[4]
    ({4: 3, -6: 1}, {-4: 2, -2: 2, 0: 2, 2: 2, 4: 2}),
    ({-5: 2}, {-3: -2, -1: -2, 1: -2, 3: -2}),  # folds to -2 * h[3]
])
def test_kernel_of_folded_partners(terms, expected):
    g1 = TildeElement(terms)
    assert _kernel(g1) == expected == ref_kernel(g1)


def test_cancelling_runs_cost_their_output():
    # h[N] - h[N-2] is x^-N + x^N: the runs cancel inside, and a kernel
    # that visited every slot up to N would not finish
    n = 10**9
    assert _kernel(basis(n) - basis(n - 2)) == {n: 1, -n: 1}


@PROPERTY
@given(st.integers(0, 12), elements)
def test_action_of_h_matches_reference(i, g):
    assert mul(basis(i), g) == ref_left_mul_h(i, g)


@PROPERTY
@given(multisets, multisets)
def test_msum_matches_reference(m1, m2):
    assert msum(m1, m2) == ref_msum(m1, m2)


@PROPERTY
@given(multisets, multisets, multisets)
def test_left_expand_matches_reference(weights, addend, other):
    # one kernel serves every addend
    try:
        expected = (ref_left_expand(weights, addend), ref_left_expand(weights, other))
    except ValueError as exc:
        with pytest.raises(ValueError, match="negative folded weight") as info:
            _multiset_kernel(weights)
        assert str(info.value) == str(exc)
    else:
        kernel = _multiset_kernel(weights)
        assert (kernel + addend, kernel + other) == expected


word_values = st.integers(-(2**31) + 1, 2**31 - 1)
word_elements = st.builds(
    _with_parity,
    st.dictionaries(st.integers(-20, 20), st.integers(-(2**20), 2**20), min_size=1, max_size=12),
    st.sampled_from((None, 0, 1)),
).map(TildeElement)


def kernel_bits(g1: TildeElement, g2: TildeElement) -> int:
    """The slot bound of K * g2: a slot sums at most min(len(K), len(g2))
    products of a kernel and a right coefficient."""
    a, b = ref_kernel(g1), dict(g2.items())
    return (
        max(abs(c) for c in a.values()).bit_length()
        + max(abs(c) for c in b.values()).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )


def width_for(bits: int) -> int:
    return 8 if bits <= 64 else (bits + 7) // 8


def packed_product(operands, width: int, lo: int, step: int) -> dict[int, int]:
    """The nonzero slots, keyed lo, lo + step, ..., of the product of the
    operands, each a (values, pack step) pair packed in fields of width
    bytes: as in _product, one mask over the slots of the product packs
    every operand and unpacks the product."""
    counts = [len(values[::pack_step]) for values, pack_step in operands]
    top = _field_tops(width, sum(counts) - len(counts) + 1)
    product = math.prod(_pack(values, pack_step, width, top) for values, pack_step in operands)
    return _unpack(product, lo, step, width, top)


def clear_closed_route():
    for name in ("factored_witnesses", "closed_witnesses"):
        getattr(recurrence_engine, name).cache_clear()


@contextmanager
def recorded_routes():
    """Records the route of every product: (step, width) of each packed
    one, and "loop" for the rest."""
    calls = []

    def product(a, b):
        calls.append("loop")
        return _product(a, b)

    def unpack(value, lo, step, width, top):
        calls[-1] = (step, width)
        return _unpack(value, lo, step, width, top)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tilde_ring, "_product", product)
        mp.setattr(multiset_cone, "_product", product)
        mp.setattr(tilde_ring, "_unpack", unpack)
        yield calls


@pytest.fixture
def routes():
    with recorded_routes() as calls:
        yield calls


@PROPERTY
@given(st.lists(word_values, min_size=1, max_size=40),
       st.lists(st.integers(-(2**25), 2**25), min_size=1, max_size=40),
       st.integers(-30, 30), st.sampled_from((1, 2)))
def test_word_packed_product_matches_reference(u, v, lo, step):
    # every slot sums at most 40 products below 2^56 in magnitude
    expected = ref_product([(lo + step * k, c) for k, c in enumerate(u)],
                           [(step * k, c) for k, c in enumerate(v)])
    assert packed_product([(u, 1), (v, 1)], 8, lo, step) == expected


@PROPERTY
@given(st.lists(st.integers(-(2**100), 2**100), min_size=1, max_size=30),
       st.lists(st.integers(-(2**70), 2**70), min_size=1, max_size=30),
       st.integers(-30, 30), st.sampled_from((22, 23, 30)))
def test_wide_packed_product_matches_reference(u, v, lo, width):
    # every slot sums at most 30 products below 2^170 in magnitude
    expected = ref_product([(lo + k, c) for k, c in enumerate(u)], list(enumerate(v)))
    # step 2 packs every other value
    spread = [x for c in v for x in (c, 0)]
    assert packed_product([(u, 1), (spread, 2)], width, lo, 1) == expected


@PROPERTY
@given(st.data(), st.sampled_from((1, 8, 9, 30)), st.sampled_from((1, 2)), st.integers(0, 40))
def test_a_mask_over_more_fields_packs_the_same_integer(data, width, step, extra):
    # for n values, (R ^ T) - T reads only the low n fields of the mask T,
    # so the mask of the product's slots packs each operand as its own would
    half = 2 ** (8 * width - 1)
    values = data.draw(st.lists(st.integers(-half + 1, half - 1), min_size=1, max_size=30))
    n = len(values[::step])
    expected = sum(v * 256 ** (width * k) for k, v in enumerate(values[::step]))
    for slots in (n, n + 1, n + extra):
        assert _pack(values, step, width, _field_tops(width, slots)) == expected


@PROPERTY
@given(word_elements, word_elements)
def test_word_route_matches_reference(g1, g2):
    # 1 to 144 term pairs, one parity or mixed on each side
    expected = ref_mul(g1, g2)
    assert mul(g1, g2) == expected
    if g2:
        assert _product(_kernel(g1), dict(g2.items())) == dict(expected.items())


@PROPERTY
@given(word_elements, word_elements)
def test_word_route_drops_every_cancelled_slot(g1, h):
    # K * (x^2 - 1) keeps only the ends of the runs of K, so K * (x^2 - 1) * h
    # is sparse: most slots cancel
    g2 = h.shift(2) - h
    product = mul(g1, g2)
    assert product == ref_mul(g1, g2)
    assert 0 not in dict(product.items()).values()


@PROPERTY
@given(st.integers(3, 8), st.integers(-5, 0), st.integers(8, 20), st.integers(-9, 9),
       st.integers(22, 34), st.integers(22, 34), st.sampled_from((1, -1)))
def test_packed_route_on_both_sides_of_the_64_bit_bound(n1, lo1, n2, lo2, e1, e2, sign):
    # coefficients near 2^e1 and 2^e2 ask for slots of about e1 + e2 + 10
    # bits: 8-byte words up to 64 bits, whole bytes above; left factors
    # with negative indices fold, and those whose kernel has too few terms
    # for n2 right terms take the loop
    g1 = TildeElement(dict(dense(n1, lo=lo1, coeff=lambda k: (-1) ** k * (2**e1 - k))))
    g2 = TildeElement(dict(dense(n2, lo=lo2, coeff=lambda k: sign * (2**e2 + 3 * k))))
    with recorded_routes() as calls:
        assert mul(g1, g2) == ref_mul(g1, g2)
    if len(ref_kernel(g1)) * n2 >= MIN_TERM_OPS:
        assert calls == [(1, width_for(kernel_bits(g1, g2)))]
    else:
        assert calls == ["loop"]


SQUARE_MAPS = {
    "loop": elements.map(lambda g: dict(g.items())),  # at most 8 * 8 term products
    # slots of at most 21 + 21 + bit_length(80) + 1 = 50 bits
    "word": large(st.integers(1, 2**20) | st.integers(-(2**20), -1)),
    "wide": large(st.integers(BIG, BIG**2)),  # counts above 2^64
}


@pytest.mark.parametrize("route", SQUARE_MAPS)
@PROPERTY
@given(data=st.data())
def test_a_square_matches_reference(route, data):
    a = data.draw(SQUARE_MAPS[route])
    with recorded_routes() as calls:
        assert tilde_ring._product(a, a) == ref_product(a.items(), a.items())
    if route == "loop":
        assert calls == ["loop"]
    else:
        ((step, width),) = calls
        assert step == (1 if len({k % 2 for k in a}) == 2 else 2)
        assert (width == 8) == (route == "word")


def test_a_square_is_packed_once(monkeypatch):
    # equal maps that are distinct objects are packed one by one
    packed = []

    def counting(*args):
        packed.append(args)
        return _pack(*args)

    monkeypatch.setattr(tilde_ring, "_pack", counting)
    a = dict(dense(10, step=2))
    for b, packs in ((a, 1), (dict(a), 2)):
        packed.clear()
        assert _product(a, b) == ref_product(a.items(), a.items())
        assert len(packed) == packs


@pytest.mark.parametrize("values", [
    [2**63 - 1],
    [-(2**63) + 1],
    [2**63 - 1, -(2**63) + 1, 0, 1, -1, 2**63 - 1, 0, -(2**63) + 1],
    [0, 0, -(2**63) + 1, 0],
])
def test_word_slots_at_the_limits_decode_on_their_own(values):
    expected = {-3 + k: v for k, v in enumerate(values) if v}
    assert packed_product([(values, 1)], 8, -3, 1) == expected
    # times 1 and times -1 leave every slot in place, sign for sign
    assert packed_product([(values, 1), ([1], 1)], 8, -3, 1) == expected
    negated = {k: -v for k, v in expected.items()}
    assert packed_product([(values, 1), ([0, -1], 1)], 8, -4, 1) == negated


@pytest.mark.parametrize("width", [1, 2, 5, 8, 9])
def test_slots_at_the_limits_of_their_width_decode_on_their_own(width):
    top = 2 ** (8 * width - 1) - 1
    values = [top, -top, -top, top, 0, 1, -1, top, 0, -top]
    expected = {3 + 2 * k: v for k, v in enumerate(values) if v}
    assert packed_product([(values, 1)], width, 3, 2) == expected
    # step 2 packs the values at even positions only
    assert packed_product([(values, 2)], width, 3, 4) == {
        3 + 4 * k: v for k, v in enumerate(values[::2]) if v
    }


def test_slot_sums_that_need_bit_63_take_wide_fields(routes):
    # K = sum over i = 0, 2, ..., 30 of x^-i + ... + x^i peaks at 16 over
    # 31 terms, and 32 right terms of 2^56 make slots of up to 192 * 2^56 >
    # 2^63: the bound asks for 5 + 57 + 5 + 1 = 68 bits, so 9-byte fields
    g1 = TildeElement({j: 1 for j in range(0, 32, 2)})
    g2 = TildeElement(dict(dense(32, coeff=lambda k: 2**56)))
    product = mul(g1, g2)
    assert product == ref_mul(g1, g2)
    assert max(abs(c) for _, c in product.items()) >= 2**63
    assert routes == [(1, 9)]


@pytest.mark.parametrize("sign", [1, -1])
def test_slot_sums_on_both_sides_of_the_64_bit_field(sign, routes):
    # 15 terms a side of coefficients of 30 and 29 bits: 30 + 29 +
    # bit_length(15) + 1 = 64 bits, so the middle slot, 15 * a * b, needs
    # the sign bit of an 8-byte word; one more bit on the right asks for
    # 9-byte fields
    a = IntegerMultiset.from_counts(dict(dense(15, coeff=lambda k: 2**29 + 1)))
    for right, width in ((2**28 + 3, 8), (2**29 + 3, 9)):
        b = IntegerMultiset.from_counts(dict(dense(15, lo=-7, coeff=lambda k: right)))
        assert msum(a, b) == ref_msum(a, b)
        assert dict(msum(a, b).items())[7] == 15 * (2**29 + 1) * right
        g1 = TildeElement(dict(dense(15, coeff=lambda k: sign * (2**29 + 1))))
        p = tilde_ring._product(dict(g1.items()), dict(b.items()))
        assert p == ref_product(g1.items(), b.items())
        assert p[7] == sign * 15 * (2**29 + 1) * right
        assert routes[-2:] == [(1, width)] * 2


@pytest.mark.parametrize("size", [128, 129, 1025])
def test_masks_of_many_slots_pack_and_unpack(size, routes):
    # h~[0] has the kernel 1, so the product has exactly the slots of g2
    g2 = TildeElement(dict(dense(size, lo=-500)))
    for _ in range(2):
        assert mul(basis(0), g2) == g2 == ref_mul(basis(0), g2)
    assert routes == [(1, 8)] * 2
    values = [(-1) ** k * (2**63 - 1 - k) for k in range(size)]
    assert packed_product([(values, 1)], 8, 0, 1) == dict(enumerate(values))
    for width in (1, 8, 9):
        assert _field_tops(width, size) == sum(
            1 << (8 * width * k + 8 * width - 1) for k in range(size)
        )


def test_each_packed_product_builds_one_mask(monkeypatch, tmp_path, routes, capsys):
    # _product builds the mask of its slots once, and both packs and the
    # unpack take it from there
    widths = []

    def field_tops(width, slots):
        widths.append(width)
        return _field_tops(width, slots)

    monkeypatch.setattr(tilde_ring, "_field_tops", field_tops)
    clear_closed_route()
    assert main(["certify", "--n", "4", "--out", str(tmp_path / "certs")]) == 0
    capsys.readouterr()
    packed = [route for route in routes if route != "loop"]
    assert packed
    assert widths == [width for _, width in packed]


@pytest.mark.parametrize("terms", [
    {-1: 5},  # h~[-1] folds to zero
    {3: 2, -5: 2},  # h~[j] + h~[-j-2] folds to zero
    {0: 1, -2: 1, -1: -4},
    {**{j: 3 for j in range(8)}, **{-j - 2: 3 for j in range(8)}},
])
def test_left_factors_with_a_zero_kernel(terms, routes):
    # the kernel is empty, so the product makes no term pair and loops
    g1 = TildeElement(terms)
    g2 = TildeElement(dict(dense(20, lo=-7)))
    assert mul(g1, g2) == TildeElement() == ref_mul(g1, g2)
    assert _kernel(g1) == {} and routes == ["loop"]


ROUTES = ("one-term", "loop", "word", "word-2", "wide", "wide-2", "large")


def right_factor(route: str, rng: random.Random) -> TildeElement:
    """A right factor that takes the given route of mul against a left
    factor of at most 7 terms of up to 2^20, each folding onto some h[i]
    with i <= 5, whose kernel has 2 to 11 terms; the -2 routes take step 2
    when the left factor has one parity."""
    lo = rng.randint(-12, 4)
    size = MIN_TERM_OPS // 2  # packs against a kernel of 2 terms or more
    if route == "one-term":
        return TildeElement({lo: rng.choice((1, -1, rng.randint(2, BIG**2)))})
    if route == "loop":  # at most 11 x 2 term products
        return TildeElement({lo: rng.randint(1, 9), lo + rng.randint(1, 5): -rng.randint(1, 9)})
    step = 2 if route.endswith("-2") else 1
    if route.startswith("word"):  # slots of at most 23 + 21 + 4 + 1 bits
        return TildeElement({lo + step * k: rng.randint(-(2**20), 2**20) or 1 for k in range(size)})
    if route.startswith("wide"):  # one coefficient above 2^64 asks for wide fields
        g = {lo + step * k: rng.randint(-9, 9) or 1 for k in range(size)}
        return TildeElement(g | {lo: BIG + 1})
    # 520 terms of wide coefficients
    return TildeElement({lo + k: rng.randint(BIG, 2 * BIG) for k in range(520)})


reused_left_factors = st.one_of(
    st.dictionaries(st.integers(-7, 5), st.integers(-(2**20), 2**20), min_size=1, max_size=7),
    st.dictionaries(st.integers(-3, 2), st.integers(-(2**20), 2**20), min_size=1, max_size=4).map(
        lambda a: {2 * j: c for j, c in a.items()}  # one parity
    ),
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
def test_right_factors_take_their_route(route, routes):
    # 7 even terms, h[4] the widest, so the kernel spans -4..4 in one parity
    g1 = TildeElement({4: 3, -6: 1, 0: -2, 2: 7, -4: 1, -2: 2, 2 - 8: 9})
    g2 = right_factor(route, random.Random(5))
    assert mul(g1, g2) == ref_mul(g1, g2)
    step = 2 if route.endswith("-2") else 1
    width = width_for(kernel_bits(g1, g2)) if g2.support_size() > 1 else None
    expected = {"one-term": [], "loop": ["loop"]}.get(route, [(step, width)])
    assert routes == expected
    assert (width == 8) == route.startswith("word") or route in ("one-term", "loop")


def test_one_left_factor_at_every_width_and_step_matches_reference(routes):
    # one kept kernel, packed anew at each width and step in turn
    g1 = TildeElement({4: 3, -6: 1, 0: -2, 2: 7, -2: 5})
    rng = random.Random(8)
    order = ("word", "wide", "wide-2", "word-2", "word", "word-2", "wide-2", "wide", "word")
    for route in order:
        g2 = right_factor(route, rng)
        assert mul(g1, g2) == ref_mul(g1, g2)
    steps = [2 if route.endswith("-2") else 1 for route in order]
    assert [step for step, _ in routes] == steps
    assert [width == 8 for _, width in routes] == [r.startswith("word") for r in order]


def test_one_term_right_factors_take_no_product(routes):
    # 20 x 1 term pairs would be packed, 2 x 1 would take the loop
    many = TildeElement(dict(dense(20, lo=-9)))
    for g1 in (many, basis(3) - 2 * basis(-2), TildeElement()):
        for g2 in (3 * basis(5), (-1) * basis(-2), (BIG + 1) * basis(0), 3 * basis(5)):
            assert mul(g1, g2) == ref_mul(g1, g2)
    assert routes == []


def test_w1_forms_three_products_and_passes_no_h1(monkeypatch):
    # w1 reads h~[1]'s action as the shifts by -1 and 1
    lefts = []
    monkeypatch.setattr(tilde_ring, "mul", lambda g1, g2: lefts.append(g1) or mul(g1, g2))
    g = basis(4) - basis(-1) + 2 * basis(3)
    got = tilde_ring.w1(g, g, g)
    assert len(lefts) == 3 and not any(left == H1 for left in lefts)
    assert got == tilde_ring.w0(g, g, g).shift(-1)
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
        assert mul(basis(i), g2) == ref_left_mul_h(i, g2)


def test_seeded_expansions_of_cone_members_match_reference():
    # members of a cone centered at c >= 0 fold to non-negative weights
    rng = random.Random(32)
    for _ in range(100):
        weights = random_cone_member(rng, rng.randint(0, 6))
        addend = random_cone_member(rng, rng.randint(-6, 6))
        assert _multiset_kernel(weights) + addend == ref_left_expand(weights, addend)
        assert msum(weights, addend) == ref_msum(weights, addend)


def test_empty_operands():
    zero = TildeElement()
    g = basis(-3) + 2 * basis(4)
    assert mul(zero, g) == zero
    assert mul(g, zero) == zero
    assert mul(zero, basis(3)) == zero
    assert mul(basis(5), zero) == zero
    empty = IntegerMultiset()
    m = IntegerMultiset([0, 2, 2])
    assert msum(empty, m) == empty
    assert msum(m, empty) == empty
    assert _multiset_kernel(empty) + m == empty
    assert _multiset_kernel(m) + empty == empty


def test_left_factors_that_fold_to_zero():
    g = basis(-5) + 3 * basis(2) - basis(7)
    assert mul(basis(-1), g) == TildeElement()
    assert mul(basis(0) + basis(-2), g) == TildeElement()
    assert mul(basis(3) + basis(-5), g) == TildeElement()
    assert not _multiset_kernel(IntegerMultiset([-1, -1])) + IntegerMultiset([4])


def test_identity_and_mixed_parity():
    g = basis(-6) - basis(-3) + 5 * basis(0) + basis(1) - 2 * basis(8)
    assert mul(basis(0), g) == g == ref_left_mul_h(0, g)
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
        _multiset_kernel(IntegerMultiset([-3])) + IntegerMultiset([0])


def dense(n: int, lo: int = 0, step: int = 1, coeff=lambda k: k % 7 - 3 or 5) -> list:
    return [(lo + step * k, coeff(k)) for k in range(n)]


def term_counts(n: int) -> tuple[int, int]:
    """Sizes d <= s of two operands with d * s == n, d as large as possible."""
    d = max(d for d in range(1, math.isqrt(n) + 1) if n % d == 0)
    return d, n // d


def test_threshold_selects_the_packed_path_exactly_at_the_constant(routes):
    # one rule for every product: it packs from MIN_TERM_OPS term products
    # on, d * s here, for the kernel of h~[d - 1] times s right terms, that
    # is h[d - 1] acting on them, and a multiset sum of d and s elements
    for ops, route in ((MIN_TERM_OPS - 1, "loop"), (MIN_TERM_OPS, (2, 8))):
        d, s = term_counts(ops)
        g = TildeElement(dict(dense(s, step=2)))
        assert len(_kernel(basis(d - 1))) * len(g.items()) == ops
        assert mul(basis(d - 1), g) == ref_mul(basis(d - 1), g) == ref_left_mul_h(d - 1, g)
        m1, m2 = (IntegerMultiset.from_counts(dict(dense(k, step=2, coeff=lambda k: k + 1)))
                  for k in (d, s))
        assert msum(m1, m2) == ref_msum(m1, m2)
        assert routes[-2:] == [route] * 2
    assert len(routes) == 4


def test_default_verify_packs_only_word_fields(capsys):
    # over a thousand products of a default verify are packed, all in
    # 8-byte fields, the sumsets of its closed route among them
    for name in ("e0_raw", "e1_raw", "_penultimate_first_lines", "factored_witnesses",
                 "closed_witnesses"):
        getattr(recurrence_engine, name).cache_clear()
    with recorded_routes() as calls:
        assert main(["verify", "--seed", "0"]) == 0
    capsys.readouterr()
    packed = [route for route in calls if route != "loop"]
    assert len(packed) > 1000
    assert {width for _, width in packed} == {8}


def test_cone_certificates_never_call_mul(monkeypatch, routes):
    # the closed route reaches _product through msum alone
    from chebcone import certifier

    clear_closed_route()

    def forbidden(g1, g2):
        raise AssertionError("mul called")

    for module in (tilde_ring, recurrence_engine, certifier):
        monkeypatch.setattr(module, "mul", forbidden, raising=False)
    for n in range(6):
        for j in (0, 1):
            certifier.document_json(certifier.certify_cone(n, j).to_document())
    # 22 of its sumsets through depth 5 make at least MIN_TERM_OPS term
    # products, none too sparse, so they are packed: u + V_(n-1) and
    # u + C_(n-1) for the cores of depths 4 and 5 (from 17 * 15 terms), 4;
    # G_n + V_n and G_n + C_n for the witnesses of depths 3 to 5 (from
    # 25 * 15), 6; and a + a and G + (a + a) for the leading witnesses a of
    # depths k = 2 to n - 1 as depth n forms G_n (from 11 * 11 and 5 * 21),
    # 2 + 4 + 6 = 12 for depths 3, 4 and 5
    assert len([route for route in routes if route != "loop"]) == 22


def test_one_term_times_many_terms(routes):
    many = dict(dense(2 * MIN_TERM_OPS + 5, lo=-300, step=2))
    one = {7: -(3**50)}
    assert tilde_ring._product(one, many) == ref_product(one.items(), many.items())
    assert tilde_ring._product(many, one) == ref_product(many.items(), one.items())
    # each operand has one parity, and 3^50 asks for 80 + 3 + 1 + 1 bits
    assert routes == [(2, 11)] * 2


def test_interior_cancellation_drops_every_zero():
    # (1 + x + ... + x^(n-1)) * (1 - x) = 1 - x^n: all interior slots cancel
    n = 4 * MIN_TERM_OPS
    assert _product(dict(dense(n, coeff=lambda k: 1)), {0: 1, 1: -1}) == {0: 1, n: -1}
    # a left factor whose fold cancels term by term acts as zero
    g1 = TildeElement({i: 1 for i in range(40)}) + TildeElement({-i - 2: 1 for i in range(40)})
    assert mul(g1, TildeElement(dict(dense(60)))) == TildeElement()


def test_all_negative_operands(routes):
    a = dict(dense(40, lo=-11, step=2, coeff=lambda k: -(k + 1)))
    b = dict(dense(30, lo=4, step=2, coeff=lambda k: -(2**70) - k))
    p = tilde_ring._product(a, b)
    assert p == ref_product(a.items(), b.items())
    assert all(c > 0 for c in p.values())
    assert routes == [(2, 11)]


def test_mixed_parity_uses_step_one(routes):
    a = dict(dense(40, lo=-5, step=2))
    b = dict(dense(30, lo=3, step=2, coeff=lambda k: 2**70 + k))
    assert tilde_ring._product(a, b) == ref_product(a.items(), b.items())
    assert tilde_ring._product(a | {0: 9}, b) == ref_product((a | {0: 9}).items(), b.items())
    assert tilde_ring._product(b, a | {0: 9}) == ref_product(b.items(), (a | {0: 9}).items())
    assert [step for step, _ in routes] == [2, 1, 1]
    # a left factor of one parity against a right factor of both
    g1 = TildeElement(a)
    for g2 in (TildeElement(b), TildeElement(b | {0: 9})):
        assert mul(g1, g2) == ref_mul(g1, g2)
    assert [step for step, _ in routes[3:]] == [2, 1]


def test_coefficients_above_2_to_the_200(routes):
    a = dict(dense(35, lo=-20, coeff=lambda k: (-1) ** k * (2**200 + k)))
    b = dict(dense(35, lo=1, step=1, coeff=lambda k: 2**201 - 3 * k))
    p = tilde_ring._product(a, b)
    assert p == ref_product(a.items(), b.items())
    assert max(abs(c) for c in p.values()).bit_length() > 400
    assert routes == [(1, 52)]


def test_operands_too_sparse_to_pack_fall_back_to_the_loop(routes):
    a = {k * 10**9: k + 1 for k in range(40)}
    b = {-k * 10**9 + 1: 2 - k for k in range(40) if k != 2}
    assert tilde_ring._product(a, b) == ref_product(a.items(), b.items())
    # h~[0] has the one-term kernel 1: MIN_TERM_OPS right terms 2 apart
    # span 2 * MIN_TERM_OPS - 1 slots, within two per term pair, and 3
    # apart 3 * MIN_TERM_OPS - 2, beyond
    for gap, route in ((2, (2, 8)), (3, "loop")):
        g2 = TildeElement({gap * k: k + 1 for k in range(MIN_TERM_OPS)})
        assert mul(basis(0), g2) == g2 == ref_mul(basis(0), g2)
        assert routes[-1] == route
    assert routes[0] == "loop" and len(routes) == 3


PARTNER_FACTORS = [
    {4: 3, -6: 1, 0: 2},  # j and -j - 2 fold onto h[4] and partly cancel
    {-1: 7, 3: 1, -4: 5},  # index -1 folds to zero
    {5: 2, -7: 2, -1: 1, 1: 1, -3: 4, 6: -(BIG**2)},  # both, h[5] cancelled
]


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("terms", PARTNER_FACTORS)
def test_mul_with_partner_indices_on_both_sides_of_the_threshold(terms, wide, routes):
    g1 = TildeElement(terms)
    n = len(ref_kernel(g1))
    at = -(-MIN_TERM_OPS // n)  # fewest right terms that pack
    # a coefficient of 2^64 on the right, or of 2^128 on the left, needs
    # fields wider than 64 bits
    fits = not wide and max(abs(c) for c in terms.values()) < BIG
    for size, packed in ((at - 1, False), (at, True)):
        del routes[:]
        coeff = lambda k: BIG if wide and k == 0 else (k % 11 - 5) or 7  # noqa: E731
        g2 = TildeElement(dict(dense(size, lo=-size, coeff=coeff)))
        assert mul(g1, g2) == ref_mul(g1, g2)
        assert len(routes) == 1
        assert (routes[0] != "loop") == packed
        assert not packed or (routes[0][1] == 8) == fits
