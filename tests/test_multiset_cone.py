"""Unit tests for the multiset calculus and the cone machinery."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcone.multiset_cone import (
    ConeDecomposition,
    ConeMembershipError,
    IntegerMultiset,
    decompose_cone,
    in_cone,
    interval,
    interval_sum_decompose,
    msum,
    to_tilde,
)
from chebcone.suites import random_cone_member
from chebcone.tilde_ring import ChElement, TildeElement, basis, fold_L, mul


def ms(*elements):
    return IntegerMultiset(elements)


def test_interval():
    assert interval(-2, 2) == ms(-2, 0, 2)
    assert interval(4, 4) == ms(4)
    assert interval(2, 6) == ms(2, 4, 6)
    with pytest.raises(ValueError):
        interval(3, 1)
    with pytest.raises(ValueError):
        interval(0, 3)


def test_msum():
    assert msum(ms(2, 4, 6), ms(2, 4, 6)) == ms(4, 6, 6, 8, 8, 8, 10, 10, 12)
    m = ms(-1, 3, 3, 7)
    assert msum(m, ms(0)) == m
    assert msum(ms(0, 2), ms(0, 2, 4)) == ms(0, 2, 2, 4, 4, 6)
    assert msum(m, IntegerMultiset()) == IntegerMultiset()


def test_union():
    assert ms(1) | ms(1) == IntegerMultiset.from_counts({1: 2})
    m = ms(0, 5, 5)
    assert m | IntegerMultiset() == m == IntegerMultiset() | m
    assert interval(0, 6) | interval(2, 4) == ms(0, 2, 2, 4, 4, 6)


def test_multiset_counts_and_elements():
    m = IntegerMultiset.from_counts({3: 2, -1: 1})
    assert m.mass() == 3
    assert m.terms() == [(-1, 1), (3, 2)]
    assert m == ms(3, -1, 3)
    assert m.coeff(3) == 2 and m.coeff(7) == 0
    with pytest.raises(ValueError):
        IntegerMultiset.from_counts({0: -1})


def test_multiset_is_not_a_signed_vector():
    m1, m2 = ms(0, 2, 2), ms(1)
    with pytest.raises(TypeError):
        m1 - m2
    with pytest.raises(TypeError):
        -m1
    assert m1 + m2 == ms(1, 3, 3)  # the sumset, not the union
    assert m1 | m2 == ms(0, 1, 2, 2)
    assert str(m1) == repr(m1) == "IntegerMultiset{0: 1, 2: 2}"
    assert str(IntegerMultiset()) == "IntegerMultiset{}"
    assert m1.mass() == 3 and m1.support_size() == 2
    assert (m1.min_index(), m1.max_index()) == (0, 2)
    assert IntegerMultiset().min_index() is None and not IntegerMultiset()


def test_same_mapping_in_three_types_compares_unequal():
    m = IntegerMultiset.from_counts({0: 1, 2: 2})
    g = TildeElement({0: 1, 2: 2})
    x = ChElement({0: 1, 2: 2})
    assert dict(m.items()) == dict(g.items()) == dict(x.items())
    for a, b in ((m, g), (g, m), (m, x), (x, m), (g, x), (x, g)):
        assert a != b
    assert to_tilde(m) == g
    with pytest.raises(TypeError):
        m | g


def test_shift():
    assert ms(2, 4).shift(-1) == ms(1, 3)
    assert msum(ms(2, 4), ms(-1)) == ms(1, 3)


def test_constructor_refuses_a_mapping():
    # Counter would read a mapping as counts, unchecked: negative or zero
    for counts in ({2: -1, 5: 0}, {3: 0}, {1: 2}):
        with pytest.raises(TypeError, match="from_counts"):
            IntegerMultiset(counts)
    with pytest.raises(ValueError, match="negative multiplicity -1 at 2"):
        IntegerMultiset.from_counts({2: -1, 5: 0})
    assert IntegerMultiset.from_counts({3: 0}) == IntegerMultiset()
    assert IntegerMultiset((1, 1)) == IntegerMultiset.from_counts({1: 2})


@pytest.mark.parametrize("elements", [[1.5], [1, 1.0], [True], [1, True], ["1"]])
def test_constructor_takes_only_int_elements(elements):
    # a stored 1.5 made msum(ms(1.5), ms(1)) the multiset {2.5: 1}; 1.0 and
    # True would merge into the count of 1 unseen
    with pytest.raises(TypeError, match="expected an int"):
        IntegerMultiset(elements)


@pytest.mark.parametrize("counts", [{1.5: 1}, {1.5: 0}, {True: 1}, {1: 1.0}, {1: True}, {1: 0.0}])
def test_from_counts_takes_only_int_values_and_counts(counts):
    with pytest.raises(TypeError, match="expected an int"):
        IntegerMultiset.from_counts(counts)


def test_interval_sum_decompose():
    assert interval_sum_decompose(0, 2, 0, 4) == [(0, 6), (2, 4)]
    assert interval_sum_decompose(0, 0, -3, 5) == [(-3, 5)]
    assert interval_sum_decompose(-2, 2, -2, 2) == [(-4, 4), (-2, 2), (0, 0)]


def test_interval_sum_decompose_matches_brute_force():
    rng = random.Random(11)
    for _ in range(100):
        a1 = rng.randint(-8, 8)
        b1 = a1 + 2 * rng.randint(0, 5)
        a2 = rng.randint(-8, 8)
        b2 = a2 + 2 * rng.randint(0, 5)
        rebuilt = IntegerMultiset()
        for lo, hi in interval_sum_decompose(a1, b1, a2, b2):
            rebuilt |= interval(lo, hi)
        assert rebuilt == msum(interval(a1, b1), interval(a2, b2))


def test_in_cone_examples():
    assert in_cone(ms(2), 2)
    assert in_cone(ms(2, 4, 6), 4)
    assert not in_cone(ms(0, 3), 2)
    assert in_cone(IntegerMultiset(), 123)
    # a singleton strictly below the center is never a member
    assert not in_cone(ms(1), 2)


def test_in_cone_interval_members():
    for c in range(-3, 4):
        for n in range(1, 5):
            assert in_cone(interval(c - n, c + n), c)


def test_cone_subset_check():
    m = ms(2, 4, 6)  # member at center 4
    for c in (3, 2, 1, 0):
        assert in_cone(m, c)
    assert in_cone(ms(0), 0) and in_cone(ms(0), -1)
    assert in_cone(interval(-1, 3), 1) and in_cone(interval(-1, 3), 0)  # radius 2 at center 1
    assert not in_cone(m, 6)


def test_decompose_cone_examples():
    d = decompose_cone(ms(2, 4, 6), 4)
    assert d.singletons == () and d.radii == ((2, 1),)
    d = decompose_cone(ms(7), 7)
    assert d.singletons == ((7, 1),) and d.radii == ()
    d = decompose_cone(ms(1, 3, 5), 3)
    assert d.radii == ((2, 1),) and d.singletons == ()


def test_decompose_cone_mixed():
    m = interval(-1, 3) | (interval(0, 2) | ms(5, 5, 1))
    d = decompose_cone(m, 1)
    assert d.recompose() == m
    assert d.radii == ((1, 1), (2, 1))
    assert d.singletons == ((1, 1), (5, 2))


def test_decompose_cone_rejects_nonmembers():
    with pytest.raises(ConeMembershipError) as err:
        decompose_cone(ms(0, 3), 2)
    assert err.value.center == 2
    assert "mult(" in str(err.value)


def test_decompose_recompose_roundtrip():
    rng = random.Random(12)
    for _ in range(150):
        c = rng.randint(-4, 6)
        m = random_cone_member(rng, c)
        d = decompose_cone(m, c)
        assert d.recompose() == m
        # canonical decomposition is a fixed point
        assert decompose_cone(d.recompose(), c) == d


def test_cone_decomposition_validation():
    with pytest.raises(ValueError):
        ConeDecomposition(center=3, singletons=((2, 1),), radii=())
    with pytest.raises(ValueError):
        ConeDecomposition(center=3, singletons=(), radii=((0, 1),))
    with pytest.raises(ValueError):
        ConeDecomposition(center=3, singletons=((3, 0),), radii=())


def test_sum_of_cone_members_stays_in_cone():
    rng = random.Random(13)
    for _ in range(100):
        c1, c2 = rng.randint(-3, 5), rng.randint(-3, 5)
        m1, m2 = random_cone_member(rng, c1), random_cone_member(rng, c2)
        assert in_cone(msum(m1, m2), c1 + c2)


def test_left_action_matches_interval_sum():
    rng = random.Random(14)
    for _ in range(100):
        c = rng.randint(-3, 5)
        i = rng.randint(0, 6)
        m = random_cone_member(rng, c)
        summed = msum(interval(-i, i), m)
        assert to_tilde(summed) == mul(basis(i), to_tilde(m))
        assert in_cone(summed, c)


def test_fold_of_cone_member_is_nonnegative():
    rng = random.Random(15)
    for _ in range(100):
        c = rng.randint(0, 6)
        m = random_cone_member(rng, c)
        assert fold_L(to_tilde(m)).all_nonnegative()
        lo = m.min_index()
        bound = 0 if lo is None or lo >= 0 else -lo
        for i in range(bound + 2):
            assert m.coeff(i) >= m.coeff(-i - 2)


def test_to_tilde():
    assert to_tilde(ms(2, 4, 6)) == basis(2) + basis(4) + basis(6)
    assert to_tilde(IntegerMultiset()) == TildeElement.zero()
    assert to_tilde(ms(0, 0)) == 2 * basis(0)


def ref_recompose(d: ConeDecomposition) -> IntegerMultiset:
    """recompose as it used to be: every interval written out element by element."""
    acc: dict[int, int] = {}
    for v, cnt in d.singletons:
        acc[v] = acc.get(v, 0) + cnt
    for r, cnt in d.radii:
        for x in range(d.center - r, d.center + r + 1, 2):
            acc[x] = acc.get(x, 0) + cnt
    return IntegerMultiset.from_counts(acc)


def ref_decompose_cone(m: IntegerMultiset, c: int) -> ConeDecomposition:
    """decompose_cone as it used to be: the profile checked by a sweep of its
    own, then each radius subtracted from a residue."""
    violation = ref_cone_violation(m, c)
    if violation is not None:
        raise ConeMembershipError(c, violation[0], violation[1])
    residue = dict(m.items())
    radii = []
    lo = m.min_index()
    k_max = c - lo if (lo is not None and lo < c) else 0
    for k in range(1, k_max + 1):
        exact = m.coeff(c - k) - m.coeff(c - k - 2)
        if exact:
            radii.append((k, exact))
            for x in range(c - k, c + k + 1, 2):
                residue[x] = residue.get(x, 0) - exact
    singles = []
    for x in sorted(residue):
        cnt = residue[x]
        if cnt < 0 or (cnt > 0 and x < c):
            raise ConeMembershipError(c, abs(x - c), f"residue {cnt} at {x}")
        if cnt > 0:
            singles.append((x, cnt))
    return ConeDecomposition(center=c, singletons=tuple(singles), radii=tuple(radii))


def cone_violation(m: IntegerMultiset, c: int) -> tuple[int, str] | None:
    """decompose_cone's (offset, detail) for m at c, or None if it decomposes,
    after checking that in_cone gives the same verdict."""
    try:
        decompose_cone(m, c)
    except ConeMembershipError as exc:
        assert exc.center == c and not in_cone(m, c)
        return exc.offset, exc.detail
    assert in_cone(m, c)
    return None


CONE_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
counts = st.integers(1, 3) | st.integers(2**64, 2**80)


@st.composite
def decompositions(draw):
    """Parts with repeated values and radii, as a hand-built certificate may hold."""
    c = draw(st.integers(-8, 8))
    singles = draw(st.lists(st.tuples(st.integers(c, c + 12), counts), max_size=6))
    radii = draw(st.lists(st.tuples(st.integers(1, 12), counts), max_size=6))
    return ConeDecomposition(center=c, singletons=tuple(singles), radii=tuple(radii))


@st.composite
def centred_multisets(draw):
    """(m, c) with m a cone member at c, perturbed at one value half of the time."""
    d = draw(decompositions())
    m = dict(ref_recompose(d).items())
    if draw(st.booleans()):
        x = draw(st.integers(d.center - 14, d.center + 14))
        m[x] = max(0, m.get(x, 0) + draw(st.sampled_from((-1, 1, -(2**70), 2**70))))
    return IntegerMultiset.from_counts(m), d.center


def ref_cone_violation(m: IntegerMultiset, c: int) -> tuple[int, str] | None:
    """First (offset, detail) at which the cone profile fails, or None, with
    the sweep bound read off the sorted support."""
    if not m:
        return None
    bound = max(abs(x - c) for x, _ in m.terms()) + 2
    for i in range(bound + 1):
        left_outer = m.coeff(c - i - 2)
        left_inner = m.coeff(c - i)
        right = m.coeff(c + i)
        if left_outer > left_inner:
            return (i, f"mult({c - i - 2})={left_outer} > mult({c - i})={left_inner}")
        if left_inner > right:
            return (i, f"mult({c - i})={left_inner} > mult({c + i})={right}")
    return None


@CONE_PROPERTY
@given(centred_multisets(), st.integers(-16, 16))
def test_cone_violation_matches_reference(case, offset):
    # offset 0 keeps the drawn center, where unperturbed cases are members;
    # far offsets leave the support on one side of the center
    m, c = case
    assert cone_violation(m, c + offset) == ref_cone_violation(m, c + offset)


def test_cone_violation_reference_cases_cover_members_and_nonmembers():
    rng = random.Random(33)
    verdicts = set()
    for _ in range(200):
        c = rng.randint(-6, 6)
        m = random_cone_member(rng, c)
        for center in (c - 9, c - 1, c, c + 1, c + 9):
            expected = ref_cone_violation(m, center)
            assert cone_violation(m, center) == expected
            verdicts.add(expected is None)
    assert verdicts == {True, False}
    assert cone_violation(IntegerMultiset(), 5) is None


@CONE_PROPERTY
@given(decompositions(), st.integers(-5, 5))
def test_shift_commutes_with_to_tilde(d, k):
    m = d.recompose()
    assert to_tilde(m.shift(k)) == to_tilde(m).shift(k)


@CONE_PROPERTY
@given(decompositions())
def test_recompose_matches_reference(d):
    assert d.recompose() == ref_recompose(d)


@CONE_PROPERTY
@given(centred_multisets())
def test_decompose_cone_matches_reference(case):
    m, c = case
    try:
        expected = ref_decompose_cone(m, c)
    except ConeMembershipError as exc:
        with pytest.raises(ConeMembershipError) as info:
            decompose_cone(m, c)
        assert (info.value.center, info.value.offset, info.value.detail) == (
            exc.center,
            exc.offset,
            exc.detail,
        )
        assert str(info.value) == str(exc)
    else:
        assert decompose_cone(m, c) == expected
        assert expected.recompose() == m
