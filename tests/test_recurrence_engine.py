"""Unit tests for the coefficient-family recurrences and witnesses."""

from functools import lru_cache

import pytest

from chebcone.multiset_cone import IntegerMultiset, in_cone, msum, munion, to_tilde
from chebcone.recurrence_engine import (
    _left_expand,
    CheckResult,
    check_structure,
    closed_element,
    e0_closed,
    e0_raw,
    e1_closed,
    e1_raw,
    family,
    growth_stats,
    leading_extra_term,
    raw_element,
)
from chebcone.tilde_ring import TildeElement, basis, w0, w1


def ms(*xs):
    return IntegerMultiset(xs)


def test_leading_base_cases():
    assert e0_raw(0, 0) == basis(2)
    assert e0_raw(0, 1) == basis(1)
    assert e0_raw(0, -1) == basis(1)


def test_penultimate_base_cases():
    assert e1_raw(0, 0) == TildeElement.zero()
    assert e1_raw(0, 1) == TildeElement.zero()
    assert e1_raw(0, -1) == basis(0)


def test_leading_depth_one_by_hand():
    # by hand: h~[2] acting on (h~[2]h~[2] - h~[1]h~[1])
    #   h~[2]h~[2] = h~[0]+h~[2]+h~[4],  h~[1]h~[1] = h~[0]+h~[2]
    #   difference = h~[4]; then h~[2]h~[4] = h~[2]+h~[4]+h~[6]
    assert e0_raw(1, 0) == basis(2) + basis(4) + basis(6)
    assert e0_raw(1, 1) == basis(1) + basis(3) + basis(5)
    assert e0_raw(1, -1) == e0_raw(1, 1)


def test_penultimate_depth_one_by_hand():
    # only the first trilinear summand survives at depth one, since the
    # depth-zero penultimate element is zero:
    #   w0(h~[2], h~[2], h~[1]) = h~[2](h~[2]h~[1] - h~[1]h~[0])
    #     h~[2]h~[1] = h~[-1]+h~[1]+h~[3],  h~[1]h~[0] = h~[-1]+h~[1]
    #     difference = h~[3]; then h~[2]h~[3] = h~[1]+h~[3]+h~[5]
    assert e1_raw(1, 0) == basis(1) + basis(3) + basis(5)
    # slot -1 by the ladder: e1(1,0).shift(-1) + e0(1,0).shift(-2)
    #   = (h~[0]+h~[2]+h~[4]) + (h~[0]+h~[2]+h~[4])
    assert e1_raw(1, -1) == 2 * (basis(0) + basis(2) + basis(4))
    assert e1_raw(1, 1) == basis(0) + basis(2) + basis(4)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        e0_raw(-1, 0)
    with pytest.raises(ValueError):
        e0_raw(2, 5)
    with pytest.raises(ValueError):
        raw_element(1, 0, 3)
    with pytest.raises(ValueError):
        closed_element(1, 2, 0)


def test_closed_witnesses_small():
    assert e0_closed(0).M == ms(2)
    assert e0_closed(1).M == ms(2, 4, 6)
    assert e1_closed(0).M == IntegerMultiset()
    assert e1_closed(1).M == ms(1, 3, 5)


def test_closed_witness_depth_two():
    w = e0_closed(2)
    assert w.M.max_element() == 18
    assert in_cone(w.M, 8)
    assert to_tilde(w.M) == e0_raw(2, 0)
    w1_ = e1_closed(2)
    assert in_cone(w1_.M, 7)
    assert to_tilde(w1_.M) == e1_raw(2, 0)


@pytest.mark.parametrize("n", range(6))
def test_raw_equals_closed(n):
    assert e0_raw(n, 0) == to_tilde(e0_closed(n).M)
    assert e1_raw(n, 0) == to_tilde(e1_closed(n).M)


@lru_cache(maxsize=None)
def ref_closed(n):
    """The depth-n witnesses (M0, M1) by the printed expansions: every
    sumset formed afresh and the first penultimate term expanded."""
    if n == 0:
        return IntegerMultiset([2]), IntegerMultiset()
    m0, m1 = ref_closed(n - 1)
    t1 = _left_expand(m0, msum(m0, m0.shifted(-1)))
    t2 = _left_expand(m0, msum(m0, m1))
    t3 = _left_expand(m1, msum(m0, m0))
    return _left_expand(m0, msum(m0, m0)), munion(munion(t1, munion(t2, t2)), t3)


@pytest.mark.parametrize("n", range(7))
def test_closed_witnesses_match_the_three_term_expansion(n):
    assert (e0_closed(n).M, e1_closed(n).M) == ref_closed(n)


def test_depth_six_raw_equals_closed_and_max_index_law():
    # depth 6 is the first depth at which certify and verify are routine;
    # nearly all of its product work takes the packed big-int path
    assert e0_raw(6, 0) == to_tilde(e0_closed(6).M)
    assert e1_raw(6, 0) == to_tilde(e1_closed(6).M)
    assert e0_closed(6).M.max_element() == 2 * 3**6 == 1458


@pytest.mark.parametrize("n", range(6))
def test_shift_ladder(n):
    assert e0_raw(n, 1) == e0_raw(n, 0).shift(-1)
    assert e0_raw(n, -1) == e0_raw(n, 1)
    assert e1_raw(n, 1) == e1_raw(n, 0).shift(-1)
    assert e1_raw(n, -1) == e1_raw(n, 0).shift(-1) + e0_raw(n, 0).shift(-2)


@pytest.mark.parametrize("n", range(6))
def test_extra_term_vanishes(n):
    assert leading_extra_term(n) == TildeElement.zero()


@pytest.mark.parametrize("n", range(5))
def test_leading_recurrence_matches_trilinear_forms(n):
    # substituting the proven slot identities into the raw recurrence
    # collapses it to the two trilinear forms on equal arguments
    g = e0_raw(n, 0)
    assert e0_raw(n + 1, 0) == w0(g, g, g)
    assert e0_raw(n + 1, 1) == w1(g, g, g)


def test_closed_element_ladder():
    for n in range(3):
        for i in (-1, 0, 1):
            for j in (0, 1):
                assert closed_element(n, i, j) == raw_element(n, i, j)


def test_family_record():
    fam = family(2, 1, 0)
    assert fam.n == 2 and fam.i == 1 and fam.j == 0
    assert fam.value == e0_raw(2, 1)


def test_witness_cone_centers():
    assert e0_closed(3).cone_center() == 16
    assert e1_closed(3).cone_center() == 15


def test_check_structure_small():
    report = check_structure(1)
    assert report.all_passed
    assert report.failures() == ()
    names = {r.name for r in report.results}
    assert "shift/leading-slot1(n=1)" in names
    assert "cone/membership(n=1,j=1)" in names
    assert all(isinstance(r, CheckResult) for r in report.results)


def test_check_structure_depth_zero():
    report = check_structure(0)
    assert report.all_passed
    # the empty witness is vacuously a member at its asserted center
    assert in_cone(e1_closed(0).M, e1_closed(0).cone_center())


def test_growth_stats():
    s1 = growth_stats(1)
    assert s1.rows[0].max_index == 6
    assert s1.rows[0].support_size == 3
    s2 = growth_stats(2)
    assert s2.rows[0].max_index == 18
    s0 = growth_stats(0)
    assert s0.rows[1].support_size == 0
    assert s0.rows[1].mass == 0
    assert s0.rows[1].max_index is None


@pytest.mark.parametrize("n", range(1, 6))
def test_max_index_law(n):
    assert e0_closed(n).M.max_element() == 2 * 3**n


def test_mass_growth_exceeds_machine_range_by_depth_four():
    # coefficient mass roughly cubes per depth; depth 4 is beyond 64-bit
    assert growth_stats(4).rows[0].mass > 2**64
