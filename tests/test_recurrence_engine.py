"""Unit tests for the coefficient-family recurrences and witnesses."""

import json
from functools import lru_cache

import pytest

from chebcone.certifier import ConeCertificate
from chebcone.cli import main
from chebcone.multiset_cone import (
    IntegerMultiset,
    decompose_cone,
    in_cone,
    msum,
    to_tilde,
)
from chebcone import certifier, multiset_cone, recurrence_engine, suites, tilde_ring
from chebcone.recurrence_engine import (
    _left_expand,
    closed_element,
    closed_step,
    closed_witnesses,
    cone_center,
    e0_closed,
    e0_raw,
    e1_closed,
    e1_raw,
    growth_stats,
    leading_extra_term,
    raw_element,
)
from chebcone.suites import CheckResult
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
    # the slot has no default, which lru_cache would key apart from the
    # same slot passed: e0_raw(3) and e0_raw(3, 0) would build twice
    for raw in (e0_raw, e1_raw):
        with pytest.raises(TypeError):
            raw(3)


def test_closed_witnesses_small():
    assert e0_closed(0) == ms(2)
    assert e0_closed(1) == ms(2, 4, 6)
    assert e1_closed(0) == IntegerMultiset()
    assert e1_closed(1) == ms(1, 3, 5)


def test_closed_witness_depth_two():
    m0 = e0_closed(2)
    assert m0.max_index() == 18
    assert in_cone(m0, 8)
    assert to_tilde(m0) == e0_raw(2, 0)
    m1 = e1_closed(2)
    assert in_cone(m1, 7)
    assert to_tilde(m1) == e1_raw(2, 0)


@pytest.mark.parametrize("n", range(6))
def test_raw_equals_closed(n):
    assert e0_raw(n, 0) == to_tilde(e0_closed(n))
    assert e1_raw(n, 0) == to_tilde(e1_closed(n))


@lru_cache(maxsize=None)
def ref_closed(n):
    """The depth-n witnesses (M0, M1) by the printed expansions: every
    sumset formed afresh and the first penultimate term expanded."""
    if n == 0:
        return IntegerMultiset([2]), IntegerMultiset()
    m0, m1 = ref_closed(n - 1)
    (t1,) = _left_expand(m0, msum(m0, m0.shift(-1)))
    (t2,) = _left_expand(m0, msum(m0, m1))
    (t3,) = _left_expand(m1, msum(m0, m0))
    return _left_expand(m0, msum(m0, m0))[0], t1 | (t2 | t2) | t3


@pytest.mark.parametrize("n", range(7))
def test_closed_witnesses_match_the_three_term_expansion(n):
    assert (e0_closed(n), e1_closed(n)) == closed_witnesses(n) == ref_closed(n)
    # the step alone, from the reference's previous depth
    assert n == 0 or closed_step(*ref_closed(n - 1)) == ref_closed(n)


@pytest.fixture(scope="module")
def depth_five_cones(tmp_path_factory):
    out = tmp_path_factory.mktemp("certify") / "certs"
    assert main(["certify", "--n", "5", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("k", range(6))
def test_step_resumes_from_cone_documents(k, depth_five_cones):
    # a depth's two cone documents hold all that the next depth needs
    m0, m1 = (
        ConeCertificate.from_document(
            json.loads((depth_five_cones / f"cone_n{k}_j{j}.json").read_text())
        ).decomposition.recompose()
        for j in (0, 1)
    )
    assert (m0, m1) == closed_witnesses(k)
    assert closed_step(m0, m1) == closed_witnesses(k + 1)


def test_closed_route_folds_each_witness_once_per_depth(monkeypatch):
    # depths 1..6 fold and run two witnesses each; five products per depth:
    # two sumsets and three expansions
    counts = {"runs": 0, "products": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(recurrence_engine, "_symmetric_runs",
                        counting("runs", tilde_ring._symmetric_runs))
    for module in (recurrence_engine, multiset_cone):
        monkeypatch.setattr(module, "_product", counting("products", tilde_ring._product))
    closed_witnesses.cache_clear()
    closed_witnesses(6)
    assert counts == {"runs": 12, "products": 30}


@pytest.mark.parametrize("n", range(7))
def test_leading_witness_laws(n):
    # symmetric about its center, dense on one parity from
    # 2^(n+2) - 2*3^n to 2*3^n, one singleton at the center except at n = 1
    m, c = e0_closed(n), cone_center(n, 0)
    counts = dict(m.items())
    assert {2 * c - x: k for x, k in counts.items()} == counts
    assert sorted(counts) == list(range(2 ** (n + 2) - 2 * 3**n, 2 * 3**n + 1, 2))
    singletons = decompose_cone(m, c).singletons
    assert [v for v, _ in singletons] == ([] if n == 1 else [c])


def test_depth_six_raw_equals_closed_and_max_index_law():
    # depth 6 is the first depth at which certify and verify are routine;
    # nearly all of its product work takes the packed big-int path
    assert e0_raw(6, 0) == to_tilde(e0_closed(6))
    assert e1_raw(6, 0) == to_tilde(e1_closed(6))
    assert e0_closed(6).max_index() == 2 * 3**6 == 1458


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


def test_witness_cone_centers():
    assert cone_center(3, 0) == 16
    assert cone_center(3, 1) == 15


def structure_records(n_max):
    """The records of the multiset, cone and shift suites for depths
    0..n_max, at one random trial, as verify reports them."""
    pairs = suites.run_suites(["multiset", "cone", "shift"], n_max, 1)
    return [r for _, results in pairs for r in results]


def test_structural_suites_small():
    results = structure_records(1)
    assert all(r.passed for r in results)
    names = {r.name for r in results}
    assert "shift/leading-slot1(n=1)" in names
    assert "cone/membership(n=1,j=1)" in names
    assert "closed/raw-equals-closed(n=1,j=0)" in names
    assert all(isinstance(r, CheckResult) for r in results)


def test_structural_suites_depth_zero():
    assert all(r.passed for r in structure_records(0))
    # the empty witness is vacuously a member at its asserted center
    assert in_cone(e1_closed(0), cone_center(0, 1))


def test_shift_suite_forms_each_extra_term_once():
    # suite_shift(3) reads leading_extra_term(n) for n < 3, and so does
    # e0_raw(n + 1, -1): from cleared caches, one miss and one hit per n
    for fn in (e0_raw, e1_raw, leading_extra_term):
        fn.cache_clear()
    assert all(r.passed for r in suites.suite_shift(3))
    info = leading_extra_term.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 3)


def failed(records):
    return [r for r in records if not r.passed]


def test_structural_suites_report_a_raw_closed_difference(monkeypatch):
    real = recurrence_engine.raw_element

    def off_by_one_term(n, i, j):
        g = real(n, i, j)
        return g + basis(99) if (n, i, j) == (1, 0, 1) else g

    monkeypatch.setattr(recurrence_engine, "raw_element", off_by_one_term)
    assert failed(structure_records(1)) == [
        CheckResult("closed/raw-equals-closed(n=1,j=1)", False,
                    "difference has 1 terms, first [(99, 1)]"),
    ]


def test_structural_suites_report_a_witness_outside_its_cone(monkeypatch):
    # {2, 4, 6} lies in R(4) but not in R(5): offset 3 meets mult(2) > mult(8)
    real = certifier.cone_center
    monkeypatch.setattr(certifier, "cone_center",
                        lambda n, j: real(n, j) + ((n, j) == (1, 0)))
    records = structure_records(1)
    assert failed(records) == [CheckResult("cone/membership(n=1,j=0)", False, "not in R(5)")]
    assert CheckResult("cone/membership(n=1,j=1)", True,
                       "center 3, decomposition recomposes") in records


def test_structural_suites_report_a_decomposition_that_does_not_recompose(monkeypatch):
    real = certifier.decompose_cone

    def with_extra_singleton(m, c):
        d = real(m, c)
        return d._replace(singletons=d.singletons + ((100, 1),)) if c == 8 else d

    monkeypatch.setattr(certifier, "decompose_cone", with_extra_singleton)
    assert failed(structure_records(2)) == [
        CheckResult("cone/membership(n=2,j=0)", False,
                    "decomposition at center 8 does not recompose"),
    ]


def test_growth_stats():
    s1 = growth_stats(1)
    assert type(s1) is tuple and len(s1) == 2
    assert s1[0].max_index == 6
    assert s1[0].support_size == 3
    s2 = growth_stats(2)
    assert s2[0].max_index == 18
    s0 = growth_stats(0)
    assert s0[1].support_size == 0
    assert s0[1].mass == 0
    assert s0[1].max_index is None


@pytest.mark.parametrize("n", range(1, 6))
def test_max_index_law(n):
    assert e0_closed(n).max_index() == 2 * 3**n


def test_mass_growth_exceeds_machine_range_by_depth_four():
    # coefficient mass roughly cubes per depth; depth 4 is beyond 64-bit
    assert growth_stats(4)[0].mass > 2**64
