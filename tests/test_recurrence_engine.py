"""Unit tests for the coefficient-family recurrences and witnesses."""

import gc
import json
from functools import lru_cache, reduce
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcone.certifier import ConeCertificate
from chebcone.cli import main
from chebcone.laurent_oracle import LaurentPoly, eval_basis, lmul
from chebcone.multiset_cone import (
    ConeDecomposition,
    IntegerMultiset,
    decompose_cone,
    in_cone,
    msum,
    to_tilde,
)
from chebcone import certifier, multiset_cone, recurrence_engine, suites, tilde_ring
from chebcone.recurrence_engine import (
    _multiset_kernel,
    closed_element,
    closed_witnesses,
    cone_center,
    e0_raw,
    e1_raw,
    factored_witnesses,
    growth_stats,
    raw_element,
)
from chebcone.suites import CheckResult
from chebcone.tilde_ring import TildeElement, basis, mul, w0, w1


def ms(*xs):
    return IntegerMultiset(xs)


def test_leading_base_cases():
    assert e0_raw(0, 0) == basis(2)
    assert e0_raw(0, 1) == basis(1)
    assert e0_raw(0, -1) == basis(1)


def test_penultimate_base_cases():
    assert e1_raw(0, 0) == TildeElement()
    assert e1_raw(0, 1) == TildeElement()
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
    assert closed_witnesses(0) == (ms(2), IntegerMultiset())
    assert closed_witnesses(1) == (ms(2, 4, 6), ms(1, 3, 5))


def test_closed_witness_depth_two():
    m0, m1 = closed_witnesses(2)
    assert m0.max_index() == 18
    assert in_cone(m0, 8)
    assert to_tilde(m0) == e0_raw(2, 0)
    assert in_cone(m1, 7)
    assert to_tilde(m1) == e1_raw(2, 0)


@pytest.mark.parametrize("n", range(6))
def test_raw_equals_closed(n):
    assert e0_raw(n, 0) == to_tilde(closed_witnesses(n)[0])
    assert e1_raw(n, 0) == to_tilde(closed_witnesses(n)[1])


def ref_step(m0, m1):
    """The next pair by the printed expansions: each left factor acts as
    the sumset with its own kernel, the kernel of m0 included, every
    sumset is formed afresh and the first penultimate term is expanded."""
    k0, k1 = _multiset_kernel(m0), _multiset_kernel(m1)
    t1 = msum(k0, msum(m0, m0.shift(-1)))
    t2 = msum(k0, msum(m0, m1))
    t3 = msum(k1, msum(m0, m0))
    return msum(k0, msum(m0, m0)), t1 | (t2 | t2) | t3


@lru_cache(maxsize=None)
def ref_closed(n):
    """The depth-n witnesses (M0, M1) by ref_step."""
    if n == 0:
        return IntegerMultiset([2]), IntegerMultiset()
    return ref_step(*ref_closed(n - 1))


@pytest.mark.parametrize("n", range(7))
def test_closed_witnesses_match_the_three_term_expansion(n):
    assert closed_witnesses(n) == ref_closed(n)


multiplicities = st.integers(1, 3) | st.integers(2**64, 2**66)
radius_counts = st.dictionaries(st.integers(1, 12), multiplicities, max_size=5)


def cone_member(center, singletons, radii):
    parts = map(IntegerMultiset.from_counts, (singletons, radii))
    return ConeDecomposition(center, *parts).recompose()


def palindromes(c):
    """k copies of {c} plus intervals about c: the palindromic members of R(c)."""
    return st.builds(cone_member, st.just(c), st.dictionaries(st.just(c), multiplicities),
                     radius_counts)


def cone_members(c):
    return st.builds(cone_member, st.just(c),
                     st.dictionaries(st.integers(c, c + 12), multiplicities, max_size=4),
                     radius_counts)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(palindromes(0), st.integers(0, 8).flatmap(cone_members))
def test_kernel_of_a_product_with_a_palindrome_about_zero(f, a):
    # K(F*A) = F*K(A) for F palindromic about 0 and A in R(c), c >= 0,
    # which folds to non-negative weights: closed_witnesses' lemma
    assert _multiset_kernel(f + a) == f + _multiset_kernel(a)


def test_the_kernel_lemma_needs_a_palindrome_about_zero():
    # {2} is a palindrome about 2: K({2} + {0}) is U_2, not {2} + K({0})
    f, a = ms(2), ms(0)
    assert _multiset_kernel(f + a) == ms(-2, 0, 2) != f + _multiset_kernel(a)


def test_depth_zero_cores():
    assert factored_witnesses(0) == (ms(0), IntegerMultiset())


@pytest.mark.parametrize("n", range(1, 13))
def test_core_sizes_span_and_cone(n):
    # both cores have 2^(n+1) - 1 terms, C_n one on each odd value from 1
    # to 2^(n+2) - 3, and C_n lies in R(2^(n+1) - 1) = R(cone_center(n, 1))
    v, core = factored_witnesses(n)
    assert v.support_size() == core.support_size() == 2 ** (n + 1) - 1
    assert sorted(x for x, _ in core.items()) == list(range(1, 2 ** (n + 2) - 2, 2))
    assert in_cone(core, cone_center(n, 1))


def test_cores_are_stepped_without_the_witnesses():
    for fn in (factored_witnesses, closed_witnesses):
        fn.cache_clear()
    factored_witnesses(12)
    assert closed_witnesses.cache_info().currsize == 0


def cofactor_product(n):
    """prod_(k=1..n-1) U_(2^k)^(3^(n-k) - 1), by naive convolution."""
    factors = [eval_basis(2**k) for k in range(1, n) for _ in range(3 ** (n - k) - 1)]
    return reduce(lmul, factors, LaurentPoly({0: 1}))


@pytest.mark.parametrize("n", range(7))
def test_penultimate_witness_is_a_product_of_intervals_times_its_core(n):
    # P_n = G_n * C_n; leading_product checks L_n = x^(2^(n+1)) * G_n * V_n
    core = LaurentPoly(dict(factored_witnesses(n)[1].items()))
    assert LaurentPoly(dict(closed_witnesses(n)[1].items())) == lmul(cofactor_product(n), core)


def test_no_product_of_squares_outlives_its_depth():
    # the cofactor G_5 is formed while depth 5 is expanded, and no cache keeps it
    target = IntegerMultiset.from_counts(dict(cofactor_product(5).items()))
    for fn in (factored_witnesses, closed_witnesses):
        fn.cache_clear()
    closed_witnesses(5)
    live = [m for m in gc.get_objects() if type(m) is IntegerMultiset and m is not target]
    assert target not in live


def test_negative_weight_fault_reads_the_same_from_either_build_order():
    # one core, built in two orders, folds to -h[5] - h[3] - h[1]; the
    # fault names its lowest index, not the first in dict order
    messages = set()
    for m1 in (ms(-7, -5, -3), ms(-3, -5, -7)):
        with pytest.raises(ValueError) as info:
            _multiset_kernel(m1)
        messages.add(str(info.value))
    assert messages == {"negative folded weight -1 at h[1]: not a multiset"}


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
    assert ref_step(m0, m1) == closed_witnesses(k + 1)


def test_closed_route_folds_each_witness_once_per_depth(monkeypatch):
    # depths 1..6 fold and run one core each, C_(n-1); every product is a
    # sumset: u + V_(n-1) and u + C_(n-1) for the cores of depths 1..6, 12;
    # a + a and G plus that for each k < n, as depth n forms G_n, 2n for
    # depth n and 2 * (0 + 1 + ... + 6) = 42 in all; and G_n + V_n and
    # G_n + C_n for the witnesses of depths 0..6, 14
    counts = {"runs": 0, "products": 0}

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(recurrence_engine, "_symmetric_runs",
                        counting("runs", tilde_ring._symmetric_runs))
    monkeypatch.setattr(multiset_cone, "_product", counting("products", tilde_ring._product))
    for fn in (factored_witnesses, closed_witnesses):
        fn.cache_clear()
    closed_witnesses(6)
    assert counts == {"runs": 6, "products": 68}


def leading_product(n):
    """x^(2^(n+1)) * prod_(k=1..n) U_(2^k)^(3^(n-k)), by naive convolution."""
    factors = [eval_basis(2**k) for k in range(1, n + 1) for _ in range(3 ** (n - k))]
    return reduce(lmul, factors, LaurentPoly({2 ** (n + 1): 1}))


@pytest.mark.parametrize("n", range(7))
def test_leading_witness_laws(n):
    # symmetric about its center, dense on one parity from
    # 2^(n+2) - 2*3^n to 2*3^n, one singleton at the center except at n = 1
    m, c = closed_witnesses(n)[0], cone_center(n, 0)
    counts = dict(m.items())
    assert {2 * c - x: k for x, k in counts.items()} == counts
    assert sorted(counts) == list(range(2 ** (n + 2) - 2 * 3**n, 2 * 3**n + 1, 2))
    singletons = decompose_cone(m, c).singletons
    assert [v for v, _ in singletons.terms()] == ([] if n == 1 else [c])
    # the closed form of closed_witnesses' docstring, and its support and mass
    row = growth_stats(n)[0]
    assert row.support_size == 2 * 3**n - 2 ** (n + 1) + 1
    assert row.mass == prod((2**k + 1) ** (3 ** (n - k)) for k in range(1, n + 1))
    assert LaurentPoly(counts) == leading_product(n)


def test_a_changed_leading_witness_fails_the_product_formula():
    counts = dict(closed_witnesses(3)[0].items())
    for x in (min(counts), cone_center(3, 0), max(counts)):
        changed = {**counts, x: counts[x] + 1}
        assert LaurentPoly(changed) != leading_product(3)


def test_depth_six_raw_equals_closed_and_max_index_law():
    # depth 6 is the first depth at which certify and verify are routine;
    # nearly all of its product work takes the packed big-int path
    assert e0_raw(6, 0) == to_tilde(closed_witnesses(6)[0])
    assert e1_raw(6, 0) == to_tilde(closed_witnesses(6)[1])
    assert closed_witnesses(6)[0].max_index() == 2 * 3**6 == 1458


@pytest.mark.parametrize("n", range(6))
def test_shift_ladder(n):
    assert e0_raw(n, 1) == e0_raw(n, 0).shift(-1)
    assert e0_raw(n, -1) == e0_raw(n, 1)
    assert e1_raw(n, 1) == e1_raw(n, 0).shift(-1)
    assert e1_raw(n, -1) == e1_raw(n, 0).shift(-1) + e0_raw(n, 0).shift(-2)


def printed_extra_term(n):
    """The literal extra summand of the slot -1 leading recurrence, formed
    as printed from the depth-n slots that feed depth n + 1."""
    em1, e1 = e0_raw(n, -1), e0_raw(n, 1)
    return mul(em1, mul(em1, em1 - e1))


@pytest.mark.parametrize("n", range(6))
def test_extra_term_vanishes(n):
    term = printed_extra_term(n)
    assert term == TildeElement()
    if n < 5:
        # the shift suite reads the same term as slot -1 minus slot 1
        assert term == e0_raw(n + 1, -1) - e0_raw(n + 1, 1)


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
    assert in_cone(closed_witnesses(0)[1], cone_center(0, 1))


def test_shift_suite_forms_each_extra_term_once():
    # e0_raw(n + 1, -1) forms the extra term, and suite_shift(3) reads it
    # back as slot -1 minus slot 1, both of which its ladder checks build:
    # from cleared caches, one miss for each of the 4 depths and 3 slots of
    # either family
    for fn in (e0_raw, e1_raw):
        fn.cache_clear()
    assert all(r.passed for r in suites.suite_shift(3))
    assert e0_raw.cache_info().misses == e1_raw.cache_info().misses == 12


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
        return d._replace(singletons=d.singletons | IntegerMultiset([100])) if c == 8 else d

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
    assert closed_witnesses(n)[0].max_index() == 2 * 3**n


def test_mass_growth_exceeds_machine_range_by_depth_four():
    # coefficient mass roughly cubes per depth; depth 4 is beyond 64-bit
    assert growth_stats(4)[0].mass > 2**64
