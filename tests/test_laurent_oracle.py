"""Unit tests for the commutative Laurent evaluation oracle."""

import inspect
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from chebcone import laurent_oracle, tilde_ring
from chebcone.laurent_oracle import (
    LaurentPoly,
    eval_basis,
    evaluate,
    lmul,
    weighted_mass,
)
from chebcone.recurrence_engine import e0_raw, e1_raw
from chebcone.suites import cross_check, random_element
from chebcone.tilde_ring import TildeElement, basis, fold_L, mul, w0, w1


def test_eval_basis_cases():
    assert eval_basis(1) == LaurentPoly({1: 1, -1: 1})
    assert eval_basis(0) == LaurentPoly({0: 1})
    assert eval_basis(-1) == LaurentPoly()
    assert eval_basis(-3) == LaurentPoly({1: -1, -1: -1})
    assert eval_basis(-2) == LaurentPoly({0: -1})
    assert eval_basis(3) == LaurentPoly({3: 1, 1: 1, -1: 1, -3: 1})


def test_lmul():
    u1 = eval_basis(1)
    assert lmul(u1, u1) == LaurentPoly({2: 1, 0: 2, -2: 1})
    p = LaurentPoly({5: 3, -2: 1})
    assert lmul(p, LaurentPoly({0: 1})) == p
    assert lmul(u1, u1) == eval_basis(0) + eval_basis(2)


def test_evaluate_is_linear_and_has_a_kernel():
    g = basis(2) + basis(4) + basis(6)
    assert evaluate(g) == eval_basis(2) + eval_basis(4) + eval_basis(6)
    assert dict(evaluate(g).items())[6] == 1
    assert evaluate(TildeElement()) == LaurentPoly()
    # evaluation kills h~[0] + h~[-2], so agreement is necessary, not sufficient
    assert evaluate(basis(0) + basis(-2)) == LaurentPoly()


def test_evaluate_factors_through_fold():
    rng = random.Random(21)
    for _ in range(50):
        g = random_element(rng)
        assert evaluate(g) == evaluate(TildeElement(dict(fold_L(g).items())))


def test_kernel_is_the_evaluation():
    # g times h~[0] is g's shift kernel, which read as a Laurent polynomial
    # is the oracle's evaluation of g, computed by separate code
    rng = random.Random(26)
    for _ in range(500):
        g = random_element(rng)
        assert dict(mul(g, basis(0)).items()) == dict(evaluate(g).items())


def test_cross_check_examples():
    assert cross_check(basis(2), basis(4))
    assert cross_check(basis(-1), 3 * basis(5) - basis(-7))


def test_cross_check_random_pairs():
    rng = random.Random(22)
    for _ in range(200):
        assert cross_check(random_element(rng), random_element(rng))


def test_eval_palindromic():
    rng = random.Random(23)
    for _ in range(50):
        p = evaluate(random_element(rng))
        assert p.is_palindromic()
    assert evaluate(e0_raw(2, 0)).is_palindromic()
    assert evaluate(e1_raw(2, 0)).is_palindromic()


def test_weighted_mass_matches_value_at_one():
    rng = random.Random(24)
    for _ in range(50):
        g = random_element(rng)
        assert evaluate(g).at_one() == weighted_mass(g)
    for n in range(4):
        g = e0_raw(n, 0)
        assert evaluate(g).at_one() == weighted_mass(g)


def test_pair_identities_survive_evaluation():
    for a in range(-6, 7):
        for b in range(-6, 7):
            lhs = lmul(eval_basis(a), eval_basis(b)) - lmul(
                eval_basis(a - 1), eval_basis(b - 1)
            )
            assert lhs == eval_basis(a + b)
            lhs = lmul(eval_basis(a), eval_basis(b)) - lmul(
                eval_basis(a - 1), eval_basis(b + 1)
            )
            assert lhs == eval_basis(b - a)


def test_w_identity_survives_evaluation():
    rng = random.Random(25)
    for _ in range(50):
        g1, g2, g3 = (random_element(rng) for _ in range(3))
        assert evaluate(w1(g1, g2, g3)) == evaluate(w0(g1, g2, g3).shift(-1))


def test_product_evaluation_on_family_elements():
    g = e0_raw(2, 0)
    h = e1_raw(2, 0)
    assert evaluate(mul(g, h)) == lmul(evaluate(g), evaluate(h))


def test_poly_arithmetic():
    p = LaurentPoly({2: 1, 0: -1})
    q = LaurentPoly({0: 1})
    assert p + q == LaurentPoly({2: 1})
    assert p - p == LaurentPoly()
    assert q - p == LaurentPoly({2: -1, 0: 2})
    assert p.mirror() == LaurentPoly({-2: 1, 0: -1})
    assert LaurentPoly({-4: 7}).terms() == [(-4, 7)]


def test_oracle_shares_no_product_primitive_with_the_kernel():
    # lmul is a plain convolution of its own; it must not reuse the
    # kernel's product, its packing or its shift kernel.  The private
    # callables of tilde_ring are read off the module, so that a new helper
    # is covered without an edit here
    private = {
        name: obj
        for name, obj in vars(tilde_ring).items()
        if name.startswith("_") and not name.startswith("__") and callable(obj)
    }
    assert {"_product", "_kernel", "_pack", "_unpack", "_wrap", "_field_tops"} <= set(private)
    primitives = (*private.values(), tilde_ring.SparseVector)
    names = {primitive.__name__ for primitive in primitives} | set(private) | {"MIN_TERM_OPS"}
    source = inspect.getsource(laurent_oracle)
    for name in names:
        assert name not in source
    for primitive in primitives:
        assert all(obj is not primitive for obj in vars(laurent_oracle).values())
    for fn in (lmul, evaluate, eval_basis):
        assert not names & set(fn.__code__.co_names)
    # the oracle's polynomials keep their own storage and arithmetic
    assert tilde_ring.SparseVector not in LaurentPoly.__mro__
    # nor is any other name in the oracle bound to a module, class or
    # function of the rest of the package: suites.cross_check holds the
    # oracle against the kernel, and evaluate reads elements by .items()
    borrowed = {}
    for name, obj in vars(laurent_oracle).items():
        home = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", None)
        if isinstance(home, str) and home.split(".")[0] == "chebcone":
            if home != laurent_oracle.__name__:
                borrowed[name] = home
    assert borrowed == {}


def ref_eval_basis(i):
    if i >= 0:
        return LaurentPoly({i - 2 * k: 1 for k in range(i + 1)})
    if i == -1:
        return LaurentPoly()
    m = -i - 2
    return LaurentPoly({m - 2 * k: -1 for k in range(m + 1)})


def ref_evaluate(g):
    """evaluate as it used to be: one fresh image added per term."""
    acc = LaurentPoly()
    for j, c in g.items():
        acc = acc + LaurentPoly({e: c * d for e, d in ref_eval_basis(j).items()})
    return acc


def test_eval_basis_matches_piecewise_definition():
    for i in range(-40, 41):
        assert eval_basis(i) == ref_eval_basis(i)


coefficients = st.integers(-(2**70), 2**70).filter(bool)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.dictionaries(st.integers(-30, 30), coefficients, max_size=12),
    coefficients,
    st.integers(-30, -2),
    coefficients,
)
def test_evaluate_matches_repeated_addition(coeffs, c_minus_one, low, c_low):
    # every element carries index -1 and an index below -1
    g = TildeElement({**coeffs, -1: c_minus_one, low: c_low})
    assert evaluate(g) == ref_evaluate(g)


def filtered_sum(p, q, sign):
    """p + sign * q as it used to be built: accumulate, then let the
    constructor drop the zeros."""
    acc = dict(p.items())
    for e, c in q.items():
        acc[e] = acc.get(e, 0) + sign * c
    return LaurentPoly(acc)


def filtered_lmul(p, q):
    acc = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return LaurentPoly(acc)


def filtered_evaluate(g):
    acc = {}
    for j, c in g.items():
        if j < -1:
            j, c = -j - 2, -c
        for e in range(j, -j - 1, -2):
            acc[e] = acc.get(e, 0) + c
    return LaurentPoly(acc)


# small exponents and coefficients, zeros included, so that sums, products
# and images cancel often
small_terms = st.dictionaries(st.integers(-6, 6), st.integers(-2, 2), max_size=7)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(small_terms.map(LaurentPoly), small_terms.map(LaurentPoly), small_terms.map(TildeElement))
def test_results_hold_no_zero_and_match_the_filtered_construction(p, q, g):
    cases = [
        (p + q, filtered_sum(p, q, 1)),
        (p - q, filtered_sum(p, q, -1)),
        (q - q, LaurentPoly()),
        (LaurentPoly() - p, filtered_sum(LaurentPoly(), p, -1)),
        (lmul(p, q), filtered_lmul(p, q)),
        (evaluate(g), filtered_evaluate(g)),
    ]
    for got, expected in cases:
        assert got == expected
        assert len(got.items()) == len(expected.terms())
        assert all(c for _, c in got.items())


def test_cancellation_leaves_no_zero():
    one_plus_t = LaurentPoly({0: 1, 1: 1})
    one_minus_t = LaurentPoly({0: 1, 1: -1})
    product = lmul(one_plus_t, one_minus_t)
    assert dict(product.items()) == {0: 1, 2: -1}
    assert dict((one_plus_t - LaurentPoly({1: 1})).items()) == {0: 1}
    assert not evaluate(basis(3) + basis(-5))
