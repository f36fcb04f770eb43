"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every criterion is checked at its stated exact tolerance (all arithmetic
is integer, so tolerances are equalities) and, where stated, its runtime
budget.
"""

import random
import time
from contextlib import contextmanager

from chebcone.certifier import certify_positivity
from chebcone.laurent_oracle import eval_basis, evaluate, lmul
from chebcone.multiset_cone import (
    decompose_cone,
    in_cone,
    interval,
    interval_sum_decompose,
    msum,
    to_tilde,
    IntegerMultiset,
)
from chebcone.recurrence_engine import (
    e0_closed,
    e0_raw,
    e1_closed,
    e1_raw,
    leading_extra_term,
)
from chebcone import recurrence_engine, suites
from chebcone.suites import cross_check, random_cone_member, random_element
from chebcone.tilde_ring import (
    TildeElement,
    basis,
    fold_L,
    mul,
    w0,
    w1,
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def test_criterion_01_pair_identities():
    with criterion(1, "pair product identities exact on [-8,8]^2, under 1s"):
        start = time.perf_counter()
        count = 0
        for a in range(-8, 9):
            for b in range(-8, 9):
                assert mul(basis(a), basis(b)) - mul(basis(a - 1), basis(b - 1)) == basis(a + b)
                assert mul(basis(a), basis(b)) - mul(basis(a - 1), basis(b + 1)) == basis(b - a)
                count += 1
        elapsed = time.perf_counter() - start
        assert count == 289
        assert elapsed < 1.0, f"pair identities took {elapsed:.2f}s"


def test_criterion_02_triple_identities():
    with criterion(2, "triple product identities exact on [-6,6]^3, under 5s"):
        start = time.perf_counter()
        h1 = basis(1)
        count = 0
        for b in range(-6, 7):
            hb = basis(b)
            for a1 in range(-6, 7):
                for a2 in range(-6, 7):
                    # grouped left to right, as displayed
                    lhs = mul(mul(hb, basis(a1)), basis(a2)) - mul(
                        mul(hb, basis(a1 - 1)), basis(a2 - 1)
                    )
                    assert lhs == mul(hb, basis(a1 + a2))
                    lhs = (
                        mul(mul(basis(a1), hb), basis(a2 - 1))
                        + mul(mul(basis(a1 - 1), hb), basis(a2))
                        - mul(mul(mul(basis(a1 - 1), h1), hb), basis(a2 - 1))
                    )
                    assert lhs == mul(hb, basis(a1 + a2 - 1))
                    count += 1
        elapsed = time.perf_counter() - start
        assert count == 2197
        assert elapsed < 5.0, f"triple identities took {elapsed:.2f}s"


def test_criterion_03_w_shift_identity():
    with criterion(3, "w1 equals shifted w0 on 200 seeded random triples"):
        rng = random.Random("acceptance:w-theorem")
        failures = 0
        for _ in range(200):
            g1, g2, g3 = (random_element(rng, span=6, coeff_bound=3) for _ in range(3))
            if w1(g1, g2, g3) != w0(g1, g2, g3).shift(-1):
                failures += 1
        assert failures == 0


def test_criterion_04_raw_equals_closed_through_depth_four():
    with criterion(4, "raw recurrences equal closed multiset forms for n <= 4, under 5min"):
        # clear every memo cache of the engine (the families, the extra term,
        # the penultimate first lines and the sumsets M + M) so the timing
        # covers the full computation
        for fn in vars(recurrence_engine).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        start = time.perf_counter()
        for n in range(5):
            assert e0_raw(n, 0) == to_tilde(e0_closed(n))
            assert e1_raw(n, 0) == to_tilde(e1_closed(n))
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"depth-4 computation took {elapsed:.1f}s"


def test_criterion_05_shift_ladder():
    with criterion(5, "shift ladder exact for n <= 4, extra term zero for n <= 3"):
        for n in range(5):
            assert e0_raw(n, 1) == e0_raw(n, 0).shift(-1)
            assert e0_raw(n, -1) == e0_raw(n, 1)
            assert e1_raw(n, 1) == e1_raw(n, 0).shift(-1)
            assert e1_raw(n, -1) == e1_raw(n, 0).shift(-1) + e0_raw(n, 0).shift(-2)
        for n in range(4):
            assert leading_extra_term(n) == TildeElement.zero()


def test_criterion_06_cone_membership_with_certificates():
    with criterion(6, "witness multisets lie in their cones for n <= 4, certificates recompose"):
        for n in range(5):
            w_lead = e0_closed(n)
            center = 2 ** (n + 1)
            assert in_cone(w_lead, center)
            assert decompose_cone(w_lead, center).recompose() == w_lead

            w_pen = e1_closed(n)
            center = 2 ** (n + 1) - 1
            assert in_cone(w_pen, center)
            assert decompose_cone(w_pen, center).recompose() == w_pen


def test_criterion_07_positivity_certificates():
    with criterion(7, "30 positivity certificates for n <= 4, no negative coefficient"):
        certs = [
            certify_positivity(n, i, j)
            for n in range(5)
            for i in (-1, 0, 1)
            for j in (0, 1)
        ]
        assert len(certs) == 30
        assert all(pc.all_nonnegative for pc in certs)
        negative = [
            (pc.n, pc.i, pc.j)
            for pc in certs
            if any(int(c) < 0 for _, c in pc.coefficients)
        ]
        assert negative == []


def test_criterion_08_multiset_lemmas_random():
    with criterion(8, "four multiset lemmas pass 200 seeded random instances each"):
        rng = random.Random("acceptance:multiset")

        for _ in range(200):  # interval sums decompose into interval unions
            a1 = rng.randint(-8, 8)
            b1 = a1 + 2 * rng.randint(0, 6)
            a2 = rng.randint(-8, 8)
            b2 = a2 + 2 * rng.randint(0, 6)
            rebuilt = IntegerMultiset()
            for lo, hi in interval_sum_decompose(a1, b1, a2, b2):
                rebuilt |= interval(lo, hi)
            assert rebuilt == msum(interval(a1, b1), interval(a2, b2))

        for _ in range(200):  # cone sum and cone subset statements
            c1, c2 = rng.randint(-3, 6), rng.randint(-3, 6)
            m1 = random_cone_member(rng, c1)
            m2 = random_cone_member(rng, c2)
            assert in_cone(msum(m1, m2), c1 + c2)
            m3 = random_cone_member(rng, c1 + 1)
            assert in_cone(m3, c1)

        for _ in range(200):  # left action: interval sum, membership preserved
            c = rng.randint(-3, 6)
            i = rng.randint(0, 6)
            m = random_cone_member(rng, c)
            summed = msum(interval(-i, i), m)
            assert to_tilde(summed) == mul(basis(i), to_tilde(m))
            assert in_cone(summed, c)

        for _ in range(200):  # membership at center >= 0 forces fold positivity
            c = rng.randint(0, 6)
            m = random_cone_member(rng, c)
            assert fold_L(to_tilde(m)).all_nonnegative()


def test_criterion_09_oracle_agreement():
    with criterion(9, "oracle multiplicative on 500 pairs, identities re-verified, max-index law"):
        rng = random.Random("acceptance:oracle")
        for _ in range(500):
            assert cross_check(random_element(rng), random_element(rng))

        for a in range(-8, 9):  # pair identities inside the oracle algebra
            for b in range(-8, 9):
                assert lmul(eval_basis(a), eval_basis(b)) - lmul(
                    eval_basis(a - 1), eval_basis(b - 1)
                ) == eval_basis(a + b)
                assert lmul(eval_basis(a), eval_basis(b)) - lmul(
                    eval_basis(a - 1), eval_basis(b + 1)
                ) == eval_basis(b - a)

        for b in range(-6, 7):  # triple identities inside the oracle algebra
            ub = eval_basis(b)
            for a1 in range(-6, 7):
                for a2 in range(-6, 7):
                    assert lmul(lmul(ub, eval_basis(a1)), eval_basis(a2)) - lmul(
                        lmul(ub, eval_basis(a1 - 1)), eval_basis(a2 - 1)
                    ) == lmul(ub, eval_basis(a1 + a2))
                    lhs = (
                        lmul(lmul(eval_basis(a1), ub), eval_basis(a2 - 1))
                        + lmul(lmul(eval_basis(a1 - 1), ub), eval_basis(a2))
                        - lmul(
                            lmul(lmul(eval_basis(a1 - 1), eval_basis(1)), ub),
                            eval_basis(a2 - 1),
                        )
                    )
                    assert lhs == lmul(ub, eval_basis(a1 + a2 - 1))

        rng = random.Random("acceptance:w-theorem")
        for _ in range(200):  # shift identity re-verified after evaluation
            g1, g2, g3 = (random_element(rng, span=6, coeff_bound=3) for _ in range(3))
            assert evaluate(w1(g1, g2, g3)) == evaluate(w0(g1, g2, g3).shift(-1))

        for n in range(1, 5):
            assert e0_closed(n).max_index() == 2 * 3**n


def test_criterion_10_hand_checked_anchors():
    with criterion(10, "depth-one anchors match independent manual expansion"):
        # leading element, depth 1, by hand:
        #   h~[2]h~[2] = h~[0]+h~[2]+h~[4]   (shifts of h~[2] by -2, 0, +2)
        #   h~[1]h~[1] = h~[0]+h~[2]         (shifts of h~[1] by -1, +1)
        #   difference = h~[4]
        #   h~[2]h~[4] = h~[2]+h~[4]+h~[6]   (shifts of h~[4] by -2, 0, +2)
        assert e0_raw(1, 0) == basis(2) + basis(4) + basis(6)

        # penultimate element, depth 1: only the trilinear summand with
        # arguments (h~[2], h~[2], h~[1]) survives, the others carry the
        # zero depth-0 element; by hand:
        #   h~[2]h~[1] = h~[-1]+h~[1]+h~[3]
        #   h~[1]h~[0] = h~[-1]+h~[1]
        #   difference = h~[3];   h~[2]h~[3] = h~[1]+h~[3]+h~[5]
        assert e1_raw(1, 0) == basis(1) + basis(3) + basis(5)

        # slot -1 penultimate element, depth 1, summed line by line:
        #   (a) w1(h~[2],h~[2],h~[1])            = h~[0]+h~[2]+h~[4]
        #   (b) h~[0](h~[2]h~[2])                = h~[0]+h~[2]+h~[4]
        #   (c) -h~[0](h~[1](h~[2]h~[1]))        = -(h~[-2]+2h~[0]+2h~[2]+h~[4])
        #   (d) 2 h~[1](h~[2]h~[1])              = 2(h~[-2]+2h~[0]+2h~[2]+h~[4])
        #   (e) -h~[1](h~[1](h~[1]h~[1]))        = -(h~[-2]+3h~[0]+3h~[2]+h~[4])
        #   (f) h~[1](h~[0]h~[1])                = h~[0]+h~[2]
        #   total = 2h~[0]+2h~[2]+2h~[4]
        assert e1_raw(1, -1) == 2 * (basis(0) + basis(2) + basis(4))


def test_acceptance_summary():
    # every criterion above uses exact integer arithmetic; this summary
    # exists so a bare `pytest tests/test_acceptance.py` shows the tally
    pairs = suites.run_suites(["multiset", "cone", "shift"], 4, None)
    results = [r for _, suite_results in pairs for r in suite_results]
    assert all(r.passed for r in results)
    print(f"ACCEPTANCE structural replay: {len(results)} checks, all passed")
