"""The shared product-identity sweep against the nested loops it replaced,
and what each structural suite behind the verify command reads."""

import sys
import tracemalloc

import pytest

from chebcone import certifier, multiset_cone, recurrence_engine, suites
from chebcone.cli import SUITE_NAMES, main
from chebcone.laurent_oracle import eval_basis, lmul
from chebcone.suites import _product_identities
from chebcone.tilde_ring import basis, mul


def ref_product_identities(prefix, B, product, pair_bound, triple_bound):
    """The nested loops suite_lemmas and suite_oracle each used to run:
    every product recomputed for every identity that reads it."""
    results = []

    span = range(-pair_bound, pair_bound + 1)
    bad_sum, bad_diff = [], []
    for a in span:
        for b in span:
            if product(B(a), B(b)) - product(B(a - 1), B(b - 1)) != B(a + b):
                bad_sum.append((a, b))
            if product(B(a), B(b)) - product(B(a - 1), B(b + 1)) != B(b - a):
                bad_diff.append((a, b))
    total = len(span) ** 2
    scope = f"A,B in [{-pair_bound},{pair_bound}]"
    results.append(suites._exhaustive(f"{prefix}/pair-sum", bad_sum, total, scope))
    results.append(suites._exhaustive(f"{prefix}/pair-diff", bad_diff, total, scope))

    span3 = range(-triple_bound, triple_bound + 1)
    bad_t_sum, bad_t_mixed = [], []
    h1 = B(1)
    for b in span3:
        hb = B(b)
        for a1 in span3:
            for a2 in span3:
                lhs = product(product(hb, B(a1)), B(a2)) - product(
                    product(hb, B(a1 - 1)), B(a2 - 1)
                )
                if lhs != product(hb, B(a1 + a2)):
                    bad_t_sum.append((a1, a2, b))
                lhs2 = (
                    product(product(B(a1), hb), B(a2 - 1))
                    + product(product(B(a1 - 1), hb), B(a2))
                    - product(product(product(B(a1 - 1), h1), hb), B(a2 - 1))
                )
                if lhs2 != product(hb, B(a1 + a2 - 1)):
                    bad_t_mixed.append((a1, a2, b))
    total3 = len(span3) ** 3
    scope3 = f"A1,A2,B in [{-triple_bound},{triple_bound}]"
    results.append(suites._exhaustive(f"{prefix}/triple-sum", bad_t_sum, total3, scope3))
    results.append(suites._exhaustive(f"{prefix}/triple-mixed", bad_t_mixed, total3, scope3))
    return results


def drops_top_term_at(index, product):
    """product, made wrong: it drops the top term of the result whenever
    an operand has a nonzero coefficient at index."""

    def wrong(p, q):
        out = product(p, q)
        if (dict(p.items()).get(index) or dict(q.items()).get(index)) and out:
            top, c = out.terms()[-1]
            out = out - type(out)({top: c})
        return out

    return wrong


ALGEBRAS = {
    "lemmas": (basis, mul, 2),
    "oracle": (eval_basis, lmul, 0),
}


@pytest.mark.parametrize("prefix", sorted(ALGEBRAS))
@pytest.mark.parametrize("bounds", [(3, 2), (5, 4), (2, 0)])
def test_sweep_matches_nested_loops(prefix, bounds):
    # a triple bound of 0 leaves index 1 out of the triple span
    B, product, _ = ALGEBRAS[prefix]
    got = _product_identities(prefix, B, product, *bounds)
    assert got == ref_product_identities(prefix, B, product, *bounds)
    assert all(r.passed for r in got)


@pytest.mark.parametrize("prefix", sorted(ALGEBRAS))
@pytest.mark.parametrize("bounds", [(3, 2), (5, 4)])
def test_sweep_reports_the_same_failures_for_a_wrong_product(prefix, bounds, monkeypatch):
    # record whole failure lists, not only the count and first witness
    monkeypatch.setattr(
        suites, "_exhaustive", lambda name, failures, total, scope: (name, failures, total)
    )
    B, product, index = ALGEBRAS[prefix]
    wrong = drops_top_term_at(index, product)
    got = _product_identities(prefix, B, wrong, *bounds)
    assert got == ref_product_identities(prefix, B, wrong, *bounds)
    # every identity family fails somewhere, but not everywhere
    assert all(0 < len(failures) < total for _, failures, total in got)


class Expr:
    """Symbolic operand standing for one product expression, by its key.

    Sums and differences return the left operand and every comparison
    holds, so a sweep over these runs through without a failure and its
    product calls are the whole record."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __add__(self, other):
        return self

    __sub__ = __add__

    def __eq__(self, other):
        return True

    def __ne__(self, other):
        return False

    __hash__ = None


def formed_products(sweep, pair_bound, triple_bound):
    """Keys of the products a sweep forms, in call order."""
    keys = []

    def product(p, q):
        keys.append((p.key, q.key))
        return Expr(keys[-1])

    sweep("symbolic", Expr, product, pair_bound, triple_bound)
    return keys


@pytest.mark.parametrize("bounds, formed, nested", [
    ((8, 6), 5332, 29717),
    ((5, 4), 1900, 9961),
    ((3, 2), 400, 1821),
    ((2, 0), 46, 113),
], ids=["8-6", "5-4", "3-2", "2-0"])
def test_sweep_forms_each_product_expression_once(bounds, formed, nested):
    keys = formed_products(_product_identities, *bounds)
    assert len(keys) == len(set(keys)) == formed
    # exactly the expressions the identities read, which the nested loops
    # form more than once
    reference = formed_products(ref_product_identities, *bounds)
    assert len(reference) == nested
    assert set(keys) == set(reference)


# Peak traced allocation of one sweep at bounds 8 and 6: 0.35 MB for
# (basis, mul) and 0.38 MB for (eval_basis, lmul) on CPython 3.11, and at
# most 0.36 and 0.38 MB on 3.10 to 3.13, against 1.5 and 1.8 MB if every
# triple row stayed alive.  The bound was set a third above an earlier
# 0.39 MB.
SWEEP_PEAK_BOUND = 520_000


@pytest.mark.parametrize("prefix", sorted(ALGEBRAS))
def test_sweep_keeps_few_rows_alive(prefix):
    B, product, _ = ALGEBRAS[prefix]
    tracemalloc.start()
    try:
        results = _product_identities(prefix, B, product, 8, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in results)
    assert peak < SWEEP_PEAK_BOUND


class Triple(Expr):
    """Symbolic triple product P(x, y)*B(z), counted while it is alive."""

    __slots__ = ()
    alive = peak = 0

    def __init__(self, key):
        super().__init__(key)
        Triple.alive += 1
        Triple.peak = max(Triple.peak, Triple.alive)

    def __del__(self):
        Triple.alive -= 1


# Most triple products alive at once in one sweep at bounds 8 and 6.  The
# count is exact, so the bound is the sweep's own count; a sweep that kept
# every row (x - 1, b) until triple-mixed at x is done would hold 364.
LIVE_TRIPLE_BOUND = 214


def test_sweep_drops_each_row_after_its_last_read():
    Triple.alive = Triple.peak = 0

    def product(p, q):
        # a pair product has two basis keys; its product with a basis
        # image is a triple, and any longer product is not counted
        key = (p.key, q.key)
        return Triple(key) if isinstance(p.key, tuple) and isinstance(p.key[0], int) else Expr(key)

    results = _product_identities("symbolic", Expr, product, 8, 6)
    assert all(r.passed for r in results)
    assert 0 < Triple.peak <= LIVE_TRIPLE_BOUND
    assert Triple.alive == 0


RAW_ROUTE = ("e0_raw", "e1_raw", "raw_element")


@pytest.mark.parametrize("argv, refused, checks", [
    (("--suite", "cone", "--n", "4"), RAW_ROUTE, 10),
    (("--suite", "shift", "--n", "4"), ("closed_witnesses",), 24),
    (("--suite", "lemmas,cross", "--n", "2"), RAW_ROUTE + ("closed_witnesses",), 5),
], ids=["cone", "shift", "lemmas-cross"])
def test_verify_suite_builds_only_the_route_it_checks(argv, refused, checks, capsys,
                                                      monkeypatch):
    # the cone suite reads the closed witnesses alone, the shift suite the
    # raw elements alone, and the lemma and cross suites neither
    def refuse(*args):
        raise RuntimeError("a refused route was built")

    for name in refused:
        monkeypatch.setattr(recurrence_engine, name, refuse)
        if hasattr(certifier, name):
            monkeypatch.setattr(certifier, name, refuse)
    assert main(["verify", *argv]) == 0
    assert f"{checks} checks, {checks} passed" in capsys.readouterr().out


SUITE_FUNCTIONS = {attr[len("suite_"):].replace("_", "-"): attr
                   for attr in dir(suites) if attr.startswith("suite_")}


def stub_every_suite(monkeypatch):
    """Replace each suite_* function by a stub that records its call;
    returns the list of the suite names called, in order."""
    called = []
    for name, attr in SUITE_FUNCTIONS.items():
        monkeypatch.setattr(suites, attr,
                            lambda *args, name=name: called.append(name) or [name])
    return called


def test_run_suites_reaches_every_suite_by_its_cli_name(monkeypatch):
    # a suite missing from the table, or from SUITE_NAMES, would drop out
    # of --suite all
    assert sorted(SUITE_FUNCTIONS) == sorted(SUITE_NAMES)
    called = stub_every_suite(monkeypatch)
    pairs = suites.run_suites(list(SUITE_NAMES), None, None)
    assert called == list(SUITE_NAMES)
    assert pairs == [(name, [name]) for name in SUITE_NAMES]


def test_run_suites_refuses_an_unknown_name_before_running_any(monkeypatch):
    called = stub_every_suite(monkeypatch)
    with pytest.raises(ValueError, match="'nope'"):
        suites.run_suites(["lemmas", "nope"], None, None)
    assert called == []


def test_decompose_roundtrip_recomposes_once_per_trial(monkeypatch):
    calls = []
    real = multiset_cone.ConeDecomposition.recompose

    def counted(self):
        # only the suite's own calls: random_cone_member recomposes as well
        if sys._getframe(1).f_code is suites.suite_multiset.__code__:
            calls.append(self)
        return real(self)

    monkeypatch.setattr(multiset_cone.ConeDecomposition, "recompose", counted)
    results = suites.suite_multiset(1, trials=30, seed=5)
    assert all(r.passed for r in results)
    assert len(calls) == 30
