"""Named verification suites behind the `verify` command.

Every suite builds its own list of CheckResult records, reading the
recurrence engine's caches for the family elements; nothing raises on a
failed identity, and run_suites, the one fault boundary, makes a
ValueError that escapes a suite its one <suite>/fault record, so a run
always reports in full.  The draws (random_element, random_cone_member)
take a Random seeded with the user seed and the suite label, so reports
are byte-reproducible; cross_check is where kernel and oracle meet.
"""

from __future__ import annotations

import random
from collections import defaultdict
from functools import lru_cache
from typing import NamedTuple

from . import laurent_oracle as oracle
from . import multiset_cone as mc
from . import recurrence_engine as engine
from .certifier import certify_cone, certify_positivity, check_positivity_implication
from .tilde_ring import TildeElement, basis, fold_L, mul, w0, w1

DEFAULT_DEPTH = 3
DEFAULT_TRIALS = 200
DEFAULT_CROSS_TRIALS = 500
DEFAULT_PAIR_BOUND = 8
DEFAULT_TRIPLE_BOUND = 6


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def random_element(
    rng: random.Random,
    span: int = 6,
    coeff_bound: int = 3,
    density: float = 0.4,
) -> TildeElement:
    """Seeded random element with support in [-span, span].

    Each index independently receives a coefficient in
    [-coeff_bound, coeff_bound] with the given density, else zero.
    """
    acc = {}
    for j in range(-span, span + 1):
        if rng.random() < density:
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                acc[j] = c
    return TildeElement(acc)


def random_cone_member(rng: random.Random, c: int) -> mc.IntegerMultiset:
    """Seeded random cone member, valid by construction.

    Draws up to 4 values in [c, c+10] and up to 4 radii in [1, 6], then
    recomposes.
    """
    singles: dict[int, int] = {}
    for _ in range(rng.randint(0, 4)):
        v = rng.randint(c, c + 10)
        singles[v] = singles.get(v, 0) + 1
    radii: dict[int, int] = {}
    for _ in range(rng.randint(0, 4)):
        r = rng.randint(1, 6)
        radii[r] = radii.get(r, 0) + 1
    decomp = mc.ConeDecomposition(
        center=c,
        singletons=tuple(sorted(singles.items())),
        radii=tuple(sorted(radii.items())),
    )
    return decomp.recompose()


def _exhaustive(name: str, failures: list, total: int, scope: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, f"{len(failures)} of {total} failed, first at {failures[0]}")
    return CheckResult(name, True, f"{scope}, {total} cases")


def _agreement(name: str, lhs: TildeElement, rhs: TildeElement) -> CheckResult:
    """Whether two elements are equal, with the head of their difference if not."""
    if lhs == rhs:
        return CheckResult(name, True)
    d = lhs - rhs
    return CheckResult(name, False, f"difference has {d.support_size()} terms, "
                                    f"first {d.terms()[:4]}")


def _product_identities(prefix: str, basis_of, product, pair_bound: int,
                        triple_bound: int) -> list[CheckResult]:
    """Exhaustive two- and three-factor product identities on basis images.

    The same sweep checks the module (basis, mul) and the oracle
    (eval_basis, lmul).  Products stay grouped left to right, as
    displayed, since mul is not commutative.  Each product expression
    the identities read is formed once: 5,332 products at bounds 8 and
    6, where the identities written as nested loops make 29,717.  The
    pair products P(a, b) = B(a)*B(b) sit in one table.  The triple
    products R(x, y, z) = P(x, y)*B(z) are formed when an identity first
    reads them, into rows keyed by x and y.  For each x, triple-mixed at
    a1 = x reads the rows of x and x - 1, then triple-sum at b = x reads
    the rows of x.  A row (x - 1, b) is read for the last time at b and
    dropped there, except row (x - 1, 1), which holds the first three
    factors of every four-factor term; the rest of x - 1 goes once
    triple-mixed at x is done.  The triple identities run first, so that
    their rows are gone before the pair identities add the rest of the
    table.
    """
    B = lru_cache(maxsize=None)(basis_of)
    P = lru_cache(maxsize=None)(lambda a, b: product(B(a), B(b)))
    rows = defaultdict(lambda: defaultdict(dict))  # rows[x][y][z] = R(x, y, z)

    def R(x, y, z):
        row = rows[x][y]
        if z not in row:
            row[z] = product(P(x, y), B(z))
        return row[z]

    span3 = range(-triple_bound, triple_bound + 1)
    bad_t_sum, bad_t_mixed = [], []
    for x in span3:
        for b in span3:  # triple-mixed at (a1, a2, b) = (x, a2, b)
            for a2 in span3:
                mixed = R(x, b, a2 - 1) + R(x - 1, b, a2) - product(R(x - 1, 1, b), B(a2 - 1))
                if mixed != P(b, x + a2 - 1):
                    bad_t_mixed.append((x, a2, b))
            if b != 1:
                del rows[x - 1][b]
        del rows[x - 1]
        for a1 in span3:  # triple-sum at (a1, a2, b) = (a1, a2, x)
            for a2 in span3:
                if R(x, a1, a2) - R(x, a1 - 1, a2 - 1) != P(x, a1 + a2):
                    bad_t_sum.append((a1, a2, x))
    rows.clear()
    # into (b, a1, a2) order, that of the nested loops the identities are written as
    bad_t_mixed.sort(key=lambda f: (f[2], f[0], f[1]))

    span = range(-pair_bound, pair_bound + 1)
    bad_sum, bad_diff = [], []
    for a in span:
        for b in span:
            ab = P(a, b)
            if ab - P(a - 1, b - 1) != B(a + b):
                bad_sum.append((a, b))
            if ab - P(a - 1, b + 1) != B(b - a):
                bad_diff.append((a, b))
    total = len(span) ** 2
    scope = f"A,B in [{-pair_bound},{pair_bound}]"
    total3 = len(span3) ** 3
    scope3 = f"A1,A2,B in [{-triple_bound},{triple_bound}]"
    return [
        _exhaustive(f"{prefix}/pair-sum", bad_sum, total, scope),
        _exhaustive(f"{prefix}/pair-diff", bad_diff, total, scope),
        _exhaustive(f"{prefix}/triple-sum", bad_t_sum, total3, scope3),
        _exhaustive(f"{prefix}/triple-mixed", bad_t_mixed, total3, scope3),
    ]


def suite_lemmas() -> list[CheckResult]:
    """Exhaustive two- and three-factor product identities on basis symbols."""
    return _product_identities("lemmas", basis, mul, DEFAULT_PAIR_BOUND, DEFAULT_TRIPLE_BOUND)


def suite_w_theorem(trials: int = DEFAULT_TRIALS, seed: int = 0) -> list[CheckResult]:
    """w1 equals the downward shift of w0 on seeded random triples."""
    rng = _rng(seed, "w-theorem")
    bad_shift, bad_assoc = [], []
    for t in range(trials):
        g1, g2, g3 = (random_element(rng) for _ in range(3))
        if w1(g1, g2, g3) != w0(g1, g2, g3).shift(-1):
            bad_shift.append(t)
        if mul(mul(g1, g2), g3) != mul(g1, mul(g2, g3)):
            bad_assoc.append(t)
    return [
        _exhaustive("w-theorem/shift-identity", bad_shift, trials, "random triples"),
        _exhaustive(
            "w-theorem/associativity-empirical", bad_assoc, trials, "random triples"
        ),
    ]


def suite_multiset(depth: int = DEFAULT_DEPTH, trials: int = DEFAULT_TRIALS,
                   seed: int = 0) -> list[CheckResult]:
    """Multiset-calculus lemmas on seeded random instances, plus the
    raw-versus-closed agreement of both recurrence families at every
    depth up to `depth`."""
    results = []
    rng = _rng(seed, "multiset")

    bad = []
    for t in range(trials):
        a1 = rng.randint(-8, 8)
        b1 = a1 + 2 * rng.randint(0, 6)
        a2 = rng.randint(-8, 8)
        b2 = a2 + 2 * rng.randint(0, 6)
        parts = mc.interval_sum_decompose(a1, b1, a2, b2)
        rebuilt = mc.IntegerMultiset()
        for lo, hi in parts:
            rebuilt |= mc.interval(lo, hi)
        if rebuilt != mc.msum(mc.interval(a1, b1), mc.interval(a2, b2)):
            bad.append((t, (a1, b1, a2, b2)))
    results.append(_exhaustive("multiset/interval-sum-decompose", bad, trials, "random interval pairs"))

    bad = []
    for t in range(trials):
        c1, c2 = rng.randint(-3, 6), rng.randint(-3, 6)
        m1 = random_cone_member(rng, c1)
        m2 = random_cone_member(rng, c2)
        if not mc.in_cone(mc.msum(m1, m2), c1 + c2):
            bad.append((t, (c1, c2)))
    results.append(_exhaustive("multiset/cone-sum", bad, trials, "random cone pairs"))

    bad = []
    for t in range(trials):
        c = rng.randint(-3, 6)
        m = random_cone_member(rng, c + 1)
        if not (mc.in_cone(m, c + 1) and mc.in_cone(m, c)):
            bad.append((t, c))
    results.append(_exhaustive("multiset/cone-subset", bad, trials, "random members"))

    bad = []
    for t in range(trials):
        c = rng.randint(-3, 6)
        i = rng.randint(0, 6)
        m = random_cone_member(rng, c)
        summed = mc.msum(mc.interval(-i, i), m)
        if mc.to_tilde(summed) != mul(basis(i), mc.to_tilde(m)):
            bad.append((t, (i, c)))
        elif m and not mc.in_cone(summed, c):
            bad.append((t, (i, c)))
    results.append(_exhaustive("multiset/left-action", bad, trials, "random members"))

    bad = []
    for t in range(trials):
        c = rng.randint(0, 6)
        m = random_cone_member(rng, c)
        if not fold_L(mc.to_tilde(m)).all_nonnegative():
            bad.append((t, c))
    results.append(_exhaustive("multiset/fold-positivity", bad, trials, "random members, c >= 0"))

    bad = []
    for t in range(trials):
        c = rng.randint(-3, 6)
        m = random_cone_member(rng, c)
        d = mc.decompose_cone(m, c)
        rebuilt = d.recompose()
        if rebuilt != m or mc.decompose_cone(rebuilt, c) != d:
            bad.append((t, c))
    results.append(_exhaustive("multiset/decompose-roundtrip", bad, trials, "random members"))

    for n in range(depth + 1):
        for j, m in enumerate(engine.closed_witnesses(n)):
            results.append(_agreement(f"closed/raw-equals-closed(n={n},j={j})",
                                      engine.raw_element(n, 0, j), mc.to_tilde(m)))
    return results


def suite_cone(depth: int = DEFAULT_DEPTH) -> list[CheckResult]:
    """Cone membership of both witness families at every depth up to
    `depth`, each read from its cone certificate, which must recompose."""
    results = []
    for n in range(depth + 1):
        for j in engine.VALID_J:
            name = f"cone/membership(n={n},j={j})"
            try:
                cert = certify_cone(n, j)
            except mc.ConeMembershipError as exc:
                results.append(CheckResult(name, False, f"not in R({exc.center})"))
                continue
            c, ok = cert.center, cert.recomposition_ok
            detail = (f"center {c}, decomposition recomposes" if ok
                      else f"decomposition at center {c} does not recompose")
            results.append(CheckResult(name, ok, detail))
    return results


def suite_shift(depth: int = DEFAULT_DEPTH) -> list[CheckResult]:
    """The shift ladder closed_element applies, checked on both raw families
    at every depth up to `depth`: slots 1 and -1 against the ladder of the
    slot-0 pair, plus the vanishing of the literal extra term of the slot -1
    leading recurrence at the depths that feed them."""
    results = []
    for n in range(depth + 1):
        pair = (engine.e0_raw(n, 0), engine.e1_raw(n, 0))
        for j, family in enumerate(("leading", "penultimate")):
            for i in (1, -1):
                results.append(_agreement(f"shift/{family}-slot{i}(n={n})",
                                          engine.raw_element(n, i, j),
                                          engine.shift_ladder(pair, i, j)))
        if n < depth:
            extra = engine.leading_extra_term(n)
            results.append(CheckResult(f"shift/extra-term-zero(n={n})", extra.is_zero(),
                                       "" if extra.is_zero() else f"extra term nonzero: {extra}"))
    return results


def suite_positivity(depth: int = DEFAULT_DEPTH) -> list[CheckResult]:
    """Every folded coefficient of every family element is non-negative, and
    the cone certificate of each (n, j) implies it."""
    results = []
    for n in range(depth + 1):
        for j in engine.VALID_J:
            pos_certs = [certify_positivity(n, i, j) for i in engine.VALID_I]
            for pc in pos_certs:
                results.append(
                    CheckResult(
                        f"positivity/nonnegative(n={n},i={pc.i},j={j})",
                        pc.all_nonnegative,
                        f"{len(pc.coefficients)} coefficients, cone bound {pc.cone_bound}",
                    )
                )
            name = f"positivity/cone-implication(n={n},j={j})"
            try:
                cone_cert = certify_cone(n, j)
            except mc.ConeMembershipError as exc:
                results.append(CheckResult(name, False, f"not in R({exc.center})"))
                continue
            results.append(CheckResult(name, check_positivity_implication(cone_cert, pos_certs),
                                       f"center {cone_cert.center}"))
    return results


def cross_check(g1: TildeElement, g2: TildeElement) -> bool:
    """Evaluation must turn the module product into the convolution product."""
    return oracle.evaluate(mul(g1, g2)) == oracle.lmul(oracle.evaluate(g1), oracle.evaluate(g2))


def suite_cross(trials: int = DEFAULT_CROSS_TRIALS, seed: int = 0) -> list[CheckResult]:
    """Evaluation is multiplicative on seeded random element pairs."""
    rng = _rng(seed, "cross")
    bad = [t for t in range(trials)
           if not cross_check(random_element(rng), random_element(rng))]
    return [_exhaustive("cross/multiplicative", bad, trials, "random pairs")]


def suite_oracle(depth: int = DEFAULT_DEPTH, trials: int = DEFAULT_TRIALS,
                 seed: int = 0) -> list[CheckResult]:
    """Re-verification of the product identities inside the commutative
    oracle algebra, plus palindromicity, the t = 1 mass identity and the
    max-index growth law."""
    results = _product_identities("oracle", oracle.eval_basis, oracle.lmul,
                                  DEFAULT_PAIR_BOUND, DEFAULT_TRIPLE_BOUND)

    rng = _rng(seed, "oracle")
    bad_w, bad_pal = [], []
    for t in range(trials):
        g1, g2, g3 = (random_element(rng) for _ in range(3))
        lhs = oracle.evaluate(w1(g1, g2, g3))
        rhs = oracle.evaluate(w0(g1, g2, g3).shift(-1))
        if lhs != rhs:
            bad_w.append(t)
        if not oracle.evaluate(g1).is_palindromic():
            bad_pal.append(t)
    results.append(_exhaustive("oracle/w-shift-evaluated", bad_w, trials, "random triples"))

    for n in range(depth + 1):
        for j in engine.VALID_J:
            if not oracle.evaluate(engine.raw_element(n, 0, j)).is_palindromic():
                bad_pal.append(f"family(n={n},j={j})")
    results.append(
        _exhaustive("oracle/palindromic", bad_pal, trials, "random and family elements")
    )

    bad_mass = []
    for n in range(depth + 1):
        g = engine.e0_raw(n, 0)
        if oracle.evaluate(g).at_one() != oracle.weighted_mass(g):
            bad_mass.append(n)
    results.append(
        _exhaustive("oracle/weighted-mass-at-one", bad_mass, depth + 1, "leading family")
    )

    bad_max = []
    for n in range(1, depth + 1):
        if engine.e0_closed(n).max_index() != 2 * 3**n:
            bad_max.append(n)
    results.append(
        _exhaustive("oracle/max-index-law", bad_max, depth, "max index equals 2*3^n")
    )
    return results


def run_suites(names: list[str], depth: int | None, trials: int | None,
               seed: int = 0) -> list[tuple[str, list[CheckResult]]]:
    """Run the named suites with shared defaults and return (name, results)
    pairs.  `depth` is the recurrence depth only: the lemma sweep always
    runs at its default bounds."""
    d = DEFAULT_DEPTH if depth is None else depth
    t, cross_t = (DEFAULT_TRIALS, DEFAULT_CROSS_TRIALS) if trials is None else (trials, trials)
    run = {
        "lemmas": suite_lemmas,
        "w-theorem": lambda: suite_w_theorem(t, seed),
        "multiset": lambda: suite_multiset(d, t, seed),
        "cone": lambda: suite_cone(d),
        "shift": lambda: suite_shift(d),
        "positivity": lambda: suite_positivity(d),
        "cross": lambda: suite_cross(cross_t, seed),
        "oracle": lambda: suite_oracle(d, t, seed),
    }
    unknown = [name for name in names if name not in run]
    if unknown:
        raise ValueError(f"unknown suite(s) {', '.join(map(repr, unknown))}")

    def results(name: str) -> list[CheckResult]:
        try:
            return run[name]()
        except ValueError as exc:
            return [CheckResult(f"{name}/fault", False, str(exc))]
    return [(name, results(name)) for name in names]
