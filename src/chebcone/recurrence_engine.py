"""Recurrences for the leading and penultimate-leading coefficient families.

Two families of module elements are computed per depth n: e0(n, i) for
the leading coefficients and e1(n, i) for the penultimate-leading ones,
with slot index i in {-1, 0, 1}.  Each family is computed two ways:

* raw: the recurrence exactly as printed, every right-hand occurrence
  read at depth n (the printed right-hand sides are self-referential at
  depth n+1, which would not terminate; reading them one level down
  matches the base cases and every downstream identity);
* closed: an integer multiset witness M(n, j) with to_tilde(M) equal to
  the i = 0 raw element.  closed_step forms the depth n+1 pair from the
  depth-n pair alone, by sumset-then-left-multiply expansions, and
  closed_witnesses, the route's one cache, applies it once per depth.

The structural identities tying the two routes together are checked by
the shift, cone and multiset suites of `verify`, which read these caches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .multiset_cone import IntegerMultiset, msum, to_tilde
from .tilde_ring import H1, TildeElement, _product, _symmetric_runs, basis, fold_L, mul, w0, w1

VALID_I = (-1, 0, 1)
VALID_J = (0, 1)


def cone_center(n: int, j: int) -> int:
    """Center of the cone the depth-n witness of order j lives in."""
    return 2 ** (n + 1) - j


def _check_indices(n: int, i: int, j: int) -> None:
    """Depth n >= 0, slot i in VALID_I and order j in VALID_J, or ValueError."""
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if j not in VALID_J:
        raise ValueError(f"order must be 0 or 1, got {j}")
    if i not in VALID_I:
        raise ValueError(f"slot must be -1, 0 or 1, got {i}")


@lru_cache(maxsize=None)
def e0_raw(n: int, i: int) -> TildeElement:
    """Leading-coefficient element at depth n, slot i, by the raw recurrence."""
    _check_indices(n, i, 0)
    if n == 0:
        return basis(2) if i == 0 else H1
    if i == -1:
        # slot -1 repeats the slot-1 lines plus an extra cubic term that
        # must come out as zero; it is kept literal rather than dropped
        return e0_raw(n, 1) + leading_extra_term(n - 1)
    e0 = e0_raw(n - 1, 0)
    e1 = e0_raw(n - 1, 1)
    if i == 0:
        return mul(e0, mul(e0, e0) - mul(e1, e1))
    e0e1 = mul(e0, e1)
    return mul(e1, mul(e0, e0)) + mul(e0, e0e1) - mul(e1, mul(H1, e0e1))


@lru_cache(maxsize=None)
def leading_extra_term(n: int) -> TildeElement:
    """The literal extra summand of the slot -1 leading recurrence at depth n."""
    em1 = e0_raw(n, -1)
    e1 = e0_raw(n, 1)
    return mul(em1, mul(em1, em1 - e1))


@lru_cache(maxsize=None)
def e1_raw(n: int, i: int) -> TildeElement:
    """Penultimate-leading element at depth n, slot i, by the raw recurrence."""
    _check_indices(n, i, 1)
    if n == 0:
        return basis(0) if i == -1 else TildeElement.zero()
    e0 = e0_raw(n - 1, 0)
    s0 = e0.shift(-1)
    p0 = e1_raw(n - 1, 0)
    if i == 0:
        return w0(e0, e0, p0 + s0) + w0(e0, p0, e0) + w0(p0, e0, e0)
    out = _penultimate_first_lines(n)
    if i == 1:
        return out + w1(p0, e0, e0)
    # slot -1: the first two lines of the slot-1 sum plus five further
    # summands written out term by term; two connectives restored as "+"
    pm1 = e1_raw(n - 1, -1)
    p1 = e1_raw(n - 1, 1)
    e0s0 = mul(e0, s0)
    out = out + mul(pm1, mul(e0, e0)) + mul(p0, e0s0)
    out = out - mul(pm1, mul(H1, e0s0))
    out = out + 2 * mul(s0, e0s0)
    out = out - mul(s0, mul(H1, mul(s0, s0)))
    out = out + mul(s0, mul(pm1 - p1, s0))
    return out


@lru_cache(maxsize=None)
def _penultimate_first_lines(n: int) -> TildeElement:
    """The first two lines of the slot-1 penultimate sum at depth n >= 1,
    which the slot -1 sum repeats."""
    e0 = e0_raw(n - 1, 0)
    p0 = e1_raw(n - 1, 0)
    return w1(e0, e0, p0 + e0.shift(-1)) + w1(e0, p0, e0)


def _left_expand(weights: IntegerMultiset,
                 *addends: IntegerMultiset) -> tuple[IntegerMultiset, ...]:
    """Multisets of fold_L(weights) acting on each addend, read as elements.

    Each folded coefficient d at index i contributes d copies of the
    sumset [-i, i] + addend: in all, the symmetric runs of the fold, as in
    ConeDecomposition.recompose, times addend; the runs are formed once
    for all addends.  A negative folded coefficient would contradict the
    positivity lemma and leave no multiset, so it is reported loudly.
    """
    folded = fold_L(weights).items()
    for i, d in folded:
        if d < 0:
            raise ValueError(f"negative folded weight {d} at h[{i}]: not a multiset")
    runs = _symmetric_runs(folded)
    return tuple(IntegerMultiset.from_counts(_product(runs, a._coeffs)) for a in addends)


def closed_step(m0: IntegerMultiset,
                m1: IntegerMultiset) -> tuple[IntegerMultiset, IntegerMultiset]:
    """The depth n+1 witness pair from the depth-n pair (m0, m1).

    The leading witness is m0 acting on m0 + m0.  The penultimate one is
    the union of m0 acting on m0 + (m0 - 1), twice m0 acting on m0 + m1,
    and m1 acting on m0 + m0; its first term is the new leading witness
    shifted by -1, since shifts commute with sumsets and the left action.
    """
    self_sum = msum(m0, m0)
    lead, cross = _left_expand(m0, self_sum, msum(m0, m1))
    (tail,) = _left_expand(m1, self_sum)
    return lead, lead.shift(-1) | (cross | cross) | tail


@lru_cache(maxsize=None)
def closed_witnesses(n: int) -> tuple[IntegerMultiset, IntegerMultiset]:
    """The depth-n witnesses of the slot-0 elements, indexed by order j:
    to_tilde of each is that element, and it lies in R(cone_center(n, j))."""
    _check_indices(n, 0, 0)
    if n == 0:
        return IntegerMultiset([2]), IntegerMultiset()
    return closed_step(*closed_witnesses(n - 1))


def e0_closed(n: int) -> IntegerMultiset:
    """The depth-n leading witness, in R(cone_center(n, 0))."""
    return closed_witnesses(n)[0]


def e1_closed(n: int) -> IntegerMultiset:
    """The depth-n penultimate-leading witness, in R(cone_center(n, 1))."""
    return closed_witnesses(n)[1]


def shift_ladder(pair: tuple[TildeElement, TildeElement], i: int, j: int) -> TildeElement:
    """Element of slot i and order j from the slot-0 pair (leading,
    penultimate): slot 1 of either order, and slot -1 of the leading one,
    is slot 0 shifted by -1; penultimate slot -1 adds the leading element
    shifted by -2.  The shift suite checks this ladder on the raw pair."""
    base = pair[j]
    if i == 0:
        return base
    if j == 0 or i == 1:
        return base.shift(-1)
    return base.shift(-1) + pair[0].shift(-2)


def closed_element(n: int, i: int, j: int) -> TildeElement:
    """Element of slot i derived from the closed witnesses via the shift ladder."""
    _check_indices(n, i, j)
    return shift_ladder(tuple(map(to_tilde, closed_witnesses(n))), i, j)


def raw_element(n: int, i: int, j: int) -> TildeElement:
    _check_indices(n, i, j)
    return e0_raw(n, i) if j == 0 else e1_raw(n, i)


class GrowthRow(NamedTuple):
    n: int
    j: int
    support_size: int
    min_index: int | None
    max_index: int | None
    mass: int


def growth_stats(n: int) -> tuple[GrowthRow, GrowthRow]:
    """Support and coefficient-mass statistics of the slot-0 elements at
    depth n, read from the closed witnesses."""
    return tuple(
        GrowthRow(n, j, m.support_size(), m.min_index(), m.max_index(), m.mass())
        for j, m in enumerate(closed_witnesses(n))
    )
