"""Recurrences for the leading and penultimate-leading coefficient families.

Two families of module elements are computed per depth n: e0(n, i) for
the leading coefficients and e1(n, i) for the penultimate-leading ones,
with slot index i in {-1, 0, 1}.  Each family is computed two ways:

* raw: the recurrence exactly as printed, every right-hand occurrence
  read at depth n (the printed right-hand sides are self-referential at
  depth n+1, which would not terminate; reading them one level down
  matches the base cases and every downstream identity);
* closed: an integer multiset witness M(n, j) with to_tilde(M) equal to
  the i = 0 raw element, which closed_witnesses expands from the small
  cores of factored_witnesses and the cofactor both witnesses share, the
  product of the squared leading witnesses below depth n.

The structural identities tying the two routes together are checked by
the shift, cone and multiset suites of `verify`, which read these caches.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .multiset_cone import IntegerMultiset, interval, to_tilde
from .tilde_ring import H1, TildeElement, _int, _symmetric_runs, basis, fold_L, mul, w0, w1

VALID_I = (-1, 0, 1)
VALID_J = (0, 1)


def cone_center(n: int, j: int) -> int:
    """Center of the cone the depth-n witness of order j lives in."""
    return 2 ** (n + 1) - j


def _check_indices(n: int, i: int, j: int) -> None:
    """Int depth n >= 0, slot i in VALID_I and order j in VALID_J, or TypeError
    (a float or bool would share its int's cache key), then ValueError."""
    n, i, j = map(_int, (n, i, j))
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
    e0 = e0_raw(n - 1, 0)
    e1 = e0_raw(n - 1, 1)
    if i == -1:
        # slot 1 plus an extra cubic term, kept literal rather than dropped:
        # it must be zero, and the shift suite checks slot -1 minus slot 1
        em1 = e0_raw(n - 1, -1)
        return e0_raw(n, 1) + mul(em1, mul(em1, em1 - e1))
    if i == 0:
        return mul(e0, mul(e0, e0) - mul(e1, e1))
    e0e1 = mul(e0, e1)
    return mul(e1, mul(e0, e0)) + mul(e0, e0e1) - mul(e1, mul(H1, e0e1))


@lru_cache(maxsize=None)
def e1_raw(n: int, i: int) -> TildeElement:
    """Penultimate-leading element at depth n, slot i, by the raw recurrence."""
    _check_indices(n, i, 1)
    if n == 0:
        return basis(0) if i == -1 else TildeElement()
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


def _multiset_kernel(m: IntegerMultiset) -> IntegerMultiset:
    """The shift kernel of m, the symmetric runs of fold_L(m), as a multiset;
    a negative folded weight leaves none, and its lowest index is reported."""
    folded = fold_L(m).terms()
    for i, d in folded:
        if d < 0:
            raise ValueError(f"negative folded weight {d} at h[{i}]: not a multiset")
    return IntegerMultiset.from_counts(_symmetric_runs(folded))


@lru_cache(maxsize=None)
def factored_witnesses(n: int) -> tuple[IntegerMultiset, IntegerMultiset]:
    """The cores (V_n, C_n) of the depth-n witnesses, stepped from V_0 = {0}
    and an empty C_0 without their cofactor; closed_witnesses expands them
    and proves the step."""
    _check_indices(n, 0, 0)
    if n == 0:
        return IntegerMultiset([0]), IntegerMultiset()
    v, core = factored_witnesses(n - 1)
    c = cone_center(n - 1, 0)
    u = interval(-c, c)
    uv, uc = u + v, u + core
    return uv, uv.shift(2 * c - 1) | (uc | uc).shift(c) | _multiset_kernel(core).shift(2 * c)


@lru_cache(maxsize=None)
def closed_witnesses(n: int) -> tuple[IntegerMultiset, IntegerMultiset]:
    """The depth-n witnesses (L_n, P_n) of the slot-0 elements, indexed by
    order j: to_tilde of each is that element, in R(cone_center(n, j)).

    Read a multiset as the Laurent polynomial sum of mult(v)*x^v, so a
    sumset is a product and a union a sum; U_m = x^-m + x^(-m+2) + ... + x^m
    is interval(-m, m).  For c = 2^(n+1), the cores (V_n, C_n) and the
    cofactor G_n = prod_(k<n) (x^(-2^(k+1))*L_k)^2, formed here from the
    cached L_k and kept by no cache: L_n = x^c*G_n*V_n, P_n = G_n*C_n.

    1. A multiset a acts as K_a = (x*a(x) - a(1/x)/x) / (x - 1/x), its shift
       kernel, so K_(x^c) = U_c, and K_(F*A) = F*K_A if F(1/x) = F(x), as
       for G_n and V_n, products of U's.
    2. Depth n+1 is L' = K_L*L^2 and P' = L'/x + 2*K_L*L*P + K_P*L^2 at
       L = L_n, P = P_n, with K_L = U_c*G_n*V_n and K_P = G_n*K_(C_n) by 1.
       So L' = x^(2c)*G_(n+1)*V_(n+1) for G_(n+1) = G_n*(x^-c*L)^2 and
       V_(n+1) = U_c*V_n, and P' = G_(n+1)*C_(n+1) for the parts
       x^(2c-1)*U_c*V_n, 2*x^c*U_c*C_n and x^(2c)*K_(C_n) of C_(n+1).
       So L_n = x^c*prod_(k=1..n) U_(2^k)^(3^(n-k)).
    3. Each U_m lies in R(0), and a sumset of members of R(a) and R(b) lies
       in R(a + b) (multiset/cone-sum), so G_n and V_n lie in R(0) and L_n
       in R(c).  C_0 lies in R(1).  If C_n lies in R(c - 1), it folds to
       non-negative weights (check_positivity_implication), so K_(C_n) is
       a union of intervals about 0, and the three parts lie in R(2c - 1),
       R(2c - 1) and R(2c), inside R(2c - 1).  So C_n and P_n lie in
       R(c - 1) at every depth, and _multiset_kernel never raises for C_n.
    """
    _check_indices(n, 0, 0)
    g = IntegerMultiset([0])
    for k in range(n):
        a = closed_witnesses(k)[0].shift(-cone_center(k, 0))
        g = g + (a + a)
    v, core = factored_witnesses(n)
    return (g + v).shift(cone_center(n, 0)), g + core


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
