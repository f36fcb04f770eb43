"""Integer multiset calculus: sumsets, even-step intervals, and the
profile cone with its certificate decompositions.

A multiset here is a finitely supported multiplicity function from the
integers to the non-negative integers.  The cone R(c) collects the
multisets that decompose as singletons at or above the center c plus
even-step intervals symmetric about c; membership is equivalent to a
profile condition checked per parity class (see in_cone).
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, NamedTuple

from .tilde_ring import SparseVector, TildeElement, _int, _product, _symmetric_runs, _wrap


class IntegerMultiset(SparseVector):
    """Finite multiset of integers, stored as {value: multiplicity}.

    Built from its elements, or by from_counts from checked counts;
    multiplicities are exact ints, never expanded element by element.
    `+` is the sumset, `|` the union and shift the translation, as on
    TildeElement; there is no difference or negation.
    """

    __slots__ = ()

    def __init__(self, elements: Iterable[int] = ()) -> None:
        if isinstance(elements, Mapping):  # Counter would take it as unchecked counts
            raise TypeError("IntegerMultiset takes elements; use from_counts for a mapping")
        self._coeffs = dict(Counter(map(_int, elements)))

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "IntegerMultiset":
        for x, c in counts.items():
            _int(x)
            if _int(c) < 0:
                raise ValueError(f"negative multiplicity {c} at {x}")
        return _wrap(cls, {x: c for x, c in counts.items() if c})

    __or__ = SparseVector.__add__  # the union; + is the sumset
    __sub__ = None  # multiplicities are never negative

    def shift(self, k: int) -> "IntegerMultiset":
        """Add k to every element."""
        return _wrap(IntegerMultiset, {x + k: c for x, c in self._coeffs.items()})

    def __add__(self, other: "IntegerMultiset") -> "IntegerMultiset":
        return msum(self, other)

    def __repr__(self) -> str:
        inner = ", ".join(f"{x}: {c}" for x, c in self.terms())
        return "IntegerMultiset{" + inner + "}"

    __str__ = __repr__


def interval(a: int, b: int) -> IntegerMultiset:
    """The even-step multiset {a, a+2, ..., b}; a and b must share parity."""
    if a > b:
        raise ValueError(f"interval endpoints out of order: [{a}, {b}]")
    if (b - a) % 2 != 0:
        raise ValueError(f"interval endpoints differ in parity: [{a}, {b}]")
    return IntegerMultiset.from_counts({x: 1 for x in range(a, b + 1, 2)})


def msum(m1: IntegerMultiset, m2: IntegerMultiset) -> IntegerMultiset:
    """Multiset sum: all pairwise element sums, multiplicities convolved.
    Products of positive multiplicities are positive, and _product drops
    every zero, so the result needs no check."""
    return _wrap(IntegerMultiset, _product(m1._coeffs, m2._coeffs))


def interval_sum_decompose(a1: int, b1: int, a2: int, b2: int) -> list[tuple[int, int]]:
    """Write the sum of two even-step intervals as a union of intervals.

    Returns the endpoint pairs [a1+a2+2j, b1+b2-2j] for j from 0 up to
    half the shorter length; their union equals the multiset sum.
    """
    interval(a1, b1)
    interval(a2, b2)
    half = min(b1 - a1, b2 - a2) // 2
    return [(a1 + a2 + 2 * j, b1 + b2 - 2 * j) for j in range(half + 1)]


def in_cone(m: IntegerMultiset, c: int) -> bool:
    """Membership in the cone centered at c.

    True iff for every i >= 0 the multiplicity at c-i-2 is at most the
    multiplicity at c-i, which is at most the multiplicity at c+i.
    Equivalently, m is a union of singletons at or above c and even-step
    intervals [c-n, c+n]; the verdict is whether decompose_cone, whose
    sweep tests that profile, produces that form.
    """
    try:
        decompose_cone(m, c)
    except ConeMembershipError:
        return False
    return True


class ConeMembershipError(ValueError):
    """Raised when a multiset is not in the cone a caller asserted."""

    def __init__(self, center: int, offset: int, detail: str) -> None:
        super().__init__(f"not in cone R({center}): at offset {offset}, {detail}")
        self.center = center
        self.offset = offset
        self.detail = detail


class _ConeParts(NamedTuple):
    center: int
    singletons: tuple[tuple[int, int], ...]
    radii: tuple[tuple[int, int], ...]


class ConeDecomposition(_ConeParts):
    """Certificate that a multiset lies in the cone centered at `center`.

    Parts are stored with multiplicities since counts can be astronomically
    large: `singletons` holds (value, count) pairs with value >= center,
    `radii` holds (radius, count) pairs with radius >= 1.  Recomposition
    unions count copies of {value} and of [center-radius, center+radius].
    Every construction checks these constraints, `_replace` included.
    """

    __slots__ = ()

    def __new__(cls, center: int, singletons: tuple[tuple[int, int], ...],
                radii: tuple[tuple[int, int], ...]) -> ConeDecomposition:
        for v, cnt in singletons:
            if v < center:
                raise ValueError(f"singleton {v} below center {center}")
            if cnt <= 0:
                raise ValueError(f"non-positive singleton count {cnt}")
        for r, cnt in radii:
            if r < 1:
                raise ValueError(f"interval radius must be >= 1, got {r}")
            if cnt <= 0:
                raise ValueError(f"non-positive radius count {cnt}")
        return super().__new__(cls, center, singletons, radii)

    # the inherited _make, which _replace calls, would bypass __new__
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def recompose(self) -> IntegerMultiset:
        """Union of the parts.  The intervals of radius >= k cover c - k and
        c + k once each, so coverage is the symmetric runs of the radius
        counts, one suffix sum per parity, shifted by the center c."""
        c = self.center
        acc = {c + k: cnt for k, cnt in _symmetric_runs(self.radii).items()}
        for v, cnt in self.singletons:
            acc[v] = acc.get(v, 0) + cnt
        return IntegerMultiset.from_counts(acc)


def decompose_cone(m: IntegerMultiset, c: int) -> ConeDecomposition:
    """Canonical cone certificate for m at center c, from one sweep.

    At each offset i from 0 to c - min(m), along each parity class, the
    sweep tests the profile mult(c-i-2) <= mult(c-i) <= mult(c+i) and
    raises ConeMembershipError with the offset and the failing pair if
    it does not hold; past that offset both left multiplicities are zero,
    so neither inequality can fail.  Intervals are the only parts
    reaching below c, which makes the decomposition unique: those of
    radius >= i and of the parity of i number mult(c-i), so the exact
    radius-i count is mult(c-i) - mult(c-i-2).  They cover c + i
    mult(c-i) times for i >= 1 and c mult(c-2) times, and what they leave
    is the singleton count.  Values past the sweep are singletons as
    they stand.
    """
    counts = m._coeffs
    mult = counts.get
    top = c - min(counts) if counts else -1
    radii, singles = [], []
    for i in range(top + 1):
        left_outer = mult(c - i - 2, 0)
        left_inner = mult(c - i, 0)
        right = mult(c + i, 0)
        if left_outer > left_inner:
            raise ConeMembershipError(
                c, i, f"mult({c - i - 2})={left_outer} > mult({c - i})={left_inner}")
        if left_inner > right:
            raise ConeMembershipError(c, i, f"mult({c - i})={left_inner} > mult({c + i})={right}")
        if i == 0:
            residue = right - left_outer
        else:
            if left_inner > left_outer:
                radii.append((i, left_inner - left_outer))
            residue = right - left_inner
        if residue:
            singles.append((c + i, residue))
    singles.extend((x, cnt) for x, cnt in m.terms() if x > c + top)
    return ConeDecomposition(center=c, singletons=tuple(singles), radii=tuple(radii))


def to_tilde(m: IntegerMultiset) -> TildeElement:
    """Multiplicity function read as coefficients of h~ basis symbols."""
    return _wrap(TildeElement, dict(m.items()))
