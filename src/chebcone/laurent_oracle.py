"""Independent evaluation oracle over integer Laurent polynomials.

Basis symbols map to the classical one-variable images U(i) with
U(i) = t^i + t^(i-2) + ... + t^-i for i >= 0, U(-1) = 0 and
U(i) = -U(-i-2) below that.  The oracle algebra is commutative and its
one product, lmul(p, q), is a plain convolution, computed by a code path
that shares nothing with the formal kernel; agreement between the two is
the argument that neither hides a matching bug.  LaurentPoly keeps only
the arithmetic verify reads (+, -, ==); LaurentPoly() is zero.
Evaluation has a kernel (for instance h~[0] + h~[-2] maps to zero), so
oracle agreement is necessary but not sufficient: the formal checks stay
primary.
"""

from __future__ import annotations

from typing import ItemsView, Mapping

from .tilde_ring import TildeElement, mul


class LaurentPoly:
    """Sparse integer Laurent polynomial in one variable t.

    The constructor drops zero coefficients from its input; the oracle's
    own results, which it builds free of zeros, go through _from_nonzero.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None) -> None:
        data: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                if c:
                    data[e] = c
        self._coeffs = data

    def items(self) -> ItemsView[int, int]:
        """Read-only (exponent, coefficient) view; sized and re-iterable."""
        return self._coeffs.items()

    def terms(self) -> list[tuple[int, int]]:
        return sorted(self._coeffs.items())

    def mirror(self) -> "LaurentPoly":
        """Substitute 1/t for t."""
        return _from_nonzero({-e: c for e, c in self._coeffs.items()})

    def is_palindromic(self) -> bool:
        return self.mirror() == self

    def at_one(self) -> int:
        """Value at t = 1: the plain coefficient sum."""
        return sum(self._coeffs.values())

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, each cancelled exponent dropped in place."""
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc = dict(self._coeffs)
        for e, c in other._coeffs.items():
            c = acc.get(e, 0) + sign * c
            if c:
                acc[e] = c
            else:
                del acc[e]  # present, since other holds no zero coefficient
        return _from_nonzero(acc)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LaurentPoly(0)"
        body = " + ".join(f"{c}*t^{e}" for e, c in self.terms())
        return f"LaurentPoly({body})"


def _from_nonzero(coeffs: dict[int, int]) -> LaurentPoly:
    """LaurentPoly that takes coeffs as its storage, unfiltered: coeffs
    must hold no zero coefficient, and no one else may keep it."""
    poly = object.__new__(LaurentPoly)
    poly._coeffs = coeffs
    return poly


def lmul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Convolution product; commutative and associative."""
    acc: dict[int, int] = {}
    q_items = q.items()
    for e1, c1 in p.items():
        for e2, c2 in q_items:
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2
    return _from_nonzero({e: c for e, c in acc.items() if c})


def eval_basis(i: int) -> LaurentPoly:
    """Image of the basis symbol with index i."""
    return evaluate(TildeElement({i: 1}))


def evaluate(g: TildeElement) -> LaurentPoly:
    """Linear extension of the basis images U(i) to whole elements."""
    acc: dict[int, int] = {}
    for j, c in g.items():
        if j < -1:  # U(j) = -U(-j-2)
            j, c = -j - 2, -c
        for e in range(j, -j - 1, -2):
            acc[e] = acc.get(e, 0) + c
    return _from_nonzero({e: c for e, c in acc.items() if c})


def weighted_mass(g: TildeElement) -> int:
    """Sum of coefficient times (index + 1); equals evaluate(g) at t = 1."""
    return sum(c * (j + 1) for j, c in g.items())


def cross_check(g1: TildeElement, g2: TildeElement) -> bool:
    """Evaluation must turn the module product into the convolution product."""
    return evaluate(mul(g1, g2)) == lmul(evaluate(g1), evaluate(g2))
