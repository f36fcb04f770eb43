"""Sparse exact arithmetic for the shift-basis module and its folded image.

Elements are finitely supported integer combinations of basis symbols
h~[j], with j ranging over all integers.  The companion type ChElement
holds combinations of h[i] with i >= 0 only.  The fold map sends h~[i]
to h[i] for i >= 0, kills h~[-1], and sends h~[i] to -h[-i-2] for
i < -1.  The product on the h~ side is defined by folding the left
factor and letting each h[i] act as the operator sum of the index
shifts by -i, -i+2, ..., i; it is linear in both slots and, although
nothing here relies on it, empirically associative.

Reading h~[j] as x^j, the shifts of h[i] sum to the Chebyshev-U run
x^-i + x^(-i+2) + ... + x^i, so mul(g1, g2) = K * g2 for the shift kernel
K of the left factor: the sum of the runs of its fold, weighted by the
folded coefficients.  Per parity, the coefficient of K at -k and at k is
the sum of the folded coefficients at i >= k, one suffix sum, the rule by
which a cone decomposition recomposes.  _symmetric_runs forms every such
sum, and _kernel applies it to the fold; the left factor keeps K as a
dict.  A one-term g2 = d * h~[j] gives K shifted by j, times d.

Every other product is one product of two plain {exponent: coefficient}
maps, by _product: K and g2 for mul, and two multisets for the multiset
sum, which forms every product of the closed route, never through mul.
From MIN_TERM_OPS term products on it is one big-int multiply by
Kronecker substitution (Schoenhage 1982; Harvey, arXiv:0712.4046): each
map is packed into one integer with a field of fixed width per exponent
step, 8-byte words by struct while the slot bound fits 64 bits and whole
bytes above that, and one field mask per product offsets every field.
Smaller products are the double loop.

Both element types, and the multisets of multiset_cone, derive from
SparseVector, which holds the storage, queries and additive arithmetic.
All coefficients are plain Python ints, so arithmetic is exact at any
magnitude.
"""

from __future__ import annotations

import struct
from itertools import compress
from typing import ItemsView, Iterable, Mapping


def _wrap(cls, data: dict[int, int]):
    """Instance of cls over data, which must hold no zero coefficient."""
    obj = object.__new__(cls)
    obj._coeffs = data
    return obj


def _int(x: int) -> int:
    if type(x) is not int:  # a bool too: every index, coefficient and count is an int
        raise TypeError(f"expected an int, got {x!r}")
    return x


class SparseVector:
    """Finitely supported integer vector, stored as {index: coefficient}.

    Instances are immutable values: every operation returns a fresh vector
    of the same class, zero coefficients are dropped, and equality and
    hashing are structural on the canonical mapping within one class.
    Results are built by _wrap, never by a subclass __init__.
    """

    __slots__ = ("_coeffs",)
    symbol: str  # basis symbol used by str, set by each subclass

    def __init__(self, coeffs: Mapping[int, int] | None = None) -> None:
        pairs = [(_int(j), _int(c)) for j, c in coeffs.items()] if coeffs else ()
        self._coeffs = {j: c for j, c in pairs if c}

    def items(self) -> ItemsView[int, int]:
        """Read-only (index, coefficient) view; sized and re-iterable."""
        return self._coeffs.items()

    def terms(self) -> list[tuple[int, int]]:
        """Sorted (index, coefficient) pairs."""
        return sorted(self._coeffs.items())

    def support_size(self) -> int:
        return len(self._coeffs)

    def min_index(self) -> int | None:
        return min(self._coeffs) if self._coeffs else None

    def max_index(self) -> int | None:
        return max(self._coeffs) if self._coeffs else None

    def mass(self) -> int:
        """Sum of absolute coefficient values."""
        return sum(abs(c) for c in self._coeffs.values())

    def shift(self, k: int):
        """Translate every index by k."""
        _int(k)
        return _wrap(type(self), {j + k: c for j, c in self._coeffs.items()})

    def _combine(self, other, sign: int):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self._coeffs)
        for j, c in other._coeffs.items():
            c = acc.get(j, 0) + sign * c
            if c:
                acc[j] = c
            else:
                del acc[j]  # present, since other holds no zero coefficient
        return _wrap(type(self), acc)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __str__(self) -> str:
        parts = []
        for j, c in self.terms():
            mag = f"{self.symbol}[{j}]" if abs(c) == 1 else f"{abs(c)}*{self.symbol}[{j}]"
            sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
            parts.append(sign + mag)
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.terms())!r})"


class TildeElement(SparseVector):
    """Integer combination of h~[j] symbols, j ranging over all integers."""

    __slots__ = ("_kernel",)  # the shift kernel, kept by a left factor once formed
    symbol = "h~"

    def __rmul__(self, other):
        if isinstance(other, int):
            return TildeElement({j: other * c for j, c in self._coeffs.items()})
        return NotImplemented


class ChElement(SparseVector):
    """Integer combination of h[i] symbols with i >= 0 only.

    Construction rejects negative indices; use fold_L to land here from
    the h~ side.
    """

    __slots__ = ()
    symbol = "h"
    shift = None  # a fold holds no index below 0 to shift to

    def __init__(self, coeffs: Mapping[int, int] | None = None) -> None:
        if coeffs and min(coeffs) < 0:
            raise ValueError(f"negative index {min(coeffs)} not allowed in folded element")
        super().__init__(coeffs)

    def all_nonnegative(self) -> bool:
        return all(c >= 0 for c in self._coeffs.values())


def basis(j: int) -> TildeElement:
    """The basis element h~[j]."""
    return TildeElement({j: 1})


H1 = basis(1)  # h~[1], one left factor for every recurrence, so its kernel forms once


def fold_L(g: SparseVector) -> ChElement:
    """Fold the coefficients of g onto non-negative indices.

    h~[i] maps to h[i] for i >= 0, to zero for i == -1, and to -h[-i-2]
    for i < -1; extended linearly.
    """
    acc: dict[int, int] = {}
    for j, c in g.items():
        if j >= 0:
            acc[j] = acc.get(j, 0) + c
        elif j == -1:
            continue
        else:
            acc[-j - 2] = acc.get(-j - 2, 0) - c
    return _wrap(ChElement, {i: c for i, c in acc.items() if c})


# A product is packed from MIN_TERM_OPS term products on, len(a) * len(b).
# The 5,777 products that reached _product in `verify --seed 1` when this
# was set (4,962 module products whose right factor is not one term, 606
# multiset sums, 200 actions of h[i], 9 closed-route expansions), less the
# 30 too sparse to pack, each timed best of 20 rounds with the loop forced
# and with packing forced, with CPython 3.11.7 on a 2-CPU Xeon host:
#
#     term products   products   loop ms   packed ms   ratio
#     0-15                 661       2.4         7.0    2.99
#     16-31              1,123       8.1        15.7    1.94
#     32-63              1,892      20.7        29.5    1.43
#     64-79                438       7.0         7.6    1.09
#     80-87                114       2.0         2.0    1.01
#     88-95                144       2.6         2.4    0.93
#     96-127               419       9.2         7.6    0.83
#     128 and up           956      32.8        19.4    0.59
#
# Replayed whole, interleaved, with the threshold at 64, 72, 80, 88, 96
# and 112, the products took times within 2% of each other.
MIN_TERM_OPS = 88


def _product(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Nonzero coefficients of A * B for A = sum a[i] x^i and B = sum b[j] x^j.

    From MIN_TERM_OPS term products on, len(a) * len(b), the product is one
    big-int multiply by Kronecker substitution: each operand becomes one
    integer with a field of fixed width per exponent step.  Below that, or
    if the operands span more than two slots per term product, it is the
    double loop.

    The step is 2 when the exponents of a and of b each share one parity,
    else 1.  A product slot sums at most min(len(a), len(b)) products of
    coefficients below 2^bits_a and 2^bits_b, so it lies strictly between
    -2^(w-1) and 2^(w-1) for w = bits_a + bits_b + bit_length(min(len(a),
    len(b))) + 1 bits.  Fields are 8-byte words while w <= 64, else the
    fewest whole bytes that hold w bits.  One field mask, over the slots of
    the product, packs both operands, or once if b is a, and unpacks the product.
    """
    ops = len(a) * len(b)
    if ops >= MIN_TERM_OPS:
        lo_a, hi_a, lo_b, hi_b = min(a), max(a), min(b), max(b)
        span = hi_a - lo_a + hi_b - lo_b
        if span < 2 * ops:
            dense_a, dense_b = _dense(a, lo_a, hi_a), _dense(b, lo_b, hi_b)
            step = 1 if any(dense_a[1::2]) or any(dense_b[1::2]) else 2
            bits = max(map(abs, a.values())).bit_length() + max(map(abs, b.values())).bit_length()
            bits += min(len(a), len(b)).bit_length() + 1
            width = 8 if bits <= 64 else (bits + 7) // 8
            top = _field_tops(width, span // step + 1)
            packed = _pack(dense_a, step, width, top)
            product = packed * (packed if b is a else _pack(dense_b, step, width, top))
            return _unpack(product, lo_a + lo_b, step, width, top)
    acc: dict[int, int] = {}
    for i, c in a.items():
        for j, d in b.items():
            k = i + j
            acc[k] = acc.get(k, 0) + c * d
    return {k: c for k, c in acc.items() if c}


def _kernel(g1: TildeElement) -> dict[int, int]:
    """Nonzero coefficients of the shift kernel K of g1: the symmetric runs
    of its fold, the one way K is formed.  g1 keeps K once formed, for
    every later product with g1 on the left."""
    try:
        return g1._kernel
    except AttributeError:
        kernel = g1._kernel = _symmetric_runs(fold_L(g1).items())
        return kernel


def _symmetric_runs(weights: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Nonzero coefficients of sum c * (x^-r + x^(-r+2) + ... + x^r) over
    the pairs (r, c) of weights, each r >= 0.

    Per parity, the coefficient at -k and at k is the sum of c over r >= k.
    That suffix sum is taken from the largest r down, and each run of one
    value is written once, so the cost follows the output and not the
    largest r.  The pairs (-1, 0) and (-2, 0) close the last run of each
    parity.
    """
    out: dict[int, int] = {}
    suffix = [0, 0]  # sum of c over the radii passed, per parity
    top = [0, 0]  # the radius last passed, per parity
    for r, c in sorted(weights, reverse=True) + [(-1, 0), (-2, 0)]:
        p = r & 1
        if suffix[p]:
            for k in range(r + 2, top[p] + 1, 2):
                out[k] = out[-k] = suffix[p]
        suffix[p] += c
        top[p] = r
    return out


def _field_tops(width: int, slots: int) -> int:
    """2^(8 * width - 1) in each of slots fields of width bytes: the field
    mask of _pack and _unpack.  _product builds it once, for the slots of
    the product, and both operands and the product share it."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")


def _dense(terms: dict[int, int], lo: int, hi: int) -> list[int]:
    """The coefficients of terms at exponents lo, lo + 1, ..., hi, zero
    where absent."""
    values = [0] * (hi - lo + 1)
    for e, c in terms.items():
        values[e - lo] = c
    return values


def _pack(values: list[int], step: int, width: int, top: int) -> int:
    """The sum of v * B^k over the k-th value v of values[::step], for the
    field base B = 256^width and each |v| < B / 2.

    Each value becomes a little-endian field of width bytes in two's
    complement, written by struct for 8-byte words and by int.to_bytes
    otherwise; the XOR with B / 2 in every field turns that into the offset
    form v + B / 2, and subtracting the same mask leaves v in place.  top is
    that mask over at least as many fields as there are values: its fields
    past the last value XOR onto zero bytes and are subtracted again.
    """
    if step > 1:
        values = values[::step]
    if width == 8:
        raw = struct.pack(f"<{len(values)}q", *values)
    else:
        raw = b"".join([v.to_bytes(width, "little", signed=True) for v in values])
    return (int.from_bytes(raw, "little") ^ top) - top


def _unpack(value: int, lo: int, step: int, width: int, top: int) -> dict[int, int]:
    """Nonzero fields of a value packed as by _pack, keyed lo, lo + step,
    ..., one per field of the mask top; each field must lie strictly
    between -B / 2 and B / 2, so that adding B / 2 to every field carries
    into no other."""
    raw = ((value + top) ^ top).to_bytes(top.bit_length() // 8, "little")
    slots = len(raw) // width
    if width == 8:
        decoded = struct.unpack(f"<{slots}q", raw)
    else:
        decoded = [
            int.from_bytes(raw[at : at + width], "little", signed=True)
            for at in range(0, len(raw), width)
        ]
    keys = range(lo, lo + step * slots, step)
    return dict(zip(compress(keys, decoded), compress(decoded, decoded)))


def mul(g1: TildeElement, g2: TildeElement) -> TildeElement:
    """Module product: the folded left factor acts termwise on the right,
    as K * g2 for the shift kernel K, the symmetric runs of fold_L(g1).

    A one-term g2 = d * h~[j] takes K shifted by j and scaled by d; any
    other g2 is multiplied by K through _product.  g1 keeps K once formed:
    elements are immutable, so it never goes stale, and it takes no part
    in ==, hash, repr or str.
    """
    kernel = _kernel(g1)
    b = g2._coeffs
    if len(b) == 1:
        ((j, d),) = b.items()
        return _wrap(TildeElement, {i + j: c * d for i, c in kernel.items()})
    return _wrap(TildeElement, _product(kernel, b))


def w0(g1: TildeElement, g2: TildeElement, g3: TildeElement) -> TildeElement:
    """Trilinear form g2 * (g1*g3 - shift(g1,-1)*shift(g3,-1))."""
    inner = mul(g1, g3) - mul(g1.shift(-1), g3.shift(-1))
    return mul(g2, inner)


def w1(g1: TildeElement, g2: TildeElement, g3: TildeElement) -> TildeElement:
    """Companion trilinear form; equals w0 followed by a downward shift.

        w1 = shift(g1,-1)*g2*g3 + g1*g2*shift(g3,-1)
             - shift(g1,-1)*h~[1]*g2*shift(g3,-1)

    The subtracted term carries an extra h~[1] left factor: without it
    the identity w1 = shift(w0, -1) fails already on basis triples.
    Unparenthesised products group right to left.  mul is linear in its
    right factor and commutes with shifting it, and h~[1] acts as the sum
    of the shifts by -1 and 1, so for g23 = g2*g3 the subtracted term is
    shift(g1,-1)*(shift(g23,-2) + g23): its second part cancels the first
    term, and three products form w1.
    """
    g23 = mul(g2, g3)
    return (mul(g1, g23) - mul(g1.shift(-1), g23).shift(-1)).shift(-1)
