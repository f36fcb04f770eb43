"""Sparse exact arithmetic for the shift-basis module and its folded image.

Elements are finitely supported integer combinations of basis symbols
h~[j], with j ranging over all integers.  The companion type ChElement
holds combinations of h[i] with i >= 0 only.  The fold map sends h~[i]
to h[i] for i >= 0, kills h~[-1], and sends h~[i] to -h[-i-2] for
i < -1.  The product on the h~ side is defined by folding the left
factor and letting each h[i] act as the operator sum of the index
shifts by -i, -i+2, ..., i; it is linear in both slots and, although
nothing here relies on it, empirically associative.

Reading h~[j] as x^j, the shifts of h[i] sum to the Chebyshev-U kernel
(x^(i+2) - x^-i) / (x^2 - 1), so a left action is one sparse product
with a numerator followed by an exact division by x^2 - 1 (see
_left_action).  For mul the numerator is x^2 * g1(x) - g1(1/x), built
straight from the left factor g1 with no fold, since the fold leaves it
unchanged (see _numerator), and mul(g1, g2) = K * g2 for the shift kernel
K = (x^2 * g1(x) - g1(1/x)) / (x^2 - 1).  A left factor keeps K once
formed, so a one-term g2 = d * h~[j] gives K shifted by j, times d (see mul).

Large products are one big-int multiply by Kronecker substitution
(Schoenhage 1982; Harvey, arXiv:0712.4046): each operand is packed into
one integer with a field of fixed width per exponent step.  There are two
field encodings:

- Words.  From WORD_MIN_TERM_OPS pairs of g1 and g2 terms on, while every
  product slot fits a signed 64-bit word and there are at most
  WORD_MAX_SLOTS of them, mul packs the dense numerator and g2 into 8-byte
  fields with struct, divides the packed numerator exactly by 2^128 - 1
  (x^2 - 1 at x = 2^64) to pack K, kept on g1 for its next product, and
  makes one multiply K * g2, decoded by struct (see _word_mul).  No Python
  loop runs over the slots.
- Bytes.  Any other product of at least KRONECKER_MIN_TERM_OPS term
  pairs, the multiset sums and left actions included, packs each sparse
  operand with a field of bits_a + bits_b + bit_length(min(len)) + 1 bits
  rounded up to whole bytes, where bits_a and bits_b are the largest
  coefficient bit lengths of the two operands (see _kronecker_product).

Both element types, and the multisets of multiset_cone, derive from
SparseVector, which holds the storage, queries and additive arithmetic.
All coefficients are plain Python ints, so arithmetic is exact at any
magnitude.
"""

from __future__ import annotations

import random
import struct
from itertools import compress
from typing import Collection, ItemsView, Mapping

Terms = Collection[tuple[int, int]]  # sized, re-iterable (index, coefficient) pairs


def _wrap(cls, data: dict[int, int]):
    """Instance of cls over data, which must hold no zero coefficient."""
    obj = object.__new__(cls)
    obj._coeffs = data
    return obj


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
        self._coeffs = {j: c for j, c in coeffs.items() if c} if coeffs else {}

    @classmethod
    def zero(cls):
        return _wrap(cls, {})

    def items(self) -> ItemsView[int, int]:
        """Read-only (index, coefficient) view; sized and re-iterable."""
        return self._coeffs.items()

    def terms(self) -> list[tuple[int, int]]:
        """Sorted (index, coefficient) pairs."""
        return sorted(self._coeffs.items())

    def coeff(self, j: int) -> int:
        return self._coeffs.get(j, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def support_size(self) -> int:
        return len(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def min_index(self) -> int | None:
        return min(self._coeffs) if self._coeffs else None

    def max_index(self) -> int | None:
        return max(self._coeffs) if self._coeffs else None

    def mass(self) -> int:
        """Sum of absolute coefficient values."""
        return sum(abs(c) for c in self._coeffs.values())

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

    def __neg__(self):
        return _wrap(type(self), {j: -c for j, c in self._coeffs.items()})

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

    __slots__ = ("_kernel", "_word_kernel")  # kept by mul for a left factor
    symbol = "h~"

    def shift(self, k: int) -> "TildeElement":
        """Translate every basis index by k."""
        return _wrap(TildeElement, {j + k: c for j, c in self._coeffs.items()})

    def scale(self, a: int) -> "TildeElement":
        return TildeElement({j: a * c for j, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, TildeElement):
            return mul(self, other)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented


class ChElement(SparseVector):
    """Integer combination of h[i] symbols with i >= 0 only.

    Construction rejects negative indices; use fold_L to land here from
    the h~ side.
    """

    __slots__ = ()
    symbol = "h"

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


def fold_L(g: TildeElement) -> ChElement:
    """Fold onto non-negative indices.

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


# mul shifts the kernel of g1 for a one-term g2 and offers the other
# products of at least WORD_MIN_TERM_OPS pairs of g1 and g2 terms to the
# word route (_word_mul).  Any other product of at least
# KRONECKER_MIN_TERM_OPS term pairs goes through the byte-field multiply
# (_kronecker_product), and the rest through the double loop.  Of the
# 10,388 mul calls of `verify --seed 1`, 5,420 have a one-term g2, 3,761
# take the word route and 1,207 the loop.
#
# Byte fields: timed with CPython 3.11 on a 2-CPU Xeon host over the
# products that the chebcone commands make, they break even with the loop
# at 384-512 term pairs.  Packing is 0.9-1.3x as fast below 1024, 1.7-5x as
# fast from 1024 on, and up to 3x slower under 256, where its fixed cost of
# some 40 us dominates.  The largest product of a default `verify` has 580
# term pairs (of the numerator and g2), so none of them packs into bytes.
#
# Words: mul over the 10,388 products of `verify --seed 1`, one-term g2
# included, on the same host, best of 40 rounds per group, loop against
# words (the host's speed varied by up to 1.5x between runs):
#
#     g1 x g2 terms   products   loop ms   words ms   ratio
#     1-4               3,139      24.5      32.3      1.32
#     5-8               2,210      22.1      30.9      1.40
#     9-15                836      15.1      18.0      1.20
#     16-31             1,615      44.8      36.2      0.81
#     32-63             1,000      27.5      17.1      0.62
#     64-127              954      53.6      22.3      0.42
#     128-330             203      17.1       6.9      0.40
#
# Below 16 pairs the fixed cost of the packing calls loses.
KRONECKER_MIN_TERM_OPS = 1024
WORD_MIN_TERM_OPS = 16


def _sparse_product(a: Terms, b: Terms) -> dict[int, int]:
    """Product of two sparse polynomials given as (exponent, coefficient) pairs,
    with distinct exponents within each operand.

    From KRONECKER_MIN_TERM_OPS term pairs on, where packing measured faster,
    the product is one big-int multiply (_kronecker_product), and a cancelled
    coefficient is then absent rather than zero.
    """
    if len(a) * len(b) >= KRONECKER_MIN_TERM_OPS:
        packed = _kronecker_product(a, b)
        if packed is not None:
            return packed
    acc: dict[int, int] = {}
    for i, c in a:
        for j, d in b:
            k = i + j
            acc[k] = acc.get(k, 0) + c * d
    return acc


def _kronecker_product(a: Terms, b: Terms) -> dict[int, int] | None:
    """Nonzero coefficients of the product of two non-empty operands by
    Kronecker substitution, or None if they are so sparse that decoding would
    visit more slots than the double loop makes term products.

    Each operand becomes one integer with a slot of `width` bytes per exponent
    step; the step is 2 when each operand's exponents share one parity, else 1.
    A product slot sums at most min(len(a), len(b)) products of coefficients
    below 2^bits_a and 2^bits_b, so it lies strictly between -2^(w-1) and
    2^(w-1) for w = bits_a + bits_b + bit_length(min(len)) + 1 bits.
    """
    exps_a, coeffs_a = zip(*a)
    exps_b, coeffs_b = zip(*b)
    lo_a, lo_b = min(exps_a), min(exps_b)
    mixed = any((e ^ lo_a) & 1 for e in exps_a) or any((e ^ lo_b) & 1 for e in exps_b)
    stride = 1 if mixed else 2
    slots_a = (max(exps_a) - lo_a) // stride + 1
    slots_b = (max(exps_b) - lo_b) // stride + 1
    slots = slots_a + slots_b - 1
    if slots > len(a) * len(b):
        return None
    bits = (
        max(map(abs, coeffs_a)).bit_length()
        + max(map(abs, coeffs_b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + 1
    )
    width = (bits + 7) // 8
    product = _kronecker_pack(a, lo_a, stride, slots_a, width) * _kronecker_pack(
        b, lo_b, stride, slots_b, width
    )
    return _kronecker_unpack(product, lo_a + lo_b, stride, slots, width)


def _kronecker_pack(terms: Terms, lo: int, stride: int, slots: int, width: int) -> int:
    """The sum of c * 256^(width * (e - lo) / stride) over terms, each |c| < 256^width.

    Positive and negative coefficients fill one byte buffer each, and the
    second is subtracted from the first.
    """
    pos = bytearray(slots * width)
    neg = bytearray(slots * width)
    for e, c in terms:
        at = (e - lo) // stride * width
        if c > 0:
            pos[at : at + width] = c.to_bytes(width, "little")
        else:
            neg[at : at + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kronecker_unpack(value: int, lo: int, stride: int, slots: int, width: int) -> dict[int, int]:
    """Nonzero slots of a packed value, keyed lo, lo + stride, ...; each slot
    must lie strictly between -2^(8 * width - 1) and 2^(8 * width - 1).

    Adding 2^(8 * width - 1) to every slot makes each one non-negative and
    below 2^(8 * width), so no slot borrows from the next and each decodes on
    its own.
    """
    half = 1 << (8 * width - 1)
    empty = half.to_bytes(width, "little")
    raw = (value + int.from_bytes(empty * slots, "little")).to_bytes(slots * width, "little")
    decoded = [
        int.from_bytes(raw[at : at + width], "little") - half for at in range(0, len(raw), width)
    ]
    return {e: c for e, c in zip(range(lo, lo + stride * slots, stride), decoded) if c}


def _numerator(terms: Terms) -> dict[int, int]:
    """Nonzero coefficients of x^2 * g(x) - g(1/x) for g = sum c * x^j over
    terms, which must hold distinct exponents and no zero coefficient:
    the numerator of the left action of sum c * h~[j] (see _left_action).

    It needs no fold: h~[-1] gives x - x, which cancels, and h~[j] for
    j < -1 gives x^(j+2) - x^-j = -(x^(i+2) - x^-i) with i = -j - 2, the
    numerator of its fold -h[i].  So the coefficient at i + 2 >= 2 is the
    folded weight of h[i], the one at -i <= 0 its negative, and none is at 1.
    """
    acc = {j + 2: c for j, c in terms}  # distinct, and nonzero for nonzero c
    for j, c in terms:
        c = acc.get(-j, 0) - c
        if c:
            acc[-j] = c
        else:
            del acc[-j]  # present, since c was nonzero
    return acc


def _left_action(numerator: Terms, g: Terms) -> dict[int, int]:
    """Coefficients of sum c * h[i] acting on g, given its numerator
    sum c * (x^(i+2) - x^-i) as (exponent, coefficient) pairs.  The shift
    kernel K = sum c * (x^-i + x^(-i+2) + ... + x^i) telescopes to
    (x^2 - 1) * K = that numerator, so K * g is the sparse product of g
    with the numerator, divided exactly by x^2 - 1."""
    return _over_x2_minus_1(_sparse_product(g, numerator))


def _over_x2_minus_1(p: dict[int, int]) -> dict[int, int]:
    """Nonzero coefficients of R = P / (x^2 - 1) for a multiple P = sum
    p[k] x^k of x^2 - 1: R[k] = R[k-2] - P[k] from the lowest index up,
    written one run of constant R per parity at a time."""
    out: dict[int, int] = {}
    r0 = r1 = k0 = k1 = 0  # R and the index where its run began: even, odd
    for k in sorted(p):
        if k & 1:
            if r1:
                for x in range(k1, k, 2):
                    out[x] = r1
            r1 -= p[k]
            k1 = k
        else:
            if r0:
                for x in range(k0, k, 2):
                    out[x] = r0
            r0 -= p[k]
            k0 = k
    return out


# 2^63 in each of WORD_MAX_SLOTS 8-byte fields (8 KiB); its top n fields,
# shifted down, are the mask of an n-field value, at a quarter of the cost
# of building that mask from bytes.  The widest word product of a default
# `verify` has 93 slots.
WORD_MAX_SLOTS = 1024
_FIELD_TOPS = int.from_bytes((1 << 63).to_bytes(8, "little") * WORD_MAX_SLOTS, "little")


def _word_pack(values: list[int]) -> int:
    """The sum of v * 2^(64 k) over the k-th value v, each |v| < 2^63, for
    at most WORD_MAX_SLOTS values.

    struct writes each value as a little-endian 8-byte field in two's
    complement, the XOR with 2^63 in every field turns that into the
    offset form v + 2^63, and subtracting the same mask leaves v in place.
    """
    n = len(values)
    top = _FIELD_TOPS >> 64 * (WORD_MAX_SLOTS - n)
    return (int.from_bytes(struct.pack(f"<{n}q", *values), "little") ^ top) - top


def _word_unpack(value: int, lo: int, slots: int) -> dict[int, int]:
    """Nonzero 64-bit slots of a value packed as by _word_pack, keyed lo,
    lo + 1, ...; each slot must lie strictly between -2^63 and 2^63, so
    that adding 2^63 to every slot carries into no other, and there are at
    most WORD_MAX_SLOTS of them."""
    top = _FIELD_TOPS >> 64 * (WORD_MAX_SLOTS - slots)
    decoded = struct.unpack(f"<{slots}q", ((value + top) ^ top).to_bytes(8 * slots, "little"))
    return dict(zip(compress(range(lo, lo + slots), decoded), compress(decoded, decoded)))


# x^2 - 1 at x = 2^64: dividing a packed numerator by it packs the kernel
_X2_MINUS_1 = (1 << 128) - 1


def _word_mul(g1: TildeElement, b: dict[int, int]) -> dict[int, int] | None:
    """Nonzero coefficients of mul(g1, g2) for non-empty g1 and
    g2 = sum b[j] x^j, as one word-packed product K * g2 of the shift
    kernel K = (x^2 * g1(x) - g1(1/x)) / (x^2 - 1); or None if a product
    slot might not fit a signed 64-bit word, if the dense operands would
    hold more slots than the loop makes term products (two per term pair),
    or if an operand or the product has more than WORD_MAX_SLOTS slots.

    K is sum c * (x^-i + x^(-i+2) + ... + x^i) over the folded terms
    c * h[i] of g1, so it spans -m..m for the largest index m that folds
    onto some h[i], and no coefficient of K exceeds the sum of |g1|.
    The numerator is a polynomial multiple of x^2 - 1, so at x = 2^64 its
    packed value is an integer multiple of 2^128 - 1, and one exact integer
    division leaves K packed.  The slot bound is that of _kronecker_product,
    with that sum standing in for the largest coefficient of K.
    """
    a = g1._coeffs
    try:
        m, bits_a, kernel = g1._word_kernel
    except AttributeError:
        m = max(max(a), -2 - min(a))
        bits_a = sum(map(abs, a.values())).bit_length()
        kernel = None
    if m < 0:
        return {}  # g1 is a multiple of h~[-1], which folds to zero
    lo = min(b)
    slots_k = 2 * m + 1
    slots_b = max(b) - lo + 1
    slots = slots_k + slots_b - 1
    if slots > 2 * len(a) * len(b) or max(slots, slots_k + 2) > WORD_MAX_SLOTS:
        return None
    bits = bits_a + max(map(abs, b.values())).bit_length() + min(slots_k, len(b)).bit_length() + 1
    if bits > 64:
        return None
    if kernel is None:
        numerator = [0] * (slots_k + 2)  # exponents -m .. m + 2
        for j, c in a.items():
            numerator[m + j + 2] += c
            numerator[m - j] -= c
        kernel = _word_pack(numerator) // _X2_MINUS_1
        g1._word_kernel = m, bits_a, kernel
    if not kernel:
        return {}  # every folded weight cancels
    dense = [0] * slots_b
    for j, c in b.items():
        dense[j - lo] = c
    return _word_unpack(kernel * _word_pack(dense), lo - m, slots)


def left_mul_h(i: int, g: TildeElement) -> TildeElement:
    """Act by h[i] on the left: the sum of shifts of g by -i, -i+2, ..., i,
    that is (x^(i+2) - x^-i) * g divided exactly by x^2 - 1."""
    if i < 0:
        raise ValueError(f"left multiplier index must be >= 0, got {i}")
    return _wrap(TildeElement, _left_action(((i + 2, 1), (-i, -1)), g._coeffs.items()))


def mul(g1: TildeElement, g2: TildeElement) -> TildeElement:
    """Module product: the folded left factor acts termwise on the right,
    as (x^2 * g1(x) - g1(1/x)) * g2 divided exactly by x^2 - 1.

    A one-term g2 = d * h~[j] takes the shift kernel K of g1, shifted by j
    and scaled by d; from WORD_MIN_TERM_OPS term pairs on, the product is
    one word-packed multiply K * g2 when its slots fit (see _word_mul).
    g1 keeps K, and packed K, once formed: elements are immutable, so
    neither goes stale, and neither takes part in ==, hash, repr or str.
    """
    a, b = g1._coeffs, g2._coeffs
    if len(b) == 1:
        try:
            kernel = g1._kernel
        except AttributeError:
            kernel = g1._kernel = _over_x2_minus_1(_numerator(a.items()))
        ((j, d),) = b.items()
        return _wrap(TildeElement, {i + j: c * d for i, c in kernel.items()})
    if len(a) * len(b) >= WORD_MIN_TERM_OPS:
        product = _word_mul(g1, b)
        if product is not None:
            return _wrap(TildeElement, product)
    return _wrap(TildeElement, _left_action(_numerator(a.items()).items(), b.items()))


def ch_left_mul(i: int, x: ChElement) -> ChElement:
    """Product h[i] * x inside the folded algebra.

    Uses the closed interval rule h[i] h[j] = h[|i-j|] + h[|i-j|+2]
    + ... + h[i+j]; independent of the h~ machinery by design, so the
    two routes can be checked against each other.
    """
    if i < 0:
        raise ValueError(f"left multiplier index must be >= 0, got {i}")
    acc: dict[int, int] = {}
    for j, c in x.items():
        for m in range(abs(i - j), i + j + 1, 2):
            acc[m] = acc.get(m, 0) + c
    return ChElement(acc)


def w0(g1: TildeElement, g2: TildeElement, g3: TildeElement) -> TildeElement:
    """Trilinear form g2 * (g1*g3 - shift(g1,-1)*shift(g3,-1))."""
    inner = mul(g1, g3) - mul(g1.shift(-1), g3.shift(-1))
    return mul(g2, inner)


def w1(g1: TildeElement, g2: TildeElement, g3: TildeElement) -> TildeElement:
    """Companion trilinear form; equals w0 followed by a downward shift.

    The subtracted term carries an extra h~[1] left factor: without it
    the identity w1 = shift(w0, -1) fails already on basis triples.
    Unparenthesised products group right to left throughout.
    """
    s1 = g1.shift(-1)
    g2s3 = mul(g2, g3.shift(-1))
    a = mul(s1, mul(g2, g3))
    b = mul(g1, g2s3)
    c = mul(s1, mul(H1, g2s3))
    return a + b - c


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
