"""Machine-checkable certificates for positivity and cone membership.

Two document kinds are produced: a positivity certificate listing every
folded coefficient of a family element together with a sign verdict,
and a cone certificate carrying the interval/singleton decomposition of
a closed-form witness plus a recomposition verdict.  A record stores only
what it certifies, in the kernel's value types: a positivity listing is
its ChElement fold and the cone parts are IntegerMultisets, which hold no
listing their reader refuses.  A record's constructor, which its _make
and so _replace call too, refuses whatever its reader refuses, and
to_document only writes.  Every value read off that (the verdict, mass,
max index and cone bound of a listing, the center of a decomposition) is
a property, so no record can contradict itself.
certify_cone returns a witness outside its cone as its
ConeMembershipError, a verdict that check_positivity_implication reads as
False.  Documents carry ints as decimal strings, as depth 4 values exceed
64-bit range, written by the one encoder encode_listing and parsed once
by _listing.
Key order in emitted documents is fixed so that regenerated suites diff
cleanly, and a document is read back only if it is exactly what the
record built from it writes (_as_written).
"""

from __future__ import annotations

import json
import reprlib
from collections import namedtuple
from typing import Iterable

from .multiset_cone import ConeDecomposition, ConeMembershipError, IntegerMultiset, decompose_cone
from .recurrence_engine import VALID_I, _check_indices, closed_element, closed_witnesses, cone_center
from .tilde_ring import ChElement, fold_L

SCHEMA_VERSION = 1


def positivity_cone_bound(n: int, i: int, j: int) -> int:
    """Center of the cone that forces non-negativity of the (n, i, j) element.

    The slot-0 witnesses live at 2^(n+1) - j; shifting down by one (the
    other slots) lowers the usable center by one, and the slot -1
    penultimate element is a union of two pieces both valid at
    2^(n+1) - 2.
    """
    return cone_center(n, j) - (i != 0)


def _field(doc: dict, key: str):
    """The named field of a document, which must be present."""
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    return doc[key]


def _int_fields(doc: dict, kind: str, *keys: str) -> list[int]:
    """The named fields of a current-schema document of the given kind, each
    of which must be a plain int.  Other keys are left to _as_written."""
    if type(doc) is not dict:
        raise ValueError(f"a certificate document is a JSON object, got {type(doc).__name__}")
    if doc.get("kind") != kind:
        raise ValueError(f"not a {kind} document: kind={doc.get('kind')!r}")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema version {version!r}")
    values = [_field(doc, key) for key in keys]
    for key, value in zip(keys, values):
        if type(value) is not int:
            raise ValueError(f"{key} must be an integer, got {value!r}")
    return values


def _as_written(doc: dict, record):
    """record, if doc is exactly what record.to_document() writes: no key
    more or less, and every value of the same type and equal.  The error
    names the key, never its value, which may be a whole listing."""
    written = record.to_document()
    for key in doc:
        if key not in written:
            raise ValueError(f"unknown field {key!r} in a {written['kind']} document")
    for key, value in written.items():
        stated = _field(doc, key)
        if type(stated) is not type(value) or stated != value:
            raise ValueError(f"{key} is not what the record read from this document writes")
    return record


def encode_listing(pairs: Iterable[tuple[int, int]]) -> list[list]:
    """The document form of (index, int) pairs: [index, "decimal"] entries."""
    return [[idx, str(c)] for idx, c in pairs]


def _listing(doc: dict, key: str) -> dict[int, int]:
    """The named listing parsed into {index: int}.  It must be canonical:
    int indices strictly increasing, and each entry exactly what
    encode_listing writes for its parsed pair.  A value that int() refuses,
    as it is no decimal integer or passes the digit limit of int strings,
    is not canonical either; the error shows the entry, shortened."""
    listing = _field(doc, key)
    if type(listing) is not list:
        raise ValueError(f"{key} must be a list, got {type(listing).__name__}")
    parsed: dict[int, int] = {}
    last = None  # the index of the last entry
    for entry in listing:
        try:
            canonical = (type(entry) is list and len(entry) == 2 and type(entry[0]) is int
                         and type(entry[1]) is str and (last is None or entry[0] > last)
                         and encode_listing([(entry[0], value := int(entry[1]))]) == [entry])
        except ValueError:
            canonical = False
        if not canonical:
            raise ValueError(f"{key} entry {reprlib.repr(entry)} is not canonical")
        parsed[last := entry[0]] = value
    return parsed


class PositivityCertificate(namedtuple("PositivityCertificate", "n i j coefficients")):
    """Folded coefficient listing of the (n, i, j) element.

    `coefficients` is the element's ChElement fold, all the record stores
    besides (n, i, j).  The sign verdict and the max index are the fold's
    own queries, `mass` its coefficient sum, and `cone_bound`, the cone
    center that explains why the verdict had to come out non-negative,
    positivity_cone_bound(n, i, j).  The constructor refuses indices that
    _check_indices refuses and a listing that is no ChElement (TypeError).
    from_document rejects a document whose record cannot be built, a
    listing that is not canonical or that ChElement refuses, or a key or
    value other than what its record writes, such as a zero coefficient,
    or a cone_bound, verdict, mass or max_index that disagrees with it or
    is not of its type.  Every malformed document, a missing field or a
    non-object included, raises ValueError.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, n: int, i: int, j: int, coefficients: ChElement) -> PositivityCertificate:
        _check_indices(n, i, j)
        if type(coefficients) is not ChElement:
            raise TypeError(f"coefficients must be a ChElement, got {type(coefficients).__name__}")
        return super().__new__(cls, n, i, j, coefficients)

    @property
    def all_nonnegative(self) -> bool:
        return self.coefficients.all_nonnegative()

    @property
    def max_index(self) -> int | None:
        return self.coefficients.max_index()

    @property
    def mass(self) -> int:
        return sum(c for _, c in self.coefficients.items())

    @property
    def cone_bound(self) -> int:
        return positivity_cone_bound(self.n, self.i, self.j)

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "positivity",
            "n": self.n,
            "i": self.i,
            "j": self.j,
            "cone_bound": self.cone_bound,
            "coefficients": encode_listing(self.coefficients.terms()),
            "all_nonnegative": self.all_nonnegative,
            "max_index": self.max_index,
            "mass": str(self.mass),
        }

    @classmethod
    def from_document(cls, doc: dict) -> "PositivityCertificate":
        n, i, j, bound = _int_fields(doc, "positivity", "n", "i", "j", "cone_bound")
        # so that a document with a huge n never builds 2^(n+1)
        if bound.bit_length() < n:
            raise ValueError(f"cone_bound {bound} is not the bound of ({n}, {i}, {j})")
        return _as_written(doc, cls(n, i, j, ChElement(_listing(doc, "coefficients"))))


def certify_positivity(n: int, i: int, j: int) -> PositivityCertificate:
    """Fold the (n, i, j) element and record the sign of every coefficient.

    The element is read from the closed route (closed_element).  Only
    verify ties it to the raw recurrence, up to its --n: slot 0 by its
    closed/ checks, and slots 1 and -1, which shift_ladder moves the
    witnesses to, by its shift/ checks; nothing here re-checks either.
    """
    return PositivityCertificate(n, i, j, fold_L(closed_element(n, i, j)))


class ConeCertificate(namedtuple("ConeCertificate", "n j decomposition recomposition_ok")):
    """Cone membership certificate for a closed-form witness.

    The decomposition stores its singletons and radii as IntegerMultisets
    about its center, which `center` reads; recomposition_ok is True iff
    rebuilding from the parts reproduces the witness multiset exactly.
    It is stored, as the record does not hold the witness it was checked
    against.  The constructor refuses a depth or order that _check_indices
    refuses, a decomposition of another type (TypeError), a center other
    than 2^(n+1) - j and a recomposition_ok that is not a bool, so
    from_document rejects them too, as well as parts that are not
    canonical or break the center and radius constraints, or a key or
    value other than what its record writes; every malformed document
    raises ValueError.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, n: int, j: int, decomposition: ConeDecomposition,
                recomposition_ok: bool) -> ConeCertificate:
        _check_indices(n, 0, j)
        if (kind := type(decomposition)) is not ConeDecomposition:
            raise TypeError(f"decomposition must be a ConeDecomposition, got {kind.__name__}")
        center = decomposition.center
        if center.bit_length() < n or center != cone_center(n, j):  # a huge n builds no 2^(n+1)
            raise ValueError(f"center {center} is not 2^{n + 1} - {j}")
        if type(recomposition_ok) is not bool:
            raise ValueError(f"recomposition_ok must be a bool, got {recomposition_ok!r}")
        return super().__new__(cls, n, j, decomposition, recomposition_ok)

    @property
    def center(self) -> int:
        return self.decomposition.center

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "cone",
            "n": self.n,
            "j": self.j,
            "center": self.center,
            "singletons": encode_listing(self.decomposition.singletons.terms()),
            "radii": encode_listing(self.decomposition.radii.terms()),
            "recomposition_ok": self.recomposition_ok,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "ConeCertificate":
        n, j, center = _int_fields(doc, "cone", "n", "j", "center")
        parts = [IntegerMultiset.from_counts(_listing(doc, key)) for key in ("singletons", "radii")]
        decomposition = ConeDecomposition(center, *parts)
        return _as_written(doc, cls(n, j, decomposition, _field(doc, "recomposition_ok")))


def certify_cone(n: int, j: int) -> ConeCertificate | ConeMembershipError:
    """Decompose the depth-n witness of order j and validate recomposition;
    a witness outside its cone gives its violation, a ConeMembershipError."""
    _check_indices(n, 0, j)
    witness = closed_witnesses(n)[j]
    try:
        decomposition = decompose_cone(witness, cone_center(n, j))
    except ConeMembershipError as violation:
        return violation
    return ConeCertificate(n, j, decomposition, decomposition.recompose() == witness)


def check_positivity_implication(
    cone_cert: ConeCertificate | ConeMembershipError, pos_certs: list[PositivityCertificate]
) -> bool:
    """A valid cone certificate forces the positivity verdicts of its slots.

    Let M lie in R(c) with c >= -1, and let i >= 0; the folded
    coefficient at i is m(i) - m(-i-2).  Below c, M has no singleton, and
    its intervals, all centered at c, make m rise toward c on each parity.
    If i <= c, that gives m(-i-2) <= m(i).  If i > c, then
    -i-2 <= 2c-i < c, as c >= -1, so it gives m(-i-2) <= m(2c-i), and the
    intervals' symmetry about c gives m(2c-i) <= m(i).  At c = -1 the
    points -i-2 and i are mirror images about -1.  Below -1 the lemma
    fails: interval(-3, -1), in R(-2), folds to -h[1].  The other slots
    are M shifted by -1, plus the leading witness shifted by -2 at j = 1,
    slot -1: both lie in R(c - 1) (positivity_cone_bound), and c - 1 >= 0
    as c = cone_center(n, j) = 2^(n+1) - j >= 1.

    Returns True iff the cone certificate's recomposition_ok is True, the
    positivity certificates are exactly its slots -1, 0 and 1, and every
    verdict of theirs holds.  Each record was checked where it was built:
    its center is cone_center(n, j), its verdict a bool and its listing a
    ChElement fold.  False means the cone route failed, a violation
    included, the certificates do not belong together, or the two
    certificate routes disagree.
    """
    return (isinstance(cone_cert, ConeCertificate) and cone_cert.recomposition_ok
            and all(pc.all_nonnegative for pc in pos_certs)
            and sorted((pc.n, pc.i, pc.j) for pc in pos_certs)
            == [(cone_cert.n, i, cone_cert.j) for i in VALID_I])


def document_json(doc: dict) -> str:
    """Canonical serialized form: fixed key order, one key per line.

    The bytes are those of json.dumps(doc, indent=1) + "\n" for a flat
    document whose list values are canonical [int, "s"] listings, as
    to_document builds.  The layout is written here because with an
    indent json.dumps always takes its pure-Python encoder, which is slow
    on long listings.
    """
    fields = []
    for key, value in doc.items():
        if type(value) is list:
            entries = ",\n".join(f'  [\n   {idx},\n   "{c}"\n  ]' for idx, c in value)
            text = f"[\n{entries}\n ]" if value else "[]"
        else:
            text = json.dumps(value)
        fields.append(f" {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"
