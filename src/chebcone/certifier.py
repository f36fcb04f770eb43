"""Machine-checkable certificates for positivity and cone membership.

Two document kinds are produced: a positivity certificate listing every
folded coefficient of a family element together with a sign verdict,
and a cone certificate carrying the interval/singleton decomposition of
a closed-form witness plus a recomposition verdict.  Coefficients and
part counts serialize as decimal strings, never as machine integers:
depth 4 values exceed 64-bit range and JSON number semantics are not
trustworthy there.  Key order in emitted documents is fixed so that
regenerated suites diff cleanly.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .multiset_cone import ConeDecomposition, decompose_cone, in_cone
from .recurrence_engine import (
    VALID_I,
    VALID_J,
    cone_center,
    e0_closed,
    e1_closed,
    raw_element,
)
from .tilde_ring import fold_L

SCHEMA_VERSION = 1


def positivity_cone_bound(n: int, i: int, j: int) -> int:
    """Center of the cone that forces non-negativity of the (n, i, j) element.

    The slot-0 witnesses live at 2^(n+1) - j; shifting down by one (the
    other slots) lowers the usable center by one, and the slot -1
    penultimate element is a union of two pieces both valid at
    2^(n+1) - 2.
    """
    return cone_center(n, j) - (i != 0)


def _check_depth_order(n: int, j: int) -> None:
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if j not in VALID_J:
        raise ValueError(f"order must be 0 or 1, got {j}")


def _check_indices(n: int, i: int, j: int) -> None:
    _check_depth_order(n, j)
    if i not in VALID_I:
        raise ValueError(f"slot must be -1, 0 or 1, got {i}")


def _int_fields(doc: dict, *keys: str) -> list[int]:
    """The named document fields, each of which must be a plain int."""
    for key in keys:
        if type(doc[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
    return [doc[key] for key in keys]


class PositivityCertificate(NamedTuple):
    """Folded coefficient listing with a sign verdict.

    `coefficients` holds (index, decimal string) pairs sorted by index;
    `mass` is the decimal coefficient sum; `cone_bound` records the cone
    center that explains why the verdict had to come out non-negative.
    from_document rejects a document with a depth, slot or order out of
    range, a cone_bound other than positivity_cone_bound(n, i, j), or a
    verdict, mass or max_index that disagrees with its own listing.
    """

    n: int
    i: int
    j: int
    coefficients: tuple[tuple[int, str], ...]
    all_nonnegative: bool
    max_index: int | None
    mass: str
    cone_bound: int

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "positivity",
            "n": self.n,
            "i": self.i,
            "j": self.j,
            "cone_bound": self.cone_bound,
            "coefficients": [[idx, c] for idx, c in self.coefficients],
            "all_nonnegative": self.all_nonnegative,
            "max_index": self.max_index,
            "mass": self.mass,
        }

    @classmethod
    def from_listing(
        cls, n: int, i: int, j: int, coefficients: tuple[tuple[int, str], ...], cone_bound: int
    ) -> "PositivityCertificate":
        """Certificate whose verdict, mass and max index are read off the listing."""
        values = [int(c) for _, c in coefficients]
        return cls(n=n, i=i, j=j, coefficients=coefficients,
                   all_nonnegative=all(v >= 0 for v in values),
                   max_index=max((idx for idx, _ in coefficients), default=None),
                   mass=str(sum(values)), cone_bound=cone_bound)

    @classmethod
    def from_document(cls, doc: dict) -> "PositivityCertificate":
        if doc.get("kind") != "positivity":
            raise ValueError(f"not a positivity document: kind={doc.get('kind')!r}")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {doc.get('schema_version')!r}")
        n, i, j, bound = _int_fields(doc, "n", "i", "j", "cone_bound")
        _check_indices(n, i, j)
        # bits first, so that a document with a huge n never builds 2^(n+1)
        if bound.bit_length() < n or bound != positivity_cone_bound(n, i, j):
            raise ValueError(f"cone_bound {bound} is not the bound of ({n}, {i}, {j})")
        coefficients = tuple((idx, c) for idx, c in doc["coefficients"])
        cert = cls.from_listing(n, i, j, coefficients, bound)
        for key in ("all_nonnegative", "max_index", "mass"):
            if doc[key] != getattr(cert, key):
                raise ValueError(f"{key} {doc[key]!r} disagrees with the coefficient listing")
        return cert


def certify_positivity(n: int, i: int, j: int) -> PositivityCertificate:
    """Fold the (n, i, j) element and record the sign of every coefficient."""
    _check_indices(n, i, j)
    folded = fold_L(raw_element(n, i, j))
    coeffs = tuple((idx, str(c)) for idx, c in folded.terms())
    return PositivityCertificate.from_listing(n, i, j, coeffs, positivity_cone_bound(n, i, j))


class ConeCertificate(NamedTuple):
    """Cone membership certificate for a closed-form witness.

    The decomposition stores (value, count) and (radius, count) pairs;
    recomposition_ok is True iff rebuilding from the parts reproduces
    the witness multiset exactly.  from_document rejects a document with
    a depth or order out of range, a center other than 2^(n+1) - j, or
    parts that break the center and radius constraints.
    """

    n: int
    j: int
    center: int
    decomposition: ConeDecomposition
    recomposition_ok: bool

    def to_document(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "cone",
            "n": self.n,
            "j": self.j,
            "center": self.center,
            "singletons": [[v, str(cnt)] for v, cnt in self.decomposition.singletons],
            "radii": [[r, str(cnt)] for r, cnt in self.decomposition.radii],
            "recomposition_ok": self.recomposition_ok,
        }

    @classmethod
    def from_document(cls, doc: dict) -> "ConeCertificate":
        if doc.get("kind") != "cone":
            raise ValueError(f"not a cone document: kind={doc.get('kind')!r}")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {doc.get('schema_version')!r}")
        n, j, center = _int_fields(doc, "n", "j", "center")
        _check_depth_order(n, j)
        # bits first, as for cone_bound
        if center.bit_length() < n or center != cone_center(n, j):
            raise ValueError(f"center {center} is not 2^{n + 1} - {j}")
        decomposition = ConeDecomposition(
            center=center,
            singletons=tuple((v, int(cnt)) for v, cnt in doc["singletons"]),
            radii=tuple((r, int(cnt)) for r, cnt in doc["radii"]),
        )
        return cls(
            n=n,
            j=j,
            center=center,
            decomposition=decomposition,
            recomposition_ok=doc["recomposition_ok"],
        )


def certify_cone(n: int, j: int) -> ConeCertificate:
    """Decompose the depth-n witness of order j and validate recomposition."""
    _check_depth_order(n, j)
    witness = e0_closed(n) if j == 0 else e1_closed(n)
    center = witness.cone_center()
    # decompose_cone raises with a witness offset if membership fails,
    # which would falsify the structural theorems upstream
    decomposition = decompose_cone(witness.M, center)
    return ConeCertificate(
        n=n,
        j=j,
        center=center,
        decomposition=decomposition,
        recomposition_ok=decomposition.recompose() == witness.M,
    )


def check_positivity_implication(
    cone_cert: ConeCertificate, pos_certs: list[PositivityCertificate]
) -> None:
    """A valid cone certificate at center >= 0 forces every positivity verdict.

    Raises RuntimeError when the implication is violated, which would
    mean the two certificate routes disagree.
    """
    if not cone_cert.recomposition_ok or cone_cert.center < 0:
        return
    for pc in pos_certs:
        if not pc.all_nonnegative:
            raise RuntimeError(
                f"cone certificate (n={cone_cert.n}, j={cone_cert.j}) is valid at "
                f"center {cone_cert.center} but positivity fails for slot {pc.i}"
            )


def certify_pair(n: int, j: int) -> tuple[ConeCertificate, list[PositivityCertificate]]:
    """Cone certificate plus the three slot positivity certificates at (n, j)."""
    cone_cert = certify_cone(n, j)
    pos_certs = [certify_positivity(n, i, j) for i in VALID_I]
    check_positivity_implication(cone_cert, pos_certs)
    return cone_cert, pos_certs


def document_json(doc: dict) -> str:
    """Canonical serialized form: fixed key order, one key per line."""
    return json.dumps(doc, indent=1) + "\n"


def parse_document(text: str) -> dict:
    return json.loads(text)
