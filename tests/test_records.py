"""Record semantics: every result and certificate record is an immutable
value with a fixed repr.

The pinned repr strings are the text the same records printed when they
were frozen dataclasses; equal records compare and hash equal, and no
field can be assigned.
"""

import pytest

from chebcone.certifier import ConeCertificate, certify_cone, certify_positivity
from chebcone.multiset_cone import ConeDecomposition, decompose_cone
from chebcone.recurrence_engine import closed_witnesses, growth_stats
from chebcone.suites import CheckResult

RECORDS = {
    "CheckResult": (
        lambda: CheckResult("x", True),
        "CheckResult(name='x', passed=True, detail='')",
    ),
    "GrowthRow": (
        lambda: growth_stats(1)[0],
        "GrowthRow(n=1, j=0, support_size=3, min_index=2, max_index=6, mass=3)",
    ),
    "ConeDecomposition": (
        lambda: decompose_cone(closed_witnesses(1)[0], 4),
        "ConeDecomposition(center=4, singletons=(), radii=((2, 1),))",
    ),
    "PositivityCertificate": (
        lambda: certify_positivity(1, 0, 0),
        "PositivityCertificate(n=1, i=0, j=0, coefficients=((2, 1), (4, 1), "
        "(6, 1)), all_nonnegative=True, max_index=6, mass=3, cone_bound=4)",
    ),
    "ConeCertificate": (
        lambda: certify_cone(1, 1),
        "ConeCertificate(n=1, j=1, center=3, decomposition=ConeDecomposition("
        "center=3, singletons=(), radii=((2, 1),)), recomposition_ok=True)",
    ),
}


def _fresh_copy(record):
    """An equal record built by a second call of the constructor."""
    return type(record)(*record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_is_pinned(name):
    make, text = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    assert repr(record) == text


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equal_records_compare_and_hash_equal(name):
    record = RECORDS[name][0]()
    copy = _fresh_copy(record)
    assert copy is not record
    assert copy == record
    assert hash(copy) == hash(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


# case -> (singletons, radii) about center 3; the case names are the
# error messages
BAD_PARTS = {
    "singleton 2 below center": (((2, 1),), ()),
    "non-positive singleton count": (((5, 0),), ()),
    "non-positive radius count": ((), ((1, -1),)),
    "radius must be >= 1": ((), ((0, 1),)),
}


@pytest.mark.parametrize("case", sorted(BAD_PARTS))
def test_cone_decomposition_rejects_bad_parts(case):
    singletons, radii = BAD_PARTS[case]
    with pytest.raises(ValueError, match=case):
        ConeDecomposition(center=3, singletons=singletons, radii=radii)
    with pytest.raises(ValueError, match=case):
        ConeDecomposition(3, singletons, radii)
    good = ConeDecomposition(center=3, singletons=(), radii=())
    with pytest.raises(ValueError, match=case):
        good._replace(singletons=singletons, radii=radii)


@pytest.mark.parametrize("case", sorted(BAD_PARTS))
def test_cone_document_with_bad_parts_is_rejected(case):
    singletons, radii = BAD_PARTS[case]
    doc = certify_cone(1, 1).to_document()
    assert doc["center"] == 3
    doc["singletons"] = [[v, str(cnt)] for v, cnt in singletons]
    doc["radii"] = [[r, str(cnt)] for r, cnt in radii]
    with pytest.raises(ValueError, match=case):
        ConeCertificate.from_document(doc)
