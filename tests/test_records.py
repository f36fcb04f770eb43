"""Record semantics: every result and certificate record is an immutable
value with a fixed repr.

The pinned repr strings show each record's stored fields; equal records
compare and hash equal, and no field, nor any value a certificate reads
off its fields, can be assigned or passed to the constructor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcone.certifier import (
    ConeCertificate,
    PositivityCertificate,
    certify_cone,
    certify_positivity,
    positivity_cone_bound,
)
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
        "PositivityCertificate(n=1, i=0, j=0, coefficients=((2, 1), (4, 1), (6, 1)))",
    ),
    "ConeCertificate": (
        lambda: certify_cone(1, 1),
        "ConeCertificate(n=1, j=1, decomposition=ConeDecomposition("
        "center=3, singletons=(), radii=((2, 1),)), recomposition_ok=True)",
    ),
}

# the values each certificate reads off its stored fields
DERIVED = {
    "PositivityCertificate": ("all_nonnegative", "max_index", "mass", "cone_bound"),
    "ConeCertificate": ("center",),
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
    for field in record._fields + DERIVED.get(name, ()):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_certificates_store_only_what_they_certify():
    assert PositivityCertificate._fields == ("n", "i", "j", "coefficients")
    assert ConeCertificate._fields == ("n", "j", "decomposition", "recomposition_ok")


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_a_derived_value_cannot_be_passed_to_the_constructor(name):
    # a record whose stored verdict contradicts its listing cannot be built
    record = RECORDS[name][0]()
    for key in DERIVED[name]:
        with pytest.raises(TypeError, match=key):
            type(record)(**record._asdict(), **{key: getattr(record, key)})
    with pytest.raises(TypeError, match="all_nonnegative"):
        PositivityCertificate(1, 0, 0, ((2, -1),), all_nonnegative=True)


canonical_listings = st.dictionaries(
    st.integers(0, 2**70), st.integers(-(2**200), 2**200).filter(bool), max_size=6
).map(lambda terms: tuple(sorted(terms.items())))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(canonical_listings, st.integers(0, 8), st.sampled_from((-1, 0, 1)), st.sampled_from((0, 1)))
def test_positivity_properties_are_read_off_the_listing(listing, n, i, j):
    pc = PositivityCertificate(n, i, j, listing)
    values = [c for _, c in listing]
    assert pc.all_nonnegative is all(c >= 0 for c in values)
    assert pc.max_index == max((idx for idx, _ in listing), default=None)
    assert pc.mass == sum(values)
    assert pc.cone_bound == positivity_cone_bound(n, i, j)


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
