"""Record semantics: every result and certificate record is an immutable
value with a fixed repr.

The pinned repr strings show each record's stored fields, a certificate's
listings in the kernel's value types; equal records compare and hash
equal, and no field, nor any value a certificate reads off its fields,
can be assigned or passed to the constructor.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcone.certifier import (
    ConeCertificate,
    PositivityCertificate,
    certify_cone,
    certify_positivity,
    check_positivity_implication,
    positivity_cone_bound,
)
from chebcone.multiset_cone import ConeDecomposition, IntegerMultiset, decompose_cone
from chebcone.recurrence_engine import VALID_I, closed_witnesses, growth_stats
from chebcone.suites import CheckResult
from chebcone.tilde_ring import ChElement

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
        "ConeDecomposition(center=4, singletons=IntegerMultiset{}, radii=IntegerMultiset{2: 1})",
    ),
    "PositivityCertificate": (
        lambda: certify_positivity(1, 0, 0),
        "PositivityCertificate(n=1, i=0, j=0, coefficients=ChElement({2: 1, 4: 1, 6: 1}))",
    ),
    "ConeCertificate": (
        lambda: certify_cone(1, 1),
        "ConeCertificate(n=1, j=1, decomposition=ConeDecomposition("
        "center=3, singletons=IntegerMultiset{}, radii=IntegerMultiset{2: 1}), "
        "recomposition_ok=True)",
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
        PositivityCertificate(1, 0, 0, ChElement({2: -1}), all_nonnegative=True)


canonical_listings = st.dictionaries(
    st.integers(0, 2**70), st.integers(-(2**200), 2**200).filter(bool), max_size=6
).map(ChElement)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(canonical_listings, st.integers(0, 8), st.sampled_from((-1, 0, 1)), st.sampled_from((0, 1)))
def test_positivity_properties_are_read_off_the_listing(listing, n, i, j):
    pc = PositivityCertificate(n, i, j, listing)
    values = [c for _, c in listing.items()]
    assert pc.all_nonnegative is all(c >= 0 for c in values)
    assert pc.max_index == max((idx for idx, _ in listing.items()), default=None)
    assert pc.mass == sum(values)
    assert pc.cone_bound == positivity_cone_bound(n, i, j)


# the non-canonical listings a positivity record could hold as a tuple of
# pairs: a zero, indices out of order, and a negative index
TUPLE_LISTINGS = (((2, 0),), ((4, 1), (2, 1)), ((-2, 1),))


@pytest.mark.parametrize("listing", TUPLE_LISTINGS)
def test_a_positivity_record_over_a_tuple_writes_no_document(listing):
    with pytest.raises(TypeError, match="coefficients must be a ChElement, got tuple"):
        PositivityCertificate(1, 0, 0, listing).to_document()


def test_the_implication_reads_no_verdict_off_a_tuple_listing():
    cone_cert = certify_cone(1, 0)
    slots = [PositivityCertificate(1, i, 0, listing) for i, listing in zip(VALID_I, TUPLE_LISTINGS)]
    assert check_positivity_implication(cone_cert, slots) is False
    for listing in TUPLE_LISTINGS:
        slots = [PositivityCertificate(1, i, 0, listing) for i in VALID_I]
        assert check_positivity_implication(cone_cert, slots) is False
    with pytest.raises(ValueError, match="negative index -2"):
        ChElement({-2: 1})


# case -> (center, singletons, radii), cone parts as the tuples of
# (value, count) pairs a record once held: singletons out of order, a
# singleton repeated, radii out of order, and a canonical tuple
TUPLE_PARTS = {
    "unsorted singletons": (3, ((9, 1), (7, 1)), ()),
    "repeated singletons": (3, ((7, 1), (7, 1)), ()),
    "unsorted radii": (3, (), ((2, 1), (1, 1))),
    "sorted radii": (4, (), ((2, 1),)),
}


@pytest.mark.parametrize("case", sorted(TUPLE_PARTS))
def test_cone_parts_that_are_not_multisets_are_refused_where_built(case):
    center, singletons, radii = TUPLE_PARTS[case]
    with pytest.raises(TypeError, match="cone parts are IntegerMultisets, got tuple"):
        ConeDecomposition(center, singletons, radii)
    good = ConeDecomposition(center, IntegerMultiset(), IntegerMultiset())
    with pytest.raises(TypeError, match="cone parts are IntegerMultisets"):
        good._replace(singletons=singletons, radii=radii)


# case -> (singletons, radii) counts about center 3; the case names are the
# error messages.  ConeDecomposition refuses the first two; a document's
# counts are read into IntegerMultisets, which refuse a negative count and
# drop a zero, so _as_written refuses the document that states one.
BAD_PARTS = {
    "singleton 2 below center": ({2: 1}, {}),
    "radius must be >= 1": ({}, {0: 1}),
}
BAD_COUNTS = {
    "negative multiplicity -1 at 1": ({}, {1: -1}),
    "singletons is not what the record read from this document writes": ({5: 0}, {}),
}


@pytest.mark.parametrize("case", sorted(BAD_PARTS))
def test_cone_decomposition_rejects_bad_parts(case):
    singletons, radii = map(IntegerMultiset.from_counts, BAD_PARTS[case])
    with pytest.raises(ValueError, match=case):
        ConeDecomposition(center=3, singletons=singletons, radii=radii)
    with pytest.raises(ValueError, match=case):
        ConeDecomposition(3, singletons, radii)
    good = ConeDecomposition(center=3, singletons=IntegerMultiset(), radii=IntegerMultiset())
    with pytest.raises(ValueError, match=case):
        good._replace(singletons=singletons, radii=radii)


@pytest.mark.parametrize("case", sorted(BAD_PARTS | BAD_COUNTS))
def test_cone_document_with_bad_parts_is_rejected(case):
    singletons, radii = (BAD_PARTS | BAD_COUNTS)[case]
    doc = certify_cone(1, 1).to_document()
    assert doc["center"] == 3
    doc["singletons"] = [[v, str(cnt)] for v, cnt in singletons.items()]
    doc["radii"] = [[r, str(cnt)] for r, cnt in radii.items()]
    with pytest.raises(ValueError, match=case):
        ConeCertificate.from_document(doc)
