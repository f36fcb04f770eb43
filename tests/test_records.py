"""Record semantics: every result and certificate record is an immutable
value with a fixed repr.

The pinned repr strings show each record's stored fields, a certificate's
listings in the kernel's value types; equal records compare and hash
equal, and no field, nor any value a certificate reads off its fields,
can be assigned or passed to the constructor.  A certificate record is
refused where it is built, by its constructor or _replace, whenever its
reader would refuse the document it writes.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcone import recurrence_engine
from chebcone.certifier import (
    ConeCertificate,
    PositivityCertificate,
    certify_cone,
    certify_positivity,
    check_positivity_implication,
    document_json,
    positivity_cone_bound,
)
from chebcone.multiset_cone import ConeDecomposition, IntegerMultiset, decompose_cone
from chebcone.recurrence_engine import (
    VALID_I,
    VALID_J,
    closed_witnesses,
    cone_center,
    e0_raw,
    growth_stats,
    raw_element,
)
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
def test_a_positivity_record_over_a_tuple_is_refused_where_built(listing):
    with pytest.raises(TypeError, match="coefficients must be a ChElement, got tuple"):
        PositivityCertificate(1, 0, 0, listing)
    with pytest.raises(TypeError, match="coefficients must be a ChElement, got tuple"):
        certify_positivity(1, 0, 0)._replace(coefficients=listing)


def test_the_implication_reads_no_verdict_off_a_tuple_listing():
    # no slot record over a tuple listing can be built to be read
    assert check_positivity_implication(
        certify_cone(1, 0), [certify_positivity(1, i, 0) for i in VALID_I]) is True
    for i, listing in zip(VALID_I, TUPLE_LISTINGS):
        with pytest.raises(TypeError, match="coefficients must be a ChElement, got tuple"):
            PositivityCertificate(1, i, 0, listing)
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


def round_trips(record):
    """Whether record reads back, field types included, from the bytes it writes."""
    back = type(record).from_document(json.loads(document_json(record.to_document())))
    return back == record and list(map(type, back)) == list(map(type, record))


def built(make):
    """make(), or None if the record is refused where it is built."""
    try:
        return make()
    except (TypeError, ValueError):
        return None


# ints in range and out, bools and floats, drawn for any index
others = st.integers(-3, 5) | st.booleans() | st.sampled_from((0.0, 1.0, 2.0, -1.0, 0.5))


def index(valid):
    """A value in valid three times in four, so that most records of three
    drawn indices build; else one of the others."""
    return st.integers(0, 3).flatmap(lambda k: st.sampled_from(valid) if k else others)


depths, slots, orders = index(range(6)), index(VALID_I), index(VALID_J)
listings = st.dictionaries(
    st.integers(0, 12), st.integers(-9, 9).filter(bool), max_size=4
).map(ChElement) | st.sampled_from(TUPLE_LISTINGS)
verdicts = st.integers(0, 3).flatmap(
    lambda k: st.booleans() if k else st.sampled_from((0, 1, 1.0, None, "no")))


@st.composite
def decompositions(draw, n, j):
    """Parts about a center on cone_center(n, j), off it, a bool or a float;
    a center that ConeDecomposition refuses gives None."""
    center = cone_center(n, j)
    if not draw(st.integers(0, 3)):
        center = draw(st.sampled_from(
            (center + draw(st.sampled_from((-2, -1, 1, 2))), draw(st.booleans()), float(center))))
    singletons = IntegerMultiset([math.ceil(center) + k for k in draw(st.lists(st.integers(0, 6), max_size=3))])
    radii = IntegerMultiset(draw(st.lists(st.integers(1, 4), max_size=3)))
    return built(lambda: ConeDecomposition(center, singletons, radii))


@st.composite
def records(draw):
    """A certificate record over drawn fields, or None if it is refused."""
    n, j = draw(depths), draw(orders)
    if draw(st.booleans()):
        i, listing = draw(slots), draw(listings)
        return built(lambda: PositivityCertificate(n, i, j, listing))
    decomposition, ok = draw(decompositions(n, j)), draw(verdicts)
    return built(lambda: ConeCertificate(n, j, decomposition, ok))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(records(), st.data())
def test_every_record_that_builds_writes_a_document_its_reader_takes_back(record, data):
    if record is None:
        return
    assert round_trips(record)
    field = data.draw(st.sampled_from(record._fields))
    value = data.draw({
        "n": depths, "i": slots, "j": orders, "coefficients": listings,
        "decomposition": decompositions(record.n, record.j), "recomposition_ok": verdicts,
    }[field])
    replaced = built(lambda: record._replace(**{field: value}))
    assert replaced is None or round_trips(replaced)


EMPTY = IntegerMultiset()

# case -> (record maker, error, message): each record writes a document its
# reader refuses, so it is refused where it is built
REFUSED = {
    "depth -2, whose cone_bound is 0.5": (
        lambda: PositivityCertificate(-2, 0, 0, ChElement({2: 1})),
        ValueError, "depth must be >= 0, got -2"),
    "slot 7": (
        lambda: PositivityCertificate(1, 7, 0, ChElement({2: 1})),
        ValueError, "slot must be -1, 0 or 1, got 7"),
    "a bool depth": (
        lambda: PositivityCertificate(True, 0, 0, ChElement({2: 1})),
        TypeError, "expected an int, got True"),
    "a center of True": (
        lambda: ConeCertificate(0, 1, ConeDecomposition(True, EMPTY, EMPTY), True),
        TypeError, "expected an int, got True"),
    "a center of 4.0": (
        lambda: ConeCertificate(1, 0, ConeDecomposition(4.0, EMPTY, EMPTY), True),
        TypeError, "expected an int, got 4.0"),
    "a float order": (
        lambda: ConeCertificate(1, 0.0, ConeDecomposition(4, EMPTY, EMPTY), True),
        TypeError, "expected an int, got 0.0"),
    "a decomposition that is a tuple": (
        lambda: ConeCertificate(1, 0, (4, EMPTY, EMPTY), True),
        TypeError, "decomposition must be a ConeDecomposition, got tuple"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_record_its_reader_would_refuse_is_refused_where_built(case):
    make, error, message = REFUSED[case]
    with pytest.raises(error, match=message):
        make()


def clear_engine_caches():
    for fn in vars(recurrence_engine).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


@pytest.mark.parametrize("fn,args,message", [
    (e0_raw, (2.0, 0), "expected an int, got 2.0"),
    (closed_witnesses, (True,), "expected an int, got True"),
    (raw_element, (1, 0.0, 0), "expected an int, got 0.0"),
    (closed_witnesses, (2.0,), "expected an int, got 2.0"),
])
def test_engine_entry_points_refuse_a_non_int_index_from_cold_caches(fn, args, message):
    clear_engine_caches()
    with pytest.raises(TypeError, match=message):
        fn(*args)
