"""Unit tests for certificate generation and serialization."""

import ast
import inspect
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebcone import certifier, cli, suites
from chebcone.certifier import (
    ConeCertificate,
    PositivityCertificate,
    certify_cone,
    certify_positivity,
    check_positivity_implication,
    document_json,
    positivity_cone_bound,
)
from chebcone.multiset_cone import ConeMembershipError, IntegerMultiset, decompose_cone
from chebcone.recurrence_engine import VALID_I, VALID_J, closed_witnesses, raw_element
from chebcone.tilde_ring import ChElement, fold_L


def test_positivity_certificate_basic():
    pc = certify_positivity(1, 0, 0)
    assert pc.coefficients == ChElement({2: 1, 4: 1, 6: 1})
    assert pc.all_nonnegative
    assert pc.max_index == 6
    assert pc.mass == 3
    assert pc.cone_bound == 4


def test_positivity_certificate_vacuous():
    pc = certify_positivity(0, 0, 1)
    assert pc.coefficients == ChElement()
    assert pc.all_nonnegative
    assert pc.max_index is None
    assert pc.mass == 0


def test_positivity_certificate_doubled_slot():
    pc = certify_positivity(1, -1, 1)
    assert pc.coefficients == ChElement({0: 2, 2: 2, 4: 2})
    assert pc.all_nonnegative


def test_cone_bounds():
    assert positivity_cone_bound(1, 0, 0) == 4
    assert positivity_cone_bound(1, 1, 0) == 3
    assert positivity_cone_bound(1, -1, 0) == 3
    assert positivity_cone_bound(1, 0, 1) == 3
    assert positivity_cone_bound(1, 1, 1) == 2
    assert positivity_cone_bound(1, -1, 1) == 2
    # bounds stay non-negative at depth zero for every slot
    assert min(positivity_cone_bound(0, i, j) for i in (-1, 0, 1) for j in (0, 1)) == 0


def test_cone_certificate_examples():
    cc = certify_cone(1, 0)
    assert cc.center == 4
    assert cc.decomposition.radii == IntegerMultiset([2])
    assert cc.decomposition.singletons == IntegerMultiset()
    assert cc.recomposition_ok

    cc = certify_cone(0, 1)
    assert cc.center == 1
    assert not cc.decomposition.radii and not cc.decomposition.singletons
    assert cc.recomposition_ok

    cc = certify_cone(2, 0)
    assert cc.center == 8
    assert cc.recomposition_ok


def test_certify_argument_validation():
    with pytest.raises(ValueError):
        certify_positivity(-1, 0, 0)
    with pytest.raises(ValueError):
        certify_positivity(1, 2, 0)
    with pytest.raises(ValueError, match="order must be 0 or 1") as info:
        certify_cone(1, 2)
    assert type(info.value) is ValueError  # an error, not a returned violation


def test_positivity_roundtrip():
    for args in ((0, 0, 1), (1, -1, 1), (2, 0, 0), (3, 1, 1)):
        pc = certify_positivity(*args)
        doc = pc.to_document()
        text = document_json(doc)
        assert PositivityCertificate.from_document(json.loads(text)) == pc


def test_cone_roundtrip():
    for n, j in ((0, 0), (1, 1), (2, 0), (3, 1)):
        cc = certify_cone(n, j)
        text = document_json(cc.to_document())
        assert ConeCertificate.from_document(json.loads(text)) == cc


def test_roundtrip_preserves_large_counts():
    # depth-4 certificates have counts far beyond 64-bit range
    cc = certify_cone(4, 0)
    big = max(cnt for _, cnt in cc.decomposition.radii.items())
    assert big > 2**64
    restored = ConeCertificate.from_document(json.loads(document_json(cc.to_document())))
    assert restored == cc

    pc = certify_positivity(4, 0, 0)
    assert pc.mass > 2**64
    restored_pc = PositivityCertificate.from_document(
        json.loads(document_json(pc.to_document()))
    )
    assert restored_pc == pc


def test_from_document_rejects_wrong_kind():
    pc_doc = certify_positivity(1, 0, 0).to_document()
    with pytest.raises(ValueError):
        ConeCertificate.from_document(pc_doc)
    cc_doc = certify_cone(1, 0).to_document()
    with pytest.raises(ValueError):
        PositivityCertificate.from_document(cc_doc)
    bad = dict(pc_doc)
    bad["schema_version"] = 999
    with pytest.raises(ValueError):
        PositivityCertificate.from_document(bad)


def certificates(n, j):
    """The cone certificate of (n, j) and the positivity certificates of its slots."""
    return certify_cone(n, j), [certify_positivity(n, i, j) for i in VALID_I]


def test_implication_verdict_holds_on_every_certified_pair():
    for n in range(5):
        for j in (0, 1):
            cone_cert, pos_certs = certificates(n, j)
            assert cone_cert.recomposition_ok
            assert len(pos_certs) == 3
            assert all(pc.all_nonnegative for pc in pos_certs)
            assert check_positivity_implication(cone_cert, pos_certs) is True


def test_implication_verdict_is_false_for_a_broken_listing():
    cone_cert, pos_certs = certificates(1, 0)
    broken = PositivityCertificate(1, 0, 0, ChElement({2: -1}))
    assert not broken.all_nonnegative
    assert check_positivity_implication(cone_cert, [broken]) is False
    assert check_positivity_implication(cone_cert, pos_certs[1:] + [broken]) is False
    assert check_positivity_implication(cone_cert, [pos_certs[0], broken, pos_certs[2]]) is False


@pytest.mark.parametrize("pos_certs", [
    [certify_positivity(3, -1, 1)],
    [],
    [certify_positivity(1, i, 0) for i in (-1, 0)],
    [certify_positivity(1, i, 0) for i in (-1, 0, 0, 1)],
    [certify_positivity(1, i, 1) for i in VALID_I],
    [certify_positivity(2, i, 0) for i in VALID_I],
])
def test_implication_is_false_for_certificates_that_do_not_belong_together(pos_certs):
    assert all(pc.all_nonnegative for pc in pos_certs)
    assert check_positivity_implication(certify_cone(1, 0), pos_certs) is False
    # the three slots of the cone certificate's own (n, j), in any order
    slots = [certify_positivity(1, i, 0) for i in (1, -1, 0)]
    assert check_positivity_implication(certify_cone(1, 0), slots) is True


def test_a_cone_record_off_its_center_is_refused():
    # a depth-2 record over the depth-1 witness's decomposition, centered at 4, not 8
    decomposition = decompose_cone(closed_witnesses(1)[0], 4)
    with pytest.raises(ValueError, match=r"center 4 is not 2\^3 - 0"):
        ConeCertificate(2, 0, decomposition, True)
    with pytest.raises(ValueError, match=r"center 4 is not 2\^3 - 0"):
        certify_cone(2, 0)._replace(decomposition=decomposition)
    # the document such a record would write is refused on the way back too
    doc = certify_cone(1, 0).to_document()
    doc["n"] = 2
    assert doc["center"] == 4
    with pytest.raises(ValueError, match=r"center 4 is not 2\^3 - 0"):
        ConeCertificate.from_document(doc)


@pytest.mark.parametrize("ok", [1, "no", None])
def test_a_cone_record_with_a_verdict_that_is_not_a_bool_is_refused(ok):
    cc = certify_cone(1, 1)
    with pytest.raises(ValueError, match=f"recomposition_ok must be a bool, got {ok!r}"):
        ConeCertificate(1, 1, cc.decomposition, ok)
    with pytest.raises(ValueError, match=f"recomposition_ok must be a bool, got {ok!r}"):
        cc._replace(recomposition_ok=ok)
    slots = [certify_positivity(1, i, 1) for i in VALID_I]
    assert check_positivity_implication(cc, slots) is True
    assert check_positivity_implication(cc._replace(recomposition_ok=False), slots) is False


def test_a_witness_outside_its_cone_is_returned_as_its_violation(monkeypatch):
    # {2, 4, 6} moved to center 5: mult(2) = 1 but mult(8) = 0
    real = certifier.cone_center
    monkeypatch.setattr(certifier, "cone_center",
                        lambda n, j: real(n, j) + ((n, j) == (1, 0)))
    cone_cert, pos_certs = certificates(1, 0)
    assert type(cone_cert) is ConeMembershipError
    assert (cone_cert.center, cone_cert.offset, cone_cert.detail) == (
        5, 3, "mult(2)=1 > mult(8)=0")
    assert len(pos_certs) == 3 and all(pc.all_nonnegative for pc in pos_certs)
    assert check_positivity_implication(cone_cert, pos_certs) is False


def test_no_front_end_catches_a_cone_violation():
    # certify_cone returns the violation, so the command and the suites
    # only read it; no except clause of theirs names it
    for module in (cli, suites):
        handlers = [node for node in ast.walk(ast.parse(inspect.getsource(module)))
                    if isinstance(node, ast.ExceptHandler)]
        assert handlers
        for handler in handlers:
            assert handler.type is None or "ConeMembershipError" not in ast.unparse(handler.type)


def test_document_key_order_is_stable():
    doc = certify_positivity(1, 0, 0).to_document()
    assert list(doc.keys()) == [
        "schema_version",
        "kind",
        "n",
        "i",
        "j",
        "cone_bound",
        "coefficients",
        "all_nonnegative",
        "max_index",
        "mass",
    ]
    assert document_json(doc) == document_json(certify_positivity(1, 0, 0).to_document())
    assert tuple(certify_cone(1, 1).to_document()) == (
        "schema_version", "kind", "n", "j", "center", "singletons", "radii", "recomposition_ok")


@pytest.mark.parametrize("cls,doc,key", [
    (PositivityCertificate, certify_positivity(1, 0, 0).to_document(), "verified"),
    (ConeCertificate, certify_cone(1, 1).to_document(), "note"),
])
def test_from_document_rejects_an_unknown_key(cls, doc, key):
    assert cls.from_document(doc).to_document() == doc
    with pytest.raises(ValueError, match=f"unknown field '{key}'"):
        cls.from_document({**doc, key: True})
    # the kind and schema checks come first
    with pytest.raises(ValueError, match="unsupported schema version 2"):
        cls.from_document({**doc, key: True, "schema_version": 2})


def _positivity_doc():
    doc = certify_positivity(1, 0, 0).to_document()
    assert doc["coefficients"] == [[2, "1"], [4, "1"], [6, "1"]]
    return doc


MISSING = object()  # a row value that deletes its field


def _set(doc, key, value):
    if value is MISSING:
        del doc[key]
    else:
        doc[key] = value


def test_from_document_rejects_verdict_disagreeing_with_listing():
    doc = _positivity_doc()
    doc["coefficients"] = [[2, "-1"], [4, "1"], [6, "1"]]
    doc["mass"] = "1"
    with pytest.raises(ValueError, match="all_nonnegative"):
        PositivityCertificate.from_document(doc)
    doc = _positivity_doc()
    doc["all_nonnegative"] = False
    with pytest.raises(ValueError, match="all_nonnegative"):
        PositivityCertificate.from_document(doc)


def test_from_document_rejects_mass_disagreeing_with_listing():
    doc = _positivity_doc()
    doc["mass"] = "4"
    with pytest.raises(ValueError, match="mass"):
        PositivityCertificate.from_document(doc)


def test_from_document_rejects_a_mass_of_another_type_by_name():
    doc = _positivity_doc()
    assert doc["mass"] == "3"
    doc["mass"] = 3
    with pytest.raises(ValueError, match="^mass ") as info:
        PositivityCertificate.from_document(doc)
    assert "3" not in str(info.value)


def test_a_mismatch_error_never_prints_the_stated_listing():
    doc = certify_positivity(4, 0, 0).to_document()
    doc["max_index"] = doc["coefficients"]
    with pytest.raises(ValueError, match="max_index") as info:
        PositivityCertificate.from_document(doc)
    assert len(str(info.value)) < 80


def test_from_document_rejects_max_index_disagreeing_with_listing():
    doc = _positivity_doc()
    doc["max_index"] = 4
    with pytest.raises(ValueError, match="max_index"):
        PositivityCertificate.from_document(doc)
    vacuous = certify_positivity(0, 0, 1).to_document()
    vacuous["max_index"] = 0
    with pytest.raises(ValueError, match="max_index"):
        PositivityCertificate.from_document(vacuous)


@pytest.mark.parametrize("key,value,match", [
    ("cone_bound", 3, "cone_bound"),
    ("cone_bound", 2 ** 10, "cone_bound"),
    ("cone_bound", "4", "cone_bound must be an integer"),
    ("n", -1, "depth"),
    ("n", True, "n must be an integer"),
    ("n", 1.0, "n must be an integer"),
    ("i", 2, "slot must be"),
    ("j", 2, "order must be 0 or 1"),
    ("schema_version", True, "unsupported schema version True"),
    ("schema_version", 1.0, "unsupported schema version 1.0"),
    ("schema_version", MISSING, "unsupported schema version None"),
    ("kind", MISSING, "not a positivity document"),
    ("n", MISSING, "missing field 'n'"),
    ("cone_bound", MISSING, "missing field 'cone_bound'"),
])
def test_from_document_rejects_out_of_range_positivity_field(key, value, match):
    doc = _positivity_doc()
    _set(doc, key, value)
    with pytest.raises(ValueError, match=match):
        PositivityCertificate.from_document(doc)


@pytest.mark.parametrize("key,value,match", [
    ("center", 4, "center"),
    ("center", 3.0, "center must be an integer"),
    ("n", -1, "depth"),
    ("n", False, "n must be an integer"),
    ("j", 2, "order must be 0 or 1"),
    ("j", True, "j must be an integer"),
    ("schema_version", True, "unsupported schema version True"),
    ("schema_version", 1.0, "unsupported schema version 1.0"),
    ("center", MISSING, "missing field 'center'"),
    ("j", MISSING, "missing field 'j'"),
])
def test_from_document_rejects_out_of_range_cone_field(key, value, match):
    doc = certify_cone(1, 1).to_document()
    assert ConeCertificate.from_document(doc).center == 3
    _set(doc, key, value)
    with pytest.raises(ValueError, match=match):
        ConeCertificate.from_document(doc)


@pytest.mark.parametrize("key,value,match", [
    ("coefficients", [[2, "1"], [4.5, "1"], [6, "1"]], "not canonical"),
    ("coefficients", [[2, "1"], [True, "1"], [6, "1"]], "not canonical"),
    ("coefficients", [[2, "1"], [4, True], [6, "1"]], "not canonical"),
    ("coefficients", [[2, 1], [4, "1"], [6, "1"]], "not canonical"),
    ("coefficients", [[2, "1"], [4, "1"], [6, " 1 "]], "not canonical"),
    ("coefficients", [[2, "1"], [4, "01"], [6, "1"]], "not canonical"),
    ("coefficients", [[4, "1"], [2, "1"], [6, "1"]], "not canonical"),
    ("coefficients", [[2, "1"], [4, "1"], [4, "1"], [6, "1"]], "not canonical"),
    ("coefficients", [[2, "1"], [3, "0"], [4, "1"], [6, "1"]], "coefficients is not what"),
    ("coefficients", [[-2, "1"], [2, "1"], [4, "1"], [6, "1"]], "negative index"),
    ("coefficients", [[2, "1"], [4, "1", "1"], [6, "1"]], "not canonical"),
    ("all_nonnegative", 1, "all_nonnegative"),
    ("max_index", 6.0, "max_index"),
    ("coefficients", None, "coefficients must be a list, got NoneType"),
    ("coefficients", {"2": "1"}, "coefficients must be a list, got dict"),
    ("coefficients", MISSING, "missing field 'coefficients'"),
    ("all_nonnegative", MISSING, "missing field 'all_nonnegative'"),
    ("max_index", MISSING, "missing field 'max_index'"),
    ("mass", MISSING, "missing field 'mass'"),
])
def test_from_document_rejects_a_positivity_document_that_is_not_canonical(key, value, match):
    doc = _positivity_doc()
    _set(doc, key, value)
    with pytest.raises(ValueError, match=match):
        PositivityCertificate.from_document(doc)


@pytest.mark.parametrize("key,value,match", [
    ("singletons", [[7, 11], [9, "5"]], "not canonical"),
    ("singletons", [[7, 1.9], [9, "5"]], "not canonical"),
    ("singletons", [[7.5, "11"], [9, "5"]], "not canonical"),
    ("singletons", [[9, "5"], [7, "11"]], "not canonical"),
    ("singletons", [[7, "11"], [7, "11"]], "not canonical"),
    ("radii", [[2, "25"], [3.5, "2"]], "not canonical"),
    ("radii", [[2, "25"], [4, "+27"]], "not canonical"),
    ("radii", [[4, "27"], [2, "25"]], "not canonical"),
    ("radii", [[2, "25"], [2, "25"]], "not canonical"),
    ("recomposition_ok", "yes", "recomposition_ok must be a bool"),
    ("recomposition_ok", 1, "recomposition_ok must be a bool"),
    ("recomposition_ok", None, "recomposition_ok must be a bool, got None"),
    ("radii", None, "radii must be a list, got NoneType"),
    ("singletons", "7", "singletons must be a list, got str"),
    ("radii", MISSING, "missing field 'radii'"),
    ("singletons", MISSING, "missing field 'singletons'"),
    ("recomposition_ok", MISSING, "missing field 'recomposition_ok'"),
])
def test_from_document_rejects_a_cone_document_that_is_not_canonical(key, value, match):
    doc = certify_cone(2, 1).to_document()
    assert ConeCertificate.from_document(doc).center == 7
    _set(doc, key, value)
    with pytest.raises(ValueError, match=match):
        ConeCertificate.from_document(doc)


@pytest.mark.parametrize("cls", [PositivityCertificate, ConeCertificate])
@pytest.mark.parametrize("doc", [None, [], "positivity", 1, [["kind", "cone"]]])
def test_from_document_rejects_a_document_that_is_not_an_object(cls, doc):
    with pytest.raises(ValueError, match="a certificate document is a JSON object"):
        cls.from_document(doc)


@pytest.mark.parametrize("n", [10**10, 10**4000])
def test_from_document_rejects_a_huge_depth_without_building_its_power(n):
    # 2^(n+1) would need gigabytes; the stated values are checked by bit
    # length first, so rejection is immediate
    pos = _positivity_doc()
    pos["n"] = n
    with pytest.raises(ValueError, match="cone_bound"):
        PositivityCertificate.from_document(pos)
    cone = certify_cone(1, 1).to_document()
    cone["n"] = n
    with pytest.raises(ValueError, match="center"):
        ConeCertificate.from_document(cone)


def test_certificate_records_hold_the_kernel_value_types():
    for n in range(5):
        for j in VALID_J:
            cone_cert, pos_certs = certificates(n, j)
            parts = cone_cert.decomposition.singletons, cone_cert.decomposition.radii
            assert all(type(part) is IntegerMultiset for part in parts)
            assert all(type(pc.coefficients) is ChElement for pc in pos_certs)


def test_every_certified_document_passes_its_own_checks():
    for n in range(6):
        for j in VALID_J:
            cone_cert, pos_certs = certificates(n, j)
            for record in [cone_cert] + pos_certs:
                text = document_json(record.to_document())
                assert type(record).from_document(json.loads(text)) == record


@pytest.mark.parametrize("cls,doc,key,entry,shown", [
    (PositivityCertificate, _positivity_doc(), "coefficients", [2, "1e3"], "[2, '1e3']"),
    (PositivityCertificate, _positivity_doc(), "coefficients", [2, "7" * 5000], "[2, '777"),
    (ConeCertificate, certify_cone(2, 1).to_document(), "radii", [2, "x"], "[2, 'x']"),
])
def test_a_listing_value_int_refuses_is_named_with_its_key(cls, doc, key, entry, shown):
    # int() refuses "1e3" and "x", and a string past 4,300 digits; the error
    # names the key and the entry, shortened, not int()'s own message
    doc[key][0] = entry
    with pytest.raises(ValueError, match=f"^{key} entry ") as info:
        cls.from_document(doc)
    message = str(info.value)
    assert message.startswith(f"{key} entry {shown}") and message.endswith("is not canonical")
    assert len(message) < 100


def test_positivity_certificate_is_the_listing_of_the_raw_fold():
    # certify_positivity reads the closed route; it must be the certificate
    # of the fold of the raw recurrence's element
    for n in range(6):
        for i in VALID_I:
            for j in VALID_J:
                fold = fold_L(raw_element(n, i, j))
                assert certify_positivity(n, i, j) == PositivityCertificate(n, i, j, fold)


def reference_json(doc: dict) -> str:
    """The layout document_json writes, by the standard library encoder."""
    return json.dumps(doc, indent=1) + "\n"


def test_document_json_matches_the_reference_on_every_certified_document():
    for n in range(6):
        for j in VALID_J:
            cone_cert, pos_certs = certificates(n, j)
            for doc in [cone_cert.to_document()] + [pc.to_document() for pc in pos_certs]:
                assert document_json(doc) == reference_json(doc)


def test_document_json_matches_the_reference_on_edge_documents():
    vacuous = certify_positivity(0, 0, 1).to_document()
    assert vacuous["coefficients"] == [] and vacuous["max_index"] is None
    negative = PositivityCertificate(1, 0, 0, ChElement({2: -1, 4: -(2**100), 6: 3})).to_document()
    empty_parts = certify_cone(0, 1).to_document()
    assert empty_parts["singletons"] == [] and empty_parts["radii"] == []
    for doc in (vacuous, negative, empty_parts):
        assert document_json(doc) == reference_json(doc)


canonical_listings = st.dictionaries(
    st.integers(-(2**70), 2**70), st.integers(-(2**200), 2**200).filter(bool), max_size=6
).map(lambda terms: [[idx, str(c)] for idx, c in sorted(terms.items())])
scalars = st.none() | st.booleans() | st.integers(-(2**80), 2**80) | st.text(max_size=8)
canonical_documents = st.dictionaries(
    st.text(max_size=8), canonical_listings | scalars, min_size=1, max_size=8
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(canonical_documents)
def test_document_json_matches_the_reference_on_random_documents(doc):
    assert document_json(doc) == reference_json(doc)


int_listings = st.dictionaries(
    st.integers(0, 2**70), st.integers(-(2**200), 2**200).filter(bool), max_size=6
).map(ChElement)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(int_listings)
def test_positivity_listing_round_trips_through_its_document(listing):
    pc = PositivityCertificate(1, 0, 0, listing)
    doc = pc.to_document()
    assert document_json(doc) == reference_json(doc)
    assert PositivityCertificate.from_document(json.loads(document_json(doc))) == pc

