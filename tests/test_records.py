"""Record construction, field values, and schema enforcement."""

import pytest

from ropa_dpv import (
    EmptyControllerName,
    FieldValue,
    InvalidRecordId,
    MultiplicityViolation,
    SchemaViolation,
    UnknownConcept,
    ValueKind,
    field_values,
    new_record,
    set_field,
)
from conftest import CREATED


def test_new_record_is_empty():
    record = new_record("pa-001", "Acme GmbH", CREATED)
    assert record.fields == {}
    assert record.populated() == frozenset()


@pytest.mark.parametrize("bad_id", ["", "pa 1", "pa/1", "aé"])
def test_invalid_record_id(bad_id):
    with pytest.raises(InvalidRecordId):
        new_record(bad_id, "Acme", CREATED)


def test_empty_controller_name():
    with pytest.raises(EmptyControllerName):
        new_record("pa-001", "", CREATED)


def test_invalid_created_timestamp():
    with pytest.raises(ValueError):
        new_record("pa-001", "Acme", "not-a-timestamp")


def test_created_accepts_zulu():
    new_record("pa-001", "Acme", "2024-03-01T10:00:00Z")


def test_set_field_and_get(registry):
    record = new_record("pa-001", "Acme", CREATED)
    values = field_values(registry, "purposes-of-processing", "marketing")
    updated = set_field(record, registry, "purposes-of-processing", values)
    assert updated.values("purposes-of-processing") == tuple(values)
    # value semantics: the original record is unchanged
    assert not record.has("purposes-of-processing")


def test_set_then_clear_removes_key(registry):
    record = new_record("pa-001", "Acme", CREATED)
    record = set_field(
        record, registry, "data-protection-impact-assessment",
        field_values(registry, "data-protection-impact-assessment", True),
    )
    assert record.has("data-protection-impact-assessment")
    record = set_field(record, registry, "data-protection-impact-assessment", [])
    assert not record.has("data-protection-impact-assessment")


def test_kind_mismatch_is_schema_violation(registry):
    record = new_record("pa-001", "Acme", CREATED)
    with pytest.raises(SchemaViolation) as excinfo:
        set_field(
            record, registry, "retention-deletion-periods",
            [FieldValue(ValueKind.TEXT, "5y")],
        )
    assert excinfo.value.expected_kind is ValueKind.DURATION
    assert excinfo.value.got_kind is ValueKind.TEXT


def test_multiplicity_violation(registry):
    record = new_record("pa-001", "Acme", CREATED)
    with pytest.raises(MultiplicityViolation):
        set_field(
            record, registry, "privacy-notice",
            field_values(registry, "privacy-notice",
                         "https://example.com/a", "https://example.com/b"),
        )


def test_unknown_concept_and_container_rejected(registry):
    record = new_record("pa-001", "Acme", CREATED)
    with pytest.raises(UnknownConcept):
        set_field(record, registry, "nonexistent", [])
    with pytest.raises(UnknownConcept):
        set_field(record, registry, "register-of-processing-activities", [])


@pytest.mark.parametrize(
    "kind,value",
    [
        (ValueKind.DURATION, "soon"),
        (ValueKind.DURATION, "P"),
        (ValueKind.DURATION, "P5YT"),
        (ValueKind.COUNTRY_LIST, "USA"),
        (ValueKind.COUNTRY_LIST, "us"),
        (ValueKind.URI, "not a uri"),
        (ValueKind.URI, "relative/path"),
        (ValueKind.URI, "http://a/\x01b"),
        (ValueKind.URI, "http://a/b\x00"),
        (ValueKind.DATE, "2024-13-01"),
        (ValueKind.TERM, ""),
        (ValueKind.BOOLEAN, "true"),
        (ValueKind.TEXT, True),
    ],
)
def test_field_value_rejects_bad_lexicals(kind, value):
    with pytest.raises(ValueError):
        FieldValue(kind, value)


@pytest.mark.parametrize(
    "kind,value",
    [
        (ValueKind.DURATION, "P5Y"),
        (ValueKind.DURATION, "P1W"),
        (ValueKind.DURATION, "PT12H"),
        (ValueKind.DURATION, "P2Y6M3DT4H5M6.5S"),
        (ValueKind.COUNTRY_LIST, "US"),
        (ValueKind.URI, "urn:uuid:abc"),
        (ValueKind.DATE, "2024-01-15"),
        (ValueKind.BOOLEAN, False),
    ],
)
def test_field_value_accepts_good_lexicals(kind, value):
    FieldValue(kind, value)


def test_boolean_lexical_round_trip():
    assert FieldValue(ValueKind.BOOLEAN, True).lexical == "true"
    assert FieldValue.from_lexical(ValueKind.BOOLEAN, "false").value is False
    with pytest.raises(ValueError):
        FieldValue.from_lexical(ValueKind.BOOLEAN, "yes")
