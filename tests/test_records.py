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
from ropa_dpv.records import is_absolute_iri, is_xsd_datetime
from conftest import CREATED


def test_new_record_is_empty():
    record = new_record("pa-001", "Acme GmbH", CREATED)
    assert record.fields == {}
    assert record.populated() == frozenset()


@pytest.mark.parametrize("bad_id", ["", "pa 1", "pa/1", "aé"])
def test_invalid_record_id(bad_id):
    with pytest.raises(InvalidRecordId):
        new_record(bad_id, "Acme", CREATED)


def test_an_iri_holds_no_lone_surrogate():
    # A byte of argv that is not UTF-8 reaches Python as one, which UTF-8 cannot encode.
    assert is_absolute_iri("https://x/\u00e9")
    assert not is_absolute_iri("https://x/\udcff")


def test_empty_controller_name():
    with pytest.raises(EmptyControllerName):
        new_record("pa-001", "", CREATED)


def test_invalid_created_timestamp():
    with pytest.raises(ValueError):
        new_record("pa-001", "Acme", "not-a-timestamp")


def test_created_accepts_zulu():
    new_record("pa-001", "Acme", "2024-03-01T10:00:00Z")


# Accepted by Python 3.11's datetime.fromisoformat, but not xsd:dateTime.
_NOT_XSD_DATETIMES = [
    "2024-03-01",
    "20240301T1000",
    "2024-03-01T10:00",
    "2024-03-01 10:00:00",
    "2024-03-01T10:00:00+0000",
    "2024-03-01T10:00:00+00",
    "2024-03-01t10:00:00Z",
    "2024-03-01T10:00:00.Z",
    "2024-W09-5T10:00:00",
    "2024-02-30T10:00:00",
    "2023-02-29T10:00:00",
    "1900-02-29T10:00:00",
    "2024-04-31T10:00:00",
    "2024-03-01T24:00:01",
    "2024-03-01T10:00:00+14:01",
    "2024-03-01T10:00:60",
    "02024-03-01T10:00:00",
    "\u0662\u0660\u0662\u0664-03-01T10:00:00",  # Arabic-Indic digits
    "2024-03-01T10:00:00Z\n",
]


@pytest.mark.parametrize("created", _NOT_XSD_DATETIMES)
def test_created_must_be_xsd_datetime(created):
    assert not is_xsd_datetime(created)
    with pytest.raises(ValueError):
        new_record("pa-001", "Acme", created)


@pytest.mark.parametrize(
    "created",
    [
        "2024-03-01T10:00:00",
        "2024-03-01T10:00:00Z",
        "2024-03-01T10:00:00.123456789-13:59",
        "2024-02-29T00:00:00+14:00",
        "2000-02-29T00:00:00Z",
        "2024-12-31T24:00:00.000",
        "-0044-03-15T12:00:00",
        "0000-01-01T00:00:00",
        "12345-06-30T23:59:59Z",
    ],
)
def test_created_accepts_xsd_datetime(created):
    assert is_xsd_datetime(created)
    assert new_record("pa-001", "Acme", created).created == created


def test_is_xsd_datetime_leap_year_of_a_long_year():
    # 5000 digits: too long for int() in Python 3.11, and a leap year
    year = "1" + "0" * 4999
    assert is_xsd_datetime(year + "-02-29T00:00:00")
    assert not is_xsd_datetime(year[:-2] + "04-02-30T00:00:00")


def test_controller_name_with_lone_surrogate_rejected():
    with pytest.raises(ValueError, match="surrogate"):
        new_record("pa-001", "Acme\ud800", CREATED)
    # a character outside the BMP is fine
    new_record("pa-001", "Acme \U0001F600", CREATED)


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
        # xsd:duration has no week component and takes ASCII digits only.
        (ValueKind.DURATION, "P1W"),
        (ValueKind.DURATION, "P2W"),
        (ValueKind.DURATION, "P1W2D"),
        (ValueKind.DURATION, "P\u0661Y"),
        (ValueKind.COUNTRY_LIST, "USA"),
        (ValueKind.COUNTRY_LIST, "us"),
        (ValueKind.URI, "not a uri"),
        (ValueKind.URI, "relative/path"),
        (ValueKind.URI, "http://a/\x01b"),
        (ValueKind.URI, "http://a/b\x00"),
        (ValueKind.DATE, "2024-13-01"),
        # Read by date.fromisoformat on Python 3.11+, but not xsd:date forms.
        (ValueKind.DATE, "20240301"),
        (ValueKind.DATE, "2024-W10-1"),
        (ValueKind.TERM, ""),
        (ValueKind.BOOLEAN, "true"),
        (ValueKind.TEXT, True),
        (ValueKind.TEXT, "Acme\ud800"),
        (ValueKind.TEXT_LIST, "\udfff"),
        (ValueKind.TERM, "term\udc80"),
        (ValueKind.URI, "https://example.com/\ud83d"),
    ],
)
def test_field_value_rejects_bad_lexicals(kind, value):
    with pytest.raises(ValueError):
        FieldValue(kind, value)


@pytest.mark.parametrize(
    "kind,value",
    [
        (ValueKind.DURATION, "P5Y"),
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
