import csv
import random

import pytest

from ropa_dpv import (
    FieldValue,
    Multiplicity,
    RopaRecord,
    ValueKind,
    field_values,
    load_registry,
    new_record,
    set_field,
)

CREATED = "2024-03-01T10:00:00+00:00"

_TERMS = ["marketing", "analytics", "billing", "support", "archival"]
_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon"]
# deliberately awkward text: separators, quotes, newlines, unicode, backslash
_TEXTS = [
    "plain text",
    "semi;colon",
    'quoted "text"',
    "line\nbreak",
    "comma, separated",
    "umläut",
    "back\\slash inside",
]
_DURATIONS = ["P1Y", "P6M", "P30D", "PT12H", "P2Y6M"]
_COUNTRIES = ["US", "JP", "BR", "AU", "IN", "CH"]
_URIS = [
    "https://example.com/doc/1",
    "https://example.com/doc/2",
    "urn:uuid:0f1e2d3c",
]
_DATES = ["2024-01-15", "2023-07-01", "2022-12-31"]


def sample_values(registry, concept_id, rng=None):
    """Deterministic (or rng-driven) valid values for a concept.

    Terms from seeded vocabularies are always drawn from the seed list, so
    sampled records validate without warnings.
    """
    schema = registry.concept(concept_id).value_schema
    pick = rng.choice if rng is not None else (lambda seq: seq[0])
    count = 1
    if schema.multiplicity is Multiplicity.MANY and rng is not None:
        count = rng.randint(1, 3)
    elif schema.multiplicity is Multiplicity.MANY:
        count = 2

    def pool():
        kind = schema.kind
        if kind in (ValueKind.TERM, ValueKind.TERM_LIST):
            known = registry.known_terms(schema.vocabulary)
            return sorted(known) if known else _TERMS
        return {
            ValueKind.TEXT: _TEXTS,
            ValueKind.TEXT_LIST: _TEXTS,
            ValueKind.DURATION: _DURATIONS,
            ValueKind.COUNTRY_LIST: _COUNTRIES,
            ValueKind.URI: _URIS,
            ValueKind.DATE: _DATES,
        }[kind]

    if schema.kind is ValueKind.BOOLEAN:
        return [FieldValue(schema.kind, True if rng is None else rng.choice([True, False]))]
    choices = pool()
    picked = []
    for _ in range(count):
        value = pick([c for c in choices if c not in picked] or choices)
        picked.append(value)
    return [FieldValue(schema.kind, v) for v in picked]


def populate(record, registry, concept_ids, rng=None):
    for cid in concept_ids:
        record = set_field(record, registry, cid, sample_values(registry, cid, rng))
    return record


def random_record(registry, rng: random.Random, record_id=None) -> RopaRecord:
    """A schema-valid record over a random subset of concepts."""
    all_ids = [c.id for c in registry.concepts]
    count = rng.randint(0, len(all_ids))
    chosen = rng.sample(all_ids, count)
    record = new_record(
        record_id or f"r{rng.randrange(10**9)}", "Sample Controller Ltd", CREATED
    )
    return populate(record, registry, chosen, rng)


@pytest.fixture(scope="session")
def registry():
    return load_registry()


@pytest.fixture()
def long_value_record(registry):
    """A record whose data controller is longer than ``csv``'s default field
    limit of 131,072 characters; that limit is in force for the test."""
    limit = csv.field_size_limit(131_072)
    cid = "data-controller"
    record = new_record("pa-long", "Acme GmbH", CREATED)
    yield set_field(record, registry, cid, field_values(registry, cid, "x" * 200_000))
    csv.field_size_limit(limit)


@pytest.fixture()
def empty_record():
    return new_record("pa-empty", "Acme GmbH", CREATED)


@pytest.fixture()
def mandatory_record(registry):
    record = new_record("pa-mandatory", "Acme GmbH", CREATED)
    return populate(record, registry, registry.mandatory_concepts())


@pytest.fixture()
def full_record(registry):
    record = new_record("pa-full", "Acme GmbH", CREATED)
    return populate(record, registry, [c.id for c in registry.concepts])


# Control characters (escaped and not), quote, backslash, U+2028 and non-BMP.
_AWKWARD = "\x00\x01\x08\x0c\x1f\x7f\r\"\\ \U0001F600"


@pytest.fixture()
def awkward_records(registry):
    """Several records whose output depends on cross-record and escape rules.

    Blank labels run past ``c9``, so label order and numbering differ; the
    ``a\\x08``/``a\\x01`` pair sorts one way as N-Triples and the other way
    as JSON text.
    """

    def build(record_id, controller, **fields):
        record = new_record(record_id, controller, CREATED)
        for cid, vals in fields.items():
            cid = cid.replace("_", "-")
            record = set_field(record, registry, cid, field_values(registry, cid, *vals))
        return record

    return [
        build(
            "pa-b", "Ctl " + _AWKWARD,
            processor=["a\x08", "a\x01", _AWKWARD],
            purposes_of_processing=["z last", "a first", "ü/é term"],
            data_combination=[True],
            data_categories_subject_to_transfer=["contact", "health-data"],
        ),
        build(
            "pa-a", "Acme\r\n",
            technical_and_organizational_measures_of_security=[
                "tab\there", "\u2028line sep", "\U0001F512 lock", "bell\x07",
            ],
            retention_deletion_periods=["P5Y", "P1M"],
            data_transfer=[False],
            privacy_notice=["https://example.com/privacy?q=1"],
        ),
        build(
            "pa-c", "\x7fdel",
            legal_basis_for_processing=["consent", "contract"],
            joint_controller=['"quoted"', "back\\slash"],
            data_protection_impact_assessment=[True],
        ),
    ]
