"""Typed ROPA records.

A record describes one processing activity as a map from registry concept
identifiers to lists of field values.  Records are immutable values: every
update returns a new record, which keeps validators pure and makes records
safe to share across threads.

List-kind concepts (``TEXT_LIST``, ``TERM_LIST``, ``COUNTRY_LIST``) hold one
item per :class:`FieldValue`; the record's value list carries the collection.
Scalar kinds may still allow several values when the concept's multiplicity
is ``MANY`` (e.g. several processors).

The package's value types are tuples (``typing.NamedTuple``), which keeps
them cheap to build, hash and import.  Equality is therefore tuple equality:
a value equals any tuple holding the same items, whatever its class, so
``FieldValue(ValueKind.TEXT, "x") == (ValueKind.TEXT, "x")``, and equal
values hash alike.  They are immutable: assigning an attribute raises
``AttributeError``.  :class:`FieldValue`, ``rdf_export.Node`` and
``rdf_export.Triple`` check their items whenever one is built, by ``_replace``
too.  ``TripleGraph`` and ``ConceptRegistry`` are not tuples; each equals
only an instance of its own class with equal fields.  A ``TripleGraph``
holds its triples grouped by subject, and two graphs are equal when their
groupings are, that is when their triple sets are.
"""

from __future__ import annotations

import re
from enum import Enum
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

# json.dumps of a str, with ensure_ascii=False: the C function json.encoder
# binds, without the json package's start-up cost (it compiles the patterns
# of json.decoder and json.scanner).
try:
    from _json import encode_basestring as _json
except ImportError:
    from json.encoder import encode_basestring as _json

from .errors import (
    EmptyControllerName,
    InvalidRecordId,
    MultiplicityViolation,
    SchemaViolation,
    UnknownConcept,
)

if TYPE_CHECKING:
    from .registry import ConceptRegistry


class ValueKind(str, Enum):
    """Lexical kind of a single field value."""

    TEXT = "TEXT"
    TEXT_LIST = "TEXT_LIST"
    TERM = "TERM"
    TERM_LIST = "TERM_LIST"
    DURATION = "DURATION"
    COUNTRY_LIST = "COUNTRY_LIST"
    BOOLEAN = "BOOLEAN"
    URI = "URI"
    DATE = "DATE"


class Multiplicity(str, Enum):
    ONE = "ONE"
    MANY = "MANY"


class ValueSchema(NamedTuple):
    """Value contract for one concept.

    ``vocabulary`` names the controlled vocabulary for ``TERM``/``TERM_LIST``
    kinds.  Vocabularies are free-growing: terms outside the seeded list are
    flagged as warnings, never rejected.
    """

    kind: ValueKind
    multiplicity: Multiplicity
    vocabulary: str | None = None


_RECORD_ID_RE = re.compile(r"[A-Za-z0-9._~-]+\Z")
_COUNTRY_RE = re.compile(r"[A-Z]{2}\Z")
_IRI_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:[^\x00-\x20\s<>\"{}|\\^`\ud800-\udfff]+\Z")
#: ``xsd:duration`` has no week component, and its digits are ASCII.
_DURATION_RE = re.compile(
    r"P(?:\d+Y)?(?:\d+M)?(?:\d+D)?(?:T(?:\d+H)?(?:\d+M)?(?:\d+(?:\.\d+)?S)?)?\Z", re.ASCII
)
# The patterns below are compiled on first use (by re's cache), not at
# import: every command imports this module, few check timestamps or dates.
#: The one ``xsd:date`` form a DATE takes; ``date.fromisoformat`` also reads
#: ``20240301`` and ``2024-W10-1``.
_XSD_DATE = r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
#: The XSD 1.1 dateTime lexical space (https://www.w3.org/TR/xmlschema11-2/#dateTime)
#: but for the day-of-month constraint, which :func:`is_xsd_datetime` adds.
_XSD_DATETIME = (
    r"-?([1-9][0-9]{3,}|0[0-9]{3})-(0[1-9]|1[0-2])-(0[1-9]|[12][0-9]|3[01])"
    r"T(?:(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9](?:\.[0-9]+)?|24:00:00(?:\.0+)?)"
    r"(?:Z|[+-](?:(?:0[0-9]|1[0-3]):[0-5][0-9]|14:00))?"
)
_MONTH_DAYS = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def is_duration(text: str) -> bool:
    """True for ``xsd:duration`` lexical forms with at least one component:
    ISO-8601 durations without a week component or a sign."""
    if not _DURATION_RE.fullmatch(text):
        return False
    return text != "P" and not text.endswith("T")


def is_absolute_iri(text: str) -> bool:
    return bool(_IRI_RE.fullmatch(text))


def is_xsd_datetime(text: str) -> bool:
    """True for exactly the lexical forms of ``xsd:dateTime``.

    The year has at least four digits and may be negative; ``24:00:00`` and
    a missing time zone are allowed; February 29 needs a leap year.
    """
    match = re.fullmatch(_XSD_DATETIME, text)
    if match is None:
        return False
    year, month, day = match.groups()
    if int(day) > _MONTH_DAYS[int(month) - 1]:
        return False
    if month == "02" and day == "29":
        # Divisibility by 4, 100 and 400 depends only on the last four digits.
        last = int(year[-4:])
        return last % 4 == 0 and (last % 100 != 0 or last % 400 == 0)
    return True


def _indented(open_: str, items: Sequence[str], close: str, pad: str) -> str:
    """The ``json.dumps(indent=2)`` layout of an array or object at
    indentation ``pad``, from its rendered items."""
    if not items:
        return open_ + close
    inner = "\n" + pad + "  "
    return open_ + inner + ("," + inner).join(items) + "\n" + pad + close


def has_surrogate(text: str) -> bool:
    """True when ``text`` holds a lone surrogate, so it has no UTF-8 encoding."""
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False


class _FieldValueItems(NamedTuple):
    kind: ValueKind
    value: str | bool


class FieldValue(_FieldValueItems):
    """One field value: a kind tag plus a scalar payload.

    Construction validates the lexical form, so a FieldValue that exists is
    well-formed for its kind.
    """

    __slots__ = ()

    def __new__(cls, kind: ValueKind, value: str | bool) -> "FieldValue":
        if kind is ValueKind.BOOLEAN:
            if not isinstance(value, bool):
                raise ValueError(f"BOOLEAN value must be a bool, got {value!r}")
            return tuple.__new__(cls, (kind, value))
        if not isinstance(value, str):
            raise ValueError(f"{kind.value} value must be a string, got {value!r}")
        if has_surrogate(value):
            raise ValueError(f"{kind.value} value holds a lone surrogate: {value!r}")
        if kind in (ValueKind.TERM, ValueKind.TERM_LIST) and not value:
            raise ValueError("vocabulary terms must be non-empty")
        if kind is ValueKind.DURATION and not is_duration(value):
            raise ValueError(f"not an ISO-8601 duration: {value!r}")
        if kind is ValueKind.COUNTRY_LIST and not _COUNTRY_RE.fullmatch(value):
            raise ValueError(f"not an ISO-3166-1 alpha-2 code: {value!r}")
        if kind is ValueKind.URI and not is_absolute_iri(value):
            raise ValueError(f"not an absolute IRI: {value!r}")
        if kind is ValueKind.DATE:
            # Imported here, not at module level: few commands see a DATE.
            from datetime import date

            try:
                if not re.fullmatch(_XSD_DATE, value):
                    raise ValueError("not YYYY-MM-DD")
                date.fromisoformat(value)
            except ValueError as exc:
                raise ValueError(f"not an ISO-8601 date: {value!r}") from exc
        return tuple.__new__(cls, (kind, value))

    @classmethod
    def _make(cls, iterable) -> "FieldValue":
        # ``_replace`` builds through ``_make``: check the new items too.
        return cls(*iterable)

    @property
    def lexical(self) -> str:
        """Lexical form used by the CSV and RDF serializations."""
        if self.kind is ValueKind.BOOLEAN:
            return "true" if self.value else "false"
        return self.value  # type: ignore[return-value]

    @classmethod
    def from_lexical(cls, kind: ValueKind, lexical: str) -> "FieldValue":
        if kind is ValueKind.BOOLEAN:
            if lexical not in ("true", "false"):
                raise ValueError(f"not a boolean lexical form: {lexical!r}")
            return cls(kind, lexical == "true")
        return cls(kind, lexical)


def field_values(
    registry: "ConceptRegistry", concept_id: str, *raw: str | bool
) -> list[FieldValue]:
    """Build field values of the right kind for a concept from plain data."""
    kind = registry.concept(concept_id).value_schema.kind
    return [FieldValue(kind, v) for v in raw]


class RopaRecord(NamedTuple):
    """One processing activity: metadata plus populated concept fields."""

    record_id: str
    controller_name: str
    created: str
    # Read-only, so that records built without fields share no writable dict.
    fields: Mapping[str, tuple[FieldValue, ...]] = MappingProxyType({})

    def values(self, concept_id: str) -> tuple[FieldValue, ...]:
        return self.fields.get(concept_id, ())

    def has(self, concept_id: str) -> bool:
        return concept_id in self.fields

    def populated(self) -> frozenset[str]:
        return frozenset(self.fields)

    def __reduce__(self):
        # Pickle and copy rebuild through the constructor with a plain dict:
        # the default ``fields`` is a mappingproxy, which cannot be pickled.
        return RopaRecord, (self.record_id, self.controller_name, self.created, dict(self.fields))


def new_record(record_id: str, controller_name: str, created: str) -> RopaRecord:
    """Create an empty record.

    ``created`` must be an ``xsd:dateTime`` lexical form and
    ``controller_name`` must hold no lone surrogate (raises ValueError
    otherwise).
    """
    if not isinstance(record_id, str) or not _RECORD_ID_RE.fullmatch(record_id):
        raise InvalidRecordId(record_id)
    if not controller_name:
        raise EmptyControllerName()
    if has_surrogate(controller_name):
        raise ValueError(f"controller name holds a lone surrogate: {controller_name!r}")
    if not is_xsd_datetime(created):
        raise ValueError(f"not an xsd:dateTime: {created!r}")
    return RopaRecord(record_id, controller_name, created, {})


def set_field(
    record: RopaRecord,
    registry: "ConceptRegistry",
    concept_id: str,
    values: Iterable[FieldValue],
) -> RopaRecord:
    """Return a copy of ``record`` with the concept set to ``values``.

    An empty value list removes the concept.  The caller's record is never
    mutated.
    """
    descriptor = registry.concept(concept_id)
    if descriptor is registry.container:
        # The container row names the register itself, not a record field.
        raise UnknownConcept(concept_id)
    schema = descriptor.value_schema
    values = tuple(values)
    for v in values:
        if v.kind is not schema.kind:
            raise SchemaViolation(concept_id, schema.kind, v.kind)
    if schema.multiplicity is Multiplicity.ONE and len(values) > 1:
        raise MultiplicityViolation(concept_id, len(values))
    fields = dict(record.fields)
    if values:
        fields[concept_id] = values
    else:
        fields.pop(concept_id, None)
    return record._replace(fields=fields)
