"""Exception types shared across the package."""

from __future__ import annotations


class RopaError(Exception):
    """Base class for every error raised by this package."""


class EmbeddedDataCorrupt(RopaError):
    """The packaged dataset failed its checksum or schema validation.

    This signals a build or packaging defect, never a user error.
    """


class UnknownConcept(RopaError):
    def __init__(self, concept_id: str):
        super().__init__(f"unknown concept: {concept_id!r}")
        self.concept_id = concept_id


class InvalidRecordId(RopaError):
    def __init__(self, record_id: str):
        super().__init__(
            f"invalid record id {record_id!r}: must be non-empty and match [A-Za-z0-9._~-]+"
        )
        self.record_id = record_id


class EmptyControllerName(RopaError):
    def __init__(self) -> None:
        super().__init__("controller name must be non-empty")


class SchemaViolation(RopaError):
    def __init__(self, concept_id: str, expected_kind, got_kind):
        super().__init__(
            f"values for {concept_id!r} must have kind {expected_kind.value}, got {got_kind.value}"
        )
        self.concept_id = concept_id
        self.expected_kind = expected_kind
        self.got_kind = got_kind


class MultiplicityViolation(RopaError):
    def __init__(self, concept_id: str, count: int):
        super().__init__(f"{concept_id!r} holds a single value, got {count}")
        self.concept_id = concept_id
        self.count = count


class MalformedCsv(RopaError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateCell(RopaError):
    def __init__(self, record_id: str, concept_id: str, value_index: int):
        super().__init__(
            f"duplicate cell ({record_id!r}, {concept_id!r}, {value_index})"
        )
        self.record_id = record_id
        self.concept_id = concept_id
        self.value_index = value_index


class HeaderMismatch(RopaError):
    def __init__(self, missing: list[str]):
        super().__init__(
            "input does not look like the expected template; missing headers: "
            + ", ".join(repr(h) for h in missing)
        )
        self.missing = tuple(missing)


class IriConfusedWithPrefix(RopaError):
    """JSON-LD would read an absolute IRI as a compact IRI of its ``@context``.

    JSON-LD 1.1 expands ``prefix:rest`` when ``prefix`` is a context term whose
    IRI ends in a gen-delim and ``rest`` does not start with ``//``; its IRI
    Compaction algorithm stops on such an IRI with the error of this name.
    """

    def __init__(self, iri: str, prefix: str):
        super().__init__(
            f"IRI confused with prefix: JSON-LD would read {iri!r} as a compact IRI "
            f"of the context prefix {prefix!r}"
        )
        self.iri = iri
        self.prefix = prefix
