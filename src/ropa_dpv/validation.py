"""Record validation against Article 30 requirements and jurisdiction profiles.

Validation is total: malformed content becomes findings, never exceptions,
so batch audits always complete.  Findings are ordered by registry table
order, then by finding code.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .records import FieldValue, Multiplicity, RopaRecord, ValueKind, ValueSchema
from .registry import ConceptRegistry, Jurisdiction, JurisdictionProfile


class Severity(str, Enum):
    ERROR = "ERROR"
    WARNING = "WARNING"


class FindingCode(str, Enum):
    MISSING_MANDATORY = "MISSING_MANDATORY"
    MISSING_PROFILE_FIELD = "MISSING_PROFILE_FIELD"
    TYPE_MISMATCH = "TYPE_MISMATCH"
    UNKNOWN_TERM = "UNKNOWN_TERM"


_SEVERITY: dict[FindingCode, Severity] = {
    FindingCode.MISSING_MANDATORY: Severity.ERROR,
    FindingCode.MISSING_PROFILE_FIELD: Severity.WARNING,
    FindingCode.TYPE_MISMATCH: Severity.ERROR,
    FindingCode.UNKNOWN_TERM: Severity.WARNING,
}


class ValidationFinding(NamedTuple):
    concept: str
    severity: Severity
    code: FindingCode
    message: str


class ValidationReport(NamedTuple):
    findings: tuple[ValidationFinding, ...]

    @property
    def compliant(self) -> bool:
        return not any(f.severity is Severity.ERROR for f in self.findings)

    @property
    def error_count(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warning_count(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.WARNING)


def _finding(concept: str, code: FindingCode, message: str) -> ValidationFinding:
    return ValidationFinding(concept, _SEVERITY[code], code, message)


def _value_findings(
    concept_id: str,
    schema: ValueSchema,
    values: tuple[FieldValue, ...],
    registry: ConceptRegistry,
) -> list[ValidationFinding]:
    """Check a concept's populated values against its schema.

    ``set_field`` already enforces schemas, so TYPE_MISMATCH can only occur
    for records deserialized from external files or built by hand.
    UNKNOWN_TERM fires only for vocabularies that ship seeded terms;
    vocabularies are free-growing, so these stay warnings.
    """
    kind = schema.kind
    findings = [
        _finding(concept_id, FindingCode.TYPE_MISMATCH,
                 f"expected {kind.value} value, got {v.kind.value}")
        for v in values
        if v.kind is not kind
    ]
    if schema.multiplicity is Multiplicity.ONE and len(values) > 1:
        findings.append(_finding(concept_id, FindingCode.TYPE_MISMATCH,
                                 f"concept holds a single value, got {len(values)}"))
    if kind in (ValueKind.TERM, ValueKind.TERM_LIST) and schema.vocabulary:
        known = registry.known_terms(schema.vocabulary)
        findings += [
            _finding(concept_id, FindingCode.UNKNOWN_TERM,
                     f"term {v.value!r} is not in vocabulary "
                     f"{schema.vocabulary!r} (free-growing; informational)")
            for v in values
            if known and v.kind is kind and v.value not in known
        ]
    return findings


def _validate(
    record: RopaRecord,
    registry: ConceptRegistry,
    profile: JurisdictionProfile | None,
) -> ValidationReport:
    # _value_findings already emits each concept's findings in code order.
    # Populated means present in ``record.fields``, even with no values.
    fields = record.fields
    findings: list[ValidationFinding] = []
    for descriptor in registry.concepts:
        cid = descriptor.id
        values = fields.get(cid)
        if values is not None:
            findings += _value_findings(cid, descriptor.value_schema, values, registry)
        elif descriptor.mandatory:
            findings.append(_finding(cid, FindingCode.MISSING_MANDATORY,
                                     f"mandatory concept {cid!r} is not populated"))
        elif profile is not None and cid in profile.concepts:
            findings.append(_finding(cid, FindingCode.MISSING_PROFILE_FIELD,
                                     f"{profile.jurisdiction.value} template expects {cid!r}"))
    return ValidationReport(findings=tuple(findings))


def validate_article30(record: RopaRecord, registry: ConceptRegistry) -> ValidationReport:
    """One MISSING_MANDATORY error per mandatory concept absent from the record."""
    return _validate(record, registry, None)


def validate_against_profile(
    record: RopaRecord, profile: JurisdictionProfile, registry: ConceptRegistry
) -> ValidationReport:
    """Article 30 findings plus a warning per unpopulated profile concept.

    Profile checks add only warnings: the error set is always identical to
    ``validate_article30``.
    """
    return _validate(record, registry, profile)


class GapStatus(NamedTuple):
    errors: int
    warnings: int
    ready: bool


def gap_matrix(
    record: RopaRecord, registry: ConceptRegistry
) -> dict[Jurisdiction, GapStatus]:
    """Validate the record against all six profiles.

    Equal to :func:`validate_against_profile` per jurisdiction: the Article 30
    report is shared, and each profile adds one warning per concept of its
    own that is neither populated nor mandatory.  ``ready`` means zero errors
    and zero warnings for that jurisdiction.
    """
    report = validate_article30(record, registry)
    errors, warnings = report.error_count, report.warning_count
    mandatory = registry.mandatory_concepts()
    matrix: dict[Jurisdiction, GapStatus] = {}
    for j in Jurisdiction:
        missing = len(registry.profiles[j].concepts.difference(record.fields, mandatory))
        matrix[j] = GapStatus(errors, warnings + missing, not (errors or warnings or missing))
    return matrix
