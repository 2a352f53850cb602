"""Record validation against Article 30 requirements and jurisdiction profiles.

Validation is total: malformed content becomes findings, never exceptions,
so batch audits always complete.  Findings are ordered by registry table
order, then by finding code.

Each check follows a plan, built once per registry and profile: per concept,
in table order, what checking it takes and the finding it yields when it is
not populated.  A populated concept's findings are built only when one of
its values fails a check.  The plans are kept in a private slot of the
:class:`ConceptRegistry`, keyed by the profile (None for Article 30).  They
derive from the registry alone, never from a record, so there are no more of
them than distinct profiles validated against.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .records import Multiplicity, RopaRecord
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


def _plan(registry: ConceptRegistry, profile: JurisdictionProfile | None) -> tuple:
    """``(rows, gaps)`` for ``profile`` (None for Article 30), built on first use.

    ``rows`` holds ``(concept_id, kind, single, vocabulary, seeded terms or
    None, missing finding or None)`` per concept, in table order.  For Article
    30 only, ``gaps`` pairs each jurisdiction with its non-mandatory concepts.
    """
    plans = registry._plans
    plan = plans.get(profile)
    if plan is None:  # threads that race here build equal plans; either is kept
        rows = []
        for descriptor in registry.concepts:
            cid = descriptor.id
            kind, multiplicity, vocabulary = descriptor.value_schema
            known = None
            if kind.value in ("TERM", "TERM_LIST") and vocabulary:
                known = registry.known_terms(vocabulary) or None
            missing = None
            if descriptor.mandatory:
                missing = _finding(cid, FindingCode.MISSING_MANDATORY,
                                   f"mandatory concept {cid!r} is not populated")
            elif profile is not None and cid in profile.concepts:
                missing = _finding(cid, FindingCode.MISSING_PROFILE_FIELD,
                                   f"{profile.jurisdiction.value} template expects {cid!r}")
            rows.append((cid, kind, multiplicity is Multiplicity.ONE, vocabulary, known, missing))
        gaps = () if profile is not None else tuple(
            (j, registry.profiles[j].concepts.difference(registry.mandatory_concepts()))
            for j in Jurisdiction
        )
        plan = plans[profile] = (tuple(rows), gaps)
    return plan


def _validate(
    record: RopaRecord,
    registry: ConceptRegistry,
    profile: JurisdictionProfile | None,
) -> ValidationReport:
    # Populated means present in ``record.fields``, even with no values.  A
    # populated concept's findings are built, in code order, only when a value
    # is of the wrong kind, is one too many or is an unseeded term.
    # ``set_field`` already enforces kinds and multiplicity, so TYPE_MISMATCH
    # can only occur for records deserialized from external files or built by
    # hand.  Vocabularies are free-growing, so UNKNOWN_TERM stays a warning.
    fields = record.fields
    findings: list[ValidationFinding] = []
    for cid, kind, single, vocabulary, known, missing in _plan(registry, profile)[0]:
        values = fields.get(cid)
        if values is None:
            if missing is not None:
                findings.append(missing)
            continue
        for v in values:
            if v.kind is not kind or (known is not None and v.value not in known):
                break
        else:
            if not (single and len(values) > 1):
                continue
        # No comprehension here: on 3.11 it would make the loop's names closure cells.
        for v in values:
            if v.kind is not kind:
                findings.append(_finding(cid, FindingCode.TYPE_MISMATCH,
                                         f"expected {kind.value} value, got {v.kind.value}"))
        if single and len(values) > 1:
            findings.append(_finding(cid, FindingCode.TYPE_MISMATCH,
                                     f"concept holds a single value, got {len(values)}"))
        for v in values if known is not None else ():
            if v.kind is kind and v.value not in known:
                findings.append(_finding(cid, FindingCode.UNKNOWN_TERM,
                                         f"term {v.value!r} is not in vocabulary "
                                         f"{vocabulary!r} (free-growing; informational)"))
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
    errors = report.error_count
    warnings = len(report.findings) - errors
    matrix: dict[Jurisdiction, GapStatus] = {}
    for j, gaps in _plan(registry, None)[1]:
        missing = len(gaps.difference(record.fields))
        matrix[j] = GapStatus(errors, warnings + missing, not (errors or warnings or missing))
    return matrix
