"""Reference validation for the identity tests.

``_value_findings``, ``_validate`` and ``gap_matrix`` are the straightforward
forms of those in ``ropa_dpv.validation``: each concept's schema is looked up
in the registry and its values read through ``record.has`` and
``record.values``, and ``gap_matrix`` reads the Article 30 report's counts
through its properties for each jurisdiction.  The package must give equal
reports and matrices: the same findings, in the same order, with the same
messages.
"""

from __future__ import annotations

from ropa_dpv import (
    ConceptRegistry,
    FindingCode,
    GapStatus,
    Jurisdiction,
    JurisdictionProfile,
    Multiplicity,
    RopaRecord,
    Severity,
    ValidationFinding,
    ValidationReport,
    ValueKind,
)

_SEVERITY: dict[FindingCode, Severity] = {
    FindingCode.MISSING_MANDATORY: Severity.ERROR,
    FindingCode.MISSING_PROFILE_FIELD: Severity.WARNING,
    FindingCode.TYPE_MISMATCH: Severity.ERROR,
    FindingCode.UNKNOWN_TERM: Severity.WARNING,
}


def _finding(concept: str, code: FindingCode, message: str) -> ValidationFinding:
    return ValidationFinding(concept, _SEVERITY[code], code, message)


def _value_findings(
    record: RopaRecord, registry: ConceptRegistry, concept_id: str
) -> list[ValidationFinding]:
    """Check populated values against the concept's schema.

    ``set_field`` already enforces schemas, so TYPE_MISMATCH can only occur
    for records deserialized from external files or built by hand.
    UNKNOWN_TERM fires only for vocabularies that ship seeded terms;
    vocabularies are free-growing, so these stay warnings.
    """
    schema = registry.concept(concept_id).value_schema
    values = record.values(concept_id)
    findings: list[ValidationFinding] = []
    for v in values:
        if v.kind is not schema.kind:
            findings.append(
                _finding(
                    concept_id,
                    FindingCode.TYPE_MISMATCH,
                    f"expected {schema.kind.value} value, got {v.kind.value}",
                )
            )
    if schema.multiplicity is Multiplicity.ONE and len(values) > 1:
        findings.append(
            _finding(
                concept_id,
                FindingCode.TYPE_MISMATCH,
                f"concept holds a single value, got {len(values)}",
            )
        )
    if schema.kind in (ValueKind.TERM, ValueKind.TERM_LIST) and schema.vocabulary:
        known = registry.known_terms(schema.vocabulary)
        if known:
            for v in values:
                if v.kind is schema.kind and v.value not in known:
                    findings.append(
                        _finding(
                            concept_id,
                            FindingCode.UNKNOWN_TERM,
                            f"term {v.value!r} is not in vocabulary "
                            f"{schema.vocabulary!r} (free-growing; informational)",
                        )
                    )
    return findings


def _validate(
    record: RopaRecord,
    registry: ConceptRegistry,
    profile: JurisdictionProfile | None,
) -> ValidationReport:
    # _value_findings already emits each concept's findings in code order.
    findings: list[ValidationFinding] = []
    for descriptor in registry.concepts:
        cid = descriptor.id
        if not record.has(cid):
            if descriptor.mandatory:
                findings.append(
                    _finding(
                        cid,
                        FindingCode.MISSING_MANDATORY,
                        f"mandatory concept {cid!r} is not populated",
                    )
                )
            elif profile is not None and cid in profile.concepts:
                findings.append(
                    _finding(
                        cid,
                        FindingCode.MISSING_PROFILE_FIELD,
                        f"{profile.jurisdiction.value} template expects {cid!r}",
                    )
                )
        else:
            findings.extend(_value_findings(record, registry, cid))
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
    mandatory = registry.mandatory_concepts()
    matrix: dict[Jurisdiction, GapStatus] = {}
    for j in Jurisdiction:
        missing = len(registry.profiles[j].concepts.difference(record.fields, mandatory))
        matrix[j] = GapStatus(
            errors=report.error_count,
            warnings=report.warning_count + missing,
            ready=not report.findings and not missing,
        )
    return matrix
