"""Cross-record compliance queries.

The rule set is closed: four rules, dispatched directly.  The two
substantive rules (transfer safeguards, special-category basis) are
artifact-defined heuristics built from the registry's mandatory/optional
structure, not statutory tests.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .records import RopaRecord
from .registry import ConceptRegistry, Jurisdiction
from .validation import FindingCode, gap_matrix, validate_article30

TRANSFER_COUNTRIES = "third-countries-that-personal-data-are-transferred-to"
TRANSFER_SAFEGUARDS = (
    "appropriate-safeguards-for-third-country-transfers-technology-used"
)
SPECIAL_CATEGORY = "special-category-personal-data"
LEGAL_BASIS = "legal-basis-for-processing"


class RuleId(str, Enum):
    MISSING_MANDATORY = "MISSING_MANDATORY"
    TRANSFER_WITHOUT_SAFEGUARDS = "TRANSFER_WITHOUT_SAFEGUARDS"
    SPECIAL_CATEGORY_WITHOUT_BASIS = "SPECIAL_CATEGORY_WITHOUT_BASIS"
    JURISDICTION_READINESS = "JURISDICTION_READINESS"


class QueryRule(NamedTuple):
    id: RuleId
    jurisdiction: Jurisdiction | None = None


class QueryResult(NamedTuple):
    rule: RuleId
    hits: tuple[tuple[str, str], ...]


def run_query(
    rule: QueryRule, records: Sequence[RopaRecord], registry: ConceptRegistry
) -> QueryResult:
    """Evaluate one rule over a record set.

    Hits are ordered by record id, then detail, so results are deterministic
    for equal inputs.
    """
    hits: list[tuple[str, str]] = []
    for record in records:
        if rule.id is RuleId.MISSING_MANDATORY:
            report = validate_article30(record, registry)
            for finding in report.findings:
                if finding.code is FindingCode.MISSING_MANDATORY:
                    hits.append(
                        (record.record_id, f"missing mandatory concept {finding.concept!r}")
                    )
        elif rule.id is RuleId.TRANSFER_WITHOUT_SAFEGUARDS:
            if record.has(TRANSFER_COUNTRIES) and not record.has(TRANSFER_SAFEGUARDS):
                countries = ", ".join(v.lexical for v in record.values(TRANSFER_COUNTRIES))
                hits.append(
                    (
                        record.record_id,
                        f"transfers to {countries} recorded without safeguards",
                    )
                )
        elif rule.id is RuleId.SPECIAL_CATEGORY_WITHOUT_BASIS:
            if record.has(SPECIAL_CATEGORY) and not record.has(LEGAL_BASIS):
                hits.append(
                    (
                        record.record_id,
                        "special category data recorded without a legal basis",
                    )
                )
        elif rule.id is RuleId.JURISDICTION_READINESS:
            matrix = gap_matrix(record, registry)
            for j in Jurisdiction:
                if rule.jurisdiction is not None and j is not rule.jurisdiction:
                    continue
                status = matrix[j]
                if not status.ready:
                    hits.append(
                        (
                            record.record_id,
                            f"{j.value}: {status.errors} error(s), "
                            f"{status.warnings} warning(s)",
                        )
                    )
    hits.sort()
    return QueryResult(rule=rule.id, hits=tuple(hits))
