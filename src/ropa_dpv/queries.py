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
    if rule.id is RuleId.MISSING_MANDATORY:
        for record in records:
            hits += [
                (record.record_id, f"missing mandatory concept {finding.concept!r}")
                for finding in validate_article30(record, registry).findings
                if finding.code is FindingCode.MISSING_MANDATORY
            ]
    elif rule.id is RuleId.TRANSFER_WITHOUT_SAFEGUARDS:
        for record in records:
            if record.has(TRANSFER_COUNTRIES) and not record.has(TRANSFER_SAFEGUARDS):
                countries = ", ".join(v.lexical for v in record.values(TRANSFER_COUNTRIES))
                hits.append(
                    (record.record_id, f"transfers to {countries} recorded without safeguards")
                )
    elif rule.id is RuleId.SPECIAL_CATEGORY_WITHOUT_BASIS:
        hits = [
            (record.record_id, "special category data recorded without a legal basis")
            for record in records
            if record.has(SPECIAL_CATEGORY) and not record.has(LEGAL_BASIS)
        ]
    elif rule.id is RuleId.JURISDICTION_READINESS:
        wanted = [j for j in Jurisdiction if rule.jurisdiction is None or j is rule.jurisdiction]
        for record in records:
            for j, (errors, warnings, ready) in gap_matrix(record, registry).items():
                if not ready and j in wanted:
                    hits.append((record.record_id,
                                 f"{j.value}: {errors} error(s), {warnings} warning(s)"))
    hits.sort()
    return QueryResult(rule=rule.id, hits=tuple(hits))
