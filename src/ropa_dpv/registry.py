"""Embedded registry of ROPA concepts and their DPV alignments.

The registry is a frozen transcription of the consolidated concept table
behind this package: 43 GDPR concepts harvested from the six English-language
regulator ROPA templates (Belgium, Cyprus, Denmark, Finland, Luxembourg, UK),
each aligned to the Data Privacy Vocabulary with a correspondence outcome,
plus one container row for the register itself.

The dataset ships as two human-auditable CSV files under ``ropa_dpv/data/``:
``concept_table.csv`` declares each row in full, value schema included, and
``vocabularies.csv`` seeds the known terms.  Each is verified on load against
its SHA-256 digest in ``data/SHA256SUMS``, a manifest in the format
``sha256sum`` writes (one ``<64 lowercase hex digits>  <file name>`` line per
file), so ``sha256sum -c SHA256SUMS`` checks the same files.  The registry is
immutable after load and safe for unrestricted concurrent reads.
"""

from __future__ import annotations

import csv
import io
import os
import re
from enum import Enum
from typing import Iterator, Mapping, NamedTuple

# The interpreter's own SHA-256 (``_sha2`` from 3.12 on, ``_sha256`` on 3.11):
# ``hashlib`` loads OpenSSL, which adds about 4 ms to every process's start-up.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:  # CPython built without its own hashes
        from hashlib import sha256 as _sha256

from .errors import EmbeddedDataCorrupt, UnknownConcept
from .records import Multiplicity, ValueKind, ValueSchema


class MappingOutcome(str, Enum):
    """Correspondence class between a ROPA concept and its DPV terms."""

    EXACT = "EXACT"
    PARTIAL = "PARTIAL"
    COMPLEX = "COMPLEX"
    NONE = "NONE"


class Jurisdiction(str, Enum):
    BE = "BE"
    CY = "CY"
    DK = "DK"
    FI = "FI"
    LU = "LU"
    UK = "UK"


#: Data-input field count each regulator template declares for itself.
DECLARED_FIELD_COUNTS: Mapping[Jurisdiction, int] = {
    Jurisdiction.BE: 34,
    Jurisdiction.CY: 12,
    Jurisdiction.DK: 12,
    Jurisdiction.FI: 13,
    Jurisdiction.LU: 14,
    Jurisdiction.UK: 33,
}

#: Aggregate outcome counts as published alongside the source dataset.  The
#: encoded table disagrees by one row; ``self_check`` reports the delta
#: instead of silently adjusting either side.
PUBLISHED_OUTCOME_COUNTS: Mapping[str, int] = {
    "exact": 14,
    "partial": 15,
    "complex": 3,
    "none": 11,
}

CONTAINER_CONCEPT_ID = "register-of-processing-activities"

_CONCEPT_ID_RE = re.compile(r"[a-z0-9-]+\Z")
_DPV_TERM_RE = re.compile(r"(dpv|ropaex):\S+\Z")

_TABLE_HEADER = [
    "concept_id",
    "display_name",
    "gdpr_article",
    "mandatory",
    "dpv_terms",
    "mapping_outcome",
    "coverage_template",
    "coverage_dpv",
    "jurisdictions",
    "note",
    "value_kind",
    "multiplicity",
    "vocabulary",
]
_VOCAB_HEADER = ["vocabulary", "term"]


class CoveragePair(NamedTuple):
    """Count of field values a template specifies vs. what DPV provides."""

    template_values: int
    dpv_values: int

    @property
    def sufficient(self) -> bool:
        return self.dpv_values >= self.template_values


class ConceptDescriptor(NamedTuple):
    """One registry row."""

    id: str
    display_name: str
    article: str
    mandatory: bool
    dpv_terms: tuple[str, ...]
    outcome: MappingOutcome
    coverage: CoveragePair | None
    jurisdictions: frozenset[Jurisdiction]
    value_schema: ValueSchema
    note: str = ""


class JurisdictionProfile(NamedTuple):
    """A regulator template: declared field count plus its concept set.

    ``declared_field_count`` is kept independent of ``len(concepts)``; the
    two are not asserted equal (``self_check`` reports the delta).  The
    container row is excluded from ``concepts``.
    """

    jurisdiction: Jurisdiction
    declared_field_count: int
    concepts: frozenset[str]


class MappingSummary(NamedTuple):
    """Outcome-class counts over the 43 concept rows."""

    exact: int
    partial: int
    complex: int
    none: int
    total: int
    published_delta: Mapping[str, int]

    @property
    def matches_published(self) -> bool:
        return all(d == 0 for d in self.published_delta.values())


class CoverageStat(NamedTuple):
    concept_id: str
    coverage: CoveragePair
    sufficient: bool


class SelfCheckReport(NamedTuple):
    """Structured consistency report over the embedded dataset.

    Discrepancies are report content, never exceptions: the dataset is a
    verbatim transcription and its internal tensions are preserved.
    """

    outcome_delta: Mapping[str, int]
    mandatory_gaps: tuple[tuple[Jurisdiction, str], ...]
    field_count_deltas: Mapping[Jurisdiction, int]

    def to_dict(self) -> dict:
        return {
            "outcome_delta": dict(self.outcome_delta),
            "mandatory_gaps": [
                {"jurisdiction": j.value, "concept": c} for j, c in self.mandatory_gaps
            ],
            "field_count_deltas": {
                j.value: d for j, d in self.field_count_deltas.items()
            },
        }

    def to_text(self) -> str:
        lines = ["registry self-check"]
        lines.append("  outcome counts vs published reference (14/15/3/11):")
        for name, delta in self.outcome_delta.items():
            lines.append(f"    {name:<8} {delta:+d}")
        lines.append("  mandatory concepts missing from jurisdiction profiles:")
        if self.mandatory_gaps:
            for j, c in self.mandatory_gaps:
                lines.append(f"    {j.value}: {c}")
        else:
            lines.append("    none")
        lines.append("  profile size minus declared field count:")
        for j, d in self.field_count_deltas.items():
            lines.append(f"    {j.value}: {d:+d}")
        return "\n".join(lines)


class ConceptRegistry:
    """Immutable, queryable view of the embedded concept table."""

    __slots__ = ("rows", "profiles", "vocabularies", "_by_id", "_order", "_plans")

    def __init__(
        self,
        rows: tuple[ConceptDescriptor, ...],
        profiles: Mapping[Jurisdiction, JurisdictionProfile],
        vocabularies: Mapping[str, frozenset[str]],
    ) -> None:
        init = object.__setattr__
        init(self, "rows", rows)
        init(self, "profiles", profiles)
        init(self, "vocabularies", vocabularies)
        init(self, "_by_id", {row.id: row for row in rows})
        init(self, "_order", {row.id: i for i, row in enumerate(rows)})
        # Validation plans by profile (None for Article 30), which
        # ``validation`` builds on first use; derived from the fields above.
        init(self, "_plans", {})

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Pickle and copy rebuild through the constructor, as the default
        # restore would assign the read-only fields.
        return ConceptRegistry, (self.rows, self.profiles, self.vocabularies)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.profiles, self.vocabularies) == (
            other.rows, other.profiles, other.vocabularies
        )

    # -- lookups ------------------------------------------------------------

    @property
    def container(self) -> ConceptDescriptor:
        """The row naming the register itself (excluded from aggregates)."""
        return self.rows[0]

    @property
    def concepts(self) -> tuple[ConceptDescriptor, ...]:
        """The 43 concept rows in table order, container excluded."""
        return self.rows[1:]

    def concept(self, concept_id: str) -> ConceptDescriptor:
        try:
            return self._by_id[concept_id]
        except KeyError:
            raise UnknownConcept(concept_id) from None

    def concepts_for_article(self, article: str) -> tuple[str, ...]:
        return tuple(row.id for row in self.rows if row.article == article)

    def table_index(self, concept_id: str) -> int:
        try:
            return self._order[concept_id]
        except KeyError:
            raise UnknownConcept(concept_id) from None

    def known_terms(self, vocabulary: str) -> frozenset[str]:
        """Seeded terms for a vocabulary; empty for free vocabularies."""
        return self.vocabularies.get(vocabulary, frozenset())

    # -- aggregates ----------------------------------------------------------

    def mandatory_concepts(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.concepts if c.mandatory)

    def mapping_summary(self) -> MappingSummary:
        counts = dict.fromkeys(PUBLISHED_OUTCOME_COUNTS, 0)
        for c in self.concepts:
            counts[c.outcome.value.lower()] += 1
        return MappingSummary(
            **counts,
            total=sum(counts.values()),
            published_delta={
                name: count - PUBLISHED_OUTCOME_COUNTS[name] for name, count in counts.items()
            },
        )

    def coverage_stats(self) -> tuple[CoverageStat, ...]:
        return tuple(
            CoverageStat(c.id, c.coverage, c.coverage.sufficient)
            for c in self.concepts
            if c.coverage is not None
        )

    def jurisdiction_profile(self, jurisdiction: Jurisdiction) -> JurisdictionProfile:
        return self.profiles[Jurisdiction(jurisdiction)]

    def self_check(self) -> SelfCheckReport:
        summary = self.mapping_summary()
        gaps: list[tuple[Jurisdiction, str]] = []
        deltas: dict[Jurisdiction, int] = {}
        for j in Jurisdiction:
            profile = self.profiles[j]
            for cid in self.mandatory_concepts():
                if cid not in profile.concepts:
                    gaps.append((j, cid))
            deltas[j] = len(profile.concepts) - profile.declared_field_count
        return SelfCheckReport(
            outcome_delta=dict(summary.published_delta),
            mandatory_gaps=tuple(gaps),
            field_count_deltas=deltas,
        )


# -- loading ------------------------------------------------------------------


def _read_packaged(*parts: str) -> bytes:
    # Through this module's own loader, which reads from a directory or a zip
    # archive alike; ``importlib.resources`` imports ``inspect`` from 3.12 on.
    path = os.path.join(os.path.dirname(__file__), "data", *parts)
    try:
        return __loader__.get_data(path)
    except OSError as exc:
        raise EmbeddedDataCorrupt(f"missing packaged data file {'/'.join(parts)}") from exc


def read_verified(*parts: str) -> bytes:
    """Read a packaged data file and verify it against ``SHA256SUMS``."""
    try:
        lines = _read_packaged("SHA256SUMS").decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise EmbeddedDataCorrupt("SHA256SUMS: not UTF-8") from exc
    manifest: dict[str, str] = {}
    for line in lines:
        digest, sep, file_name = line.partition("  ")
        if not sep or len(digest) != 64 or digest.strip("0123456789abcdef"):
            raise EmbeddedDataCorrupt(f"SHA256SUMS: malformed line {line!r}")
        manifest[file_name] = digest
    name = "/".join(parts)
    data = _read_packaged(*parts)
    expected = manifest.get(name)
    if expected is None:
        raise EmbeddedDataCorrupt(f"no checksum recorded for {name}")
    actual = _sha256(data).hexdigest()
    if actual != expected:
        raise EmbeddedDataCorrupt(
            f"checksum mismatch for {name}: expected {expected}, got {actual}"
        )
    return data


def _rows(name: str, expected_header: list[str]) -> Iterator[list[str]]:
    reader = csv.reader(io.StringIO(read_verified(name).decode("utf-8")))
    header = next(reader, None)
    if header != expected_header:
        raise EmbeddedDataCorrupt(f"{name}: unexpected header {header!r}")
    for row in reader:
        if len(row) != len(expected_header):
            raise EmbeddedDataCorrupt(f"{name}: wrong column count in row {row!r}")
        yield row


def _parse_vocabularies() -> dict[str, frozenset[str]]:
    seeded: dict[str, set[str]] = {}
    for row in _rows("vocabularies.csv", _VOCAB_HEADER):
        vocab, term = row
        if not vocab or not term:
            raise EmbeddedDataCorrupt("vocabularies.csv: empty vocabulary or term")
        seeded.setdefault(vocab, set()).add(term)
    return {v: frozenset(ts) for v, ts in seeded.items()}


def load_registry() -> ConceptRegistry:
    """Load the embedded registry: 43 concept rows plus the container row.

    Raises :class:`EmbeddedDataCorrupt` if the packaged dataset fails its
    checksum or schema validation.
    """
    vocabularies = _parse_vocabularies()

    rows: list[ConceptDescriptor] = []
    seen: set[str] = set()
    coverage_count = 0
    for row in _rows("concept_table.csv", _TABLE_HEADER):
        (cid, display, article, mandatory, terms_cell, outcome_tag,
         cov_template, cov_dpv, juris_cell, note, kind_tag, mult_tag, vocab) = row
        if not _CONCEPT_ID_RE.fullmatch(cid):
            raise EmbeddedDataCorrupt(f"concept_table.csv: bad concept id {cid!r}")
        if cid in seen:
            raise EmbeddedDataCorrupt(f"concept_table.csv: duplicate id {cid}")
        seen.add(cid)
        if mandatory not in ("Y", "N"):
            raise EmbeddedDataCorrupt(f"concept_table.csv: bad mandatory flag for {cid}")
        try:
            outcome = MappingOutcome(outcome_tag)
            kind = ValueKind(kind_tag)
            mult = Multiplicity(mult_tag)
        except ValueError as exc:
            raise EmbeddedDataCorrupt(f"concept_table.csv: {exc}") from exc
        terms = tuple(t for t in terms_cell.split(";") if t)
        for term in terms:
            if not _DPV_TERM_RE.fullmatch(term):
                raise EmbeddedDataCorrupt(
                    f"concept_table.csv: bad term {term!r} for {cid}"
                )
        if outcome is not MappingOutcome.NONE and not terms:
            raise EmbeddedDataCorrupt(
                f"concept_table.csv: outcome {outcome.value} requires terms ({cid})"
            )
        if (cov_template == "") != (cov_dpv == ""):
            raise EmbeddedDataCorrupt(
                f"concept_table.csv: partial coverage pair for {cid}"
            )
        coverage = None
        if cov_template != "":
            try:
                coverage = CoveragePair(int(cov_template), int(cov_dpv))
            except ValueError as exc:
                raise EmbeddedDataCorrupt(f"concept_table.csv: {exc}") from exc
            if coverage.template_values < 0 or coverage.dpv_values < 0:
                raise EmbeddedDataCorrupt(
                    f"concept_table.csv: negative coverage for {cid}"
                )
            coverage_count += 1
        try:
            jurisdictions = frozenset(
                Jurisdiction(code) for code in juris_cell.split(";") if code
            )
        except ValueError as exc:
            raise EmbeddedDataCorrupt(f"concept_table.csv: {exc}") from exc
        if (kind in (ValueKind.TERM, ValueKind.TERM_LIST)) != bool(vocab):
            raise EmbeddedDataCorrupt(
                f"concept_table.csv: vocabulary must be set exactly for term kinds ({cid})"
            )
        if kind.value.endswith("_LIST") and mult is not Multiplicity.MANY:
            raise EmbeddedDataCorrupt(
                f"concept_table.csv: list kinds require multiplicity MANY ({cid})"
            )
        rows.append(
            ConceptDescriptor(
                id=cid,
                display_name=display,
                article=article,
                mandatory=mandatory == "Y",
                dpv_terms=terms,
                outcome=outcome,
                coverage=coverage,
                jurisdictions=jurisdictions,
                value_schema=ValueSchema(kind, mult, vocab or None),
                note=note,
            )
        )

    if len(rows) != 44 or rows[0].id != CONTAINER_CONCEPT_ID:
        raise EmbeddedDataCorrupt(
            f"concept_table.csv: expected the container row plus 43 concepts, got {len(rows)}"
        )
    if coverage_count != 7:
        raise EmbeddedDataCorrupt(
            f"concept_table.csv: expected 7 coverage pairs, got {coverage_count}"
        )

    profiles = {}
    for j in Jurisdiction:
        profiles[j] = JurisdictionProfile(
            jurisdiction=j,
            declared_field_count=DECLARED_FIELD_COUNTS[j],
            concepts=frozenset(c.id for c in rows[1:] if j in c.jurisdictions),
        )
    return ConceptRegistry(rows=tuple(rows), profiles=profiles, vocabularies=vocabularies)
