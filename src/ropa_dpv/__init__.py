"""Consolidated data model of the GDPR Register of Processing Activities.

The package embeds a registry of 43 GDPR concepts drawn from six EU
regulator ROPA templates, each aligned to the Data Privacy Vocabulary with
an exact/partial/complex/none correspondence class.  On top of the registry
it provides typed records, Article 30 and per-jurisdiction validation,
template conversion with loss reporting, deterministic RDF export, and a
small compliance-query engine.
"""

from .errors import (
    DuplicateCell,
    EmbeddedDataCorrupt,
    EmptyControllerName,
    HeaderMismatch,
    InvalidRecordId,
    MalformedCsv,
    MultiplicityViolation,
    RopaError,
    SchemaViolation,
    UnknownConcept,
)
from .queries import QueryResult, QueryRule, RuleId, run_query
from .rdf_export import (
    DEFAULT_BASE,
    DEFAULT_ROPAEX_NS,
    DPV_NS,
    Node,
    NodeKind,
    Triple,
    TripleGraph,
    empty_graph,
    records_to_graph,
    serialize_jsonld,
    serialize_turtle,
    to_graph,
)
from .records import (
    FieldValue,
    Multiplicity,
    RopaRecord,
    ValueKind,
    ValueSchema,
    field_values,
    new_record,
    set_field,
)
from .registry import (
    ConceptDescriptor,
    ConceptRegistry,
    CoveragePair,
    CoverageStat,
    Jurisdiction,
    JurisdictionProfile,
    MappingOutcome,
    MappingSummary,
    SelfCheckReport,
    load_registry,
)
from .template_io import (
    ConversionLossReport,
    LossReason,
    TemplateProfileConfig,
    convert,
    default_config,
    export_template,
    import_template,
    load_config,
    make_config,
    parse_canonical,
    write_canonical,
)
from .validation import (
    FindingCode,
    GapStatus,
    Severity,
    ValidationFinding,
    ValidationReport,
    gap_matrix,
    validate_against_profile,
    validate_article30,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "RopaError", "EmbeddedDataCorrupt", "UnknownConcept", "InvalidRecordId",
    "EmptyControllerName", "SchemaViolation", "MultiplicityViolation",
    "MalformedCsv", "DuplicateCell", "HeaderMismatch",
    # registry
    "ConceptRegistry", "ConceptDescriptor", "CoveragePair", "CoverageStat",
    "Jurisdiction", "JurisdictionProfile", "MappingOutcome", "MappingSummary",
    "SelfCheckReport", "load_registry",
    # records
    "FieldValue", "Multiplicity", "RopaRecord", "ValueKind", "ValueSchema",
    "field_values", "new_record", "set_field",
    # validation
    "FindingCode", "GapStatus", "Severity", "ValidationFinding",
    "ValidationReport", "gap_matrix", "validate_against_profile",
    "validate_article30",
    # template io
    "ConversionLossReport", "LossReason", "TemplateProfileConfig", "convert",
    "default_config", "export_template", "import_template", "load_config",
    "make_config", "parse_canonical", "write_canonical",
    # rdf export
    "DEFAULT_BASE", "DEFAULT_ROPAEX_NS", "DPV_NS", "Node", "NodeKind",
    "Triple", "TripleGraph", "empty_graph", "records_to_graph",
    "serialize_jsonld", "serialize_turtle", "to_graph",
    # queries
    "QueryResult", "QueryRule", "RuleId", "run_query",
]
