"""Consolidated data model of the GDPR Register of Processing Activities.

The package embeds a registry of 43 GDPR concepts drawn from six EU
regulator ROPA templates, each aligned to the Data Privacy Vocabulary with
an exact/partial/complex/none correspondence class.  On top of the registry
it provides typed records, Article 30 and per-jurisdiction validation,
template conversion with loss reporting, deterministic RDF export, and a
small compliance-query engine.

``import ropa_dpv`` loads none of its modules: each name below is looked up
in its module, which is imported on first use, whenever it is read.
"""

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_EXPORTS = {
    "errors": (
        "RopaError", "EmbeddedDataCorrupt", "UnknownConcept", "InvalidRecordId",
        "EmptyControllerName", "SchemaViolation", "MultiplicityViolation",
        "MalformedCsv", "DuplicateCell", "HeaderMismatch", "IriConfusedWithPrefix",
    ),
    "registry": (
        "ConceptRegistry", "ConceptDescriptor", "CoveragePair", "CoverageStat",
        "Jurisdiction", "JurisdictionProfile", "MappingOutcome", "MappingSummary",
        "SelfCheckReport", "load_registry",
    ),
    "records": (
        "FieldValue", "Multiplicity", "RopaRecord", "ValueKind", "ValueSchema",
        "field_values", "new_record", "set_field",
    ),
    "validation": (
        "FindingCode", "GapStatus", "Severity", "ValidationFinding",
        "ValidationReport", "gap_matrix", "validate_against_profile",
        "validate_article30",
    ),
    "template_io": (
        "ConversionLossReport", "LossReason", "TemplateProfileConfig", "convert",
        "default_config", "export_template", "import_template", "load_config",
        "make_config", "parse_canonical", "write_canonical",
    ),
    "rdf_export": (
        "DEFAULT_BASE", "DEFAULT_ROPAEX_NS", "DPV_NS", "Node", "NodeKind",
        "Triple", "TripleGraph", "empty_graph", "records_to_graph",
        "serialize_jsonld", "serialize_turtle", "to_graph",
    ),
    "queries": ("QueryResult", "QueryRule", "RuleId", "run_query"),
}

__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def __getattr__(name: str):
    # Not cached in the package: the module's attribute is read at each use.
    for module, names in _EXPORTS.items():
        if name in names:
            # Imported here: the CLI reads none of these names, nor needs importlib.
            from importlib import import_module

            return getattr(import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
