"""Build a record, validate it, and convert it between template shapes.

Run with:  python demos/02_validate_and_convert.py
"""

from ropa_dpv import (
    Jurisdiction,
    convert,
    default_config,
    field_values,
    gap_matrix,
    load_registry,
    new_record,
    set_field,
    validate_against_profile,
    validate_article30,
)

registry = load_registry()

record = new_record("demo-001", "Acme GmbH", "2024-03-01T10:00:00+00:00")
for concept_id, values in [
    ("data-controller", ["Acme GmbH, Berlin"]),
    ("purposes-of-processing", ["marketing", "analytics"]),
    ("categories-of-personal-data", ["contact-details", "browsing-history"]),
    ("categories-of-data-subjects", ["customers"]),
    ("retention-deletion-periods", ["P2Y"]),
    ("third-countries-that-personal-data-are-transferred-to", ["US"]),
]:
    record = set_field(record, registry, concept_id, field_values(registry, concept_id, *values))

report = validate_article30(record, registry)
print(f"Article 30 check: compliant={report.compliant}")
for finding in report.findings:
    print(f"  {finding.severity.value:<7} {finding.code.value:<18} {finding.concept}")

# Jurisdiction profiles add template-specific expectations on top.
uk_report = validate_against_profile(record, registry.profiles[Jurisdiction.UK], registry)
print(f"\nUK template check: {uk_report.error_count} errors, "
      f"{uk_report.warning_count} warnings")

print("\nreadiness per jurisdiction:")
for j, status in gap_matrix(record, registry).items():
    print(f"  {j.value}: ready={status.ready} "
          f"({status.errors} errors, {status.warnings} warnings)")

# Converting to a leaner template is lossy, and the loss is reported.
converted, loss = convert(record, default_config(registry, Jurisdiction.CY), registry)
print(f"\nUK -> CY conversion retained {loss.retained_count} concepts")
for concept_id, reason in loss.lost:
    print(f"  lost {concept_id} ({reason.value})")
