"""Registry loading, lookups and aggregate statistics."""

import copy
import os
import pickle
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

from ropa_dpv import (
    EmbeddedDataCorrupt,
    Jurisdiction,
    MappingOutcome,
    UnknownConcept,
    gap_matrix,
    load_registry,
    new_record,
    validate_against_profile,
)
import ropa_dpv.registry as registry_module
from ropa_dpv.cli import cli_main

# Golden values counted by brute force over the embedded CSV (see
# tests/test_acceptance.py for the recount).
MANDATORY_COUNT = 13
ENCODED_OUTCOMES = {"exact": 15, "partial": 15, "complex": 3, "none": 10}
PROFILE_SIZES = {"BE": 31, "CY": 18, "DK": 16, "FI": 14, "LU": 14, "UK": 27}
DECLARED = {"BE": 34, "CY": 12, "DK": 12, "FI": 13, "LU": 14, "UK": 33}

COVERAGE_PAIRS = [
    ("purposes-of-processing", 65, 33),
    ("legal-basis-for-processing", 6, 6),
    ("type-of-processing", 9, 33),
    ("categories-of-personal-data", 80, 163),
    ("special-category-personal-data", 8, 8),
    ("categories-of-data-subjects", 0, 5),
    ("categories-of-recipients-of-transfer-data", 12, 3),
]


def test_cardinality(registry):
    assert len(registry.rows) == 44
    assert len(registry.concepts) == 43
    assert registry.container.id == "register-of-processing-activities"
    ids = [row.id for row in registry.rows]
    assert len(set(ids)) == len(ids)


def test_repeated_loads_compare_equal(registry):
    assert load_registry() == registry


def test_a_registry_that_has_validated_copies_and_compares_equal():
    # Validation keeps its plans on the registry; they are no part of its
    # value, and a copy starts without them.
    used = load_registry()
    record = new_record("pa-1", "Acme GmbH", "2024-03-01T10:00:00Z")
    report = validate_against_profile(record, used.profiles[Jurisdiction.CY], used)
    matrix = gap_matrix(record, used)
    fresh = load_registry()
    for copied in (pickle.loads(pickle.dumps(used)), copy.copy(used), copy.deepcopy(used)):
        assert copied == used == fresh and copied is not used
        assert validate_against_profile(record, copied.profiles[Jurisdiction.CY], copied) == report
        assert gap_matrix(record, copied) == matrix


def test_concept_lookup_purposes(registry):
    c = registry.concept("purposes-of-processing")
    assert c.article == "30.1(b)"
    assert c.mandatory is True
    assert c.dpv_terms == ("dpv:Purpose",)
    assert c.outcome is MappingOutcome.EXACT
    assert (c.coverage.template_values, c.coverage.dpv_values) == (65, 33)
    assert c.jurisdictions == frozenset(Jurisdiction)


def test_concept_lookup_privacy_notice(registry):
    c = registry.concept("privacy-notice")
    assert c.article == "13"
    assert c.mandatory is False
    assert c.dpv_terms == ()
    assert c.outcome is MappingOutcome.NONE
    assert c.jurisdictions == frozenset({Jurisdiction.UK})


def test_unknown_concept(registry):
    with pytest.raises(UnknownConcept):
        registry.concept("no-such-concept")


def test_controller_name_row_is_none_with_note(registry):
    c = registry.concept("controller-name-and-contact-details")
    assert c.outcome is MappingOutcome.NONE
    assert c.dpv_terms == ()
    assert "Many suitable vocabularies" in c.note


def test_unnamed_security_row_is_preserved(registry):
    c = registry.concept("security-of-processing-unnamed")
    assert c.display_name == ""
    assert c.article == "32"
    assert c.outcome is MappingOutcome.PARTIAL
    assert c.jurisdictions == frozenset({Jurisdiction.BE})


def test_article_index(registry):
    assert registry.concepts_for_article("9.1") == (
        "special-category-personal-data",
        "vulnerable-data-subject-category",
    )
    # the Classification Level row carries "-" and one row has no article
    assert registry.concepts_for_article("-") == ("classification-level",)
    assert registry.concepts_for_article("") == ("data-transfer",)


def test_mandatory_concepts(registry):
    mandatory = registry.mandatory_concepts()
    assert "data-controller" in mandatory
    assert "legal-basis-for-processing" not in mandatory
    assert len(mandatory) == MANDATORY_COUNT
    # table order is preserved
    indexes = [registry.table_index(cid) for cid in mandatory]
    assert indexes == sorted(indexes)


def test_mapping_summary(registry):
    summary = registry.mapping_summary()
    assert summary.total == 43
    assert summary.complex == ENCODED_OUTCOMES["complex"] == 3
    assert summary.exact == ENCODED_OUTCOMES["exact"]
    assert summary.partial == ENCODED_OUTCOMES["partial"]
    assert summary.none == ENCODED_OUTCOMES["none"]
    assert summary.exact + summary.partial + summary.complex + summary.none == summary.total
    assert dict(summary.published_delta) == {
        "exact": 1,
        "partial": 0,
        "complex": 0,
        "none": -1,
    }
    assert not summary.matches_published


def test_coverage_stats(registry):
    stats = registry.coverage_stats()
    assert [(s.concept_id, s.coverage.template_values, s.coverage.dpv_values) for s in stats] == COVERAGE_PAIRS
    by_id = {s.concept_id: s.sufficient for s in stats}
    assert by_id["purposes-of-processing"] is False
    assert by_id["legal-basis-for-processing"] is True
    # contradicts the narrative claim that only purposes fall short; the
    # computed flag follows the numbers
    assert by_id["categories-of-recipients-of-transfer-data"] is False


def test_jurisdiction_profiles(registry):
    for code, declared in DECLARED.items():
        profile = registry.jurisdiction_profile(Jurisdiction(code))
        assert profile.declared_field_count == declared
        assert len(profile.concepts) == PROFILE_SIZES[code]
        for cid in profile.concepts:
            registry.concept(cid)  # profiles reference only known concepts
        assert registry.container.id not in profile.concepts
    assert "automated-decision-making" in registry.jurisdiction_profile(Jurisdiction.UK).concepts
    assert "privacy-notice" not in registry.jurisdiction_profile(Jurisdiction.CY).concepts


def test_terms_present_unless_outcome_none(registry):
    for c in registry.concepts:
        if c.outcome is not MappingOutcome.NONE:
            assert c.dpv_terms, c.id


def test_self_check(registry):
    report = registry.self_check()
    assert report.outcome_delta == {"exact": 1, "partial": 0, "complex": 0, "none": -1}
    assert sum(report.outcome_delta.values()) == 0  # both sides total 43
    gaps = set(report.mandatory_gaps)
    assert (Jurisdiction.BE, "representative") in gaps
    assert (Jurisdiction.BE, "joint-controller") in gaps
    assert (
        Jurisdiction.CY,
        "appropriate-safeguards-for-third-country-transfers-technology-used",
    ) in gaps
    assert not any(j in (Jurisdiction.DK, Jurisdiction.FI, Jurisdiction.UK) for j, _ in gaps)
    for code in DECLARED:
        j = Jurisdiction(code)
        assert report.field_count_deltas[j] == PROFILE_SIZES[code] - DECLARED[code]
    text = report.to_text()
    assert "self-check" in text
    assert report.to_dict()["outcome_delta"]["exact"] == 1


def test_seeded_vocabularies(registry):
    assert registry.known_terms("legal-basis") == frozenset(
        {"consent", "contract", "legal-obligation", "vital-interests",
         "public-task", "legitimate-interests"}
    )
    assert registry.known_terms("purpose") == frozenset()


def test_tampered_data_raises(monkeypatch, registry):
    original = registry_module._read_packaged

    def tampered(*parts):
        data = original(*parts)
        if parts[-1] == "concept_table.csv":
            return data.replace(b"purposes-of-processing", b"purposes-of-tampering", 1)
        return data

    monkeypatch.setattr(registry_module, "_read_packaged", tampered)
    with pytest.raises(EmbeddedDataCorrupt):
        load_registry()


# The data-controller row up to its value schema: TEXT, ONE and no vocabulary.
_CONTROLLER_ROW = b"dpv:DataController,EXACT,,,BE;CY;DK;FI;LU;UK,,"


@pytest.mark.parametrize(
    "schema, message",
    [
        (b"TEXTY,ONE,", "'TEXTY' is not a valid ValueKind"),
        (b"TEXT,SOME,", "'SOME' is not a valid Multiplicity"),
        (b"TERM,ONE,", r"vocabulary must be set exactly for term kinds \(data-controller\)"),
        (b"TEXT,ONE,purpose", r"vocabulary must be set exactly for term kinds \(data-controller\)"),
        (b"TEXT_LIST,ONE,", r"list kinds require multiplicity MANY \(data-controller\)"),
    ],
    ids=["bad-kind", "bad-multiplicity", "term-without-vocabulary", "text-with-vocabulary",
         "list-of-one"],
)
def test_bad_value_schema_raises(monkeypatch, schema, message):
    original = registry_module.read_verified

    def with_schema(name):
        data = original(name)
        if name == "concept_table.csv":
            row = _CONTROLLER_ROW + b"TEXT,ONE,\n"
            assert data.count(row) == 1
            data = data.replace(row, _CONTROLLER_ROW + schema + b"\n")
        return data

    monkeypatch.setattr(registry_module, "read_verified", with_schema)
    with pytest.raises(EmbeddedDataCorrupt, match=rf"^concept_table\.csv: {message}$"):
        load_registry()


def test_manifest_lists_every_data_file():
    data = Path(registry_module.__file__).parent / "data"
    manifest = (data / "SHA256SUMS").read_text(encoding="utf-8").splitlines()
    listed = sorted(line.partition("  ")[2] for line in manifest)
    assert listed == sorted(p.name for p in data.iterdir() if p.name != "SHA256SUMS")


_DIGEST = "0" * 64


@pytest.mark.parametrize(
    "manifest",
    [
        b"\xff" + _DIGEST.encode() + b"  concept_table.csv\n",
        _DIGEST.encode() + b" concept_table.csv\n",
        b"0" * 63 + b"  concept_table.csv\n",
        _DIGEST.upper().replace("0", "A").encode() + b"  concept_table.csv\n",
        _DIGEST.encode() + b"  other.csv\n",
    ],
    ids=["not-utf8", "one-space", "short-digest", "uppercase-digest", "other-files-only"],
)
def test_corrupt_manifest_raises_and_exits_two(monkeypatch, capsys, manifest):
    original = registry_module._read_packaged

    def corrupt(*parts):
        return manifest if parts == ("SHA256SUMS",) else original(*parts)

    monkeypatch.setattr(registry_module, "_read_packaged", corrupt)
    with pytest.raises(EmbeddedDataCorrupt):
        load_registry()
    assert cli_main(["stats"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ropa: error: ") and err.count("\n") == 1, err


def test_missing_data_file_raises():
    with pytest.raises(EmbeddedDataCorrupt, match=r"^missing packaged data file no/such\.csv$"):
        registry_module._read_packaged("no", "such.csv")


def test_loads_from_a_zip_archive(tmp_path):
    package = Path(registry_module.__file__).parent
    archive = tmp_path / "ropa_dpv.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted(package.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(package.parent).as_posix())
    code = (
        "import ropa_dpv.registry as r\n"
        "print(type(r.__loader__).__name__, len(r.load_registry().concepts))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(archive)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"zipimporter 43\n"
