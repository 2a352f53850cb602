"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line on success
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Golden
counts are derived by brute force over the embedded CSV inside this module,
independently of the registry loader.
"""

import csv
import io
import json
import random
from importlib import resources

import pytest

from ropa_dpv import (
    Jurisdiction,
    convert,
    default_config,
    export_template,
    load_registry,
    new_record,
    parse_canonical,
    serialize_jsonld,
    serialize_turtle,
    set_field,
    to_graph,
    validate_article30,
    write_canonical,
)
from ropa_dpv.cli import cli_main
from conftest import CREATED, populate, random_record, sample_values
from rdf_oracle import canonical_triples, parse_jsonld, parse_turtle

REGISTRY = load_registry()
JURISDICTIONS = list(Jurisdiction)


def _raw_table():
    """The embedded CSV, read directly (the brute-force oracle route)."""
    data = resources.files("ropa_dpv").joinpath("data", "concept_table.csv").read_bytes()
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _pass(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {label}")


def test_criterion_1_registry_cardinality():
    assert len(REGISTRY.rows) == 44
    assert len(REGISTRY.concepts) == 43
    assert REGISTRY.container.id == "register-of-processing-activities"
    assert REGISTRY.mapping_summary().total == 43
    _pass(1, "registry holds 43 concept rows plus 1 container row")


def test_criterion_2_outcome_aggregate():
    summary = REGISTRY.mapping_summary()
    assert summary.complex == 3
    # brute-force recount over the embedded CSV
    raw = _raw_table()
    counted = {"EXACT": 0, "PARTIAL": 0, "COMPLEX": 0, "NONE": 0}
    for row in raw[1:]:
        counted[row["mapping_outcome"]] += 1
    assert (summary.exact, summary.partial, summary.complex, summary.none) == (
        counted["EXACT"], counted["PARTIAL"], counted["COMPLEX"], counted["NONE"],
    )
    # frozen golden counts from the encoded table
    assert counted == {"EXACT": 15, "PARTIAL": 15, "COMPLEX": 3, "NONE": 10}
    published = {"exact": 14, "partial": 15, "none": 11}
    for name, reference in published.items():
        assert abs(getattr(summary, name) - reference) <= 1
    check = REGISTRY.self_check()
    assert check.outcome_delta == dict(summary.published_delta)
    assert any(delta != 0 for delta in check.outcome_delta.values())
    _pass(2, "outcome aggregate: complex=3 exactly; per-class deltas <= 1 and surfaced")


def test_criterion_3_coverage_stats():
    stats = REGISTRY.coverage_stats()
    assert len(stats) == 7
    pairs = [(s.coverage.template_values, s.coverage.dpv_values) for s in stats]
    assert pairs == [(65, 33), (6, 6), (9, 33), (80, 163), (8, 8), (0, 5), (12, 3)]
    by_pair = {(s.coverage.template_values, s.coverage.dpv_values): s.sufficient for s in stats}
    assert by_pair[(65, 33)] is False
    _pass(3, "coverage stats: exactly the 7 encoded pairs, (65,33) insufficient")


def test_criterion_4_jurisdiction_headers():
    declared = [
        REGISTRY.jurisdiction_profile(j).declared_field_count for j in JURISDICTIONS
    ]
    assert declared == [34, 12, 12, 13, 14, 33]
    _pass(4, "declared field counts 34/12/12/13/14/33 for BE/CY/DK/FI/LU/UK")


def test_criterion_5_mandatory_validation():
    # golden count by brute force over the embedded CSV
    raw = _raw_table()
    golden = sum(1 for row in raw[1:] if row["mandatory"] == "Y")
    assert golden == 13
    empty = new_record("pa-empty", "Acme", CREATED)
    report = validate_article30(empty, REGISTRY)
    assert len(report.findings) == golden
    assert all(f.code.value == "MISSING_MANDATORY" for f in report.findings)
    full = populate(
        new_record("pa-mandatory", "Acme", CREATED), REGISTRY,
        REGISTRY.mandatory_concepts(),
    )
    assert validate_article30(full, REGISTRY).findings == ()
    _pass(5, "empty record gets 13 mandatory errors; populated record gets none")


def test_criterion_6_round_trip_properties():
    rng = random.Random(20240301)
    configs = {j: default_config(REGISTRY, j) for j in JURISDICTIONS}
    all_ids = [c.id for c in REGISTRY.concepts]
    generated = 0
    for n in range(1000):
        record = random_record(REGISTRY, rng, record_id=f"gen-{n:04d}")
        generated += 1
        # parse-write canonical identity
        text = write_canonical([record], REGISTRY)
        parsed, warnings = parse_canonical(text, REGISTRY)
        assert warnings == []
        assert parsed == [record]
        # conversion laws
        _, b = rng.choice(JURISDICTIONS), rng.choice(JURISDICTIONS)
        converted, loss = convert(record, configs[b], REGISTRY)
        assert converted.populated() <= record.populated()
        lost_ids = {cid for cid, _ in loss.lost}
        assert lost_ids | converted.populated() == record.populated()
        assert lost_ids & converted.populated() == set()
        twice, loss_twice = convert(converted, configs[b], REGISTRY)
        assert twice == converted and loss_twice.lost == ()
        # validator monotonicity under one field addition
        absent = sorted(set(all_ids) - record.populated())
        if absent:
            cid = rng.choice(absent)
            grown = set_field(
                record, REGISTRY, cid, sample_values(REGISTRY, cid, rng)
            )
            assert len(validate_article30(grown, REGISTRY).findings) <= len(
                validate_article30(record, REGISTRY).findings
            )
    assert generated >= 1000
    _pass(6, "1000 generated records: round-trip, conversion and monotonicity laws hold")


def test_criterion_7_serialization_determinism():
    record = populate(
        new_record("pa-determinism", "Acme GmbH", CREATED), REGISTRY,
        [c.id for c in REGISTRY.concepts],
    )
    graph_a = to_graph(record, REGISTRY)
    graph_b = to_graph(record, REGISTRY)
    turtle_a, turtle_b = serialize_turtle(graph_a), serialize_turtle(graph_b)
    jsonld_a, jsonld_b = serialize_jsonld(graph_a), serialize_jsonld(graph_b)
    assert turtle_a == turtle_b
    assert jsonld_a == jsonld_b
    # both serializations re-parse (independent parser) to set-equal stores
    assert parse_turtle(turtle_a) == canonical_triples(graph_a)
    assert parse_jsonld(jsonld_a) == canonical_triples(graph_a)
    assert parse_turtle(turtle_a) == parse_jsonld(jsonld_a)
    _pass(7, "Turtle and JSON-LD byte-deterministic and set-equal after re-parse")


def test_criterion_8_export_loss_oracle():
    full = populate(
        new_record("pa-full", "Acme GmbH", CREATED), REGISTRY,
        [c.id for c in REGISTRY.concepts],
    )
    configs = {j: default_config(REGISTRY, j) for j in JURISDICTIONS}
    for a in JURISDICTIONS:
        record_a, _ = convert(full, configs[a], REGISTRY)
        assert record_a.populated() == REGISTRY.profiles[a].concepts
        for b in JURISDICTIONS:
            expected = len(
                REGISTRY.profiles[a].concepts - REGISTRY.profiles[b].concepts
            )
            _, loss = convert(record_a, configs[b], REGISTRY)
            assert len(loss.lost) == expected, (a, b)
            _, export_loss = export_template(record_a, configs[b], REGISTRY)
            assert len(export_loss.lost) == expected, (a, b)
    _pass(8, "conversion losses equal profile set differences for all 36 pairs")


def test_criterion_9_cli_contract(tmp_path, capsys):
    valid = populate(
        new_record("pa-valid", "Acme", CREATED), REGISTRY, REGISTRY.mandatory_concepts()
    )
    invalid = new_record("pa-invalid", "Acme", CREATED)
    valid_file = tmp_path / "valid.csv"
    valid_file.write_text(write_canonical([valid], REGISTRY), encoding="utf-8", newline="")
    invalid_file = tmp_path / "invalid.csv"
    invalid_file.write_text(
        write_canonical([invalid], REGISTRY), encoding="utf-8", newline=""
    )
    malformed_file = tmp_path / "malformed.csv"
    malformed_file.write_text("definitely,not,canonical\n", encoding="utf-8")

    assert cli_main(["validate", "--input", str(valid_file), "--article30"]) == 0
    assert cli_main(["validate", "--input", str(invalid_file), "--article30"]) == 1
    assert cli_main(["validate", "--input", str(malformed_file), "--article30"]) == 2
    capsys.readouterr()

    # text and JSON report identical finding multisets
    cli_main(["validate", "--input", str(invalid_file), "--article30"])
    text_out = capsys.readouterr().out
    text_findings = sorted(
        tuple(line.split()[:3]) for line in text_out.splitlines() if line.startswith("  ")
    )
    cli_main(["validate", "--input", str(invalid_file), "--article30", "--json"])
    envelope = json.loads(capsys.readouterr().out)
    json_findings = sorted(
        (f["severity"], f["code"], f["concept"] + ":")
        for entry in envelope["results"]
        for f in entry["findings"]
    )
    assert text_findings == json_findings
    assert len(json_findings) == 13
    _pass(9, "CLI exit codes 0/1/2 and text/JSON finding agreement")
