"""Tests of the benchmark itself: its inputs, its span arithmetic and its
output checks.

Run from the root of a checkout:  python3 -m pytest ropabench/tests
"""

import csv
import json
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import corpus
import run
import spans
from ropa_dpv import cli, template_io
from ropa_dpv.cli import cli_main

SMALL = 40
BENCH_DIR = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    work = tmp_path_factory.mktemp("inputs")
    return corpus.build(3, work, records=SMALL), work


@pytest.fixture(scope="module")
def publish(small):
    """The register workload's export and convert commands and their outputs."""
    inputs, work = small
    rdf = checks.RdfChecker(run.load_oracle(), inputs)
    commands = run.register(inputs, rdf, work)[4:]
    return commands, [run.replay(cli_main, command)[1] for command in commands]


def _audit_commands(inputs, work):
    """The register workload's validate and query commands."""
    return run.register(inputs, checks.RdfChecker(None, inputs), work)[:4]


def test_generator_is_deterministic_for_a_seed(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first, again, other = (
        corpus.build(seed, d, records=SMALL) for seed, d in zip((5, 5, 6), dirs)
    )
    assert first.sha256 == again.sha256
    assert first.register.populated == again.register.populated
    assert [t.path.read_bytes() for t in first.templates] == [
        t.path.read_bytes() for t in again.templates
    ]
    assert other.sha256 != first.sha256


def test_inputs_keep_awkward_text_and_invalid_values(small):
    inputs, _ = small
    text = inputs.register.path.read_text("utf-8")
    for awkward in (";", '"', "\n", "ü", "\\"):
        assert awkward in text
    assert inputs.register.dropped > 0
    assert sum(t.dropped for t in inputs.templates) > 0
    assert sorted(t.rows for t in inputs.templates) == corpus.template_sizes(24)


def test_self_times_add_up_to_the_root():
    # root [0, 10] holds a [1, 4] and c [5, 6]; a holds b [2, 3], which failed
    tree = [
        (2, "b", 2.0, 3.0, 1, False),
        (1, "a", 1.0, 4.0, 0, True),
        (3, "c", 5.0, 6.0, 0, True),
        (0, "root", 0.0, 10.0, -1, True),
    ]
    stats = spans.span_stats(tree)
    assert stats["root"] == {"calls": 1, "failed": 0, "s": 10.0, "self_s": 6.0}
    assert stats["a"] == {"calls": 1, "failed": 0, "s": 3.0, "self_s": 2.0}
    assert stats["b"] == {"calls": 1, "failed": 1, "s": 1.0, "self_s": 1.0}
    assert sum(entry["self_s"] for entry in stats.values()) == 10.0


def test_self_times_sum_over_repeated_names():
    tree = [
        (1, "x", 0.5, 1.0, 0, True),
        (2, "x", 2.0, 3.5, 0, True),
        (0, "root", 0.0, 4.0, -1, True),
    ]
    stats = spans.span_stats(tree)
    assert stats["x"] == {"calls": 2, "failed": 0, "s": 2.0, "self_s": 2.0}
    assert stats["root"]["self_s"] == 2.0


def test_scaling_cancels_a_uniform_slowdown():
    refs = [0.1, 0.2, 0.3]
    samples = [(1.0, 0), (3.0, 1)]
    expected = [2 * run.REFERENCE_S * 1.0 / 0.3, 2 * run.REFERENCE_S * 3.0 / 0.5]
    assert run.scale(samples, refs) == pytest.approx(expected)
    slower = run.scale([(2 * wall, k) for wall, k in samples], [2 * r for r in refs])
    assert slower == pytest.approx(expected)


def test_checks_accept_every_workload_output(small, publish):
    inputs, work = small
    commands, outputs = publish
    for command, output in zip(commands, outputs):
        assert checks.failure(command.check, output) is None, command.argv
    for command in _audit_commands(inputs, work) + run.intake(inputs, None, work):
        _, output = run.replay(cli_main, command)
        assert checks.failure(command.check, output) is None, command.argv


def test_turtle_check_rejects_truncated_output(publish):
    (turtle, jsonld, _), (turtle_out, jsonld_out, _) = publish
    half = len(turtle_out.stdout) // 2
    boundary = turtle_out.stdout.rindex(" .\n", 0, half) + 3
    for cut in (half, boundary):
        truncated = replace(turtle_out, stdout=turtle_out.stdout[:cut])
        why = checks.failure(turtle.check, truncated) or checks.failure(jsonld.check, jsonld_out)
        assert why is not None
    assert checks.failure(turtle.check, turtle_out) is None
    assert checks.failure(jsonld.check, jsonld_out) is None


def _drop_record(path, record_id):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row[0] != record_id]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def test_canonical_checks_reject_a_missing_record(small, publish):
    inputs, work = small
    (_, _, convert), (_, _, convert_out) = publish
    run.replay(cli_main, convert)  # rewrite the output file
    _drop_record(work / "converted.csv", inputs.register.record_ids[5])
    assert "record ids differ" in checks.failure(convert.check, convert_out)

    imported = run.intake(inputs, None, work)[0]
    _, output = run.replay(cli_main, imported)
    assert checks.failure(imported.check, output) is None
    _drop_record(work / f"{inputs.templates[0].path.stem}.out.csv", "be-0002")
    assert "record ids differ" in checks.failure(imported.check, output)


def test_tracer_records_nested_spans_in_end_order():
    tracer = spans.Tracer()
    tracer.begin("outer")
    tracer.begin("inner")
    tracer.end(False)
    tracer.end(True)
    (inner_id, inner, _, _, parent, inner_ok), (outer_id, outer, _, _, root, ok) = tracer.spans
    assert (inner, outer) == ("inner", "outer")
    assert (inner_id, outer_id, parent, root) == (1, 0, 0, -1)
    assert (inner_ok, ok) == (False, True)


def test_traced_round_accounts_for_each_command(small):
    inputs, work = small
    report = run.Report()
    _, metrics = run.traced_round(cli_main, _audit_commands(inputs, work), report)
    assert report.failures == []
    assert report.attempted == 4
    assert metrics["template_io.parse_canonical.records"] == 4 * SMALL
    assert metrics["validation.gap_matrix.calls"] == SMALL
    assert metrics["validation.gap_matrix.profile_calls_per_call"] == 6
    assert metrics["records.from_lexical.failed"] == 4 * inputs.register.dropped
    assert cli.parse_canonical is template_io.parse_canonical  # wrappers removed


def test_probe_gives_every_layer_a_span(small, tmp_path):
    inputs, work = small
    commands = run.intake(inputs, None, work)[:1] + run.probe(1, tmp_path, run.load_oracle())
    report = run.Report()
    _, metrics = run.traced_round(cli_main, commands, report)
    assert report.failures == []
    times = [name for name, unit in run.PER_LAYER.items() if unit == "s"]
    assert [name for name in times if metrics[name] <= 0] == []


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text("utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
