"""CLI contract: subcommands, exit codes, text/JSON agreement."""

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import ropa_dpv
import ropa_dpv.records
import ropa_dpv.registry
from ropa_dpv import (
    Jurisdiction,
    RuleId,
    default_config,
    export_template,
    field_values,
    load_registry,
    new_record,
    set_field,
    write_canonical,
)
from ropa_dpv.cli import (
    _JURISDICTION_CODES,
    _RULE_IDS,
    _TABLE,
    _build_parser,
    _json_text,
    _match,
    cli_main,
)
from conftest import CREATED, populate, random_record

REGISTRY = load_registry()


@pytest.fixture()
def empty_record_file(tmp_path, empty_record):
    path = tmp_path / "empty.csv"
    path.write_text(write_canonical([empty_record], REGISTRY), encoding="utf-8", newline="")
    return path


@pytest.fixture()
def mandatory_record_file(tmp_path, mandatory_record):
    path = tmp_path / "mandatory.csv"
    path.write_text(
        write_canonical([mandatory_record], REGISTRY), encoding="utf-8", newline=""
    )
    return path


def test_stats_text(capsys):
    assert cli_main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "43" in out
    assert "self-check" in out


def test_stats_json(capsys):
    assert cli_main(["stats", "--json"]) == 0
    envelope = json.loads(capsys.readouterr().out)
    assert list(envelope) == ["tool", "version", "command", "results"]
    assert envelope["tool"] == "ropa"
    assert envelope["command"] == "stats"
    sections = {entry["section"] for entry in envelope["results"]}
    assert sections == {"mapping_summary", "coverage", "self_check"}
    summary = next(e for e in envelope["results"] if e["section"] == "mapping_summary")
    assert summary["total"] == 43
    assert summary["complex"] == 3


@pytest.mark.parametrize("golden, argv", [("stats.txt", []), ("stats.json", ["--json"])])
def test_stats_matches_golden(capsys, golden, argv):
    assert cli_main(["stats", *argv]) == 0
    expected = (Path(__file__).parent / "golden" / golden).read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_validate_empty_record_fails(capsys, empty_record_file):
    code = cli_main(["validate", "--input", str(empty_record_file), "--article30"])
    assert code == 1
    out = capsys.readouterr().out
    assert "NOT COMPLIANT" in out
    assert "MISSING_MANDATORY" in out


def test_validate_mandatory_record_passes(capsys, mandatory_record_file):
    code = cli_main(["validate", "--input", str(mandatory_record_file), "--article30"])
    assert code == 0
    assert "COMPLIANT" in capsys.readouterr().out


def test_validate_profile_warnings_do_not_fail(capsys, mandatory_record_file):
    code = cli_main(["validate", "--input", str(mandatory_record_file), "--profile", "UK"])
    assert code == 0
    assert "MISSING_PROFILE_FIELD" in capsys.readouterr().out


def test_validate_json_and_text_agree(capsys, empty_record_file):
    cli_main(["validate", "--input", str(empty_record_file), "--article30"])
    text_out = capsys.readouterr().out
    text_findings = sorted(
        tuple(line.split()[:3]) for line in text_out.splitlines() if line.startswith("  ")
    )
    cli_main(["validate", "--input", str(empty_record_file), "--article30", "--json"])
    envelope = json.loads(capsys.readouterr().out)
    json_findings = sorted(
        (f["severity"], f["code"], f["concept"] + ":")
        for entry in envelope["results"]
        for f in entry["findings"]
    )
    assert text_findings == json_findings


def test_convert_reports_loss(capsys, tmp_path, full_record):
    src = tmp_path / "full.csv"
    src.write_text(write_canonical([full_record], REGISTRY), encoding="utf-8", newline="")
    out = tmp_path / "converted.csv"
    code = cli_main(
        ["convert", "--input", str(src), "--from", "UK", "--to", "CY", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "lost" in stdout
    assert out.exists()
    lost = 43 - len(REGISTRY.profiles[Jurisdiction.CY].concepts)
    assert f"lost {lost}" in stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--article30"],
        ["validate", "--profile", "BE", "--json"],
        ["query", "--rule", "JURISDICTION_READINESS"],
        ["query", "--rule", "TRANSFER_WITHOUT_SAFEGUARDS", "--json"],
        ["convert", "--from", "UK", "--to", "CY", "--out", "{out}", "--json"],
        ["export", "--format", "turtle"],
        ["export", "--format", "jsonld", "--out", "{out}", "--json"],
    ],
    ids=["validate", "validate-json", "query", "query-json", "convert-json", "turtle",
         "jsonld-json"],
)
def test_commands_repeat_in_one_process(capsys, tmp_path, registry, argv):
    # A command run twice in one process gives the same result twice: no
    # state it keeps outlives the call.
    rng = random.Random(1)
    text = write_canonical([random_record(registry, rng, f"pa-{i}") for i in range(12)], registry)
    text += "pa-x,retention-deletion-periods,0,DURATION,soon\npa-1,no-such-concept,0,TEXT,x\n"
    register = tmp_path / "register.csv"
    register.write_text(text, encoding="utf-8", newline="")
    out = tmp_path / "out"
    argv = [argv[0], "--input", str(register), *(a.format(out=out) for a in argv[1:])]
    runs = []
    for _ in range(2):
        code = cli_main(argv)
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err, out.exists() and out.read_bytes()))
        out.unlink(missing_ok=True)
    assert runs[0] == runs[1]
    assert "ropa: warning: line" in runs[0][2]


@pytest.mark.parametrize(
    "argv",
    [
        ["stats"],
        ["stats", "--json"],
        ["validate", "--input", "{register}", "--article30"],
        ["validate", "--input", "{register}", "--profile", "BE", "--json"],
        ["query", "--input", "{register}", "--rule", "MISSING_MANDATORY"],
        ["query", "--input", "{register}", "--rule", "MISSING_MANDATORY", "--json"],
        ["convert", "--input", "{register}", "--from", "UK", "--to", "CY", "--out", "{out}"],
        ["convert", "--input", "{register}", "--from", "UK", "--to", "CY", "--out", "{out}",
         "--json"],
        ["export", "--input", "{register}", "--format", "turtle"],
        ["export", "--input", "{register}", "--format", "jsonld", "--out", "{out}", "--json"],
        ["import", "--input", "{template}", "--template", "CY", "--out", "{out}"],
        ["import", "--input", "{template}", "--template", "CY", "--out", "{out}", "--json"],
    ],
    ids=["stats", "stats-json", "validate", "validate-json", "query", "query-json",
         "convert", "convert-json", "turtle", "jsonld-json", "import", "import-json"],
)
def test_no_command_leaves_garbage_that_grows(capsys, tmp_path, registry, argv):
    # The entry point runs a command with the cyclic collector off, which
    # holds memory only if what a command leaves for the collector does not
    # grow with its input.
    config = default_config(registry, Jurisdiction.CY)
    paths = {name: tmp_path / name for name in ("register", "template", "out")}
    left = []
    for count in (5, 20):
        rng = random.Random(count)
        records = [random_record(registry, rng, f"pa-{i}") for i in range(count)]
        # Rows the parser drops with a warning, one per record.
        bad = "".join(f"px-{i},retention-deletion-periods,0,DURATION,soon\n" for i in range(count))
        paths["register"].write_text(
            write_canonical(records, registry) + bad, encoding="utf-8", newline=""
        )
        rows = [export_template(record, config, registry)[0] for record in records]
        paths["template"].write_text(
            rows[0] + "".join(row.split("\n", 1)[1] for row in rows[1:]),
            encoding="utf-8", newline="",
        )
        gc.collect()
        gc.disable()
        try:
            code = cli_main([a.format(**paths) for a in argv])
            left.append(gc.collect())
        finally:
            gc.enable()
        assert code in (0, 1), capsys.readouterr().err
        capsys.readouterr()
    assert left[0] == left[1]


def test_json_text_leaves_no_reference_cycle():
    value = {"results": [{"id": i, "tags": ["a", None, True]} for i in range(100)]}
    gc.collect()
    gc.disable()
    try:
        text = _json_text(value)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert text == json.dumps(value, indent=2, ensure_ascii=False)


def test_export_turtle_stdout_deterministic(capsys, mandatory_record_file):
    assert cli_main(["export", "--input", str(mandatory_record_file), "--format", "turtle"]) == 0
    first = capsys.readouterr().out
    assert cli_main(["export", "--input", str(mandatory_record_file), "--format", "turtle"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("@prefix dpv:")


def test_export_jsonld_to_file(tmp_path, capsys, mandatory_record_file):
    out = tmp_path / "graph.jsonld"
    code = cli_main(
        ["export", "--input", str(mandatory_record_file), "--format", "jsonld",
         "--out", str(out), "--json"]
    )
    assert code == 0
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["results"][0]["format"] == "jsonld"
    body = json.loads(out.read_text(encoding="utf-8"))
    assert "@graph" in body


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_failed_export_leaves_an_existing_out_file_alone(capsys, tmp_path, json_flag):
    # JSON-LD refuses "dpv:x" only while it writes the document; every check
    # must still run before --out is opened.
    record = set_field(
        new_record("pa-1", "Acme", CREATED), REGISTRY, "data-processing-agreement",
        field_values(REGISTRY, "data-processing-agreement", "dpv:x"),
    )
    source, out = tmp_path / "in.csv", tmp_path / "out.jsonld"
    source.write_text(write_canonical([record], REGISTRY), encoding="utf-8", newline="")
    out.write_bytes(b"kept\n")
    argv = ["export", "--input", str(source), "--format", "jsonld", "--out", str(out)]
    assert cli_main([*argv, *json_flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "IRI confused with prefix" in captured.err
    assert out.read_bytes() == b"kept\n"


def test_export_json_requires_out(capsys, mandatory_record_file):
    code = cli_main(
        ["export", "--input", str(mandatory_record_file), "--format", "turtle", "--json"]
    )
    assert code == 2
    assert "requires --out" in capsys.readouterr().err


def test_import_json_requires_out(capsys, tmp_path):
    template = tmp_path / "cy.csv"
    template.write_text("A,B\n", encoding="utf-8")
    code = cli_main(["import", "--input", str(template), "--template", "CY", "--json"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "requires --out" in captured.err


@pytest.mark.parametrize(
    "flag, value", [("--base", "not an iri"), ("--ropaex", "x y"), ("--base", "")]
)
def test_export_rejects_bad_iri_flags(capsys, mandatory_record_file, flag, value):
    code = cli_main(
        ["export", "--input", str(mandatory_record_file), "--format", "turtle", flag, value]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ropa: error: {flag} is not an absolute IRI: {value!r}\n"


@pytest.mark.parametrize("fmt", ["turtle", "jsonld"])
def test_export_defaults_are_the_exporters(tmp_path, mandatory_record_file, fmt):
    explicit = ["--base", "https://example.org/ropa", "--ropaex", "https://example.org/ropaex#"]
    written = []
    for flags in ([], explicit):
        out = tmp_path / f"out{len(written)}"
        argv = ["export", "--input", str(mandatory_record_file), "--format", fmt]
        assert cli_main([*argv, "--out", str(out), *flags]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_query_hits_exit_one(capsys, tmp_path, registry, empty_record):
    record = populate(
        empty_record, registry, ["third-countries-that-personal-data-are-transferred-to"]
    )
    path = tmp_path / "r.csv"
    path.write_text(write_canonical([record], REGISTRY), encoding="utf-8", newline="")
    code = cli_main(
        ["query", "--input", str(path), "--rule", "TRANSFER_WITHOUT_SAFEGUARDS"]
    )
    assert code == 1
    assert "without safeguards" in capsys.readouterr().out


def test_query_no_hits_exit_zero(capsys, mandatory_record_file):
    code = cli_main(
        ["query", "--input", str(mandatory_record_file), "--rule",
         "TRANSFER_WITHOUT_SAFEGUARDS"]
    )
    # safeguards are populated on the mandatory record, so the rule is quiet
    assert code == 0
    assert "no hits" in capsys.readouterr().out


def test_query_json_and_text_agree(capsys, empty_record_file):
    cli_main(["query", "--input", str(empty_record_file), "--rule", "MISSING_MANDATORY"])
    text_out = capsys.readouterr().out
    cli_main(
        ["query", "--input", str(empty_record_file), "--rule", "MISSING_MANDATORY",
         "--json"]
    )
    envelope = json.loads(capsys.readouterr().out)
    text_hits = sorted(line for line in text_out.splitlines() if line)
    json_hits = sorted(
        f"{e['record_id']}: {e['detail']}" for e in envelope["results"]
    )
    assert text_hits == json_hits


def test_rule_choices_are_the_rule_ids_in_order(capsys):
    # The parser names the rules without importing the queries module.
    assert _RULE_IDS == tuple(r.value for r in RuleId)
    assert cli_main(["query", "--help"]) == 0
    assert "{" + ",".join(r.value for r in RuleId) + "}" in capsys.readouterr().out


def test_query_unknown_rule_is_usage_error(capsys):
    code = cli_main(["query", "--input", "x.csv", "--rule", "NO_SUCH_RULE"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ropa: error:")
    assert len(err.strip().splitlines()) == 1


def test_import_template_roundtrip(capsys, tmp_path):
    template = tmp_path / "cy.csv"
    import csv as _csv
    import io as _io
    from ropa_dpv import default_config

    config = default_config(REGISTRY, Jurisdiction.CY)
    out = _io.StringIO()
    writer = _csv.writer(out, lineterminator="\n")
    writer.writerow(config.headers)
    writer.writerow(
        ["marketing" if cid == "purposes-of-processing" else "" for cid in config.concept_ids]
    )
    template.write_text(out.getvalue(), encoding="utf-8", newline="")
    dest = tmp_path / "canonical.csv"
    code = cli_main(
        ["import", "--input", str(template), "--template", "CY", "--out", str(dest)]
    )
    assert code == 0
    body = dest.read_text(encoding="utf-8")
    assert "purposes-of-processing" in body
    assert body.startswith("record_id,concept_id,value_index,value_kind,value")


def test_convert_and_import_read_a_value_longer_than_the_csv_field_limit(
    capsys, tmp_path, long_value_record
):
    register, template = tmp_path / "register.csv", tmp_path / "cy.csv"
    register.write_text(write_canonical([long_value_record], REGISTRY), "utf-8", newline="")
    config = default_config(REGISTRY, Jurisdiction.CY)
    text, _ = export_template(long_value_record, config, REGISTRY)
    template.write_text(text, "utf-8", newline="")
    for argv in (
        ["convert", "--input", str(register), "--from", "UK", "--to", "CY"],
        ["import", "--input", str(template), "--template", "CY"],
    ):
        assert cli_main([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        assert "x" * 200_000 in (tmp_path / "out.csv").read_text("utf-8")


def test_malformed_input_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,canonical,file\n", encoding="utf-8")
    code = cli_main(["validate", "--input", str(bad), "--article30"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("ropa: error:")
    assert len(err.strip().splitlines()) == 1


def test_missing_file_exit_two(capsys):
    code = cli_main(["validate", "--input", "/nonexistent/r.csv", "--article30"])
    assert code == 2
    assert "ropa: error:" in capsys.readouterr().err


def _run_module(*args, **env):
    paths = [str(Path(ropa_dpv.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **env}
    return subprocess.run(
        [sys.executable, "-m", "ropa_dpv.cli", *args],
        capture_output=True, env=env, timeout=60,
    )


def test_module_entry_point_runs_cli():
    result = _run_module("stats")
    assert result.returncode == 0
    assert result.stdout.startswith(b"concepts: 43 ")


@pytest.mark.parametrize("command", ["export", "import"])
def test_stdout_is_utf8_under_an_ascii_locale(tmp_path, command):
    record = set_field(
        new_record("pa-1", "Café GmbH", CREATED), REGISTRY, "data-controller",
        field_values(REGISTRY, "data-controller", "Café GmbH"),
    )
    if command == "export":
        text, options = write_canonical([record], REGISTRY), ["--format", "turtle"]
    else:
        text, _ = export_template(record, default_config(REGISTRY, Jurisdiction.CY), REGISTRY)
        options = ["--template", "CY"]
    path, out = tmp_path / "input.csv", tmp_path / "out"
    path.write_text(text, encoding="utf-8", newline="")
    args = [command, "--input", str(path), *options]
    assert _run_module(*args, "--out", str(out)).returncode == 0
    result = _run_module(*args, PYTHONIOENCODING="ascii")
    assert result.returncode == 0
    assert result.stderr == b""
    assert result.stdout == out.read_bytes()
    assert "Café GmbH".encode() in result.stdout


@pytest.mark.parametrize("fmt, golden", [("turtle", "awkward.ttl"), ("jsonld", "awkward.jsonld")])
def test_export_bytes_do_not_depend_on_the_hash_seed(tmp_path, awkward_records, fmt, golden):
    # The exporter iterates dicts and sets, whose order follows the hash seed.
    path = tmp_path / "awkward.csv"
    path.write_text(write_canonical(awkward_records, REGISTRY), encoding="utf-8", newline="")
    expected = (Path(__file__).parent / "golden" / golden).read_bytes()
    for seed in ("0", "1"):
        result = _run_module(
            "export", "--input", str(path), "--format", fmt, PYTHONHASHSEED=seed
        )
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == expected


def test_stderr_is_utf8_under_an_ascii_locale(tmp_path):
    record = set_field(
        new_record("pa-1", "Café GmbH", CREATED), REGISTRY, "retention-deletion-periods",
        field_values(REGISTRY, "retention-deletion-periods", "P1D"),
    )
    text, _ = export_template(record, default_config(REGISTRY, Jurisdiction.CY), REGISTRY)
    path = tmp_path / "input.csv"
    path.write_text(text.replace("P1D", "P1é"), encoding="utf-8", newline="")
    args = ["import", "--input", str(path), "--template", "CY", "--out", str(tmp_path / "out")]
    utf8 = _run_module(*args, PYTHONIOENCODING="utf-8")
    ascii_ = _run_module(*args, PYTHONIOENCODING="ascii")
    assert utf8.returncode == ascii_.returncode == 0
    assert "not an ISO-8601 duration: 'P1é'".encode() in utf8.stderr
    assert ascii_.stderr == utf8.stderr


@pytest.mark.parametrize(
    "flag, value", [("--base", b"https://x/\xff"), ("--ropaex", b"https://x/\xff#")]
)
def test_an_iri_flag_with_a_non_utf8_byte_is_a_usage_error(
    tmp_path, mandatory_record_file, flag, value
):
    # Python reads a byte of argv that is not UTF-8 as a lone surrogate.
    out = tmp_path / "out.ttl"
    argv = ["export", "--input", str(mandatory_record_file), "--format", "turtle"]
    result = _run_module(*argv, flag, value, "--out", str(out))
    assert (result.returncode, result.stdout) == (2, b"")
    expected = f"ropa: error: {flag} is not an absolute IRI: {os.fsdecode(value)!r}\n"
    assert result.stderr == expected.encode()
    assert not out.exists()


def test_an_out_path_with_a_non_utf8_byte_reads_back_from_the_summary(
    tmp_path, mandatory_record_file
):
    out = os.fsencode(tmp_path / "o") + b"\xff.ttl"
    argv = ["export", "--input", str(mandatory_record_file), "--format", "turtle"]
    result = _run_module(*argv, "--out", out, "--json")
    assert (result.returncode, result.stderr) == (0, b"")
    # stdout writes the lone surrogate as its escape, which JSON reads back.
    assert b"\\udcff" in result.stdout
    assert os.fsencode(json.loads(result.stdout)["results"][0]["output"]) == out
    assert os.path.isfile(out)


def test_week_duration_is_dropped_on_import(capsys, tmp_path):
    # xsd:duration has no week component, so "P2W" must not reach an export.
    cid = "retention-deletion-periods"
    record = set_field(
        new_record("pa-1", "Acme", CREATED), REGISTRY, cid, field_values(REGISTRY, cid, "P1D")
    )
    config = default_config(REGISTRY, Jurisdiction.UK)
    assert "Retention/Deletion Periods" in config.headers
    text, _ = export_template(record, config, REGISTRY)
    template, register = tmp_path / "uk.csv", tmp_path / "register.csv"
    template.write_text(text.replace("P1D", "P2W"), encoding="utf-8", newline="")
    args = ["import", "--input", str(template), "--template", "UK", "--out", str(register)]
    assert cli_main(args) == 0
    err = capsys.readouterr().err
    assert err.count("; value dropped") == 1
    assert "not an ISO-8601 duration: 'P2W'" in err
    for fmt in ("turtle", "jsonld"):
        assert cli_main(["export", "--input", str(register), "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "dpv:" in out and "P2W" not in out


def _run_child(code: str, *args: str):
    """``python -S -c code args...`` with only the package's source tree on
    the path: ``-S`` keeps site hooks, and the modules they load, out."""
    src = str(Path(ropa_dpv.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )


def test_runtime_imports_only_the_standard_library(tmp_path):
    # The package has no third-party dependencies: with site hooks kept out,
    # every module loaded is the standard library's or our own.
    record = set_field(
        new_record("pa-1", "Acme", CREATED), REGISTRY, "purposes-of-processing",
        field_values(REGISTRY, "purposes-of-processing", "marketing"),
    )
    path = tmp_path / "register.csv"
    path.write_text(write_canonical([record], REGISTRY), encoding="utf-8", newline="")
    code = (
        "import sys\n"
        "from ropa_dpv.cli import cli_main\n"
        "assert cli_main(['stats']) == 0\n"
        "assert cli_main(['export', '--input', sys.argv[1], '--format', 'jsonld']) == 0\n"
        "names = {name.partition('.')[0] for name in sys.modules}\n"
        "print(*sorted(names - sys.stdlib_module_names), file=sys.stderr)\n"
    )
    result = _run_child(code, str(path))
    assert result.returncode == 0, result.stderr
    assert b"dpv:hasPurpose" in result.stdout
    names = set(result.stderr.split())
    assert b"ropa_dpv" in names
    assert names <= {b"__main__", b"ropa_dpv"}


def test_start_up_imports_no_dataclasses():
    # ``dataclasses`` costs about 10 ms to import, with ``inspect``, ``ast``,
    # ``dis`` and ``tokenize``.  Modules the stdlib's own importlib.resources
    # loads are not counted: from Python 3.12 on it imports ``inspect``.
    code = (
        "import sys, importlib.resources\n"
        "stdlib = set(sys.modules)\n"
        "import ropa_dpv.cli\n"
        "ropa_dpv.cli.load_registry()\n"
        "loaded = set(sys.modules) - stdlib\n"
        "print(sorted(loaded & {'dataclasses', 'inspect', 'datetime'}))\n"
    )
    result = _run_child(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[]\n"


def test_start_up_imports_no_importlib_resources():
    # From Python 3.12 on, ``importlib.resources`` imports ``inspect`` (with
    # ``ast``, ``dis`` and ``tokenize``); packaged data is read without it.
    code = (
        "import sys\n"
        "import ropa_dpv.cli\n"
        "ropa_dpv.cli.load_registry()\n"
        "print(sorted(set(sys.modules) & {'importlib.resources', 'inspect'}))\n"
    )
    result = _run_child(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[]\n"


def test_a_command_loads_only_its_own_layers(tmp_path):
    record = new_record("pa-1", "Acme", CREATED)
    text, _ = export_template(record, default_config(REGISTRY, Jurisdiction.CY), REGISTRY)
    template, register, graph = tmp_path / "cy.csv", tmp_path / "register.csv", tmp_path / "jsonld"
    template.write_text(text, encoding="utf-8", newline="")
    # Neither OpenSSL (through hashlib) nor the json package is loaded: the
    # registry and the JSON writers use the interpreter's built-in modules.
    # Nor is argparse, with the gettext, locale and shutil modules it brings:
    # each command line here is read from the option table.
    code = (
        "import sys\n"
        "from ropa_dpv.cli import cli_main\n"
        "layers = {'ropa_dpv.rdf_export', 'ropa_dpv.validation', 'ropa_dpv.queries', 'urllib',\n"
        "          '_hashlib', 'hashlib', 'json', 'argparse', 'gettext', 'locale', 'shutil'}\n"
        "assert cli_main(['import', '--input', sys.argv[1], '--template', 'CY',\n"
        "                 '--out', sys.argv[2], '--json']) == 0\n"
        "print(sorted(layers & set(sys.modules)), file=sys.stderr)\n"
        "assert cli_main(['export', '--input', sys.argv[2], '--format', 'jsonld',\n"
        "                 '--out', sys.argv[3], '--json']) == 0\n"
        "print(sorted(layers & set(sys.modules)), file=sys.stderr)\n"
    )
    result = _run_child(code, str(template), str(register), str(graph))
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == [b"[]", b"['ropa_dpv.rdf_export', 'urllib']"]


def test_help_loads_argparse():
    code = (
        "import sys\n"
        "from ropa_dpv.cli import cli_main\n"
        "assert 'argparse' not in sys.modules\n"
        "assert cli_main(['validate', '--help']) == 0\n"
        "print(sorted({'argparse', 'gettext'} & set(sys.modules)), file=sys.stderr)\n"
    )
    result = _run_child(code)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(b"usage: ropa validate [-h] --input INPUT")
    assert result.stderr == b"['argparse', 'gettext']\n"


def test_commands_fall_back_without_the_builtin_hash_and_json_modules(tmp_path):
    # Where CPython was built without its own SHA-256 or without ``_json``,
    # the registry falls back to hashlib and the JSON writers to json.encoder.
    record = set_field(
        new_record("pa-1", 'Acm\u00e9 "Ltd"\t\U0001F600', CREATED), REGISTRY,
        "purposes-of-processing", field_values(REGISTRY, "purposes-of-processing", "marketing"),
    )
    path = tmp_path / "register.csv"
    path.write_text(write_canonical([record], REGISTRY), encoding="utf-8", newline="")
    code = (
        "import sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules.update(dict.fromkeys(['_sha2', '_sha256', '_json']))\n"
        "from ropa_dpv.cli import cli_main\n"
        "assert cli_main(['stats', '--json']) == 0\n"
        "assert cli_main(['export', '--input', sys.argv[2], '--format', 'jsonld']) == 0\n"
        "print('hashlib' in sys.modules, file=sys.stderr)\n"
    )
    blocked = _run_child(code, "blocked", str(path))
    builtin = _run_child(code, "builtin", str(path))
    assert blocked.returncode == builtin.returncode == 0, blocked.stderr + builtin.stderr
    assert blocked.stdout == builtin.stdout
    assert '"@value": "Acm\u00e9 \\"Ltd\\"\\t\U0001F600"'.encode() in builtin.stdout
    assert (blocked.stderr, builtin.stderr) == (b"True\n", b"False\n")


@pytest.mark.skipif(sys.implementation.name != "cpython", reason="CPython's _json")
def test_json_strings_are_escaped_by_the_function_json_encoder_binds():
    assert ropa_dpv.records._json is json.encoder.c_encode_basestring


@given(st.binary())
def test_registry_digest_is_sha256(data):
    assert ropa_dpv.registry._sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_package_names_are_their_modules_objects():
    assert len(set(ropa_dpv.__all__)) == len(ropa_dpv.__all__)
    for module, names in ropa_dpv._EXPORTS.items():
        home = importlib.import_module(f"ropa_dpv.{module}")
        for name in names:
            assert name in ropa_dpv.__all__
            assert getattr(ropa_dpv, name) is getattr(home, name)
    assert set(ropa_dpv.__all__) <= set(dir(ropa_dpv))
    with pytest.raises(AttributeError, match="no_such_name"):
        ropa_dpv.no_such_name
    namespace = {}
    exec("from ropa_dpv import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ropa_dpv.__all__)


def test_main_freezes_the_collector_before_exit():
    code = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count(), gc.isenabled()))\n"
        "sys.argv = ['ropa', 'stats']\n"
        "from ropa_dpv.cli import main\n"
        "main()\n"
    )
    result = _run_child(code)
    assert result.returncode == 0, result.stderr
    frozen, enabled = result.stdout.rpartition(b"frozen ")[2].split()
    assert int(frozen) > 0
    assert enabled == b"False"


def test_cli_main_leaves_the_collector_alone(capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    assert cli_main(["stats"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_usage_error_exit_two(capsys):
    assert cli_main(["validate"]) == 2
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["convert", "--input", "x", "--from", "XX", "--to", "CY",
                     "--out", "y"]) == 2


def test_validate_requires_mode(capsys, empty_record_file):
    assert cli_main(["validate", "--input", str(empty_record_file)]) == 2

# -- the option table's matcher and argparse ------------------------------------

#: Every command line ``ropabench/run.py`` runs, with its paths shortened.
_BENCHMARK_ARGV = [
    "validate --input r.csv --article30",
    "validate --input r.csv --profile BE --json",
    "query --input r.csv --rule JURISDICTION_READINESS",
    "query --input r.csv --rule TRANSFER_WITHOUT_SAFEGUARDS",
    "export --input r.csv --format turtle",
    "export --input r.csv --format jsonld --out g.jsonld --json",
    "convert --input r.csv --from UK --to CY --out c.csv --json",
    "import --input t.csv --template CY --out o.csv --json",
]


def _readme_argv() -> list[str]:
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    return [
        line[len("ropa "):].partition("#")[0]
        for line in readme.splitlines()
        if line.startswith("ropa ")
    ]


def _parse(argv):
    """``vars`` of what argparse reads from ``argv``, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def test_plain_command_lines_skip_argparse():
    readme = _readme_argv()
    assert len(readme) == 7
    for line in _BENCHMARK_ARGV + readme:
        argv = line.split()
        args = _match(argv)
        assert args is not None, line
        assert vars(args) == _parse(argv)


_OPTIONS = sorted({option.name for command in _TABLE.values() for option in command.options})
#: Values that start with "-": argparse reads "-" and "-1" as values, and
#: the others as options.
_DASHED = ["-", "-1", "--json", "--article30"]
_VALUES = [
    *_JURISDICTION_CODES[:2], "XX", "turtle", "jsonld", "Turtle", *_RULE_IDS, "NO_SUCH_RULE",
    "a.csv", "", *_DASHED,
]
_TOKENS = [
    *_TABLE, "frobnicate", *_OPTIONS, "-h", "--help", "--version", "--",
    "--inp", "--art", "--prof", "--input=a.csv", "--profile=BE", "--json=", *_VALUES,
]


@st.composite
def _argv(draw) -> list[str]:
    """Up to 10 tokens: a command, its required options and some others in
    any order, each with a value that is valid or not, and now and then
    any token put in; or, one time in four, up to 8 tokens of any kind."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(st.sampled_from(_TOKENS), max_size=8))
    name = draw(st.sampled_from([*_TABLE, "frobnicate"]))
    command = _TABLE.get(name)
    options = [o for o in (command.options if command else ()) if o.required or draw(st.booleans())]
    argv = [name]
    for option in draw(st.permutations(options)):
        argv.append(option.name)
        if not option.flag:
            valid = st.sampled_from(option.choices or ["a.csv"])
            argv.append(draw(st.one_of(
                valid, valid, valid, st.sampled_from(_VALUES), st.sampled_from(_DASHED)
            )))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
    return argv[:10]


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argv())
def test_what_the_matcher_reads_argparse_reads_alike(argv):
    args = _match(argv)
    if args is not None:
        assert vars(args) == _parse(argv)
