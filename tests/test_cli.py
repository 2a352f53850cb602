"""CLI contract: subcommands, exit codes, text/JSON agreement."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ropa_dpv
from ropa_dpv import (
    Jurisdiction,
    default_config,
    export_template,
    field_values,
    load_registry,
    new_record,
    set_field,
    write_canonical,
)
from ropa_dpv.cli import cli_main
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


@pytest.mark.parametrize("flag, value", [("--base", "not an iri"), ("--ropaex", "x y")])
def test_export_rejects_bad_iri_flags(capsys, mandatory_record_file, flag, value):
    code = cli_main(
        ["export", "--input", str(mandatory_record_file), "--format", "turtle", flag, value]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ropa: error: {flag} is not an absolute IRI: {value!r}\n"


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


def test_runtime_imports_only_the_standard_library(tmp_path):
    # The package has no third-party dependencies: ``-S`` keeps site hooks
    # out, so every module loaded is the standard library's or our own.
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
    src = str(Path(ropa_dpv.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(path)],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
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
    src = str(Path(ropa_dpv.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
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
    src = str(Path(ropa_dpv.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == b"[]\n"


def test_usage_error_exit_two(capsys):
    assert cli_main(["validate"]) == 2
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["convert", "--input", "x", "--from", "XX", "--to", "CY",
                     "--out", "y"]) == 2


def test_validate_requires_mode(capsys, empty_record_file):
    assert cli_main(["validate", "--input", str(empty_record_file)]) == 2