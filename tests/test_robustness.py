"""Robustness: the CLI turns any input file into a report or an error.

Valid files are mutated byte by byte: quotes, CRs, NULs, BOMs, invalid
UTF-8, Unicode line separators and IRI schemes are inserted, bytes
deleted, the file cut short.  ``cli_main`` must then exit 0, 1 or 2, with
no exception escaping and an error message for every exit 2, the canonical file
written by an ``import`` or ``convert`` that succeeds must read back
without a warning, and the RDF written by an ``export`` that succeeds must
parse, under the independent oracle, to the graph of the records read,
with every typed literal in its XSD lexical space.
"""

import contextlib
import io
import os
import random
import tempfile

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from ropa_dpv import (
    Jurisdiction,
    default_config,
    export_template,
    load_registry,
    new_record,
    parse_canonical,
    records_to_graph,
    write_canonical,
)
from ropa_dpv.cli import cli_main
from conftest import CREATED, populate
from rdf_oracle import canonical_triples, invalid_literals, parse_jsonld, parse_turtle

REGISTRY = load_registry()
_UK = default_config(REGISTRY, Jurisdiction.UK)


def _template(records) -> bytes:
    """A UK template file with one data row per record."""
    texts = [export_template(record, _UK, REGISTRY)[0] for record in records]
    header = texts[0][: texts[0].index("\n") + 1]  # the headers hold no LF
    return (header + "".join(text[len(header):] for text in texts)).encode("utf-8")


_TEMPLATE = _template([
    populate(new_record("pa-1", "Acme GmbH", CREATED), REGISTRY, _UK.concept_ids),
    populate(
        new_record("pa-2", "Acme GmbH", CREATED), REGISTRY, REGISTRY.mandatory_concepts(),
        random.Random(2),
    ),
])
_REGISTER = write_canonical(
    [
        populate(new_record("pa-1", "Acme GmbH", CREATED), REGISTRY,
                 [c.id for c in REGISTRY.concepts]),
        populate(new_record("pa-2", "Beta Ltd", CREATED), REGISTRY,
                 REGISTRY.mandatory_concepts(), random.Random(2)),
        new_record("pa-3", "Gamma SA", CREATED),
    ],
    REGISTRY,
).encode("utf-8")

#: Inserted bytes: a quote, CR, NUL, a BOM, a byte that is never UTF-8,
#: U+2028 and U+0085 (which ``str.splitlines`` takes for line ends), and
#: IRI schemes that are JSON-LD context prefixes, with and without "//".
_INSERTS = [b'"', b"\r", b"\0", "\ufeff".encode(), b"\xff", "\u2028".encode(),
            "\u0085".encode(), b"dpv:x", b"xsd://x"]


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["insert", "delete", "truncate"]))
        if edit == "insert":
            data = data[:at] + draw(st.sampled_from(_INSERTS)) + data[at:]
        elif edit == "delete":
            data = data[:at] + data[at + 1:]
        else:
            data = data[:at]
    return data


def _run(argv) -> tuple[int, str]:
    """``cli_main(argv)``'s exit code, checked against the CLI contract, and
    its standard output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert "ropa: error: " in stderr.getvalue()
    return code, stdout.getvalue()


def _assert_reads_back(path: str) -> None:
    """The canonical file at ``path`` reads back without a warning, and
    writes back to the same text."""
    with open(path, "rb") as handle:
        written = handle.read().decode("utf-8")
    records, warnings = parse_canonical(written, REGISTRY)
    assert warnings == []
    assert write_canonical(records, REGISTRY) == written


_settings = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_settings
@given(data=_mutated(_TEMPLATE))
def test_import_of_a_mutated_template_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        source, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "out.csv")
        with open(source, "wb") as handle:
            handle.write(data)
        code, _ = _run(["import", "--input", source, "--template", "UK", "--out", out])
        assert code in (0, 2)
        if code == 0:
            _assert_reads_back(out)


@_settings
@given(data=_mutated(_REGISTER))
def test_validate_of_a_mutated_register_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "in.csv")
        with open(source, "wb") as handle:
            handle.write(data)
        _run(["validate", "--input", source, "--article30"])


#: Commands on the register; "OUT" stands for an output path.
_REGISTER_COMMANDS = {
    "convert": ["convert", "--from", "UK", "--to", "CY", "--out", "OUT"],
    "export-turtle": ["export", "--format", "turtle"],
    "export-jsonld": ["export", "--format", "jsonld", "--out", "OUT"],
    "query": ["query", "--rule", "JURISDICTION_READINESS"],
}


@pytest.mark.parametrize("name", list(_REGISTER_COMMANDS))
@_settings
@given(data=_mutated(_REGISTER))
def test_commands_on_a_mutated_register_exit_cleanly(name, data):
    with tempfile.TemporaryDirectory() as tmp:
        source, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "out")
        with open(source, "wb") as handle:
            handle.write(data)
        argv = [out if arg == "OUT" else arg for arg in _REGISTER_COMMANDS[name]]
        code, stdout = _run([argv[0], "--input", source, *argv[1:]])
        if code == 0 and name == "convert":
            _assert_reads_back(out)
        elif code == 0 and name.startswith("export"):
            if name == "export-jsonld":
                with open(out, "rb") as handle:
                    stdout = handle.read().decode("utf-8")
            parse = parse_turtle if name == "export-turtle" else parse_jsonld
            records, _ = parse_canonical(data, REGISTRY)
            triples = parse(stdout)
            assert triples == canonical_triples(records_to_graph(records, REGISTRY))
            assert invalid_literals(triples) == []
