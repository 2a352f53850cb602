"""Graph construction and deterministic Turtle/JSON-LD serialization."""

import contextlib
import copy
import gc
import io
import os
import pickle
import random
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import rdf_reference
from ropa_dpv import (
    DEFAULT_ROPAEX_NS,
    DPV_NS,
    IriConfusedWithPrefix,
    Node,
    NodeKind,
    RopaRecord,
    Triple,
    TripleGraph,
    empty_graph,
    field_values,
    new_record,
    records_to_graph,
    serialize_jsonld,
    serialize_turtle,
    set_field,
    to_graph,
    write_canonical,
)
from ropa_dpv.cli import cli_main
from ropa_dpv.rdf_export import RDF_NS, XSD_NS
from conftest import CREATED, populate, random_record
from rdf_oracle import canonical_triples, invalid_literals, parse_jsonld, parse_turtle

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture()
def golden_record(registry):
    record = new_record("pa-golden", "Acme GmbH", CREATED)

    def put(cid, *vals):
        nonlocal record
        record = set_field(record, registry, cid, field_values(registry, cid, *vals))

    put("purposes-of-processing", "marketing", "analytics")
    put("legal-basis-for-processing", "consent")
    put("retention-deletion-periods", "P5Y")
    put("data-combination", True)
    put("third-countries-that-personal-data-are-transferred-to", "US")
    put("privacy-notice", "https://example.com/privacy")
    put("special-category-personal-data", "health-data")
    put(
        "technical-and-organizational-measures-of-security",
        "encryption at rest", 'key "rotation"',
    )
    return record


def _predicates(graph):
    return {t.predicate.value for t in graph.triples}


def test_purpose_uses_dpv_has_purpose(registry):
    record = new_record("pa-1", "Acme", CREATED)
    record = set_field(
        record, registry, "purposes-of-processing",
        field_values(registry, "purposes-of-processing", "marketing"),
    )
    graph = to_graph(record, registry)
    assert DPV_NS + "hasPurpose" in _predicates(graph)
    objects = {
        t.object.value for t in graph.triples
        if t.predicate.value == DPV_NS + "hasPurpose"
    }
    assert objects == {"https://example.org/ropa/term/purpose/marketing"}
    outcomes = {
        t.object.value for t in graph.triples
        if t.predicate.value == DEFAULT_ROPAEX_NS + "mappingOutcome"
    }
    assert outcomes == {"EXACT"}


def test_unmapped_concept_uses_extension_namespace(registry):
    record = new_record("pa-1", "Acme", CREATED)
    record = set_field(
        record, registry, "privacy-notice",
        field_values(registry, "privacy-notice", "https://example.com/privacy"),
    )
    graph = to_graph(record, registry)
    assert DEFAULT_ROPAEX_NS + "privacyNotice" in _predicates(graph)
    outcome_triples = [
        t for t in graph.triples
        if t.predicate.value == DEFAULT_ROPAEX_NS + "mappingOutcome"
    ]
    assert [t.object.value for t in outcome_triples] == ["NONE"]
    assert outcome_triples[0].subject.kind is NodeKind.BLANK
    # data triples for a NONE concept never use the dpv: namespace
    assert not any(p.startswith(DPV_NS) for p in _predicates(graph))


def test_empty_record_graph(registry, empty_record):
    graph = to_graph(empty_record, registry)
    assert len(graph) == 3  # type + controller name + created


@pytest.mark.parametrize("created", ["yesterday", "2024-02-30T10:00:00Z", "2024-03-01", ""])
def test_graph_rejects_a_created_time_that_is_no_xsd_datetime(registry, created):
    # new_record refuses such a time; a record built directly must not be
    # written as an invalid xsd:dateTime literal.
    record = RopaRecord("pa-1", "Acme", created, {})
    with pytest.raises(ValueError, match=f"^not an xsd:dateTime: {created!r}$"):
        to_graph(record, registry)
    with pytest.raises(ValueError, match="not an xsd:dateTime"):
        records_to_graph([new_record("pa-0", "Acme", CREATED), record], registry)


def test_triple_count_is_a_function_of_the_record(registry, golden_record):
    graph = to_graph(golden_record, registry)
    data = sum(len(vs) for vs in golden_record.fields.values())
    concepts = len(golden_record.fields)
    extra_terms = sum(
        max(0, len(registry.concept(cid).dpv_terms) - 1) for cid in golden_record.fields
    )
    # per record: 3 root triples; per concept: usage link + concept + outcome
    assert len(graph) == 3 + data + concepts * 3 + extra_terms


def test_multi_term_row_gets_also_maps_to(registry):
    record = new_record("pa-1", "Acme", CREATED)
    record = set_field(
        record, registry, "retention-deletion-periods",
        field_values(registry, "retention-deletion-periods", "P5Y"),
    )
    graph = to_graph(record, registry)
    assert DPV_NS + "hasStorageDuration" in _predicates(graph)
    also = [
        t.object.value for t in graph.triples
        if t.predicate.value == DEFAULT_ROPAEX_NS + "alsoMapsTo"
    ]
    assert also == [DPV_NS + "StorageDeletion"]


def test_processing_verbs_are_objects(registry):
    record = new_record("pa-1", "Acme", CREATED)
    record = set_field(
        record, registry, "data-combination",
        field_values(registry, "data-combination", True),
    )
    graph = to_graph(record, registry)
    uses = [
        t.object.value for t in graph.triples
        if t.predicate.value == DEFAULT_ROPAEX_NS + "usesProcessing"
    ]
    assert uses == [DPV_NS + "Combine"]


def test_false_processing_verb_is_not_asserted(registry):
    record = new_record("pa-1", "Acme", CREATED)
    for cid in ("data-transfer", "data-combination"):
        record = set_field(record, registry, cid, field_values(registry, cid, False))
    graph = to_graph(record, registry)
    assert DEFAULT_ROPAEX_NS + "usesProcessing" not in _predicates(graph)
    concepts = {
        t.object.value for t in graph.triples
        if t.predicate.value == DEFAULT_ROPAEX_NS + "concept"
    }
    assert concepts == {"data-transfer", "data-combination"}


def test_data_predicate_capitalises_the_term(registry):
    cid = "third-countries-that-personal-data-are-transferred-to"
    record = new_record("pa-1", "Acme", CREATED)
    record = set_field(record, registry, cid, field_values(registry, cid, "US"))
    predicates = _predicates(to_graph(record, registry))
    assert registry.concept(cid).dpv_terms[0] == "dpv:location"
    assert DPV_NS + "hasLocation" in predicates
    assert DPV_NS + "haslocation" not in predicates


def test_namespace_overrides(registry, empty_record):
    graph = to_graph(
        empty_record, registry,
        base="https://registry.example/x/", ropaex="https://vocab.example/ext#",
    )
    subjects = {t.subject.value for t in graph.triples if t.subject.kind is NodeKind.IRI}
    assert subjects == {"https://registry.example/x/record/pa-empty"}
    assert ("ropaex", "https://vocab.example/ext#") in graph.namespaces


def test_serialize_empty_graph_is_prefix_block_only():
    text = serialize_turtle(empty_graph())
    assert text == (
        "@prefix dpv: <https://w3id.org/dpv#> .\n"
        "@prefix ropaex: <https://example.org/ropaex#> .\n"
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
    )
    document = serialize_jsonld(empty_graph())
    assert '"@graph": []' in document


def test_golden_turtle(registry, golden_record):
    graph = to_graph(golden_record, registry)
    expected = (GOLDEN / "record.ttl").read_text(encoding="utf-8")
    assert serialize_turtle(graph) == expected


def test_golden_jsonld(registry, golden_record):
    graph = to_graph(golden_record, registry)
    expected = (GOLDEN / "record.jsonld").read_text(encoding="utf-8")
    assert serialize_jsonld(graph) == expected


def test_serialization_deterministic_across_runs(registry, full_record):
    g1 = to_graph(full_record, registry)
    g2 = to_graph(full_record, registry)
    assert g1 == g2
    assert serialize_turtle(g1) == serialize_turtle(g2)
    assert serialize_jsonld(g1) == serialize_jsonld(g2)


def test_turtle_reparses_to_same_graph(registry, golden_record, full_record):
    for record in (golden_record, full_record):
        graph = to_graph(record, registry)
        assert parse_turtle(serialize_turtle(graph)) == canonical_triples(graph)


def test_jsonld_reparses_to_same_graph(registry, golden_record, full_record):
    for record in (golden_record, full_record):
        graph = to_graph(record, registry)
        assert parse_jsonld(serialize_jsonld(graph)) == canonical_triples(graph)


def test_turtle_and_jsonld_encode_equal_graphs(registry, golden_record):
    graph = to_graph(golden_record, registry)
    assert parse_turtle(serialize_turtle(graph)) == parse_jsonld(serialize_jsonld(graph))


def test_equal_outputs_iff_equal_graphs(registry, golden_record, full_record):
    g1 = to_graph(golden_record, registry)
    g2 = to_graph(full_record, registry)
    assert g1 != g2
    assert serialize_turtle(g1) != serialize_turtle(g2)
    assert serialize_jsonld(g1) != serialize_jsonld(g2)


def test_multi_record_graph_has_distinct_blank_labels(registry, golden_record, full_record):
    merged = records_to_graph([golden_record, full_record], registry)
    labels = [
        t.object.value for t in merged.triples
        if t.object.kind is NodeKind.BLANK
    ]
    assert len(labels) == len(set(labels))
    assert len(labels) == len(golden_record.fields) + len(full_record.fields)


def test_node_and_triple_validation():
    with pytest.raises(ValueError):
        Node.iri("not an iri")
    with pytest.raises(ValueError):
        Node.blank("bad label!")
    with pytest.raises(ValueError):
        Node.literal("x", datatype="http://a#b", language="en")
    # Each of these would serialize to Turtle that does not parse.
    for datatype in ["not an iri", "", "http://a#\udcff"]:
        with pytest.raises(ValueError, match="datatype is not an absolute IRI"):
            Node.literal("x", datatype=datatype)
    for language in ["en fr", "", "en-", "-en", "en_GB", "\u00e9"]:
        with pytest.raises(ValueError, match="invalid language tag"):
            Node.literal("x", language=language)
    assert Node.literal("x", language="de-CH-1996").language == "de-CH-1996"
    # Text with no UTF-8 encoding, which no serializer could write.
    with pytest.raises(ValueError, match="literal holds a lone surrogate"):
        Node.literal("a\udcff")
    lit = Node.literal("x")
    iri = Node.iri("https://example.com/p")
    with pytest.raises(ValueError):
        Triple(lit, iri, lit)
    with pytest.raises(ValueError):
        Triple(iri, lit, lit)
    # The graph runs the same checks on plain 3-tuples.
    namespaces = empty_graph().namespaces
    with pytest.raises(ValueError, match="triple subjects cannot be literals"):
        TripleGraph([(lit, iri, lit)], namespaces)
    with pytest.raises(ValueError, match="triple predicates must be IRIs"):
        TripleGraph([(iri, lit, lit)], namespaces)


@pytest.mark.parametrize(
    "namespaces",
    [
        (("ex", "urn:x:"), ("dpv", DPV_NS), ("ex", "urn:y:")),
        *[((prefix, DPV_NS),) for prefix in ["", "1x", "a b", "@a", "ex:"]],
        *[(("dpv", DPV_NS), ("ex", ns)) for ns in ["not an iri", "", "urn:"]],
    ],
    ids=["repeated-prefix", "empty-prefix", "digit-prefix", "space-prefix", "at-prefix",
         "colon-prefix", "not-an-iri", "empty-iri", "scheme-only-iri"],
)
def test_graph_rejects_a_bad_namespace_table(namespaces):
    with pytest.raises(ValueError):
        TripleGraph(frozenset(), namespaces)


def test_exporters_reject_a_bad_extension_namespace(registry):
    with pytest.raises(ValueError, match="not an absolute IRI: 'not an iri'"):
        empty_graph(ropaex="not an iri")
    with pytest.raises(ValueError, match="not an absolute IRI: 'not an iri'"):
        records_to_graph([], registry, ropaex="not an iri")


def test_graph_accepts_two_prefixes_on_one_namespace(registry, golden_record):
    assert TripleGraph(frozenset(), ()).namespaces == ()
    namespaces = (("dpv", DPV_NS), ("ropaex", DPV_NS))
    graph = TripleGraph(to_graph(golden_record, registry, ropaex=DPV_NS).triples, namespaces)
    assert graph.namespaces == namespaces
    assert parse_turtle(serialize_turtle(graph)) == canonical_triples(graph)
    assert parse_jsonld(serialize_jsonld(graph)) == canonical_triples(graph)
    _assert_reference_bytes(graph)


def test_graph_is_duplicate_free(registry):
    record = new_record("pa-1", "Acme", CREATED)
    record = set_field(
        record, registry, "purposes-of-processing",
        field_values(registry, "purposes-of-processing", "marketing"),
    )
    graph = to_graph(record, registry)
    assert isinstance(graph, TripleGraph)
    assert len(set(graph.triples)) == len(graph.triples)


def test_export_leaves_no_cyclic_garbage(registry):
    # Whatever export builds besides its result is freed by reference
    # counting; a reference cycle would wait for the collector.
    records = [
        populate(new_record(f"pa-{i}", "Acme GmbH", CREATED), registry,
                 [c.id for c in registry.concepts], random.Random(i))
        for i in range(3)
    ]
    gc.collect()
    gc.disable()
    try:
        graph = records_to_graph(records, registry)
        serialize_turtle(graph)
        serialize_jsonld(graph)
        del graph
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_copies_keep_the_shared_pair_sets(registry):
    rng = random.Random(1)
    graph = records_to_graph([random_record(registry, rng, f"pa-{i}") for i in range(40)], registry)
    pair_sets = len({id(pairs) for pairs in graph._groups.values()})
    assert pair_sets < len(graph._groups)  # usage nodes share their concept's set
    turtle, jsonld = serialize_turtle(graph), serialize_jsonld(graph)
    for copied in (pickle.loads(pickle.dumps(graph)), copy.copy(graph), copy.deepcopy(graph)):
        assert len({id(pairs) for pairs in copied._groups.values()}) == pair_sets
        assert serialize_turtle(copied) == turtle
        assert serialize_jsonld(copied) == jsonld


def test_literal_escaping_survives_reparse(registry):
    record = new_record("pa-esc", 'Name "with" \\ and\nnewline\tand\rcr', CREATED)
    graph = to_graph(record, registry)
    assert parse_turtle(serialize_turtle(graph)) == canonical_triples(graph)
    assert parse_jsonld(serialize_jsonld(graph)) == canonical_triples(graph)


@pytest.mark.parametrize(
    "name, serialize",
    [("awkward.ttl", serialize_turtle), ("awkward.jsonld", serialize_jsonld)],
)
def test_golden_awkward_corpus(registry, awkward_records, name, serialize):
    graph = records_to_graph(awkward_records, registry)
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert serialize(graph) == expected
    parse = parse_turtle if name.endswith(".ttl") else parse_jsonld
    assert parse(expected) == canonical_triples(graph)
    assert invalid_literals(parse(expected)) == []


# -- byte identity with the reference serializers (tests/rdf_reference.py) -----
# Record corpora with arbitrary Unicode text are checked in test_properties.py.

_IRIS = [
    DPV_NS + "Purpose", DPV_NS + "hasPurpose", DPV_NS + "1local", DPV_NS + "a.b",
    DEFAULT_ROPAEX_NS + "concept", RDF_NS + "type", XSD_NS + "string", "urn:x:y",
    "https://other.example/p#q", "https://other.example/", "https://other.example/extName",
    "ext:x",
]
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_iri = st.sampled_from(_IRIS).map(Node.iri)
_blank = st.sampled_from(["b0", "b1", "c10", "c2"]).map(Node.blank)
_literal = st.one_of(
    st.builds(Node.literal, _text),
    st.builds(Node.literal, _text, datatype=st.sampled_from(
        [XSD_NS + "date", "https://other.example/dt", "xsd:date"]
    )),
    st.builds(Node.literal, _text, language=st.sampled_from(["en", "fr-CA"])),
)
_NAMESPACES = [
    empty_graph().namespaces,
    (),
    # Overlapping namespaces: the first one that matches compacts an IRI.  In
    # JSON-LD only a term whose IRI ends in a gen-delim is a prefix, so there
    # "ext" compacts nothing and "ext:x" is an IRI of its own.
    (("ext", "https://other.example/ext"), ("ex", "https://other.example/"), ("dpv", DPV_NS),
     ("ex2", "urn:x:"), ("exp", "https://other.example/p#")),
]


def _assert_reference_bytes(graph):
    assert serialize_turtle(graph) == rdf_reference.serialize_turtle(graph)
    reference = rdf_reference.serialize_jsonld(graph)
    try:
        jsonld = serialize_jsonld(graph)
    except IriConfusedWithPrefix:
        # The reference writes the IRI as it is (here the "xsd:date"
        # datatype), and a JSON-LD reader takes that text for another graph.
        assert parse_jsonld(reference) != canonical_triples(graph)
    else:
        assert jsonld == reference


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    triples=st.lists(
        st.builds(Triple, st.one_of(_iri, _blank), _iri, st.one_of(_iri, _blank, _literal)),
        max_size=25,
    ),
    namespaces=st.sampled_from(_NAMESPACES),
)
def test_hand_built_graphs_serialize_as_reference(triples, namespaces):
    # Hypothesis builds equal nodes as distinct objects, too.
    _assert_reference_bytes(TripleGraph(frozenset(triples), namespaces))


_GOOD_PREFIXES, _BAD_PREFIXES = ["ex", "ex2", "dpv", "a-b_1"], ["", "1x", "a b", "@a", "ex:"]
_GOOD_NS = [
    DPV_NS, "urn:x:", "https://other.example/", "https://other.example/p#",
    "https://other.example/ext",
]
_BAD_NS = ["not an iri", "", "urn:"]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    triples=st.lists(
        st.builds(Triple, st.one_of(_iri, _blank), _iri, st.one_of(_iri, _blank, _literal)),
        max_size=10,
    ),
    namespaces=st.lists(st.tuples(
        st.sampled_from(_GOOD_PREFIXES + _BAD_PREFIXES), st.sampled_from(_GOOD_NS + _BAD_NS)
    ), max_size=4).map(tuple),
)
def test_graph_accepts_exactly_the_namespace_tables_it_writes_back(triples, namespaces):
    prefixes = [prefix for prefix, _ in namespaces]
    valid = len(set(prefixes)) == len(prefixes) and all(
        prefix in _GOOD_PREFIXES and ns in _GOOD_NS for prefix, ns in namespaces
    )
    if not valid:
        with pytest.raises(ValueError):
            TripleGraph(frozenset(triples), namespaces)
        return
    graph = TripleGraph(frozenset(triples), namespaces)
    assert parse_turtle(serialize_turtle(graph)) == canonical_triples(graph)
    assert parse_jsonld(serialize_jsonld(graph)) == canonical_triples(graph)
    _assert_reference_bytes(graph)


def _graph(*triples, namespaces=empty_graph().namespaces):
    return TripleGraph(frozenset(triples), namespaces)


_S, _B = Node.iri("https://other.example/s"), Node.blank("x1")


@pytest.mark.parametrize(
    "graph",
    [
        empty_graph(),
        _graph(namespaces=()),
        _graph(
            Triple(_S, Node.iri(DPV_NS + "hasName"), Node.literal("Acme", language="en")),
            Triple(_S, Node.iri(DPV_NS + "hasName"), Node.literal("Acme", language="de")),
            Triple(_S, Node.iri(DPV_NS + "hasName"), Node.literal("Acme")),
        ),
        _graph(
            Triple(_S, Node.iri(RDF_NS + "type"), Node.literal("not a class")),
            Triple(_S, Node.iri(RDF_NS + "type"), Node.iri(DPV_NS + "Purpose")),
            Triple(_B, Node.iri(RDF_NS + "type"), Node.iri("urn:class:x")),
        ),
        _graph(
            Triple(Node.iri("urn:x:s"), Node.iri("https://other.example/p"), Node.iri("urn:x:o")),
            Triple(_B, Node.iri(DPV_NS + "not.local"), Node.literal("1", "https://other.example/dt")),
        ),
        _graph(
            Triple(Node.iri("urn:x:s"), Node.iri(RDF_NS + "type"), Node.literal("a")),
            Triple(Node.iri("urn:x:s"), Node.iri(DPV_NS + "p"), Node.literal("a")),
        ),
    ],
    ids=["empty", "no-namespaces", "language", "rdf-type-literal", "outside-namespaces",
         "equal-nodes-distinct-objects"],
)
def test_hand_built_graph_cases_serialize_as_reference(graph):
    _assert_reference_bytes(graph)


# -- absolute IRIs that JSON-LD would read as compact IRIs ----------------------
# JSON-LD 1.1 expands "dpv:Purpose" through the context's dpv: term, unless
# "//" follows the colon.  Turtle writes every such IRI as it is.

@pytest.mark.parametrize(
    "build",
    [
        lambda iri: Triple(Node.iri(iri), Node.iri(DPV_NS + "p"), Node.literal("a")),
        lambda iri: Triple(_S, Node.iri(DPV_NS + "p"), Node.iri(iri)),
        lambda iri: Triple(_S, Node.iri(iri), Node.literal("a")),
        lambda iri: Triple(_S, Node.iri(RDF_NS + "type"), Node.iri(iri)),
        lambda iri: Triple(_S, Node.iri(DPV_NS + "p"), Node.literal("a", iri)),
    ],
    ids=["subject", "object", "predicate", "type", "datatype"],
)
def test_jsonld_rejects_an_iri_confused_with_a_prefix(build):
    graph = _graph(build("xsd:date"))
    assert parse_turtle(serialize_turtle(graph)) == canonical_triples(graph)
    with pytest.raises(IriConfusedWithPrefix, match="IRI confused with prefix"):
        serialize_jsonld(graph)
    # Without such a prefix, or with "//" after the scheme, the IRI is kept.
    for graph in (
        _graph(build("xsd:date"), namespaces=(("ex", "https://other.example/"),)),
        _graph(build("xsd://date")),
    ):
        assert parse_jsonld(serialize_jsonld(graph)) == canonical_triples(graph)
        _assert_reference_bytes(graph)


def _export(argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


_PREFIX_LIKE_IRI = st.tuples(
    st.sampled_from(["dpv", "ropaex", "rdf", "xsd", "urn", "https"]),
    st.sampled_from([":", "://"]),
    st.sampled_from(["Purpose", "x", "x/y#z", "", "//"]),
).map("".join).filter(lambda iri: not iri.endswith(":"))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(value=_PREFIX_LIKE_IRI, base=st.none() | _PREFIX_LIKE_IRI)
def test_export_of_a_prefix_like_iri_reads_back_or_exits_two(registry, value, base):
    record = set_field(
        new_record("pa-1", "Acme", CREATED), registry, "data-processing-agreement",
        field_values(registry, "data-processing-agreement", value),
    )
    options = [] if base is None else ["--base", base]
    with tempfile.TemporaryDirectory() as tmp:
        source, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "out.jsonld")
        with open(source, "w", encoding="utf-8", newline="") as handle:
            handle.write(write_canonical([record], registry))
        code, turtle, _ = _export(["export", "--input", source, "--format", "turtle", *options])
        assert code == 0
        code, _, err = _export(
            ["export", "--input", source, "--format", "jsonld", "--out", out, *options]
        )
        if code == 2:
            assert "IRI confused with prefix" in err
            assert not os.path.exists(out)
            return
        assert code == 0
        with open(out, encoding="utf-8") as handle:
            jsonld = handle.read()
    graph = to_graph(record, registry, **({} if base is None else {"base": base}))
    assert parse_turtle(turtle) == parse_jsonld(jsonld) == canonical_triples(graph)


# -- context terms that JSON-LD does not make prefixes ---------------------------
# JSON-LD 1.1 uses a context term as a prefix only if its IRI ends in one of
# ":/?#[]@".  Under such a --ropaex, JSON-LD writes the extension IRIs in full,
# "ropaex:x" is an absolute IRI of its own, and Turtle still uses ropaex:.

@pytest.mark.parametrize(
    "value, code", [("https://example.com/doc/1", 0), ("ropaex:x", 0), ("dpv:x", 2)]
)
def test_jsonld_compacts_only_through_prefix_terms(registry, value, code):
    record = set_field(
        new_record("pa-1", "Acme", CREATED), registry, "data-processing-agreement",
        field_values(registry, "data-processing-agreement", value),
    )
    ropaex = "https://example.org/ext"
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "in.csv")
        with open(source, "w", encoding="utf-8", newline="") as handle:
            handle.write(write_canonical([record], registry))
        argv = ["export", "--input", source, "--ropaex", ropaex, "--format"]
        exported = _export([*argv, "jsonld"])
        turtle = _export([*argv, "turtle"])[1]
    assert exported[0] == code
    _, jsonld, err = exported
    if code:
        assert "IRI confused with prefix" in err and jsonld == ""
        return
    graph = to_graph(record, registry, ropaex=ropaex)
    assert parse_jsonld(jsonld) == parse_turtle(turtle) == canonical_triples(graph)
    assert '"https://example.org/extcontrollerName"' in jsonld
    assert '"ropaex:controllerName"' not in jsonld
    assert "ropaex:controllerName" in turtle
