"""Property-based checks: round-trips, conversion laws, monotonicity, RDF export."""

import csv
import io
import json
import re

import hypothesis.strategies as st
from hypothesis import HealthCheck, example, given, settings

import canonical_reference
import rdf_reference
import validation_reference
from ropa_dpv import (
    ConceptRegistry,
    FieldValue,
    Jurisdiction,
    JurisdictionProfile,
    Multiplicity,
    RopaError,
    RopaRecord,
    Triple,
    TripleGraph,
    ValueKind,
    convert,
    default_config,
    export_template,
    gap_matrix,
    load_registry,
    new_record,
    parse_canonical,
    records_to_graph,
    serialize_jsonld,
    serialize_turtle,
    set_field,
    validate_against_profile,
    validate_article30,
    write_canonical,
)
from ropa_dpv.cli import _json_text
from ropa_dpv.records import has_surrogate
from ropa_dpv.template_io import CANONICAL_HEADER
from conftest import CREATED, sample_values
from rdf_oracle import canonical_triples, invalid_literals, parse_jsonld, parse_turtle

REGISTRY = load_registry()
ALL_IDS = [c.id for c in REGISTRY.concepts]
CONFIGS = {j: default_config(REGISTRY, j) for j in Jurisdiction}

_name_text = st.text(
    alphabet=st.one_of(
        st.characters(min_codepoint=32, max_codepoint=0x024F),
        st.sampled_from('\n\t";,\\'),
    ),
    min_size=1,
    max_size=20,
)
#: Any code point but a surrogate, with C0 and C1 controls, U+2028, U+FEFF
#: and a character outside the BMP drawn often.
_unicode_text = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from('\x00\x01\x1f\x7f\x85\x9f\u2028\ufeff\U0001F600\r\n\t";\\'),
    ),
    min_size=1,
    max_size=20,
)
_slug = st.from_regex(r"[a-z][a-z0-9-]{0,11}", fullmatch=True)
_record_id = st.from_regex(r"[A-Za-z0-9._~-]{1,12}", fullmatch=True)
_duration = st.from_regex(r"P[1-9][0-9]?[YMD]", fullmatch=True)
_country = st.from_regex(r"[A-Z]{2}", fullmatch=True)
_uri = _slug.map(lambda s: f"https://example.com/{s}")
_date = st.dates().map(lambda d: d.isoformat())


def _value_strategy(concept_id, text=_name_text):
    schema = REGISTRY.concept(concept_id).value_schema
    kind = schema.kind
    if kind is ValueKind.BOOLEAN:
        scalar = st.booleans()
    elif kind in (ValueKind.TERM, ValueKind.TERM_LIST):
        known = REGISTRY.known_terms(schema.vocabulary)
        scalar = st.sampled_from(sorted(known)) if known else _slug
    elif kind is ValueKind.DURATION:
        scalar = _duration
    elif kind is ValueKind.COUNTRY_LIST:
        scalar = _country
    elif kind is ValueKind.URI:
        scalar = _uri
    elif kind is ValueKind.DATE:
        scalar = _date
    else:
        scalar = text
    max_values = 1 if schema.multiplicity is Multiplicity.ONE else 3
    return st.lists(scalar, min_size=1, max_size=max_values, unique=True).map(
        lambda items: [FieldValue(kind, v) for v in items]
    )


@st.composite
def ropa_records(draw, text=_name_text):
    record = new_record(draw(_record_id), draw(text), CREATED)
    chosen = draw(st.lists(st.sampled_from(ALL_IDS), unique=True, max_size=12))
    for cid in chosen:
        record = set_field(record, REGISTRY, cid, draw(_value_strategy(cid, text)))
    return record


_pair = st.tuples(st.sampled_from(list(Jurisdiction)), st.sampled_from(list(Jurisdiction)))

_settings = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@_settings
@given(
    records=st.lists(
        ropa_records(_unicode_text), max_size=4, unique_by=lambda r: r.record_id
    )
)
def test_canonical_round_trip(records):
    text = write_canonical(records, REGISTRY)
    parsed, warnings = parse_canonical(text, REGISTRY)
    assert warnings == []
    assert parsed == records
    assert write_canonical(parsed, REGISTRY) == text


#: Text the CSV writers must quote: a record built directly, not through
#: ``new_record``, may hold it in its id and ``created``.
_csv_special_text = st.text(alphabet=st.sampled_from('ab,"\n\r'), max_size=6)


@st.composite
def written_records(draw):
    record = draw(ropa_records(_unicode_text))
    if draw(st.booleans()):
        record = record._replace(record_id=draw(_csv_special_text))
    if draw(st.booleans()):
        record = record._replace(created=draw(_csv_special_text))
    return record


@_settings
@given(records=st.lists(written_records(), max_size=4, unique_by=lambda r: r.record_id))
def test_write_canonical_matches_reference(records):
    # A record id that the parse rejects is refused by both writers.
    assert _outcome(write_canonical, records) == _outcome(
        canonical_reference.write_canonical, records
    )


@_settings
@given(record=written_records())
def test_export_template_matches_reference(record):
    for j in Jurisdiction:
        text, _ = export_template(record, CONFIGS[j], REGISTRY)
        assert text == canonical_reference.export_template_text(record, CONFIGS[j])


_CANON_RECORD_IDS = ["pa-1", "pa-2", "b.3"]
#: Metadata rows, known and unknown, an unknown concept, and concepts of
#: several kinds with either multiplicity.
_CANON_CONCEPTS = [
    "_meta:controller_name", "_meta:created", "_meta:owner", "no-such-concept",
    "data-controller", "processor", "purposes-of-processing",
    "retention-deletion-periods", "data-transfer", "privacy-notice",
]
_CANON_KIND_TAGS = [kind.value for kind in ValueKind] + ["bogus"]
_CANON_LEXICALS = [
    "Acme GmbH", "", "marketing", "P1Y", "1Y", "true", "maybe",
    "https://example.com/a", "not an iri", "2024-03-01T10:00:00Z", "2024-03-01",
    "a\ud800b", 'x;y\n"z"', "P2W", "P1W2D", "20240301", "2024-W10-1",
]
_CANON_FAULTS = ["duplicate", "gap", "index", "record_id", "columns", "out_of_order"]


@st.composite
def canonical_files(draw):
    """Canonical CSV text: records interleaved, rows shuffled, up to two faults.

    The ``out_of_order`` fault puts a cell's rows in a row's place, with
    indexes 1, 0 or 0, 2, 1, and maybe a repeat of one of them: a cell that
    starts as an index map, and one that starts as a tuple and turns into one.
    """
    cells = draw(st.lists(
        st.tuples(
            st.sampled_from(_CANON_RECORD_IDS),
            st.sampled_from(_CANON_CONCEPTS),
            st.integers(1, 3),
        ),
        max_size=8,
        unique_by=lambda cell: cell[:2],
    ))
    rows = []
    for record_id, concept_id, count in cells:
        known = concept_id in ALL_IDS
        kind = REGISTRY.concept(concept_id).value_schema.kind.value if known else "TEXT"
        for index in range(count):
            tag = draw(st.one_of(st.just(kind), st.sampled_from(_CANON_KIND_TAGS)))
            rows.append([record_id, concept_id, str(index), tag,
                         draw(st.sampled_from(_CANON_LEXICALS))])
    rows = draw(st.permutations(rows))
    for fault in draw(st.lists(st.sampled_from(_CANON_FAULTS), max_size=2)):
        if not rows:
            break
        at = draw(st.integers(0, len(rows) - 1))
        row = list(rows[at])
        if fault == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), row)
        elif fault == "gap":
            del rows[at]
        elif fault == "out_of_order":
            order = draw(st.sampled_from([[1, 0], [0, 2, 1]]))
            cell = [[*row[:2], str(index), *row[3:]] for index in order]
            if draw(st.booleans()):
                cell.append(draw(st.sampled_from(cell)))
            rows[at:at + 1] = cell
        else:
            if fault == "index":
                # The last five are spellings of 0 other than "0"; int() reads them as 0.
                row[2] = draw(st.sampled_from(
                    ["-1", "x", "", "1.0", " 1", "01", "7", "00", "+0", " 0", "0 ", "\u0660"]
                ))
            elif fault == "record_id":
                row[0] = draw(st.sampled_from(["", "pa 1", "a\u00e9"]))
            else:
                row = row[:4] if draw(st.booleans()) else row + ["extra"]
            rows[at] = row
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([CANONICAL_HEADER, *rows])
    return out.getvalue()


def _outcome(call, source):
    """``call(source, REGISTRY)``, or the type and text of its RopaError."""
    try:
        return call(source, REGISTRY)
    except RopaError as exc:
        return type(exc), str(exc)


_HEADER_LINE = ",".join(CANONICAL_HEADER) + "\n"


@_settings
@given(text=canonical_files())
# two non-contiguous cells: the one first seen in the file is reported,
# though the other belongs to the record seen first
@example(text=_HEADER_LINE + "A,processor,0,TEXT,x\nB,processor,1,TEXT,y\n"
         "A,data-controller,1,TEXT,z\n")
# spellings of index 0 other than "0" start a cell and repeat one; an empty
# index is no spelling of 0
@example(text=_HEADER_LINE + "A,processor,00,TEXT,x\nA,processor,1,TEXT,y\n"
         "A,data-controller, 0,TEXT,z\nA,data-controller,+0,TEXT,w\n")
@example(text=_HEADER_LINE + "A,processor,,TEXT,x\n")
# The parse reads each row once, so these rows reach a cell after its first:
# a value after a dropped index 0, with another cell in between ...
@example(text=_HEADER_LINE + "A,processor,0,XX,x\nA,data-controller,0,TEXT,z\n"
         "A,processor,1,TEXT,y\n")
# ... two valid values after an invalid first one, on a single-valued concept ...
@example(text=_HEADER_LINE + "A,privacy-notice,0,URI,not an iri\n"
         "A,privacy-notice,1,URI,https://example.com/a\n"
         "A,privacy-notice,2,URI,urn:x\n")
# ... and a second created time, not next to the first.
@example(text=_HEADER_LINE + "A,_meta:created,0,TEXT,2024-03-01T10:00:00Z\n"
         "A,processor,0,TEXT,x\nA,_meta:created,1,TEXT,2024-03-01\n")
# An index that comes early waits until the one before it is read: a cell
# whose early index is filed and which then has a gap is reported at its
# first row (line 2), not at its index 0 ...
@example(text=_HEADER_LINE + "A,processor,1,TEXT,y\nA,processor,0,TEXT,x\n"
         "A,processor,3,TEXT,z\n")
# ... of two cells with a gap, the one whose first row comes first is
# reported, though its gap shows after the other's ...
@example(text=_HEADER_LINE + "A,processor,0,TEXT,x\nA,data-controller,1,TEXT,z\n"
         "A,processor,2,TEXT,y\n")
# ... a single-valued cell whose index 0 comes after its index 1 is reported
# at its index 0's line ...
@example(text=_HEADER_LINE + "A,privacy-notice,1,URI,urn:x\n"
         "A,privacy-notice,0,URI,https://example.com/a\n")
# ... and an index read twice while it waits is a duplicate.
@example(text=_HEADER_LINE + "A,processor,0,TEXT,x\nA,processor,2,TEXT,y\n"
         "A,processor,2,TEXT,z\nA,processor,1,TEXT,w\n")
def test_parse_canonical_matches_reference(text):
    outcome = _outcome(parse_canonical, text)
    expected = _outcome(canonical_reference.parse_canonical, text)
    assert outcome == expected
    if isinstance(expected[0], list):  # records: their fields in the same order too
        assert [list(r.fields) for r in outcome[0]] == [list(r.fields) for r in expected[0]]


@_settings
@given(text=canonical_files())
# values outside the lexical space of xsd:duration and xsd:dateTime, which the
# parse must drop
@example(text=_HEADER_LINE + "pa-1,_meta:created,0,TEXT,20240301\n"
         "pa-1,retention-deletion-periods,0,DURATION,P2W\n"
         "pa-1,retention-deletion-periods,1,DURATION,P1W2D\n")
def test_literals_exported_from_a_parsed_file_are_in_their_lexical_space(text):
    try:
        records, _ = parse_canonical(text, REGISTRY)
    except RopaError:
        return
    graph = records_to_graph(records, REGISTRY)
    assert invalid_literals(parse_turtle(serialize_turtle(graph))) == []
    assert invalid_literals(parse_jsonld(serialize_jsonld(graph))) == []


@_settings
@given(record=ropa_records(), pair=_pair)
def test_convert_never_invents_and_partitions(record, pair):
    _, b = pair
    converted, loss = convert(record, CONFIGS[b], REGISTRY)
    assert converted.populated() <= record.populated()
    lost_ids = {cid for cid, _ in loss.lost}
    assert lost_ids | converted.populated() == record.populated()
    assert lost_ids & converted.populated() == set()
    assert loss.retained_count == len(converted.fields)


@_settings
@given(record=ropa_records(), pair=_pair)
def test_convert_idempotent_for_fixed_target(record, pair):
    _, b = pair
    once, _ = convert(record, CONFIGS[b], REGISTRY)
    twice, loss = convert(once, CONFIGS[b], REGISTRY)
    assert twice == once
    assert loss.lost == ()


@_settings
@given(record=ropa_records())
def test_profile_checks_add_only_warnings(record):
    base_errors = validate_article30(record, REGISTRY).error_count
    for j in Jurisdiction:
        report = validate_against_profile(record, REGISTRY.profiles[j], REGISTRY)
        assert report.error_count == base_errors


@_settings
@given(record=ropa_records(), data=st.data())
def test_validators_monotone_under_field_addition(record, data):
    absent = sorted(set(ALL_IDS) - record.populated())
    if not absent:
        return
    cid = data.draw(st.sampled_from(absent))
    values = data.draw(_value_strategy(cid))
    grown = set_field(record, REGISTRY, cid, values)
    assert len(validate_article30(grown, REGISTRY).findings) <= len(
        validate_article30(record, REGISTRY).findings
    )
    for j in Jurisdiction:
        profile = REGISTRY.profiles[j]
        assert len(validate_against_profile(grown, profile, REGISTRY).findings) <= len(
            validate_against_profile(record, profile, REGISTRY).findings
        )


@_settings
@given(record=ropa_records(), data=st.data())
def test_gap_matrix_ready_monotone(record, data):
    absent = sorted(set(ALL_IDS) - record.populated())
    if not absent:
        return
    cid = data.draw(st.sampled_from(absent))
    grown = set_field(record, REGISTRY, cid, data.draw(_value_strategy(cid)))
    before = gap_matrix(record, REGISTRY)
    after = gap_matrix(grown, REGISTRY)
    for j in Jurisdiction:
        if before[j].ready:
            assert after[j].ready


# Values ``set_field`` would refuse: one of every kind, so most are of the
# wrong kind for the concept, plus terms missing from the seeded vocabularies.
_OFF_SCHEMA_VALUES = [
    FieldValue(ValueKind.TEXT, "free text"),
    FieldValue(ValueKind.TEXT_LIST, "list item"),
    FieldValue(ValueKind.TERM, "unseeded-term"),
    FieldValue(ValueKind.TERM_LIST, "unseeded-term"),
    FieldValue(ValueKind.DURATION, "P1Y"),
    FieldValue(ValueKind.COUNTRY_LIST, "US"),
    FieldValue(ValueKind.BOOLEAN, True),
    FieldValue(ValueKind.URI, "https://example.com/x"),
    FieldValue(ValueKind.DATE, "2024-01-15"),
]


_SEEDED_VOCABULARY_IDS = {
    c.id for c in REGISTRY.concepts
    if c.value_schema.vocabulary and REGISTRY.known_terms(c.value_schema.vocabulary)
}


@st.composite
def hand_built_records(draw):
    """Records built without ``set_field``: wrong-kind values, several values
    on single-valued concepts, and unknown terms of seeded vocabularies.

    Half start from every concept holding valid values, so that a few bad
    concepts decide whether a jurisdiction is ready.
    """
    if draw(st.booleans()):
        chosen = ALL_IDS
    else:
        chosen = draw(st.lists(st.sampled_from(ALL_IDS), unique=True, max_size=20))
    seeded = [cid for cid in chosen if cid in _SEEDED_VOCABULARY_IDS]
    pick = st.sampled_from(chosen)
    if seeded:
        pick = st.one_of(st.sampled_from(seeded), pick)
    bad = draw(st.lists(pick, unique=True, max_size=3)) if chosen else []
    fields = {}
    for cid in chosen:
        values = draw(_value_strategy(cid))
        if cid in bad:
            kind = REGISTRY.concept(cid).value_schema.kind
            fault = st.sampled_from(_OFF_SCHEMA_VALUES)
            if "TERM" in kind.value:
                fault = st.one_of(st.just(FieldValue(kind, "unseeded-term")), fault)
            # replace the values, or add one more to them
            kept = values if draw(st.booleans()) else []
            values = kept + [draw(fault)]
        fields[cid] = tuple(values)
    return RopaRecord(draw(_record_id), "Hand Built Ltd", CREATED, fields)


_ALL_VALID = {cid: tuple(sample_values(REGISTRY, cid)) for cid in ALL_IDS}


@_settings
@given(record=st.one_of(ropa_records(), hand_built_records()))
@example(record=RopaRecord("all-valid", "Acme", CREATED, _ALL_VALID))
@example(
    record=RopaRecord(
        "unseeded-term", "Acme", CREATED,
        {
            **_ALL_VALID,
            "legal-basis-for-processing": (FieldValue(ValueKind.TERM_LIST, "unseeded-term"),),
        },
    )
)
def test_gap_matrix_agrees_with_profile_validation(record):
    matrix = gap_matrix(record, REGISTRY)
    assert list(matrix) == list(Jurisdiction)
    for j in Jurisdiction:
        report = validate_against_profile(record, REGISTRY.profiles[j], REGISTRY)
        status = matrix[j]
        assert status.errors == report.error_count
        assert status.warnings == report.warning_count
        assert status.ready == (not report.findings)


_TEXT_VALUE = (FieldValue(ValueKind.TEXT, "x"),)
#: A CY profile that is not the registry's: every third concept.
_HAND_BUILT_PROFILE = JurisdictionProfile(Jurisdiction.CY, 12, frozenset(ALL_IDS[::3]))
#: The registry with every mandatory flag flipped and every other seeded
#: vocabulary left free.
_OTHER_REGISTRY = ConceptRegistry(
    tuple(row._replace(mandatory=not row.mandatory) for row in REGISTRY.rows),
    REGISTRY.profiles,
    dict(sorted(REGISTRY.vocabularies.items())[::2]),
)


@_settings
@given(record=st.one_of(ropa_records(), hand_built_records()))
# Populated means present in ``fields``: a mandatory concept mapped to no
# values is not missing.
@example(record=RopaRecord("no-values", "Acme", CREATED,
                           {REGISTRY.mandatory_concepts()[0]: ()}))
@example(record=RopaRecord("unknown-id", "Acme", CREATED, {"no-such-concept": _TEXT_VALUE}))
@example(record=RopaRecord("container", "Acme", CREATED, {REGISTRY.container.id: _TEXT_VALUE}))
def test_validation_matches_reference(record):
    # Each registry keeps its own plans, one per profile: the hand-built
    # profile shares its jurisdiction with a profile of the registry.
    for registry in (REGISTRY, _OTHER_REGISTRY):
        expected = validation_reference.validate_article30(record, registry)
        assert validate_article30(record, registry) == expected
        for profile in [*registry.profiles.values(), _HAND_BUILT_PROFILE]:
            expected = validation_reference.validate_against_profile(record, profile, registry)
            assert validate_against_profile(record, profile, registry) == expected
        expected = validation_reference.gap_matrix(record, registry)
        assert list(gap_matrix(record, registry).items()) == list(expected.items())


_IRI_OPTIONS = st.sampled_from([
    {},
    {"base": "https://registry.example/x/", "ropaex": "https://vocab.example/ext#"},
])


@_settings
@given(
    records=st.lists(
        ropa_records(_unicode_text), max_size=4, unique_by=lambda r: r.record_id
    ),
    options=_IRI_OPTIONS,
)
def test_rdf_export_matches_reference_on_unicode_text(records, options):
    graph = _assert_graph_matches_reference(records, options)
    for serialize, parse in ((serialize_turtle, parse_turtle), (serialize_jsonld, parse_jsonld)):
        triples = parse(serialize(graph))
        assert triples == canonical_triples(graph)
        assert invalid_literals(triples) == []


@st.composite
def overlapping_records(draw):
    """Records that share ids, controller names and field values."""
    text = st.sampled_from(["a", "a\x00", "\u2028b"])
    records = draw(st.lists(ropa_records(text), max_size=4))
    return [r._replace(record_id=draw(st.sampled_from(["pa-1", "pa-2"]))) for r in records]


@_settings
@given(records=overlapping_records(), options=_IRI_OPTIONS)
def test_rdf_export_merges_records_with_the_same_id_as_reference(records, options):
    _assert_graph_matches_reference(records, options)


def _assert_graph_matches_reference(records, options):
    """The graph of ``records``, and the same graph rebuilt from its triples,
    equal the reference graph, hash and count alike, and serialize to the
    reference bytes."""
    graph = records_to_graph(records, REGISTRY, **options)
    expected = rdf_reference.records_to_graph(records, REGISTRY, **options)
    assert all(type(t) is Triple for t in graph.triples)
    turtle = rdf_reference.serialize_turtle(expected)
    jsonld = rdf_reference.serialize_jsonld(expected)
    for built in (graph, TripleGraph(graph.triples, graph.namespaces)):
        assert built == expected
        assert hash(built) == hash(expected)
        assert len(built) == len(expected.triples)
        assert serialize_turtle(built) == turtle
        assert serialize_jsonld(built) == jsonld
    return graph


#: Strings json.dumps escapes or passes through: quote, backslash, C0
#: controls, U+2028, text outside the BMP and lone surrogates.
_json_strings = st.text(
    alphabet=st.one_of(
        st.characters(), st.sampled_from('"\\\x00\x08\x1f\x7f\u2028\ud800\udfff\U0001F600')
    ),
    max_size=8,
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _json_strings,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_json_strings, children, max_size=4),
    max_leaves=20,
)


@_settings
@given(
    value=_json_values,
    shared=st.lists(_json_values, max_size=3) | st.dictionaries(_json_strings, _json_values),
)
def test_json_text_matches_json_dumps(value, shared):
    # ``shared`` is one object at three indentations.
    document = {"value": value, "shared": shared, "nested": [shared, {"deeper": [shared]}]}
    for obj in (value, document):
        assert _json_text(obj) == json.dumps(obj, indent=2, ensure_ascii=False)


@given(
    st.text(
        alphabet=st.one_of(
            st.characters(max_codepoint=0x7F),
            st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
            st.characters(min_codepoint=0x10000),
            st.characters(),
        )
    )
)
def test_has_surrogate_matches_a_surrogate_search(text):
    assert has_surrogate(text) == (re.search("[\ud800-\udfff]", text) is not None)
