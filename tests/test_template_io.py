"""Canonical interchange parsing/writing and template conversion."""

import csv
import hashlib
import io
import sys
import threading
from collections import Counter

import pytest

import canonical_reference
from ropa_dpv import (
    DuplicateCell,
    FieldValue,
    HeaderMismatch,
    InvalidRecordId,
    Jurisdiction,
    LossReason,
    MalformedCsv,
    RopaError,
    RopaRecord,
    TemplateProfileConfig,
    ValueKind,
    convert,
    default_config,
    export_template,
    field_values,
    import_template,
    load_config,
    make_config,
    new_record,
    parse_canonical,
    set_field,
    to_graph,
    write_canonical,
)
from ropa_dpv.template_io import _read
from conftest import CREATED, populate

HEADER = "record_id,concept_id,value_index,value_kind,value\n"
META = (
    "pa-1,_meta:controller_name,0,TEXT,Acme GmbH\n"
    "pa-1,_meta:created,0,TEXT,2024-03-01T10:00:00+00:00\n"
)


# -- canonical format ----------------------------------------------------------


def test_parse_well_formed(registry):
    text = HEADER + META + (
        "pa-1,purposes-of-processing,0,TERM_LIST,marketing\n"
        "pa-1,purposes-of-processing,1,TERM_LIST,analytics\n"
    )
    records, warnings = parse_canonical(text, registry)
    assert warnings == []
    assert len(records) == 1
    record = records[0]
    assert record.controller_name == "Acme GmbH"
    assert [v.value for v in record.values("purposes-of-processing")] == [
        "marketing", "analytics",
    ]


def test_parse_drops_bad_duration_with_warning(registry):
    text = HEADER + META + "pa-1,retention-deletion-periods,0,DURATION,soon\n"
    records, warnings = parse_canonical(text, registry)
    assert len(warnings) == 1
    assert "retention-deletion-periods" in warnings[0]
    assert "line 4" in warnings[0]
    assert not records[0].has("retention-deletion-periods")


def test_parse_drops_iri_with_control_character_with_warning(registry):
    text = HEADER + META + "pa-1,privacy-notice,0,URI,http://a/\x01b\n"
    records, warnings = parse_canonical(text, registry)
    assert len(warnings) == 1
    assert "privacy-notice" in warnings[0]
    assert "line 4" in warnings[0]
    assert not records[0].has("privacy-notice")


@pytest.mark.parametrize("created", ["2024-03-01", "20240301T1000", "2023-02-29T10:00:00"])
def test_parse_created_outside_xsd_datetime_falls_back(registry, created):
    text = HEADER + (
        "pa-1,_meta:controller_name,0,TEXT,Acme GmbH\n"
        f"pa-1,_meta:created,0,TEXT,{created}\n"
    )
    records, warnings = parse_canonical(text, registry)
    assert warnings == [
        f"record 'pa-1': invalid created timestamp {created!r}; "
        "using '1970-01-01T00:00:00+00:00'"
    ]
    assert records[0].created == "1970-01-01T00:00:00+00:00"


def test_parse_lone_surrogates_drop_value_and_controller_name(registry):
    text = HEADER + (
        "pa-1,_meta:controller_name,0,TEXT,Acme\ud800\n"
        "pa-1,_meta:created,0,TEXT,2024-03-01T10:00:00+00:00\n"
        "pa-1,processor,0,TEXT,One\udfff Corp\n"
        "pa-1,processor,1,TEXT,Two Corp\n"
    )
    records, warnings = parse_canonical(text, registry)
    assert warnings == [
        "line 4: 'processor': TEXT value holds a lone surrogate: 'One\\udfff Corp'; "
        "value dropped",
        "record 'pa-1': controller name 'Acme\\ud800' holds a lone surrogate; "
        "using '(unknown)'",
    ]
    assert records == [
        RopaRecord(
            "pa-1", "(unknown)", "2024-03-01T10:00:00+00:00",
            {"processor": (FieldValue(ValueKind.TEXT, "Two Corp"),)},
        )
    ]
    write_canonical(records, registry).encode("utf-8")


def test_parse_duplicate_cell(registry):
    text = HEADER + META + (
        "pa-1,processor,0,TEXT,One Corp\n"
        "pa-1,processor,0,TEXT,Two Corp\n"
    )
    with pytest.raises(DuplicateCell):
        parse_canonical(text, registry)


def test_parse_rejects_wrong_header(registry):
    with pytest.raises(MalformedCsv):
        parse_canonical("a,b,c\n", registry)


def test_parse_rejects_wrong_column_count(registry):
    with pytest.raises(MalformedCsv) as excinfo:
        parse_canonical(HEADER + "pa-1,processor,0,TEXT\n", registry)
    assert excinfo.value.line == 2


def test_parse_rejects_bad_quoting(registry):
    with pytest.raises(MalformedCsv):
        parse_canonical(HEADER + 'pa-1,"proc"essor,0,TEXT,x\n', registry)


def test_parse_rejects_gap_in_value_index(registry):
    text = HEADER + META + (
        "pa-1,purposes-of-processing,0,TERM_LIST,marketing\n"
        "pa-1,purposes-of-processing,2,TERM_LIST,analytics\n"
    )
    with pytest.raises(MalformedCsv):
        parse_canonical(text, registry)


def test_parse_rejects_bad_record_id(registry):
    with pytest.raises(MalformedCsv):
        parse_canonical(HEADER + "pa 1,processor,0,TEXT,x\n", registry)


def test_parse_warns_on_unknown_concept_and_kind(registry):
    text = HEADER + META + (
        "pa-1,mystery-concept,0,TEXT,x\n"
        "pa-1,processor,0,GIBBERISH,x\n"
        "pa-1,processor,1,TERM,x\n"
    )
    records, warnings = parse_canonical(text, registry)
    assert len(warnings) == 3
    assert not records[0].has("processor")


def test_parse_drops_the_register_container_row(registry):
    # The container row names the register itself, not a record field.
    text = HEADER + META + "pa-1,register-of-processing-activities,0,TEXT,hello\n"
    records, warnings = parse_canonical(text, registry)
    assert warnings == [
        "line 4: unknown concept 'register-of-processing-activities'; values dropped"
    ]
    assert records[0].fields == {}
    assert (records, warnings) == canonical_reference.parse_canonical(text, registry)


def test_parse_interleaved_records_pins_warning_order(registry):
    # pa-a is started, then pa-b, then more of pa-a; every warning kind occurs
    text = HEADER + (
        "pa-a,_meta:controller_name,0,TEXT,Acme GmbH\n"
        "pa-a,processor,0,TEXT,One Corp\n"
        "pa-b,_meta:created,0,TEXT,not a timestamp\n"
        "pa-b,mystery-concept,0,TEXT,x\n"
        "pa-b,processor,0,GIBBERISH,x\n"
        "pa-a,_meta:created,0,TEXT,2024-03-01T10:00:00+00:00\n"
        "pa-a,_meta:controller_name,1,TEXT,Other Ltd\n"
        "pa-a,_meta:owner,0,TEXT,x\n"
        "pa-a,processor,1,TERM,x\n"
        "pa-a,retention-deletion-periods,0,DURATION,soon\n"
        "pa-a,data-controller,1,TEXT,Second\n"
        "pa-a,data-controller,0,TEXT,First\n"
        "pa-b,processor,1,TEXT,Kept Corp\n"
        "pa-c,_meta:controller_name,0,TEXT,\n"
        "pa-a,privacy-notice,0,URI,https://example.com/privacy\n"
    )
    records, warnings = parse_canonical(text, registry)
    assert warnings == [
        "line 8: extra _meta:controller_name value(s) ignored",
        "line 10: 'processor' expects TEXT, got TERM; value dropped",
        "line 9: unknown metadata row '_meta:owner' ignored",
        "line 11: 'retention-deletion-periods': not an ISO-8601 duration: 'soon'; "
        "value dropped",
        "line 13: 'data-controller' holds a single value; 1 extra value(s) dropped",
        "line 5: unknown concept 'mystery-concept'; values dropped",
        "line 6: unknown value kind 'GIBBERISH' for 'processor'; value dropped",
        "record 'pa-b': missing _meta:controller_name; using '(unknown)'",
        "record 'pa-b': invalid created timestamp 'not a timestamp'; "
        "using '1970-01-01T00:00:00+00:00'",
        "record 'pa-c': missing _meta:controller_name; using '(unknown)'",
        "record 'pa-c': missing _meta:created; using '1970-01-01T00:00:00+00:00'",
    ]
    assert records == [
        RopaRecord(
            "pa-a", "Acme GmbH", CREATED,
            {
                "processor": (FieldValue(ValueKind.TEXT, "One Corp"),),
                "data-controller": (FieldValue(ValueKind.TEXT, "First"),),
                "privacy-notice": (
                    FieldValue(ValueKind.URI, "https://example.com/privacy"),
                ),
            },
        ),
        RopaRecord(
            "pa-b", "(unknown)", "1970-01-01T00:00:00+00:00",
            {"processor": (FieldValue(ValueKind.TEXT, "Kept Corp"),)},
        ),
        RopaRecord("pa-c", "(unknown)", "1970-01-01T00:00:00+00:00", {}),
    ]
    assert [list(r.fields) for r in records] == [
        ["processor", "data-controller", "privacy-notice"], ["processor"], [],
    ]


def test_parse_reports_earliest_non_contiguous_cell(registry):
    # pa-b's broken cell appears in the file before pa-a's, though pa-a
    # is the first record
    text = HEADER + (
        "pa-a,_meta:controller_name,0,TEXT,Acme GmbH\n"
        "pa-b,processor,1,TEXT,B Corp\n"
        "pa-a,processor,2,TEXT,A Corp\n"
    )
    with pytest.raises(MalformedCsv) as excinfo:
        parse_canonical(text, registry)
    assert str(excinfo.value) == (
        "line 3: value_index not contiguous from 0 for ('pa-b', 'processor')"
    )


def test_parse_missing_metadata_gets_placeholders(registry):
    text = HEADER + "pa-1,processor,0,TEXT,One Corp\n"
    records, warnings = parse_canonical(text, registry)
    assert len(warnings) == 2
    assert records[0].controller_name == "(unknown)"
    assert records[0].created == "1970-01-01T00:00:00+00:00"


def test_write_empty_is_header_only(registry):
    assert write_canonical([], registry) == HEADER


def test_write_rejects_duplicate_record_ids(registry, empty_record):
    with pytest.raises(ValueError):
        write_canonical([empty_record, empty_record], registry)


@pytest.mark.parametrize("record_id", ["a b", "a,b", "x\ry"])
def test_write_rejects_a_record_id_the_parse_rejects(registry, record_id):
    with pytest.raises(InvalidRecordId):
        write_canonical([RopaRecord(record_id, "Acme", CREATED, {})], registry)


@pytest.mark.parametrize(
    "name, created, message",
    [
        ("a\udcff", CREATED, r"controller name holds a lone surrogate: 'a\\udcff'"),
        ("Acme", "2024\udcff", r"created time holds a lone surrogate: '2024\\udcff'"),
    ],
    ids=["controller-name", "created"],
)
def test_writers_reject_a_lone_surrogate(registry, name, created, message):
    # new_record refuses such a name; a record built directly must not slip through.
    record = RopaRecord("pa-1", name, created, {})
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_canonical([record], registry)
    with pytest.raises(ValueError, match="literal holds a lone surrogate"):
        to_graph(record, registry)


def test_round_trip_identity(registry, full_record, mandatory_record):
    originals = [full_record, mandatory_record]
    text = write_canonical(originals, registry)
    parsed, warnings = parse_canonical(text, registry)
    assert warnings == []
    assert parsed == originals


def test_write_parse_write_byte_identity(registry, full_record):
    text = write_canonical([full_record], registry)
    parsed, _ = parse_canonical(text, registry)
    assert write_canonical(parsed, registry) == text
    assert text.endswith("\n")


def test_write_quotes_carriage_return(registry):
    record = new_record("pa-1", "x\ry", CREATED)
    text = write_canonical([record], registry)
    # only the row holding CR is quoted in full
    assert text == HEADER + (
        '"pa-1","_meta:controller_name","0","TEXT","x\ry"\n'
        f"pa-1,_meta:created,0,TEXT,{CREATED}\n"
    )
    assert parse_canonical(text, registry) == ([record], [])


def test_writers_write_nul_bare(registry, empty_record):
    # NUL needs no quoting, and is written bare, as csv.writer writes it.
    record = set_field(
        empty_record._replace(controller_name="a\x00b"), registry, "processor",
        [FieldValue(ValueKind.TEXT, "x\x00y"), FieldValue(ValueKind.TEXT, "\x00")],
    )
    assert write_canonical([record], registry) == HEADER + (
        "pa-empty,_meta:controller_name,0,TEXT,a\x00b\n"
        f"pa-empty,_meta:created,0,TEXT,{CREATED}\n"
        "pa-empty,processor,0,TEXT,x\x00y\n"
        "pa-empty,processor,1,TEXT,\x00\n"
    )
    config = make_config(Jurisdiction.BE, [("Pro\x00cessor", "processor")], registry)
    text, loss = export_template(record, config, registry)
    assert text == "Pro\x00cessor\nx\x00y;\x00\n"
    assert loss.lost == ()


def test_text_with_nul_reads_back(registry, empty_record):
    # NUL reads back like any other character, beside a private-use code
    # point, and a bad row after it keeps its line number and error text.
    record = set_field(
        empty_record._replace(controller_name="a\x00b"), registry, "processor",
        [FieldValue(ValueKind.TEXT, "x\x00y"), FieldValue(ValueKind.TEXT, "\ue000\x00")],
    )
    text = write_canonical([record], registry)
    assert parse_canonical(text, registry) == ([record], [])
    assert parse_canonical(text.encode("utf-8"), registry) == ([record], [])
    with pytest.raises(MalformedCsv, match="line 6: expected 5 columns, got 1"):
        parse_canonical(text + "x\x00\n", registry)
    config = make_config(Jurisdiction.BE, [("Pro\x00cessor", "processor")], registry)
    exported, _ = export_template(record, config, registry)
    imported, warnings = import_template(exported, config, registry)
    assert warnings == []
    assert imported[0].values("processor") == record.values("processor")


def test_export_one_empty_cell_is_quoted(registry, empty_record):
    # A bare empty line would read back as a row of no cells.
    config = make_config(Jurisdiction.BE, [("Processor", "processor")], registry)
    text, _ = export_template(empty_record, config, registry)
    assert text == 'Processor\n""\n'
    imported, warnings = import_template(text, config, registry)
    assert warnings == []
    assert len(imported) == 1 and imported[0].fields == {}


def test_bytes_input_and_bad_utf8(registry):
    records, _ = parse_canonical((HEADER + META).encode("utf-8"), registry)
    assert records[0].record_id == "pa-1"
    with pytest.raises(MalformedCsv):
        parse_canonical(b"\xff\xfe\x00", registry)


def test_a_value_longer_than_the_csv_field_limit_reads_back(registry, long_value_record):
    record = long_value_record
    assert parse_canonical(write_canonical([record], registry).encode(), registry) == (
        [record], []
    )
    config = default_config(registry, Jurisdiction.CY)
    text, _ = export_template(record, config, registry)
    imported, warnings = import_template(text.encode(), config, registry)
    assert warnings == [] and imported[0].fields == record.fields


def test_reading_a_long_field_puts_the_csv_field_limit_back(registry, long_value_record):
    """The readers raise the process-wide ``csv.field_size_limit`` only while
    they read, whether the read succeeds or fails."""
    limit = csv.field_size_limit()
    config = default_config(registry, Jurisdiction.CY)
    canonical = write_canonical([long_value_record], registry)
    template, _ = export_template(long_value_record, config, registry)
    import_cy = lambda source, registry: import_template(source, config, registry)  # noqa: E731
    for read, text, fails in [
        (parse_canonical, canonical, False),
        (parse_canonical, canonical + "pa-long,processor,0,TEXT\n", True),
        (import_cy, template, False),
        (import_cy, template + "x\n", True),
    ]:
        if fails:
            with pytest.raises(MalformedCsv, match="expected"):
                read(text.encode(), registry)
        else:
            read(text.encode(), registry)
        assert csv.field_size_limit() == limit == 131_072
        with pytest.raises(csv.Error, match="field larger than field limit"):
            list(csv.reader(io.StringIO(text)))


def test_reads_in_two_threads_never_lower_the_field_limit_under_each_other():
    """The first read raises the field limit and pauses; the second, whose
    field is shorter than the first's but longer than the default limit,
    starts meanwhile and reads only after the first has put the limit back.
    Unless the two reads take turns, the second reads with the default limit
    and fails."""
    first_started, second_started, first_done = (threading.Event() for _ in range(3))
    outcomes = {}

    def first(reader):
        first_started.set()
        second_started.wait(timeout=0.5)  # never set while the reads take turns
        return list(reader)

    def second(reader):
        second_started.set()
        first_done.wait(timeout=10)
        return list(reader)

    def run(name, source, parse, done=None):
        try:
            outcomes[name] = len(_read(source, parse)[0][0])
        except MalformedCsv as exc:  # reported by the assert below
            outcomes[name] = exc
        finally:
            if done is not None:
                done.set()

    threads = [
        threading.Thread(target=run, args=("first", "x" * 300_000, first, first_done)),
        threading.Thread(target=run, args=("second", "y" * 200_000, second)),
    ]
    threads[0].start()
    assert first_started.wait(timeout=10)
    threads[1].start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == {"first": 300_000, "second": 200_000}
    assert csv.field_size_limit() == 131_072


def test_many_threads_read_long_fields_at_once():
    """Four threads read fields of different lengths, all longer than the
    default limit, with the interpreter switching threads often."""
    sizes = [150_000 + 50_000 * n for n in range(4)]
    outcomes = {size: [] for size in sizes}

    def run(size):
        source = "x" * size
        for _ in range(25):
            try:
                outcomes[size].append(len(_read(source, list)[0][0]))
            except MalformedCsv as exc:  # reported by the assert below
                outcomes[size].append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(size,)) for size in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert outcomes == {size: [size] * 25 for size in sizes}
    assert csv.field_size_limit() == 131_072


def test_a_leading_bom_is_skipped(registry, full_record):
    # Spreadsheets save "CSV UTF-8" with a BOM before the first header.
    bom = "\ufeff".encode()
    text = write_canonical([full_record], registry)
    assert parse_canonical(bom + text.encode(), registry) == ([full_record], [])
    config = default_config(registry, Jurisdiction.CY)
    assert config.headers[0] == "Data Controller"
    template, _ = export_template(full_record, config, registry)
    imported, warnings = import_template(bom + template.encode(), config, registry)
    assert (imported, warnings) == import_template(template.encode(), config, registry)
    assert warnings == [] and "data-controller" in imported[0].fields
    # A str is read as it is given: there the BOM is part of the first header.
    with pytest.raises(MalformedCsv, match="line 1: expected header"):
        parse_canonical("\ufeff" + text, registry)


def test_an_invalid_byte_after_a_bom_is_reported_at_its_offset(registry):
    with pytest.raises(MalformedCsv, match="byte 0xff in position 5:"):
        parse_canonical(b"\xef\xbb\xbfab\xff", registry)


# -- template configs ----------------------------------------------------------


def test_default_configs_cover_profiles(registry):
    for j in Jurisdiction:
        config = default_config(registry, j)
        assert set(config.concept_ids) == registry.profiles[j].concepts
        assert len(set(config.headers)) == len(config.headers)


# SHA-256 of the header-to-concept CSVs once shipped as data/templates/*.csv.
_TEMPLATE_CONFIG_SHA256 = {
    Jurisdiction.BE: "e8d5deff59af34f7a579764a1d73770145ee0b911fb67d9e651b1f503ed42f26",
    Jurisdiction.CY: "d194502328e715cc76f9a2d989acf610e5524c8b965ebc9aadc0e17d08120e6f",
    Jurisdiction.DK: "7b43403dedc90cde3de08c4577826f3cfb3920841c874f4ffd8863fd06640353",
    Jurisdiction.FI: "d40968b33fb99a262d806ccd3e5c8a9622dee3b7b4e5ad6ed738e701dcec64fb",
    Jurisdiction.LU: "8002c31537c6bb9bcd107623af70b6d9a888237ed6f3e04406a6468e7f034cd8",
    Jurisdiction.UK: "e7b987108ea32a46fb52fbb354bbd08b07902fbbd6508c5d108807619a7214e9",
}


@pytest.mark.parametrize("jurisdiction", list(Jurisdiction))
def test_default_config_matches_former_packaged_file(registry, jurisdiction):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("external_header", "concept_id"))
    writer.writerows(default_config(registry, jurisdiction).column_map)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == _TEMPLATE_CONFIG_SHA256[jurisdiction]


def test_make_config_rejects_bad_maps(registry):
    with pytest.raises(ValueError):
        make_config(
            Jurisdiction.UK,
            [("A", "privacy-notice"), ("A", "personal-data-breach")],
            registry,
        )
    with pytest.raises(ValueError):
        # type-of-processing is Belgium-only
        make_config(Jurisdiction.UK, [("Types", "type-of-processing")], registry)
    with pytest.raises(ValueError):
        make_config(Jurisdiction.UK, [("", "privacy-notice")], registry)
    with pytest.raises(ValueError, match="'purposes-of-processing' is mapped from two headers"):
        # import_template would keep one column's values and drop the other's.
        make_config(
            Jurisdiction.UK,
            [("Purpose A", "purposes-of-processing"), ("Purpose B", "purposes-of-processing")],
            registry,
        )


def test_load_config_from_csv(registry):
    text = "external_header,concept_id\nFinalites,purposes-of-processing\n"
    config = load_config(text, Jurisdiction.LU, registry)
    assert config.column_map == (("Finalites", "purposes-of-processing"),)
    with pytest.raises(MalformedCsv):
        load_config("wrong,header\nx,y\n", Jurisdiction.LU, registry)
    with pytest.raises(MalformedCsv, match="mapped from two headers"):
        load_config(text + "Finalites bis,purposes-of-processing\n", Jurisdiction.LU, registry)


# -- template import -----------------------------------------------------------


def test_import_cy_shaped_file(registry):
    config = default_config(registry, Jurisdiction.CY)
    cells = {
        "Purposes of processing": "marketing;analytics",
        "Data Controller": "Acme GmbH",
    }
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(config.headers)
    writer.writerow([cells.get(h, "") for h in config.headers])
    records, warnings = import_template(out.getvalue(), config, registry)
    assert warnings == []
    assert len(records) == 1
    record = records[0]
    assert [v.value for v in record.values("purposes-of-processing")] == [
        "marketing", "analytics",
    ]
    assert record.values("data-controller")[0].value == "Acme GmbH"
    assert record.controller_name == "Acme GmbH"
    assert record.record_id == "cy-0001"


def test_import_extra_column_warns(registry):
    config = make_config(
        Jurisdiction.CY,
        [("Purposes of processing", "purposes-of-processing")],
        registry,
    )
    text = "Purposes of processing,Internal Notes\nmarketing,secret\n"
    records, warnings = import_template(text, config, registry)
    assert len(records) == 1
    assert records[0].has("purposes-of-processing")
    assert warnings == ["column 'Internal Notes' is not mapped; ignored"]


def _header_only_file(config) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(config.headers)
    return out.getvalue()


def test_import_header_mismatch(registry):
    # derived from the encoded profiles: a CY-shaped file is missing more
    # than half of the Belgian config's headers
    cy_file = _header_only_file(default_config(registry, Jurisdiction.CY))
    be_config = default_config(registry, Jurisdiction.BE)
    missing = [h for h in be_config.headers
               if h not in default_config(registry, Jurisdiction.CY).headers]
    assert len(missing) * 2 > len(be_config.column_map)
    with pytest.raises(HeaderMismatch):
        import_template(cy_file, be_config, registry)


def test_import_below_threshold_warns_instead(registry):
    # a BE-shaped file lacks 10 of the UK config's 27 headers: warnings only
    be_file = _header_only_file(default_config(registry, Jurisdiction.BE))
    uk_config = default_config(registry, Jurisdiction.UK)
    missing = [h for h in uk_config.headers
               if h not in default_config(registry, Jurisdiction.BE).headers]
    assert 0 < len(missing) * 2 <= len(uk_config.column_map)
    records, warnings = import_template(be_file, uk_config, registry)
    assert records == []
    assert len([w for w in warnings if "missing from input" in w]) == len(missing)


def test_import_drops_invalid_values_with_warning(registry):
    config = make_config(
        Jurisdiction.DK,
        [("Retention/Deletion Periods", "retention-deletion-periods")],
        registry,
    )
    text = "Retention/Deletion Periods\nP5Y;soon\n"
    records, warnings = import_template(text, config, registry)
    assert [v.value for v in records[0].values("retention-deletion-periods")] == ["P5Y"]
    assert len(warnings) == 1


@pytest.mark.parametrize(
    "cell, expected",
    [
        ("encryption\\;at rest;audits", ["encryption;at rest", "audits"]),
        (r"a\;b", ["a;b"]),
        (r"a\\;b", ["a\\;b"]),
        (r"\;;", [";", ""]),
        ("a\\", ["a\\"]),
        (";", ["", ""]),
    ],
    ids=["encryption", "escaped", "backslash-escaped", "escaped-then-split",
         "trailing-backslash", "split-only"],
)
def test_import_escaped_semicolon(registry, cell, expected):
    config = make_config(
        Jurisdiction.UK,
        [("Measures", "technical-and-organizational-measures-of-security")],
        registry,
    )
    text = f'Measures\n"{cell}"\n'
    records, _ = import_template(text, config, registry)
    values = records[0].values("technical-and-organizational-measures-of-security")
    assert [v.value for v in values] == expected


# -- template export -----------------------------------------------------------


def test_export_full_record_to_cy(registry, full_record):
    config = default_config(registry, Jurisdiction.CY)
    text, loss = export_template(full_record, config, registry)
    expected_losses = 43 - len(registry.profiles[Jurisdiction.CY].concepts)
    assert len(loss.lost) == expected_losses
    assert {reason for _, reason in loss.lost} == {LossReason.NOT_IN_TARGET_PROFILE}
    assert loss.retained_count == len(registry.profiles[Jurisdiction.CY].concepts)
    assert text.startswith(",".join(config.headers).split(",")[0])
    assert text.endswith("\n")


def test_export_subset_record_has_empty_loss(registry, empty_record):
    config = default_config(registry, Jurisdiction.CY)
    record = populate(
        empty_record, registry, sorted(registry.profiles[Jurisdiction.CY].concepts)
    )
    _, loss = export_template(record, config, registry)
    assert loss.lost == ()


def test_export_consent_link_lost_for_dk(registry, empty_record):
    record = set_field(
        empty_record, registry, "link-to-record-of-consent",
        field_values(registry, "link-to-record-of-consent", "https://example.com/consent/1"),
    )
    _, loss = export_template(record, default_config(registry, Jurisdiction.DK), registry)
    assert loss.lost == (("link-to-record-of-consent", LossReason.NOT_IN_TARGET_PROFILE),)


def test_export_unrepresentable_value(registry, empty_record):
    record = set_field(
        empty_record, registry, "processor",
        [FieldValue(ValueKind.TEXT, "ends with backslash\\")],
    )
    config = default_config(registry, Jurisdiction.BE)
    text, loss = export_template(record, config, registry)
    assert ("processor", LossReason.UNREPRESENTABLE_VALUE) in loss.lost
    assert "ends with backslash" not in text


@pytest.mark.parametrize(
    "cid, lexicals",
    [
        ("data-controller", [""]),
        ("data-controller", ["  "]),
        ("data-controller", ["\t"]),
        ("data-controller", ["\r"]),
        ("data-controller", ["\n"]),
        ("data-controller", ["\x1f"]),
        ("joint-controller", ["\n "]),
        ("joint-controller", []),
    ],
    ids=["empty", "spaces", "tab", "cr", "lf", "unit-separator", "list", "no-values"],
)
def test_export_reports_a_cell_that_would_be_blank(registry, empty_record, cid, lexicals):
    """Import skips a cell that is blank after ``strip()``, so export leaves it
    empty and reports its concept, rather than count it as retained."""
    kind = registry.concept(cid).value_schema.kind
    record = empty_record._replace(fields={cid: tuple(FieldValue(kind, v) for v in lexicals)})
    config = default_config(registry, Jurisdiction.UK)
    text, loss = export_template(record, config, registry)
    assert loss == (((cid, LossReason.UNREPRESENTABLE_VALUE),), 0)
    assert text == canonical_reference.export_template_text(record, config)
    assert text.splitlines()[1].strip(",") == ""
    imported, _ = import_template(text, config, registry)
    assert imported[0].fields == {}


def test_export_import_round_trip_with_semicolons(registry, empty_record):
    config = default_config(registry, Jurisdiction.BE)
    record = set_field(
        empty_record, registry, "technical-and-organizational-measures-of-security",
        field_values(
            registry, "technical-and-organizational-measures-of-security",
            "encryption;at rest", "audits",
        ),
    )
    text, loss = export_template(record, config, registry)
    assert loss.lost == ()
    imported, _ = import_template(text, config, registry)
    values = imported[0].values("technical-and-organizational-measures-of-security")
    assert [v.value for v in values] == ["encryption;at rest", "audits"]


def test_export_import_round_trip_with_carriage_return(registry, empty_record):
    config = default_config(registry, Jurisdiction.BE)
    record = set_field(
        empty_record, registry, "processor",
        field_values(registry, "processor", "x\ry", "\r", "plain"),
    )
    text, loss = export_template(record, config, registry)
    assert loss.lost == ()
    imported, warnings = import_template(text, config, registry)
    assert warnings == []
    assert [v.value for v in imported[0].values("processor")] == ["x\ry", "\r", "plain"]


# -- conversion ----------------------------------------------------------------


def test_convert_identity(registry, full_record):
    config = default_config(registry, Jurisdiction.UK)
    restricted, _ = convert(full_record, config, registry)
    result, loss = convert(restricted, config, registry)
    assert result == restricted
    assert loss.lost == ()


def test_convert_uk_be_uk(registry, empty_record):
    uk = default_config(registry, Jurisdiction.UK)
    be = default_config(registry, Jurisdiction.BE)
    uk_record = populate(
        empty_record, registry, sorted(registry.profiles[Jurisdiction.UK].concepts)
    )
    step1, _ = convert(uk_record, be, registry)
    step2, _ = convert(step1, uk, registry)
    both = registry.profiles[Jurisdiction.UK].concepts & registry.profiles[Jurisdiction.BE].concepts
    assert step2.populated() == both
    expected = {cid: uk_record.fields[cid] for cid in both}
    assert dict(step2.fields) == expected


def test_convert_empty_record(registry, empty_record):
    cy = default_config(registry, Jurisdiction.CY)
    result, loss = convert(empty_record, cy, registry)
    assert result == empty_record
    assert loss.lost == ()
    assert loss.retained_count == 0


def test_convert_partition_and_metadata(registry, full_record):
    cy = default_config(registry, Jurisdiction.CY)
    result, loss = convert(full_record, cy, registry)
    lost_ids = {cid for cid, _ in loss.lost}
    assert lost_ids | result.populated() == full_record.populated()
    assert lost_ids & result.populated() == set()
    assert result.populated() <= full_record.populated()
    assert (result.record_id, result.controller_name, result.created) == (
        full_record.record_id, full_record.controller_name, full_record.created,
    )


# -- building each distinct value once -------------------------------------------


@pytest.fixture()
def from_lexical_calls(monkeypatch):
    """Every ``(kind, lexical)`` that ``FieldValue.from_lexical`` is called with,
    counting through a wrapper set on the class, as a tracer would set it."""
    calls = []
    original = vars(FieldValue)["from_lexical"].__func__

    def counting(cls, kind, lexical):
        calls.append((kind, lexical))
        return original(cls, kind, lexical)

    monkeypatch.setattr(FieldValue, "from_lexical", classmethod(counting))
    return calls


def test_parse_builds_each_distinct_valid_value_once(registry, from_lexical_calls):
    text = HEADER + META + (
        "pa-1,processor,0,TEXT,One Corp\n"
        "pa-1,processor,1,TEXT,Two Corp\n"
        "pa-1,retention-deletion-periods,0,DURATION,soon\n"
        "pa-1,retention-deletion-periods,1,DURATION,P1Y\n"
        "pa-2,_meta:controller_name,0,TEXT,Beta BV\n"
        "pa-2,_meta:created,0,TEXT,2024-03-01T10:00:00+00:00\n"
        "pa-2,processor,0,TEXT,One Corp\n"
        "pa-2,original-source-of-data,0,TEXT_LIST,One Corp\n"
        "pa-2,retention-deletion-periods,0,DURATION,soon\n"
        "pa-2,retention-deletion-periods,1,DURATION,P1Y\n"
        "pa-2,retention-deletion-periods,2,DURATION,soon\n"
    )
    records, warnings = parse_canonical(text, registry)
    assert Counter(from_lexical_calls) == {
        (ValueKind.TEXT, "One Corp"): 1,
        (ValueKind.TEXT, "Two Corp"): 1,
        (ValueKind.TEXT_LIST, "One Corp"): 1,
        (ValueKind.DURATION, "P1Y"): 1,
        (ValueKind.DURATION, "soon"): 3,
    }
    assert warnings == [
        f"line {line}: 'retention-deletion-periods': not an ISO-8601 duration: "
        "'soon'; value dropped"
        for line in (6, 12, 14)
    ]

    parse_canonical(text, registry)  # a second call shares nothing with the first
    assert len(from_lexical_calls) == 2 * 7
    assert (records, warnings) == canonical_reference.parse_canonical(text, registry)


def test_import_builds_each_distinct_valid_value_once(registry, from_lexical_calls):
    config = make_config(
        Jurisdiction.BE,
        [("Processors", "processor"), ("Retention", "retention-deletion-periods")],
        registry,
    )
    text = (
        "Processors,Retention\n"
        "One Corp;Two Corp,soon;P1Y\n"
        "One Corp,P1Y;soon\n"
        "Two Corp,soon\n"
    )
    records, warnings = import_template(text, config, registry)
    assert Counter(from_lexical_calls) == {
        (ValueKind.TEXT, "One Corp"): 1,
        (ValueKind.TEXT, "Two Corp"): 1,
        (ValueKind.DURATION, "P1Y"): 1,
        (ValueKind.DURATION, "soon"): 3,
    }
    assert warnings == [
        f"line {line}: 'retention-deletion-periods': not an ISO-8601 duration: "
        "'soon'; value dropped"
        for line in (2, 3, 4)
    ]
    assert [r.fields for r in records] == [
        {
            "processor": (
                FieldValue(ValueKind.TEXT, "One Corp"), FieldValue(ValueKind.TEXT, "Two Corp")
            ),
            "retention-deletion-periods": (FieldValue(ValueKind.DURATION, "P1Y"),),
        },
        {
            "processor": (FieldValue(ValueKind.TEXT, "One Corp"),),
            "retention-deletion-periods": (FieldValue(ValueKind.DURATION, "P1Y"),),
        },
        {"processor": (FieldValue(ValueKind.TEXT, "Two Corp"),)},
    ]

    import_template(text, config, registry)  # a second call shares nothing with the first
    assert len(from_lexical_calls) == 2 * 6


# -- which error a file with several faults raises -----------------------------------

# csv's strict mode rejects a quote that closes before the field ends.
BARE_QUOTE = 'pa-1,"proc"essor,5,TEXT,Five Corp\n'
BARE_QUOTE_ERROR = "',' expected after '\"'"


def _parse_error(parse, text, registry):
    with pytest.raises(RopaError) as excinfo:
        parse(text, registry)
    return type(excinfo.value), str(excinfo.value)


@pytest.mark.parametrize(
    "text, expected",
    [
        pytest.param(
            HEADER + "pa-1,_meta:controller_name,0,TEXT,Acme GmbH\n"
            "pa 1,_meta:created,0,TEXT,2024-03-01T10:00:00+00:00\n"
            + "".join(f"pa-1,processor,{i},TEXT,Corp {i}\n" for i in range(5))
            + BARE_QUOTE,
            (MalformedCsv, f"line 9: {BARE_QUOTE_ERROR}"),
            id="bad-quote-after-invalid-record-id",
        ),
        pytest.param(
            "record_id,concept_id,value_index,value_kind\n" + META + BARE_QUOTE,
            (MalformedCsv, f"line 4: {BARE_QUOTE_ERROR}"),
            id="bad-quote-after-wrong-header",
        ),
        pytest.param(
            HEADER + META + "pa-1,processor,0,TEXT,One Corp\n"
            "pa-1,processor,0,TEXT,Two Corp\n" "pa-1,processor,1,TEXT\n",
            (DuplicateCell, str(DuplicateCell("pa-1", "processor", 0))),
            id="duplicate-cell-before-wrong-column-count",
        ),
    ],
)
def test_parse_error_precedence_matches_reference(registry, text, expected):
    assert _parse_error(parse_canonical, text, registry) == expected
    assert _parse_error(canonical_reference.parse_canonical, text, registry) == expected


def test_import_bad_quoting_beats_earlier_header_mismatch(registry):
    # none of the CY config's headers is present, and line 3 is badly quoted
    config = default_config(registry, Jurisdiction.CY)
    with pytest.raises(MalformedCsv) as excinfo:
        import_template('A,B\n1,2\nx,"y"z\n', config, registry)
    assert str(excinfo.value) == f"line 3: {BARE_QUOTE_ERROR}"


_ONE_COLUMN = (("Purposes of processing", "purposes-of-processing"),)


@pytest.mark.parametrize(
    "read, text, line",
    [
        pytest.param(
            lambda text, registry: import_template(
                text, make_config(Jurisdiction.CY, _ONE_COLUMN, registry), registry
            ),
            'Purposes of processing\na,b\nc\nx,"y"z\n',
            4,
            id="import-wrong-column-count",
        ),
        pytest.param(
            lambda text, registry: load_config(text, Jurisdiction.LU, registry),
            'wrong,header\nx,y\nx,"y"z\n',
            3,
            id="config-wrong-header",
        ),
        pytest.param(
            lambda text, registry: load_config(text, Jurisdiction.LU, registry),
            'external_header,concept_id\na,b,c\nd,e\nx,"y"z\n',
            4,
            id="config-wrong-column-count",
        ),
        pytest.param(
            # built directly, so make_config's check of the concept is skipped
            lambda text, registry: import_template(
                text, TemplateProfileConfig(Jurisdiction.CY, (("A", "no-such-concept"),)),
                registry,
            ),
            'A\n1\nx,"y"z\n',
            3,
            id="import-unknown-concept",
        ),
    ],
)
def test_bad_quoting_beats_earlier_template_and_config_errors(registry, read, text, line):
    expected = (MalformedCsv, f"line {line}: {BARE_QUOTE_ERROR}")
    assert _parse_error(read, text, registry) == expected
