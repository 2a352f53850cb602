"""Reference canonical-CSV parser for the identity tests.

This is the straightforward form of ``ropa_dpv.template_io.parse_canonical``:
every row is kept in a per-cell entry list and a set of seen
``(record, concept, index)`` keys, and each cell's indexes are sorted to
check that they run from 0 without a gap.  The package reads each row once,
straight into its record's fields, and keeps the rows only of a cell whose
indexes arrive out of order; it must give the same records, with their
fields in the same order, and the same warnings, or raise the same exception
with the same text, as this.
"""

from __future__ import annotations

import csv
import io

from ropa_dpv import (
    DuplicateCell,
    FieldValue,
    InvalidRecordId,
    MalformedCsv,
    Multiplicity,
    RopaRecord,
    UnknownConcept,
    ValueKind,
)
from ropa_dpv.records import _RECORD_ID_RE, has_surrogate, is_xsd_datetime
from ropa_dpv.template_io import (
    CANONICAL_HEADER,
    FALLBACK_CONTROLLER_NAME,
    FALLBACK_CREATED,
    META_CONTROLLER_NAME,
    META_CREATED,
    _read,
)


def parse_canonical(source, registry):
    rows = _read(source, lambda reader: [(reader.line_num, row) for row in reader])
    if not rows or tuple(rows[0][1]) != CANONICAL_HEADER:
        raise MalformedCsv(1, f"expected header {','.join(CANONICAL_HEADER)}")

    warnings: list[str] = []
    # (record_id, concept_id) -> list of (line, value_index, kind_tag, value)
    cells: dict[tuple[str, str], list[tuple[int, int, str, str]]] = {}
    seen_keys: set[tuple[str, str, int]] = set()

    for line, row in rows[1:]:
        if len(row) != 5:
            raise MalformedCsv(line, f"expected 5 columns, got {len(row)}")
        record_id, concept_id, index_cell, kind_tag, value = row
        if not _RECORD_ID_RE.fullmatch(record_id):
            raise MalformedCsv(line, f"invalid record id {record_id!r}")
        try:
            value_index = int(index_cell)
        except ValueError:
            raise MalformedCsv(
                line, f"value_index is not an integer: {index_cell!r}"
            ) from None
        if value_index < 0:
            raise MalformedCsv(line, f"negative value_index {value_index}")
        key = (record_id, concept_id, value_index)
        if key in seen_keys:
            raise DuplicateCell(record_id, concept_id, value_index)
        seen_keys.add(key)
        cells.setdefault((record_id, concept_id), []).append(
            (line, value_index, kind_tag, value)
        )

    # record_id -> concept_id -> entries, both in order of first appearance
    by_record: dict[str, dict[str, list[tuple[int, int, str, str]]]] = {}
    for (record_id, concept_id), entries in cells.items():
        indexes = sorted(e[1] for e in entries)
        if indexes != list(range(len(entries))):
            raise MalformedCsv(
                entries[0][0],
                f"value_index not contiguous from 0 for ({record_id!r}, {concept_id!r})",
            )
        entries.sort(key=lambda e: e[1])
        by_record.setdefault(record_id, {})[concept_id] = entries

    records: list[RopaRecord] = []
    for record_id, record_cells in by_record.items():
        controller_name = None
        created = None
        fields: dict[str, tuple[FieldValue, ...]] = {}
        for concept_id, entries in record_cells.items():
            if concept_id in (META_CONTROLLER_NAME, META_CREATED):
                if len(entries) > 1:
                    warnings.append(
                        f"line {entries[1][0]}: extra {concept_id} value(s) ignored"
                    )
                if concept_id == META_CONTROLLER_NAME:
                    controller_name = entries[0][3]
                else:
                    created = entries[0][3]
                continue
            if concept_id.startswith("_meta:"):
                warnings.append(
                    f"line {entries[0][0]}: unknown metadata row {concept_id!r} ignored"
                )
                continue
            try:
                descriptor = registry.concept(concept_id)
                if descriptor is registry.container:  # the register, not a field
                    raise UnknownConcept(concept_id)
            except UnknownConcept:
                warnings.append(
                    f"line {entries[0][0]}: unknown concept {concept_id!r}; values dropped"
                )
                continue
            schema = descriptor.value_schema
            values: list[FieldValue] = []
            for line, _, kind_tag, value in entries:
                try:
                    kind = ValueKind(kind_tag)
                except ValueError:
                    warnings.append(
                        f"line {line}: unknown value kind {kind_tag!r} for "
                        f"{concept_id!r}; value dropped"
                    )
                    continue
                if kind is not schema.kind:
                    warnings.append(
                        f"line {line}: {concept_id!r} expects {schema.kind.value}, "
                        f"got {kind.value}; value dropped"
                    )
                    continue
                try:
                    values.append(FieldValue.from_lexical(kind, value))
                except ValueError as exc:
                    warnings.append(f"line {line}: {concept_id!r}: {exc}; value dropped")
            if schema.multiplicity is Multiplicity.ONE and len(values) > 1:
                warnings.append(
                    f"line {entries[0][0]}: {concept_id!r} holds a single value; "
                    f"{len(values) - 1} extra value(s) dropped"
                )
                values = values[:1]
            if values:
                fields[concept_id] = tuple(values)
        if controller_name is None or not controller_name:
            warnings.append(
                f"record {record_id!r}: missing {META_CONTROLLER_NAME}; "
                f"using {FALLBACK_CONTROLLER_NAME!r}"
            )
            controller_name = FALLBACK_CONTROLLER_NAME
        elif has_surrogate(controller_name):
            warnings.append(
                f"record {record_id!r}: controller name {controller_name!r} holds a "
                f"lone surrogate; using {FALLBACK_CONTROLLER_NAME!r}"
            )
            controller_name = FALLBACK_CONTROLLER_NAME
        if created is None:
            warnings.append(
                f"record {record_id!r}: missing {META_CREATED}; using {FALLBACK_CREATED!r}"
            )
            created = FALLBACK_CREATED
        elif not is_xsd_datetime(created):
            warnings.append(
                f"record {record_id!r}: invalid created timestamp {created!r}; "
                f"using {FALLBACK_CREATED!r}"
            )
            created = FALLBACK_CREATED
        records.append(RopaRecord(record_id, controller_name, created, fields))
    return records, warnings


# -- writing ---------------------------------------------------------------------
#
# The straightforward form of the package's writers: every row is built as a
# tuple and written through ``csv.writer``, and a file with a CR anywhere is
# written a second time, with every field of each row holding CR quoted.  The
# package renders each distinct value's row tail once and writes the text
# itself; ``write_canonical`` and ``export_template`` must give these bytes.


def _csv_text(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    text = out.getvalue()
    if "\r" not in text:
        return text
    out = io.StringIO()
    minimal = csv.writer(out, lineterminator="\n")
    quoted = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in rows:
        (quoted if any("\r" in str(field) for field in row) else minimal).writerow(row)
    return out.getvalue()


def write_canonical(records, registry):
    ids = [record.record_id for record in records]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate record ids cannot be written to one file")
    rows = [CANONICAL_HEADER]
    for record in records:
        rid = record.record_id
        if not _RECORD_ID_RE.fullmatch(rid):
            raise InvalidRecordId(rid)
        rows.append((rid, META_CONTROLLER_NAME, 0, ValueKind.TEXT.value, record.controller_name))
        rows.append((rid, META_CREATED, 0, ValueKind.TEXT.value, record.created))
        for cid in sorted(record.fields, key=registry.table_index):
            for index, value in enumerate(record.fields[cid]):
                rows.append((rid, cid, index, value.kind.value, value.lexical))
    return _csv_text(rows)


def export_template_text(record, config):
    """The text ``export_template`` writes: the header row and one data row,
    with a cell left empty for each concept that is absent or lost."""
    data_row = [
        ";".join(v.lexical.replace(";", "\\;") for v in record.values(cid))
        if not any(v.lexical.endswith("\\") for v in record.values(cid))
        else ""
        for cid in config.concept_ids
    ]
    return _csv_text([config.headers, data_row])
