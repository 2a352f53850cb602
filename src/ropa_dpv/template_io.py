"""Canonical interchange format and regulator template conversion.

Two CSV shapes are handled here:

* the canonical interchange file, one value per row
  (``record_id,concept_id,value_index,value_kind,value``), with record
  metadata carried by the reserved pseudo-concepts ``_meta:controller_name``
  and ``_meta:created``;
* spreadsheet-style template files, one processing activity per data row,
  with columns mapped to concepts by a :class:`TemplateProfileConfig`.

Parsing is forgiving: schema violations become warnings and the offending
value is dropped.  Structural failures (invalid UTF-8, bad quoting, a wrong
header or column count, duplicate cells) are hard errors, and a file raises
only one.  Invalid UTF-8 comes first; after that one rule holds for every
reader: any error found while rows are read yields to a CSV error later in
the file.  So bad quoting anywhere beats the first bad row, which beats the
first gap in a canonical cell's value indexes.  All output is UTF-8 with LF
endings and a trailing LF, and is byte-deterministic for equal inputs.
A written field is quoted, with ``"`` doubled, when it holds ``,``, ``"`` or
LF; a row with CR in any field has every field quoted, since a reader takes
a bare CR for a line end; a row of one empty field is written ``""``.
"""

from __future__ import annotations

import csv
import functools
import io
import re
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import DuplicateCell, HeaderMismatch, MalformedCsv, RopaError, UnknownConcept
from .records import (
    _RECORD_ID_RE,
    FieldValue,
    Multiplicity,
    RopaRecord,
    ValueKind,
    has_surrogate,
    is_xsd_datetime,
)
from .registry import ConceptRegistry, Jurisdiction

CANONICAL_HEADER = ("record_id", "concept_id", "value_index", "value_kind", "value")
CONFIG_HEADER = ("external_header", "concept_id")
META_CONTROLLER_NAME = "_meta:controller_name"
META_CREATED = "_meta:created"

#: Metadata defaults for records deserialized without their _meta rows.
FALLBACK_CONTROLLER_NAME = "(unknown)"
FALLBACK_CREATED = "1970-01-01T00:00:00+00:00"


class LossReason(str, Enum):
    NOT_IN_TARGET_PROFILE = "NOT_IN_TARGET_PROFILE"
    UNREPRESENTABLE_VALUE = "UNREPRESENTABLE_VALUE"


class ConversionLossReport(NamedTuple):
    """What a conversion or template export dropped, and why."""

    lost: tuple[tuple[str, LossReason], ...]
    retained_count: int


class TemplateProfileConfig(NamedTuple):
    """Ordered mapping from a template's column headers to concept ids."""

    jurisdiction: Jurisdiction
    column_map: tuple[tuple[str, str], ...]

    @property
    def headers(self) -> tuple[str, ...]:
        return tuple(h for h, _ in self.column_map)

    @property
    def concept_ids(self) -> tuple[str, ...]:
        return tuple(c for _, c in self.column_map)


def make_config(
    jurisdiction: Jurisdiction,
    column_map: Sequence[tuple[str, str]],
    registry: ConceptRegistry,
) -> TemplateProfileConfig:
    """Validate and freeze a column map for one jurisdiction's template."""
    jurisdiction = Jurisdiction(jurisdiction)
    profile = registry.profiles[jurisdiction]
    headers: set[str] = set()
    for header, cid in column_map:
        if not header:
            raise ValueError("external headers must be non-empty")
        if header in headers:
            raise ValueError(f"duplicate external header {header!r}")
        headers.add(header)
        registry.concept(cid)
        if cid not in profile.concepts:
            raise ValueError(
                f"{cid!r} is not part of the {jurisdiction.value} template profile"
            )
    return TemplateProfileConfig(jurisdiction, tuple((h, c) for h, c in column_map))


def load_config(
    source: bytes | str, jurisdiction: Jurisdiction, registry: ConceptRegistry
) -> TemplateProfileConfig:
    """Parse a ``external_header,concept_id`` CSV into a config."""
    column_map = _read(source, _config_rows)
    try:
        return make_config(jurisdiction, column_map, registry)
    except (ValueError, UnknownConcept) as exc:
        raise MalformedCsv(0, str(exc)) from exc


def _config_rows(reader) -> list[tuple[str, str]]:
    """The column map of a config file.  Raises on the first bad row."""
    header = next(reader, None)
    if header is None or tuple(header) != CONFIG_HEADER:
        raise MalformedCsv(1, f"expected header {','.join(CONFIG_HEADER)}")
    column_map = []
    for row in reader:
        if len(row) != 2:
            raise MalformedCsv(reader.line_num, f"expected 2 columns, got {len(row)}")
        column_map.append((row[0], row[1]))
    return column_map


def default_config(
    registry: ConceptRegistry, jurisdiction: Jurisdiction
) -> TemplateProfileConfig:
    """The default config for one jurisdiction: its profile's concepts in
    table order.

    Headers default to the registry display names (the concept id stands in
    for the one unnamed row); regulators' real headers can be supplied via
    :func:`load_config`.
    """
    profile = registry.profiles[Jurisdiction(jurisdiction)]
    column_map = [
        (c.display_name or c.id, c.id) for c in registry.concepts if c.id in profile.concepts
    ]
    return make_config(jurisdiction, column_map, registry)


# -- cell encoding -------------------------------------------------------------

# In-cell list separator is ";"; a literal ";" inside a value is escaped as
# "\;".  A value whose lexical form ends with a backslash cannot be encoded
# unambiguously and is reported as UNREPRESENTABLE_VALUE on export.


def _escape(value: str) -> str:
    return value.replace(";", "\\;")


def _unescape(cell: str) -> str:
    return cell.replace("\\;", ";")


def _split_cell(cell: str) -> list[str]:
    if "\\" not in cell:  # nothing is escaped
        return cell.split(";")
    return [_unescape(p) for p in re.split(r"(?<!\\);", cell)]


def _representable(values: Iterable[FieldValue]) -> bool:
    return not any(v.lexical.endswith("\\") for v in values)


# -- CSV plumbing --------------------------------------------------------------


def _read(source: bytes | str, parse):
    """``parse(reader)`` over a strict ``csv.reader`` of ``source``.

    This owns the error precedence of the module docstring: when ``parse``
    raises a :class:`RopaError`, the rest of the file is read, and a CSV
    error found there raises instead, as :class:`MalformedCsv`."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedCsv(0, f"input is not valid UTF-8: {exc}") from exc
    reader = csv.reader(io.StringIO(source), strict=True)
    try:
        try:
            return parse(reader)
        except RopaError:
            for _ in reader:  # a CSV error further on wins
                pass
            raise
    except csv.Error as exc:
        raise MalformedCsv(reader.line_num, str(exc)) from exc


def _quote(field: str) -> str:
    if "," in field or '"' in field or "\n" in field:
        return '"' + field.replace('"', '""') + '"'
    return field


def _csv_line(fields: Sequence[str]) -> str:
    """One CSV row with its LF, by the quoting rule of the module docstring."""
    if any("\r" in field for field in fields):
        return ",".join(['"' + f.replace('"', '""') + '"' for f in fields]) + "\n"
    if len(fields) == 1 and not fields[0]:
        return '""\n'  # a bare empty line would read as a row of no fields
    return ",".join([_quote(f) for f in fields]) + "\n"


# -- canonical interchange format ----------------------------------------------

_KINDS: dict[str, ValueKind] = {kind.value: kind for kind in ValueKind}


def _canonical_rows(reader) -> dict[str, dict[str, tuple | dict]]:
    """record_id -> {concept_id: cell}, both in file order.  Raises on the
    first bad row.

    A cell is the tuple of its ``(line, kind_tag, value)`` entries while its
    value indexes arrive as 0, 1, 2, ..., as in every file that
    :func:`write_canonical` writes.  The first index out of that order turns
    it into a ``{value_index: entry}`` map, in order of first appearance.
    A tuple, not a list: the garbage collector stops tracking a tuple of
    untracked items, so full collections do not rescan every cell while the
    rest of the file is read.
    """
    header = next(reader, None)
    if header is None or tuple(header) != CANONICAL_HEADER:
        raise MalformedCsv(1, f"expected header {','.join(CANONICAL_HEADER)}")
    by_record: dict[str, dict[str, tuple | dict]] = {}
    for row in reader:
        if len(row) != 5:
            raise MalformedCsv(reader.line_num, f"expected 5 columns, got {len(row)}")
        record_id, concept_id, index_cell, kind_tag, value = row
        cells = by_record.get(record_id)
        if cells is None:
            if not _RECORD_ID_RE.fullmatch(record_id):
                raise MalformedCsv(reader.line_num, f"invalid record id {record_id!r}")
            cells = by_record[record_id] = {}
        try:
            value_index = int(index_cell)
        except ValueError:
            raise MalformedCsv(
                reader.line_num, f"value_index is not an integer: {index_cell!r}"
            ) from None
        if value_index < 0:
            raise MalformedCsv(reader.line_num, f"negative value_index {value_index}")
        entry = (reader.line_num, kind_tag, value)
        cell = cells.get(concept_id)
        if cell is None:
            cells[concept_id] = (entry,) if value_index == 0 else {value_index: entry}
        elif cell.__class__ is tuple:
            if value_index == len(cell):
                cells[concept_id] = cell + (entry,)
            elif value_index < len(cell):
                raise DuplicateCell(record_id, concept_id, value_index)
            else:
                cell = cells[concept_id] = dict(enumerate(cell))
                cell[value_index] = entry
        elif value_index in cell:
            raise DuplicateCell(record_id, concept_id, value_index)
        else:
            cell[value_index] = entry
    return by_record


def _concept_plan(
    concept_id: str, registry: ConceptRegistry
) -> tuple[ValueKind, bool] | str | None:
    """What :func:`parse_canonical` makes of a cell of ``concept_id``: None
    for record metadata, the warning (after its line) for a cell it ignores,
    else the concept's value kind and whether it holds a single value."""
    if concept_id in (META_CONTROLLER_NAME, META_CREATED):
        return None
    if concept_id.startswith("_meta:"):
        return f"unknown metadata row {concept_id!r} ignored"
    try:
        schema = registry.concept(concept_id).value_schema
    except UnknownConcept:
        return f"unknown concept {concept_id!r}; values dropped"
    return schema.kind, schema.multiplicity is Multiplicity.ONE


def parse_canonical(
    source: bytes | str, registry: ConceptRegistry
) -> tuple[list[RopaRecord], list[str]]:
    """Parse a canonical interchange file.

    Returns records in file order plus warnings for every dropped value.
    Structural problems raise :class:`MalformedCsv` or :class:`DuplicateCell`.
    """
    by_record = _read(source, _canonical_rows)
    # Per call: each concept's plan, and each valid value by (kind, value),
    # shared across concepts.  A value that ``from_lexical`` rejects is not
    # cached, so it is built, and reported, at each occurrence.
    plan_of = functools.cache(lambda concept_id: _concept_plan(concept_id, registry))
    memo = functools.cache(FieldValue.from_lexical)
    warnings: list[str] = []
    records: list[RopaRecord] = []
    # (first line, record_id, concept_id) per cell whose value indexes do not
    # run from 0 without a gap; the one seen first in the file is raised.
    gaps: list[tuple[int, str, str]] = []
    for record_id, cells in by_record.items():
        controller_name = None
        created = None
        fields: dict[str, tuple[FieldValue, ...]] = {}
        for concept_id, entries in cells.items():
            if entries.__class__ is dict:
                try:
                    entries = [entries[i] for i in range(len(entries))]
                except KeyError:
                    gaps.append((next(iter(entries.values()))[0], record_id, concept_id))
                    continue
            plan = plan_of(concept_id)
            if plan is None:
                if len(entries) > 1:
                    warnings.append(
                        f"line {entries[1][0]}: extra {concept_id} value(s) ignored"
                    )
                if concept_id == META_CONTROLLER_NAME:
                    controller_name = entries[0][2]
                else:
                    created = entries[0][2]
                continue
            if plan.__class__ is str:
                warnings.append(f"line {entries[0][0]}: {plan}")
                continue
            kind, single = plan
            values: list[FieldValue] = []
            for line, kind_tag, value in entries:
                tag_kind = _KINDS.get(kind_tag)
                if tag_kind is not kind:
                    if tag_kind is None:
                        warnings.append(
                            f"line {line}: unknown value kind {kind_tag!r} for "
                            f"{concept_id!r}; value dropped"
                        )
                    else:
                        warnings.append(
                            f"line {line}: {concept_id!r} expects {kind.value}, "
                            f"got {tag_kind.value}; value dropped"
                        )
                    continue
                try:
                    values.append(memo(kind, value))
                except ValueError as exc:
                    warnings.append(f"line {line}: {concept_id!r}: {exc}; value dropped")
            if single and len(values) > 1:
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
    if gaps:
        line, record_id, concept_id = min(gaps)
        raise MalformedCsv(
            line, f"value_index not contiguous from 0 for ({record_id!r}, {concept_id!r})"
        )
    return records, warnings


def _last_fields(value: FieldValue | str) -> tuple[str, str]:
    if isinstance(value, str):  # record metadata
        return ValueKind.TEXT.value, value
    return value.kind.value, value.lexical


def write_canonical(records: Sequence[RopaRecord], registry: ConceptRegistry) -> str:
    """Serialize records to the canonical interchange format.

    Deterministic: records in input order, concepts in table order, values
    in index order.  Record ids must be unique (the file format cannot
    represent two records with the same id).
    """
    if len({record.record_id for record in records}) != len(records):
        raise ValueError("duplicate record ids cannot be written to one file")
    lines = [_csv_line(CANONICAL_HEADER)]
    # Each distinct value's row tail, ``KIND,lexical`` and the LF, built once.
    tails: dict[FieldValue | str, str] = {}
    for record in records:
        rid, fields = record.record_id, record.fields
        # Concept ids ([a-z0-9-]+, checked by the registry) and _meta: ids need no quoting.
        head, slow = _quote(rid) + ",", "\r" in rid
        cells = [(META_CONTROLLER_NAME, (record.controller_name,)),
                 (META_CREATED, (record.created,))]
        cells += [(cid, fields[cid]) for cid in sorted(fields, key=registry.table_index)]
        for cid, values in cells:
            prefix = f"{head}{cid},"
            for index, value in enumerate(values):
                tail = tails.get(value) or tails.setdefault(value, _csv_line(_last_fields(value)))
                if not slow and "\r" not in tail:
                    lines.append(f"{prefix}{index},{tail}")
                else:
                    lines.append(_csv_line((rid, cid, str(index), *_last_fields(value))))
    return "".join(lines)


# -- template-shaped files -------------------------------------------------------


def import_template(
    source: bytes | str,
    config: TemplateProfileConfig,
    registry: ConceptRegistry,
) -> tuple[list[RopaRecord], list[str]]:
    """Import a spreadsheet-style template CSV, one activity per data row.

    Header matching is order-insensitive and case-sensitive.  Raises
    :class:`HeaderMismatch` when more than half of the mapped headers are
    absent (the file is probably a different regulator's template).
    """
    return _read(source, lambda reader: _template_rows(reader, config, registry))


def _template_rows(
    reader, config: TemplateProfileConfig, registry: ConceptRegistry
) -> tuple[list[RopaRecord], list[str]]:
    """:func:`import_template` over the rows of ``reader``."""
    file_headers = next(reader, None)
    if file_headers is None:
        raise MalformedCsv(1, "empty file")
    by_header = dict(config.column_map)
    missing = [h for h, _ in config.column_map if h not in file_headers]
    if len(missing) * 2 > len(config.column_map):
        raise HeaderMismatch(missing)

    warnings = [f"mapped column {h!r} missing from input" for h in missing]
    # Per file column: (concept_id, value kind, whether a cell holds a list), or None.
    columns: list[tuple[str, ValueKind, bool] | None] = []
    seen_headers: set[str] = set()
    for header in file_headers:
        if header in seen_headers:
            warnings.append(f"duplicate column {header!r}; ignored")
            columns.append(None)
        elif header in by_header:
            cid = by_header[header]
            schema = registry.concept(cid).value_schema
            columns.append((cid, schema.kind, schema.multiplicity is Multiplicity.MANY))
        else:
            warnings.append(f"column {header!r} is not mapped; ignored")
            columns.append(None)
        seen_headers.add(header)

    memo = functools.cache(FieldValue.from_lexical)
    records: list[RopaRecord] = []
    code = config.jurisdiction.value.lower()
    for row in reader:
        line = reader.line_num
        if len(row) != len(file_headers):
            raise MalformedCsv(
                line, f"expected {len(file_headers)} columns, got {len(row)}"
            )
        number = len(records) + 1
        fields: dict[str, tuple[FieldValue, ...]] = {}
        for column, cell in zip(columns, row):
            if column is None or not cell.strip():
                continue
            cid, kind, many = column
            values = []
            for item in _split_cell(cell) if many else [_unescape(cell)]:
                try:
                    values.append(memo(kind, item))
                except ValueError as exc:
                    warnings.append(f"line {line}: {cid!r}: {exc}; value dropped")
            if values:
                fields[cid] = tuple(values)
        controller = FALLBACK_CONTROLLER_NAME
        for source_cid in ("controller-name-and-contact-details", "data-controller"):
            if source_cid in fields:
                controller = fields[source_cid][0].lexical
                break
        # Imports are reproducible: the created timestamp is a fixed epoch
        # placeholder, not the wall clock.
        records.append(
            RopaRecord(f"{code}-{number:04d}", controller, FALLBACK_CREATED, fields)
        )
    return records, warnings


def export_template(
    record: RopaRecord,
    config: TemplateProfileConfig,
    registry: ConceptRegistry,
) -> tuple[str, ConversionLossReport]:
    """Export one record to a template shape: header row plus one data row.

    Populated concepts without a target column are reported as
    NOT_IN_TARGET_PROFILE; concepts whose values cannot survive the cell
    encoding are reported as UNREPRESENTABLE_VALUE.
    """
    target = set(config.concept_ids)
    lost: list[tuple[str, LossReason]] = []
    emitted: set[str] = set()
    for cid in sorted(record.fields, key=registry.table_index):
        if cid not in target:
            lost.append((cid, LossReason.NOT_IN_TARGET_PROFILE))
        elif not _representable(record.fields[cid]):
            lost.append((cid, LossReason.UNREPRESENTABLE_VALUE))
        else:
            emitted.add(cid)

    data_row = [
        ";".join(_escape(v.lexical) for v in record.fields[cid]) if cid in emitted else ""
        for cid in config.concept_ids
    ]
    text = _csv_line(config.headers) + _csv_line(data_row)
    return text, ConversionLossReport(tuple(lost), len(emitted))


def convert(
    record: RopaRecord,
    to_config: TemplateProfileConfig,
    registry: ConceptRegistry,
) -> tuple[RopaRecord, ConversionLossReport]:
    """Restrict a record to the target template's concepts.

    Record metadata is preserved; conversion never invents data.  Unlike
    :func:`export_template` no cell encoding happens here, so values are
    never unrepresentable.
    """
    target = set(to_config.concept_ids)
    fields = {cid: vals for cid, vals in record.fields.items() if cid in target}
    lost = tuple(
        (cid, LossReason.NOT_IN_TARGET_PROFILE)
        for cid in sorted(record.fields, key=registry.table_index)
        if cid not in target
    )
    return record._replace(fields=fields), ConversionLossReport(lost, len(fields))
