"""Canonical interchange format and regulator template conversion.

Two CSV shapes are handled here:

* the canonical interchange file, one value per row
  (``record_id,concept_id,value_index,value_kind,value``), with record
  metadata carried by the reserved pseudo-concepts ``_meta:controller_name``
  and ``_meta:created``;
* spreadsheet-style template files, one processing activity per data row,
  with columns mapped to concepts by a :class:`TemplateProfileConfig`.

The canonical file is read in two steps.  First each row is read once and
filed in its cell, as what it yields (its value, or the warning for a value
dropped); an index read before the one it follows waits until that one is
filed.  Then each record is built from its cells, in order.  So warnings
come in record order (by each record id's first row), then by cell (each
concept's first row in the record), then by value index, then the record's
own metadata warnings.

Rows are read from the text split at LF, not through ``csv`` over a copy of
it.  A row's *tail*, the text after its record id's comma, repeats across
records, so a per-call memo maps each tail to its fields and its valid
value's shared 1-tuple: a row whose tail was seen costs one split and one
lookup.  A new line that holds neither ``"`` nor CR is split at commas,
which is what ``csv`` makes of it; any other line goes to one strict
``csv.reader``, which reads on into the next lines while a quoted value
spans them.  Only rows of one line whose record id holds no ``"`` or CR are
memoised.  A value that fails is not: it is resolved, and warned, at each
row.

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

import _thread
import csv
import functools
import io
import re
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import (
    DuplicateCell, HeaderMismatch, InvalidRecordId, MalformedCsv, RopaError, UnknownConcept,
)
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
    concepts: set[str] = set()
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
        if cid in concepts:
            raise ValueError(f"concept {cid!r} is mapped from two headers")
        concepts.add(cid)
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
# "\;".  Import skips a cell that is blank after ``strip()``.  Export writes a
# cell only where import reads the same values back, and reports the rest as
# UNREPRESENTABLE_VALUE: values whose cell would be blank, and a value whose
# lexical form ends with a backslash, which cannot be encoded unambiguously.


def _unescape(cell: str) -> str:
    return cell.replace("\\;", ";")


def _cell_items(cell: str, many: bool) -> list[str]:
    """What import reads from a cell: nothing if it is blank, else its one
    value, or (``many``) each of its values."""
    if not cell.strip():
        return []
    if not many:
        return [_unescape(cell)]
    if "\\" not in cell:  # nothing is escaped
        return cell.split(";")
    return [_unescape(p) for p in re.split(r"(?<!\\);", cell)]


def _cell(values: tuple[FieldValue, ...]) -> str | None:
    """The cell export writes for ``values``, or None if import would not read
    them back."""
    if any(v.lexical.endswith("\\") for v in values):
        return None
    cell = ";".join(v.lexical.replace(";", "\\;") for v in values)
    return cell if _cell_items(cell, False) else None


# -- CSV plumbing --------------------------------------------------------------

#: Held by each read from reading ``csv.field_size_limit`` to restoring it.
_FIELD_LIMIT_LOCK = _thread.allocate_lock()


def _lf_lines(head: list[str], rest):
    """Each line with its LF: the one in ``head`` if any, else the next of
    ``rest``.  Not a method: a generator holding its :class:`_Lines` would
    make a cycle, which the CLI, with ``gc`` off, never frees."""
    while (line := head.pop() if head else next(rest, None)) is not None:
        yield line + "\n"


class _Lines:
    """A text's lines, split at LF, for a parse that reads most lines itself.

    ``rest`` gives the lines not yet read, without their LF.  :meth:`row`
    gives the row that a strict ``csv.reader`` reads from a line just taken
    from ``rest``, and from the lines after it that a quoted value spans.
    Iterating gives that reader's rows of the lines left.  :attr:`line_num`
    is the number of the last line taken, as the reader's own would be."""

    def __init__(self, text: str):
        lines = text.split("\n")
        if not lines[-1]:  # the text ends with LF, or is empty
            lines.pop()
        self._count = len(lines)
        self.rest = iter(lines)
        self._head: list[str] = []
        self._reader = csv.reader(_lf_lines(self._head, self.rest), strict=True)

    def row(self, line: str) -> list[str]:
        self._head.append(line)
        return next(self._reader)

    def __iter__(self):
        return self._reader

    @property
    def line_num(self) -> int:
        return self._count - self.rest.__length_hint__()


def _read(source: bytes | str, parse, *, by_line: bool = False):
    """``parse(reader)`` over a strict ``csv.reader`` of ``source``, or, with
    ``by_line``, over the :class:`_Lines` of its text.

    The canonical parse reads by line: it reads most rows itself, so it
    needs neither ``csv`` for them nor the ``io.StringIO`` copy, at 4 bytes a
    character, of the text.  A template is read through ``csv``: it shares
    few rows, and ``csv`` over split lines reads it more slowly.

    This owns the error precedence of the module docstring: when ``parse``
    raises a :class:`RopaError`, the rest of the file is read, and a CSV
    error found there raises instead, as :class:`MalformedCsv` at the line
    ``reader.line_num`` gives.  Bytes lose a leading BOM, which spreadsheets
    write.

    No field is longer than its input, so while ``parse`` runs,
    ``csv.field_size_limit`` is raised to that length if it is lower, and the
    previous limit is restored afterwards, also when ``parse`` raises.  The
    limit is process-wide, so a read holds :data:`_FIELD_LIMIT_LOCK` from
    reading the limit to restoring it: reads in two threads take turns, and
    neither lowers the limit under the other.  So ``parse`` must not read
    through this function itself.  A ``csv`` reader outside this module still
    reads with the raised limit meanwhile."""
    if isinstance(source, bytes):
        try:
            # As the "utf-8-sig" codec does, without importing its module, but
            # an error's position counts the BOM's bytes.
            source = source.decode("utf-8").removeprefix("\ufeff")
        except UnicodeDecodeError as exc:
            raise MalformedCsv(0, f"input is not valid UTF-8: {exc}") from exc
    with _FIELD_LIMIT_LOCK:
        limit = csv.field_size_limit()
        raised = limit < len(source)
        if raised:
            csv.field_size_limit(len(source))
        if by_line:
            reader = _Lines(source)
            source = None  # each line is a copy: the text can go
        else:
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
        finally:
            if raised:
                csv.field_size_limit(limit)


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
        if concept_id == registry.container.id:  # it names the register, not a field
            raise UnknownConcept(concept_id)
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
    return _read(source, lambda lines: _canonical_records(lines, registry), by_line=True)


_CANONICAL_HEADER_LINE = ",".join(CANONICAL_HEADER)


def _canonical_records(
    lines: _Lines, registry: ConceptRegistry
) -> tuple[list[RopaRecord], list[str]]:
    """:func:`parse_canonical` over ``lines``: each row is filed in its cell
    as it is read, then each record is built from its cells."""
    header = next(lines.rest, None)
    if header != _CANONICAL_HEADER_LINE and (
        header is None or tuple(lines.row(header)) != CANONICAL_HEADER
    ):
        raise MalformedCsv(1, f"expected header {_CANONICAL_HEADER_LINE}")
    plan_of = functools.cache(lambda concept_id: _concept_plan(concept_id, registry))
    # Looked up per call, so that a wrapper put on the class is called.
    from_lexical = FieldValue.from_lexical
    # (kind, value) -> the 1-tuple of its FieldValue.  A value that fails is
    # not cached: it is resolved, and warned, each time.
    one_of = functools.cache(lambda kind, value: (from_lexical(kind, value),))

    def entry(concept_id, index, line, kind_tag, value):
        """What the row at ``index`` of a cell files there when it holds no
        value of the concept's kind: record metadata's value at index 0, the
        warning for a value dropped, or None."""
        plan = plan_of(concept_id)
        if plan is None:  # record metadata: its first value counts
            if index == 0:
                return value
            return f"line {line}: extra {concept_id} value(s) ignored" if index == 1 else None
        if plan.__class__ is str:
            return f"line {line}: {plan}" if index == 0 else None
        tag_kind = _KINDS.get(kind_tag)
        if tag_kind is None:
            text = f"unknown value kind {kind_tag!r} for {concept_id!r}"
        else:
            text = f"{concept_id!r} expects {plan[0].value}, got {tag_kind.value}"
        return f"line {line}: {text}; value dropped"

    # A row's tail, the text after its record id's comma -> (concept_id, index
    # or None if it is no integer, kind_tag, value, its value's 1-tuple or
    # None), for rows read from one line whose record id holds no '"' or CR:
    # any such row is its record id and its tail's fields.
    tails: dict[str, tuple[str, int | None, str, str, tuple[FieldValue] | None]] = {}
    # record_id -> {concept_id: cell}, both in order of first appearance.  A
    # cell is [line of index 0, entry 0, entry 1, ...]; before its index 0 is
    # read, it holds only the line of its first row.
    by_record: dict[str, dict[str, list]] = {}
    # (record_id, concept_id) -> (line of the cell's first row, {index: (line,
    # kind_tag, value, entry or None)}): the indexes read before the one they
    # follow.  It is kept when emptied, since a gap found later is raised at
    # that line.
    pending: dict[tuple[str, str], tuple[int, dict[int, tuple]]] = {}
    # The rows of a record are adjacent in a written file: its cells are
    # looked up again only when the record id changes.
    record_id = None
    skipped = 0  # lines read so far after a row's first, by csv
    for n, text in enumerate(lines.rest, 2):
        rid, _, tail = text.partition(",")
        known = tails.get(tail)
        # A record id that is quoted, or holds CR, is read again by csv.
        if known is not None and (rid == record_id or '"' not in rid and "\r" not in rid):
            concept_id, index, kind_tag, value, one = known
            key = None
        else:
            if '"' not in text and "\r" not in text:  # csv would split it at commas
                row = text.split(",") if text else []
                key = tail
            else:  # csv reads it, with the lines that a quoted value spans
                row = lines.row(text)
                last = lines.line_num
                one_line = last == n + skipped and '"' not in rid and "\r" not in rid
                key = tail if one_line else None
                skipped = last - n
            if len(row) != 5:
                raise MalformedCsv(n + skipped, f"expected 5 columns, got {len(row)}")
            rid, concept_id, index_cell, kind_tag, value = row
            try:
                index = int(index_cell)
            except ValueError:
                index = None
            one = None
        if one is None:  # a row just read, or one whose value is not kept
            plan = plan_of(concept_id)
            if plan.__class__ is tuple and kind_tag == plan[0]:  # a ValueKind equals its tag
                try:
                    one = one_of(plan[0], value)
                except ValueError as exc:
                    one = f"line {n + skipped}: {concept_id!r}: {exc}; value dropped"
        if key is not None:
            kept = one if one.__class__ is tuple else None  # not a warning: it has a line
            tails[key] = (concept_id, index, kind_tag, value, kept)
        if rid != record_id:
            record_id = rid
            cells = by_record.get(rid)
            if cells is None:
                if not _RECORD_ID_RE.fullmatch(rid):
                    raise MalformedCsv(n + skipped, f"invalid record id {rid!r}")
                cells = by_record[rid] = {}
        cell = cells.get(concept_id)
        line = n + skipped
        if cell is None and index == 0:  # a cell's first row
            cells[concept_id] = [line, one or entry(concept_id, 0, line, kind_tag, value)]
            continue
        if index is None:  # only a row just read can hold one
            raise MalformedCsv(line, f"value_index is not an integer: {index_cell!r}")
        if index < 0:
            raise MalformedCsv(line, f"negative value_index {index}")
        if cell is None:
            cell = cells[concept_id] = [line]
        if index == len(cell) - 1:  # it follows the cell's last index
            if index == 0:
                cell[0] = line
            cell.append(one or entry(concept_id, index, line, kind_tag, value))
            if pending and (rid, concept_id) in pending:  # the indexes that follow it
                waiting = pending[rid, concept_id][1]
                while (index := index + 1) in waiting:
                    line, kind_tag, value, one = waiting.pop(index)
                    cell.append(one or entry(concept_id, index, line, kind_tag, value))
        elif index < len(cell) - 1:
            raise DuplicateCell(rid, concept_id, index)
        else:
            waiting = pending.setdefault((rid, concept_id), (cell[0], {}))[1]
            if index in waiting:
                raise DuplicateCell(rid, concept_id, index)
            waiting[index] = (line, kind_tag, value, one)

    # An index still waiting is a gap: the first such cell in the file is raised.
    gaps = [(first, rid, cid) for (rid, cid), (first, waiting) in pending.items() if waiting]
    if gaps:
        line, rid, concept_id = min(gaps)
        raise MalformedCsv(
            line, f"value_index not contiguous from 0 for ({rid!r}, {concept_id!r})"
        )

    records: list[RopaRecord] = []
    warnings: list[str] = []
    for rid, cells in by_record.items():
        fields: dict[str, tuple[FieldValue, ...]] = {}
        for concept_id, cell in cells.items():
            one = cell[1]
            if one.__class__ is tuple:
                if len(cell) == 2:  # one valid value, as most cells hold
                    fields[concept_id] = one
                    continue
            elif plan_of(concept_id) is None:  # record metadata: a warning at index 1
                warnings += cell[2:3]
                continue
            values: list[FieldValue] = []
            for one in cell[1:]:
                if one.__class__ is tuple:
                    values += one
                elif one is not None:
                    warnings.append(one)
            if len(values) > 1 and plan_of(concept_id)[1]:  # single-valued: the first counts
                warnings.append(f"line {cell[0]}: {concept_id!r} holds a single value; "
                                f"{len(values) - 1} extra value(s) dropped")
                del values[1:]
            if values:
                fields[concept_id] = tuple(values)
        controller_name = cells.get(META_CONTROLLER_NAME, (0, None))[1]
        if not controller_name:
            warnings.append(f"record {rid!r}: missing {META_CONTROLLER_NAME}; "
                            f"using {FALLBACK_CONTROLLER_NAME!r}")
            controller_name = FALLBACK_CONTROLLER_NAME
        elif has_surrogate(controller_name):
            warnings.append(f"record {rid!r}: controller name {controller_name!r} holds a "
                            f"lone surrogate; using {FALLBACK_CONTROLLER_NAME!r}")
            controller_name = FALLBACK_CONTROLLER_NAME
        created = cells.get(META_CREATED, (0, None))[1]
        if created is None:
            warnings.append(f"record {rid!r}: missing {META_CREATED}; "
                            f"using {FALLBACK_CREATED!r}")
            created = FALLBACK_CREATED
        elif not is_xsd_datetime(created):
            warnings.append(f"record {rid!r}: invalid created timestamp {created!r}; "
                            f"using {FALLBACK_CREATED!r}")
            created = FALLBACK_CREATED
        cells.clear()  # its cells are no longer needed
        records.append(RopaRecord(rid, controller_name, created, fields))
    return records, warnings


def _last_fields(value: FieldValue | str) -> tuple[str, str]:
    if isinstance(value, str):  # record metadata
        return ValueKind.TEXT.value, value
    return value.kind.value, value.lexical


def write_canonical(records: Sequence[RopaRecord], registry: ConceptRegistry) -> str:
    """Serialize records to the canonical interchange format.

    Deterministic: records in input order, concepts in table order, values
    in index order.  Record ids must be unique (the file format cannot
    represent two records with the same id) and valid, as
    :func:`parse_canonical` reads them: :class:`InvalidRecordId` otherwise.
    A controller name or created time holding a lone surrogate, which has no
    UTF-8 encoding, raises ValueError.
    """
    if len({record.record_id for record in records}) != len(records):
        raise ValueError("duplicate record ids cannot be written to one file")
    lines = [_csv_line(CANONICAL_HEADER)]
    # Each distinct value's row tail, ``KIND,lexical`` and the LF, built once.
    tails: dict[FieldValue | str, str] = {}
    for record in records:
        rid, fields = record.record_id, record.fields
        if not _RECORD_ID_RE.fullmatch(rid):
            raise InvalidRecordId(rid)
        name, created = record.controller_name, record.created
        if has_surrogate(name):
            raise ValueError(f"controller name holds a lone surrogate: {name!r}")
        if has_surrogate(created):
            raise ValueError(f"created time holds a lone surrogate: {created!r}")
        # Record ids, concept ids ([a-z0-9-]+, checked by the registry) and
        # _meta: ids need no quoting.
        cells = [(META_CONTROLLER_NAME, (name,)), (META_CREATED, (created,))]
        cells += [(cid, fields[cid]) for cid in sorted(fields, key=registry.table_index)]
        for cid, values in cells:
            prefix = f"{rid},{cid},"
            for index, value in enumerate(values):
                tail = tails.get(value) or tails.setdefault(value, _csv_line(_last_fields(value)))
                if "\r" not in tail:
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
            if column is None:
                continue
            cid, kind, many = column
            values = []
            for item in _cell_items(cell, many):
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
    cells: dict[str, str] = {}
    for cid in sorted(record.fields, key=registry.table_index):
        if cid not in target:
            lost.append((cid, LossReason.NOT_IN_TARGET_PROFILE))
        elif (cell := _cell(record.fields[cid])) is None:
            lost.append((cid, LossReason.UNREPRESENTABLE_VALUE))
        else:
            cells[cid] = cell
    data_row = [cells.get(cid, "") for cid in config.concept_ids]
    text = _csv_line(config.headers) + _csv_line(data_row)
    return text, ConversionLossReport(tuple(lost), len(cells))


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
