"""Each stage grows linearly with the register.

These are counts, not timings: the Python and C calls a stage makes
(``sys.setprofile``) and its traced allocation peak (``tracemalloc``) are the
same on every run of the same input, so they can be checked where wall time,
which swings from run to run, cannot.  Each stage runs on seeded registers of
N and 4N records, whose populated fields grow 4.40 times.  The parse's calls
may grow by at most 1.1 times as much as the rows it reads.  The calls of
every other stage may grow by at most 4.4 times, or 4.6 times for the two
serializers, which sort.  When the bounds were set, the calls grew (Python
3.11 to 3.13, within 0.5 %):

    validate_article30, every record          4.03
    validate_against_profile (BE), every one  3.98
    gap_matrix, every record                  4.00
    records_to_graph                          3.41
    serialize_turtle                          4.26
    serialize_jsonld                          4.12
    write_canonical                           4.09

The parse's peak, and what it keeps, are each held to a budget per input
byte, about 10 % above the most either took on Python 3.11 to 3.13 when the
budget was set (5.86 and 0.74 bytes).  A change that lowers either lowers its
budget.  One check, on the length of a single cell, is timed instead (see
there).
"""

import csv
import gc
import io
import random
import sys
import time
import tracemalloc

import pytest

from ropa_dpv import (
    Jurisdiction,
    gap_matrix,
    parse_canonical,
    records_to_graph,
    serialize_jsonld,
    serialize_turtle,
    validate_against_profile,
    validate_article30,
    write_canonical,
)
from ropa_dpv.template_io import CANONICAL_HEADER
from conftest import random_record

N = 100
#: Largest growth of a stage's calls from N to 4N records.
MAX_RATIO = 4.4
#: The same for a serializer, whose sort adds a logarithmic factor.
MAX_SORT_RATIO = 4.6
#: Largest growth of the parse's calls over the growth of the rows it reads.
MAX_PARSE_RATIO_PER_ROWS = 1.1
#: Traced peak of ``parse_canonical`` per byte of input.
PARSE_PEAK_PER_BYTE = 6.4
#: Traced bytes still held, with the records returned, per byte of input:
#: rows that repeat a value share its strings and its 1-tuple.
PARSE_KEPT_PER_BYTE = 0.81
#: Values in the shorter of the two single cells timed below.
CELL = 5000
#: Largest ratio of the parse time of a cell of 4 * CELL values to that of
#: CELL values: linear work gives about 4.
MAX_CELL_TIME_RATIO = 8


@pytest.fixture(scope="module")
def registers(registry):
    """The canonical bytes of seeded registers of N and 4N records.

    Every fourth record gets one more row, for a concept the registry does not
    know, after the last record: so records are read back in two parts, and
    a warning is reported for each such row.
    """

    def build(size):
        rng = random.Random(size)
        records = [random_record(registry, rng, f"pa-{n:04d}") for n in range(size)]
        extra = "".join(f"pa-{n:04d},no-such-concept,0,TEXT,x\n" for n in range(0, size, 4))
        return (write_canonical(records, registry) + extra).encode()

    return build(N), build(4 * N)


def _calls(stage) -> int:
    """How many Python and C functions ``stage()`` calls."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(count)
    try:
        stage()
    finally:
        sys.setprofile(None)
    return calls


def _parse(registry, source):
    return lambda: parse_canonical(source, registry)


def _validate(registry, source):
    records, _ = parse_canonical(source, registry)
    profile = registry.profiles[Jurisdiction.BE]
    validate_against_profile(records[0], profile, registry)  # builds the plan first
    return lambda: [validate_against_profile(r, profile, registry) for r in records]


def _article30(registry, source):
    records, _ = parse_canonical(source, registry)
    validate_article30(records[0], registry)  # builds the plan first
    return lambda: [validate_article30(r, registry) for r in records]


def _gap_matrix(registry, source):
    records, _ = parse_canonical(source, registry)
    gap_matrix(records[0], registry)  # builds the plan first
    return lambda: [gap_matrix(r, registry) for r in records]


def _graph(registry, source):
    records, _ = parse_canonical(source, registry)
    return lambda: records_to_graph(records, registry)


def _turtle(registry, source):
    graph = records_to_graph(parse_canonical(source, registry)[0], registry)
    return lambda: serialize_turtle(graph)


def _jsonld(registry, source):
    graph = records_to_graph(parse_canonical(source, registry)[0], registry)
    return lambda: serialize_jsonld(graph)


def _write(registry, source):
    records, _ = parse_canonical(source, registry)
    return lambda: write_canonical(records, registry)


def _rows(source: bytes) -> int:
    """The rows after the header, as ``csv.reader`` counts them."""
    return sum(1 for _ in csv.reader(io.StringIO(source.decode()))) - 1


@pytest.mark.parametrize(
    "stage", [_parse, _validate, _article30, _gap_matrix, _graph, _turtle, _jsonld, _write]
)
def test_calls_grow_linearly_with_the_register(registry, registers, stage):
    """The two registers' rows do not grow by exactly 4 (seeded draws give
    4.39 here), so the parse, whose calls are per row, is bounded by the
    rows' growth: 4.4 at exactly 4 times the rows."""
    small, large = (_calls(stage(registry, source)) for source in registers)
    if stage is _parse:
        rows_small, rows_large = (_rows(source) for source in registers)
        bound = MAX_PARSE_RATIO_PER_ROWS * rows_large / rows_small
    elif stage in (_turtle, _jsonld):
        bound = MAX_SORT_RATIO
    else:
        bound = MAX_RATIO
    assert large <= bound * small, (small, large, bound)


@pytest.fixture(scope="module")
def traced_parses(registry, registers):
    """For each register: its length, and the traced bytes that its parse
    still holds with the records returned, and at its peak."""
    traced = []
    for source in registers:
        tracemalloc.start()
        try:
            records, warnings = parse_canonical(source, registry)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(warnings) == len(records) // 4
        traced.append((len(source), kept, peak))
    return traced


def test_parse_peak_stays_within_its_budget_per_input_byte(traced_parses):
    for size, _, peak in traced_parses:
        assert peak <= PARSE_PEAK_PER_BYTE * size, (peak, size)


def test_parse_keeps_no_more_than_its_budget_per_input_byte(traced_parses):
    for size, kept, _ in traced_parses:
        assert kept <= PARSE_KEPT_PER_BYTE * size, (kept, size)


def _one_cell(size: int, reverse: bool) -> bytes:
    """A register of one record, whose ``processor`` cell holds ``size``
    values, its indexes in order or in reverse."""
    indexes = range(size - 1, -1, -1) if reverse else range(size)
    rows = "".join(f"pa-1,processor,{i},TEXT,p{i}\n" for i in indexes)
    return (",".join(CANONICAL_HEADER) + "\n" + rows).encode()


def _fastest_parse(registry, size: int, reverse: bool, runs=3) -> float:
    """The least wall time of ``runs`` parses of :func:`_one_cell`, with
    ``gc`` off."""
    source = _one_cell(size, reverse)
    best = float("inf")
    gc.disable()
    try:
        for _ in range(runs):
            start = time.perf_counter()
            records, _ = parse_canonical(source, registry)
            best = min(best, time.perf_counter() - start)
    finally:
        gc.enable()
    assert len(records[0].fields["processor"]) == size
    return best


@pytest.mark.parametrize("reverse", [False, True], ids=["in_order", "reversed"])
def test_parse_time_grows_linearly_with_the_length_of_one_cell(registry, reverse):
    """A cell's values are gathered without copying the values gathered so far.

    A copy of the whole cell per value is quadratic, but it is made inside
    one C call (a tuple concatenation, say): the call counts above do not
    change, and the traced peak holds only one copy at a time.  So this check
    is timed.  The least of three runs per size is compared; a copy per value
    gave a ratio of 14 or more."""
    small, large = (_fastest_parse(registry, size, reverse) for size in (CELL, 4 * CELL))
    assert large <= MAX_CELL_TIME_RATIO * small, (small, large)
