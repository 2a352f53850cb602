"""The parse and validation grow linearly with the register.

These are counts, not timings: the Python and C calls a stage makes
(``sys.setprofile``) and its traced allocation peak (``tracemalloc``) are the
same on every run of the same input, so they can be checked where wall time,
which swings from run to run, cannot.  Each stage runs on seeded registers of
N and 4N records; its calls may grow by at most 4.4 times.  The parse's peak
is held to a budget per input byte, about 10 % above the 7.48 bytes it took
when the budget was set.  A change that lowers the peak lowers the budget.
One check, on the length of a single cell, is timed instead (see there).
"""

import gc
import random
import sys
import time
import tracemalloc

import pytest

from ropa_dpv import Jurisdiction, parse_canonical, validate_against_profile, write_canonical
from ropa_dpv.template_io import CANONICAL_HEADER
from conftest import random_record

N = 100
MAX_RATIO = 4.4
#: Traced peak of ``parse_canonical`` per byte of input, at 4N records.
PARSE_PEAK_PER_BYTE = 8.2
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


@pytest.mark.parametrize("stage", [_parse, _validate])
def test_calls_grow_linearly_with_the_register(registry, registers, stage):
    small, large = (_calls(stage(registry, source)) for source in registers)
    assert large <= MAX_RATIO * small, (small, large)


def test_parse_peak_stays_within_its_budget_per_input_byte(registry, registers):
    for source in registers:
        tracemalloc.start()
        try:
            records, warnings = parse_canonical(source, registry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(warnings) == len(records) // 4
        assert peak <= PARSE_PEAK_PER_BYTE * len(source), (peak, len(source))


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
