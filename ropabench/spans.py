"""Spans around the calls into each ``ropa_dpv`` layer, for the traced run.

:func:`instrument` replaces each layer function listed in :data:`LAYERS` by a
wrapper that records a span, at every name under which a ``ropa_dpv`` module
refers to it (``cli.parse_canonical``, ``validation.validate_against_profile``
as ``gap_matrix`` calls it, and so on), and puts the originals back on exit.
The program itself is not changed.

A span is ``(id, name, start, end, parent, ok)``: ids count from 0 in the
order spans begin, ``parent`` is the enclosing span's id, or -1.  Spans stay
in memory as tuples, in the order they end, so that the garbage collector
soon stops scanning them; :func:`span_stats` reduces them to calls,
failures, total time and self time per name.
"""

from __future__ import annotations

import csv
import importlib
import io
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

#: Span name of the bookkeeping that counts rows, bytes and findings.  It has
#: a span of its own so that no layer is charged for it.
COUNT_SPAN = "trace.count"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._open: list[tuple] = []
        self._next_id = 0

    def begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self._open.append((self._next_id, name, parent, perf_counter()))
        self._next_id += 1

    def end(self, ok: bool) -> None:
        end = perf_counter()
        span_id, name, parent, start = self._open.pop()
        self.spans.append((span_id, name, start, end, parent, ok))


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``failed``, total seconds ``s`` and
    ``self_s``, the part of ``s`` that no child span covers.

    Over a whole tree the self times add up to the root's duration.
    """
    covered = [0.0] * len(spans)  # by id; every span has ended
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, _, ok in spans:
        entry = stats.setdefault(name, {"calls": 0, "failed": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["failed"] += not ok
        entry["s"] += end - start
        entry["self_s"] += end - start - covered[span_id]
    return stats


def wrap(tracer: Tracer, name: str, fn, counter=None):
    """``fn`` recording a span ``name``; ``counter(args, result)`` returns
    counts to add, keyed by metric name."""

    def wrapper(*args, **kwargs):
        tracer.begin(name)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            tracer.end(ok)
        if counter is not None:
            tracer.begin(COUNT_SPAN)
            tracer.counts.update(counter(args, result))
            tracer.end(True)
        return result

    return wrapper


def _csv_rows(source) -> int:
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    return sum(1 for _ in csv.reader(io.StringIO(text))) - 1


def _findings(args, report):
    return {"validation.findings": len(report.findings)}


def _utf8_bytes(metric):
    return lambda args, text: {metric: len(text.encode("utf-8"))}


#: Layer functions the traced run wraps, as ``module.function``, with the
#: counter each one feeds.
LAYERS = {
    "registry.load_registry": None,
    "registry.read_verified": None,
    "template_io.parse_canonical": lambda args, result: {
        "template_io.parse_canonical.rows": _csv_rows(args[0]),
        "template_io.parse_canonical.records": len(result[0]),
        "template_io.parse_canonical.warnings": len(result[1]),
    },
    "template_io.import_template": lambda args, result: {
        "template_io.import_template.rows": _csv_rows(args[0]),
        "template_io.import_template.warnings": len(result[1]),
    },
    "template_io.write_canonical": _utf8_bytes("template_io.write_canonical.bytes"),
    "template_io.convert": lambda args, result: {"template_io.convert.lost": len(result[1].lost)},
    "template_io.default_config": None,
    "validation.validate_article30": _findings,
    "validation.validate_against_profile": _findings,
    "validation.gap_matrix": None,
    "queries.run_query": lambda args, result: {"queries.run_query.hits": len(result.hits)},
    "rdf_export.records_to_graph": lambda args, graph: {
        "rdf_export.records_to_graph.triples": len(graph)
    },
    "rdf_export.serialize_turtle": _utf8_bytes("rdf_export.serialize_turtle.bytes"),
    "rdf_export.serialize_jsonld": _utf8_bytes("rdf_export.serialize_jsonld.bytes"),
}
#: ``FieldValue.from_lexical`` is a classmethod, wrapped on the class.
FROM_LEXICAL = "records.from_lexical"


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every function in :data:`LAYERS`, and ``FieldValue.from_lexical``."""
    from ropa_dpv.records import FieldValue

    modules = [m for n, m in sys.modules.items() if n == "ropa_dpv" or n.startswith("ropa_dpv.")]
    patched = []
    try:
        for name, counter in LAYERS.items():
            module_name, function = name.split(".")
            original = getattr(importlib.import_module(f"ropa_dpv.{module_name}"), function)
            wrapper = wrap(tracer, name, original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        original = vars(FieldValue)["from_lexical"]
        patched.append((FieldValue, "from_lexical", original))
        FieldValue.from_lexical = classmethod(wrap(tracer, FROM_LEXICAL, original.__func__))
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
