"""Reference graph builder and serializers for the identity tests.

These are the straightforward forms of ``ropa_dpv.rdf_export``: a fresh
node is built for every slot of every triple, every term is rendered where
it is used (once for the Turtle sort key, once more for output), each
JSON-LD entry list is sorted on one ``json.dumps`` per entry, and the
document is written by ``json.dumps(indent=2)``.  The package builds and
renders each distinct node once and writes the JSON-LD text directly; it
must give equal graphs and the same bytes as these.
"""

from __future__ import annotations

import itertools
import json
import re
from typing import Sequence
from urllib.parse import quote

from ropa_dpv import MappingOutcome, Node, NodeKind, Triple, TripleGraph, ValueKind
from ropa_dpv.rdf_export import (
    DEFAULT_BASE,
    DEFAULT_ROPAEX_NS,
    DPV_NS,
    PROCESSING_VERB_TERMS,
    RDF_NS,
    XSD_NS,
    namespace_table,
)

RDF_TYPE = RDF_NS + "type"
_DATATYPES = {
    ValueKind.BOOLEAN: XSD_NS + "boolean",
    ValueKind.DURATION: XSD_NS + "duration",
    ValueKind.DATE: XSD_NS + "date",
}

_LOCAL_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")
#: ECHAR for backslash, quote, LF, CR and tab; UCHAR for other C0 controls.
_ESCAPES = {c: f"\\u{c:04X}" for c in range(0x20)} | str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def _camel(concept_id: str) -> str:
    head, *rest = concept_id.split("-")
    return head + "".join(part.capitalize() for part in rest)


def _expand(term: str, ropaex: str) -> str:
    prefix, local = term.split(":", 1)
    return (DPV_NS if prefix == "dpv" else ropaex) + local


def _value_node(value, schema, base: str) -> Node:
    kind = value.kind
    if kind in (ValueKind.TERM, ValueKind.TERM_LIST):
        vocab = schema.vocabulary or "term"
        return Node.iri(f"{base}/term/{vocab}/{quote(value.lexical, safe='')}")
    if kind is ValueKind.URI:
        return Node.iri(value.value)
    return Node.literal(value.lexical, datatype=_DATATYPES.get(kind))


def _record_triples(record, registry, base: str, ropaex: str, labels) -> list[Triple]:
    root = Node.iri(f"{base}/record/{record.record_id}")
    rows = [
        (root, RDF_TYPE, Node.iri(DPV_NS + "PersonalDataHandling")),
        (root, ropaex + "controllerName", Node.literal(record.controller_name)),
        (root, ropaex + "created", Node.literal(record.created, XSD_NS + "dateTime")),
    ]
    for cid in sorted(record.fields, key=registry.table_index):
        descriptor = registry.concept(cid)
        terms = descriptor.dpv_terms
        values = [_value_node(v, descriptor.value_schema, base) for v in record.fields[cid]]
        if descriptor.outcome is MappingOutcome.NONE or not terms:
            predicate, objects = ropaex + _camel(cid), values
        elif terms[0] in PROCESSING_VERB_TERMS:
            used = any(v.value is True for v in record.fields[cid])
            predicate = ropaex + "usesProcessing"
            objects = [Node.iri(_expand(terms[0], ropaex))] if used else []
        else:
            local = terms[0].split(":", 1)[1]
            predicate, objects = DPV_NS + "has" + local[:1].upper() + local[1:], values
        rows += [(root, predicate, o) for o in objects]
        usage = Node.blank(f"c{next(labels)}")
        rows += [
            (root, ropaex + "conceptUsage", usage),
            (usage, ropaex + "concept", Node.literal(cid)),
            (usage, ropaex + "mappingOutcome", Node.literal(descriptor.outcome.value)),
        ]
        rows += [(usage, ropaex + "alsoMapsTo", Node.iri(_expand(t, ropaex))) for t in terms[1:]]
    return [Triple(s, Node.iri(p), o) for s, p, o in rows]


def records_to_graph(
    records, registry, *, base: str = DEFAULT_BASE, ropaex: str = DEFAULT_ROPAEX_NS
) -> TripleGraph:
    base = base.rstrip("/")
    labels = itertools.count()
    triples: list[Triple] = []
    for record in records:
        triples.extend(_record_triples(record, registry, base, ropaex, labels))
    return TripleGraph(frozenset(triples), namespace_table(ropaex))


def _compact(iri: str, namespaces: Sequence[tuple[str, str]]) -> str | None:
    for prefix, ns in namespaces:
        if iri.startswith(ns):
            local = iri[len(ns):]
            if _LOCAL_NAME_RE.fullmatch(local):
                return f"{prefix}:{local}"
    return None


def _term(node: Node, namespaces: Sequence[tuple[str, str]] = ()) -> str:
    if node.kind is NodeKind.IRI:
        return _compact(node.value, namespaces) or f"<{node.value}>"
    if node.kind is NodeKind.BLANK:
        return f"_:{node.value}"
    rendered = f'"{node.value.translate(_ESCAPES)}"'
    if node.datatype:
        return rendered + "^^" + (_compact(node.datatype, namespaces) or f"<{node.datatype}>")
    if node.language:
        return f"{rendered}@{node.language}"
    return rendered


def serialize_turtle(graph: TripleGraph) -> str:
    ns = graph.namespaces
    lines = [f"@prefix {prefix}: <{iri}> ." for prefix, iri in ns]
    triples = sorted(
        graph.triples, key=lambda t: (_term(t.subject), _term(t.predicate), _term(t.object))
    )
    if triples:
        lines.append("")
    lines += [
        f"{_term(t.subject, ns)} {_term(t.predicate, ns)} {_term(t.object, ns)} ."
        for t in triples
    ]
    return "\n".join(lines) + "\n"


def _node_ref(node: Node) -> str:
    return f"_:{node.value}" if node.kind is NodeKind.BLANK else node.value


def _jsonld_object(node: Node, namespaces) -> dict:
    if node.kind is not NodeKind.LITERAL:
        return {"@id": _node_ref(node)}
    obj: dict = {"@value": node.value}
    if node.datatype:
        obj["@type"] = _compact(node.datatype, namespaces) or node.datatype
    elif node.language:
        obj["@language"] = node.language
    return obj


def serialize_jsonld(graph: TripleGraph) -> str:
    # JSON-LD 1.1 makes a term a prefix only if its IRI ends in a gen-delim
    # (Create Term Definition, step 14.2.3), and compacts only through those.
    namespaces = [(p, ns) for p, ns in graph.namespaces if ns.endswith(tuple(":/?#[]@"))]
    nodes: dict[str, dict] = {}
    for t in graph.triples:
        sid = _node_ref(t.subject)
        node = nodes.setdefault(sid, {"@id": sid})
        if t.predicate.value == RDF_TYPE and t.object.kind is NodeKind.IRI:
            key = "@type"
            entry = _compact(t.object.value, namespaces) or t.object.value
        else:
            key = _compact(t.predicate.value, namespaces) or t.predicate.value
            entry = _jsonld_object(t.object, namespaces)
        node.setdefault(key, []).append(entry)
    graph_nodes = []
    for sid in sorted(nodes):
        node = nodes[sid]
        for key, entries in node.items():
            if isinstance(entries, list):
                entries.sort(key=lambda e: json.dumps(e, sort_keys=True, ensure_ascii=False))
        graph_nodes.append({key: node[key] for key in sorted(node)})
    document = {"@context": dict(graph.namespaces), "@graph": graph_nodes}
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"
