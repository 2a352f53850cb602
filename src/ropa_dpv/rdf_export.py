"""RDF export of ROPA records.

Records serialize to a triple graph that uses DPV terms wherever the
registry provides a mapping and the ``ropaex:`` extension namespace where it
does not.  Every concept used in a record additionally carries a reified
usage node annotated with its mapping-outcome class, so consumers can tell
exact correspondences from partial, complex, or unmapped ones.

Predicate derivation is mechanical and documented: a concept whose first
DPV term is ``dpv:x`` or ``dpv:X`` gets the data predicate ``dpv:hasX``
(``dpv:location`` gives ``dpv:hasLocation``); the processing verbs
(``dpv:Combine``, ``dpv:Transfer``) are instead emitted as objects of
``ropaex:usesProcessing``, and only when the concept's boolean value is
true.  These conventions stand in for real DPV property IRIs and are meant
to be revisited if those differ.

Both serializers are byte-deterministic for equal graphs:

* Turtle lines are sorted by the N-Triples form of (subject, predicate,
  object); blank labels are numbered in emission order (``_:c0``, ``_:c1``,
  ...), so ``_:c10`` sorts before ``_:c2``.
* JSON-LD nodes are sorted by ``@id`` and each entry list by the entry's
  JSON text, which is not N-Triples order (``"a\\b"`` sorts before
  ``"a\\u0001"`` as JSON and after it as N-Triples).
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence
from urllib.parse import quote

from .records import RopaRecord, ValueKind, is_absolute_iri
from .registry import ConceptRegistry, MappingOutcome

DPV_NS = "https://w3id.org/dpv#"
RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
DEFAULT_ROPAEX_NS = "https://example.org/ropaex#"
DEFAULT_BASE = "https://example.org/ropa"

#: DPV terms that denote processing operations rather than classes; they are
#: emitted directly as objects of ``ropaex:usesProcessing``.
PROCESSING_VERB_TERMS = frozenset({"dpv:Combine", "dpv:Transfer"})

_BLANK_LABEL_RE = re.compile(r"[A-Za-z0-9]+\Z")
_LOCAL_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*\Z")


class NodeKind(str, Enum):
    IRI = "IRI"
    BLANK = "BLANK"
    LITERAL = "LITERAL"


@dataclass(frozen=True)
class Node:
    kind: NodeKind
    value: str
    datatype: str | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if self.kind is not NodeKind.LITERAL and (self.datatype or self.language):
            raise ValueError("only literals carry a datatype or language")
        if self.datatype and self.language:
            raise ValueError("a literal has at most one of datatype/language")
        if self.kind is NodeKind.IRI and not is_absolute_iri(self.value):
            raise ValueError(f"not an absolute IRI: {self.value!r}")
        if self.kind is NodeKind.BLANK and not _BLANK_LABEL_RE.fullmatch(self.value):
            raise ValueError(f"invalid blank node label: {self.value!r}")

    @classmethod
    def iri(cls, value: str) -> "Node":
        return cls(NodeKind.IRI, value)

    @classmethod
    def blank(cls, label: str) -> "Node":
        return cls(NodeKind.BLANK, label)

    @classmethod
    def literal(
        cls, value: str, datatype: str | None = None, language: str | None = None
    ) -> "Node":
        return cls(NodeKind.LITERAL, value, datatype, language)


@dataclass(frozen=True)
class Triple:
    subject: Node
    predicate: Node
    object: Node

    def __post_init__(self) -> None:
        if self.subject.kind is NodeKind.LITERAL:
            raise ValueError("triple subjects cannot be literals")
        if self.predicate.kind is not NodeKind.IRI:
            raise ValueError("triple predicates must be IRIs")


@dataclass(frozen=True)
class TripleGraph:
    """A duplicate-free set of triples plus a fixed namespace table."""

    triples: frozenset[Triple]
    namespaces: tuple[tuple[str, str], ...]

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self):
        return iter(self.triples)


def namespace_table(ropaex: str = DEFAULT_ROPAEX_NS) -> tuple[tuple[str, str], ...]:
    return (("dpv", DPV_NS), ("ropaex", ropaex), ("rdf", RDF_NS), ("xsd", XSD_NS))


def empty_graph(ropaex: str = DEFAULT_ROPAEX_NS) -> TripleGraph:
    return TripleGraph(frozenset(), namespace_table(ropaex))


def _camel(concept_id: str) -> str:
    head, *rest = concept_id.split("-")
    return head + "".join(part.capitalize() for part in rest)


def _expand(term: str, ropaex: str) -> str:
    prefix, local = term.split(":", 1)
    return (DPV_NS if prefix == "dpv" else ropaex) + local


_DATATYPES = {
    ValueKind.BOOLEAN: XSD_NS + "boolean",
    ValueKind.DURATION: XSD_NS + "duration",
    ValueKind.DATE: XSD_NS + "date",
}


def _value_node(value, schema, base: str) -> Node:
    kind = value.kind
    if kind in (ValueKind.TERM, ValueKind.TERM_LIST):
        vocab = schema.vocabulary or "term"
        return Node.iri(f"{base}/term/{vocab}/{quote(value.lexical, safe='')}")
    if kind is ValueKind.URI:
        return Node.iri(value.value)
    return Node.literal(value.lexical, datatype=_DATATYPES.get(kind))


def _record_triples(
    record: RopaRecord,
    registry: ConceptRegistry,
    base: str,
    ropaex: str,
    labels: Iterable[int],
) -> list[Triple]:
    root = Node.iri(f"{base}/record/{record.record_id}")
    rows = [
        (root, RDF_NS + "type", Node.iri(DPV_NS + "PersonalDataHandling")),
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


def to_graph(
    record: RopaRecord,
    registry: ConceptRegistry,
    *,
    base: str = DEFAULT_BASE,
    ropaex: str = DEFAULT_ROPAEX_NS,
) -> TripleGraph:
    """Serialize one record to a triple graph."""
    return records_to_graph([record], registry, base=base, ropaex=ropaex)


def records_to_graph(
    records: Sequence[RopaRecord],
    registry: ConceptRegistry,
    *,
    base: str = DEFAULT_BASE,
    ropaex: str = DEFAULT_ROPAEX_NS,
) -> TripleGraph:
    """Serialize several records into one graph.

    Blank node labels (``_:c0``, ``_:c1``, ...) are assigned in emission
    order across the whole document, keeping output reproducible.
    """
    base = base.rstrip("/")
    labels = itertools.count()
    triples: list[Triple] = []
    for record in records:
        triples.extend(_record_triples(record, registry, base, ropaex, labels))
    return TripleGraph(frozenset(triples), namespace_table(ropaex))


# -- serialization ---------------------------------------------------------------


#: String escapes: ECHAR for backslash, quote, LF, CR and tab; UCHAR for other C0 controls.
_ESCAPES = {c: f"\\u{c:04X}" for c in range(0x20)} | str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def _compact(iri: str, namespaces: Sequence[tuple[str, str]]) -> str | None:
    for prefix, ns in namespaces:
        if iri.startswith(ns):
            local = iri[len(ns):]
            if _LOCAL_NAME_RE.fullmatch(local):
                return f"{prefix}:{local}"
    return None


def _term(node: Node, namespaces: Sequence[tuple[str, str]] = ()) -> str:
    """The N-Triples form of ``node``, or with ``namespaces`` its Turtle form,
    in which IRIs and datatypes are compacted to prefixed names where possible."""
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
    """Valid Turtle: fixed prefix block, then one sorted triple per line."""
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
    """JSON-LD with a fixed ``@context``; nodes and keys fully sorted."""
    namespaces = graph.namespaces
    nodes: dict[str, dict] = {}
    # Every list below is sorted before output, so triple order is irrelevant.
    for t in graph.triples:
        sid = _node_ref(t.subject)
        node = nodes.setdefault(sid, {"@id": sid})
        if t.predicate.value == RDF_NS + "type" and t.object.kind is NodeKind.IRI:
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
    document = {"@context": dict(namespaces), "@graph": graph_nodes}
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"
