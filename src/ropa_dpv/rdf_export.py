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

Each distinct node is built and validated once per graph, and rendered once
per serialization.  The JSON-LD text is written directly, not by
``json.dumps``; ``tests/rdf_reference.py`` keeps the ``json.dumps(indent=2)``
serializer (and the Turtle one that renders every term where it is used),
and the tests require the same bytes from both.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from enum import Enum
from typing import Iterable, NamedTuple, Sequence
from urllib.parse import quote

from .records import FieldValue, RopaRecord, ValueKind, is_absolute_iri
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
_json = json.encoder.encode_basestring  # json.dumps of a str, with ensure_ascii=False


class NodeKind(str, Enum):
    IRI = "IRI"
    BLANK = "BLANK"
    LITERAL = "LITERAL"


class _NodeItems(NamedTuple):
    kind: NodeKind
    value: str
    datatype: str | None = None
    language: str | None = None


class Node(_NodeItems):
    __slots__ = ()

    def __new__(
        cls,
        kind: NodeKind,
        value: str,
        datatype: str | None = None,
        language: str | None = None,
    ) -> "Node":
        if kind is not NodeKind.LITERAL and (datatype or language):
            raise ValueError("only literals carry a datatype or language")
        if datatype and language:
            raise ValueError("a literal has at most one of datatype/language")
        if kind is NodeKind.IRI and not is_absolute_iri(value):
            raise ValueError(f"not an absolute IRI: {value!r}")
        if kind is NodeKind.BLANK and not _BLANK_LABEL_RE.fullmatch(value):
            raise ValueError(f"invalid blank node label: {value!r}")
        return tuple.__new__(cls, (kind, value, datatype, language))

    @classmethod
    def _make(cls, iterable) -> "Node":
        # ``_replace`` builds through ``_make``: check the new items too.
        return cls(*iterable)

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


class _TripleItems(NamedTuple):
    subject: Node
    predicate: Node
    object: Node


class Triple(_TripleItems):
    __slots__ = ()

    def __new__(cls, subject: Node, predicate: Node, object: Node) -> "Triple":
        if subject.kind is NodeKind.LITERAL:
            raise ValueError("triple subjects cannot be literals")
        if predicate.kind is not NodeKind.IRI:
            raise ValueError("triple predicates must be IRIs")
        return tuple.__new__(cls, (subject, predicate, object))

    @classmethod
    def _make(cls, iterable) -> "Triple":
        # ``_replace`` builds through ``_make``: check the new items too.
        return cls(*iterable)


class TripleGraph:
    """A duplicate-free set of triples plus a fixed namespace table."""

    __slots__ = ("triples", "namespaces")

    def __init__(
        self, triples: frozenset[Triple], namespaces: tuple[tuple[str, str], ...]
    ) -> None:
        object.__setattr__(self, "triples", triples)
        object.__setattr__(self, "namespaces", namespaces)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.triples, self.namespaces) == (other.triples, other.namespaces)

    def __hash__(self) -> int:
        return hash((self.triples, self.namespaces))

    def __repr__(self) -> str:
        return f"TripleGraph(triples={self.triples!r}, namespaces={self.namespaces!r})"

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


class _GraphBuilder:
    """The triples of one graph.

    Each distinct node is built, and so checked by ``Node.__new__``,
    once per graph: IRIs, literals, field values and each concept's
    predicate and usage nodes are memoised, and equal nodes are shared.
    """

    def __init__(self, registry: ConceptRegistry, base: str, ropaex: str) -> None:
        self.registry = registry
        self.base = base
        self.ropaex = ropaex
        self.labels = itertools.count()
        self.iri = functools.cache(Node.iri)
        self.literal = functools.cache(Node.literal)
        self._values: dict[tuple, Node] = {}
        self._concepts: dict[str, tuple] = {}

    def value(self, value: FieldValue, vocabulary: str | None) -> Node:
        key = (value.kind, value.value, vocabulary)
        node = self._values.get(key)
        if node is None:
            kind = value.kind
            if kind in (ValueKind.TERM, ValueKind.TERM_LIST):
                local = quote(value.lexical, safe="")
                node = self.iri(f"{self.base}/term/{vocabulary or 'term'}/{local}")
            elif kind is ValueKind.URI:
                node = self.iri(value.value)
            else:
                node = self.literal(value.lexical, _DATATYPES.get(kind))
            self._values[key] = node
        return node

    def concept(self, cid: str) -> tuple:
        """``(vocabulary, predicate, verb, usage rows)`` for a concept.

        ``verb`` is the ``ropaex:usesProcessing`` object of a processing-verb
        concept, else None; the usage rows are the (predicate, object) pairs
        of its usage node.
        """
        plan = self._concepts.get(cid)
        if plan is None:
            descriptor = self.registry.concept(cid)
            terms, ropaex, iri = descriptor.dpv_terms, self.ropaex, self.iri
            verb = None
            if descriptor.outcome is MappingOutcome.NONE or not terms:
                predicate = ropaex + _camel(cid)
            elif terms[0] in PROCESSING_VERB_TERMS:
                predicate = ropaex + "usesProcessing"
                verb = iri(_expand(terms[0], ropaex))
            else:
                local = terms[0].split(":", 1)[1]
                predicate = DPV_NS + "has" + local[:1].upper() + local[1:]
            usage = [
                (iri(ropaex + "concept"), self.literal(cid, None)),
                (iri(ropaex + "mappingOutcome"), self.literal(descriptor.outcome.value, None)),
            ]
            usage += [(iri(ropaex + "alsoMapsTo"), iri(_expand(t, ropaex))) for t in terms[1:]]
            plan = (descriptor.value_schema.vocabulary, iri(predicate), verb, usage)
            self._concepts[cid] = plan
        return plan

    def record_triples(self, record: RopaRecord) -> list[Triple]:
        iri, ropaex = self.iri, self.ropaex
        root = iri(f"{self.base}/record/{record.record_id}")
        rows = [
            (root, iri(RDF_NS + "type"), iri(DPV_NS + "PersonalDataHandling")),
            (root, iri(ropaex + "controllerName"), self.literal(record.controller_name, None)),
            (root, iri(ropaex + "created"), self.literal(record.created, XSD_NS + "dateTime")),
        ]
        concept_usage = iri(ropaex + "conceptUsage")
        for cid in sorted(record.fields, key=self.registry.table_index):
            vocabulary, predicate, verb, usage_rows = self.concept(cid)
            values = record.fields[cid]
            if verb is None:
                rows += [(root, predicate, self.value(v, vocabulary)) for v in values]
            elif any(v.value is True for v in values):
                rows.append((root, predicate, verb))
            usage = Node.blank(f"c{next(self.labels)}")
            rows.append((root, concept_usage, usage))
            rows += [(usage, p, o) for p, o in usage_rows]
        return [Triple(s, p, o) for s, p, o in rows]


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
    builder = _GraphBuilder(registry, base.rstrip("/"), ropaex)
    triples: list[Triple] = []
    for record in records:
        triples.extend(builder.record_triples(record))
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
    # id(node) -> (N-Triples form, Turtle form).  The graph keeps every node
    # alive, so ids are not reused; equal nodes that are distinct objects are
    # rendered once each, to the same text.
    forms: dict[int, tuple[str, str]] = {}

    def form(node: Node) -> tuple[str, str]:
        pair = forms.get(id(node))
        if pair is None:
            pair = forms[id(node)] = (_term(node), _term(node, ns))
        return pair

    # Equal N-Triples forms mean equal nodes, so the Turtle form after each
    # never decides the order.
    rows = sorted((*form(t.subject), *form(t.predicate), *form(t.object)) for t in graph.triples)
    lines = [f"@prefix {prefix}: <{iri}> ." for prefix, iri in ns]
    if rows:
        lines.append("")
    lines += [f"{s} {p} {o} ." for _, s, _, p, _, o in rows]
    return "\n".join(lines) + "\n"


def _node_ref(node: Node) -> str:
    return f"_:{node.value}" if node.kind is NodeKind.BLANK else node.value


def _jsonld_object(node: Node, namespaces) -> dict[str, str]:
    if node.kind is not NodeKind.LITERAL:
        return {"@id": _node_ref(node)}
    obj = {"@value": node.value}
    if node.datatype:
        obj["@type"] = _compact(node.datatype, namespaces) or node.datatype
    elif node.language:
        obj["@language"] = node.language
    return obj


def _indented(open_: str, items: Sequence[str], close: str, pad: str) -> str:
    """The ``json.dumps(indent=2)`` layout of an array or object at
    indentation ``pad``, from its rendered items."""
    if not items:
        return open_ + close
    inner = "\n" + pad + "  "
    return open_ + inner + ("," + inner).join(items) + "\n" + pad + close


def _members(items: Iterable[tuple[str, str]]) -> list[str]:
    return [f"{_json(k)}: {_json(v)}" for k, v in items]


def _jsonld_entry(node: Node, namespaces) -> tuple[str, str]:
    """An object's sort text, ``json.dumps(obj, sort_keys=True,
    ensure_ascii=False)``, and its text as an item of an entry list."""
    obj = _jsonld_object(node, namespaces)
    sort_text = "{" + ", ".join(_members(sorted(obj.items()))) + "}"
    return sort_text, _indented("{", _members(obj.items()), "}", " " * 8)


def serialize_jsonld(graph: TripleGraph) -> str:
    """JSON-LD with a fixed ``@context``; nodes and keys fully sorted.

    The text is what ``json.dumps(document, indent=2, ensure_ascii=False)``
    gives, written directly from entries rendered once per distinct object.
    """
    namespaces = graph.namespaces
    rdf_type = RDF_NS + "type"
    nodes: dict[str, dict] = {}  # @id -> {key: @id or [(sort text, entry text)]}
    by_subject: dict[int, dict] = {}  # id(subject) -> its JSON node
    keys: dict[str, str] = {}  # predicate IRI -> JSON key
    entries: dict[int, tuple[str, str]] = {}  # id(object) -> (sort text, entry text)
    # Every list below is sorted before output, so triple order is irrelevant.
    for t in graph.triples:
        subject, obj = t.subject, t.object
        node = by_subject.get(id(subject))
        if node is None:
            sid = _node_ref(subject)
            node = by_subject[id(subject)] = nodes.setdefault(sid, {"@id": sid})
        predicate = t.predicate.value
        if predicate == rdf_type and obj.kind is NodeKind.IRI:
            key = "@type"
            text = _json(_compact(obj.value, namespaces) or obj.value)
            entry = (text, text)
        else:
            key = keys.get(predicate)
            if key is None:
                key = keys[predicate] = _compact(predicate, namespaces) or predicate
            entry = entries.get(id(obj))
            if entry is None:
                entry = entries[id(obj)] = _jsonld_entry(obj, namespaces)
        node.setdefault(key, []).append(entry)
    graph_nodes = []
    for sid in sorted(nodes):
        node = nodes[sid]
        members = []
        for key in sorted(node):
            value = node[key]
            if isinstance(value, str):
                rendered = _json(value)
            else:
                rendered = _indented("[", [text for _, text in sorted(value)], "]", " " * 6)
            members.append(f"{_json(key)}: {rendered}")
        graph_nodes.append(_indented("{", members, "}", " " * 4))
    document = [
        '"@context": ' + _indented("{", _members(dict(namespaces).items()), "}", "  "),
        '"@graph": ' + _indented("[", graph_nodes, "]", "  "),
    ]
    return _indented("{", document, "}", "") + "\n"
