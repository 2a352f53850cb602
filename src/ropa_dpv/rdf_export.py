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

A graph holds its triples grouped by subject: each subject maps to a
frozenset of (predicate, object) pairs.  Every usage node of a concept has
the same rows, so ``records_to_graph`` gives them one shared pair set, and the
serializers render each distinct pair set once and add each subject's
prefix to it.

Both serializers are byte-deterministic for equal graphs:

* Turtle lines are sorted by the N-Triples form of (subject, predicate,
  object); blank labels are numbered in emission order (``_:c0``, ``_:c1``,
  ...), so ``_:c10`` sorts before ``_:c2``.
* JSON-LD nodes are sorted by ``@id`` and each entry list by the entry's
  JSON text, which is not N-Triples order (``"a\\b"`` sorts before
  ``"a\\u0001"`` as JSON and after it as N-Triples).

JSON-LD compacts keys, ``@type`` values and datatypes, never ``@id``s, and
only through the context terms that JSON-LD 1.1 makes prefixes: those whose
IRI ends in one of ``:/?#[]@`` (Create Term Definition, step 14.2.3).  An IRI
written in full whose scheme is such a prefix, with no ``//`` after the
colon, would expand as a compact IRI, and raises ``IriConfusedWithPrefix``.

Each invariant of a graph is checked once, where it enters: ``Node`` checks
its items, ``Triple`` its subject and predicate kinds, and ``TripleGraph`` its
namespace table.  ``records_to_graph`` builds each distinct IRI and literal,
and so checks it, once per graph, and each distinct (predicate, object) pair
once; it builds the usage blank nodes without ``Node``'s checks, as a label of
``c`` and digits cannot fail them.  The serializers render each distinct node
once per serialization.  The JSON-LD text is written directly, not by
``json.dumps``; ``tests/rdf_reference.py`` keeps the ``json.dumps(indent=2)``
serializer (and the Turtle one that renders every term where it is used),
and the tests require the same bytes from both.
"""

from __future__ import annotations

import functools
import itertools
import re
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence
from urllib.parse import quote

from .errors import IriConfusedWithPrefix
from .records import (
    FieldValue, RopaRecord, ValueKind, _indented, _json, has_surrogate, is_absolute_iri,
    is_xsd_datetime,
)
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
#: Turtle's LANGTAG, without its "@".
_LANGTAG_RE = re.compile(r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*\Z")


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
        if kind is NodeKind.LITERAL and has_surrogate(value):
            raise ValueError(f"literal holds a lone surrogate: {value!r}")
        if datatype is not None and not is_absolute_iri(datatype):
            raise ValueError(f"datatype is not an absolute IRI: {datatype!r}")
        if language is not None and not _LANGTAG_RE.fullmatch(language):
            raise ValueError(f"invalid language tag: {language!r}")
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
    """A duplicate-free set of triples plus a fixed namespace table.

    The triples are held grouped by subject, ``{subject: frozenset of
    (predicate, object) pairs}`` with no empty set, so equal triple sets give
    equal groupings, and ``==`` and ``hash`` compare those.  Subjects may
    share one pair set.  ``triples`` is the frozenset of :class:`Triple`
    built, and so checked, from the groups when it is first read, and kept.

    Each invariant is checked once, where it enters: ``Node`` checks its
    items, ``Triple`` its subject and predicate kinds (the constructor passes
    plain 3-tuples through ``Triple._make``), and ``_grouped``, which makes
    every graph, the namespace table.  Pickle and copy pass groups of checked
    nodes to ``_grouped`` directly; ``records_to_graph`` passes it an empty
    dict, so the table is checked before any node is built, and fills it in.
    """

    __slots__ = ("_groups", "namespaces", "_triples")

    def __new__(
        cls, triples: Iterable[Triple], namespaces: tuple[tuple[str, str], ...]
    ) -> "TripleGraph":
        groups: dict[Node, set[tuple[Node, Node]]] = {}
        for subject, predicate, obj in map(Triple._make, triples):
            groups.setdefault(subject, set()).add((predicate, obj))
        return cls._grouped({s: frozenset(pairs) for s, pairs in groups.items()}, namespaces)

    @classmethod
    def _grouped(
        cls, groups: dict[Node, frozenset[tuple[Node, Node]]], namespaces
    ) -> "TripleGraph":
        """A graph holding ``groups`` of checked nodes.  The namespace table's
        prefixes must be distinct and match ``_LOCAL_NAME_RE``, and its
        namespaces must be absolute IRIs."""
        prefixes = [prefix for prefix, _ in namespaces]
        for prefix, ns in namespaces:
            if not _LOCAL_NAME_RE.fullmatch(prefix) or prefixes.count(prefix) > 1:
                raise ValueError(f"invalid or repeated prefix: {prefix!r}")
            if not is_absolute_iri(ns):
                raise ValueError(f"not an absolute IRI: {ns!r}")
        graph = object.__new__(cls)
        object.__setattr__(graph, "_groups", groups)
        object.__setattr__(graph, "namespaces", namespaces)
        object.__setattr__(graph, "_triples", None)
        return graph

    @property
    def triples(self) -> frozenset[Triple]:
        if self._triples is None:
            triples = frozenset(
                Triple(s, p, o) for s, pairs in self._groups.items() for p, o in pairs
            )
            object.__setattr__(self, "_triples", triples)
        return self._triples

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Pickle and copy rebuild through ``_grouped``, as the default restore
        # would assign the read-only fields; the groups keep their shared
        # pair sets.
        return TripleGraph._grouped, (self._groups, self.namespaces)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._groups, self.namespaces) == (other._groups, other.namespaces)

    def __hash__(self) -> int:
        return hash((frozenset(self._groups.items()), self.namespaces))

    def __repr__(self) -> str:
        return f"TripleGraph(triples={self.triples!r}, namespaces={self.namespaces!r})"

    def __len__(self) -> int:
        return sum(map(len, self._groups.values()))

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


def to_graph(
    record: RopaRecord,
    registry: ConceptRegistry,
    *,
    base: str = DEFAULT_BASE,
    ropaex: str = DEFAULT_ROPAEX_NS,
) -> TripleGraph:
    """Serialize one record to a triple graph."""
    return records_to_graph([record], registry, base=base, ropaex=ropaex)


def _usage_nodes() -> Iterator[Node]:
    """The blank nodes ``_:c0``, ``_:c1``, ...  A label of ``c`` and digits
    passes every check of ``Node.__new__``, so they are built without them."""
    blank = NodeKind.BLANK
    for label in itertools.count():
        yield tuple.__new__(Node, (blank, f"c{label}", None, None))


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

    The triples are grouped by subject as they are made.  Each distinct IRI
    and literal is built, and so checked by ``Node.__new__``, once per graph,
    and each distinct ``created`` time is checked to be an ``xsd:dateTime``
    once; a usage node's label is valid by its form (see ``_usage_nodes``).
    Each concept's predicate and usage rows, and its (predicate, object) pair
    for each distinct value, are made once, and equal nodes and pairs are
    shared.  Every usage node of a concept shares the concept's one usage pair
    set; a record's own rows go into one frozenset per record IRI, so repeated
    rows are kept once and records with the same id are merged.
    """
    base = base.rstrip("/")
    groups: dict[Node, frozenset[tuple[Node, Node]]] = {}
    # The namespace table is checked here, before any ropaex IRI is built;
    # the groups are filled in below.
    graph = TripleGraph._grouped(groups, namespace_table(ropaex))
    # Caches over local closures, not bound methods, leave no reference
    # cycle: everything built here but the graph is freed on return.
    iri = functools.cache(Node.iri)
    literal = functools.cache(Node.literal)
    type_pair = (iri(RDF_NS + "type"), iri(DPV_NS + "PersonalDataHandling"))
    controller_name = iri(ropaex + "controllerName")
    created = iri(ropaex + "created")
    concept_usage = iri(ropaex + "conceptUsage")

    @functools.cache
    def created_pair(text: str) -> tuple[Node, Node]:
        pair = (created, literal(text, XSD_NS + "dateTime"))  # a lone surrogate raises here
        if not is_xsd_datetime(text):
            raise ValueError(f"not an xsd:dateTime: {text!r}")
        return pair

    def value(v: FieldValue, vocabulary: str | None) -> Node:
        kind = v.kind
        if kind in (ValueKind.TERM, ValueKind.TERM_LIST):
            local = quote(v.lexical, safe="")
            return iri(f"{base}/term/{vocabulary or 'term'}/{local}")
        if kind is ValueKind.URI:
            return iri(v.value)
        return literal(v.lexical, _DATATYPES.get(kind))

    @functools.cache
    def concept(cid: str) -> tuple:
        """``(table index, concept id, value pair, verb pair, usage pairs)``.

        ``value pair`` maps a value to its cached (predicate, object) pair.  A
        processing-verb concept has None there and its ``usesProcessing``
        pair as ``verb pair``, which is None for any other.  The usage pairs
        are the frozenset of pairs of each of the concept's usage nodes.
        """
        descriptor = registry.concept(cid)
        terms = descriptor.dpv_terms
        value_pair = verb_pair = None
        if descriptor.outcome is MappingOutcome.NONE or not terms:
            predicate = iri(ropaex + _camel(cid))
        elif terms[0] in PROCESSING_VERB_TERMS:
            verb_pair = (iri(ropaex + "usesProcessing"), iri(_expand(terms[0], ropaex)))
        else:
            local = terms[0].split(":", 1)[1]
            predicate = iri(DPV_NS + "has" + local[:1].upper() + local[1:])
        if verb_pair is None:
            vocabulary = descriptor.value_schema.vocabulary
            value_pair = functools.cache(lambda v: (predicate, value(v, vocabulary)))
        usage = [
            (iri(ropaex + "concept"), literal(cid, None)),
            (iri(ropaex + "mappingOutcome"), literal(descriptor.outcome.value, None)),
        ]
        usage += [(iri(ropaex + "alsoMapsTo"), iri(_expand(t, ropaex))) for t in terms[1:]]
        return registry.table_index(cid), cid, value_pair, verb_pair, frozenset(usage)

    usage_nodes = _usage_nodes()
    # Each record IRI's rows, repeats included: the frozenset made of them
    # keeps each row once.
    roots: dict[Node, list[tuple[Node, Node]]] = {}
    for record in records:
        root = iri(f"{base}/record/{record.record_id}")
        pairs = roots.setdefault(root, [])
        pairs += (
            type_pair,
            (controller_name, literal(record.controller_name, None)),
            created_pair(record.created),
        )
        fields = record.fields
        # Distinct concepts have distinct table indexes, so the sort compares
        # only those.
        for _, cid, value_pair, verb_pair, usage_pairs in sorted(map(concept, fields)):
            if value_pair is not None:
                pairs += map(value_pair, fields[cid])
            elif any(v.value is True for v in fields[cid]):
                pairs.append(verb_pair)
            usage = next(usage_nodes)
            pairs.append((concept_usage, usage))
            groups[usage] = usage_pairs
    groups.update((root, frozenset(pairs)) for root, pairs in roots.items())
    return graph


# -- serialization ---------------------------------------------------------------


#: String escapes: ECHAR for backslash, quote, LF, CR and tab; UCHAR for other C0 controls.
_ESCAPES = {c: f"\\u{c:04X}" for c in range(0x20)} | str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
)


def _compact(iri: str, namespaces: Iterable[tuple[str, str]]) -> str | None:
    for prefix, ns in namespaces:
        if iri.startswith(ns):
            local = iri[len(ns):]
            if _LOCAL_NAME_RE.fullmatch(local):
                return f"{prefix}:{local}"
    return None


def serialize_turtle(graph: TripleGraph) -> str:
    """Valid Turtle: fixed prefix block, then one sorted triple per line."""
    ns = graph.namespaces
    # id(node) -> (N-Triples form, Turtle form), and id(pair set) -> its
    # sorted `` p o .`` rows.  The graph keeps every node and pair set alive,
    # so ids are not reused; equal ones that are distinct objects are
    # rendered once each, to the same text.
    forms: dict[int, tuple[str, str]] = {}
    blocks: dict[int, list[str]] = {}

    def form(node: Node) -> tuple[str, str]:
        value = node.value
        if node.kind is NodeKind.BLANK:
            nt = turtle = f"_:{value}"
        elif node.kind is NodeKind.IRI:
            nt = f"<{value}>"
            turtle = _compact(value, ns) or nt
        else:
            nt = turtle = f'"{value.translate(_ESCAPES)}"'
            if node.datatype:
                nt += f"^^<{node.datatype}>"
                turtle += "^^" + (_compact(node.datatype, ns) or f"<{node.datatype}>")
            elif node.language:
                nt = turtle = f"{nt}@{node.language}"
        pair = forms[id(node)] = (nt, turtle)
        return pair

    subjects = []
    for subject, pairs in graph._groups.items():
        block = blocks.get(id(pairs))
        if block is None:
            rows = []
            for predicate, obj in pairs:
                p = forms.get(id(predicate)) or form(predicate)
                o = forms.get(id(obj)) or form(obj)
                rows.append((p[0], o[0], f" {p[1]} {o[1]} ."))
            # Equal N-Triples forms mean equal nodes, so the row text after
            # them never decides the order.
            rows.sort()
            block = blocks[id(pairs)] = [row for _, _, row in rows]
        subjects.append((*(forms.get(id(subject)) or form(subject)), block))
    # Subjects are distinct, and so are their N-Triples forms: the sort never
    # compares the rest of an item, and each subject's lines stay together.
    subjects.sort(key=itemgetter(0))
    lines = [f"@prefix {prefix}: <{iri}> ." for prefix, iri in ns]
    if subjects:
        lines.append("")
    lines += [s + ("\n" + s).join(block) for _, s, block in subjects]
    return "\n".join(lines) + "\n"


def _jsonld_entry(node: Node, iri_text) -> tuple[str, str]:
    """An IRI's or literal's sort text, ``json.dumps(obj, sort_keys=True,
    ensure_ascii=False)``, and its text as an item of an entry list."""
    if node.kind is NodeKind.IRI:
        members = ['"@id": ' + _json(iri_text(node.value, False))]
    else:
        members = ['"@value": ' + _json(node.value)]
        if node.datatype:
            members.append('"@type": ' + _json(iri_text(node.datatype)))
        elif node.language:
            members.append('"@language": ' + _json(node.language))
    # No two keys share the letter after "@", so the members sort as their keys do.
    sort_text = "{" + ", ".join(sorted(members)) + "}"
    return sort_text, _indented("{", members, "}", " " * 8)


def serialize_jsonld(graph: TripleGraph) -> str:
    """JSON-LD with a fixed ``@context``; nodes and keys fully sorted.

    The text is what ``json.dumps(document, indent=2, ensure_ascii=False)``
    gives, written directly: each distinct pair set's members are rendered
    once, each distinct object's entry once, and each subject puts its
    ``"@id"`` member, which sorts first, in front of them.
    """
    namespaces = graph.namespaces
    prefixes = {prefix: ns for prefix, ns in namespaces if ns[-1] in ":/?#[]@"}
    rdf_type = RDF_NS + "type"
    entries: dict[int, tuple[str, str]] = {}  # id(object) -> (sort text, entry text)
    blocks: dict[int, str] = {}  # id(pair set) -> its members, each after a separator

    @functools.cache
    def iri_text(iri: str, compact: bool = True) -> str:
        """``iri`` as a compact IRI if ``compact`` and a prefix fits, else as
        it is, by the prefix rule of the module docstring."""
        if compact and (name := _compact(iri, prefixes.items())):
            return name
        scheme, _, rest = iri.partition(":")
        if scheme in prefixes and not rest.startswith("//"):
            raise IriConfusedWithPrefix(iri, scheme)
        return iri

    def block(pairs: frozenset[tuple[Node, Node]]) -> str:
        by_key: dict[str, list[tuple[str, str]]] = {}
        for predicate, obj in pairs:
            if predicate.value == rdf_type and obj.kind is NodeKind.IRI:
                key = "@type"
                text = _json(iri_text(obj.value))
                entry = (text, text)
            else:
                key = iri_text(predicate.value)
                if obj.kind is NodeKind.BLANK:
                    entry = (
                        f'{{"@id": "_:{obj.value}"}}',
                        f'{{\n          "@id": "_:{obj.value}"\n        }}',
                    )
                else:
                    entry = entries.get(id(obj))
                    if entry is None:
                        entry = entries[id(obj)] = _jsonld_entry(obj, iri_text)
            by_key.setdefault(key, []).append(entry)
        # Every key sorts after "@id": it is "@type", or a prefixed name or an
        # absolute IRI, both of which start with a letter.
        return "".join(
            f",\n      {_json(key)}: " + _indented("[", [t for _, t in sorted(group)], "]", " " * 6)
            for key, group in sorted(by_key.items())
        )

    graph_nodes = []
    for subject, pairs in graph._groups.items():
        members = blocks.get(id(pairs))
        if members is None:
            members = blocks[id(pairs)] = block(pairs)
        value = subject.value
        sid = f"_:{value}" if subject.kind is NodeKind.BLANK else iri_text(value, False)
        graph_nodes.append((sid, '{\n      "@id": ' + _json(sid) + members + "\n    }"))
    graph_nodes.sort(key=itemgetter(0))
    context = [f"{_json(prefix)}: {_json(iri)}" for prefix, iri in namespaces]
    head = '{\n  "@context": ' + _indented("{", context, "}", "  ") + ',\n  "@graph": ['
    if not graph_nodes:
        return head + "]\n}\n"
    # The document is joined once: the head and the tail go onto the first and
    # the last node's text.
    texts = [text for _, text in graph_nodes]
    texts[0] = head + "\n    " + texts[0]
    texts[-1] += "\n  ]\n}\n"
    return ",\n    ".join(texts)
