"""Independent Turtle and JSON-LD readers used as test oracles.

These are deliberately written against the W3C grammars (a practical
subset: prefix directives, prefixed names, IRIs, blank node labels,
literals with datatype/language, predicate and object lists), not against
this package's serializers, so they provide a second route for the
round-trip checks.

Triples are returned in a canonical form:

    subject:   ("iri", value) | ("blank", label)
    predicate: ("iri", value)
    object:    ("iri", value) | ("blank", label) | ("lit", value, datatype, lang)

Plain literals are normalized to datatype ``xsd:string``.

:func:`invalid_literals` checks the literals of four XSD datatypes against
their lexical spaces.
"""

from __future__ import annotations

import json
import re

XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iriref><[^<>"{}|^`\\\s]*>)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<kw_prefix>@prefix)
  | (?P<langtag>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
  | (?P<dtype>\^\^)
  | (?P<blank>_:[A-Za-z0-9]+)
  | (?P<pname>[A-Za-z][A-Za-z0-9_-]*?:[A-Za-z0-9_][A-Za-z0-9_.-]*)
  | (?P<pfxdecl>[A-Za-z][A-Za-z0-9_-]*:)
  | (?P<kw_a>\ba\b)
  | (?P<punct>[.;,])
    """,
    re.VERBOSE,
)

_ESCAPES = {
    "t": "\t",
    "n": "\n",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


def _unescape_string(body: str) -> str:
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        marker = body[i + 1]
        if marker == "u":
            out.append(chr(int(body[i + 2 : i + 6], 16)))
            i += 6
        elif marker == "U":
            out.append(chr(int(body[i + 2 : i + 10], 16)))
            i += 10
        elif marker in _ESCAPES:
            out.append(_ESCAPES[marker])
            i += 2
        else:
            raise ValueError(f"unknown escape \\{marker}")
    return "".join(out)


def _tokenize(text: str):
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ValueError(f"cannot tokenize turtle at {text[pos:pos+30]!r}")
        pos = match.end()
        kind = match.lastgroup
        if kind in ("ws", "comment"):
            continue
        yield kind, match.group()


def parse_turtle(text: str) -> set:
    """Parse Turtle into a canonical triple set."""
    tokens = list(_tokenize(text))
    prefixes: dict[str, str] = {}
    triples: set = set()
    i = 0

    def term(index):
        kind, tok = tokens[index]
        if kind == "iriref":
            return ("iri", tok[1:-1]), index + 1
        if kind == "blank":
            return ("blank", tok[2:]), index + 1
        if kind == "pname":
            prefix, local = tok.split(":", 1)
            if prefix not in prefixes:
                raise ValueError(f"undeclared prefix {prefix!r}")
            return ("iri", prefixes[prefix] + local), index + 1
        if kind == "kw_a":
            return ("iri", RDF_TYPE), index + 1
        if kind == "string":
            value = _unescape_string(tok[1:-1])
            index += 1
            datatype, lang = None, None
            if index < len(tokens) and tokens[index][0] == "dtype":
                dt_node, index = term(index + 1)
                datatype = dt_node[1]
            elif index < len(tokens) and tokens[index][0] == "langtag":
                lang = tokens[index][1][1:]
                index += 1
            if datatype is None and lang is None:
                datatype = XSD_STRING
            return ("lit", value, datatype, lang), index
        raise ValueError(f"unexpected token {tok!r}")

    while i < len(tokens):
        kind, tok = tokens[i]
        if kind == "kw_prefix":
            pfx_kind, pfx_tok = tokens[i + 1]
            if pfx_kind not in ("pfxdecl", "pname"):
                raise ValueError("malformed @prefix")
            prefix = pfx_tok.split(":", 1)[0]
            iri_kind, iri_tok = tokens[i + 2]
            if iri_kind != "iriref":
                raise ValueError("malformed @prefix IRI")
            prefixes[prefix] = iri_tok[1:-1]
            if tokens[i + 3] != ("punct", "."):
                raise ValueError("@prefix missing terminating dot")
            i += 4
            continue
        subject, i = term(i)
        while True:
            predicate, i = term(i)
            while True:
                obj, i = term(i)
                triples.add((subject, predicate, obj))
                if i < len(tokens) and tokens[i] == ("punct", ","):
                    i += 1
                    continue
                break
            if i < len(tokens) and tokens[i] == ("punct", ";"):
                i += 1
                if i < len(tokens) and tokens[i] == ("punct", "."):
                    i += 1
                    break
                continue
            if i < len(tokens) and tokens[i] == ("punct", "."):
                i += 1
                break
            raise ValueError("statement not terminated")
    return triples


def parse_jsonld(text: str) -> set:
    """Parse the package's JSON-LD shape into a canonical triple set."""
    document = json.loads(text)
    # JSON-LD 1.1 gives a term the prefix flag only if its IRI ends in a
    # gen-delim (Create Term Definition, step 14.2.3), and IRI Expansion
    # (step 6.4) expands a compact IRI only through a term with that flag.
    prefixes = {
        term: iri for term, iri in document.get("@context", {}).items()
        if iri.endswith(tuple(":/?#[]@"))
    }

    def expand(name: str) -> str:
        if name.startswith("_:"):
            return name
        if ":" in name:
            prefix, local = name.split(":", 1)
            if prefix in prefixes and not local.startswith("//"):
                return prefixes[prefix] + local
        return name

    def node_ref(identifier: str):
        # "@id" values expand as keys and "@type" values do (JSON-LD 1.1 IRI
        # Expansion): "dpv:Purpose" names the context's dpv: namespace.
        if identifier.startswith("_:"):
            return ("blank", identifier[2:])
        return ("iri", expand(identifier))

    triples: set = set()
    for node in document.get("@graph", []):
        subject = node_ref(node["@id"])
        for key, values in node.items():
            if key == "@id":
                continue
            if key == "@type":
                for value in values:
                    triples.add((subject, ("iri", RDF_TYPE), ("iri", expand(value))))
                continue
            predicate = ("iri", expand(key))
            for value in values:
                if "@id" in value:
                    triples.add((subject, predicate, node_ref(value["@id"])))
                else:
                    datatype = expand(value["@type"]) if "@type" in value else None
                    lang = value.get("@language")
                    if datatype is None and lang is None:
                        datatype = XSD_STRING
                    triples.add(
                        (subject, predicate, ("lit", value["@value"], datatype, lang))
                    )
    return triples


def canonical_triples(graph) -> set:
    """Canonical triple set of a TripleGraph (for comparing with oracles)."""
    from ropa_dpv import NodeKind

    def node(n):
        if n.kind is NodeKind.IRI:
            return ("iri", n.value)
        if n.kind is NodeKind.BLANK:
            return ("blank", n.value)
        datatype = n.datatype
        if datatype is None and n.language is None:
            datatype = XSD_STRING
        return ("lit", n.value, datatype, n.language)

    return {(node(t.subject), node(t.predicate), node(t.object)) for t in graph.triples}


# Lexical spaces from XSD 1.1 Part 2 (https://www.w3.org/TR/xmlschema11-2/),
# sections 3.3.2 boolean, 3.3.6 duration, 3.3.7 dateTime and 3.3.9 date.
# ``[0-9]`` matches ASCII digits only, as the spec's ``\d`` does.
_YEAR_MONTH_DAY = r"(-?(?:[1-9][0-9]{3,}|0[0-9]{3}))-(0[1-9]|1[0-2])-(0[1-9]|[12][0-9]|3[01])"
_TIME = r"(?:(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9](?:\.[0-9]+)?|24:00:00(?:\.0+)?)"
_TIMEZONE = r"(?:Z|[+-](?:(?:0[0-9]|1[0-3]):[0-5][0-9]|14:00))?"
_SECONDS = r"[0-9]+(?:\.[0-9]+)?S"
_DURATION_DATE = r"(?:[0-9]+Y(?:[0-9]+M)?(?:[0-9]+D)?|[0-9]+M(?:[0-9]+D)?|[0-9]+D)"
_DURATION_TIME = (
    rf"T(?:[0-9]+H(?:[0-9]+M)?(?:{_SECONDS})?|[0-9]+M(?:{_SECONDS})?|{_SECONDS})"
)
_LEXICAL_SPACES = {
    XSD + "boolean": re.compile(r"true|false|1|0"),
    XSD + "duration": re.compile(
        rf"-?P(?:{_DURATION_DATE}(?:{_DURATION_TIME})?|{_DURATION_TIME})"
    ),
    XSD + "dateTime": re.compile(rf"{_YEAR_MONTH_DAY}T{_TIME}{_TIMEZONE}"),
    XSD + "date": re.compile(rf"{_YEAR_MONTH_DAY}{_TIMEZONE}"),
}


def _day_in_month(year: int, month: int, day: int) -> bool:
    """The day-of-month constraint on ``date`` and ``dateTime``."""
    if month == 2:
        leap = year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)
        return day <= (29 if leap else 28)
    return day <= (30 if month in (4, 6, 9, 11) else 31)


def invalid_literals(triples) -> list:
    """The literal objects of canonical ``triples`` typed ``xsd:boolean``,
    ``xsd:duration``, ``xsd:dateTime`` or ``xsd:date`` whose value lies
    outside that datatype's lexical space, sorted."""
    invalid = set()
    for _, _, obj in triples:
        pattern = _LEXICAL_SPACES.get(obj[2]) if obj[0] == "lit" else None
        if pattern is None:
            continue
        match = pattern.fullmatch(obj[1])
        # Only the date patterns have groups: year, month and day.
        if match is None or (match.groups() and not _day_in_month(*map(int, match.groups()))):
            invalid.add(obj)
    return sorted(invalid)
