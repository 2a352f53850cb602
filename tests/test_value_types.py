"""Semantics of the package's value types.

Value types are tuples: they compare and hash as the tuple of their items,
cannot be mutated, and the validating ones (``FieldValue``, ``Node``,
``Triple``) check every instance they build.  ``TripleGraph`` and
``ConceptRegistry`` are not tuples and equal only their own class.
"""

import copy
import pickle

import pytest

from ropa_dpv import (
    FieldValue,
    Node,
    NodeKind,
    RopaRecord,
    Triple,
    TripleGraph,
    ValueKind,
    empty_graph,
    load_registry,
    new_record,
    to_graph,
    validate_article30,
)
from conftest import CREATED

_TEXT = FieldValue(ValueKind.TEXT, "x")
_IRI = Node.iri("https://example.org/a")
_TRIPLE = Triple(_IRI, _IRI, Node.literal("v"))


def _values(registry):
    record = new_record("pa-1", "Acme", CREATED)
    return {
        "FieldValue": (_TEXT, "value"),
        "Node": (_IRI, "value"),
        "Triple": (_TRIPLE, "object"),
        "RopaRecord": (record, "fields"),
        "ValidationReport": (validate_article30(record, registry), "findings"),
        "TripleGraph": (to_graph(record, registry), "triples"),
        "ConceptRegistry": (registry, "rows"),
    }


@pytest.mark.parametrize(
    "name",
    ["FieldValue", "Node", "Triple", "RopaRecord", "ValidationReport",
     "TripleGraph", "ConceptRegistry"],
)
def test_attributes_cannot_be_assigned_or_deleted(registry, name):
    value, field = _values(registry)[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("value", [_TEXT, _IRI, _TRIPLE])
def test_validating_types_have_no_instance_dict(value):
    assert not hasattr(value, "__dict__")
    assert isinstance(value, tuple)


def test_value_types_equal_the_tuple_of_their_items():
    assert _TEXT == (ValueKind.TEXT, "x")
    assert hash(_TEXT) == hash((ValueKind.TEXT, "x"))
    assert _IRI == (NodeKind.IRI, "https://example.org/a", None, None)
    assert _TRIPLE == (_IRI, _IRI, (NodeKind.LITERAL, "v", None, None))
    assert _TEXT != FieldValue(ValueKind.TERM, "x")
    assert repr(_TEXT) == "FieldValue(kind=<ValueKind.TEXT: 'TEXT'>, value='x')"


def test_graph_and_registry_equal_only_their_own_class(registry):
    assert load_registry() == load_registry()
    assert registry != registry.rows
    graph = empty_graph()
    assert graph == TripleGraph(frozenset(), graph.namespaces)
    assert hash(graph) == hash(TripleGraph(frozenset(), graph.namespaces))
    assert graph != (frozenset(), graph.namespaces)
    assert len(to_graph(new_record("pa-1", "Acme", CREATED), registry)) == 3


def test_replace_checks_the_new_items():
    with pytest.raises(ValueError, match="not an ISO-8601 duration: 'soon'"):
        FieldValue(ValueKind.DURATION, "P1D")._replace(value="soon")
    with pytest.raises(ValueError, match="only literals carry a datatype"):
        _IRI._replace(datatype="https://example.org/t")
    with pytest.raises(ValueError, match="triple predicates must be IRIs"):
        _TRIPLE._replace(predicate=Node.literal("p"))
    assert _TRIPLE._replace(object=_IRI) == (_IRI, _IRI, _IRI)


@pytest.mark.parametrize(
    "value",
    [_TEXT, _IRI, _TRIPLE, to_graph(new_record("pa-1", "Acme", CREATED), load_registry()),
     load_registry(), RopaRecord("pa-1", "Acme", CREATED),
     RopaRecord("pa-2", "Acme", CREATED, {"purposes-of-processing": (_TEXT,)})],
)
def test_copies_keep_class_and_items(value):
    for copied in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(copied) is type(value)
        assert copied == value


def test_records_built_without_fields_share_no_writable_dict():
    first = RopaRecord("pa-1", "Acme", CREATED)
    second = RopaRecord("pa-2", "Acme", CREATED)
    assert first.fields == {} and second.fields == {}
    with pytest.raises(TypeError):
        first.fields["purposes-of-processing"] = (_TEXT,)
    assert second.fields == {}
    assert not second.has("purposes-of-processing")

