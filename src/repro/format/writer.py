"""Serializing documents to the concrete CMIF text form.

The writer emits the s-expression syntax described in
:mod:`repro.format.sexpr`, structured exactly along paper figure 6::

    (cmif (version 1)
      (seq (attributes (name "news") ...)
        (par (attributes ...) child ...)
        (ext (attributes (file "head.vid") ...))
        (imm (attributes (channel "label")) "Story 3. Paintings")))

Attribute values map to tagged forms: media times as ``(time 4 s)``,
rectangles as ``(rect x y w h)``, nested groups as nested lists, pointer
sets as bare symbols, and synchronization arcs as ``(sync-arc ...)``
forms carrying the six figure-9 fields.  The writer and the parser are
exact inverses; round-trip identity is property-tested.
"""

from __future__ import annotations

from typing import Any

from repro.core.document import CmifDocument
from repro.core.errors import FormatError
from repro.core.nodes import ImmNode, Node
from repro.core.syncarc import ConditionalArc, SyncArc
from repro.core.timebase import MediaTime
from repro.core.values import Rect
from repro.format.sexpr import Symbol, dump

#: Attribute names whose values the writer re-derives from document
#: dictionaries; they are synced onto the root before writing.
FORMAT_VERSION = 1


def write_document(document: CmifDocument) -> str:
    """Serialize ``document`` to concrete CMIF text."""
    document.sync_root_attributes()
    expression = [
        Symbol("cmif"),
        [Symbol("version"), FORMAT_VERSION],
        node_expression(document.root),
    ]
    return dump(expression) + "\n"


def node_expression(node: Node) -> list:
    """The s-expression form of one node (recursively)."""
    expression: list[Any] = [Symbol(node.kind.value)]
    attribute_forms = attributes_expression(node)
    if attribute_forms:
        expression.append([Symbol("attributes"), *attribute_forms])
    if isinstance(node, ImmNode):
        expression.append(_immediate_data(node))
    else:
        for child in node.children:
            expression.append(node_expression(child))
    return expression


def _immediate_data(node: ImmNode) -> str:
    """Immediate node data serialized as a string literal."""
    data = node.data
    if isinstance(data, bytes):
        # Binary immediate data travels hex-encoded; the medium attribute
        # tells the reader how to interpret it.
        return data.hex()
    return str(data)


def attributes_expression(node: Node) -> list[list]:
    """All attribute forms of a node, one list per (name, value)."""
    forms: list[list] = []
    for name, value in node.attributes.items():
        if name == "sync-arc":
            for arc in value:
                forms.append(arc_expression(arc))
            continue
        forms.append([Symbol(name), *value_items(value)])
    return forms


#: Words the reader assigns special meaning; never written bare.
_RESERVED_WORDS = frozenset({"true", "false", "inf", "nan", "infinity"})

_UNSAFE_CHARS = set('()";')


def _atom(value: str):
    """A string as its canonical atom: a bare symbol when unambiguous.

    Symbols and quoted strings both decode to ``str``, so the writer is
    free to choose; bare symbols keep ids readable, but anything that
    would re-read as a number, a reserved word, or that contains
    delimiter characters must stay quoted for the round trip to be the
    identity.
    """
    if (value
            and not any(ch.isspace() for ch in value)
            and not _UNSAFE_CHARS & set(value)
            and value.lower() not in _RESERVED_WORDS
            and not _reads_as_number(value)):
        return Symbol(value)
    return value


def _reads_as_number(word: str) -> bool:
    try:
        float(word)
    except ValueError:
        return False
    return True


def value_items(value: Any) -> list:
    """Encode an attribute value as the items following its name."""
    if isinstance(value, MediaTime):
        return [time_expression(value)]
    if isinstance(value, Rect):
        return [[Symbol("rect"), value.x, value.y, value.width,
                 value.height]]
    if isinstance(value, dict):
        return [group_entry(key, nested) for key, nested in value.items()]
    if isinstance(value, tuple):
        if len(value) == 1:
            # A one-element pointer set must stay distinguishable from a
            # scalar; quote it so it reads back as a plain string and
            # style lookup (which accepts both) still works.
            return [_atom(str(value[0]))]
        return [_atom(str(item)) for item in value]
    if isinstance(value, bool):
        return [Symbol("true" if value else "false")]
    if isinstance(value, (int, float)):
        return [value]
    if isinstance(value, str):
        return [_atom(value)]
    raise FormatError(f"cannot serialize attribute value {value!r}")


def group_entry(key: str, value: Any) -> list:
    """One ``(key ...)`` entry of a group value."""
    return [Symbol(key), *value_items(value)]


def time_expression(time: MediaTime) -> list:
    """``(time <value> <unit>)``."""
    value: int | float = time.value
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return [Symbol("time"), value, Symbol(time.unit.value)]


def arc_expression(arc: SyncArc) -> list:
    """The ``(sync-arc ...)`` form carrying all figure-9 fields."""
    expression: list[Any] = [
        Symbol("sync-arc"),
        [Symbol("type"), Symbol(arc.dst_anchor.value),
         Symbol(arc.strictness.value)],
        [Symbol("source"), arc.source, Symbol(arc.src_anchor.value)],
        [Symbol("offset"), time_expression(arc.offset)],
        [Symbol("dest"), arc.destination],
        [Symbol("min"), time_expression(arc.min_delay)],
        [Symbol("max"), (Symbol("inf") if arc.max_delay is None
                         else time_expression(arc.max_delay))],
    ]
    if isinstance(arc, ConditionalArc):
        expression.append([Symbol("when"), arc.condition])
    return expression
