"""Parsing the concrete CMIF text form back into documents.

The exact inverse of :mod:`repro.format.writer`.  The grammar::

    document   := (cmif (version N) node)
    node       := (seq attrs? node*) | (par attrs? node*)
                | (ext attrs?) | (imm attrs? STRING*)
    attrs      := (attributes attr*)
    attr       := (NAME item*) | sync-arc
    sync-arc   := (sync-arc (type ANCHOR STRICT) (source PATH ANCHOR?)
                   (offset time) (dest PATH) (min time)
                   (max time|inf) (when STRING)?)
    time       := (time NUMBER UNIT)
    item       := atom | (rect N N N N) | time | group-entry

Value decoding rules (mirroring the writer):

* a single atom item is a scalar (symbol -> ID string, quoted string,
  number; ``true``/``false`` -> bool);
* several atom items form a pointer tuple (the paper's ``value*``);
* list items headed by ``time``/``rect`` are tagged values;
* any other list items form a nested group (name -> value).
"""

from __future__ import annotations

from typing import Any

from repro.core.attributes import spec_for
from repro.core.document import CmifDocument
from repro.core.errors import FormatError
from repro.core.nodes import ContainerNode, Node, NodeKind, make_node
from repro.core.syncarc import (Anchor, ConditionalArc, Strictness, SyncArc)
from repro.core.timebase import MediaTime, Unit
from repro.core.values import Rect, ValueKind
from repro.format.sexpr import Symbol, head_symbol, parse_one

_TAGGED_HEADS = frozenset({"time", "rect"})
_SYMBOL_KINDS = (None, ValueKind.ID, ValueKind.STRING, ValueKind.ANY)
_NODE_KINDS = {kind.value: kind for kind in NodeKind}


def parse_document(text: str) -> CmifDocument:
    """Parse concrete CMIF text into a :class:`CmifDocument`."""
    try:
        return _parse_document(text)
    except RecursionError:
        # The node walk is iterative; what still recurses is decoding a
        # nested attribute value, or printing a nested form in a message.
        raise FormatError("expression nested too deeply") from None


def _parse_document(text: str) -> CmifDocument:
    expression = parse_one(text)
    if head_symbol(expression) != "cmif":
        raise FormatError("document must be a (cmif ...) form")
    body = expression[1:]
    node_form: object | None = None
    for item in body:
        head = head_symbol(item)
        if head == "version":
            version = item[1] if len(item) > 1 else None
            if version != 1:
                raise FormatError(f"unsupported CMIF format version "
                                  f"{version!r}")
        elif head in _NODE_KINDS:
            if node_form is not None:
                raise FormatError("document has more than one root node")
            node_form = item
        else:
            raise FormatError(f"unexpected form ({head} ...) at document "
                              f"level")
    if node_form is None:
        raise FormatError("document has no root node")
    root = parse_node(node_form)
    if not isinstance(root, ContainerNode):
        raise FormatError("the root node must be seq or par")
    return CmifDocument.from_root(root)


def parse_node(expression: object) -> Node:
    """Parse one node form and its whole subtree.

    One linear walk with an explicit stack of open containers, so the
    tree's depth is bounded by memory, not by the recursion limit.
    Errors come in document order: a node's attributes are checked
    before its children, and each child is attached (its name checked
    against one set per container) as soon as its own subtree is built.
    """
    root, child_forms = _node_from_form(expression)
    # Frames: (container, its remaining child forms, its child names).
    stack = [(root, iter(child_forms), set())]
    while stack:
        parent, forms, names = stack[-1]
        form = next(forms, None)
        if form is None:            # the container's subtree is built
            stack.pop()
            if stack:
                above, _, above_names = stack[-1]
                above.add(parent, above_names)
            continue
        node, grandchildren = _node_from_form(form)
        if grandchildren:
            stack.append((node, iter(grandchildren), set()))
        else:
            parent.add(node, names)
    return root


def _node_from_form(expression: object) -> tuple[Node, list]:
    """Build one node with its attributes; return it and its child forms.

    The child forms are left unparsed (always empty for a leaf).
    """
    head = head_symbol(expression)
    kind = _NODE_KINDS.get(head)
    if kind is None:
        raise FormatError(f"expected a node form, got ({head} ...)")
    body = expression[1:]
    attribute_forms: list = []
    if body and head_symbol(body[0]) == "attributes":
        attribute_forms = body[0][1:]
        body = body[1:]

    if kind.is_container:
        node = make_node(kind)
        _apply_attributes(node, attribute_forms)
        return node, body

    if kind is NodeKind.IMM:
        data = _parse_immediate_data(body)
        node = make_node(kind, data=data)
        _apply_attributes(node, attribute_forms)
        if node.attributes.get("medium") not in (None, "text") \
                and isinstance(data, str):
            node.data = _maybe_decode_binary(node, data)
        return node, []

    if body:
        raise FormatError("ext nodes take no children or data")
    node = make_node(kind)
    _apply_attributes(node, attribute_forms)
    return node, []


def _parse_immediate_data(body: list) -> str:
    """Concatenate an immediate node's trailing string atoms."""
    parts: list[str] = []
    for item in body:
        if isinstance(item, str):
            parts.append(item)
        elif isinstance(item, (int, float)):
            parts.append(f"{item:g}")
        elif isinstance(item, Symbol):
            parts.append(item.text)
        else:
            raise FormatError(f"immediate data must be atoms, got {item!r}")
    return "".join(parts)


def _maybe_decode_binary(node: Node, data: str) -> str | bytes:
    """Hex-decode binary immediate data written by the writer."""
    try:
        return bytes.fromhex(data)
    except ValueError:
        return data


def _apply_attributes(node: Node, forms: list) -> None:
    """Install parsed attribute forms onto ``node``, skipping validation
    where it returns the value as it is: a bare symbol's text for a free
    attribute or an ``ID``, ``STRING`` or ``ANY`` kind (non-empty, no
    whitespace), a ``(time ...)`` value for a ``MEDIA_TIME`` kind."""
    for form in forms:
        head = head_symbol(form)
        if head is None:
            raise FormatError(f"malformed attribute form {form!r}")
        if head == "sync-arc":
            node.attributes.append_value("sync-arc", parse_arc(form))
            continue
        value = parse_value(form[1:])
        spec = spec_for(head)
        kind = None if spec is None else spec.kind
        if (value.__class__ is MediaTime and kind is ValueKind.MEDIA_TIME) \
                or (value.__class__ is str and form[1].__class__ is Symbol
                    and kind in _SYMBOL_KINDS):
            node.attributes._set_trusted(head, value)
        else:
            node.attributes.set(head, value)


def parse_value(items: list) -> Any:
    """Decode the items following an attribute name (see module doc)."""
    if not items:
        raise FormatError("attribute has no value")
    if len(items) == 1 and not isinstance(items[0], list):
        return _scalar(items[0])
    if all(not isinstance(item, list) for item in items):
        return tuple(_pointer(item) for item in items)
    if len(items) == 1 and head_symbol(items[0]) in _TAGGED_HEADS:
        return _tagged(items[0])
    group: dict[str, Any] = {}
    for item in items:
        head = head_symbol(item)
        if head is None:
            raise FormatError(f"group entries must be (name ...) lists, "
                              f"got {item!r}")
        group[head] = parse_value(item[1:])
    return group


def _scalar(item: object) -> Any:
    """Decode a single atom value."""
    if isinstance(item, Symbol):
        if item.text == "true":
            return True
        if item.text == "false":
            return False
        return item.text
    return item


def _pointer(item: object) -> str:
    if isinstance(item, Symbol):
        return item.text
    if isinstance(item, str):
        return item
    raise FormatError(f"pointer values must be names, got {item!r}")


def _tagged(expression: list) -> Any:
    """Decode a ``(time ...)`` or ``(rect ...)`` tagged value."""
    head = head_symbol(expression)
    if head == "time":
        return parse_time(expression)
    if head == "rect":
        if len(expression) != 5:
            raise FormatError(f"(rect x y w h) expected, got {expression!r}")
        _, x, y, w, h = expression
        return Rect(int(x), int(y), int(w), int(h))
    raise FormatError(f"unknown tagged value ({head} ...)")


def parse_time(expression: object) -> MediaTime:
    """Decode ``(time <value> <unit>)``; a bare number means ms."""
    if isinstance(expression, (int, float)):
        return MediaTime.ms(float(expression))
    if head_symbol(expression) != "time" or len(expression) != 3:
        raise FormatError(f"(time value unit) expected, got {expression!r}")
    _, value, unit = expression
    if not isinstance(value, (int, float)):
        raise FormatError(f"time value must be a number, got {value!r}")
    if not isinstance(unit, Symbol):
        raise FormatError(f"time unit must be a symbol, got {unit!r}")
    return MediaTime(float(value), Unit.from_name(unit.text))


def parse_arc(expression: list) -> SyncArc:
    """Decode a ``(sync-arc ...)`` form into a :class:`SyncArc`."""
    fields: dict[str, list] = {}
    for item in expression[1:]:
        head = head_symbol(item)
        if head is None:
            raise FormatError(f"malformed sync-arc field {item!r}")
        if head in fields:
            raise FormatError(f"duplicate sync-arc field ({head} ...)")
        fields[head] = item[1:]

    def require(name: str) -> list:
        if not fields.get(name):
            raise FormatError(f"sync-arc is missing its ({name} ...) field")
        return fields[name]

    type_items = require("type")
    if len(type_items) != 2:
        raise FormatError("(type anchor strictness) expected")
    dst_anchor = Anchor.from_name(str(type_items[0]))
    strictness = Strictness.from_name(str(type_items[1]))

    source_items = require("source")
    source = _path(source_items[0])
    src_anchor = Anchor.BEGIN
    if len(source_items) > 1:
        src_anchor = Anchor.from_name(str(source_items[1]))

    destination = _path(require("dest")[0])
    offset = parse_time(require("offset")[0])
    min_delay = parse_time(require("min")[0])
    max_items = require("max")
    if isinstance(max_items[0], Symbol) and max_items[0].text == "inf":
        max_delay = None
    else:
        max_delay = parse_time(max_items[0])

    if "when" in fields:
        return ConditionalArc(
            source=source, destination=destination, src_anchor=src_anchor,
            dst_anchor=dst_anchor, strictness=strictness, offset=offset,
            min_delay=min_delay, max_delay=max_delay,
            condition=str(require("when")[0]))
    return SyncArc(
        source=source, destination=destination, src_anchor=src_anchor,
        dst_anchor=dst_anchor, strictness=strictness, offset=offset,
        min_delay=min_delay, max_delay=max_delay)


def _path(item: object) -> str:
    """Arc endpoint paths may be quoted strings or bare symbols."""
    if isinstance(item, str):
        return item
    if isinstance(item, Symbol):
        return item.text
    raise FormatError(f"arc path must be a string, got {item!r}")
