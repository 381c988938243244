"""JSON interchange form for CMIF documents.

The s-expression form is the primary, human-readable syntax; the JSON
form exists for interoperation with tooling that already speaks JSON
(the modern analogue of the paper's advice that descriptors may embed
"well-accepted formats").  Both forms carry identical information and
round-trip through the same document model.

Typed values use tagged objects so JSON's limited type system stays
unambiguous::

    {"$time": [40, "frames"]}
    {"$rect": [0, 0, 320, 200]}
    {"$arc": {"type": "begin/must", ...}}
"""

from __future__ import annotations

import json
from typing import Any

from repro.core.document import CmifDocument
from repro.core.errors import FormatError
from repro.core.nodes import ContainerNode, ImmNode, Node, NodeKind, make_node
from repro.core.syncarc import (Anchor, ConditionalArc, Strictness, SyncArc)
from repro.core.timebase import MediaTime, Unit
from repro.core.values import Rect


def document_to_json(document: CmifDocument, *, indent: int = 2) -> str:
    """Serialize ``document`` to a JSON string."""
    document.sync_root_attributes()
    payload = {"cmif": {"version": 1, "root": node_to_obj(document.root)}}
    return json.dumps(payload, indent=indent, sort_keys=False)


def document_from_json(text: str) -> CmifDocument:
    """Parse a JSON string back into a document."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise FormatError(f"a CMIF JSON document is an object, got "
                          f"{type(payload).__name__}")
    body = payload.get("cmif")
    if not isinstance(body, dict):
        raise FormatError("top-level object must contain a 'cmif' member")
    if body.get("version") != 1:
        raise FormatError(f"unsupported CMIF JSON version "
                          f"{body.get('version')!r}")
    try:
        root = node_from_obj(body.get("root"))
    except (AttributeError, KeyError, TypeError, ValueError,
            RecursionError) as exc:
        # Members of the wrong JSON type, as unpack answers them.
        raise FormatError(f"malformed CMIF JSON: {exc!r}") from None
    if not isinstance(root, ContainerNode):
        raise FormatError("the root node must be seq or par")
    return CmifDocument.from_root(root)


def node_to_obj(node: Node) -> dict[str, Any]:
    """The JSON object form of one node (recursively)."""
    obj: dict[str, Any] = {"kind": node.kind.value}
    attributes: dict[str, Any] = {}
    arcs: list[dict[str, Any]] = []
    for name, value in node.attributes.items():
        if name == "sync-arc":
            arcs = [arc_to_obj(arc) for arc in value]
            continue
        attributes[name] = value_to_obj(value)
    if attributes:
        obj["attributes"] = attributes
    if arcs:
        obj["arcs"] = arcs
    if isinstance(node, ImmNode):
        data = node.data
        if isinstance(data, bytes):
            obj["data"] = {"$hex": data.hex()}
        else:
            obj["data"] = str(data)
    elif node.children:
        obj["children"] = [node_to_obj(child) for child in node.children]
    return obj


def node_from_obj(obj: Any) -> Node:
    """Rebuild a node (recursively) from its JSON object form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise FormatError(f"node object expected, got {obj!r}")
    try:
        kind = NodeKind(obj["kind"])
    except ValueError:
        raise FormatError(f"unknown node kind {obj['kind']!r}") from None
    data: Any = None
    if kind is NodeKind.IMM:
        raw = obj.get("data", "")
        if isinstance(raw, dict) and "$hex" in raw:
            data = bytes.fromhex(raw["$hex"])
        else:
            data = raw
    node = make_node(kind, data=data)
    for name, value in (obj.get("attributes") or {}).items():
        node.attributes.set(name, value_from_obj(value))
    for arc_obj in obj.get("arcs") or []:
        node.attributes.append_value("sync-arc", arc_from_obj(arc_obj))
    children = obj.get("children") or []
    if children and not isinstance(node, ContainerNode):
        raise FormatError(f"{kind.value} nodes cannot have children")
    for child_obj in children:
        node.add(node_from_obj(child_obj))  # type: ignore[union-attr]
    return node


def value_to_obj(value: Any) -> Any:
    """Encode one attribute value as JSON-safe data."""
    if isinstance(value, MediaTime):
        return {"$time": [value.value, value.unit.value]}
    if isinstance(value, Rect):
        return {"$rect": [value.x, value.y, value.width, value.height]}
    if isinstance(value, dict):
        return {key: value_to_obj(nested) for key, nested in value.items()}
    if isinstance(value, tuple):
        return {"$pointers": list(value)}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise FormatError(f"cannot encode attribute value {value!r} as JSON")


def value_from_obj(value: Any) -> Any:
    """Decode one attribute value from JSON data."""
    if isinstance(value, dict):
        if "$time" in value:
            number, unit = value["$time"]
            return MediaTime(float(number), Unit.from_name(unit))
        if "$rect" in value:
            x, y, w, h = value["$rect"]
            return Rect(int(x), int(y), int(w), int(h))
        if "$pointers" in value:
            return tuple(str(item) for item in value["$pointers"])
        return {key: value_from_obj(nested)
                for key, nested in value.items()}
    return value


def arc_to_obj(arc: SyncArc) -> dict[str, Any]:
    """Encode an arc as a JSON object with the figure-9 fields."""
    obj: dict[str, Any] = {
        "type": arc.type_field(),
        "source": arc.source,
        "src_anchor": arc.src_anchor.value,
        "offset": value_to_obj(arc.offset),
        "destination": arc.destination,
        "min_delay": value_to_obj(arc.min_delay),
        "max_delay": (None if arc.max_delay is None
                      else value_to_obj(arc.max_delay)),
    }
    if isinstance(arc, ConditionalArc):
        obj["when"] = arc.condition
    return obj


def arc_from_obj(obj: Any) -> SyncArc:
    """Decode an arc from its JSON object form."""
    if not isinstance(obj, dict):
        raise FormatError(f"arc object expected, got {obj!r}")
    try:
        dst_anchor_name, strictness_name = str(obj["type"]).split("/")
    except (KeyError, ValueError):
        raise FormatError(f"arc type must be 'anchor/strictness', "
                          f"got {obj.get('type')!r}") from None
    common = dict(
        source=str(obj.get("source", "")),
        destination=str(obj.get("destination", "")),
        src_anchor=Anchor.from_name(obj.get("src_anchor", "begin")),
        dst_anchor=Anchor.from_name(dst_anchor_name),
        strictness=Strictness.from_name(strictness_name),
        offset=_time_from(obj.get("offset", 0)),
        min_delay=_time_from(obj.get("min_delay", 0)),
        max_delay=(None if obj.get("max_delay") is None
                   else _time_from(obj["max_delay"])),
    )
    if "when" in obj:
        return ConditionalArc(condition=str(obj["when"]), **common)
    return SyncArc(**common)


def _time_from(value: Any) -> MediaTime:
    decoded = value_from_obj(value)
    if isinstance(decoded, MediaTime):
        return decoded
    if isinstance(decoded, (int, float)):
        return MediaTime.ms(float(decoded))
    raise FormatError(f"time value expected, got {value!r}")
