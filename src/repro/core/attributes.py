"""Attribute lists and the standard attribute registry (paper section 5.2).

The paper defines nodes as carrying *attribute lists* with three rules:

1. "each name may occur at most once in each list for each node";
2. "a node can have arbitrary attributes, although for some attributes a
   standard meaning and format is defined";
3. "Some attributes set properties that are inherited by children (and
   arbitrary levels of grandchildren) of the node on which they are set
   unless explicitly overridden; others only affect the node on which they
   are present."

:class:`AttributeList` implements rule 1 while preserving declaration
order (the paper's lists are ordered).  :class:`AttributeSpec` and the
:data:`STANDARD_ATTRIBUTES` registry implement rules 2 and 3, covering the
representative standard attributes of figure 7 plus the attributes the
rest of the paper uses implicitly (``duration``, ``medium``, ``sync-arc``).

Per-attribute placement rules ("should currently only occur on the root
node", "allowed only on certain node types") are recorded declaratively in
the spec and enforced by :mod:`repro.core.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.core.errors import AttributeError_
from repro.core.values import ValueKind, validate_value

#: Node kind names used in attribute placement rules.  Kept as strings so
#: this module does not need to import the node classes.
ALL_NODE_KINDS = frozenset({"seq", "par", "ext", "imm"})


@dataclass(frozen=True)
class AttributeSpec:
    """Declarative description of one standard attribute.

    ``inherited`` reproduces the paper's inheritance rule; ``root_only``
    reproduces figure 7's "should currently only occur on the root node";
    ``node_kinds`` restricts placement to certain node types (``slice`` and
    ``clip`` only make sense on external nodes, for example).
    ``repeatable_value`` records whether the value is logically a list
    (synchronization arcs accumulate rather than overwrite).
    """

    name: str
    kind: ValueKind
    description: str
    inherited: bool = False
    root_only: bool = False
    node_kinds: frozenset[str] = ALL_NODE_KINDS
    repeatable_value: bool = False


def _spec(name: str, kind: ValueKind, description: str, *,
          inherited: bool = False, root_only: bool = False,
          node_kinds: frozenset[str] | None = None,
          repeatable_value: bool = False) -> AttributeSpec:
    return AttributeSpec(
        name=name,
        kind=kind,
        description=description,
        inherited=inherited,
        root_only=root_only,
        node_kinds=node_kinds if node_kinds is not None else ALL_NODE_KINDS,
        repeatable_value=repeatable_value,
    )


#: The standard attribute registry.  The first nine entries are the
#: representative attributes of paper figure 7, with descriptions quoting
#: the figure; the remainder are attributes the paper's prose requires
#: (event durations, immediate-node media, and the synchronization arc
#: attribute of section 5.3.2).
STANDARD_ATTRIBUTES: dict[str, AttributeSpec] = {
    spec.name: spec for spec in [
        _spec(
            "name", ValueKind.ID,
            "Assigns a name to the current node. Names are optional and "
            "relative to their parent: no two direct children of the same "
            "parent may have the same name. Names are used by "
            "synchronization arcs to reference their source and "
            "destination nodes."),
        _spec(
            "style-dictionary", ValueKind.GROUP,
            "Defines one or more new styles; should currently only occur "
            "on the root node. Style definitions may refer to other style "
            "definitions as long as no style refers to itself, directly "
            "or indirectly.",
            root_only=True),
        _spec(
            "style", ValueKind.POINTERS,
            "Specifies one or more styles to be applied to the current "
            "node. At runtime each style name is looked up in the style "
            "dictionary of the root node."),
        _spec(
            "channel-dictionary", ValueKind.GROUP,
            "Defines one or more synchronization channels; should "
            "currently only occur on the root node. Each channel "
            "definition defines the medium used by that channel.",
            root_only=True),
        _spec(
            "channel", ValueKind.ID,
            "Specifies to which channel the current node's data should be "
            "directed. The name should name one of the channels defined "
            "in the root node's channel list. Inherited by children "
            "unless explicitly overridden.",
            inherited=True),
        _spec(
            "file", ValueKind.STRING,
            "Specifies the file to be used by external nodes. It is "
            "inherited, so that multiple external nodes can refer to "
            "subsections of the same file. It identifies the data "
            "descriptor used to reference data.",
            inherited=True),
        _spec(
            "t-formatting", ValueKind.GROUP,
            "A shorthand list of text formatting parameters (font, size, "
            "indent, vspace) sent to the text formatting channel. It is "
            "wise not to use these directly but to place them in a style "
            "definition."),
        _spec(
            "slice", ValueKind.MEDIA_TIME,
            "Specifies a subsection of the file to be used by an external "
            "node specifying binary data (offset; pairs with "
            "slice-length).",
            node_kinds=frozenset({"ext"})),
        _spec(
            "slice-length", ValueKind.MEDIA_TIME,
            "Length of the file subsection selected by slice.",
            node_kinds=frozenset({"ext"})),
        _spec(
            "crop", ValueKind.RECT,
            "Specifies a subimage of an image.",
            node_kinds=frozenset({"ext", "imm"})),
        _spec(
            "clip", ValueKind.MEDIA_TIME,
            "Specifies the start of a part of a sound fragment (pairs "
            "with clip-length).",
            node_kinds=frozenset({"ext", "imm"})),
        _spec(
            "clip-length", ValueKind.MEDIA_TIME,
            "Length of the sound part selected by clip.",
            node_kinds=frozenset({"ext", "imm"})),
        _spec(
            "duration", ValueKind.MEDIA_TIME,
            "Presentation duration of a leaf event. When absent, the "
            "duration is derived from the data descriptor (the paper's "
            "'length of each segment is known in advance' assumption).",
            node_kinds=frozenset({"ext", "imm"})),
        _spec(
            "medium", ValueKind.ID,
            "Medium of an immediate node's inline data; text is the "
            "default. Also used in channel definitions.",
            node_kinds=frozenset({"imm", "ext"})),
        _spec(
            "sync-arc", ValueKind.ANY,
            "An explicit synchronization arc (type, source, offset, "
            "destination, min-delay, max-delay) anchored at this node "
            "(section 5.3.2). Repeatable: a node may carry several arcs.",
            repeatable_value=True),
        _spec(
            "timebase", ValueKind.GROUP,
            "Unit conversion rates (frame-rate, sample-rate, byte-rate, "
            "chars-per-second) for media-dependent units; root only.",
            root_only=True),
        _spec(
            "title", ValueKind.STRING,
            "Human-readable document or section title; purely "
            "descriptive."),
        _spec(
            "comment", ValueKind.STRING,
            "Free-form annotation; ignored by all tools."),
    ]
}


def spec_for(name: str) -> AttributeSpec | None:
    """Return the standard spec for ``name``, or None for a free attribute.

    Free (non-standard) attributes are explicitly allowed by the paper:
    CMIF "does not interpret the meaning of these attributes — it simply
    allows them to be passed on to the required system tools".
    """
    return STANDARD_ATTRIBUTES.get(name)


def _checked_value(name: str, value: Any) -> Any:
    """The value an attribute list stores for ``name`` (a non-empty
    string): a standard attribute's value validated against its kind, a
    repeatable one's items in a list (sync arcs validate themselves)."""
    if not isinstance(name, str) or not name:
        raise AttributeError_(
            f"attribute name must be a non-empty string, got {name!r}")
    spec = spec_for(name)
    if spec is None:
        return value
    if spec.repeatable_value:
        return value if isinstance(value, list) else [value]
    return validate_value(spec.kind, value)


@dataclass
class Attribute:
    """A single name/value pair in an attribute list."""

    name: str
    value: Any

    def __post_init__(self) -> None:
        self.value = _checked_value(self.name, self.value)

    @property
    def spec(self) -> AttributeSpec | None:
        """The standard spec for this attribute, if any."""
        return spec_for(self.name)


class AttributeList:
    """An ordered mapping of attribute names to values, names unique.

    Implements the paper's rule that "each name may occur at most once in
    each list for each node".  For repeatable attributes (currently only
    ``sync-arc``) the single entry holds a list and :meth:`append_value`
    extends it.  Names map to bare values: only iteration builds an
    :class:`Attribute` per entry, and :meth:`items` reads the pairs.
    """

    __slots__ = ("_items",)

    def __init__(self, attributes: dict[str, Any] | None = None) -> None:
        self._items: dict[str, Any] = {}
        if attributes:
            for name, value in attributes.items():
                self.set(name, value)

    def set(self, name: str, value: Any) -> None:
        """Set (or overwrite) the attribute ``name``."""
        self._items[name] = _checked_value(name, value)

    def _set_trusted(self, name: str, value: Any) -> None:
        """``set`` minus the checks, for what the parser vouches for."""
        self._items[name] = value

    def append_value(self, name: str, value: Any) -> None:
        """Append ``value`` to a repeatable attribute's value list."""
        spec = spec_for(name)
        if spec is None or not spec.repeatable_value:
            raise AttributeError_(
                f"attribute {name!r} is not repeatable; use set()")
        if name in self._items:
            self._items[name].append(value)
        else:
            self.set(name, [value])

    def get(self, name: str, default: Any = None) -> Any:
        """Return the value of ``name``, or ``default`` when absent."""
        return self._items.get(name, default)

    def require(self, name: str) -> Any:
        """Return the value of ``name``, raising when absent."""
        if name not in self._items:
            raise AttributeError_(f"required attribute {name!r} is absent")
        return self._items[name]

    def remove(self, name: str) -> None:
        """Delete the attribute ``name`` (missing names are ignored)."""
        self._items.pop(name, None)

    def __contains__(self, name: str) -> bool:
        return name in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Attribute]:
        for name, value in self._items.items():
            attribute = object.__new__(Attribute)
            attribute.name, attribute.value = name, value
            yield attribute

    def items(self):
        """The (name, value) pairs in declaration order (a live view)."""
        return self._items.items()

    def names(self) -> list[str]:
        """Attribute names in declaration order."""
        return list(self._items)

    def as_dict(self) -> dict[str, Any]:
        """A plain name -> value snapshot (values are not copied)."""
        return dict(self._items)

    def copy(self) -> "AttributeList":
        """A shallow copy (repeatable value lists are copied)."""
        clone = AttributeList()
        clone._items = {name: list(value) if isinstance(value, list)
                        else value for name, value in self._items.items()}
        return clone

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value!r}"
                          for name, value in self._items.items())
        return f"AttributeList({inner})"
