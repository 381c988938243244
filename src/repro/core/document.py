"""The CMIF document object (paper sections 3 and 5).

A :class:`CmifDocument` binds together the document tree, the root-node
dictionaries (channels, styles, time base) and the data-descriptor
resolver.  The root node "has a special function in the tree because it
is a place where various directory attributes are found and because it
provides an implied timing reference point for all other nodes in the
document".

Compilation (:meth:`CmifDocument.compile`) materializes one
:class:`~repro.core.descriptors.EventDescriptor` per leaf node — the
mapping of event descriptors onto synchronization channels that section
3.1 calls "a CMIF description".  Compilation touches only descriptors,
never payload bytes, preserving the paper's attribute-only manipulation
property.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.core.attributes import spec_for
from repro.core.channels import ChannelDictionary, Medium
from repro.core.descriptors import (DataDescriptor, EventDescriptor, Slice)
from repro.core.errors import (ChannelError, FormatError, StructureError,
                               ValueError_)
from repro.core.nodes import (ContainerNode, ImmNode, Node, NodeKind,
                              SeqNode)
from repro.core.styles import StyleDictionary
from repro.core.timebase import MediaTime, TimeBase, Unit
from repro.core.tree import iter_leaves, iter_preorder, tree_stats

#: Type of the optional external descriptor resolver: file-id -> descriptor.
DescriptorResolver = Callable[[str], DataDescriptor | None]


class CmifDocument:
    """A complete CMIF document: tree + dictionaries + descriptor view."""

    def __init__(self, root: ContainerNode | None = None,
                 channels: ChannelDictionary | None = None,
                 styles: StyleDictionary | None = None,
                 timebase: TimeBase | None = None) -> None:
        self.root: ContainerNode = root if root is not None else SeqNode("document")
        if not isinstance(self.root, ContainerNode):
            raise StructureError("the document root must be a sequential or "
                                 "parallel node")
        self.channels = channels if channels is not None else ChannelDictionary()
        self.styles = styles if styles is not None else StyleDictionary()
        self.timebase = timebase if timebase is not None else TimeBase()
        #: Local data-descriptor directory, keyed by the ``file`` attribute
        #: value.  An external resolver (the DDBMS of figure 2) may be
        #: attached with :meth:`attach_resolver` and is consulted second.
        self.descriptors: dict[str, DataDescriptor] = {}
        self._resolver: DescriptorResolver | None = None
        #: Monotonic edit counter.  Every operation in
        #: :mod:`repro.core.edit` bumps it, giving schedule caches and the
        #: incremental scheduler a cheap identity for "the document as it
        #: was after edit N".
        self.revision: int = 0

    def bump_revision(self) -> int:
        """Advance the edit counter; returns the new revision."""
        self.revision += 1
        return self.revision

    # -- dictionaries ----------------------------------------------------

    def attach_resolver(self, resolver: DescriptorResolver) -> None:
        """Attach an external descriptor resolver (the optional DDBMS)."""
        self._resolver = resolver

    def register_descriptor(self, file_id: str,
                            descriptor: DataDescriptor) -> None:
        """Register a data descriptor under its ``file`` reference."""
        self.descriptors[file_id] = descriptor

    def resolve_descriptor(self, file_id: str) -> DataDescriptor | None:
        """Find the data descriptor for a ``file`` reference, if any."""
        descriptor = self.descriptors.get(file_id)
        if descriptor is None and self._resolver is not None:
            descriptor = self._resolver(file_id)
        return descriptor

    # -- root attribute round-trip ----------------------------------------

    def sync_root_attributes(self) -> None:
        """Materialize the dictionaries into root-node attributes.

        The concrete syntax stores channels, styles and the time base as
        root attributes (figure 7's "should currently only occur on the
        root node"); the writer calls this before serializing.
        """
        if len(self.channels):
            self.root.attributes.set("channel-dictionary",
                                     self.channels.to_group())
        if len(self.styles):
            self.root.attributes.set("style-dictionary",
                                     self.styles.to_group())
        self.root.attributes.set("timebase", {
            "frame-rate": self.timebase.frame_rate,
            "sample-rate": self.timebase.sample_rate,
            "byte-rate": self.timebase.byte_rate,
            "chars-per-second": self.timebase.chars_per_second,
        })

    @classmethod
    def from_root(cls, root: ContainerNode) -> "CmifDocument":
        """Reconstruct a document from a parsed tree's root attributes."""
        channels = ChannelDictionary()
        channel_group = root.attributes.get("channel-dictionary")
        if channel_group:
            channels = ChannelDictionary.from_group(channel_group)
        styles = StyleDictionary()
        style_group = root.attributes.get("style-dictionary")
        if style_group:
            styles = StyleDictionary.from_group(style_group)
        timebase = TimeBase()
        timebase_group = root.attributes.get("timebase")
        if timebase_group:
            try:
                timebase = TimeBase(
                    frame_rate=float(timebase_group.get("frame-rate", 25.0)),
                    sample_rate=float(
                        timebase_group.get("sample-rate", 44100.0)),
                    byte_rate=float(
                        timebase_group.get("byte-rate", 176400.0)),
                    chars_per_second=float(
                        timebase_group.get("chars-per-second", 15.0)),
                )
            except (TypeError, ValueError) as exc:
                raise FormatError(f"malformed timebase {timebase_group!r}: "
                                  f"{exc}") from None
        return cls(root, channels, styles, timebase)

    # -- views -------------------------------------------------------------

    def nodes(self) -> Iterator[Node]:
        """All nodes in document (preorder) order."""
        return iter_preorder(self.root)

    def leaves(self) -> Iterator[Node]:
        """All leaf nodes (events) in document order."""
        return iter_leaves(self.root)

    def stats(self):
        """Tree statistics (see :func:`repro.core.tree.tree_stats`)."""
        return tree_stats(self.root)

    def file_references(self) -> Iterator[tuple[Node, str]]:
        """``(node, file_id)`` for every external node whose ``file``
        attribute, own or inherited, is set, in preorder."""
        styles = self.styles_or_none()
        for node in iter_preorder(self.root):
            if node.kind is NodeKind.EXT:
                file_id = node.effective("file", styles=styles)
                if file_id is not None:
                    yield node, file_id

    # -- event materialization ----------------------------------------------

    def styles_or_none(self) -> StyleDictionary | None:
        """The style dictionary, or None when no styles are defined."""
        return self.styles if len(self.styles) else None

    def compile(self) -> "CompiledDocument":
        """Materialize the event descriptors for every leaf node.

        Returns a :class:`CompiledDocument` with events in document
        order, per-channel event sequences (the linear-time-order rule of
        section 3.1), and the node -> event mapping the constraint
        builder uses.

        One preorder walk, kept as ``nodes`` and ``paths`` (the cold
        path's only walk; the constraint graph and the program's arc
        tables read it): a node's path extends its parent's (``#i``
        when unnamed), the style dictionary is resolved at the first
        leaf, and each leaf builds its style-expanded level once, read
        for medium, slice/clip and duration and kept as the event's
        ``attributes``.  ``channel`` and ``file``, which the registry
        marks inherited, fall back to the container levels above, each
        built at most once and only when a lookup first reaches it (so
        a bad style raises where :meth:`Node.effective` would).  The
        duration is an explicit ``duration``, the slice/clip against
        the descriptor's intrinsic duration, that duration, or a reading
        estimate for immediate text; "the length of each of the segments
        is known in advance" is a hard requirement for scheduling.
        """
        events: list[EventDescriptor] = []
        by_node: dict[int, EventDescriptor] = {}
        nodes: list[Node] = []
        paths: list[str] = []
        per_channel: dict[str, list[EventDescriptor]] = {
            name: [] for name in self.channels.names()}
        timebase = self.timebase
        styles: StyleDictionary | None = None
        styles_resolved = False

        def inherited(name: str, level: dict[str, Any], frame: list | None):
            if name in level:
                return level[name]
            spec = spec_for(name)
            if spec is None or not spec.inherited:
                return None
            while frame is not None:
                if frame[1] is None:
                    frame[1] = frame[0].level_attributes(styles)
                if name in frame[1]:
                    return frame[1][name]
                frame = frame[2]
            return None

        # Each entry: (node, path, frame of its parent).  A container's
        # frame is [container, its level or None, its parent's frame].
        stack: list[tuple[Node, str, list | None]] = [(self.root, "", None)]
        while stack:
            node, path, parent = stack.pop()
            nodes.append(node)
            paths.append(path)
            if isinstance(node, ContainerNode):
                frame = [node, None, parent]
                children = node.children
                for index in reversed(range(len(children))):
                    child = children[index]
                    name = child.name
                    stack.append((child, f"{path}/{name}" if name is not None
                                  else f"{path}/#{index}", frame))
                continue
            if not styles_resolved:
                styles = self.styles_or_none() or node._style_dictionary()
                styles_resolved = True
            level = node.level_attributes(styles)
            channel_name = inherited("channel", level, parent)
            if channel_name is None:
                raise ChannelError(
                    f"node {path} has no channel attribute (own or "
                    f"inherited); every event must be placed on a channel")
            channel = self.channels.lookup(channel_name)
            declared = level.get("medium")
            if declared is not None:
                medium = Medium.from_name(declared)
            elif node.kind is NodeKind.IMM:
                medium = Medium.TEXT
            else:
                medium = channel.medium
            descriptor: DataDescriptor | None = None
            slice_: Slice | None = None
            if node.kind is NodeKind.EXT:
                file_id = inherited("file", level, parent)
                if file_id is None:
                    raise StructureError(
                        f"external node {path} has no file attribute "
                        f"(own or inherited)")
                descriptor = self.resolve_descriptor(file_id)
                for start_name, length_name in (("slice", "slice-length"),
                                                ("clip", "clip-length")):
                    start = level.get(start_name)
                    length = level.get(length_name)
                    if start is not None or length is not None:
                        begin = start if isinstance(start, MediaTime) else (
                            MediaTime.ms(float(start)) if start is not None
                            else MediaTime.ms(0))
                        slice_ = Slice(begin, length)
                        break
            explicit = level.get("duration")
            if explicit is not None:
                duration_ms = timebase.to_ms(
                    explicit if isinstance(explicit, MediaTime)
                    else MediaTime.ms(float(explicit)))
            else:
                intrinsic_ms = (descriptor.duration_ms(timebase)
                                if descriptor is not None else None)
                if slice_ is not None:
                    start_ms, end_ms = slice_.bounds_ms(timebase,
                                                        intrinsic_ms)
                    duration_ms = end_ms - start_ms
                elif intrinsic_ms is not None:
                    duration_ms = intrinsic_ms
                elif isinstance(node, ImmNode) and medium is Medium.TEXT:
                    duration_ms = timebase.to_ms(MediaTime(
                        max(1, len(str(node.data))), Unit.CHARACTERS))
                else:
                    raise ValueError_(
                        f"cannot determine the duration of {path}: no "
                        f"duration attribute, no slice/clip length, and "
                        f"no intrinsic descriptor duration")
            event = EventDescriptor(
                event_id=path, node_path=path, channel=channel.name,
                medium=medium, duration_ms=duration_ms,
                descriptor=descriptor, slice_=slice_, attributes=level)
            events.append(event)
            by_node[id(node)] = event
            per_channel.setdefault(channel.name, []).append(event)
        paths[0] = "/"
        return CompiledDocument(document=self, events=events,
                                by_node=by_node, per_channel=per_channel,
                                nodes=nodes, paths=paths)


@dataclass
class CompiledDocument:
    """The result of :meth:`CmifDocument.compile`.

    ``per_channel`` preserves document order within each channel, which
    the constraint builder turns into the channel serialization
    constraints ("events that are placed on a single channel are
    synchronized in linear time order").  ``nodes`` is the tree in
    preorder and ``paths`` each node's canonical path (the root's is
    ``/``), as compiled: only topology edits change them, and recompile.
    """

    document: CmifDocument
    events: list[EventDescriptor]
    by_node: dict[int, EventDescriptor]
    per_channel: dict[str, list[EventDescriptor]] = field(
        default_factory=dict)
    nodes: list[Node] = field(default_factory=list)
    paths: list[str] = field(default_factory=list)

    def event_for(self, node: Node) -> EventDescriptor:
        """The event materialized from ``node`` (a leaf)."""
        event = self.by_node.get(id(node))
        if event is None:
            raise StructureError(
                f"{node.label()} did not produce an event (is it a leaf "
                f"of this document?)")
        return event

    def sharing_ratio(self) -> float:
        """Events per distinct data descriptor (figure 2's reuse claim).

        Immediate events have no descriptor and are excluded; an empty
        document reports 0.0.
        """
        described = [e for e in self.events if e.descriptor is not None]
        if not described:
            return 0.0
        distinct = {e.descriptor.descriptor_id for e in described}
        return len(described) / len(distinct)
