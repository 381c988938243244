"""The leaf-by-leaf compile the one-pass compile replaced.

``compile_document`` is the earlier ``CmifDocument.compile`` verbatim,
and ``channel_for``, ``_leaf_medium``, ``_leaf_slice`` and
``_leaf_duration_ms`` are the four ``CmifDocument`` methods it called,
each now a function of the document.  Every attribute read goes
through :meth:`~repro.core.nodes.Node.effective`, which rebuilds the
leaf's style-expanded level, and for an inherited name every
ancestor's, on each call; every path comes from
:func:`~repro.core.paths.node_path`.  A test comparing the two compares
exactly the events, maps and resolver calls each builds.
"""

from __future__ import annotations

from repro.core.channels import Channel, Medium
from repro.core.descriptors import DataDescriptor, EventDescriptor, Slice
from repro.core.document import CmifDocument, CompiledDocument
from repro.core.errors import ChannelError, StructureError, ValueError_
from repro.core.nodes import ImmNode, Node, NodeKind
from repro.core.paths import node_path
from repro.core.timebase import MediaTime, Unit


def channel_for(document: CmifDocument, node: Node) -> Channel:
    """The channel a node's data is directed to (inherited attribute)."""
    channel_name = node.effective("channel",
                                  styles=document.styles_or_none())
    if channel_name is None:
        raise ChannelError(
            f"node {node_path(node)} has no channel attribute (own or "
            f"inherited); every event must be placed on a channel")
    return document.channels.lookup(channel_name)


def _leaf_medium(document: CmifDocument, node: Node,
                 channel: Channel) -> Medium:
    """The medium of a leaf's data, defaulting to the channel medium."""
    declared = node.effective("medium", styles=document.styles_or_none())
    if declared is not None:
        return Medium.from_name(declared)
    if node.kind is NodeKind.IMM:
        return Medium.TEXT
    return channel.medium


def _leaf_slice(document: CmifDocument, node: Node) -> Slice | None:
    """The slice/clip restriction of an external node, if any."""
    styles = document.styles_or_none()
    for start_name, length_name in (("slice", "slice-length"),
                                    ("clip", "clip-length")):
        start = node.effective(start_name, styles=styles)
        length = node.effective(length_name, styles=styles)
        if start is not None or length is not None:
            begin = start if isinstance(start, MediaTime) else (
                MediaTime.ms(float(start)) if start is not None
                else MediaTime.ms(0))
            return Slice(begin, length)
    return None


def _leaf_duration_ms(document: CmifDocument, node: Node, medium: Medium,
                      descriptor: DataDescriptor | None,
                      slice_: Slice | None) -> float:
    """Resolve a leaf's presentation duration in milliseconds.

    Resolution order: explicit ``duration`` attribute; slice/clip
    length against the descriptor's intrinsic duration; descriptor
    intrinsic duration; for immediate text, a reading-speed estimate
    (chars-per-second from the time base).  Anything else is an
    error — the paper's example restriction that "the length of each
    of the segments is known in advance" is a hard requirement for
    scheduling.
    """
    styles = document.styles_or_none()
    explicit = node.effective("duration", styles=styles)
    if explicit is not None:
        value = (explicit if isinstance(explicit, MediaTime)
                 else MediaTime.ms(float(explicit)))
        return document.timebase.to_ms(value)
    intrinsic_ms = (descriptor.duration_ms(document.timebase)
                    if descriptor is not None else None)
    if slice_ is not None:
        start_ms, end_ms = slice_.bounds_ms(document.timebase, intrinsic_ms)
        return end_ms - start_ms
    if intrinsic_ms is not None:
        return intrinsic_ms
    if isinstance(node, ImmNode) and medium is Medium.TEXT:
        text = str(node.data)
        reading_time = MediaTime(max(1, len(text)), Unit.CHARACTERS)
        return document.timebase.to_ms(reading_time)
    raise ValueError_(
        f"cannot determine the duration of {node_path(node)}: no "
        f"duration attribute, no slice/clip length, and no intrinsic "
        f"descriptor duration")


def compile_document(document: CmifDocument) -> CompiledDocument:
    """Materialize the event descriptors for every leaf node.

    Returns a :class:`CompiledDocument` with events in document
    order, per-channel event sequences (the linear-time-order rule of
    section 3.1), and the node -> event mapping the constraint
    builder uses.
    """
    events: list[EventDescriptor] = []
    by_node: dict[int, EventDescriptor] = {}
    per_channel: dict[str, list[EventDescriptor]] = {
        name: [] for name in document.channels.names()}
    for leaf in document.leaves():
        channel = channel_for(document, leaf)
        medium = _leaf_medium(document, leaf, channel)
        descriptor: DataDescriptor | None = None
        slice_: Slice | None = None
        if leaf.kind is NodeKind.EXT:
            file_id = leaf.effective("file",
                                     styles=document.styles_or_none())
            if file_id is None:
                raise StructureError(
                    f"external node {node_path(leaf)} has no file "
                    f"attribute (own or inherited)")
            descriptor = document.resolve_descriptor(file_id)
            slice_ = _leaf_slice(document, leaf)
        duration_ms = _leaf_duration_ms(document, leaf, medium,
                                        descriptor, slice_)
        path = node_path(leaf)
        event = EventDescriptor(
            event_id=path,
            node_path=path,
            channel=channel.name,
            medium=medium,
            duration_ms=duration_ms,
            descriptor=descriptor,
            slice_=slice_,
            attributes=leaf.level_attributes(document.styles_or_none()),
        )
        events.append(event)
        by_node[id(leaf)] = event
        per_channel.setdefault(channel.name, []).append(event)
    return CompiledDocument(document=document, events=events,
                            by_node=by_node, per_channel=per_channel)
