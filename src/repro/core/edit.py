"""Document editing operations (paper sections 2 and 4).

The viewing tools "provide a means for a reader to 'view' or (possibly)
edit a document", and the paper is explicit that changing presentation
order is an *edit*, not a navigation: "re-ordering requires re-editing
the document".  This module provides the re-editing operations an
authoring tool needs, each preserving the tree's invariants (sibling
name uniqueness, parenthood) and each returning enough information to
undo:

* :func:`reorder` — move a child to a new position among its siblings;
* :func:`splice` — move a subtree under a different parent;
* :func:`duplicate` — copy a subtree (fresh nodes, same attributes),
  the authoring counterpart of descriptor sharing;
* :func:`retime` — change a leaf's duration;
* :func:`remove` — delete a subtree, reporting the arcs that dangle;
* :func:`add_arc` / :func:`remove_arc` — attach or detach an explicit
  synchronization arc (the sync-arc refinement loop of section 5.3.2).

Arc hygiene: operations that move or delete nodes resolve every arc in
the document before and after the edit, and report the ones whose
endpoints broke — the editor's version of the validator's
``arc-endpoint`` rule — and the ones whose endpoints now name other
nodes: a positional ``#i`` path component silently shifts when its
siblings move.  They report and do not repair.

Every successful operation bumps :attr:`CmifDocument.revision`, which is
what the incremental scheduler (:mod:`repro.timing.incremental`) and the
schedule cache (:class:`repro.timing.schedule.ScheduleCache`) key on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.document import CmifDocument
from repro.core.errors import PathError, StructureError
from repro.core.nodes import (ContainerNode, ExtNode, ImmNode, Node,
                              ParNode, SeqNode)
from repro.core.paths import node_path, resolve_path
from repro.core.syncarc import SyncArc
from repro.core.timebase import MediaTime
from repro.core.tree import iter_preorder


@dataclass
class EditReport:
    """The outcome of one editing operation."""

    operation: str
    subject: str
    dangling_arcs: list[str] = field(default_factory=list)
    retargeted_arcs: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no synchronization arc was broken or retargeted."""
        return not self.dangling_arcs and not self.retargeted_arcs


def _arc_targets(document: CmifDocument
                 ) -> dict[tuple[Node, int], tuple | None]:
    """Every arc's endpoint nodes (None when one does not resolve),
    keyed by the arc's owner and its position among the owner's arcs."""
    targets: dict[tuple[Node, int], tuple | None] = {}
    for node in iter_preorder(document.root):
        for index, arc in enumerate(node.arcs):
            try:
                targets[node, index] = (resolve_path(node, arc.source),
                                        resolve_path(node, arc.destination))
            except PathError:
                targets[node, index] = None
    return targets


def _topology_report(operation: str, subject: str, document: CmifDocument,
                     before: dict[tuple[Node, int], tuple | None]
                     ) -> EditReport:
    """A topology edit's report: the arcs whose endpoints no longer
    resolve, and those that resolve to other nodes than ``before`` (the
    edit's :func:`_arc_targets` snapshot) recorded."""
    report = EditReport(operation=operation, subject=subject)
    for (node, index), targets in _arc_targets(document).items():
        if targets is None:
            broken = report.dangling_arcs
        elif (node, index) in before and before[node, index] != targets:
            broken = report.retargeted_arcs
        else:
            continue
        broken.append(f"{node_path(node)}: {node.arcs[index].describe()}")
    return report


def reorder(document: CmifDocument, parent_path: str, child_name: str,
            new_index: int) -> EditReport:
    """Move the named child to ``new_index`` among its siblings.

    This is the operation the paper requires for changing event order
    ("re-ordering requires re-editing the document").
    """
    parent = resolve_path(document.root, parent_path)
    if not isinstance(parent, ContainerNode):
        raise StructureError(f"{parent.label()} is a leaf; it has no "
                             f"children to reorder")
    child = parent.child_named(child_name)
    count = len(parent.children)
    if not 0 <= new_index < count:
        raise StructureError(
            f"new index {new_index} out of range for {count} children")
    before = _arc_targets(document)
    parent.detach(child)
    parent.insert(new_index, child)
    document.bump_revision()
    return _topology_report("reorder", node_path(child), document, before)


def splice(document: CmifDocument, node_path_: str, new_parent_path: str,
           index: int | None = None) -> EditReport:
    """Move a subtree under a different parent.

    Refuses to splice a node into its own subtree (which would detach it
    from the document) and preserves sibling-name uniqueness through the
    normal add() checks.
    """
    node = resolve_path(document.root, node_path_)
    new_parent = resolve_path(document.root, new_parent_path)
    if node.parent is None:
        raise StructureError("the root cannot be spliced")
    if not isinstance(new_parent, ContainerNode):
        raise StructureError(f"{new_parent.label()} is a leaf; it cannot "
                             f"receive children")
    current: Node | None = new_parent
    while current is not None:
        if current is node:
            raise StructureError(
                f"cannot splice {node.label()} into its own subtree")
        current = current.parent
    before = _arc_targets(document)
    node.parent.detach(node)
    new_parent.add(node)
    if index is not None:
        new_parent.detach(node)
        new_parent.insert(index, node)
    document.bump_revision()
    return _topology_report("splice", node_path(node), document, before)


def _clone_node(node: Node) -> Node:
    """A deep structural copy with fresh node objects."""
    clone: Node
    if isinstance(node, SeqNode):
        clone = SeqNode()
    elif isinstance(node, ParNode):
        clone = ParNode()
    elif isinstance(node, ExtNode):
        clone = ExtNode()
    else:
        assert isinstance(node, ImmNode)
        clone = ImmNode(data=node.data)
    clone.attributes = node.attributes.copy()
    if isinstance(node, ContainerNode):
        assert isinstance(clone, ContainerNode)
        for child in node.children:
            clone.add(_clone_node(child))
    return clone


def duplicate(document: CmifDocument, node_path_: str,
              new_name: str) -> EditReport:
    """Copy a subtree next to the original under ``new_name``.

    The copy shares the original's ``file`` references — two events over
    one data descriptor, the figure-2 sharing pattern — but is a fully
    independent structure.
    """
    node = resolve_path(document.root, node_path_)
    parent = node.parent
    if parent is None:
        raise StructureError("the root cannot be duplicated")
    clone = _clone_node(node)
    clone.attributes.set("name", new_name)
    index = parent.index_of(node)
    before = _arc_targets(document)
    parent.add(clone)
    parent.detach(clone)
    parent.insert(index + 1, clone)
    document.bump_revision()
    return _topology_report("duplicate", node_path(clone), document,
                            before)


def retime(document: CmifDocument, node_path_: str,
           duration: MediaTime | float) -> EditReport:
    """Change a leaf's presentation duration."""
    node = resolve_path(document.root, node_path_)
    if not node.is_leaf:
        raise StructureError(
            f"{node.label()} is a container; its span is derived from "
            f"its children, not set directly")
    value = (duration if isinstance(duration, MediaTime)
             else MediaTime.ms(float(duration)))
    node.attributes.set("duration", value)
    document.bump_revision()
    return EditReport(operation="retime", subject=node_path(node))


def remove(document: CmifDocument, node_path_: str) -> EditReport:
    """Delete a subtree; dangling arcs are reported, not repaired.

    "CMIF plays a role in signalling problems, allowing other
    mechanisms to provide solutions" — the editor surfaces the broken
    arcs so an authoring tool (or the user) decides what to do.
    """
    node = resolve_path(document.root, node_path_)
    parent = node.parent
    if parent is None:
        raise StructureError("the root cannot be removed")
    subject = node_path(node)
    before = _arc_targets(document)
    parent.detach(node)
    document.bump_revision()
    return _topology_report("remove", subject, document, before)


def add_arc(document: CmifDocument, owner_path: str,
            arc: "SyncArc") -> EditReport:
    """Attach an explicit synchronization arc to the node at ``owner_path``.

    Both endpoints must resolve from the owner before the arc is
    attached, so an add never introduces a dangling arc.
    """
    owner = resolve_path(document.root, owner_path)
    resolve_path(owner, arc.source)
    resolve_path(owner, arc.destination)
    owner.add_arc(arc)
    document.bump_revision()
    return EditReport(operation="add-arc", subject=node_path(owner))


def remove_arc(document: CmifDocument, owner_path: str,
               index: int) -> EditReport:
    """Detach the ``index``-th arc anchored at ``owner_path``."""
    owner = resolve_path(document.root, owner_path)
    arcs = owner.arcs
    if not 0 <= index < len(arcs):
        raise StructureError(
            f"arc index {index} out of range for {owner.label()} with "
            f"{len(arcs)} arc(s)")
    remaining = arcs[:index] + arcs[index + 1:]
    if remaining:
        owner.attributes.set("sync-arc", remaining)
    else:
        owner.attributes.remove("sync-arc")
    document.bump_revision()
    return EditReport(operation="remove-arc", subject=node_path(owner))
