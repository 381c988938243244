"""The CMIF document tree nodes (paper section 5.1, figures 5 and 6).

"CMIF defines a document tree that is used to encode the hierarchical and
peer relationships among document events."  Each node is one of four
types:

* **Sequential node** — children execute "sequentially in a left-to-right
  order";
* **Parallel node** — children execute "in parallel with all of the other
  children";
* **External node** — a leaf pointing at a data descriptor (and thus an
  external data block), optionally restricted by slice/clip/crop;
* **Immediate node** — a leaf "containing data rather than a pointer",
  text by default, "useful for encoding small amounts of data directly in
  a document or for transporting data across environments that have no
  common storage server".

Attribute resolution implements the paper's inheritance rule: an
attribute marked inherited in the standard registry is visible to all
descendants unless overridden; styles are expanded at each level before
inheritance is considered (a style is "a shorthand for placing a set of
attributes on a node").
"""

from __future__ import annotations

import enum
import weakref
from typing import Any, Iterator

from repro.core.attributes import AttributeList, spec_for
from repro.core.errors import StructureError
from repro.core.styles import StyleDictionary
from repro.core.syncarc import SyncArc
from repro.core.values import validate_name


class NodeKind(enum.Enum):
    """The four CMIF node types of paper figure 6."""

    SEQ = "seq"
    PAR = "par"
    EXT = "ext"
    IMM = "imm"

    @property
    def is_container(self) -> bool:
        """True for sequential and parallel nodes."""
        return self in (NodeKind.SEQ, NodeKind.PAR)

    @property
    def is_leaf(self) -> bool:
        """True for external and immediate nodes."""
        return not self.is_container


class Node:
    """Base class for all four node kinds.

    Nodes own an :class:`AttributeList` and a weak parent link.  Child
    management lives on :class:`ContainerNode`; leaves reject children.
    """

    kind: NodeKind

    def __init__(self, name: str | None = None,
                 attributes: dict[str, Any] | None = None) -> None:
        self.attributes = AttributeList(attributes)
        if name is not None:
            validate_name(name)
            self.attributes.set("name", name)
        self._parent: weakref.ref[ContainerNode] | None = None

    @property
    def parent(self) -> ContainerNode | None:
        """The container this node is a child of, or None.

        The link is weak: a tree is owned from its root down, with no
        reference cycle, so a dropped document is freed by reference
        counting.  A node held past its tree reads None here, and so
        does a node copied (``copy.deepcopy``, ``pickle``) on its own:
        a copy covers a subtree, never what is above it."""
        ref = self._parent
        return None if ref is None else ref()

    def __getstate__(self) -> dict[str, Any]:
        # Weak links do not copy: ContainerNode.__setstate__ relinks.
        return {**self.__dict__, "_parent": None}

    # -- identity -----------------------------------------------------

    @property
    def name(self) -> str | None:
        """The node's optional name (the ``name`` attribute)."""
        return self.attributes.get("name")

    @property
    def root(self) -> "Node":
        """The root of the tree this node belongs to."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    @property
    def depth(self) -> int:
        """Distance from the root (the root has depth 0)."""
        depth = 0
        node: Node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth

    def ancestors(self) -> Iterator["Node"]:
        """Yield the parent, grandparent, ... up to the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    # -- children (overridden by ContainerNode) ------------------------

    @property
    def children(self) -> tuple["Node", ...]:
        """The node's children; empty for leaves."""
        return ()

    @property
    def is_leaf(self) -> bool:
        """True for external and immediate nodes."""
        return self.kind.is_leaf

    # -- attribute resolution ------------------------------------------

    def _style_dictionary(self) -> StyleDictionary | None:
        """The root node's style dictionary, if declared."""
        group = self.root.attributes.get("style-dictionary")
        if group is None:
            return None
        return StyleDictionary.from_group(group)

    def level_attributes(self,
                         styles: StyleDictionary | None = None
                         ) -> dict[str, Any]:
        """This node's attributes with its styles expanded underneath.

        The node's own attributes always win over style-supplied values
        (styles are defaults, never overrides).
        """
        own = self.attributes.as_dict()
        style_names = own.get("style")
        if not style_names:
            return own
        if styles is None:
            styles = self._style_dictionary()
        if styles is None:
            return own
        merged = styles.expand_all(tuple(style_names))
        merged.update(own)
        return merged

    def effective(self, name: str, default: Any = None,
                  styles: StyleDictionary | None = None) -> Any:
        """Resolve ``name`` with style expansion and inheritance.

        Resolution order: this node's own/style value; then, if the
        attribute is inherited per the standard registry, the nearest
        ancestor's own/style value.  Non-standard attributes do not
        inherit (the registry is the single source of inheritance rules).
        """
        if styles is None:
            styles = self._style_dictionary()
        level = self.level_attributes(styles)
        if name in level:
            return level[name]
        spec = spec_for(name)
        if spec is None or not spec.inherited:
            return default
        for ancestor in self.ancestors():
            level = ancestor.level_attributes(styles)
            if name in level:
                return level[name]
        return default

    # -- synchronization arcs -------------------------------------------

    @property
    def arcs(self) -> list[SyncArc]:
        """The explicit synchronization arcs anchored at this node, as a
        new list.  A walk that neither keeps nor mutates it reads the
        stored one instead: ``attributes.get("sync-arc", ())``."""
        return list(self.attributes.get("sync-arc", []))

    def add_arc(self, arc: SyncArc) -> SyncArc:
        """Attach an explicit synchronization arc to this node."""
        self.attributes.append_value("sync-arc", arc)
        return arc

    # -- misc -----------------------------------------------------------

    def label(self) -> str:
        """A short human-readable label for views and error messages."""
        name = self.name
        return f"{self.kind.value}({name})" if name else self.kind.value

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label()}>"


class ContainerNode(Node):
    """Common behaviour of sequential and parallel nodes."""

    def __init__(self, name: str | None = None,
                 attributes: dict[str, Any] | None = None,
                 children: list[Node] | None = None) -> None:
        super().__init__(name, attributes)
        self._children: list[Node] = []
        names: set[str] = set()
        for child in children or []:
            self.add(child, names)

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        ref = weakref.ref(self)
        for child in self._children:
            if child._parent is None:   # not a shallow copy's shared child
                child._parent = ref

    @property
    def children(self) -> tuple[Node, ...]:
        return tuple(self._children)

    def add(self, child: Node, names: set[str] | None = None) -> Node:
        """Append ``child``, enforcing sibling-name uniqueness.

        The paper: "no two (direct) children of the same parent may have
        the same name, but otherwise a name may occur more than once in
        the tree."  A caller attaching every child of a new container
        (the parser, the constructor) passes one ``names`` set for it:
        the check is then a set lookup instead of a scan of every
        sibling, and add() records the child's name in the set.
        """
        if child.parent is not None:
            raise StructureError(
                f"node {child.label()} already has a parent "
                f"{child.parent.label()}; detach it first")
        if child is self or child in self.ancestors():
            raise StructureError(
                f"adding {child.label()} under {self.label()} would create "
                f"a cycle in the document tree")
        name = child.name
        if name is not None:
            if names is None:
                taken = any(sibling.name == name
                            for sibling in self._children)
            else:
                taken = name in names
                names.add(name)
            if taken:
                raise StructureError(
                    f"two direct children of {self.label()} share the "
                    f"name {name!r}")
        child._parent = weakref.ref(self)   # one shared ref per container
        self._children.append(child)
        return child

    def insert(self, index: int, child: Node) -> Node:
        """Insert ``child`` at ``index`` with the same checks as add()."""
        self.add(child)
        self._children.insert(index, self._children.pop())
        return child

    def detach(self, child: Node) -> Node:
        """Remove ``child`` from this container and clear its parent."""
        try:
            self._children.remove(child)
        except ValueError:
            raise StructureError(
                f"{child.label()} is not a child of {self.label()}") from None
        child._parent = None
        return child

    def child_named(self, name: str) -> Node:
        """Return the direct child named ``name``."""
        for child in self._children:
            if child.name == name:
                return child
        raise StructureError(
            f"{self.label()} has no child named {name!r} "
            f"(children: {[c.label() for c in self._children]})")

    def index_of(self, child: Node) -> int:
        """Position of ``child`` among this container's children."""
        for index, candidate in enumerate(self._children):
            if candidate is child:
                return index
        raise StructureError(
            f"{child.label()} is not a child of {self.label()}")


class SeqNode(ContainerNode):
    """A sequential node: children run left-to-right, one after another."""

    kind = NodeKind.SEQ


class ParNode(ContainerNode):
    """A parallel node: children run concurrently; the node ends when the
    slowest child finishes ("start the successor when the slowest parallel
    node finishes")."""

    kind = NodeKind.PAR


class ExtNode(Node):
    """An external node: a leaf referencing a data descriptor.

    "External nodes should have (or inherit) a file attribute specifying
    the data descriptor containing the data."  The ``file`` attribute is
    inherited so several external nodes can reference subsections of one
    file through slice/clip/crop attributes.
    """

    kind = NodeKind.EXT

    @property
    def file(self) -> str | None:
        """The (possibly inherited) data-descriptor reference."""
        return self.effective("file")


class ImmNode(Node):
    """An immediate node: a leaf carrying its data inline.

    "The data is either text (the default) or another medium, as indicated
    by attributes associated with the node."
    """

    kind = NodeKind.IMM

    def __init__(self, name: str | None = None,
                 attributes: dict[str, Any] | None = None,
                 data: Any = "") -> None:
        super().__init__(name, attributes)
        self.data = data


def make_node(kind: NodeKind | str, name: str | None = None,
              attributes: dict[str, Any] | None = None,
              data: Any = None) -> Node:
    """Factory covering all four node kinds, used by the parser."""
    if isinstance(kind, str):
        kind = NodeKind(kind)
    if kind is NodeKind.SEQ:
        return SeqNode(name, attributes)
    if kind is NodeKind.PAR:
        return ParNode(name, attributes)
    if kind is NodeKind.EXT:
        return ExtNode(name, attributes)
    return ImmNode(name, attributes, data if data is not None else "")
