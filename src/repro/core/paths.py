"""Relative node paths (paper section 5.3.2).

Synchronization arcs name their endpoints with "a relative path name in
the tree (by using named nodes)"; "the empty name specifies the current
node itself".  The concrete syntax implemented here:

* path components are separated by ``/``;
* a leading ``/`` makes the path root-relative;
* ``.`` (or the empty string / empty component) names the current node;
* ``..`` names the parent;
* a plain component names a direct child by its ``name`` attribute;
* ``#i`` names the i-th direct child (0-based document order), allowing
  unnamed nodes to be addressed — needed because the paper makes names
  optional.

:func:`node_path` produces a canonical root-relative path for any node,
preferring names and falling back to ``#i`` indices, so every node is
addressable and paths survive serialization round-trips.
"""

from __future__ import annotations

from repro.core.errors import PathError
from repro.core.nodes import ContainerNode, Node


def resolve_path(origin: Node, path: str) -> Node:
    """Resolve ``path`` relative to ``origin`` and return the node.

    Raises :class:`PathError` with the failing component on any
    resolution failure.
    """
    if not isinstance(path, str):
        raise PathError(f"path must be a string, got {path!r}")
    node: Node = origin
    remainder = path
    if path.startswith("/"):
        node = origin.root
        remainder = path[1:]
    if remainder in ("", "."):
        return node
    for component in remainder.split("/"):
        node = _step(node, component, origin, path)
    return node


def _step(node: Node, component: str, origin: Node, full_path: str) -> Node:
    """Resolve one path component from ``node``."""
    if component in ("", "."):
        return node
    if component == "..":
        if node.parent is None:
            raise PathError(
                f"path {full_path!r} (from {origin.label()}) steps above "
                f"the root")
        return node.parent
    if component.startswith("#"):
        return _indexed_child(node, component, full_path)
    if not isinstance(node, ContainerNode):
        raise PathError(
            f"path {full_path!r}: {node.label()} is a leaf and has no "
            f"child {component!r}")
    for child in node.children:
        if child.name == component:
            return child
    raise PathError(
        f"path {full_path!r}: {node.label()} has no child named "
        f"{component!r} (children: {[c.label() for c in node.children]})")


def _indexed_child(node: Node, component: str, full_path: str) -> Node:
    """Resolve a ``#i`` positional component."""
    try:
        index = int(component[1:])
    except ValueError:
        raise PathError(
            f"path {full_path!r}: malformed index component "
            f"{component!r}") from None
    children = node.children
    if not 0 <= index < len(children):
        raise PathError(
            f"path {full_path!r}: index {index} out of range for "
            f"{node.label()} with {len(children)} children")
    return children[index]


def node_path(node: Node) -> str:
    """The canonical root-relative path of ``node``.

    The root's path is ``/``.  Named nodes contribute their name;
    unnamed nodes contribute their ``#i`` position.
    """
    if node.parent is None:
        return "/"
    components: list[str] = []
    current: Node = node
    while current.parent is not None:
        parent = current.parent
        if current.name is not None:
            components.append(current.name)
        else:
            components.append(f"#{parent.index_of(current)}")
        current = parent
    return "/" + "/".join(reversed(components))


def relative_path(origin: Node, target: Node) -> str:
    """A path from ``origin`` that resolves to ``target``.

    Produces the shortest ``..``-prefixed form through the closest common
    ancestor; returns ``"."`` when origin and target coincide.
    """
    if origin is target:
        return "."
    origin_chain = [origin, *origin.ancestors()]
    target_chain = [target, *target.ancestors()]
    common = None
    origin_set = {id(n): i for i, n in enumerate(origin_chain)}
    for j, candidate in enumerate(target_chain):
        if id(candidate) in origin_set:
            common = candidate
            ups = origin_set[id(candidate)]
            downs = target_chain[:j]
            break
    if common is None:
        raise PathError(
            f"{origin.label()} and {target.label()} are not in the same "
            f"tree")
    components = [".."] * ups
    for child in reversed(downs):
        parent = child.parent
        assert parent is not None
        if child.name is not None:
            components.append(child.name)
        else:
            components.append(f"#{parent.index_of(child)}")
    return "/".join(components) if components else "."
