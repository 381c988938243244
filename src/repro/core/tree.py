"""Tree traversal and analysis utilities (paper section 5.3.3).

The conflict-handling discussion relies on tree operations: "the parents
of a synchronization node can be traced until the common ancestor
containing the source and destination of the arc is found".  This module
provides that trace plus the traversals every pipeline tool shares:
preorder iteration, leaf enumeration in document order, document-order
comparison, and summary statistics (the "internal table-of-contents
function" of the document structure map).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.errors import StructureError
from repro.core.nodes import ContainerNode, Node, NodeKind


def iter_preorder(root: Node) -> Iterator[Node]:
    """Yield ``root`` and all descendants in document (preorder) order."""
    stack: list[Node] = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def iter_postorder(root: Node) -> Iterator[Node]:
    """Yield all nodes with every child before its parent."""
    # Two-stack iterative postorder keeps recursion limits out of play for
    # machine-generated documents with deep nesting.
    stack: list[Node] = [root]
    output: list[Node] = []
    while stack:
        node = stack.pop()
        output.append(node)
        stack.extend(node.children)
    return reversed(output)


def iter_leaves(root: Node) -> Iterator[Node]:
    """Yield the leaf (external and immediate) nodes in document order."""
    for node in iter_preorder(root):
        if node.is_leaf:
            yield node


def find_nodes(root: Node, predicate: Callable[[Node], bool]) -> list[Node]:
    """All nodes under ``root`` satisfying ``predicate``, document order."""
    return [node for node in iter_preorder(root) if predicate(node)]


def find_named(root: Node, name: str) -> list[Node]:
    """All nodes named ``name`` (names need only be sibling-unique)."""
    return find_nodes(root, lambda node: node.name == name)


def common_ancestor(a: Node, b: Node) -> Node:
    """The closest common ancestor of ``a`` and ``b`` (possibly a or b).

    This is the trace the paper prescribes for validating relative arcs.
    """
    ancestors_of_a = {id(n) for n in [a, *a.ancestors()]}
    for candidate in [b, *b.ancestors()]:
        if id(candidate) in ancestors_of_a:
            return candidate
    raise StructureError(
        f"{a.label()} and {b.label()} do not share a tree")


def document_order_index(root: Node) -> dict[int, int]:
    """Map ``id(node)`` to its preorder position under ``root``."""
    return {id(node): i for i, node in enumerate(iter_preorder(root))}


def precedes(a: Node, b: Node) -> bool:
    """True when ``a`` comes strictly before ``b`` in document order."""
    order = document_order_index(common_ancestor(a, b).root)
    return order[id(a)] < order[id(b)]


def subtree_of(ancestor: Node, node: Node) -> bool:
    """True when ``node`` lies in the subtree rooted at ``ancestor``."""
    current: Node | None = node
    while current is not None:
        if current is ancestor:
            return True
        current = current.parent
    return False


@dataclass(frozen=True)
class TreeStats:
    """Summary statistics of a document tree.

    These are the numbers the building-block bench (tab1) reports and
    that the attribute-only manipulation experiments use to show how
    little of a document is bulk data.
    """

    total_nodes: int
    seq_nodes: int
    par_nodes: int
    ext_nodes: int
    imm_nodes: int
    max_depth: int
    attribute_count: int
    arc_count: int

    @property
    def leaf_count(self) -> int:
        """Number of leaf (event-producing) nodes."""
        return self.ext_nodes + self.imm_nodes


def tree_stats(root: Node) -> TreeStats:
    """Compute :class:`TreeStats` for the tree under ``root``."""
    counts = {kind: 0 for kind in NodeKind}
    max_depth = 0
    attribute_count = 0
    arc_count = 0
    for node in iter_preorder(root):
        counts[node.kind] += 1
        max_depth = max(max_depth, node.depth)
        attribute_count += len(node.attributes)
        arc_count += len(node.arcs)
    return TreeStats(
        total_nodes=sum(counts.values()),
        seq_nodes=counts[NodeKind.SEQ],
        par_nodes=counts[NodeKind.PAR],
        ext_nodes=counts[NodeKind.EXT],
        imm_nodes=counts[NodeKind.IMM],
        max_depth=max_depth,
        attribute_count=attribute_count,
        arc_count=arc_count,
    )


def validate_sibling_names(root: Node) -> list[str]:
    """Return messages for any duplicate sibling names under ``root``.

    Normally :meth:`ContainerNode.add` prevents duplicates, but documents
    built by deserialization or by renaming nodes after insertion can
    violate the rule; the validator re-checks it globally.
    """
    problems: list[str] = []
    for node in iter_preorder(root):
        if not isinstance(node, ContainerNode):
            continue
        seen: dict[str, int] = {}
        for child in node.children:
            name = child.name
            if name is None:
                continue
            seen[name] = seen.get(name, 0) + 1
        for name, count in seen.items():
            if count > 1:
                problems.append(
                    f"{node.label()} has {count} direct children named "
                    f"{name!r}")
    return problems
