"""Unit tests for tree traversal and analysis (repro.core.tree)."""

import pytest

from repro.core.errors import StructureError
from repro.core.nodes import ImmNode, ParNode, SeqNode
from repro.core.syncarc import SyncArc
from repro.core.tree import (common_ancestor, find_named, find_nodes,
                             iter_leaves, iter_postorder, iter_preorder,
                             precedes, subtree_of, tree_stats,
                             validate_sibling_names)


@pytest.fixture()
def tree():
    root = SeqNode("root")
    a = root.add(ParNode("a"))
    b = root.add(SeqNode("b"))
    a1 = a.add(ImmNode("a1"))
    a2 = a.add(ImmNode("a2"))
    b1 = b.add(ImmNode("b1"))
    return root, a, b, a1, a2, b1


class TestTraversal:
    def test_preorder_is_document_order(self, tree):
        root, a, b, a1, a2, b1 = tree
        assert list(iter_preorder(root)) == [root, a, a1, a2, b, b1]

    def test_postorder_children_before_parents(self, tree):
        root, a, b, a1, a2, b1 = tree
        order = list(iter_postorder(root))
        assert order.index(a1) < order.index(a)
        assert order.index(b1) < order.index(b)
        assert order[-1] is root

    def test_leaves_in_document_order(self, tree):
        root, _a, _b, a1, a2, b1 = tree
        assert list(iter_leaves(root)) == [a1, a2, b1]

    def test_find_nodes_and_named(self, tree):
        root = tree[0]
        assert find_nodes(root, lambda n: n.kind.is_container) == [
            root, tree[1], tree[2]]
        assert find_named(root, "a2") == [tree[4]]

    def test_deep_tree_does_not_recurse(self):
        """Iterative traversals survive very deep documents."""
        root = SeqNode("root")
        node = root
        for index in range(5000):
            node = node.add(SeqNode(f"level-{index}"))
        node.add(ImmNode("leaf"))
        assert sum(1 for _ in iter_preorder(root)) == 5002
        assert sum(1 for _ in iter_postorder(root)) == 5002


class TestAncestry:
    def test_common_ancestor_of_cousins(self, tree):
        root, _a, _b, a1, _a2, b1 = tree
        assert common_ancestor(a1, b1) is root

    def test_common_ancestor_of_siblings(self, tree):
        _root, a, _b, a1, a2, _b1 = tree
        assert common_ancestor(a1, a2) is a

    def test_common_ancestor_with_self(self, tree):
        a1 = tree[3]
        assert common_ancestor(a1, a1) is a1

    def test_ancestor_of_descendant(self, tree):
        root, a, _b, a1, *_ = tree
        assert common_ancestor(a, a1) is a

    def test_disjoint_raises(self, tree):
        with pytest.raises(StructureError):
            common_ancestor(tree[0], SeqNode("stranger"))

    def test_subtree_of(self, tree):
        root, a, _b, a1, _a2, b1 = tree
        assert subtree_of(a, a1)
        assert subtree_of(root, b1)
        assert not subtree_of(a, b1)

    def test_precedes(self, tree):
        _root, _a, _b, a1, a2, b1 = tree
        assert precedes(a1, a2)
        assert precedes(a2, b1)
        assert not precedes(b1, a1)


class TestStats:
    def test_counts(self, tree):
        root = tree[0]
        stats = tree_stats(root)
        assert stats.total_nodes == 6
        assert stats.seq_nodes == 2
        assert stats.par_nodes == 1
        assert stats.imm_nodes == 3
        assert stats.ext_nodes == 0
        assert stats.leaf_count == 3
        assert stats.max_depth == 2

    def test_arc_count(self, tree):
        root = tree[0]
        tree[3].add_arc(SyncArc("a", "b"))
        tree[3].add_arc(SyncArc("c", "d"))
        assert tree_stats(root).arc_count == 2

    def test_empty_root(self):
        stats = tree_stats(SeqNode("empty"))
        assert stats.total_nodes == 1
        assert stats.leaf_count == 0


class TestSiblingNameValidation:
    def test_clean_tree_passes(self, tree):
        assert validate_sibling_names(tree[0]) == []

    def test_post_hoc_rename_detected(self, tree):
        """Renaming after insertion can break uniqueness; the global
        validator catches what add() could not."""
        _root, a, _b, a1, a2, _b1 = tree
        a2.attributes.set("name", "a1")
        problems = validate_sibling_names(tree[0])
        assert len(problems) == 1
        assert "a1" in problems[0]
