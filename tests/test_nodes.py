"""Unit tests for the document tree nodes (repro.core.nodes)."""

import pytest

from repro.core.errors import StructureError
from repro.core.nodes import (ExtNode, ImmNode, NodeKind, ParNode, SeqNode,
                              make_node)
from repro.core.styles import StyleDictionary
from repro.core.syncarc import SyncArc


class TestNodeKind:
    def test_container_leaf_partition(self):
        assert NodeKind.SEQ.is_container
        assert NodeKind.PAR.is_container
        assert NodeKind.EXT.is_leaf
        assert NodeKind.IMM.is_leaf

    def test_factory_covers_all_kinds(self):
        assert isinstance(make_node("seq"), SeqNode)
        assert isinstance(make_node("par"), ParNode)
        assert isinstance(make_node(NodeKind.EXT), ExtNode)
        imm = make_node("imm", data="hello")
        assert isinstance(imm, ImmNode)
        assert imm.data == "hello"


class TestIdentity:
    def test_name_via_attribute(self):
        node = SeqNode("intro")
        assert node.name == "intro"
        assert node.attributes.get("name") == "intro"

    def test_unnamed_node(self):
        assert SeqNode().name is None

    def test_root_and_depth(self):
        root = SeqNode("root")
        child = root.add(ParNode("child"))
        leaf = child.add(ImmNode("leaf"))
        assert leaf.root is root
        assert leaf.depth == 2
        assert root.depth == 0
        assert list(leaf.ancestors()) == [child, root]

    def test_label(self):
        assert SeqNode("x").label() == "seq(x)"
        assert ParNode().label() == "par"


class TestChildManagement:
    def test_sibling_names_must_be_unique(self):
        """'No two (direct) children of the same parent may have the
        same name.'"""
        parent = SeqNode("p")
        parent.add(ImmNode("a"))
        with pytest.raises(StructureError, match="share the name"):
            parent.add(ImmNode("a"))

    def test_same_name_allowed_in_different_parents(self):
        """'...but otherwise a name may occur more than once in the
        tree.'"""
        root = SeqNode("root")
        first = root.add(SeqNode("story1"))
        second = root.add(SeqNode("story2"))
        first.add(ImmNode("intro"))
        second.add(ImmNode("intro"))  # no error

    def test_reparenting_requires_detach(self):
        a = SeqNode("a")
        b = SeqNode("b")
        child = a.add(ImmNode("c"))
        with pytest.raises(StructureError, match="already has a parent"):
            b.add(child)
        a.detach(child)
        b.add(child)
        assert child.parent is b

    def test_cycle_prevented(self):
        root = SeqNode("root")
        child = root.add(SeqNode("child"))
        with pytest.raises(StructureError, match="cycle"):
            child.add(root)

    def test_self_addition_prevented(self):
        node = SeqNode("n")
        with pytest.raises(StructureError):
            node.add(node)

    def test_insert_at_index(self):
        parent = SeqNode("p")
        parent.add(ImmNode("a"))
        parent.add(ImmNode("c"))
        parent.insert(1, ImmNode("b"))
        assert [c.name for c in parent.children] == ["a", "b", "c"]

    def test_child_named_and_index_of(self):
        parent = SeqNode("p")
        a = parent.add(ImmNode("a"))
        b = parent.add(ImmNode("b"))
        assert parent.child_named("b") is b
        assert parent.index_of(a) == 0
        with pytest.raises(StructureError):
            parent.child_named("missing")

    def test_detach_unrelated_raises(self):
        with pytest.raises(StructureError):
            SeqNode("p").detach(ImmNode("x"))

    def test_leaves_have_no_children(self):
        assert ImmNode("i").children == ()
        assert ExtNode("e").children == ()


class TestAttributeResolution:
    def test_inherited_attribute_walks_ancestors(self):
        """'Some attributes set properties that are inherited by children
        (and arbitrary levels of grandchildren).'"""
        root = SeqNode("root", {"channel": "video"})
        middle = root.add(ParNode("mid"))
        leaf = middle.add(ExtNode("leaf"))
        assert leaf.effective("channel") == "video"

    def test_override_stops_inheritance(self):
        root = SeqNode("root", {"channel": "video"})
        leaf = root.add(ExtNode("leaf", {"channel": "audio"}))
        assert leaf.effective("channel") == "audio"

    def test_non_inherited_attribute_does_not_leak(self):
        root = SeqNode("root", {"title": "The News"})
        leaf = root.add(ImmNode("leaf"))
        assert leaf.effective("title") is None

    def test_free_attributes_do_not_inherit(self):
        root = SeqNode("root", {"my-custom": 42})
        leaf = root.add(ImmNode("leaf"))
        assert leaf.effective("my-custom") is None

    def test_style_supplies_defaults_not_overrides(self):
        styles = StyleDictionary({"cap": {"channel": "caption",
                                          "duration": 100}})
        node = ImmNode("x", {"style": ("cap",), "channel": "label"})
        level = node.level_attributes(styles)
        assert level["channel"] == "label"  # own wins
        assert level["duration"] == 100     # style fills the gap (raw value)

    def test_inherited_attribute_via_ancestor_style(self):
        styles = StyleDictionary({"video-track": {"channel": "video"}})
        root = SeqNode("root", {
            "style-dictionary": {"video-track": {"channel": "video"}}})
        track = root.add(SeqNode("track", {"style": ("video-track",)}))
        leaf = track.add(ExtNode("leaf"))
        assert leaf.effective("channel", styles=styles) == "video"

    def test_effective_uses_root_style_dictionary_automatically(self):
        root = SeqNode("root", {
            "style-dictionary": {"cap": {"channel": "caption"}}})
        leaf = root.add(ImmNode("leaf", {"style": ("cap",)}))
        assert leaf.effective("channel") == "caption"


class TestExtAndImm:
    def test_ext_file_is_inherited(self):
        """'It is inherited, so that multiple external nodes can refer to
        subsections of the same file.'"""
        root = SeqNode("root", {"file": "news.vid"})
        first = root.add(ExtNode("a"))
        second = root.add(ExtNode("b"))
        assert first.file == "news.vid"
        assert second.file == "news.vid"


class TestArcs:
    def test_add_arc_accumulates(self):
        node = ImmNode("x")
        node.add_arc(SyncArc("a", "b"))
        node.add_arc(SyncArc("c", "d"))
        assert len(node.arcs) == 2

    def test_arcs_default_empty(self):
        assert ImmNode("x").arcs == []

    def test_arcs_returns_copy(self):
        node = ImmNode("x")
        node.add_arc(SyncArc("a", "b"))
        node.arcs.append(SyncArc("c", "d"))
        assert len(node.arcs) == 1
