"""Unit tests for the fluent document builder (repro.core.builder)."""

import pytest

from repro.core.builder import DocumentBuilder
from repro.core.errors import CmifError, StructureError
from repro.core.nodes import NodeKind
from repro.core.syncarc import Anchor, Strictness
from repro.core.timebase import MediaTime


class TestStructure:
    def test_nested_contexts_mirror_tree(self):
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        with builder.seq("outer"):
            with builder.par("inner"):
                builder.imm("leaf", channel="v", data="x", duration=100)
        document = builder.build()
        outer = document.root.child_named("outer")
        inner = outer.child_named("inner")
        assert inner.kind is NodeKind.PAR
        assert inner.child_named("leaf").kind is NodeKind.IMM

    def test_par_root(self):
        builder = DocumentBuilder("doc", root_kind="par")
        assert builder.build(validate=False).root.kind is NodeKind.PAR

    def test_bad_root_kind(self):
        with pytest.raises(StructureError):
            DocumentBuilder("doc", root_kind="ext")

    def test_build_inside_open_context_raises(self):
        builder = DocumentBuilder("doc")
        with builder.seq("s"):
            with pytest.raises(StructureError, match="open"):
                builder.build()

    def test_stack_restored_after_exception(self):
        builder = DocumentBuilder("doc")
        with pytest.raises(RuntimeError):
            with builder.seq("s"):
                raise RuntimeError("boom")
        assert builder.current is builder.build(validate=False).root


class TestLeaves:
    def test_ext_shorthand_kwargs(self):
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        node = builder.ext("clip", file="f.vid", channel="v",
                           duration=MediaTime.seconds(2))
        assert node.attributes.get("file") == "f.vid"
        assert node.attributes.get("channel") == "v"
        assert node.attributes.get("duration").value == 2

    def test_imm_shorthand_kwargs(self):
        builder = DocumentBuilder("doc")
        builder.channel("c", "text")
        node = builder.imm("cap", data="hello", channel="c",
                           medium="text", duration=100)
        assert node.data == "hello"
        assert node.attributes.get("medium") == "text"

    def test_extra_attributes_pass_through(self):
        builder = DocumentBuilder("doc")
        node = builder.imm("x", data="d", **{"my-custom": 42})
        assert node.attributes.get("my-custom") == 42


class TestArcs:
    def test_arc_accepts_names_and_numbers(self):
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        with builder.par("p"):
            a = builder.imm("a", channel="v", data="x", duration=100)
            b = builder.imm("b", channel="v", data="y", duration=100)
        arc = builder.arc(b, source="../a", destination=".",
                          src_anchor="end", dst_anchor="begin",
                          strictness="may", offset=500,
                          min_delay=-10, max_delay=None)
        assert arc.src_anchor is Anchor.END
        assert arc.strictness is Strictness.MAY
        assert arc.offset.value == 500
        assert arc.min_delay.value == -10
        assert arc.max_delay is None
        assert b.arcs == [arc]


class TestValidationOnBuild:
    def test_build_validates_by_default(self):
        builder = DocumentBuilder("doc")
        builder.imm("cap", channel="ghost-channel", data="x",
                    duration=100)
        with pytest.raises(CmifError, match="ghost-channel"):
            builder.build()

    def test_build_without_validation(self):
        builder = DocumentBuilder("doc")
        builder.imm("cap", channel="ghost-channel", data="x",
                    duration=100)
        document = builder.build(validate=False)
        assert document.root.child_named("cap") is not None

    def test_styles_and_descriptors_registered(self):
        from repro.core.channels import Medium
        from repro.core.descriptors import DataDescriptor
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        builder.style("big", size=20)
        builder.descriptor("f", DataDescriptor(
            "f", Medium.VIDEO, attributes={"duration": 100}))
        builder.ext("clip", file="f", channel="v")
        document = builder.build()
        assert "big" in document.styles
        assert document.resolve_descriptor("f") is not None
