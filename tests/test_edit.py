"""Tests for document editing operations (repro.core.edit)."""

import pytest

from repro.core.builder import DocumentBuilder
from repro.core.edit import (add_arc, duplicate, remove, reorder, retime,
                             splice)
from repro.core.errors import StructureError
from repro.core.paths import resolve_path
from repro.core.syncarc import Anchor, SyncArc
from repro.core.timebase import MediaTime
from repro.corpus import make_media_document
from repro.timing import schedule_document


@pytest.fixture()
def document():
    builder = DocumentBuilder("edit-me")
    builder.channel("v", "video")
    builder.channel("c", "text")
    with builder.seq("body"):
        with builder.seq("track", channel="v"):
            builder.imm("a", data="a", duration=1000)
            builder.imm("b", data="b", duration=2000)
            builder.imm("c", data="c", duration=3000)
        with builder.seq("captions", channel="c"):
            cap = builder.imm("cap-1", data="hello", duration=1500)
    doc = builder.build()
    builder.arc(cap, source="../../track/b", destination=".",
                max_delay=None)
    return doc


class TestReorder:
    def test_reorder_changes_presentation_order(self, document):
        report = reorder(document, "/body/track", "c", 0)
        assert report.clean
        track = document.root.child_named("body").child_named("track")
        assert [child.name for child in track.children] == ["c", "a", "b"]
        schedule = schedule_document(document.compile())
        assert schedule.event_for_path("/body/track/c").begin_ms == 0.0

    def test_reorder_out_of_range(self, document):
        with pytest.raises(StructureError, match="out of range"):
            reorder(document, "/body/track", "a", 5)

    def test_reorder_leaf_parent_rejected(self, document):
        with pytest.raises(StructureError, match="leaf"):
            reorder(document, "/body/track/a", "x", 0)


class TestSplice:
    def test_splice_moves_subtree(self, document):
        report = splice(document, "/body/track/c", "/body/captions")
        assert report.subject == "/body/captions/c"
        captions = document.root.child_named("body").child_named(
            "captions")
        assert [child.name for child in captions.children] == [
            "cap-1", "c"]

    def test_splice_with_index(self, document):
        splice(document, "/body/track/c", "/body/captions", index=0)
        captions = document.root.child_named("body").child_named(
            "captions")
        assert captions.children[0].name == "c"

    def test_splice_into_own_subtree_rejected(self, document):
        with pytest.raises(StructureError, match="own subtree"):
            splice(document, "/body", "/body/track")

    def test_splice_root_rejected(self, document):
        with pytest.raises(StructureError, match="root"):
            splice(document, "/", "/body")

    def test_splice_reports_dangling_arcs(self, document):
        """Moving the arc's source breaks the caption's relative path."""
        report = splice(document, "/body/track/b", "/body/captions")
        assert not report.clean
        assert any("track/b" in arc for arc in report.dangling_arcs)


class TestDuplicate:
    def test_duplicate_inserts_sibling_copy(self, document):
        report = duplicate(document, "/body/track/b", "b-again")
        assert report.clean
        track = document.root.child_named("body").child_named("track")
        assert [child.name for child in track.children] == [
            "a", "b", "b-again", "c"]

    def test_duplicate_is_deep_and_independent(self, document):
        duplicate(document, "/body/track", "track-2")
        body = document.root.child_named("body")
        copy = body.child_named("track-2")
        original = body.child_named("track")
        assert [c.name for c in copy.children] == [
            c.name for c in original.children]
        copy.children[0].attributes.set("duration", MediaTime.ms(99))
        assert original.children[0].attributes.get(
            "duration").value == 1000

    def test_duplicate_schedules_both_copies(self, document):
        duplicate(document, "/body/track/a", "a-replay")
        schedule = schedule_document(document.compile())
        first = schedule.event_for_path("/body/track/a")
        second = schedule.event_for_path("/body/track/a-replay")
        assert second.begin_ms >= first.end_ms

    def test_duplicate_name_collision_rejected(self, document):
        with pytest.raises(StructureError, match="share the name"):
            duplicate(document, "/body/track/a", "b")

    def test_duplicate_root_rejected(self, document):
        with pytest.raises(StructureError):
            duplicate(document, "/", "copy")


class TestRetime:
    def test_retime_changes_schedule(self, document):
        retime(document, "/body/track/a", MediaTime.seconds(10))
        schedule = schedule_document(document.compile())
        assert schedule.event_for_path(
            "/body/track/a").duration_ms == 10_000.0

    def test_retime_container_rejected(self, document):
        with pytest.raises(StructureError, match="container"):
            retime(document, "/body/track", 1000)


class TestRemove:
    def test_remove_deletes_subtree(self, document):
        report = remove(document, "/body/track/c")
        assert report.clean
        track = document.root.child_named("body").child_named("track")
        assert [child.name for child in track.children] == ["a", "b"]

    def test_remove_reports_dangling_arcs(self, document):
        """Removing the arc's source leaves the caption's arc dangling."""
        report = remove(document, "/body/track/b")
        assert not report.clean
        assert "cap-1" in report.dangling_arcs[0]

    def test_remove_root_rejected(self, document):
        with pytest.raises(StructureError, match="root"):
            remove(document, "/")

    def test_removed_document_still_schedules(self, document):
        remove(document, "/body/captions")  # takes the arc with it
        schedule = schedule_document(document.compile())
        assert schedule.total_duration_ms == 6000.0


class TestRetargetedArcs:
    """A positional ``#i`` path that a topology edit shifts onto another
    node is reported, not silently followed."""

    def test_duplicate_before_a_positional_endpoint(self):
        document = make_media_document(1, events=16, links=2, rich=True)
        arc = SyncArc("/e0", "/#3", Anchor.END, Anchor.BEGIN,
                      max_delay=None)
        add_arc(document, "/", arc)
        target = resolve_path(document.root, "/#3")
        report = duplicate(document, "/e1", "e1-copy")
        assert resolve_path(document.root, "/#3") is not target
        assert not report.clean
        assert report.dangling_arcs == []
        assert report.retargeted_arcs == [f"/: {arc.describe()}"]

    def test_reorder_of_an_unnamed_sibling(self):
        builder = DocumentBuilder("positional")
        builder.channel("v", "video")
        with builder.seq("body", channel="v"):
            builder.imm("a", data="a", duration=1000)
            builder.imm(data="b", duration=2000)
            builder.imm(data="c", duration=3000)
        document = builder.build()
        arc = SyncArc("/body/#1", "/body/#2", max_delay=None)
        add_arc(document, "/", arc)
        report = reorder(document, "/body", "a", 2)
        assert not report.clean
        assert report.retargeted_arcs == [f"/: {arc.describe()}"]
        add_arc(document, "/body", SyncArc("a", "a", max_delay=None))
        report = reorder(document, "/body", "a", 0)
        # The named arc follows its node; only the positional one moved.
        assert report.retargeted_arcs == [f"/: {arc.describe()}"]
