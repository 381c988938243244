"""Cross-layer cache invalidation: edits never serve stale artifacts.

The serving engine stacks five derived levels over a document —
requirements → schedule → playback program → adapted/derived programs
→ navigation program — each cached under the document's revision.  One
parametrized sweep applies every editing operation that bumps the
revision to a *served* document, re-admits it, and asserts that every
level either recomputed (fresh object identity, cache miss counted) or
is provably stale-free (equal to a from-scratch recompute, bit-identical
replay against the interpretive reference player).
"""

import pytest

from repro.core.edit import add_arc, remove_arc, retime
from repro.core.builder import DocumentBuilder
from repro.core.syncarc import ConditionalArc
from repro.pipeline.navprogram import compile_navigation, navigation_for
from repro.pipeline.player import Player
from repro.serving import SessionEngine
from repro.timing import schedule_document
from repro.transport.environments import WORKSTATION
from tests.oracles.navigation import NavigationSession


def build_document():
    """seq(intro, menu, chapter-1, chapter-2) with menu links."""
    builder = DocumentBuilder("hyperdoc")
    builder.channel("v", "video")
    with builder.seq("body", channel="v"):
        builder.imm("intro", data="i", duration=2000)
        menu = builder.imm("menu", data="m", duration=4000)
        builder.imm("chapter-1", data="1", duration=5000)
        builder.imm("chapter-2", data="2", duration=5000)
    document = builder.build()
    menu.add_arc(ConditionalArc(".", "../chapter-1",
                                condition="pick-chapter-1"))
    menu.add_arc(ConditionalArc(".", "../chapter-2",
                                condition="pick-chapter-2"))
    return document


EDITS = {
    "retime-leaf": lambda document: retime(
        document, "/body/intro", 3000),
    "add-arc": lambda document: add_arc(
        document, "/body/chapter-1",
        ConditionalArc(".", "../chapter-2", condition="skip-ahead")),
    "remove-arc": lambda document: remove_arc(
        document, "/body/menu", 0),
}


@pytest.mark.parametrize("operation", sorted(EDITS))
class TestEditInvalidatesEveryLevel:
    def serve_once(self, engine, document):
        """Admit + replay once; returns the session and its artifacts."""
        session = engine.admit(document, WORKSTATION)
        assert session.admitted
        report = session.play()
        requirements = engine.requirements_cache.requirements_for(
            document)
        navigation = navigation_for(session.schedule,
                                    program_cache=engine.program_cache)
        return session, requirements, navigation, report

    def test_every_level_recomputes(self, operation):
        engine = SessionEngine(seed=5)
        document = build_document()
        before = self.serve_once(engine, document)
        session_before, requirements_before, navigation_before, _ = before
        revision_before = document.revision

        EDITS[operation](document)
        assert document.revision > revision_before

        after = self.serve_once(engine, document)
        session_after, requirements_after, navigation_after, _ = after

        # Identity: every derived level was rebuilt, not re-served.
        assert requirements_after is not requirements_before
        assert session_after.schedule is not session_before.schedule
        assert session_after.program is not session_before.program
        assert navigation_after is not navigation_before
        assert navigation_after.revision == document.revision

    def test_miss_counted_at_every_cache(self, operation):
        engine = SessionEngine(seed=5)
        document = build_document()
        self.serve_once(engine, document)
        requirements_misses = engine.requirements_cache.misses
        schedule_misses = engine.schedule_cache.misses
        program_misses = engine.program_cache.misses

        EDITS[operation](document)
        self.serve_once(engine, document)

        assert engine.requirements_cache.misses > requirements_misses
        assert engine.schedule_cache.misses > schedule_misses
        assert engine.program_cache.misses > program_misses

    def test_served_results_are_stale_free(self, operation):
        """Post-edit serving output equals a from-scratch recompute."""
        engine = SessionEngine(seed=5)
        document = build_document()
        self.serve_once(engine, document)
        EDITS[operation](document)
        session, _requirements, navigation, report = self.serve_once(
            engine, document)

        fresh_schedule = schedule_document(document.compile())
        fresh_navigation = compile_navigation(fresh_schedule)
        assert navigation.links == fresh_navigation.links
        assert (session.schedule.total_duration_ms
                == fresh_schedule.total_duration_ms)
        assert (navigation.session().links
                == NavigationSession(fresh_schedule).links)

        # The replay itself: bit-identical to the interpretive
        # reference player on a freshly scheduled document.
        reference_player = Player(WORKSTATION, seed=session.seed)
        reference = reference_player.play(
            fresh_schedule, rng=session.rng_for(0))
        assert report.materialize() == reference

    def test_unedited_document_keeps_hitting(self, operation):
        """Control: without the edit, re-admission is all cache hits."""
        engine = SessionEngine(seed=5)
        document = build_document()
        self.serve_once(engine, document)
        schedule_misses = engine.schedule_cache.misses
        program_misses = engine.program_cache.misses
        self.serve_once(engine, document)
        assert engine.schedule_cache.misses == schedule_misses
        assert engine.program_cache.misses == program_misses
