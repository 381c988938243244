"""Compiled navigation pinned to the interpretive reference.

The property test drives random linked documents through randomized
choice traces on both :class:`NavigationSession` (interpretive) and
:class:`CompiledNavigationSession` (table-driven) and requires every
observable — link tables, active sets, jumps with their invalidation
reports, positions, on-screen events, histories — to be *equal*, not
approximately equal.  Error parity is pinned too: a broken conditional
arc raises the same error with the same message at the same moment
(session construction), even though the compiled program is built
ahead of time.
"""

import random

import pytest

from repro.core.builder import DocumentBuilder
from repro.core.edit import retime
from repro.core.errors import NavigationError, PathError
from repro.core.syncarc import ConditionalArc
from repro.corpus.generate import make_linked_document
from repro.pipeline.navprogram import (compile_navigation, navigation_for,
                                       random_trace)
from repro.pipeline.program import BatchPlayer, ProgramCache
from repro.timing import schedule_document
from tests.oracles.navigation import NavigationSession


def linked_schedule():
    """The small hand-built hyperdoc from tests/test_navigation.py."""
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
    return document, menu


class TestCompiledEquivalence:
    """Randomized: compiled sessions are bit-identical to interpretive."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_documents_random_traces(self, seed):
        document = make_linked_document(seed, events=18, links=5)
        schedule = schedule_document(document.compile())
        program = compile_navigation(schedule)
        reference = NavigationSession(schedule)
        compiled = program.session()

        assert compiled.links == reference.links

        rng = random.Random(1000 + seed)
        trace = random_trace(schedule, rng, follows=4, program=program)
        for choice in trace:
            reference.advance_to(choice.at_ms)
            compiled.advance_to(choice.at_ms)
            assert compiled.active_links() == reference.active_links()
            assert (compiled.conditions_available()
                    == reference.conditions_available())
            expected = reference.follow(choice.condition)
            actual = compiled.follow(choice.condition)
            assert actual == expected
            assert compiled.position_ms == reference.position_ms
            assert compiled.on_screen() == reference.on_screen()
        assert compiled.history == reference.history

    @pytest.mark.parametrize("seed", range(4))
    def test_rewind_parity(self, seed):
        document = make_linked_document(seed, events=18, links=5)
        schedule = schedule_document(document.compile())
        program = compile_navigation(schedule)
        reference = NavigationSession(schedule)
        compiled = program.session()
        rng = random.Random(seed)
        for choice in random_trace(schedule, rng, follows=2,
                                   program=program):
            reference.advance_to(choice.at_ms)
            compiled.advance_to(choice.at_ms)
            reference.follow(choice.condition)
            compiled.follow(choice.condition)
        reference.rewind()
        compiled.rewind()
        assert compiled.position_ms == reference.position_ms == 0.0
        # Post-rewind jumps see the same watched intervals.
        for session in (reference, compiled):
            session.advance_to(100.0)
        assert (compiled.conditions_available()
                == reference.conditions_available())

    def test_advance_backwards_raises_identically(self):
        document, _menu = linked_schedule()
        schedule = schedule_document(document.compile())
        compiled = compile_navigation(schedule).session()
        compiled.advance_to(3000.0)
        with pytest.raises(NavigationError, match="moves backwards"):
            compiled.advance_to(1000.0)

    def test_follow_unavailable_condition_raises_identically(self):
        document, _menu = linked_schedule()
        schedule = schedule_document(document.compile())
        reference = NavigationSession(schedule)
        compiled = compile_navigation(schedule).session()
        with pytest.raises(NavigationError) as compiled_error:
            compiled.follow("pick-chapter-1")
        with pytest.raises(NavigationError) as reference_error:
            reference.follow("pick-chapter-1")
        assert str(compiled_error.value) == str(reference_error.value)


class TestDeferredErrors:
    """Broken links fail at session construction on both paths."""

    def test_path_error_deferred_to_session(self):
        document, menu = linked_schedule()
        menu.add_arc(ConditionalArc(".", "../missing", condition="bad"))
        schedule = schedule_document(document.compile())
        with pytest.raises(PathError) as reference_error:
            NavigationSession(schedule)
        # Compilation itself must not raise: the program is built ahead
        # of time (admission, ingest) where the interpretive reference
        # would not have run yet.
        program = compile_navigation(schedule)
        assert program.deferred_error is not None
        assert program.links == ()
        with pytest.raises(PathError) as compiled_error:
            program.session()
        assert str(compiled_error.value) == str(reference_error.value)


class TestNavigationCache:
    """Programs live in the shared cache under (schedule, revision)."""

    def test_cached_per_schedule_and_revision(self):
        document, _menu = linked_schedule()
        cache = ProgramCache()
        schedule = schedule_document(document.compile())
        first = navigation_for(schedule, program_cache=cache)
        again = navigation_for(schedule, program_cache=cache)
        assert again is first
        assert cache.hits == 1

    def test_edit_invalidates(self):
        document, _menu = linked_schedule()
        cache = ProgramCache()
        schedule = schedule_document(document.compile())
        first = navigation_for(schedule, program_cache=cache)
        retime(document, "/body/intro", 3000)
        fresh = schedule_document(document.compile())
        second = navigation_for(fresh, program_cache=cache)
        assert second is not first
        assert second.revision == document.revision
        # The edit moved every downstream activity window.
        assert second.links != first.links

    def test_uncached_compilation_standalone(self):
        document, _menu = linked_schedule()
        schedule = schedule_document(document.compile())
        program = navigation_for(schedule)
        assert program.describe().startswith("navigation program: 2 ")


class TestWarm:
    """warm() primes one run plan per distinct destination."""

    def test_warm_counts_distinct_destinations(self):
        document, menu = linked_schedule()
        # Two links, one shared target: destinations deduplicate.
        menu.add_arc(ConditionalArc(".", "../chapter-1",
                                    condition="pick-chapter-1-too"))
        schedule = schedule_document(document.compile())
        program = compile_navigation(schedule)
        assert len(program.links) == 3
        player = BatchPlayer(schedule, seed=3)
        assert program.warm(player) == len(program.destinations) == 2

    def test_warmed_player_replays_bit_identically(self):
        document, _menu = linked_schedule()
        schedule = schedule_document(document.compile())
        program = compile_navigation(schedule)
        cold = BatchPlayer(schedule, seed=3)
        warmed = BatchPlayer(schedule, seed=3)
        program.warm(warmed)
        for replay, target in enumerate(program.destinations):
            warm_report = warmed.run_one(seek_to_ms=target, replay=replay)
            cold_report = cold.run_one(seek_to_ms=target, replay=replay)
            assert warm_report.materialize() == cold_report.materialize()
