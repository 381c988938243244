"""Integration tests: the full pipeline, end to end (paper figure 1)."""

import pytest

from repro.pipeline import run_pipeline
from repro.timing import schedule_document
from repro.transport import (PERSONAL_SYSTEM, WORKSTATION, negotiate,
                             pack, unpack)


class TestPipelineRun:
    def test_all_stages_produce_artifacts(self, news_corpus):
        run = run_pipeline(news_corpus.document, WORKSTATION)
        assert len(run.presentation.regions) == 4   # visual channels
        assert len(run.presentation.speakers) == 1  # audio channel
        assert run.schedule.total_duration_ms > 0
        assert run.playback.played

    def test_workstation_honours_all_must_arcs(self, news_corpus):
        run = run_pipeline(news_corpus.document, WORKSTATION)
        assert run.playback.must_violations == []

    def test_personal_system_filters_and_struggles(self, news_corpus):
        run = run_pipeline(news_corpus.document, PERSONAL_SYSTEM)
        assert run.filter_plan.actions  # degradation was needed
        # The slower devices break some tight must windows — the
        # transportability story: same document, measurably different
        # fidelity.
        assert run.playback.max_skew_ms > run_pipeline(
            news_corpus.document, WORKSTATION).playback.max_skew_ms


class TestTransportCycle:
    def test_author_transport_play_cycle(self, news_corpus):
        """Author on one system, pack, unpack elsewhere, negotiate,
        schedule, play — the paper's full transportable-document story."""
        package = pack(news_corpus.document, news_corpus.store)
        received = unpack(package)
        verdict = negotiate(received.document, WORKSTATION)
        assert verdict.ok
        schedule = schedule_document(received.document.compile())
        original = schedule_document(news_corpus.document.compile())
        assert schedule.total_duration_ms == pytest.approx(
            original.total_duration_ms)

    def test_schedules_identical_after_transport(self, news_corpus):
        package = pack(news_corpus.document, news_corpus.store)
        received = unpack(package)
        original = schedule_document(news_corpus.document.compile())
        restored = schedule_document(received.document.compile())
        assert [(e.event.node_path, e.begin_ms, e.end_ms)
                for e in original.events] == [
            (e.event.node_path, e.begin_ms, e.end_ms)
            for e in restored.events]

    def test_text_form_transport(self, news_corpus):
        """The document tree 'can be passed from one location to another
        with or without the underlying data' as human-readable text."""
        from repro.format import parse_document, write_document
        text = write_document(news_corpus.document)
        assert text.startswith("(cmif")
        received = parse_document(text)
        # Without descriptors the document still validates (warnings
        # only) — it is transportable but needs a store to schedule.
        from repro.core.validate import ERROR, validate_document
        issues = validate_document(received)
        assert [i for i in issues if i.severity == ERROR] == []
        # Attach the original store: now it schedules.
        received.attach_resolver(news_corpus.store.resolver())
        schedule = schedule_document(received.compile())
        assert schedule.total_duration_ms > 0


class TestAttributeOnlyManipulation:
    def test_pipeline_never_reads_payloads(self, news_corpus):
        """Paper section 6: scheduling, presentation mapping, filtering
        and negotiation all work from descriptors alone."""
        store = news_corpus.store
        store.stats.reset()
        run_pipeline(news_corpus.document, PERSONAL_SYSTEM)
        negotiate(news_corpus.document, PERSONAL_SYSTEM)
        assert store.stats.payload_reads == 0

    def test_search_by_keyword_without_payloads(self, news_corpus):
        store = news_corpus.store
        store.stats.reset()
        results = store.find(keywords="painting")
        assert results
        assert store.stats.payload_reads == 0
