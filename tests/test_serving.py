"""Tests for the multi-tenant session engine (repro.serving)."""

import pytest

from repro.core.document import CmifDocument
from repro.core.errors import PlaybackError, ValueError_
from repro.corpus import (generate_serving_corpus, make_media_document,
                          make_news_document)
from repro.serving import SessionEngine
from repro.transport import (FILTERABLE, PLAYABLE, PROFILES, UNPLAYABLE)
from repro.transport.environments import (PERSONAL_SYSTEM,
                                          SILENT_TERMINAL, WORKSTATION)


@pytest.fixture()
def engine():
    return SessionEngine()


@pytest.fixture(scope="module")
def media_documents():
    return [make_media_document(seed, events=14) for seed in range(6)]


class TestAdmission:
    def test_verdicts_route_sessions(self, engine):
        document = make_news_document(stories=1).document
        workstation = engine.admit(document, WORKSTATION)
        assert workstation.verdict == PLAYABLE
        assert workstation.admitted and not workstation.adapted
        personal = engine.admit(document, PERSONAL_SYSTEM)
        assert personal.verdict == FILTERABLE
        assert personal.admitted and personal.adapted
        terminal = engine.admit(document, SILENT_TERMINAL)
        assert terminal.verdict == UNPLAYABLE
        assert not terminal.admitted
        assert terminal.program is None

    def test_rejected_sessions_cannot_play(self, engine):
        document = make_news_document(stories=1).document
        session = engine.admit(document, SILENT_TERMINAL)
        with pytest.raises(PlaybackError, match="not admitted"):
            session.play()

    def test_admission_stats_by_environment(self, engine,
                                            media_documents):
        for document in media_documents:
            for environment in PROFILES:
                engine.admit(document, environment)
        for environment in PROFILES:
            stats = engine.stats[environment.name]
            assert stats.sessions == len(media_documents)
            assert (stats.playable + stats.filtered + stats.rejected
                    == stats.sessions)
        assert engine.stats[PERSONAL_SYSTEM.name].filtered > 0

    def test_one_walk_one_solve_per_document(self, engine,
                                             media_documents):
        """The tentpole sharing claim: N environments and M tenants
        cost one requirements walk and one solve per document."""
        for document in media_documents:
            for environment in PROFILES:
                for _ in range(3):
                    engine.admit(document, environment)
        assert engine.requirements_cache.misses == len(media_documents)
        assert engine.schedule_cache.misses <= len(media_documents)
        assert len(engine.schedule_cache) <= len(media_documents)

    def test_sessions_share_players_per_environment(self, engine):
        document = make_media_document(0, events=12)
        first = engine.admit(document, PERSONAL_SYSTEM)
        second = engine.admit(document, PERSONAL_SYSTEM)
        assert first.player is second.player
        assert first.program is second.program
        other = engine.admit(document, WORKSTATION)
        if other.admitted:
            assert other.player is not first.player


class TestReplay:
    def test_session_replays_are_deterministic(self):
        document = make_media_document(2, events=12)
        reports = []
        for _ in range(2):
            engine = SessionEngine(seed=5)
            session = engine.admit(document, PERSONAL_SYSTEM)
            reports.append([session.play().materialize()
                            for _ in range(3)])
        assert reports[0] == reports[1]

    def test_distinct_sessions_draw_distinct_jitter(self, engine):
        document = make_media_document(2, events=12)
        first = engine.admit(document, PERSONAL_SYSTEM)
        second = engine.admit(document, PERSONAL_SYSTEM)
        report_a = first.play().materialize()
        report_b = second.play().materialize()
        assert first.seed != second.seed
        assert report_a != report_b  # jitter_ms > 0 on this profile

    def test_play_updates_session_and_stats(self, engine):
        document = make_media_document(2, events=12)
        session = engine.admit(document, PERSONAL_SYSTEM)
        assert engine.drive([session], replays=4) == 4
        assert session.replays_run == 4
        assert session.events_played > 0
        stats = engine.stats[PERSONAL_SYSTEM.name]
        assert stats.replays == 4
        assert stats.events_played == session.events_played

    def test_drive_round_robins_admitted_sessions(self, engine,
                                                  media_documents):
        sessions = [engine.admit(document, environment)
                    for document in media_documents
                    for environment in PROFILES]
        admitted = [session for session in sessions if session.admitted]
        performed = engine.drive(sessions, replays=2)
        assert performed == 2 * len(admitted)
        assert all(session.replays_run == 2 for session in admitted)
        assert all(session.replays_run == 0 for session in sessions
                   if not session.admitted)


class TestServe:
    def test_serve_reports_consistently(self, engine, media_documents):
        report = engine.serve(media_documents, PROFILES,
                              sessions_per_pair=2, replays=2)
        assert report.documents == len(media_documents)
        assert report.sessions == len(media_documents) * len(PROFILES) * 2
        assert report.admitted + report.rejected == report.sessions
        assert report.replays == report.admitted * 2
        assert report.events_played > 0
        text = report.describe()
        assert "sessions/s" in text
        for environment in PROFILES:
            assert environment.name in text

    def test_serve_validates_sessions_per_pair(self, engine,
                                               media_documents):
        with pytest.raises(ValueError_):
            engine.serve(media_documents, PROFILES, sessions_per_pair=0)

    def test_capability_twins_share_compiled_state(self, media_documents):
        """Two differently-named but identical environments hit the
        same program-cache entries (fingerprint keying)."""
        engine = SessionEngine()
        twin = PERSONAL_SYSTEM.degraded(name="thin-client")
        document = media_documents[0]
        original = engine.admit(document, PERSONAL_SYSTEM)
        mirrored = engine.admit(document, twin)
        assert mirrored.program is original.program

    def test_generated_package_corpus_serves(self, tmp_path):
        from repro.cli import load_document
        paths = generate_serving_corpus(tmp_path, documents=4, events=12,
                                        seed=3)
        documents = [load_document(str(path)) for path in paths]
        engine = SessionEngine()
        report = engine.serve(documents, PROFILES, replays=1)
        assert report.documents == 4
        assert report.admitted > 0

    def test_describe_mentions_caches(self, engine, media_documents):
        engine.serve(media_documents[:2], PROFILES, replays=1)
        text = engine.describe()
        assert "requirements cache" in text
        assert "schedule cache" in text
        assert "program cache" in text


class TestEditorAttach:
    def test_an_editor_starts_from_the_admitted_schedule(self, engine,
                                                         monkeypatch):
        """Attaching a live editor to a served document neither compiles
        nor solves a schedule of its own for the cache: it starts from
        the object admission published, which keys the cached programs."""
        document = make_media_document(2, events=30)
        for environment in PROFILES:
            engine.admit(document, environment)
        admitted = engine.schedule_cache.get(document)
        assert admitted is not None
        compiled_documents = []
        compile_document = CmifDocument.compile

        def counting_compile(self, *args, **kwargs):
            compiled_documents.append(self)
            return compile_document(self, *args, **kwargs)

        put_schedules = []
        put = engine.schedule_cache.put

        def spying_put(document, schedule, **kwargs):
            put_schedules.append(schedule)
            return put(document, schedule, **kwargs)

        monkeypatch.setattr(CmifDocument, "compile", counting_compile)
        monkeypatch.setattr(engine.schedule_cache, "put", spying_put)
        editor = engine.editor_for(document)
        assert compiled_documents == []
        assert all(schedule is admitted for schedule in put_schedules)
        assert engine.schedule_cache.get(document) is admitted
        assert editor.schedule is admitted
        assert editor.stats.full_rebuilds == 1
