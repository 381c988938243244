"""navigation — mixed interactive + batch throughput of the run queue.

The interactive scenario: readers follow hyper-links while batch
tenants replay the same catalog, all interleaved on the engine's run
queue.  Before this PR every interactive session paid the interpretive
path per reader: a full link-collection tree walk to build the
navigation session, another tree walk per jump to find invalidated
arcs, and an interpretive ``play_reference`` run per resumed segment.
All of that is invariant per (document revision) or per (program,
seek destination); the compiled path pays it once — a
:class:`~repro.pipeline.navprogram.NavigationProgram` shared by every
reader of a revision, and per-destination run plans warmed in the
shared batch player so each link follow is a program swap + array
seek.

This bench checks the gate recorded in
``benchmarks/baselines/navigation.json``: the engine's mixed
navigate+replay drive must beat the retained interpretive per-session
path by the baseline factor (>=10x) on an identical workload — with
*bit-identical* segment reports and *equal* jump records (invalidation
reports included) for every session, which the bench asserts.  The
interpretive session is the test oracle in
``tests/oracles/navigation.py``.  When the ``BENCH_RESULTS``
environment variable names a file, the gate merges its measurements
into that JSON document — CI uploads the consolidated
``BENCH_results.json`` as an artifact.

Run directly for a small report::

    PYTHONPATH=src python benchmarks/bench_navigation.py

or through pytest (the CI smoke pass)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_navigation.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from repro.corpus import make_linked_document
from repro.pipeline.adaptation import compile_adaptation
from repro.pipeline.filters import ConstraintFilter
from repro.pipeline.navprogram import random_trace
from repro.pipeline.player import Player
from repro.serving import SESSION_SEED_STRIDE, SessionEngine
from repro.timing.schedule import schedule_document
from repro.transport.environments import PROFILES
from repro.transport.negotiate import negotiate

from results import record_result

# The interpretive navigation session is a test oracle; importable from
# the checkout root, which a direct ``python
# benchmarks/bench_navigation.py`` lacks.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles.navigation import NavigationSession  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "baselines" / "navigation.json"
BASELINE = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))

GATE = BASELINE["interactive_mix"]


def _corpus(config):
    return [make_linked_document(config["seed"] + index,
                                 events=config["events"],
                                 links=config["links"])
            for index in range(config["documents"])]


def _traces(documents, config):
    """Precompute every reader's scripted trace, outside the timing.

    Mirrors the engine's admission order exactly — one session id per
    admit, batch tenants first — so each trace is drawn from the same
    per-session seed the engine would use, and both paths replay the
    identical choice script.
    """
    traces: dict[tuple, list] = {}
    session_id = 0
    for document_index, document in enumerate(documents):
        schedule = schedule_document(document.compile())
        for environment in PROFILES:
            session_id += config["batch_per_pair"]
            for tenant in range(config["interactive_per_pair"]):
                session_id += 1
                seed = (config["seed"]
                        + session_id * SESSION_SEED_STRIDE)
                traces[(document_index, environment.name, tenant)] = \
                    random_trace(schedule, random.Random(seed),
                                 follows=config["follows"])
    return traces


def _adapted_schedule(document, environment):
    """The naive per-session pipeline: adapt, then schedule, cold."""
    compiled = document.compile()
    plan = ConstraintFilter(environment).plan(compiled)
    adaptation = compile_adaptation(plan.environment_plan, compiled,
                                    environment)
    adapted = adaptation.adapt_document(document)
    return schedule_document(adapted.compile())


def _naive_serve(documents, traces, config):
    """The retained interpretive path: everything per session.

    Batch tenants replay through ``play_reference``; interactive
    readers build an interpretive :class:`NavigationSession` (a tree
    walk), replay each watched segment interpretively, and pay the
    per-jump invalidation tree walk on every follow.
    """
    events_played = 0
    session_id = 0
    batch_reports: dict[tuple, list] = {}
    segment_reports: dict[tuple, list] = {}
    jumps: dict[tuple, list] = {}
    for document_index, document in enumerate(documents):
        for environment in PROFILES:
            for tenant in range(config["batch_per_pair"]):
                session_id += 1
                if not negotiate(document, environment).ok:
                    continue
                schedule = _adapted_schedule(document, environment)
                player = Player(environment,
                                seed=config["seed"] + session_id
                                * SESSION_SEED_STRIDE)
                reports = []
                for replay in range(config["replays"]):
                    report = player.play_reference(
                        schedule, rng=player.rng_for(replay))
                    events_played += len(report.played)
                    reports.append(report)
                batch_reports[(document_index, environment.name,
                               tenant)] = reports
            for tenant in range(config["interactive_per_pair"]):
                session_id += 1
                if not negotiate(document, environment).ok:
                    continue
                key = (document_index, environment.name, tenant)
                schedule = _adapted_schedule(document, environment)
                navigator = NavigationSession(
                    schedule_document(document.compile()))
                player = Player(environment,
                                seed=config["seed"] + session_id
                                * SESSION_SEED_STRIDE)
                reports, session_jumps = [], []
                replay = 0
                for choice in traces[key]:
                    position = navigator.position_ms
                    report = player.play_reference(
                        schedule,
                        seek_to_ms=position if position > 0 else 0.0,
                        rng=player.rng_for(replay))
                    replay += 1
                    events_played += len(report.played)
                    reports.append(report)
                    navigator.advance_to(choice.at_ms)
                    session_jumps.append(
                        navigator.follow(choice.condition))
                report = player.play_reference(
                    schedule, seek_to_ms=navigator.position_ms,
                    rng=player.rng_for(replay))
                events_played += len(report.played)
                reports.append(report)
                segment_reports[key] = reports
                jumps[key] = session_jumps
    return events_played, batch_reports, segment_reports, jumps


def _engine_serve(documents, traces, config):
    """The compiled path: one mixed run-queue drive over shared caches."""
    engine = SessionEngine(seed=config["seed"])
    tasks = []
    batch_sessions: dict[tuple, object] = {}
    interactive_tasks: dict[tuple, object] = {}
    for document_index, document in enumerate(documents):
        for environment in PROFILES:
            for tenant in range(config["batch_per_pair"]):
                session = engine.admit(document, environment)
                if session.admitted:
                    batch_sessions[(document_index, environment.name,
                                    tenant)] = session
                    tasks.append(session)
            for tenant in range(config["interactive_per_pair"]):
                key = (document_index, environment.name, tenant)
                task = engine.admit_interactive(
                    document, environment, trace=traces[key],
                    follows=config["follows"])
                if task.admitted:
                    interactive_tasks[key] = task
                    tasks.append(task)
    batch_reports: dict[tuple, list] = {}
    for key, session in batch_sessions.items():
        reports: list = []
        batch_reports[key] = reports
        original = session.play

        def recording_play(_original=original, _reports=reports,
                           **kwargs):
            report = _original(**kwargs)
            _reports.append(report)
            return report

        session.play = recording_play
    engine.drive(tasks, replays=config["replays"])
    events_played = sum(
        report.played_count
        for reports in list(batch_reports.values())
        + [task.reports for task in interactive_tasks.values()]
        for report in reports)
    return (engine, events_played, batch_reports,
            {key: task.reports for key, task in interactive_tasks.items()},
            {key: task.jumps for key, task in interactive_tasks.items()})


def test_interactive_mix_throughput():
    """Tentpole acceptance: >=10x mixed navigate+replay throughput vs
    the interpretive path, bit-identical session for session."""
    documents = _corpus(GATE)
    traces = _traces(documents, GATE)

    start = time.perf_counter()
    naive_events, naive_batch, naive_segments, naive_jumps = \
        _naive_serve(documents, traces, GATE)
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    engine, engine_events, engine_batch, engine_segments, \
        engine_jumps = _engine_serve(documents, traces, GATE)
    engine_s = time.perf_counter() - start

    assert engine_events == naive_events
    assert set(engine_batch) == set(naive_batch)
    for key, references in naive_batch.items():
        compiled = engine_batch[key]
        assert len(compiled) == len(references)
        for reference, compact in zip(references, compiled):
            assert compact.materialize() == reference, key
    assert set(engine_segments) == set(naive_segments)
    for key, references in naive_segments.items():
        compiled = engine_segments[key]
        assert len(compiled) == len(references)
        for reference, compact in zip(references, compiled):
            # Bit-identical interactive segments: the acceptance
            # invariant, seek analysis included.
            assert compact.materialize() == reference, key
        # Equal jumps, invalidation reports and all.
        assert engine_jumps[key] == naive_jumps[key], key

    sessions = (len(documents) * len(PROFILES)
                * (GATE["batch_per_pair"]
                   + GATE["interactive_per_pair"]))
    navigations = sum(len(trace) for trace in traces.values())
    speedup = naive_s / max(engine_s, 1e-12)
    print(f"\n[navigation] {sessions} sessions, {navigations} jumps, "
          f"{engine_events} events: interpretive {naive_s * 1000:.0f}ms, "
          f"engine {engine_s * 1000:.0f}ms -> {speedup:.0f}x")
    print(f"  {engine.last_queue.stats().describe()}")
    print(f"  {engine.program_cache.describe()}")
    record_result("navigation_interactive_mix", {
        "sessions": sessions, "jumps": navigations,
        "events": engine_events,
        "interpretive_ms": round(naive_s * 1000, 1),
        "engine_ms": round(engine_s * 1000, 1),
        "speedup": round(speedup, 1),
        "floor": GATE["min_speedup"]})
    assert speedup >= GATE["min_speedup"], (
        f"run-queue engine only {speedup:.1f}x faster than the "
        f"interpretive per-session path (baseline floor "
        f"{GATE['min_speedup']}x)")


def main():
    test_interactive_mix_throughput()
    print(f"floor               : {GATE['min_speedup']}x "
          f"(recorded reference {GATE['reference_speedup']}x)")


if __name__ == "__main__":
    main()
