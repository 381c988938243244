"""serving — multi-tenant admission+replay throughput of the engine.

The serving scenario: a mixed media catalog, three heterogeneous client
fleets (the era profiles), several tenant sessions per (document,
environment) pair, several replays per session.  Before this PR every
session paid the whole adaptation pipeline by itself: a negotiation
tree walk, filter-plan derivation, interpretive document adaptation
(deep copy), a cold constraint solve and a playback-program
compilation.  All of that is invariant per (document revision,
environment fingerprint); the :class:`~repro.serving.SessionEngine`
pays it once and shares it through the requirements/schedule/program
caches and per-(program, environment) batch players.

This bench checks the gates recorded in
``benchmarks/baselines/serving.json``:

* **admission_replay**: the engine must beat the retained naive
  per-session path by the baseline factor (>=10x) on an identical
  workload — with *bit-identical* playback reports per session, which
  the bench asserts for every (document, environment) pair;
* **serve_smoke**: the end-to-end ``serve`` path over a generated
  package corpus must come back with every admitted session replayed
  and the shared caches warmed exactly once per document;
* **compile_adaptation**: on seeded rich media packages, unpacked as a
  cold open reads them, under the workstation and personal-system
  profiles, deriving each adaptation program from a warm profile plan
  must beat the retired derivation by the baseline factor (>=1.5x),
  timed in the same process, with identical programs.  The direct
  ``compile_adaptation`` builds the actions as it lowers; the retired
  side is ``tests/oracles/adaptation.py``'s per-event planner
  (``ConstraintFilter.plan(requirements=)``, conflict pass included)
  plus its lowering.

When the ``BENCH_RESULTS`` environment variable names a file, the
admission and adaptation gates merge their measurements into that JSON
document — CI uploads the consolidated ``BENCH_results.json`` as an
artifact.

Run directly for a small report::

    PYTHONPATH=src python benchmarks/bench_serving.py

or through pytest (the CI smoke pass)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_serving.py
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from repro.cli import load_document
from repro.corpus import generate_serving_corpus, make_media_document
from repro.pipeline.adaptation import compile_adaptation
from repro.pipeline.filters import ConstraintFilter
from repro.pipeline.player import Player
from repro.pipeline.program import compile_program
from repro.serving import SESSION_SEED_STRIDE, SessionEngine
from repro.timing.schedule import schedule_document
from repro.transport.environments import (PERSONAL_SYSTEM, PROFILES,
                                          WORKSTATION)
from repro.transport.negotiate import negotiate
from repro.transport.package import pack, unpack
from repro.transport.requirements import compute_requirements

from results import record_result

# The retired derivation is a test oracle, importable from the
# checkout root, which a direct ``python benchmarks/bench_serving.py``
# lacks.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles import adaptation as retired_adaptation  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "baselines" / "serving.json"
BASELINE = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))

GATE = BASELINE["admission_replay"]
SMOKE = BASELINE["serve_smoke"]
ADAPT = BASELINE["compile_adaptation"]


def _corpus(config):
    return [make_media_document(config["seed"] + index,
                                events=config["events"])
            for index in range(config["documents"])]


def _naive_serve(documents, environments, *, sessions_per_pair,
                 replays, seed):
    """The retained pre-engine path: everything per session, no caches.

    Mirrors the engine's session-id/seed assignment exactly so the two
    paths draw identical jitter streams and their reports can be pinned
    bit-identical.  Returns ``(events_played, reports)`` where
    ``reports`` maps (document index, environment name, tenant index)
    to that session's report list.
    """
    events_played = 0
    session_id = 0
    reports: dict[tuple, list] = {}
    for document_index, document in enumerate(documents):
        for environment in environments:
            for tenant in range(sessions_per_pair):
                session_id += 1
                negotiation = negotiate(document, environment)
                if not negotiation.ok:
                    continue
                compiled = document.compile()
                plan = ConstraintFilter(environment).plan(compiled)
                adaptation = compile_adaptation(plan.environment_plan,
                                                compiled, environment)
                adapted = adaptation.adapt_document(document)
                schedule = schedule_document(adapted.compile())
                compile_program(schedule)
                player = Player(environment,
                                seed=seed + session_id
                                * SESSION_SEED_STRIDE)
                session_reports = []
                for replay in range(replays):
                    report = player.play(schedule,
                                         rng=player.rng_for(replay))
                    events_played += len(report.played)
                    session_reports.append(report)
                reports[(document_index, environment.name,
                         tenant)] = session_reports
    return events_played, reports


def _engine_serve(documents, environments, *, sessions_per_pair,
                  replays, seed):
    """The compiled path, instrumented to keep per-session reports."""
    engine = SessionEngine(seed=seed)
    sessions = {}
    for document_index, document in enumerate(documents):
        for environment in environments:
            for tenant in range(sessions_per_pair):
                session = engine.admit(document, environment)
                if session.admitted:
                    sessions[(document_index, environment.name,
                              tenant)] = session
    events_played = 0
    reports: dict[tuple, list] = {key: [] for key in sessions}
    for _ in range(replays):
        for key, session in sessions.items():
            report = session.play()
            events_played += report.played_count
            reports[key].append(report)
    return engine, events_played, reports


def test_admission_replay_throughput():
    """Tentpole acceptance: >=10x admission+replay vs the naive path,
    with bit-identical reports session for session."""
    documents = _corpus(GATE)
    kwargs = dict(sessions_per_pair=GATE["sessions_per_pair"],
                  replays=GATE["replays"], seed=GATE["seed"])

    start = time.perf_counter()
    naive_events, naive_reports = _naive_serve(documents, PROFILES,
                                               **kwargs)
    naive_s = time.perf_counter() - start

    start = time.perf_counter()
    engine, engine_events, engine_reports = _engine_serve(
        documents, PROFILES, **kwargs)
    engine_s = time.perf_counter() - start

    assert engine_events == naive_events
    assert set(engine_reports) == set(naive_reports)
    for key, session_reports in naive_reports.items():
        compiled_reports = engine_reports[key]
        assert len(compiled_reports) == len(session_reports)
        for reference, compact in zip(session_reports, compiled_reports):
            # Bit-identical adapted playback: the acceptance invariant.
            assert compact.materialize() == reference, key

    sessions = (len(documents) * len(PROFILES)
                * GATE["sessions_per_pair"])
    speedup = naive_s / max(engine_s, 1e-12)
    print(f"\n[serving] {sessions} sessions x {GATE['replays']} replays "
          f"({engine_events} events): naive {naive_s * 1000:.0f}ms, "
          f"engine {engine_s * 1000:.0f}ms -> {speedup:.0f}x "
          f"({sessions / max(engine_s, 1e-12):.0f} sessions/s)")
    print(f"  {engine.schedule_cache.describe()}")
    print(f"  {engine.program_cache.describe()}")
    record_result("serving_admission_replay", {
        "sessions": sessions, "replays": GATE["replays"],
        "events": engine_events,
        "naive_ms": round(naive_s * 1000, 1),
        "engine_ms": round(engine_s * 1000, 1),
        "sessions_per_s": round(sessions / max(engine_s, 1e-12), 1),
        "speedup": round(speedup, 1),
        "floor": GATE["min_speedup"]})
    assert speedup >= GATE["min_speedup"], (
        f"session engine only {speedup:.1f}x faster than the naive "
        f"per-session path (baseline floor {GATE['min_speedup']}x)")


def test_serve_smoke(tmp_path):
    """End-to-end: generated package corpus in, replayed sessions out."""
    directory = tmp_path / "catalog"
    generate_serving_corpus(directory, documents=SMOKE["documents"],
                            events=SMOKE["events"], seed=SMOKE["seed"])
    documents = [load_document(str(path))
                 for path in sorted(directory.glob("*.cmifpkg"))]
    engine = SessionEngine(seed=SMOKE["seed"])
    report = engine.serve(documents, PROFILES,
                          sessions_per_pair=SMOKE["sessions_per_pair"],
                          replays=SMOKE["replays"])
    assert report.documents == SMOKE["documents"]
    assert report.sessions == (SMOKE["documents"] * len(PROFILES)
                               * SMOKE["sessions_per_pair"])
    assert report.admitted + report.rejected == report.sessions
    assert report.admitted > 0
    assert report.replays == report.admitted * SMOKE["replays"]
    # One requirement walk and one solve per document, total, across
    # every environment and tenant session.
    assert len(engine.requirements_cache) == SMOKE["documents"]
    assert len(engine.schedule_cache) == SMOKE["documents"]
    print(f"\n[serving] smoke:\n{report.describe()}")


def _adaptation_cases() -> list[tuple]:
    """(warm profile, compiled document, environment) for each seeded
    rich media package, unpacked as a cold open reads it, and each of
    the gate's environments."""
    rng = random.Random(ADAPT["seed"])
    low, high = ADAPT["events"]
    count = ADAPT["packages"]
    cases = []
    for index in range(count):
        document = unpack(pack(make_media_document(
            rng.randrange(1 << 30),
            events=low + (high - low) * index // (count - 1), links=4,
            rich=True))).document
        compiled = document.compile()
        profile = compute_requirements(document, compiled)
        for environment in (WORKSTATION, PERSONAL_SYSTEM):
            profile.plan_for(environment)
            cases.append((profile, compiled, environment))
    return cases


def _derive(profile, compiled, environment):
    """The direct lowering of the profile's plan."""
    return compile_adaptation(profile.plan_for(environment), compiled,
                              environment)


def _derive_retired(profile, compiled, environment):
    """The retired per-event planner, then the retired lowering."""
    plan = retired_adaptation.ConstraintFilter(environment).plan(
        compiled, requirements=profile)
    return retired_adaptation.compile_adaptation(plan, compiled,
                                                 environment)


def _derive_all(derive, cases) -> float:
    start = time.perf_counter()
    for case in cases:
        derive(*case)
    return time.perf_counter() - start


def test_compile_adaptation_throughput():
    """Warm profile plan to program, direct vs retired: >=1.5x, same
    programs."""
    cases = _adaptation_cases()
    ops = slots = 0
    for case in cases:
        program = _derive(*case)
        retired = _derive_retired(*case)
        assert program == retired
        assert all(mine is theirs for mine, theirs
                   in zip(program.originals, retired.originals))
        ops += len(program.op_slot)
        slots += len(program.descriptor_ids)
    retired_s = direct_s = float("inf")
    for _ in range(ADAPT["rounds"]):     # interleaved: same machine state
        retired_s = min(retired_s, _derive_all(_derive_retired, cases))
        direct_s = min(direct_s, _derive_all(_derive, cases))
    speedup = retired_s / max(direct_s, 1e-12)
    print(f"\n[serving] compile_adaptation: {len(cases)} derivations, "
          f"{ops} ops over {slots} slots: retired "
          f"{retired_s * 1000:.2f}ms, direct {direct_s * 1000:.2f}ms "
          f"-> {speedup:.2f}x")
    record_result("serving_compile_adaptation", {
        "derivations": len(cases), "ops": ops, "slots": slots,
        "retired_ms": round(retired_s * 1000, 3),
        "direct_ms": round(direct_s * 1000, 3),
        "speedup": round(speedup, 3),
        "floor": ADAPT["min_speedup"]})
    assert speedup >= ADAPT["min_speedup"], (
        f"the direct compile_adaptation is only {speedup:.2f}x faster "
        f"than the retired derivation (baseline floor "
        f"{ADAPT['min_speedup']}x)")


def main():
    test_admission_replay_throughput()
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        test_serve_smoke(Path(scratch))
    test_compile_adaptation_throughput()
    print(f"floor               : {GATE['min_speedup']}x "
          f"(recorded reference {GATE['reference_speedup']}x)")


if __name__ == "__main__":
    main()
