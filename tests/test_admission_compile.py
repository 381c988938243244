"""A cold admission compiles its document once.

``SessionEngine.admit`` derives the requirement profile and, on a
schedule miss, solves the schedule from one ``CompiledDocument``; a
second profile's admission of the same revision compiles nothing.  The
shared compile changes no cache's hit or miss count, and the profile
keeps no reference into the compiled events, which a live-edit retime
later mutates in place.
"""

from __future__ import annotations

import enum
import gc
import types

import pytest

from repro.core.descriptors import DataDescriptor, EventDescriptor
from repro.core.document import CmifDocument, CompiledDocument
from repro.corpus import make_media_document, make_news_document
from repro.faults import FaultPlan
from repro.serving import SessionEngine
from repro.timing.schedule import schedule_document
from repro.transport import requirements as requirements_module
from repro.transport.environments import (PERSONAL_SYSTEM, PROFILES,
                                          WORKSTATION)


@pytest.fixture()
def compiles(monkeypatch):
    """Every ``CompiledDocument`` built while the test runs, in order."""
    built: list[CompiledDocument] = []
    original = CmifDocument.compile

    def counting(self):
        compiled = original(self)
        built.append(compiled)
        return compiled

    monkeypatch.setattr(CmifDocument, "compile", counting)
    return built


@pytest.fixture()
def profiled(monkeypatch):
    """The ``compiled`` argument of every requirement-profile derivation."""
    seen: list = []
    original = requirements_module.compute_requirements

    def recording(document, compiled=None):
        seen.append(compiled)
        return original(document, compiled)

    monkeypatch.setattr(requirements_module, "compute_requirements",
                        recording)
    return seen


def _document():
    return make_media_document(4, events=30, rich=False)


def test_a_cold_admission_compiles_once(compiles, profiled):
    engine = SessionEngine(seed=3)
    session = engine.admit(_document(), WORKSTATION)
    assert session.admitted
    assert len(compiles) == 1
    assert profiled == [compiles[0]]
    assert session.schedule.compiled is compiles[0]


def test_a_second_profile_compiles_nothing(compiles):
    engine = SessionEngine(seed=3)
    document = _document()
    engine.admit(document, WORKSTATION)
    del compiles[:]
    session = engine.admit(document, PERSONAL_SYSTEM)
    assert session.admitted
    assert compiles == []


def test_the_solve_fault_path_compiles_once(compiles, profiled):
    engine = SessionEngine(seed=3, faults=FaultPlan(solve_failure_rate=1.0))
    session = engine.admit(_document(), WORKSTATION)
    assert engine.robustness.degraded_solves == 1
    assert len(compiles) == 1
    assert profiled == [compiles[0]]
    assert session.schedule.compiled is compiles[0]
    cold = schedule_document(session.document.compile())
    assert session.schedule.times_ms == cold.times_ms


def _script(engine: SessionEngine) -> list[tuple]:
    """Admissions across documents, profiles, a live edit and a refused
    terminal; returns each cache's (hits, misses) after every step."""
    documents = [make_media_document(seed, events=14) for seed in range(3)]
    documents.append(make_news_document(stories=1).document)
    counts = []

    def record():
        counts.append((engine.requirements_cache.hits,
                       engine.requirements_cache.misses,
                       engine.schedule_cache.hits,
                       engine.schedule_cache.misses))

    for document in documents:
        for environment in PROFILES:
            engine.admit(document, environment)
            record()
    edited = documents[0]
    session = engine.admit(edited, WORKSTATION)
    leaf = session.schedule.compiled.events[0].node_path
    engine.apply_edit(edited, {"op": "retime", "path": leaf,
                               "duration_ms": 1234.0}, sessions=[session])
    record()
    for environment in PROFILES:
        engine.admit(edited, environment)
        record()
    engine.admit(documents[1], PERSONAL_SYSTEM)
    record()
    return counts


#: The counts the script leaves at the parent of the shared compile,
#: where every admission's profile and cold solve compiled on their own.
PARENT_COUNTS = [
    (0, 1, 0, 1), (1, 1, 1, 1), (2, 1, 2, 1),
    (2, 2, 2, 2), (3, 2, 3, 2), (4, 2, 3, 2),
    (4, 3, 3, 3), (5, 3, 4, 3), (6, 3, 5, 3),
    (6, 4, 5, 4), (7, 4, 6, 4), (8, 4, 6, 4),
    (9, 4, 8, 4),
    (9, 5, 9, 4), (10, 5, 10, 4), (11, 5, 11, 4),
    (12, 5, 12, 4),
]


def test_cache_counts_match_separate_compiles(compiles):
    engine = SessionEngine(seed=3)
    assert _script(engine) == PARENT_COUNTS


def test_the_profile_holds_no_reference_into_compiled_events(compiles):
    engine = SessionEngine(seed=3)
    document = _document()
    session = engine.admit(document, WORKSTATION)
    profile = engine.requirements_cache.requirements_for(document)
    compiled = session.schedule.compiled
    assert compiles == [compiled]
    inside = {id(compiled), id(compiled.events), id(compiled.by_node),
              id(compiled.per_channel)}
    for event in compiled.events:
        inside.update((id(event), id(event.attributes)))
    reachable = _reachable(profile)
    assert not any(id(item) in inside for item in reachable)
    assert not any(isinstance(item, (EventDescriptor, CompiledDocument,
                                     DataDescriptor))
                   for item in reachable)
    before = profile.as_dict()
    leaf = compiled.events[0].node_path
    engine.apply_edit(document, {"op": "retime", "path": leaf,
                                 "duration_ms": 4321.0}, sessions=[session])
    assert compiled.events[0].duration_ms == 4321.0   # mutated in place
    assert profile.as_dict() == before


def _reachable(root) -> list:
    """Every object reachable from ``root`` through containers and
    instance state (classes, modules, functions and enums excluded)."""
    opaque = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, enum.Enum, str, bytes, int, float)
    seen: set[int] = set()
    found = []
    stack = [root]
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, opaque):
            continue
        seen.add(id(item))
        found.append(item)
        stack.extend(gc.get_referents(item))
    return found
