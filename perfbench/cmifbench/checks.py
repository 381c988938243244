"""Output checks: served results against the interpretive reference.

Every check returns a list of problems (empty = pass).  The references
are the ones the program itself keeps in production or pins in its
equivalence tests:

* a served replay equals the degradation path of
  ``serving/session.py`` — adapt the document interpretively, solve it
  with the reference engine, play it with ``Player.play_reference``
  and the session's own jitter draw;
* an admission verdict equals a fresh ``negotiate`` (no caches);
* a live-edited pyramid equals a cold recompile of a twin document
  that received the same edits through ``repro.core.edit``;
* every ``RobustnessStats`` ledger balances.
"""

from __future__ import annotations

from repro.core import edit as core_edit
from repro.pipeline.adaptation import adaptation_for
from repro.pipeline.navprogram import compile_navigation
from repro.pipeline.patch import arc_from_spec
from repro.pipeline.player import Player
from repro.pipeline.program import compile_program
from repro.timing.schedule import (ENGINE_REFERENCE, schedule_document,
                                   schedule_for)
from repro.transport.negotiate import negotiate


class ReferenceCache:
    """Reference schedules per (document, revision, environment)."""

    def __init__(self) -> None:
        self._schedules: dict[tuple, tuple] = {}

    def schedule(self, session):
        document = session.document
        program = session.program
        adaptation = program.adaptation if program is not None else None
        key = (id(document), document.revision,
               session.environment.fingerprint())
        entry = self._schedules.get(key)
        if entry is None:
            adapted = (adaptation.adapt_document(document)
                       if adaptation is not None else document)
            entry = (document, schedule_document(adapted.compile(),
                                                 engine=ENGINE_REFERENCE))
            self._schedules[key] = entry
        return entry[1]


def check_replays(recorded, references: ReferenceCache) -> list[str]:
    """Recorded ``(session, replay, kwargs, report, revision)`` replays
    whose document has not changed since must equal the reference."""
    problems = []
    for session, replay, kwargs, report, revision in recorded:
        if revision != session.document.revision:
            continue
        reference = Player(session.environment).play_reference(
            references.schedule(session), rng=session.rng_for(replay),
            **kwargs)
        if report.materialize() != reference:
            problems.append(
                f"session {session.session_id} replay {replay} on "
                f"{session.environment.name} differs from the reference "
                f"path")
    return problems


def check_verdicts(admitted) -> list[str]:
    """``(session, revision)`` admissions against a fresh negotiate."""
    problems = []
    for session, revision in admitted:
        if revision != session.document.revision:
            continue
        fresh = negotiate(session.document, session.environment).verdict
        if fresh != session.verdict:
            problems.append(
                f"session {session.session_id} admitted as "
                f"{session.verdict} on {session.environment.name}, a "
                f"fresh negotiation says {fresh}")
    return problems


def check_ledgers(ledgers: dict) -> list[str]:
    return [f"{name} fault ledger does not balance: {ledger.describe()}"
            for name, ledger in ledgers.items() if not ledger.balanced()]


def apply_to_twin(twin, spec: dict) -> None:
    """Mirror one live-edit spec onto the twin through core edit ops."""
    op = spec["op"]
    if op == "retime":
        core_edit.retime(twin, spec["path"], spec["duration_ms"])
    elif op == "add_arc":
        core_edit.add_arc(twin, spec["owner"], arc_from_spec(spec))
    elif op == "remove_arc":
        core_edit.remove_arc(twin, spec["owner"], spec["index"])
    else:
        raise ValueError(f"the live-edit script has no {op!r} edits")


def _program_rows(program) -> tuple:
    return (list(program.begin_ms), list(program.end_ms),
            list(program.channel_index), program.node_paths,
            list(program.audit_arcs))


def check_pyramid(engine, document, twin, environments, *,
                  kernel) -> list[str]:
    """The engine's patched pyramid for ``document`` equals a cold
    compile of ``twin`` (which received the same edits), level by
    level: schedule times, base program, every environment's adapted
    program, and the navigation program when one is cached."""
    name = document.root.name
    editor = engine.editor_for(document)
    hot_schedule = editor.schedule
    cold_schedule = schedule_for(twin, kernel=kernel)
    if hot_schedule.times_ms != cold_schedule.times_ms:
        return [f"{name}: patched schedule differs from a cold solve"]
    cold_program = compile_program(cold_schedule)
    cache = engine.program_cache
    hot_base = cache.get(hot_schedule)
    if hot_base is None:
        return [f"{name}: no base program cached after the edits"]
    problems = []
    if _program_rows(hot_base) != _program_rows(cold_program):
        problems.append(f"{name}: patched base program differs from a "
                        f"cold compile")
    for environment in environments:
        hot = cache.get(hot_schedule, environment=environment)
        if hot is None:
            continue
        cold = adaptation_for(cold_schedule, environment)
        if _program_rows(hot) != _program_rows(cold_program):
            problems.append(f"{name}: {environment.name} program arrays "
                            f"differ from a cold compile")
        adapted = hot.adaptation
        if adapted is None:
            if not cold.identity:
                problems.append(f"{name}: {environment.name} lost its "
                                f"adaptation")
        elif (adapted.descriptor_ids, adapted.actions,
              adapted.overrides) != (cold.descriptor_ids, cold.actions,
                                     cold.overrides):
            problems.append(f"{name}: {environment.name} adaptation "
                            f"differs from a cold compile")
    hot_nav = cache.get_derived(hot_schedule, "navigation")
    if hot_nav is not None:
        cold_nav = compile_navigation(cold_schedule)
        if (hot_nav.active_from, hot_nav.active_until, hot_nav.targets) \
                != (cold_nav.active_from, cold_nav.active_until,
                    cold_nav.targets):
            problems.append(f"{name}: patched navigation program differs "
                            f"from a cold compile")
    return problems
