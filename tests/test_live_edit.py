"""Live authoring against a hot serving fleet (repro.pipeline.patch).

The pin, same discipline as every other compiled layer: a delta-lowered
edit patch over the cached program pyramid is **bit-identical** to a
cold recompile of the edited document — arrays, arc rows, adaptation
compositions, navigation tables and replay reports — across randomized
edit scripts, environments and both numeric kernels.  Plus the
satellites: bounded caches across long edit sessions, per-level
patch/recompile counters, targeted structural fallback that never
touches other documents' entries, and the serving ``edit_script``
entry point.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import edit as core_edit
from repro.core.errors import CmifError, PathError
from repro.core.nodes import NodeKind
from repro.core.paths import node_path, resolve_path
from repro.core.syncarc import (Anchor, ConditionalArc, Strictness,
                                SyncArc)
from repro.core.timebase import MediaTime
from repro.core.tree import iter_preorder
from repro.corpus import make_media_document
from repro.pipeline.adaptation import adaptation_for
from repro.pipeline.navprogram import compile_navigation
from repro.pipeline.program import compile_program
from repro.serving import SessionEngine
from repro.serving.engine import SCHEDULE_CACHE_CAPACITY
from repro.timing.schedule import schedule_for
from repro.transport import PROFILES, negotiate
from repro.transport.environments import PERSONAL_SYSTEM, WORKSTATION
from repro.transport.requirements import compute_requirements

KERNELS = ("python", "numpy")

#: PROFILES[0] without jitter: its replays run on the engine's kernel.
QUIET = PROFILES[0].degraded(name="quiet", jitter_ms=0.0)

#: Capability variants of the era profiles, one changed field each.
VARIANTS = (
    dataclasses.replace(WORKSTATION, name="wk-jittery", jitter_ms=6.0),
    dataclasses.replace(WORKSTATION, name="wk-mono", audio_channels=1),
    dataclasses.replace(WORKSTATION, name="wk-dim", color_depth=8),
    dataclasses.replace(WORKSTATION, name="wk-slow",
                        bandwidth_bps=2_000_000),
    dataclasses.replace(PERSONAL_SYSTEM, name="ps-crisp", jitter_ms=1.0),
    dataclasses.replace(PERSONAL_SYSTEM, name="ps-wide",
                        screen_width=1024, screen_height=768),
)

#: Six compositions a rich document is admitted on everywhere.
SIX = (WORKSTATION, PERSONAL_SYSTEM) + VARIANTS[:3] + VARIANTS[4:5]


def _kernel(name: str) -> str:
    if name == "numpy":
        pytest.importorskip("numpy")
    return name


def _hot_engine(documents, *, kernel: str = "python", seed: int = 9,
                interactive: bool = True):
    """An engine with batch + interactive sessions over ``documents``."""
    engine = SessionEngine(seed=seed, kernel=_kernel(kernel))
    sessions = []
    for document in documents:
        for environment in PROFILES:
            sessions.append(engine.admit(document, environment))
            if interactive:
                sessions.append(
                    engine.admit_interactive(document, environment))
    return engine, sessions


def _assert_program_equal(hot, cold):
    assert list(hot.begin_ms) == list(cold.begin_ms)
    assert list(hot.end_ms) == list(cold.end_ms)
    assert list(hot.channel_index) == list(cold.channel_index)
    assert list(hot.medium_index) == list(cold.medium_index)
    assert hot.node_paths == cold.node_paths
    assert hot.channels == cold.channels
    assert hot.media == cold.media
    assert hot._audit_rows == cold._audit_rows
    assert ([(arc.owner_path, arc.source_events, arc.dest_events,
              arc.strictness, arc.description)
             for arc in hot.nav_arcs]
            == [(arc.owner_path, arc.source_events, arc.dest_events,
                 arc.strictness, arc.description)
                for arc in cold.nav_arcs])


def _assert_navigation_equal(hot, cold):
    assert hot.active_from == cold.active_from
    assert hot.active_until == cold.active_until
    assert hot.conditions == cold.conditions
    assert hot.targets == cold.targets
    assert hot.destinations == cold.destinations
    assert ([(g.src_begin_ms, g.src_end_ms, g.dst_begin_ms)
             for g in hot.guards]
            == [(g.src_begin_ms, g.src_end_ms, g.dst_begin_ms)
                for g in cold.guards])


def _report_arrays(report):
    return (list(report._actual_begin), list(report._actual_end),
            list(report._played_mask))


def _assert_pyramid_matches_cold(engine, document, twin, *,
                                 kernel: str = "python",
                                 environments=PROFILES):
    """Everything cached for ``document`` ≡ cold-compiling ``twin``.

    Each of ``environments`` that admits ``twin`` has its composition
    cached under the edited schedule; one that rejects it has none."""
    editor = engine.editor_for(document)
    schedule = editor.schedule
    cold_schedule = schedule_for(twin, kernel=_kernel(kernel))
    hot_base = engine.program_cache.get(schedule)
    assert hot_base is not None
    cold_base = compile_program(cold_schedule)
    _assert_program_equal(hot_base, cold_base)
    for environment in environments:
        hot = engine.program_cache.get(schedule, environment=environment)
        if not negotiate(twin, environment).ok:
            assert hot is None, environment.name
            continue
        assert hot is not None, environment.name
        _assert_program_equal(hot, cold_base)
        cold_ad = adaptation_for(cold_schedule, environment)
        if hot.adaptation is None:
            assert cold_ad.identity, environment.name
            continue
        assert hot.adaptation.descriptor_ids == cold_ad.descriptor_ids
        assert hot.adaptation.op_slot == cold_ad.op_slot
        assert hot.adaptation.actions == cold_ad.actions
        assert hot.adaptation.overrides == cold_ad.overrides
    hot_nav = engine.program_cache.get_derived(schedule, "navigation")
    if hot_nav is not None:
        _assert_navigation_equal(hot_nav, compile_navigation(cold_schedule))
    # Replay through the patched player ≡ replay of the cold program,
    # under an explicit shared jitter stream.
    player = engine._player_for(schedule, hot_base, PROFILES[0])
    from repro.pipeline.program import BatchPlayer
    cold_player = BatchPlayer(cold_schedule, PROFILES[0],
                              program=cold_base,
                              kernel=engine.kernel)
    hot_report = player.run_one(rng=random.Random(1234))
    cold_report = cold_player.run_one(rng=random.Random(1234))
    assert _report_arrays(hot_report) == _report_arrays(cold_report)
    # The quiet twin replays on the engine's kernel through a cached
    # player that outlives every edit, so whatever that kernel built
    # for the program before an edit must not serve it after one.
    hot_report = engine._player_for(schedule, hot_base, QUIET).run_one()
    cold_report = BatchPlayer(cold_schedule, QUIET, program=cold_base,
                              kernel=engine.kernel).run_one()
    assert _report_arrays(hot_report) == _report_arrays(cold_report)
    assert hot_report.materialize() == cold_report.materialize()


class TestRetimePatch:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_retime_patch_bit_identical(self, kernel):
        document = make_media_document(3, events=14, links=2)
        twin = make_media_document(3, events=14, links=2)
        engine, sessions = _hot_engine([document], kernel=kernel)
        leaf = engine.schedule_cache.get(document) \
            .events[0].event.node_path
        record = engine.apply_edit(
            document, {"op": "retime", "path": leaf,
                       "duration_ms": 4321.0}, sessions=sessions)
        core_edit.retime(twin, leaf, 4321.0)
        assert record.mode == "patched"
        assert record.events_touched > 0
        assert record.programs_recompiled == 0
        assert record.programs_patched > 0
        _assert_pyramid_matches_cold(engine, document, twin,
                                     kernel=kernel)

    def test_patch_preserves_program_identity_and_players(self):
        """Timing edits keep program/player objects hot (the point)."""
        document = make_media_document(3, events=14, links=2)
        engine, sessions = _hot_engine([document])
        session = next(s for s in sessions
                       if getattr(s, "admitted", False)
                       and not hasattr(s, "navigator"))
        program_before = session.program
        player_before = session.player
        leaf = session.schedule.events[0].event.node_path
        engine.apply_edit(document,
                          {"op": "retime", "path": leaf,
                           "duration_ms": 777.0}, sessions=sessions)
        assert session.program is program_before
        assert session.player is player_before
        assert session.schedule is engine.editor_for(document).schedule


def _assert_every_composition_replanned(engine, document, twin,
                                        environments, record):
    """Each of ``environments`` has its composition cached under the
    edited schedule, planned as a cold compile of ``twin`` plans it,
    and ``record`` counts exactly those compositions as re-planned."""
    schedule = engine.editor_for(document).schedule
    cold_schedule = schedule_for(twin)
    compositions = {}
    for environment in environments:
        hot = engine.program_cache.get(schedule, environment=environment)
        assert hot is not None, environment.name
        compositions[environment.fingerprint()] = hot
        cold = adaptation_for(cold_schedule, environment)
        if hot.adaptation is None:
            assert cold.identity, environment.name
            continue
        assert hot.adaptation.descriptor_ids == cold.descriptor_ids
        assert hot.adaptation.actions == cold.actions
        assert hot.adaptation.overrides == cold.overrides
    assert record.adaptations_recompiled == len(compositions)


class TestRandomizedEditScripts:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_random_script_stays_bit_identical(self, seed, kernel):
        document = make_media_document(5 + seed, events=12, links=2)
        twin = make_media_document(5 + seed, events=12, links=2)
        engine, sessions = _hot_engine([document], kernel=kernel)
        rng = random.Random(991 + seed)
        added_arcs: list[str] = []  # owner paths of script-added arcs

        def leaves():
            return [event.event.node_path for event
                    in engine.editor_for(document).schedule.events]

        for step in range(12):
            choice = rng.random()
            if choice < 0.5 or not leaves():
                path = rng.choice(leaves())
                duration = float(rng.randrange(100, 5000))
                spec = {"op": "retime", "path": path,
                        "duration_ms": duration}
                core_edit.retime(twin, path, duration)
            elif choice < 0.75:
                pool = leaves()
                source = rng.choice(pool)
                destination = rng.choice(pool)
                offset = float(rng.randrange(0, 200))
                spec = {"op": "add_arc", "owner": "/",
                        "source": source, "destination": destination,
                        "src_anchor": "end", "dst_anchor": "begin",
                        "strictness": "may", "offset_ms": offset}
                core_edit.add_arc(twin, "/", SyncArc(
                    source=source, destination=destination,
                    src_anchor=Anchor.END, dst_anchor=Anchor.BEGIN,
                    strictness=Strictness.MAY,
                    offset=MediaTime.ms(offset)))
                added_arcs.append("/")
            elif choice < 0.9 and added_arcs:
                owner = added_arcs.pop()
                root = engine.editor_for(document).document.root
                index = len(root.arcs) - 1
                spec = {"op": "remove_arc", "owner": owner,
                        "index": index}
                core_edit.remove_arc(twin, owner, index)
            else:
                path = rng.choice(leaves())
                name = f"copy{step}"
                spec = {"op": "duplicate", "path": path, "name": name}
                core_edit.duplicate(twin, path, name)
            engine.apply_edit(document, spec, sessions=sessions)
            _assert_pyramid_matches_cold(engine, document, twin,
                                         kernel=kernel)
        stats = engine.editor_for(document).stats
        assert stats.programs_patched + stats.programs_recompiled > 0

    def test_edited_serving_drive_completes(self):
        """After edits, the whole mixed fleet still drives to DONE."""
        document = make_media_document(3, events=14, links=2)
        engine, sessions = _hot_engine([document])
        leaf = engine.schedule_cache.get(document) \
            .events[0].event.node_path
        engine.apply_edit(document,
                          {"op": "retime", "path": leaf,
                           "duration_ms": 50.0}, sessions=sessions)
        engine.apply_edit(document,
                          {"op": "duplicate", "path": leaf,
                           "name": "tail"}, sessions=sessions)
        performed = engine.drive(sessions, replays=2)
        assert performed > 0
        assert engine.last_queue is not None
        assert not engine.last_queue.blocked


class TestCacheRetention:
    def test_program_cache_bounded_across_100_edits(self):
        """The satellite leak fix: superseded revisions are evicted."""
        document = make_media_document(3, events=14, links=2)
        engine, sessions = _hot_engine([document])
        baseline_programs = len(engine.program_cache)
        baseline_schedules = len(engine.schedule_cache)
        leaves = [event.event.node_path for event
                  in engine.schedule_cache.get(document).events]
        rng = random.Random(7)
        for index in range(100):
            engine.apply_edit(
                document,
                {"op": "retime", "path": rng.choice(leaves),
                 "duration_ms": float(100 + index)},
                sessions=sessions)
            assert len(engine.program_cache) <= baseline_programs
            assert len(engine.schedule_cache) <= baseline_schedules
        # Still perfectly warm: the entries moved with the revisions.
        assert len(engine.program_cache) == baseline_programs

    def test_requirements_cache_keeps_one_revision_across_edits(self):
        document = make_media_document(3, events=12)
        engine = SessionEngine()
        engine.admit(document, PROFILES[0])
        leaves = [event.event.node_path for event
                  in engine.schedule_cache.get(document).events]
        for index in range(6):
            engine.apply_edit(document,
                              {"op": "retime", "path": leaves[index],
                               "duration_ms": float(300 + index)})
            engine.admit(document, PROFILES[0])
        assert len(engine.requirements_cache) == 1
        assert len(engine.schedule_cache) == 1

    def test_editor_keeps_only_the_last_record(self):
        """An editor holds one record, not one per edit: the latest
        edit's, while the lifetime totals accumulate in its stats."""
        document = make_media_document(3, events=12)
        engine = SessionEngine()
        engine.admit(document, PROFILES[0])
        editor = engine.editor_for(document)
        assert editor.last_record is None
        leaves = [event.event.node_path for event
                  in engine.schedule_cache.get(document).events]
        before = editor.stats.programs_patched
        patched = 0
        for index in range(5):
            record = engine.apply_edit(
                document, {"op": "retime", "path": leaves[index],
                           "duration_ms": float(400 + index)})
            assert editor.last_record is record
            patched += record.programs_patched
        assert not hasattr(editor, "records")
        assert patched > 0
        assert editor.stats.programs_patched - before == patched

    def test_editor_is_cached_per_document(self):
        document = make_media_document(3, events=12)
        engine = SessionEngine()
        engine.admit(document, PROFILES[0])
        assert engine.editor_for(document) is engine.editor_for(document)

    def test_editor_table_bounded_and_evicted_document_reedits(self):
        engine = SessionEngine()
        documents = [make_media_document(seed, events=6)
                     for seed in range(SCHEDULE_CACHE_CAPACITY + 2)]
        twin = make_media_document(0, events=6)
        first = documents[0]
        engine.admit(first, PROFILES[0])
        leaf = engine.schedule_cache.get(first).events[0].event.node_path
        engine.apply_edit(first, {"op": "retime", "path": leaf,
                                  "duration_ms": 777.0})
        core_edit.retime(twin, leaf, 777.0)
        first_editor = engine.editor_for(first)
        for document in documents[1:]:
            engine.admit(document, PROFILES[0])
            path = engine.schedule_cache.get(document) \
                .events[0].event.node_path
            engine.apply_edit(document, {"op": "retime", "path": path,
                                         "duration_ms": 555.0})
            assert len(engine._editors) <= SCHEDULE_CACHE_CAPACITY
        # The first document's editor was evicted: its next edit builds
        # a fresh one over the re-admitted (cached) schedule.
        engine.admit(first, PROFILES[0])
        engine.apply_edit(first, {"op": "retime", "path": leaf,
                                  "duration_ms": 888.0})
        core_edit.retime(twin, leaf, 888.0)
        assert engine.editor_for(first) is not first_editor
        _assert_pyramid_matches_cold(engine, first, twin,
                                     environments=PROFILES[:1])


class TestStructuralFallback:
    def test_structural_edit_recompiles_only_this_document(self):
        """Per-level dirty classification: the other document's cached
        pyramid is untouched, object-for-object."""
        edited = make_media_document(3, events=12, links=1)
        bystander = make_media_document(4, events=12, links=1)
        engine, sessions = _hot_engine([edited, bystander])
        bystander_schedule = engine.schedule_cache.get(bystander)
        bystander_entries = {
            environment.name: engine.program_cache.get(
                bystander_schedule, environment=environment)
            for environment in PROFILES}
        bystander_base = engine.program_cache.get(bystander_schedule)
        bystander_begin = list(bystander_base.begin_ms)
        leaf = engine.schedule_cache.get(edited) \
            .events[0].event.node_path
        record = engine.apply_edit(
            edited, {"op": "duplicate", "path": leaf, "name": "extra"},
            sessions=sessions)
        assert record.mode == "recompiled"
        assert record.programs_patched == 0
        assert record.programs_recompiled == 1
        assert record.adaptations_recompiled > 0
        assert record.navigations_recompiled == 1
        # Bystander entries: same objects, same arrays, same key.
        assert engine.program_cache.get(bystander_schedule) \
            is bystander_base
        assert list(bystander_base.begin_ms) == bystander_begin
        for environment in PROFILES:
            assert engine.program_cache.get(
                bystander_schedule, environment=environment) \
                is bystander_entries[environment.name]

    def test_structural_edit_keeps_every_composition(self):
        """A structural edit re-plans every cached composition, even
        with no session named: none is dropped for a later admission
        to recompile, and the record counts exactly what it re-planned."""
        document = make_media_document(5, events=24)
        twin = make_media_document(5, events=24)
        engine = SessionEngine(seed=9)
        admitted = [environment for environment in PROFILES
                    if engine.admit(document, environment).admitted]
        assert admitted
        leaf = engine.schedule_cache.get(document) \
            .events[-1].event.node_path
        record = engine.apply_edit(document, {"op": "remove",
                                              "path": leaf})
        core_edit.remove(twin, leaf)
        assert record.mode == "recompiled"
        _assert_every_composition_replanned(engine, document, twin,
                                            admitted, record)

    def test_serving_path_skips_the_authoring_conflict_pass(
            self, monkeypatch):
        """Admission and the structural re-plan lower the profile's
        plan straight: neither runs the authoring tool's §5.3.3
        device-conflict pass, whose report the serving path never
        reads."""
        import repro.pipeline.filters as filters_module

        def refuse(*_args, **_kwargs):
            raise AssertionError("device-conflict pass on the serving path")

        monkeypatch.setattr(filters_module, "detect_device_conflicts",
                            refuse)
        document = make_media_document(5, events=24, rich=True)
        twin = make_media_document(5, events=24, rich=True)
        engine = SessionEngine(seed=9)
        admitted = [environment for environment in PROFILES
                    if engine.admit(document, environment).admitted]
        assert admitted
        leaf = engine.schedule_cache.get(document) \
            .events[-1].event.node_path
        record = engine.apply_edit(document, {"op": "remove",
                                              "path": leaf})
        core_edit.remove(twin, leaf)
        assert record.mode == "recompiled"
        _assert_every_composition_replanned(engine, document, twin,
                                            admitted, record)

    def test_structural_edit_derives_one_profile(self, monkeypatch):
        """A structural edit re-plans every composition from one
        requirement profile of the new revision, derived through the
        engine's cache, where the admissions after the edit find it:
        one derivation for the edit and one admission per composition."""
        import repro.transport.requirements as requirements_module
        document = make_media_document(5, events=40, links=2, rich=True)
        engine = SessionEngine(seed=9)
        admitted = [environment for environment in SIX
                    if engine.admit(document, environment).admitted]
        assert len(admitted) == len(SIX)
        derived = []
        compute = requirements_module.compute_requirements

        def counted(*args, **kwargs):
            derived.append(args[0])
            return compute(*args, **kwargs)

        monkeypatch.setattr(requirements_module, "compute_requirements",
                            counted)
        leaf = engine.schedule_cache.get(document) \
            .events[0].event.node_path
        record = engine.apply_edit(
            document, {"op": "duplicate", "path": leaf, "name": "encore"})
        assert record.adaptations_recompiled == len(SIX)
        for environment in admitted:
            assert engine.admit(document, environment).admitted
        assert derived == [document]

    def test_structural_edit_replans_unnamed_environments(self):
        """Naming one session does not narrow the re-plan: a node
        added with one environment's session named re-plans every
        environment's composition, and re-points the named session."""
        document = make_media_document(5, events=24)
        twin = make_media_document(5, events=24)
        engine = SessionEngine(seed=9)
        sessions = [session for session in
                    (engine.admit(document, environment)
                     for environment in PROFILES) if session.admitted]
        assert len(sessions) > 1
        named = sessions[0]
        leaf = engine.schedule_cache.get(document) \
            .events[0].event.node_path
        record = engine.apply_edit(
            document, {"op": "duplicate", "path": leaf, "name": "encore"},
            sessions=[named])
        core_edit.duplicate(twin, leaf, "encore")
        assert record.mode == "recompiled"
        _assert_every_composition_replanned(
            engine, document, twin,
            [session.environment for session in sessions], record)
        schedule = engine.editor_for(document).schedule
        assert named.schedule is schedule
        assert named.program is engine.program_cache.get(
            schedule, environment=named.environment)

    def test_feasible_after_infeasible_edit(self):
        """A conflicting edit stays applied and is reported; serving
        state survives and a later edit restores feasibility."""
        document = make_media_document(3, events=12)
        engine, sessions = _hot_engine([document], interactive=False)
        schedule = engine.schedule_cache.get(document)
        leaf = schedule.events[0].event.node_path
        from repro.core.errors import CmifError, PathError
        with pytest.raises(CmifError):
            engine.apply_edit(
                document,
                {"op": "remove", "path": "/nonexistent-node"},
                sessions=sessions)
        assert engine.editor_for(document).last_record.mode == "conflict"
        record = engine.apply_edit(
            document, {"op": "retime", "path": leaf,
                       "duration_ms": 900.0}, sessions=sessions)
        assert record.mode in ("patched", "recompiled")


def _co_starting_par_pair(document, schedule):
    """Two adjacent events of the canonical order that begin together
    in a par, or None."""
    events = schedule.ordered_events()
    for first, second in zip(events, events[1:]):
        if first.begin_ms == second.begin_ms and resolve_path(
                document.root, first.event.node_path).parent.kind \
                is NodeKind.PAR:
            return first, second
    return None


class TestReorderingRetime:
    def test_reordering_retime_keeps_every_composition(self):
        """A retime that moves a par leaf's end past its co-starting
        neighbour's reorders the canonical events, so the arrays are
        lowered afresh; the compiled document survives the edit, so
        every composition is re-stamped, none is re-planned, and every
        session keeps its program and player."""
        document = make_media_document(2, events=40, links=2, rich=True)
        twin = make_media_document(2, events=40, links=2, rich=True)
        engine = SessionEngine(seed=9)
        sessions = [engine.admit(document, environment)
                    for environment in SIX]
        sessions.append(engine.admit_interactive(document, SIX[0]))
        assert all(session.admitted for session in sessions[:len(SIX)])
        editor = engine.editor_for(document)
        schedule = editor.schedule
        compiled = schedule.compiled
        compositions = [engine.program_cache.get(schedule,
                                                 environment=environment)
                        for environment in SIX]
        programs = [session.program for session in sessions[:len(SIX)]]
        players = [session.player for session in sessions[:len(SIX)]]
        first, second = _co_starting_par_pair(document, schedule)
        duration = second.end_ms - first.begin_ms + 50.0
        record = engine.apply_edit(
            document, {"op": "retime", "path": first.event.node_path,
                       "duration_ms": duration}, sessions=sessions)
        core_edit.retime(twin, first.event.node_path, duration)
        assert record.mode == "recompiled"
        assert editor.schedule.compiled is compiled
        assert record.adaptations_recompiled == 0
        assert record.adaptations_patched == len(
            {id(program) for program in compositions
             if program.adaptation is not None})
        assert record.adaptations_patched > 0
        schedule = editor.schedule
        cold = schedule_for(twin)
        for environment, before in zip(SIX, compositions):
            hot = engine.program_cache.get(schedule,
                                           environment=environment)
            assert hot is before, environment.name
            assert hot.adaptation == adaptation_for(cold, environment)
        for session, program, player in zip(sessions, programs, players):
            assert session.schedule is schedule
            assert session.program is program
            assert session.player is player
        _assert_pyramid_matches_cold(engine, document, twin,
                                     environments=SIX)


class TestConditionalArcs:
    def test_conditional_arc_updates_navigation_not_timing(self):
        document = make_media_document(3, events=14, links=1)
        twin = make_media_document(3, events=14, links=1)
        engine, sessions = _hot_engine([document])
        editor = engine.editor_for(document)
        before_begin = list(
            engine.program_cache.get(editor.schedule).begin_ms)
        nav_before = engine.program_cache.get_derived(
            editor.schedule, "navigation")
        links_before = len(nav_before.links)
        schedule = editor.schedule
        source = schedule.events[0].event.node_path
        destination = schedule.events[-1].event.node_path
        record = engine.apply_edit(
            document,
            {"op": "add_arc", "owner": "/", "source": source,
             "destination": destination, "strictness": "may",
             "condition": "bonus"},
            sessions=sessions)
        core_edit.add_arc(twin, "/", ConditionalArc(
            condition="bonus", source=source, destination=destination,
            strictness=Strictness.MAY))
        assert record.mode == "patched"
        assert record.events_touched == 0
        assert record.navigations_patched == 1
        hot = engine.program_cache.get(editor.schedule)
        assert list(hot.begin_ms) == before_begin
        nav_after = engine.program_cache.get_derived(
            editor.schedule, "navigation")
        assert nav_after is nav_before  # refreshed in place
        assert len(nav_after.links) == links_before + 1
        _assert_pyramid_matches_cold(engine, document, twin)


class TestServeEditScript:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_serve_applies_script_and_reports(self, kernel):
        documents = [make_media_document(s, events=12, links=1)
                     for s in (1, 2)]
        twins = [make_media_document(s, events=12, links=1)
                 for s in (1, 2)]
        leaf0 = schedule_for(documents[0]).events[0].event.node_path
        leaf1 = schedule_for(documents[1]).events[1].event.node_path
        script = [
            {"op": "retime", "path": leaf0, "duration_ms": 900.0,
             "at_step": 2},
            {"op": "retime", "path": leaf1, "duration_ms": 1500.0,
             "at_step": 4, "document": 1},
        ]
        engine = SessionEngine(seed=3, kernel=_kernel(kernel))
        report = engine.serve(documents, list(PROFILES),
                              sessions_per_pair=1, replays=2,
                              interactive_per_pair=1,
                              edit_script=script)
        assert len(report.edit_records) == 2
        assert all(record.mode == "patched"
                   for record in report.edit_records)
        assert "live edits: 2 applied" in report.describe()
        core_edit.retime(twins[0], leaf0, 900.0)
        core_edit.retime(twins[1], leaf1, 1500.0)
        for document, twin in zip(documents, twins):
            _assert_pyramid_matches_cold(engine, document, twin,
                                         kernel=kernel)

    def test_edit_script_forces_serial_drive(self):
        documents = [make_media_document(s, events=12) for s in (1, 2)]
        leaf = schedule_for(documents[0]).events[0].event.node_path
        engine = SessionEngine(seed=3)
        report = engine.serve(
            documents, list(PROFILES), sessions_per_pair=2, replays=2,
            workers=4,
            edit_script=[{"op": "retime", "path": leaf,
                          "duration_ms": 444.0, "at_step": 1}])
        assert len(report.edit_records) == 1
        # A parallel drive would have left last_queue unset.
        assert engine.last_queue is not None


# -- the edit oracle: every composition, profile and verdict after every
# -- edit equals a cold derivation from a twin edited through core.edit

ORACLE = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

EDIT_KINDS = ("retime-seq", "retime-par", "add_arc", "add_link",
              "remove_arc", "duplicate", "remove", "reorder")


def _leaves(document):
    return [node for node in iter_preorder(document.root) if node.is_leaf]


def _arc_targets(document) -> set[int]:
    """Ids of the nodes some arc of ``document`` names (an arc an
    earlier edit left dangling names none)."""
    named: set[int] = set()
    for node in iter_preorder(document.root):
        for arc in node.arcs:
            for path in (arc.source, arc.destination):
                try:
                    named.add(id(resolve_path(node, path)))
                except PathError:
                    pass
    return named


def _draw_edit(data, document, schedule, step: int):
    """One edit spec of a drawn kind, valid for ``document`` as it
    stands, and the same edit for the twin; None when the kind has
    nothing to act on."""
    kind = data.draw(st.sampled_from(EDIT_KINDS))
    leaves = _leaves(document)
    if kind == "retime-par" and schedule is not None:
        pair = _co_starting_par_pair(document, schedule)
        if pair is not None:
            first, second = pair
            path = first.event.node_path
            duration = second.end_ms - first.begin_ms + 50.0
            return ({"op": "retime", "path": path, "duration_ms": duration},
                    lambda twin: core_edit.retime(twin, path, duration))
        kind = "retime-seq"
    if kind == "retime-seq":
        seq = [leaf for leaf in leaves
               if leaf.parent.kind is NodeKind.SEQ] or leaves
        path = node_path(data.draw(st.sampled_from(seq)))
        duration = float(data.draw(st.integers(100, 5000)))
        return ({"op": "retime", "path": path, "duration_ms": duration},
                lambda twin: core_edit.retime(twin, path, duration))
    if kind in ("add_arc", "add_link"):
        source = node_path(data.draw(st.sampled_from(leaves)))
        destination = node_path(data.draw(st.sampled_from(leaves)))
        if kind == "add_link":
            return ({"op": "add_arc", "owner": "/", "source": source,
                     "destination": destination, "strictness": "may",
                     "condition": "bonus"},
                    lambda twin: core_edit.add_arc(twin, "/", ConditionalArc(
                        condition="bonus", source=source,
                        destination=destination,
                        strictness=Strictness.MAY)))
        offset = float(data.draw(st.integers(0, 200)))
        return ({"op": "add_arc", "owner": "/", "source": source,
                 "destination": destination, "src_anchor": "end",
                 "dst_anchor": "begin", "strictness": "may",
                 "offset_ms": offset},
                lambda twin: core_edit.add_arc(twin, "/", SyncArc(
                    source=source, destination=destination,
                    src_anchor=Anchor.END, dst_anchor=Anchor.BEGIN,
                    strictness=Strictness.MAY,
                    offset=MediaTime.ms(offset))))
    if kind == "remove_arc":
        owners = [node for node in iter_preorder(document.root)
                  if node.arcs]
        if not owners:
            return None
        owner = data.draw(st.sampled_from(owners))
        path = node_path(owner)
        index = data.draw(st.integers(0, len(owner.arcs) - 1))
        return ({"op": "remove_arc", "owner": path, "index": index},
                lambda twin: core_edit.remove_arc(twin, path, index))
    if kind == "duplicate":
        path = node_path(data.draw(st.sampled_from(leaves)))
        name = f"copy{step}"
        return ({"op": "duplicate", "path": path, "name": name},
                lambda twin: core_edit.duplicate(twin, path, name))
    if kind == "remove":
        named = _arc_targets(document)
        free = [leaf for leaf in leaves if id(leaf) not in named]
        if len(free) < 2:
            return None
        path = node_path(data.draw(st.sampled_from(free)))
        return ({"op": "remove", "path": path},
                lambda twin: core_edit.remove(twin, path))
    # A reorder names the child it moves, so unnamed ones stay put.
    parents = [node for node in iter_preorder(document.root)
               if not node.is_leaf and len(node.children) > 1
               and any(child.name for child in node.children)]
    if not parents:
        return None
    parent = data.draw(st.sampled_from(parents))
    path = node_path(parent)
    child = data.draw(st.sampled_from(
        [child.name for child in parent.children if child.name]))
    index = data.draw(st.integers(0, len(parent.children) - 1))
    return ({"op": "reorder", "parent": path, "child": child,
             "index": index},
            lambda twin: core_edit.reorder(twin, path, child, index))


def _assert_matches_twin(engine, document, twin, environments, carried):
    """What the engine holds for ``document`` ≡ a cold derivation from
    ``twin``; ``carried`` environments must have a composition."""
    try:
        cold = schedule_for(twin)
    except CmifError:
        with pytest.raises(CmifError):
            engine.editor_for(document).schedule
        return False
    schedule = engine.editor_for(document).schedule
    assert schedule.times_ms == cold.times_ms
    for environment in environments:
        hot = engine.program_cache.get(schedule, environment=environment)
        if hot is None:
            assert environment.name not in carried, environment.name
            continue
        expected = adaptation_for(cold, environment)
        if hot.adaptation is None:
            assert expected.identity, environment.name
        else:
            assert hot.adaptation == expected, environment.name
    if engine.requirements_cache.holds(document):
        assert engine.requirements_cache.requirements_for(document) \
            == compute_requirements(twin)
    for environment in environments:
        assert negotiate(document, environment,
                         cache=engine.requirements_cache) \
            == negotiate(twin, environment)
    return True


class TestEditOracle:
    @ORACLE
    @given(seed=st.integers(0, 10_000), events=st.integers(16, 40),
           environments=st.lists(st.sampled_from(PROFILES + VARIANTS),
                                 min_size=1, max_size=6,
                                 unique_by=lambda env: env.name),
           data=st.data())
    def test_edit_scripts_match_a_cold_twin(self, seed, events,
                                            environments, data):
        """After every edit of a random script — seq retimes, par
        retimes that reorder co-starting events, arc and link adds,
        arc removes, duplicates, removes and reorders — each cached
        composition, the cached profile and every verdict equal a cold
        derivation from a twin edited through ``repro.core.edit``."""
        document = make_media_document(seed, events=events, links=2,
                                       rich=True)
        twin = make_media_document(seed, events=events, links=2,
                                   rich=True)
        engine = SessionEngine(seed=5)
        carried = {environment.name for environment in environments
                   if engine.admit(document, environment).admitted}
        for step in range(data.draw(st.integers(4, 10))):
            try:
                schedule = engine.editor_for(document).schedule
            except CmifError:
                schedule = None
            drawn = _draw_edit(data, document, schedule, step)
            if drawn is None:
                continue
            spec, twin_edit = drawn
            try:
                engine.apply_edit(document, spec)
            except CmifError:
                pass
            try:
                twin_edit(twin)
            except CmifError:
                pass
            if not _assert_matches_twin(engine, document, twin,
                                        environments, carried):
                # Nothing is carried across an unschedulable revision.
                carried = set()
            elif data.draw(st.booleans()):
                # The admissions after the edit.
                carried |= {
                    environment.name for environment in environments
                    if engine.admit(document, environment).admitted}
