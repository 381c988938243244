"""Unit tests for the scheduling solver (repro.timing.solver)."""

import pytest

from repro.core.builder import DocumentBuilder
from repro.core.errors import SchedulingConflict
from repro.core.timebase import MediaTime
from repro.timing.constraints import (begin_var, build_constraints,
                                      end_var)
from repro.timing.solver import RELAX_DROP_WIDEST, check_solution, solve


def seq_doc(durations, channel="v"):
    builder = DocumentBuilder("doc")
    builder.channel(channel, "video")
    with builder.seq("track", channel=channel):
        for index, duration in enumerate(durations):
            builder.imm(f"e{index}", data="x", duration=duration)
    return builder.build(), builder


def par_doc(durations):
    builder = DocumentBuilder("doc")
    for index in range(len(durations)):
        builder.channel(f"ch{index}", "video")
    with builder.par("scene"):
        for index, duration in enumerate(durations):
            builder.imm(f"e{index}", channel=f"ch{index}", data="x",
                        duration=duration)
    return builder.build(), builder


class TestAsapSemantics:
    def test_seq_children_chain(self):
        document, _ = seq_doc([1000, 2000, 500])
        result = solve(build_constraints(document.compile()))
        assert result.times_ms[begin_var("/track/e0")] == 0.0
        assert result.times_ms[begin_var("/track/e1")] == 1000.0
        assert result.times_ms[begin_var("/track/e2")] == 3000.0
        assert result.times_ms[end_var("/track")] == 3500.0

    def test_par_join_at_slowest(self):
        """'Start the successor when the slowest parallel node
        finishes.'"""
        document, _ = par_doc([1000, 5000, 2500])
        result = solve(build_constraints(document.compile()))
        for index in range(3):
            assert result.times_ms[begin_var(f"/scene/e{index}")] == 0.0
        assert result.times_ms[end_var("/scene")] == 5000.0

    def test_root_is_reference_zero(self):
        document, _ = seq_doc([100])
        system = build_constraints(document.compile())
        result = solve(system)
        assert result.times_ms[system.root_begin] == 0.0

    def test_solution_satisfies_all_constraints(self):
        document, builder = par_doc([1000, 2000])
        e1 = document.root.child_named("scene").child_named("e1")
        builder.arc(e1, source="../e0", destination=".",
                    offset=MediaTime.ms(500),
                    max_delay=MediaTime.ms(100))
        system = build_constraints(document.compile())
        result = solve(system)
        assert check_solution(system, result.times_ms) == []

    def test_channel_serialization_forces_order(self):
        """Two par events on one channel cannot overlap."""
        builder = DocumentBuilder("doc")
        builder.channel("v", "video")
        with builder.par("scene", channel="v"):
            builder.imm("a", data="x", duration=1000)
            builder.imm("b", data="y", duration=1000)
        document = builder.build()
        result = solve(build_constraints(document.compile()))
        assert result.times_ms[begin_var("/scene/b")] >= 1000.0


class TestConflicts:
    def test_must_cycle_raises_with_cycle(self):
        document, builder = seq_doc([1000, 1000])
        e1 = document.root.child_named("track").child_named("e1")
        # e1 must begin within 500ms of e0's begin, but the seq chain
        # forces a 1000ms wait: infeasible.
        builder.arc(e1, source="../e0", destination=".",
                    max_delay=MediaTime.ms(500))
        with pytest.raises(SchedulingConflict) as info:
            solve(build_constraints(document.compile()))
        assert info.value.cycle

    def test_zero_window_compatible_constraints_feasible(self):
        document, builder = par_doc([1000, 1000])
        e1 = document.root.child_named("scene").child_named("e1")
        builder.arc(e1, source="../e0", destination=".")  # hard, same start
        result = solve(build_constraints(document.compile()))
        assert result.times_ms[begin_var("/scene/e1")] == 0.0

    def test_root_pushing_chain_detected(self):
        """An upper bound that would force the root later than zero is a
        genuine conflict (the implied arc with the root)."""
        document, builder = seq_doc([1000, 1000])
        track = document.root.child_named("track")
        e1 = track.child_named("e1")
        # e1 must begin no later than 200ms after the *root* begins;
        # impossible because e0 takes 1000ms first.
        builder.arc(e1, source="/", destination=".",
                    max_delay=MediaTime.ms(200))
        with pytest.raises(SchedulingConflict):
            solve(build_constraints(document.compile()))


class TestRelaxation:
    def _conflicted(self, strictness="may"):
        document, builder = seq_doc([1000, 1000])
        e1 = document.root.child_named("track").child_named("e1")
        builder.arc(e1, source="../e0", destination=".",
                    strictness=strictness,
                    max_delay=MediaTime.ms(500))
        return document

    def test_may_arc_dropped(self):
        document = self._conflicted("may")
        result = solve(build_constraints(document.compile()))
        assert len(result.dropped) == 1
        assert result.iterations == 2
        assert result.times_ms[begin_var("/track/e1")] == 1000.0

    def test_must_arc_never_dropped(self):
        document = self._conflicted("must")
        with pytest.raises(SchedulingConflict):
            solve(build_constraints(document.compile()))

    def test_drop_widest_policy(self):
        """When a cycle holds two may constraints, the widest-window one
        yields first under RELAX_DROP_WIDEST."""
        document, builder = par_doc([1000, 1000])
        scene = document.root.child_named("scene")
        e0 = scene.child_named("e0")
        e1 = scene.child_named("e1")
        # narrow: e1 within [0, 100]ms of e0 (width 100).
        builder.arc(e1, source="../e0", destination=".",
                    strictness="may", max_delay=MediaTime.ms(100))
        # wide: e0 at least 500ms after e1 (offset lower bound,
        # width 1000).  Together the two lower bounds form a positive
        # cycle: e1 >= e0 and e0 >= e1 + 500.
        builder.arc(e0, source="../e1", destination=".",
                    strictness="may", offset=MediaTime.ms(500),
                    max_delay=MediaTime.ms(1000))
        system = build_constraints(document.compile())
        result = solve(system, relaxation_policy=RELAX_DROP_WIDEST)
        assert result.dropped
        widest = result.dropped[0].arc
        assert widest.max_delay.value == 1000
        assert check_solution(system, result.times_ms) in ([],
                                                           result.dropped)

    def test_unknown_policy_rejected(self):
        document, _ = seq_doc([100])
        with pytest.raises(SchedulingConflict, match="policy"):
            solve(build_constraints(document.compile()),
                  relaxation_policy="drop-random")

    def test_max_relaxations_budget(self):
        document = self._conflicted("may")
        with pytest.raises(SchedulingConflict):
            solve(build_constraints(document.compile()),
                  max_relaxations=0)


class TestCheckSolution:
    def test_violations_reported(self):
        document, _ = seq_doc([1000, 1000])
        system = build_constraints(document.compile())
        result = solve(system)
        # Corrupt the solution: move e1 before e0's end.
        times = dict(result.times_ms)
        times[begin_var("/track/e1")] = 100.0
        violations = check_solution(system, times)
        assert violations
