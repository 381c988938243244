"""Equivalence tests: compiled graph solver vs the reference solver.

The compiled graph path (repro.timing.graph) must be *bit-identical* to
solve(): same times for every variable, same dropped may constraints in
the same order under both relaxation policies, and same conflict cycles
— on flat, deep, random and deliberately conflicted documents.  The
structural tests additionally pin that the graph's lazily materialized
constraint table reproduces build_constraints() row for row, which is
what anchors every downstream tie-break.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.builder import DocumentBuilder
from repro.core.errors import SchedulingConflict, ValueError_
from repro.core.paths import node_path
from repro.core.timebase import MediaTime
from repro.core.tree import iter_preorder
from repro.corpus import (make_deep_document, make_flat_document,
                          make_media_document, make_news_document,
                          make_random_document)
from repro.serving import SessionEngine
from repro.timing import (ENGINE_GRAPH, RELAX_DROP_LAST, RELAX_DROP_WIDEST,
                          ScheduleCache, build_constraints, check_solution,
                          compile_graph, schedule_document, solve,
                          solve_graph)
from repro.timing.constraints import TimeVar, VarKind
from repro.timing.graph import DenseTimes
from repro.transport.environments import WORKSTATION

POLICIES = (RELAX_DROP_LAST, RELAX_DROP_WIDEST)


def _shaped_documents():
    documents = [
        ("flat", make_flat_document(40)),
        ("deep", make_deep_document(6)),
        ("news", make_news_document(stories=2).document),
    ]
    for seed in range(8):
        documents.append(
            (f"random-{seed}",
             make_random_document(seed, events=45, arc_fraction=0.5)))
    return documents


def _conflicted_document(strictness="must"):
    """Seq of two 1s events; an arc forces e1 within 500ms of e0."""
    builder = DocumentBuilder("conflicted", root_kind="seq")
    builder.channel("c", "video")
    with builder.seq("track"):
        builder.imm("e0", channel="c", data="x",
                    duration=MediaTime.ms(1000))
        e1 = builder.imm("e1", channel="c", data="y",
                         duration=MediaTime.ms(1000))
    document = builder.build(validate=False)
    builder.arc(e1, source="../e0", destination=".",
                strictness=strictness, max_delay=MediaTime.ms(500))
    return document


def _two_may_document():
    """Par pair with two may arcs forming one cycle (fig. drop-widest)."""
    builder = DocumentBuilder("two-may", root_kind="seq")
    builder.channel("a", "video")
    builder.channel("b", "audio")
    with builder.par("scene"):
        e0 = builder.imm("e0", channel="a", data="x",
                         duration=MediaTime.ms(1000))
        e1 = builder.imm("e1", channel="b", data="y",
                         duration=MediaTime.ms(1000))
    document = builder.build(validate=False)
    builder.arc(e1, source="../e0", destination=".", strictness="may",
                max_delay=MediaTime.ms(100))
    builder.arc(e0, source="../e1", destination=".", strictness="may",
                offset=MediaTime.ms(500), max_delay=MediaTime.ms(1000))
    return document


def assert_equivalent(document, policy):
    """solve() and solve_graph() agree bit for bit on this document."""
    compiled = document.compile()
    system = build_constraints(compiled)
    graph = compile_graph(compiled)
    reference_error = graph_error = reference = graph_result = None
    try:
        reference = solve(system, relaxation_policy=policy)
    except SchedulingConflict as error:
        reference_error = error
    try:
        graph_result = solve_graph(graph, relaxation_policy=policy)
    except SchedulingConflict as error:
        graph_error = error
    if reference_error is not None or graph_error is not None:
        assert reference_error is not None and graph_error is not None
        assert str(graph_error) == str(reference_error)
        assert ([c.describe() for c in graph_error.cycle]
                == [c.describe() for c in reference_error.cycle])
        return None, None
    assert graph_result.times_ms == reference.times_ms
    assert graph_result.iterations == reference.iterations
    assert ([c.describe() for c in graph_result.dropped]
            == [c.describe() for c in reference.dropped])
    # Dropped constraints must also compare equal as values (same arc
    # instances, same weights), not merely render alike.
    assert graph_result.dropped == reference.dropped
    return graph_result, reference


class TestStructuralMirror:
    @pytest.mark.parametrize("label,document", _shaped_documents())
    def test_materialized_system_matches_build_constraints(
            self, label, document):
        compiled = document.compile()
        system = build_constraints(compiled)
        mirrored = compile_graph(compiled).system()
        assert ([str(var) for var in mirrored.variables]
                == [str(var) for var in system.variables])
        assert ([c.describe() for c in mirrored.constraints]
                == [c.describe() for c in system.constraints])
        assert mirrored.root_begin == system.root_begin

    def test_size_matches_system(self):
        compiled = make_random_document(3, events=30).compile()
        system = build_constraints(compiled)
        graph = compile_graph(compiled)
        assert graph.size == system.size

    def test_channel_serialization_toggle(self):
        compiled = make_flat_document(20).compile()
        with_channels = compile_graph(compiled)
        without = compile_graph(compiled, channel_serialization=False)
        assert without.real_count < with_channels.real_count
        system = build_constraints(compiled, channel_serialization=False)
        assert without.real_count == len(system.constraints)


class TestEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("label,document", _shaped_documents())
    def test_shapes(self, label, document, policy):
        assert_equivalent(document, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_arc_heavy(self, seed, policy):
        document = make_random_document(100 + seed, events=70,
                                        arc_fraction=0.8)
        assert_equivalent(document, policy)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_larger_document(self, policy):
        document = make_random_document(7, events=300)
        graph_result, reference = assert_equivalent(document, policy)
        assert graph_result is not None and reference is not None

    def test_relaxed_solution_passes_check_solution(self):
        document = make_random_document(0, events=60, arc_fraction=0.6)
        compiled = document.compile()
        graph = compile_graph(compiled)
        result = solve_graph(graph)
        violations = check_solution(graph.system(), result.times_ms)
        assert all(violation.relaxable for violation in violations)


class TestConflicts:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_must_cycle_identical(self, policy):
        assert_equivalent(_conflicted_document("must"), policy)

    def test_may_cycle_dropped_identically(self):
        graph_result, reference = assert_equivalent(
            _conflicted_document("may"), RELAX_DROP_LAST)
        assert len(reference.dropped) == 1
        assert reference.iterations == 2
        assert graph_result.dropped[0].arc is reference.dropped[0].arc

    def test_drop_widest_picks_same_victim(self):
        graph_result, reference = assert_equivalent(
            _two_may_document(), RELAX_DROP_WIDEST)
        assert reference.dropped
        assert reference.dropped[0].arc.max_delay.value == 1000
        assert graph_result.dropped[0].arc is reference.dropped[0].arc

    def test_drop_last_on_two_may_cycle(self):
        assert_equivalent(_two_may_document(), RELAX_DROP_LAST)

    def test_budget_exhaustion_matches(self):
        document = _conflicted_document("may")
        compiled = document.compile()
        with pytest.raises(SchedulingConflict) as reference_info:
            solve(build_constraints(compiled), max_relaxations=0)
        with pytest.raises(SchedulingConflict) as graph_info:
            solve_graph(compile_graph(compiled), max_relaxations=0)
        assert str(graph_info.value) == str(reference_info.value)

    def test_unknown_policy_rejected(self):
        graph = compile_graph(make_flat_document(4).compile())
        with pytest.raises(SchedulingConflict, match="policy"):
            solve_graph(graph, relaxation_policy="drop-random")


class TestFifoBaseline:
    """The retained pre-graph cleanup stays a valid (slower) solver."""

    @pytest.mark.parametrize("label,document", _shaped_documents())
    def test_fifo_times_match_ranked(self, label, document):
        from tests.oracles.solver import solve
        system = build_constraints(document.compile())
        try:
            ranked = solve(system)
        except SchedulingConflict:
            with pytest.raises(SchedulingConflict):
                solve(system, cleanup="fifo")
            return
        fifo = solve(system, cleanup="fifo")
        assert fifo.times_ms == ranked.times_ms


class TestScheduleEngine:
    def test_graph_engine_schedule_identical(self):
        document = make_random_document(5, events=60, arc_fraction=0.5)
        compiled = document.compile()
        reference = schedule_document(compiled)
        graph = schedule_document(compiled, engine=ENGINE_GRAPH)
        assert graph.times_ms == reference.times_ms
        assert ([str(event) for event in graph.events]
                == [str(event) for event in reference.events])
        assert (graph.dropped_constraints == reference.dropped_constraints)

    def test_engines_share_cache_entries(self):
        document = make_flat_document(10)
        cache = ScheduleCache()
        warmed = schedule_document(document.compile(), cache=cache,
                                   engine=ENGINE_GRAPH)
        served = schedule_document(document.compile(), cache=cache)
        assert served is warmed
        assert cache.hits == 1

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError_, match="engine"):
            schedule_document(make_flat_document(4).compile(),
                              engine="quantum")


# -- the dense times and the recorded preorder ---------------------------------

CONTRACT = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _contract_document(shape, seed, events):
    """A generated document of one corpus shape (random ones carry
    bounded may arcs; rich media documents carry links and anchors)."""
    if shape == "flat":
        return make_flat_document(events)
    if shape == "deep":
        return make_deep_document(2 + seed % 4)
    if shape == "random":
        return make_random_document(seed, events=events, arc_fraction=0.7)
    return make_media_document(seed, events=events, links=2,
                               rich=seed % 2 == 0)


documents = st.builds(
    _contract_document, st.sampled_from(("flat", "deep", "random", "media")),
    st.integers(0, 10_000), st.integers(3, 60))


class TestDenseTimes:
    """A compiled-graph solve's ``times_ms`` behaves like the dict of a
    reference solve of the same document."""

    @CONTRACT
    @given(document=documents)
    def test_behaves_like_the_reference_dict(self, document):
        compiled = document.compile()
        try:
            reference = solve(build_constraints(compiled)).times_ms
        except SchedulingConflict:
            with pytest.raises(SchedulingConflict):
                schedule_document(compiled, engine=ENGINE_GRAPH)
            return
        schedule = schedule_document(compiled, engine=ENGINE_GRAPH)
        times = schedule.times_ms
        assert isinstance(times, DenseTimes)
        assert times == reference and reference == times
        assert not times != reference and not reference != times
        assert list(times) == list(reference)
        assert len(times) == len(reference)
        assert list(times.items()) == list(reference.items())
        for var, time in reference.items():
            assert times[var] == time
            assert times.get(var, None) == time
        moved = dict(reference)
        moved[next(reversed(moved))] += 1.0
        assert times != moved and moved != times
        foreign = TimeVar("/no-such-node", VarKind.END)
        assert times.get(foreign, -1.0) == -1.0
        assert foreign not in times
        with pytest.raises(KeyError):
            times[foreign]
        restored = pickle.loads(pickle.dumps(times))
        assert restored == reference
        assert list(restored.items()) == list(reference.items())
        assert schedule.shifted(250.0).times_ms == {
            var: time + 250.0 for var, time in reference.items()}

    def test_reference_lowerings_keep_returning_dicts(self):
        compiled = make_random_document(4, events=30).compile()
        assert type(solve(build_constraints(compiled)).times_ms) is dict
        assert type(schedule_document(compiled).times_ms) is dict

    def test_holds_no_rows(self):
        """A cached schedule's times must not pin the graph's rows."""
        graph = compile_graph(
            make_media_document(2, events=30, links=2).compile())
        times = solve_graph(graph).times_ms
        held = {id(getattr(times, name)) for name in DenseTimes.__slots__}
        for name in ("cons_var", "cons_base", "cons_weight", "cons_relax",
                     "cons_code", "cons_subject", "cons_other", "out"):
            assert id(getattr(graph, name)) not in held

    @CONTRACT
    @given(document=documents)
    def test_compile_records_its_preorder(self, document):
        compiled = document.compile()
        preorder = list(iter_preorder(document.root))
        assert len(compiled.nodes) == len(preorder)
        assert all(recorded is node
                   for recorded, node in zip(compiled.nodes, preorder))
        assert compiled.paths == [node_path(node) for node in preorder]


class TestRetiredLowering:
    @CONTRACT
    @given(document=documents)
    def test_rows_and_solution_match(self, document):
        """The one-walk lowering builds the retired lowering's rows and
        solves to its times, drops and cycles."""
        from tests.oracles import graph as retired
        compiled = document.compile()
        mine = compile_graph(compiled)
        theirs = retired.compile_graph(compiled)
        for name in ("var_paths", "var_kinds", "cons_var", "cons_base",
                     "cons_weight", "cons_relax", "cons_code",
                     "cons_subject", "cons_other", "out"):
            assert getattr(mine, name) == getattr(theirs, name), name
        assert (mine.count, mine.root, mine.real_count) \
            == (theirs.count, theirs.root, theirs.real_count)
        try:
            expected = retired.solve_graph(theirs)
        except SchedulingConflict as conflict:
            with pytest.raises(SchedulingConflict) as info:
                solve_graph(mine)
            assert str(info.value) == str(conflict)
            return
        result = solve_graph(mine)
        assert type(expected.times_ms) is dict
        assert result.times_ms == expected.times_ms
        assert list(result.times_ms) == list(expected.times_ms)
        assert result.dropped == expected.dropped
        assert result.iterations == expected.iterations


class TestInPlaceEdits:
    def test_retime_and_arc_add_match_cold_solves(self):
        """Live edits over an admitted (graph-solved) schedule equal a
        cold graph schedule and a reference solve of the edited
        document."""
        document = make_media_document(5, events=20, links=2, rich=False)
        engine = SessionEngine(seed=3)
        engine.admit(document, WORKSTATION)
        admitted = engine.schedule_cache.get(document)
        assert isinstance(admitted.times_ms, DenseTimes)
        ordered = admitted.ordered_events()
        first = ordered[0].event.node_path
        last = ordered[-1].event.node_path
        edits = (
            {"op": "retime", "path": first, "duration_ms": 3210.0},
            {"op": "add_arc", "owner": "/", "source": first,
             "destination": last, "src_anchor": "begin",
             "dst_anchor": "begin", "strictness": "must",
             "offset_ms": admitted.total_duration_ms + 500.0,
             "max_delay_ms": None})
        before = admitted.times_ms
        for spec in edits:
            engine.apply_edit(document, spec)
            patched = engine.editor_for(document).schedule.times_ms
            assert patched != before
            compiled = document.compile()
            cold = schedule_document(compiled, engine=ENGINE_GRAPH)
            assert patched == cold.times_ms and cold.times_ms == patched
            assert patched == solve(build_constraints(compiled)).times_ms
            before = patched
