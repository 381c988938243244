"""Property-based tests (hypothesis) on core invariants.

Each property pins one of the paper's structural guarantees over a
randomized space of documents, values or windows:

* scheduling never violates its own constraint system;
* sequential children never overlap; parallel parents span their
  children; channel lanes are serialized;
* the concrete text form round-trips losslessly;
* time-unit conversion is invertible;
* window arithmetic (figure 8) is order-independent.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.builder import DocumentBuilder
from repro.core.nodes import ContainerNode, NodeKind
from repro.core.timebase import MediaTime, TimeBase, Unit
from repro.core.tree import iter_preorder
from repro.corpus.generate import make_random_document
from repro.format.parser import parse_document
from repro.format.writer import write_document
from repro.timing import schedule_document
from repro.timing.constraints import begin_var, build_constraints, end_var
from repro.timing.intervals import Window
from repro.timing.solver import check_solution, solve

# -- strategies ----------------------------------------------------------

units = st.sampled_from(list(Unit))
durations_ms = st.floats(min_value=1.0, max_value=60_000.0,
                         allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=10_000)


@st.composite
def random_trees(draw, max_events=12):
    """A random seq/par document with per-leaf durations."""
    builder = DocumentBuilder("prop")
    builder.channel("a", "video")
    builder.channel("b", "text")
    count = draw(st.integers(min_value=1, max_value=max_events))

    def grow(remaining: list[int], depth: int) -> None:
        while remaining[0] > 0:
            choice = draw(st.integers(min_value=0, max_value=3))
            if choice <= 1 or depth >= 3:
                remaining[0] -= 1
                builder.imm(None,
                            channel=draw(st.sampled_from(["a", "b"])),
                            data="x",
                            duration=MediaTime.ms(draw(durations_ms)))
            elif choice == 2:
                with builder.seq(None):
                    grow(remaining, depth + 1)
                if draw(st.booleans()):
                    return
            else:
                with builder.par(None):
                    grow(remaining, depth + 1)
                if draw(st.booleans()):
                    return

    grow([count], 0)
    return builder.build(validate=False)


# -- scheduling invariants --------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(random_trees())
def test_schedule_satisfies_own_constraints(document):
    compiled = document.compile()
    system = build_constraints(compiled)
    result = solve(system)
    assert check_solution(system, result.times_ms) == []


@settings(max_examples=40, deadline=None)
@given(random_trees())
def test_seq_children_never_overlap(document):
    schedule = schedule_document(document.compile())
    for node in iter_preorder(document.root):
        if node.kind is not NodeKind.SEQ or not isinstance(
                node, ContainerNode):
            continue
        children = node.children
        for before, after in zip(children, children[1:]):
            from repro.core.paths import node_path
            assert schedule.times_ms[begin_var(node_path(after))] >= \
                schedule.times_ms[end_var(node_path(before))] - 1e-6


@settings(max_examples=40, deadline=None)
@given(random_trees())
def test_par_parent_spans_children(document):
    from repro.core.paths import node_path
    schedule = schedule_document(document.compile())
    for node in iter_preorder(document.root):
        if node.kind is not NodeKind.PAR:
            continue
        parent_begin = schedule.times_ms[begin_var(node_path(node))]
        parent_end = schedule.times_ms[end_var(node_path(node))]
        for child in node.children:
            child_begin = schedule.times_ms[begin_var(node_path(child))]
            child_end = schedule.times_ms[end_var(node_path(child))]
            assert child_begin >= parent_begin - 1e-6
            assert child_end <= parent_end + 1e-6


@settings(max_examples=40, deadline=None)
@given(random_trees())
def test_channel_lanes_serialized(document):
    schedule = schedule_document(document.compile())
    schedule.assert_channel_serialization()


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_random_arc_documents_schedule(seed):
    """Generated documents with forward arcs are always feasible."""
    document = make_random_document(seed, events=20)
    schedule = schedule_document(document.compile())
    assert schedule.total_duration_ms >= 0


# -- format round-trip ---------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(random_trees())
def test_text_round_trip_identity(document):
    text = write_document(document)
    assert write_document(parse_document(text)) == text


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_random_documents_round_trip_schedules(seed):
    document = make_random_document(seed, events=15)
    restored = parse_document(write_document(document))
    a = schedule_document(document.compile())
    b = schedule_document(restored.compile())
    assert [(e.event.node_path, round(e.begin_ms, 6)) for e in a.events] \
        == [(e.event.node_path, round(e.begin_ms, 6)) for e in b.events]


# -- time base ------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), units)
def test_unit_conversion_invertible(value, unit):
    base = TimeBase(frame_rate=24.0, sample_rate=8000.0, byte_rate=9600.0,
                    chars_per_second=13.0)
    time = MediaTime(value, unit)
    back = base.from_ms(base.to_ms(time), unit)
    assert abs(back.value - value) <= max(1e-6, abs(value) * 1e-9)


# -- windows ------------------------------------------------------------------


window_bounds = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(window_bounds, st.floats(min_value=0, max_value=1e5,
                                allow_nan=False), window_bounds)
def test_window_contains_iff_violation_zero(low, width, probe):
    window = Window(low, low + width)
    # contains() defaults to a small tolerance; compare exactly here.
    assert window.contains(probe, epsilon=0.0) == (
        window.violation_ms(probe) == 0.0)
