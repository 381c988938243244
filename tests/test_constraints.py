"""Unit tests for constraint building (repro.timing.constraints)."""

from hypothesis import given, settings, strategies as st

from repro.core.builder import DocumentBuilder
from repro.core.descriptors import EventDescriptor
from repro.core.edit import add_arc, retime
from repro.core.errors import SchedulingConflict
from repro.core.paths import node_path, resolve_path
from repro.core.syncarc import Anchor, ConditionalArc, Strictness, SyncArc
from repro.core.timebase import MediaTime
from repro.core.tree import iter_preorder
from repro.corpus import make_media_document, make_random_document
from repro.pipeline.patch import PATCHED, LiveEditor
from repro.timing import IncrementalScheduler, compile_graph, schedule_document
from repro.timing.constraints import (ConstraintKind, TimeVar, VarKind,
                                      arc_table, begin_var,
                                      build_constraints, end_var)
from repro.timing.graph import _M_DUR_LOW, _M_DUR_UP


def single_channel_seq(count=3, duration=1000.0):
    builder = DocumentBuilder("doc")
    builder.channel("v", "video")
    with builder.seq("track", channel="v"):
        for index in range(count):
            builder.imm(f"e{index}", data="x", duration=duration)
    return builder.build()


def two_channel_par():
    builder = DocumentBuilder("doc")
    builder.channel("v", "video")
    builder.channel("c", "text")
    with builder.par("scene"):
        builder.imm("a", channel="v", data="x", duration=4000)
        builder.imm("b", channel="c", data="y", duration=2000)
    return builder.build(), builder


def kinds(system):
    return {constraint.kind for constraint in system.constraints}


class TestDefaults:
    def test_leaf_duration_produces_two_constraints(self):
        document = single_channel_seq(count=1)
        system = build_constraints(document.compile())
        durations = [c for c in system.constraints
                     if c.kind is ConstraintKind.DURATION]
        assert len(durations) == 2  # lower + upper (equality)

    def test_seq_chain_constraints(self):
        """Default arcs: parent start -> first child, end -> next start,
        last child end -> parent end."""
        document = single_channel_seq(count=3)
        system = build_constraints(document.compile(),
                                   channel_serialization=False)
        seq_constraints = [c for c in system.constraints
                           if c.kind is ConstraintKind.SEQ_DEFAULT]
        # root(start->child, 2 containers' worth) + track(start->first,
        # 2 chain links, last->end) + root wrappers; count the chain
        # links explicitly:
        chain = [c for c in seq_constraints
                 if c.base.kind is VarKind.END
                 and c.var.kind is VarKind.BEGIN]
        assert len(chain) == 2  # e0->e1, e1->e2

    def test_par_fork_join(self):
        document, _builder = two_channel_par()
        system = build_constraints(document.compile())
        par_constraints = [c for c in system.constraints
                           if c.kind is ConstraintKind.PAR_DEFAULT]
        forks = [c for c in par_constraints
                 if c.base.kind is VarKind.BEGIN
                 and c.var.kind is VarKind.BEGIN]
        joins = [c for c in par_constraints
                 if c.base.kind is VarKind.END
                 and c.var.kind is VarKind.END]
        assert len(forks) == 2
        assert len(joins) == 2

    def test_channel_order_constraints(self):
        document = single_channel_seq(count=3)
        system = build_constraints(document.compile())
        channel = [c for c in system.constraints
                   if c.kind is ConstraintKind.CHANNEL_ORDER]
        assert len(channel) == 2

    def test_channel_serialization_ablation_flag(self):
        document = single_channel_seq(count=3)
        system = build_constraints(document.compile(),
                                   channel_serialization=False)
        assert ConstraintKind.CHANNEL_ORDER not in kinds(system)


class TestExplicitArcs:
    def test_arc_with_window_gives_lower_and_upper(self):
        document, builder = two_channel_par()
        b = document.root.child_named("scene").child_named("b")
        builder.arc(b, source="../a", destination=".",
                    min_delay=MediaTime.ms(-10),
                    max_delay=MediaTime.ms(100))
        system = build_constraints(document.compile())
        explicit = [c for c in system.constraints
                    if c.kind is ConstraintKind.EXPLICIT_ARC]
        assert len(explicit) == 2

    def test_unbounded_arc_gives_lower_only(self):
        document, builder = two_channel_par()
        b = document.root.child_named("scene").child_named("b")
        builder.arc(b, source="../a", destination=".", max_delay=None)
        system = build_constraints(document.compile())
        explicit = [c for c in system.constraints
                    if c.kind is ConstraintKind.EXPLICIT_ARC]
        assert len(explicit) == 1

    def test_may_arc_constraints_relaxable(self):
        document, builder = two_channel_par()
        b = document.root.child_named("scene").child_named("b")
        builder.arc(b, source="../a", destination=".", strictness="may")
        system = build_constraints(document.compile())
        relaxable = [c for c in system.constraints if c.relaxable]
        assert relaxable
        assert all(c.kind is ConstraintKind.EXPLICIT_ARC
                   for c in relaxable)

    def test_offset_folded_into_weights(self):
        document, builder = two_channel_par()
        b = document.root.child_named("scene").child_named("b")
        builder.arc(b, source="../a", destination=".",
                    offset=MediaTime.seconds(1))
        system = build_constraints(document.compile())
        explicit = [c for c in system.constraints
                    if c.kind is ConstraintKind.EXPLICIT_ARC]
        weights = sorted(c.weight_ms for c in explicit)
        assert weights == [-1000.0, 1000.0]  # lower +1000, upper stored -1000

    def test_conditional_arcs_excluded_by_default(self):
        from repro.core.syncarc import ConditionalArc
        document, _builder = two_channel_par()
        b = document.root.child_named("scene").child_named("b")
        b.add_arc(ConditionalArc("../a", ".", condition="link"))
        system = build_constraints(document.compile())
        assert ConstraintKind.EXPLICIT_ARC not in kinds(system)

    def test_conditional_arcs_never_reach_a_static_schedule(self):
        """The graph compiler and a live add-arc edit leave conditional
        arcs out, as the object builder does."""
        from repro.core.syncarc import ConditionalArc
        from repro.timing import compile_graph
        document, _builder = two_channel_par()
        engine = IncrementalScheduler(document)
        b = document.root.child_named("scene").child_named("b")
        arc = ConditionalArc("../a", ".", condition="link")
        assert _attached_rows(engine, engine.add_arc, node_path(b),
                              arc) == ()
        assert engine.stats.last_mode == "noop"
        graph = compile_graph(document.compile())
        assert ConstraintKind.EXPLICIT_ARC not in kinds(graph.system())


class TestVarsAndTable:
    def test_time_var_identity(self):
        assert begin_var("/a") == TimeVar("/a", VarKind.BEGIN)
        assert end_var("/a") != begin_var("/a")

    def test_system_size(self):
        document = single_channel_seq(count=2)
        variables, constraints = build_constraints(
            document.compile()).size
        assert variables >= 8  # 4 nodes x 2 anchors
        assert constraints > 0

    def test_arc_table_includes_defaults_and_explicit(self):
        document, builder = two_channel_par()
        b = document.root.child_named("scene").child_named("b")
        builder.arc(b, source="../a", destination=".",
                    max_delay=MediaTime.ms(100))
        rows = arc_table(document.compile())
        origins = {row["origin"] for row in rows}
        assert "explicit-arc" in origins
        assert "par-default" in origins
        explicit_rows = [r for r in rows if r["origin"] == "explicit-arc"]
        assert len(explicit_rows) == 1  # deduplicated lower/upper pair
        assert explicit_rows[0]["max_delay"] == "100ms"


# -- live edits: the rows a cold lowering emits -------------------------------


def _twins(kind, seed):
    """Two independently built copies of one seeded document."""
    make = make_media_document if kind == "media" else make_random_document
    return make(seed, events=16), make(seed, events=16)


def _attached_rows(engine, edit, *args):
    """Run one engine edit and return the row tuples it handed the
    solver to attach (an edit the solve then finds conflicting still
    handed them over)."""
    attached = []
    absorb = engine._absorb
    engine._absorb = lambda retired, added: (attached.append(added),
                                             absorb(retired, added))
    try:
        edit(*args)
    except SchedulingConflict:
        pass
    [added] = attached
    return added


def _by_value(row):
    """A row tuple with its subject compared by value: an event by its
    id, path and duration (a live retime rewrites only the compiled
    event's ``duration_ms``), an arc as itself."""
    var, base, weight, relax, code, subject, other = row
    if isinstance(subject, EventDescriptor):
        subject = (subject.event_id, subject.node_path, subject.duration_ms)
    return var, base, weight, relax, code, subject, other


def _cold_rows(document, keep):
    """The rows a cold ``compile_graph`` of ``document`` emits, as row
    tuples, for every row ``keep(code, subject, other)`` accepts."""
    graph = compile_graph(document.compile())
    rows = [tuple(column[row] for column in graph.columns)
            for row in range(graph.real_count)]
    return [row for row in rows if keep(*row[4:])]


DOCUMENTS = {"kind": st.sampled_from(["media", "random"]),
             "seed": st.integers(0, 400)}
TIMES = st.floats(0.0, 5000.0, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(**DOCUMENTS, pick=st.integers(0, 10_000), duration=TIMES)
def test_retime_delta_adds_what_build_constraints_emits(kind, seed, pick,
                                                        duration):
    """A live retime attaches the duration pair a cold lowering of the
    retimed twin emits (the rule ``build_constraints`` pins it to)."""
    document, twin = _twins(kind, seed)
    engine = IncrementalScheduler(document)
    paths = [event.node_path for event in engine.compiled.events]
    path = paths[pick % len(paths)]
    added = _attached_rows(engine, engine.retime, path, duration)
    retime(twin, path, duration)
    emitted = _cold_rows(twin, lambda code, subject, other:
                         code in (_M_DUR_LOW, _M_DUR_UP)
                         and subject.node_path == path)
    assert len(emitted) == 2
    assert list(map(_by_value, added)) == list(map(_by_value, emitted))


@settings(max_examples=40, deadline=None)
@given(**DOCUMENTS, picks=st.tuples(*[st.integers(0, 10_000)] * 3),
       anchors=st.tuples(st.sampled_from(Anchor), st.sampled_from(Anchor)),
       strictness=st.sampled_from(Strictness), offset=TIMES,
       min_delay=TIMES, width=st.none() | TIMES,
       conditional=st.booleans())
def test_add_arc_delta_adds_what_build_constraints_emits(
        kind, seed, picks, anchors, strictness, offset, min_delay, width,
        conditional):
    """A live arc add attaches the rows a cold lowering of the twin
    emits for that arc occurrence, and none for a conditional arc."""
    document, twin = _twins(kind, seed)
    engine = IncrementalScheduler(document)
    paths = [node_path(node) for node in iter_preorder(document.root)]
    owner, source, destination = (paths[pick % len(paths)]
                                  for pick in picks)
    fields = dict(source=source, destination=destination,
                  src_anchor=anchors[0], dst_anchor=anchors[1],
                  strictness=strictness, offset=MediaTime.ms(offset),
                  min_delay=MediaTime.ms(-min_delay),
                  max_delay=None if width is None else MediaTime.ms(width))
    arc_type = ConditionalArc if conditional else SyncArc
    added = _attached_rows(engine, engine.add_arc, owner, arc_type(**fields))
    add_arc(twin, owner, arc_type(**fields))
    twin_arc = resolve_path(twin.root, owner).arcs[-1]
    emitted = _cold_rows(twin, lambda code, subject, other:
                         subject is twin_arc and other == owner)
    assert len(emitted) == (0 if conditional else 1 if width is None
                            else 2)
    assert list(added) == emitted


# -- one arc listed twice: a removal takes out one occurrence -----------------


def _assert_matches_a_cold_solve(schedule, document):
    cold = schedule_document(document.compile())
    assert schedule.times_ms == cold.times_ms
    assert ([(e.event.node_path, e.begin_ms, e.end_ms)
             for e in schedule.events]
            == [(e.event.node_path, e.begin_ms, e.end_ms)
                for e in cold.events])


def test_removing_a_duplicated_arc_keeps_the_copy_of_it():
    """``duplicate`` copies a subtree's arcs by reference, so the copy
    lists the original's arc instance; removing the original's
    occurrence must keep the copy's rows."""
    document = make_media_document(7, events=20)
    editor = LiveEditor(document)
    for spec in ({"op": "add_arc", "owner": "/#3", "source": "e3",
                  "destination": "e4", "src_anchor": "begin",
                  "dst_anchor": "begin", "strictness": "must",
                  "offset_ms": 5000.0, "max_delay_ms": None},
                 {"op": "duplicate", "path": "/#3", "name": "copy"},
                 {"op": "remove_arc", "owner": "/#3", "index": 1}):
        record = editor.apply(spec)
    assert record.mode == PATCHED
    _assert_matches_a_cold_solve(editor.schedule, document)


def test_removing_one_listing_of_an_arc_keeps_the_other():
    document, _builder = two_channel_par()
    engine = IncrementalScheduler(document)
    arc = SyncArc(source="a", destination="b", src_anchor=Anchor.BEGIN,
                  dst_anchor=Anchor.BEGIN, offset=MediaTime.ms(3000.0),
                  min_delay=MediaTime.ms(0.0), max_delay=None)
    engine.add_arc("/scene", arc)
    engine.add_arc("/scene", arc)
    engine.remove_arc("/scene", 0)
    assert engine.stats.last_mode == "incremental"
    assert engine.schedule.node_begin_ms("/scene/b") == 3000.0
    _assert_matches_a_cold_solve(engine.schedule, document)
