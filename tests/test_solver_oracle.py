"""The shipped solve core against the retired object-form solver.

``tests/oracles/solver.py`` keeps the earlier object-form ``solve`` and
``IncrementalSolver`` verbatim.  The shipped solver lowers both the
object system (``solve``) and the compiled graph (``solve_graph``) onto
one row layout and runs one core over it; both must reproduce the
retired solver exactly:

* cold solves over seeded random, media, flat, deep and deliberately
  conflicted documents, under both relaxation policies and three
  relaxation budgets — same variables in the same order, same times,
  iterations and dropped constraints, or the same conflict message and
  cycle;
* seeded edit scripts (retimes, adds and removes of bounded and
  unbounded must and may arcs) through the shipped ``IncrementalSolver``,
  fed the rows each edit retires and adds on a ``compile_graph``
  lowering, and the retired one, fed the object-form deltas — same
  mode, changed set and result after every edit, both rebuilt after a
  ``"full"`` outcome;
* the incremental solver's row table stays bounded across thousands of
  add/remove cycles.

Durations in the edit scripts are integral milliseconds, so the
comparisons are ``==``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.edit import add_arc, remove_arc, retime
from repro.core.errors import SchedulingConflict
from repro.core.syncarc import Strictness, SyncArc
from repro.core.timebase import MediaTime
from repro.corpus import (make_deep_document, make_flat_document,
                          make_media_document, make_random_document)
from repro.timing import (ConstraintKind, IncrementalSolver,
                          RELAX_DROP_LAST, RELAX_DROP_WIDEST,
                          build_constraints, compile_graph, solve,
                          solve_graph)
from repro.timing.graph import _arc_rows
from tests.oracles import solver as oracle
from tests.test_graph_solver import _conflicted_document, _two_may_document
from tests.test_incremental import _leaf_paths, _make_document, _retime_rows

POLICIES = (RELAX_DROP_LAST, RELAX_DROP_WIDEST)
BUDGETS = (0, 1, None)


def _tangled_document(seed: int):
    """A random document plus arcs in both directions between leaves,
    bounded and unbounded, must and may: conflicts, may drops and
    exhausted budgets all occur across seeds."""
    rng = random.Random(seed)
    document = _make_document(seed, sections=4, events_per=7)
    leaves = _leaf_paths(document)
    for _ in range(rng.randrange(2, 7)):
        document.root.add_arc(_random_arc(rng, leaves))
    return document


def _random_arc(rng: random.Random, leaves: list[str]) -> SyncArc:
    first, second = rng.sample(range(len(leaves)), 2)
    bounded = rng.random() < 0.6
    return SyncArc(
        source=leaves[first], destination=leaves[second],
        strictness=(Strictness.MAY if rng.random() < 0.5
                    else Strictness.MUST),
        offset=MediaTime.ms(float(rng.randrange(0, 1500))),
        min_delay=MediaTime.ms(0.0),
        max_delay=(MediaTime.ms(float(rng.choice((50, 400, 5000, 20000))))
                   if bounded else None))


def _script_arc(rng: random.Random, leaves: list[str]) -> SyncArc:
    """Mostly forward, mostly satisfiable arcs, so edit scripts spend
    most deltas on the incremental path; tight may windows and the odd
    tight must window still force drops and conflicts."""
    first, second = sorted(rng.sample(range(len(leaves)), 2))
    if rng.random() < 0.15:
        first, second = second, first
    roll = rng.random()
    if roll < 0.45:
        strictness, max_delay = Strictness.MUST, None
    elif roll < 0.65:
        strictness, max_delay = Strictness.MUST, 60000.0
    elif roll < 0.95:
        strictness = Strictness.MAY
        max_delay = float(rng.choice((50, 400, 5000)))
    else:
        strictness, max_delay = Strictness.MUST, 50.0
    return SyncArc(
        source=leaves[first], destination=leaves[second],
        strictness=strictness,
        offset=MediaTime.ms(float(rng.randrange(0, 1000))),
        min_delay=MediaTime.ms(0.0),
        max_delay=None if max_delay is None else MediaTime.ms(max_delay))


def _cold_documents():
    documents = []
    for fraction in (0.0, 0.3, 0.6, 0.9):
        for seed in range(3):
            documents.append((f"random-{fraction}-{seed}",
                              make_random_document(
                                  seed * 31 + int(fraction * 10),
                                  events=50, arc_fraction=fraction)))
    documents += [(f"media-{seed}", make_media_document(seed))
                  for seed in range(3)]
    documents += [(f"tangled-{seed}", _tangled_document(seed))
                  for seed in range(10)]
    documents += [
        ("flat", make_flat_document(30)),
        ("deep", make_deep_document(6)),
        ("conflicted-must", _conflicted_document("must")),
        ("conflicted-may", _conflicted_document("may")),
        ("two-may", _two_may_document()),
    ]
    return documents


def _attempt(run):
    try:
        return run(), None
    except SchedulingConflict as error:
        return None, error


def _assert_same_solve(got, expected, *, same_objects: bool) -> None:
    """``got`` reproduces ``expected``; with ``same_objects`` (both
    solved one system) dropped constraints and cycle members are the
    system's own instances."""
    result, error = got
    expected_result, expected_error = expected
    if expected_error is not None:
        assert result is None, "shipped solver missed a conflict"
        assert str(error) == str(expected_error)
        assert ([c.describe() for c in error.cycle]
                == [c.describe() for c in expected_error.cycle])
        for mine, theirs in zip(error.cycle, expected_error.cycle):
            assert mine.arc is theirs.arc
            if same_objects and mine.kind is not ConstraintKind.ROOT_ANCHOR:
                assert mine is theirs
        return
    assert error is None, f"shipped solver raised {error}"
    assert list(result.times_ms) == list(expected_result.times_ms)
    assert (list(result.times_ms.values())
            == list(expected_result.times_ms.values()))
    assert result.iterations == expected_result.iterations
    assert ([c.describe() for c in result.dropped]
            == [c.describe() for c in expected_result.dropped])
    for mine, theirs in zip(result.dropped, expected_result.dropped):
        assert mine.arc is theirs.arc
        if same_objects:
            assert mine is theirs


class TestColdSolves:
    @pytest.mark.parametrize("max_relaxations", BUDGETS)
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("label,document", _cold_documents())
    def test_both_lowerings_match_the_retired_solve(
            self, label, document, policy, max_relaxations):
        compiled = document.compile()
        system = build_constraints(compiled)
        options = {"relaxation_policy": policy,
                   "max_relaxations": max_relaxations}
        expected = _attempt(lambda: oracle.solve(system, **options))
        _assert_same_solve(_attempt(lambda: solve(system, **options)),
                           expected, same_objects=True)
        graph = compile_graph(compiled)
        _assert_same_solve(
            _attempt(lambda: solve_graph(graph, **options)),
            expected, same_objects=False)

    def test_the_corpus_exercises_drops_and_conflicts(self):
        drops = conflicts = 0
        for _, document in _cold_documents():
            result, error = _attempt(lambda: oracle.solve(
                build_constraints(document.compile())))
            conflicts += error is not None
            drops += bool(result is not None and result.dropped)
        assert drops >= 3 and conflicts >= 2


# -- incremental solves ------------------------------------------------------


class _Twins:
    """The shipped incremental solver on a compiled graph's rows and the
    retired one on an object-form system, for one document revision."""

    def __init__(self, document, policy: str) -> None:
        self.compiled = document.compile()
        system = build_constraints(document.compile())
        self.index = oracle.ConstraintIndex(system)
        self.pairs = []
        errors = []
        for make in (lambda: IncrementalSolver(compile_graph(self.compiled),
                                               relaxation_policy=policy),
                     lambda: oracle.IncrementalSolver(
                         system, relaxation_policy=policy)):
            try:
                self.pairs.append(make())
            except SchedulingConflict as error:
                errors.append(error)
        assert len(errors) in (0, 2), "only one solver found a conflict"
        if errors:
            assert str(errors[0]) == str(errors[1])
            self.pairs = []
        else:
            assert self.pairs[0].result == self.pairs[1].result

    def apply(self, make_rows, make_delta) -> str:
        """``make_rows(solver, compiled)`` gives the shipped solver the
        rows an edit retires and adds; ``make_delta(index)`` gives the
        retired one the same edit's delta."""
        mine_solver, their_solver = self.pairs
        mine = mine_solver.apply(*make_rows(mine_solver, self.compiled))
        delta = make_delta(self.index)
        self.index.apply(delta)
        theirs = their_solver.apply(delta)
        assert mine.mode == theirs.mode, (mine.reason, theirs.reason)
        timevar = mine_solver.graph.timevar
        assert (None if mine.changed is None
                else {timevar(var) for var in mine.changed}) \
            == theirs.changed
        if mine.mode != "full":
            assert mine_solver.result == their_solver.result
        return mine.mode


def _root_arc_rows(solver, compiled, arc: SyncArc):
    """The rows ``arc`` contributes when the root lists it."""
    seq_of = {id(node): seq for seq, node in enumerate(compiled.nodes)}
    return _arc_rows(solver.graph, compiled.document.root, "/", arc, seq_of,
                     compiled.document.timebase)


def _drive_edit_script(seed: int, policy: str, steps: int = 40) -> dict:
    """Edit one document; every edit goes through both solvers."""
    rng = random.Random(seed)
    document = _make_document(seed, sections=5, events_per=8)
    leaves = _leaf_paths(document)
    root = document.root
    twins = _Twins(document, policy)
    modes = {"incremental": 0, "full": 0, "noop": 0, "conflict": 0}
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.4:
            path = rng.choice(leaves)
            duration = float(rng.randrange(100, 3000))
            retime(document, path, MediaTime.ms(duration))

            def make_rows(solver, compiled, path=path, duration=duration):
                return _retime_rows(solver, compiled, path, duration)

            def make_delta(index, path=path, duration=duration):
                return oracle.retime_delta(index, path, duration)
        elif roll < 0.7 or not root.arcs:
            arc = _script_arc(rng, leaves)
            add_arc(document, "/", arc)

            def make_rows(solver, compiled, arc=arc):
                return [], _root_arc_rows(solver, compiled, arc)

            def make_delta(index, arc=arc):
                return oracle.add_arc_delta(document, root, arc)
        else:
            position = rng.randrange(len(root.arcs))
            arc = root.arcs[position]
            remove_arc(document, "/", position)

            def make_rows(solver, compiled, arc=arc):
                rows = _root_arc_rows(solver, compiled, arc)
                return solver.live_rows(rows), ()

            def make_delta(index, arc=arc):
                return oracle.remove_arc_delta(index, arc)
        if not twins.pairs:
            # The last rebuild conflicted: rebuild again after this edit.
            twins = _Twins(document, policy)
            modes["conflict"] += not twins.pairs
            continue
        mode = twins.apply(make_rows, make_delta)
        modes[mode] += 1
        if mode == "full":
            twins = _Twins(document, policy)
            modes["conflict"] += not twins.pairs
    return modes


class TestIncrementalSolves:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", range(8))
    def test_every_delta_matches_the_retired_solver(self, seed, policy):
        _drive_edit_script(seed, policy)

    def test_the_scripts_exercise_both_paths(self):
        totals = {"incremental": 0, "full": 0, "conflict": 0}
        for seed in range(8):
            modes = _drive_edit_script(seed, RELAX_DROP_LAST)
            for mode in totals:
                totals[mode] += modes[mode]
        assert totals["incremental"] >= 50
        assert totals["full"] >= 10
        assert totals["conflict"] >= 1


def test_row_table_stays_bounded_across_add_remove_cycles():
    document = _make_document(5, sections=3, events_per=6)
    compiled = document.compile()
    solver = IncrementalSolver(compile_graph(compiled))
    unedited = solver.result
    leaves = _leaf_paths(document)

    def add_then_remove(cycle: int) -> None:
        # A binding arc (it pushes the last leaf), bounded every other
        # cycle: one row or two to add, then retire.
        arc = SyncArc(source=leaves[0], destination=leaves[-1],
                      offset=MediaTime.ms(float(20000 + cycle % 7)),
                      max_delay=(MediaTime.ms(1e6) if cycle % 2 else None))
        rows = _root_arc_rows(solver, compiled, arc)
        assert solver.apply([], rows).mode == "incremental"
        assert solver.apply(solver.live_rows(rows), ()).mode == "incremental"
        assert solver.result == unedited

    for cycle in range(10):
        add_then_remove(cycle)
    rows_after_ten = len(solver.graph.cons_var)
    for cycle in range(10, 2000):
        add_then_remove(cycle)
    assert len(solver.graph.cons_var) <= rows_after_ten
