"""The scheduling solver (paper sections 5.3.1 and 5.3.2).

The constraint system produced by :mod:`repro.timing.constraints` is a
system of difference constraints ``x - y >= w``.  With the root's begin
anchored at zero ("the root node ... provides an implied timing reference
point for all other nodes in the document"), the pointwise-minimal
feasible assignment — the ASAP schedule, matching the paper's "start the
successor as soon as possible" default — is the longest path from the
root variable in the graph with an edge ``y -> x`` of weight ``w`` per
constraint.

Every solve runs on one layout and one core, both in
:mod:`repro.timing.graph`: :func:`solve` lowers the system onto a
:class:`~repro.timing.graph.ConstraintGraph`'s rows and solves them
with :func:`~repro.timing.graph.solve_graph`.  A Kahn pass in
topological order of the non-negative edges settles nearly every
variable; a label-correcting cleanup handles the rest and certifies
*positive cycles*, which are exactly the unsatisfiable constraint sets
of conflict class (1) in section 5.3.3.

When an infeasible cycle contains constraints from *may* arcs, the solver
relaxes (drops) one of them and retries — implementing the paper's may
semantics ("desirable but not essential").  Two relaxation policies are
provided for the DESIGN.md ablation:

* ``drop-last`` — drop the may constraint appearing latest in document
  order (the author's most recent refinement yields first);
* ``drop-widest`` — drop the may constraint whose window is widest (the
  loosest preference yields first).

Must constraints are never dropped; a cycle of must constraints raises
:class:`~repro.core.errors.SchedulingConflict` carrying the cycle.

:class:`IncrementalSolver` keeps a compiled graph's rows
(:func:`~repro.timing.graph.compile_graph`) alive across authoring
edits, detaching and attaching the rows an edit changes, and re-relaxes
only the region the edit touches, with the same Kahn pass and cleanup.
The layout and core's names (the relaxation policies,
:data:`SUSPICION_LAPS`, :class:`SolverResult`) are importable from here
as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.timing.constraints import Constraint, ConstraintSystem, TimeVar
from repro.timing.graph import (RELAX_DROP_LAST, RELAX_DROP_WIDEST,
                                RELAXATION_POLICIES, SUSPICION_LAPS,
                                ConstraintGraph, DenseTimes, SolverResult,
                                _EPS, _Infeasible, _cleanup, _kahn, _relax,
                                _rows_by, check_relaxation_policy,
                                solve_graph)


def solve(system: ConstraintSystem, *,
          relaxation_policy: str = RELAX_DROP_LAST,
          max_relaxations: int | None = None) -> SolverResult:
    """Solve the system, relaxing may constraints as needed.

    Raises :class:`~repro.core.errors.SchedulingConflict` when a cycle
    of must constraints remains; the exception's ``cycle`` lists the
    conflicting constraints so authoring tools can report them (the
    paper's "CMIF plays a role in signalling problems, allowing other
    mechanisms to provide solutions").  ``dropped`` and ``cycle`` hold
    the system's own constraint objects.
    """
    check_relaxation_policy(relaxation_policy)
    return solve_graph(ConstraintGraph.from_system(system),
                       relaxation_policy=relaxation_policy,
                       max_relaxations=max_relaxations)


# ---------------------------------------------------------------------------
# Incremental re-relaxation (the authoring loop's re-solve step).


@dataclass(frozen=True)
class IncrementalOutcome:
    """How one edit was absorbed.

    ``mode`` is ``"incremental"`` (seeded re-relaxation of the affected
    region), ``"full"`` (fallback from-scratch solve) or ``"noop"`` (the
    edit had no scheduling effect).  ``changed`` holds the ids of the
    variables whose times moved; ``None`` means potentially all of them.
    """

    mode: str
    changed: set[int] | None
    reason: str = ""


class IncrementalSolver:
    """Persistent solver state over one compiled graph's rows.

    A full solve computes the pointwise-minimal feasible assignment —
    the least fixpoint of max-relaxation above the root anchor.  Two
    monotonicity facts make edits cheap:

    * *adding* rows can only push times later, so the previous solution
      is a valid seed: enqueue the new rows' bases and re-relax;
    * *removing* rows can only pull times earlier, and only for
      variables whose supporting (longest) path used a removed row.
      The solver tracks each variable's supporting row (its
      predecessor); on removal, the transitively supported region is
      reset to the root anchor and re-relaxed from its unaffected
      frontier.

    Both cases perform the same ``dist[base] + weight`` arithmetic as the
    full solve, so the re-relaxed times are identical to a from-scratch
    solve of the edited document (equality the property tests assert).

    An edit hands :meth:`apply` the rows it retires and the row tuples
    it adds (:func:`~repro.timing.graph._duration_rows`,
    :func:`~repro.timing.graph._arc_rows`).  A retired row leaves its
    variables' row lists; an added one takes a row an earlier edit
    retired (last in, first out) or is appended, so row storage stays
    bounded by the live rows.  A row's place in ``out`` and in the
    incoming lists breaks near-ties between predecessors, so an added
    row always goes last in both.  Appended rows sit past the implied
    root rows, where :meth:`~repro.timing.graph.ConstraintGraph.constraint`
    would read them as implied: nothing materializes them, because an
    edit that needs a row's :class:`Constraint` (a cycle, or a may drop)
    comes back ``"full"``.

    A ``"full"`` outcome leaves the solver stale: the caller compiles a
    fresh graph and solves it with a fresh solver.  That happens when
    (a) a re-relaxation uncovers a positive cycle — resolving it may
    require dropping *may* rows, which is inherently global — or (b)
    the solve already dropped may rows (an edit may allow one to be
    reinstated).  Topology-changing edits never reach this class either.
    """

    def __init__(self, graph: ConstraintGraph, *,
                 relaxation_policy: str = RELAX_DROP_LAST) -> None:
        check_relaxation_policy(relaxation_policy)
        self.graph = graph
        # The initial solve is a full one, so it picks the same cycles
        # (hence the same may drops) as a from-scratch solve.
        (self._dist, self._pred, dropped, self._skipped,
         self._iterations) = _relax(graph, relaxation_policy,
                                    sum(graph.cons_relax))
        self._dropped = [graph.constraint(row) for row in dropped]
        # The provenance columns stop at the document's rows; cover the
        # implied root rows too, so every row an edit appends has its
        # own, and :meth:`live_rows` can read any row in ``out``.
        implied = [None] * (len(graph.cons_var) - len(graph.cons_code))
        graph.cons_code += implied
        graph.cons_subject += implied
        graph.cons_other += implied
        #: Per variable, the rows pointing at it: the inflow phase 0
        #: re-anchors from.  Near-ties resolve by this order.
        self._incoming = _rows_by(graph.cons_var, graph.count)
        #: Rows removed by earlier edits, free for reuse.
        self._free: list[int] = []
        #: support-graph reverse index (base position -> positions whose
        #: predecessor row hangs off it), built lazily on first use and
        #: then maintained incrementally alongside ``_pred``.
        self._dependents: list[set[int]] | None = None
        self._dep_base: list[int] = []

    # -- rows -----------------------------------------------------------

    def live_rows(self, rows) -> list[int]:
        """The live rows that ``rows`` (row tuples) stand for.

        Per tuple, the first live row based at the same variable that
        the same rule emitted for the same subjects: a leaf's duration
        pair by its event, an arc occurrence's rows by the arc and its
        owner's path.  When an owner lists one arc twice, this names one
        occurrence's rows.
        """
        graph = self.graph
        codes = graph.cons_code
        subjects = graph.cons_subject
        others = graph.cons_other
        return [next(row for row in graph.out[base]
                     if codes[row] == code and subjects[row] is subject
                     and others[row] == other)
                for _, base, _, _, code, subject, other in rows]

    def _attach(self, values: tuple) -> int:
        """Give one row tuple a row: a retired one if any is free."""
        columns = self.graph.columns
        if self._free:
            row = self._free.pop()
            for column, value in zip(columns, values):
                column[row] = value
            self._skipped[row] = 0
        else:
            row = len(self.graph.cons_var)
            for column, value in zip(columns, values):
                column.append(value)
            self._skipped.append(0)
        var, base = values[0], values[1]
        self.graph.out[base].append(row)
        self._incoming[var].append(row)
        return row

    def _detach(self, row: int) -> None:
        graph = self.graph
        graph.out[graph.cons_base[row]].remove(row)
        self._incoming[graph.cons_var[row]].remove(row)

    # -- support tracking -----------------------------------------------

    def _dependents_map(self) -> list[set[int]]:
        """``base position -> dependent positions`` of the support graph.

        Built from ``_pred`` on first use; from then on
        :meth:`_note_support_changes` keeps it current, so removals stop
        paying an O(V) map rebuild each.
        """
        if self._dependents is None:
            count = len(self._pred)
            dependents: list[set[int]] = [set() for _ in range(count)]
            dep_base = [-1] * count
            cons_base = self.graph.cons_base
            for position, row in enumerate(self._pred):
                if row < 0:
                    continue
                base = cons_base[row]
                dependents[base].add(position)
                dep_base[position] = base
            self._dependents = dependents
            self._dep_base = dep_base
        return self._dependents

    def _note_support_changes(self, positions: Iterable[int]) -> None:
        """Re-index ``positions`` whose predecessor may have changed."""
        if self._dependents is None:
            return
        dependents = self._dependents
        dep_base = self._dep_base
        cons_base = self.graph.cons_base
        pred = self._pred
        for position in positions:
            row = pred[position]
            base = -1 if row < 0 else cons_base[row]
            recorded = dep_base[position]
            if base != recorded:
                if recorded >= 0:
                    dependents[recorded].discard(position)
                if base >= 0:
                    dependents[base].add(position)
                dep_base[position] = base

    def _supported_by(self, removed: set[int]) -> set[int]:
        """Indices whose value may rest on a removed row.

        A variable's longest path can only shrink if its supporting
        chain (the predecessor rows) crosses a removed row; everything
        else keeps its exact value.
        """
        if not removed:
            return set()
        affected = {position for position, row in enumerate(self._pred)
                    if row in removed}
        if not affected:
            return affected
        dependents = self._dependents_map()
        frontier = list(affected)
        while frontier:
            base = frontier.pop()
            for dependent in dependents[base]:
                if dependent not in affected:
                    affected.add(dependent)
                    frontier.append(dependent)
        return affected

    # -- public API -----------------------------------------------------

    @property
    def result(self) -> SolverResult:
        """A snapshot of the current solution, over a copy of ``dist``."""
        return SolverResult(times_ms=DenseTimes(list(self._dist),
                                                self.graph),
                            dropped=list(self._dropped),
                            iterations=self._iterations)

    def apply(self, retired: list[int], added) -> IncrementalOutcome:
        """Absorb one edit: detach the ``retired`` rows, attach the
        ``added`` row tuples, then re-relax.

        A ``"full"`` outcome means the edit could not be absorbed and the
        solver is now stale: the caller must discard it and solve a
        freshly compiled graph, whose canonical row order makes the
        order-sensitive may-drop choices match a from-scratch solve
        exactly.
        """
        if not (retired or added):
            return IncrementalOutcome("noop", set())
        if self._dropped:
            return IncrementalOutcome(
                "full", None,
                "previous solve dropped may constraints; revalidating")
        for row in retired:
            self._detach(row)
        rows = [self._attach(values) for values in added]

        graph = self.graph
        dist = self._dist
        pred = self._pred
        skipped = self._skipped
        cons_base = graph.cons_base
        cons_weight = graph.cons_weight
        affected = self._supported_by(set(retired))
        # Phase 0: re-anchor every affected variable on its unaffected
        # inflow — frontier values are final, and the implied root arc
        # floors everything at 0.  Intra-region inflow is re-derived by
        # the next two phases.
        for position in affected:
            best = 0.0
            best_row = -1
            for row in self._incoming[position]:
                base = cons_base[row]
                if base in affected or skipped[row]:
                    continue
                candidate = dist[base] + cons_weight[row]
                if candidate > best + _EPS:
                    best = candidate
                    best_row = row
            dist[position] = best
            pred[position] = best_row
        # Phase 1: topological pass over the region's internal rows.
        _kahn(graph, skipped, dist, pred, members=affected)
        # Phase 2: the cleanup's FIFO mode, plus propagation out of the
        # region and from any added rows.
        seeds: set[int] = set(affected)
        for row in rows:
            seeds.add(cons_base[row])
        try:
            changed = _cleanup(graph, skipped, dist, pred, seeds)
        except _Infeasible:
            return IncrementalOutcome(
                "full", None,
                "edit made the region infeasible; re-solving with may "
                "relaxation")
        changed |= affected
        # Phases 0-2 only write predecessors inside the affected region
        # plus the cleanup's changed set; re-index exactly those.
        self._note_support_changes(changed)
        # Phase 0 re-anchored every variable a retired row supported,
        # so no predecessor names one any more: they are free for reuse.
        self._free.extend(retired)
        return IncrementalOutcome("incremental", changed)


def check_solution(system: ConstraintSystem, times_ms: dict[TimeVar, float],
                   *, epsilon: float = 1e-6) -> list[Constraint]:
    """Return the constraints ``times_ms`` violates (empty when valid).

    The solver tests audit solutions with it: a solve of a feasible
    system must leave no must constraint violated.  The player audits a
    played run against its arcs' windows instead
    (:meth:`~repro.pipeline.program.PlaybackProgram.audit`).
    """
    violations: list[Constraint] = []
    for constraint in system.constraints:
        lhs = times_ms.get(constraint.var)
        rhs = times_ms.get(constraint.base)
        if lhs is None or rhs is None:
            continue
        if lhs - rhs < constraint.weight_ms - epsilon:
            violations.append(constraint)
    return violations
