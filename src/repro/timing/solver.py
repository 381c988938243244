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

:class:`IncrementalSolver` keeps a system's rows alive across authoring
edits and re-relaxes only the region an edit touches, with the same
Kahn pass and cleanup.  The layout and core's names (the relaxation
policies, :data:`SUSPICION_LAPS`, :class:`SolverResult`) are importable
from here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.errors import SchedulingConflict
from repro.timing.constraints import (Constraint, ConstraintDelta,
                                      ConstraintSystem, TimeVar)
from repro.timing.graph import (RELAX_DROP_LAST, RELAX_DROP_WIDEST,
                                RELAXATION_POLICIES, SUSPICION_LAPS,
                                ConstraintGraph, SolverResult, _EPS,
                                _Infeasible, _cleanup, _implied_root_arc,
                                _kahn, _relax, _rows_by,
                                check_relaxation_policy, solve_graph)


def solve(system: ConstraintSystem, *,
          relaxation_policy: str = RELAX_DROP_LAST,
          max_relaxations: int | None = None) -> SolverResult:
    """Solve the system, relaxing may constraints as needed.

    Raises :class:`SchedulingConflict` when a cycle of must constraints
    remains; the exception's ``cycle`` lists the conflicting constraints
    so authoring tools can report them (the paper's "CMIF plays a role in
    signalling problems, allowing other mechanisms to provide
    solutions").  ``dropped`` and ``cycle`` hold the system's own
    constraint objects.
    """
    check_relaxation_policy(relaxation_policy)
    return solve_graph(ConstraintGraph.from_system(system),
                       relaxation_policy=relaxation_policy,
                       max_relaxations=max_relaxations)


# ---------------------------------------------------------------------------
# Incremental re-relaxation (the authoring loop's re-solve step).


@dataclass(frozen=True)
class IncrementalOutcome:
    """How one delta was absorbed.

    ``mode`` is ``"incremental"`` (seeded re-relaxation of the affected
    region), ``"full"`` (fallback from-scratch solve) or ``"noop"`` (the
    delta had no scheduling effect).  ``changed`` holds the variables
    whose times moved; ``None`` means potentially all of them.
    """

    mode: str
    changed: set[TimeVar] | None
    reason: str = ""


class IncrementalSolver:
    """Persistent solver state that absorbs constraint deltas.

    A full solve computes the pointwise-minimal feasible assignment —
    the least fixpoint of max-relaxation above the root anchor.  Two
    monotonicity facts make edits cheap:

    * *adding* constraints can only push times later, so the previous
      solution is a valid seed: enqueue the new constraints' bases and
      re-relax;
    * *removing* constraints can only pull times earlier, and only for
      variables whose supporting (longest) path used a removed
      constraint.  The solver tracks each variable's supporting row
      (its predecessor); on removal, the transitively supported region
      is reset to the root anchor and re-relaxed from its unaffected
      frontier.

    Both cases perform the same ``dist[base] + weight`` arithmetic as the
    full solve, so the re-relaxed times are identical to a from-scratch
    solve of the updated system (equality the property tests assert).

    The system's rows stay alive between deltas: a delta's constraints
    map to rows by identity, a removed row leaves its variables' row
    lists, and added constraints (and the implied arcs of variables a
    delta interns) take rows retired by an earlier delta before new
    ones are appended, so row storage stays bounded by the live
    constraints.

    A delta this cannot absorb comes back as a ``"full"`` outcome and
    leaves the solver stale: the caller rebuilds the system and solves
    it with a fresh solver.  That happens when (a) a re-relaxation
    uncovers a positive cycle — resolving it may require dropping *may*
    constraints, which is inherently global — or (b) the solve already
    dropped may constraints (an edit may allow one to be reinstated).
    Topology-changing edits never reach this class either.
    """

    def __init__(self, system: ConstraintSystem, *,
                 relaxation_policy: str = RELAX_DROP_LAST) -> None:
        check_relaxation_policy(relaxation_policy)
        self.system = system
        graph = ConstraintGraph.from_system(system)
        self._graph = graph
        #: Per variable, the rows pointing at it: the inflow phase 0
        #: re-anchors from.  Near-ties resolve by this order.
        self._incoming = _rows_by(graph.cons_var, graph.count)
        #: ``id(constraint) -> row`` for every live system constraint.
        self._row_of: dict[int, int] = {
            id(constraint): row
            for row, constraint in enumerate(system.constraints)}
        #: Rows removed by earlier deltas, free for reuse.
        self._free: list[int] = []
        # The initial solve is a full one, so it picks the same cycles
        # (hence the same may drops) as a from-scratch reference solve.
        (self._dist, self._pred, dropped, self._skipped,
         self._iterations) = _relax(graph, relaxation_policy,
                                    sum(graph.cons_relax))
        self._dropped = [graph.constraint(row) for row in dropped]
        # Beside _dist so ``result`` copies cached hashes, not re-hashed vars.
        self._times: dict[TimeVar, float] = dict(
            zip(system.variables, self._dist))
        #: support-graph reverse index (base position -> positions whose
        #: predecessor row hangs off it), built lazily on first use and
        #: then maintained incrementally alongside ``_pred``.
        self._dependents: list[set[int]] | None = None
        self._dep_base: list[int] = []

    # -- rows -----------------------------------------------------------

    def _attach(self, constraint: Constraint) -> None:
        """Give ``constraint`` a row: a retired one if any is free."""
        graph = self._graph
        index = self.system.var_index
        var = index[constraint.var]
        base = index[constraint.base]
        relax = 1 if constraint.relaxable else 0
        if self._free:
            row = self._free.pop()
            graph.cons_var[row] = var
            graph.cons_base[row] = base
            graph.cons_weight[row] = constraint.weight_ms
            graph.cons_relax[row] = relax
            self._skipped[row] = 0
        else:
            row = len(graph.cons_var)
            graph.cons_var.append(var)
            graph.cons_base.append(base)
            graph.cons_weight.append(constraint.weight_ms)
            graph.cons_relax.append(relax)
            self._skipped.append(0)
        graph._constraints[row] = constraint
        graph.out[base].append(row)
        self._incoming[var].append(row)
        self._row_of[id(constraint)] = row

    def _detach(self, row: int) -> None:
        graph = self._graph
        graph.out[graph.cons_base[row]].remove(row)
        self._incoming[graph.cons_var[row]].remove(row)
        del graph._constraints[row]

    def _extend_arrays(self) -> None:
        """Grow state for variables a delta interned into the system."""
        variables = self.system.variables
        graph = self._graph
        root_var = self.system.root_begin
        while len(self._dist) < len(variables):
            var = variables[len(self._dist)]
            graph.out.append([])
            graph._timevars.append(var)
            self._incoming.append([])
            self._dist.append(0.0)
            self._pred.append(-1)
            if self._dependents is not None:
                self._dependents.append(set())
                self._dep_base.append(-1)
            self._times[var] = 0.0
            graph.count = len(self._dist)
            self._attach(_implied_root_arc(var, root_var))

    # -- support tracking -----------------------------------------------

    def _dependents_map(self) -> list[set[int]]:
        """``base position -> dependent positions`` of the support graph.

        Built from ``_pred`` on first use; from then on
        :meth:`_note_support_changes` keeps it current, so removal
        deltas stop paying an O(V) map rebuild each.
        """
        if self._dependents is None:
            count = len(self._pred)
            dependents: list[set[int]] = [set() for _ in range(count)]
            dep_base = [-1] * count
            cons_base = self._graph.cons_base
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
        cons_base = self._graph.cons_base
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
    def degraded(self) -> bool:
        """True when the current solution rests on dropped may arcs."""
        return bool(self._dropped)

    @property
    def result(self) -> SolverResult:
        """A snapshot of the current solution."""
        return SolverResult(times_ms=dict(self._times),
                            dropped=list(self._dropped),
                            iterations=self._iterations)

    def apply(self, delta: ConstraintDelta) -> IncrementalOutcome:
        """Absorb ``delta``: update the system, then re-relax.

        The solver owns applying the delta to ``self.system`` (callers
        must not call ``apply_delta`` separately).  A ``"full"`` outcome
        means the delta could not be absorbed and the solver is now
        stale: the caller must discard it and solve a rebuilt system,
        whose canonical constraint order makes the order-sensitive
        may-arc drop choices match a from-scratch solve exactly.
        """
        if delta.full_rebuild:
            raise SchedulingConflict(
                f"topology delta ({delta.reason}) needs a rebuilt system "
                f"and a fresh IncrementalSolver")
        if delta.empty:
            return IncrementalOutcome("noop", set(), delta.reason)

        removed: list[int] = []
        for constraint in delta.removed:
            row = self._row_of.pop(id(constraint), None)
            if row is not None:
                self._detach(row)
                removed.append(row)
        self.system.remove_all(delta.removed)
        for constraint in delta.added:
            self.system.add(constraint)
        self._extend_arrays()
        for constraint in delta.added:
            self._attach(constraint)

        if self._dropped:
            return IncrementalOutcome(
                "full", None,
                "previous solve dropped may constraints; revalidating")

        graph = self._graph
        dist = self._dist
        pred = self._pred
        skipped = self._skipped
        cons_base = graph.cons_base
        cons_weight = graph.cons_weight
        affected = self._supported_by(set(removed))
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
        # region and from any added constraints.
        seeds: set[int] = set(affected)
        index = self.system.var_index
        for constraint in delta.added:
            seeds.add(index[constraint.base])
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
        # Phase 0 re-anchored every variable a removed row supported,
        # so no predecessor names one any more: they are free for reuse.
        self._free.extend(removed)
        variables = self.system.variables
        changed_vars: set[TimeVar] = set()
        for position in changed:
            var = variables[position]
            self._times[var] = dist[position]
            changed_vars.add(var)
        return IncrementalOutcome("incremental", changed_vars, delta.reason)


def check_solution(system: ConstraintSystem, times_ms: dict[TimeVar, float],
                   *, epsilon: float = 1e-6) -> list[Constraint]:
    """Return the constraints ``times_ms`` violates (empty when valid).

    Used by property tests and by the player to audit a perturbed
    (device-delayed) execution against the document's requirements.
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
