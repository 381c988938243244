"""The object-form solver the shared row core replaced.

``solve`` (with its ``ranked`` and ``fifo`` cleanups) and
``IncrementalSolver`` are the earlier :mod:`repro.timing.solver`
verbatim: adjacency lists of ``(target, weight, Constraint)`` tuples
built per solve, implied root arcs materialized eagerly, dropped may
constraints masked by ``id()``, and the ranked cleanup, FIFO SPFA,
predecessor cycle walk and may-relaxation loop written over those
tuples.  :class:`~repro.timing.solver.SolverResult`,
:class:`~repro.timing.solver.IncrementalOutcome` and the relaxation
policies are imported from the shipped solver, so results compare
equal across the two (an outcome's ``changed`` holds
:class:`~repro.timing.constraints.TimeVar` objects here, variable ids
there).

The retired solver absorbs object-form deltas, and the delta layer it
reads is the earlier :mod:`repro.timing.constraints` one verbatim:
:class:`ConstraintDelta`, :class:`ConstraintIndex` (which keys an
arc's constraints by ``id(arc)``), the three delta builders and
``remove_all`` (a :class:`ConstraintSystem` method there).

The shipped ``solve``, ``solve_graph`` and ``IncrementalSolver`` must
reproduce this module's times, drops, conflict cycles, incremental
modes and changed sets exactly (``tests/test_solver_oracle.py``).
``solve(cleanup="fifo")`` is also the pre-graph cold path
``benchmarks/bench_ingest.py`` times its gate against.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.document import CmifDocument
from repro.core.errors import SchedulingConflict
from repro.core.nodes import Node
from repro.core.paths import node_path
from repro.core.syncarc import ConditionalArc, SyncArc
from repro.timing.constraints import (Constraint, ConstraintKind,
                                      ConstraintSystem, TimeVar,
                                      _arc_constraints, _duration_pair,
                                      begin_var, end_var)
from repro.timing.solver import (IncrementalOutcome, RELAXATION_POLICIES,
                                 RELAX_DROP_LAST, RELAX_DROP_WIDEST,
                                 SolverResult)

#: Phase-2 cleanup algorithms (ablation axis; see DESIGN.md).
#: ``ranked`` processes its worklist in topological-rank batches and
#: checks for a positive-cycle certificate after a handful of laps —
#: the shared semantics of :func:`solve` and the compiled graph solver
#: (:mod:`repro.timing.graph`).  ``fifo`` is the pre-graph queue-based
#: SPFA kept as the benchmark baseline: identical times on feasible
#: systems, but its certificate only triggers after |V| relaxations of
#: one variable, which on conflicted documents means seconds of cycle
#: pumping before the conflict is even reported.
CLEANUP_RANKED = "ranked"
CLEANUP_FIFO = "fifo"
CLEANUP_ALGORITHMS = (CLEANUP_RANKED, CLEANUP_FIFO)

#: How many re-relaxations of one variable the ranked cleanup tolerates
#: before walking the predecessor graph for a cycle certificate.  A
#: copy of :data:`repro.timing.solver.SUSPICION_LAPS`, not an import:
#: the certification point decides which cycle a conflicted solve
#: reports, so a change to the shipped value must show up as a
#: disagreement with this oracle.
SUSPICION_LAPS = 16


class _Infeasible(Exception):
    """Internal: raised by one solve attempt with the offending cycle."""

    def __init__(self, cycle: list[Constraint]) -> None:
        super().__init__("positive cycle")
        self.cycle = cycle


def _implied_root_arc(var: TimeVar, root_var: TimeVar) -> Constraint:
    return Constraint(var, root_var, 0.0, ConstraintKind.ROOT_ANCHOR,
                      note="implied arc with the root")


def _build_adjacency(system: ConstraintSystem, *, incoming: bool = False
                     ) -> tuple[list[list[tuple[int, float, Constraint]]],
                                list[list[tuple[int, float, Constraint]]]
                                | None]:
    """Adjacency for the whole system, implied root edges included.

    For constraint ``var - base >= w``, an edge ``base -> var`` of
    weight ``w``.  The paper's implied arc with the root ("All nodes
    have an implied synchronization arc with the root node") is
    materialized as an explicit zero edge per variable, so upper-bound
    chains that would push the root later show up as positive cycles,
    i.e. genuine conflicts.

    Built once per solve; the may-relaxation loop masks dropped
    constraints through the ``skipped`` sets the passes take instead of
    rebuilding this structure (and N fresh implied constraints) on
    every retry.  Returns ``(outgoing, None)``, or with ``incoming``
    also the reverse lists the incremental solver re-anchors from: per
    variable, its constraints in system order, then its implied root
    edge.  Phase-0 near-ties resolve by that order.
    """
    index = system.var_index
    count = len(system.variables)
    if system.root_begin is None:
        raise SchedulingConflict("constraint system has no root anchor")
    root = index[system.root_begin]
    outgoing: list[list[tuple[int, float, Constraint]]] = [
        [] for _ in range(count)]
    reverse = [[] for _ in range(count)] if incoming else None
    for constraint in system.constraints:
        base = index[constraint.base]
        var = index[constraint.var]
        outgoing[base].append((var, constraint.weight_ms, constraint))
        if reverse is not None:
            reverse[var].append((base, constraint.weight_ms, constraint))
    root_var = system.root_begin
    for var, i in index.items():
        if i != root:
            implied = _implied_root_arc(var, root_var)
            outgoing[root].append((i, 0.0, implied))
            if reverse is not None:
                reverse[i].append((root, 0.0, implied))
    return outgoing, reverse


def _relax(outgoing: list[list[tuple[int, float, Constraint]]],
           index: dict[TimeVar, int], relaxation_policy: str,
           budget: int, cleanup: str = CLEANUP_RANKED
           ) -> tuple[list[float], list["Constraint | None"],
                      list[Constraint], set[int], int]:
    """The may-relaxation loop: solve, dropping may constraints off
    positive cycles until the system is feasible.

    Returns ``(dist, predecessor, dropped, skipped, iterations)`` —
    ``skipped`` holds the ids of the ``dropped`` constraints.  Raises
    :class:`SchedulingConflict` when a cycle has no relaxable member or
    ``budget`` drops are spent.
    """
    count = len(outgoing)
    skipped: set[int] = set()
    dropped: list[Constraint] = []
    iterations = 0
    while True:
        iterations += 1
        dist = [0.0] * count      # every event starts no earlier than root
        predecessor: list[Constraint | None] = [None] * count
        rank = [count + node for node in range(count)]
        try:
            # Phase 1: one pass in topological order of the non-negative
            # edges.  Real documents are almost pure DAGs there (upper
            # bounds are the only negative edges), so this settles nearly
            # every variable with exactly one relaxation per edge.
            dirty = _topological_pass(outgoing, dist, predecessor, None,
                                      count, skipped, rank)
            # Phase 2: cleanup for whatever phase 1 cannot order —
            # binding upper bounds and variables on (zero or positive)
            # cycles — with the positive-cycle certificate for the
            # latter.  On clean documents this costs nothing.
            if dirty:
                if cleanup == CLEANUP_RANKED:
                    _ranked_cleanup(outgoing, dist, predecessor, rank,
                                    dirty, index, skipped)
                else:
                    _spfa(outgoing, dist, predecessor, dirty, index,
                          skipped)
            return dist, predecessor, dropped, skipped, iterations
        except _Infeasible as infeasible:
            victim = _pick_relaxable(infeasible.cycle, relaxation_policy)
            if victim is None or len(dropped) >= budget:
                raise SchedulingConflict(
                    "unsatisfiable synchronization constraints "
                    "(conflict class 1, section 5.3.3): "
                    + "; ".join(c.describe() for c in infeasible.cycle),
                    cycle=infeasible.cycle) from None
            skipped.add(id(victim))
            dropped.append(victim)


def _topological_pass(outgoing: list[list[tuple[int, float, "Constraint"]]],
                      dist: list[float],
                      predecessor: list["Constraint | None"],
                      nodes: "Iterable[int] | None", count: int,
                      skipped: set[int] | None = None,
                      rank: list[int] | None = None) -> list[int]:
    """Kahn's algorithm over the non-negative edges among ``nodes``.

    ``nodes=None`` means the whole graph.  Relaxes every edge (negative
    ones included) out of each processed variable and returns the
    variables that may still be unsettled: members a non-negative cycle
    kept out of the topological order, plus targets a negative edge
    actually moved after they were ordered.  The phase-2 cleanup only
    needs to start from those.  When ``rank`` is given, each processed
    variable's pop position is recorded there (the ranked cleanup's
    batch order).
    """
    if nodes is None:
        member = None
        members: list[int] = list(range(count))
    else:
        members = list(nodes)
        member = bytearray(count)
        for node in members:
            member[node] = 1
    indegree = [0] * count
    for node in members:
        for target, weight, constraint in outgoing[node]:
            if skipped and id(constraint) in skipped:
                continue
            if weight >= 0.0 and (member is None or member[target]):
                indegree[target] += 1
    ready = collections.deque(
        node for node in members if indegree[node] == 0)
    dirty: list[int] = []
    popped = 0
    while ready:
        here = ready.popleft()
        if rank is not None:
            rank[here] = popped
        popped += 1
        base_dist = dist[here]
        for target, weight, constraint in outgoing[here]:
            if skipped and id(constraint) in skipped:
                continue
            if member is None or member[target]:
                candidate = base_dist + weight
                if candidate > dist[target] + 1e-9:
                    dist[target] = candidate
                    predecessor[target] = constraint
                    if weight < 0.0:
                        # Ordered before this inflow existed; revisit.
                        dirty.append(target)
                if weight >= 0.0:
                    indegree[target] -= 1
                    if indegree[target] == 0:
                        ready.append(target)
    if popped < len(members):
        # Non-negative cycles (zero cycles are feasible, positive ones
        # are conflicts): every unordered member goes to the cleanup.
        ordered = [False] * count
        for node in members:
            if indegree[node] == 0:
                ordered[node] = True
        dirty.extend(node for node in members if not ordered[node])
    return dirty


def _spfa(outgoing: list[list[tuple[int, float, "Constraint"]]],
          dist: list[float], predecessor: list["Constraint | None"],
          seeds: Iterable[int], index: dict[TimeVar, int],
          skipped: set[int] | None = None) -> set[int]:
    """Queue-based relaxation to fixpoint; returns the changed indices.

    Raises :class:`_Infeasible` with a certified cycle: a relax count
    beyond |V| is only suspicion (legitimate on interleaved chains), a
    loop in the predecessor graph is proof.
    """
    count = len(dist)
    relax_count = [0] * count
    in_queue = [False] * count
    queue: collections.deque[int] = collections.deque()
    for seed in seeds:
        if not in_queue[seed]:
            queue.append(seed)
            in_queue[seed] = True
    changed: set[int] = set()
    while queue:
        here = queue.popleft()
        in_queue[here] = False
        base_dist = dist[here]
        for target, weight, constraint in outgoing[here]:
            if skipped and id(constraint) in skipped:
                continue
            candidate = base_dist + weight
            if candidate > dist[target] + 1e-9:
                dist[target] = candidate
                predecessor[target] = constraint
                changed.add(target)
                relax_count[target] += 1
                if relax_count[target] > count:
                    cycle = _find_cycle(predecessor, target, index)
                    if cycle is None:
                        relax_count[target] = 1
                    else:
                        raise _Infeasible(cycle)
                if not in_queue[target]:
                    queue.append(target)
                    in_queue[target] = True
    return changed


def _ranked_cleanup(outgoing: list[list[tuple[int, float, "Constraint"]]],
                    dist: list[float],
                    predecessor: list["Constraint | None"],
                    rank: list[int], seeds: list[int],
                    index: dict[TimeVar, int],
                    skipped: set[int] | None = None) -> None:
    """Label-correcting cleanup in topological rank batches.

    Each round processes its worklist in phase-1 pop order, so forward
    propagation through an already-settled region completes within the
    round and only genuinely backward influence (binding upper bounds,
    cycle laps) carries a node into the next round.  A variable
    re-relaxed more than :data:`SUSPICION_LAPS` times triggers the
    predecessor-walk certificate — on a positive cycle that fires after
    a few laps instead of the FIFO queue's |V|, which is what makes
    conflicted documents cheap to diagnose.

    Converges to the same fixpoint as :func:`_spfa` (relaxation order
    cannot change the unique least fixpoint); the certified cycles are
    the ranked schedule's own, which is why the FIFO variant is kept
    separately as the pre-graph baseline.  This implementation is pinned
    bit-identical to the array form in :mod:`repro.timing.graph`.
    """
    count = len(dist)
    relax_count = [0] * count
    in_batch = bytearray(count)
    batch: list[int] = []
    for seed in seeds:
        if not in_batch[seed]:
            in_batch[seed] = 1
            batch.append(seed)
    rank_of = rank.__getitem__
    while batch:
        batch.sort(key=rank_of)
        next_batch: list[int] = []
        in_batch = bytearray(count)
        for here in batch:
            base_dist = dist[here]
            for target, weight, constraint in outgoing[here]:
                if skipped and id(constraint) in skipped:
                    continue
                candidate = base_dist + weight
                if candidate > dist[target] + 1e-9:
                    dist[target] = candidate
                    predecessor[target] = constraint
                    relax_count[target] += 1
                    if relax_count[target] > SUSPICION_LAPS:
                        cycle = _find_cycle(predecessor, target, index)
                        if cycle is None:
                            relax_count[target] = 1
                        else:
                            raise _Infeasible(cycle)
                    if not in_batch[target]:
                        in_batch[target] = 1
                        next_batch.append(target)
        batch = next_batch


def _find_cycle(predecessor: list["Constraint | None"], start: int,
                index: dict[TimeVar, int]) -> list[Constraint] | None:
    """The positive cycle in the predecessor graph through ``start``.

    Walks supporting constraints backward from ``start``; a repeated
    variable proves a cycle (a loop in the SPFA parent graph always has
    positive total weight, the longest-path analogue of the classic
    negative-cycle certificate).  Returns ``None`` when the walk ends at
    an unsupported variable — the suspicion was a false alarm.
    """
    seen: dict[int, int] = {}
    chain: list[Constraint] = []
    node = start
    while True:
        constraint = predecessor[node]
        if constraint is None:
            return None
        if node in seen:
            cycle = chain[seen[node]:]
            cycle.reverse()
            return cycle
        seen[node] = len(chain)
        chain.append(constraint)
        node = index[constraint.base]


def _pick_relaxable(cycle: list[Constraint],
                    policy: str) -> Constraint | None:
    """Choose which may constraint in ``cycle`` to drop, per policy."""
    candidates = [c for c in cycle if c.relaxable]
    if not candidates:
        return None
    if policy == RELAX_DROP_WIDEST:
        def width(constraint: Constraint) -> float:
            arc = constraint.arc
            if arc is None or arc.max_delay is None:
                return float("inf")
            return arc.max_delay.value - arc.min_delay.value
        return max(candidates, key=width)
    return candidates[-1]


def solve(system: ConstraintSystem, *,
          relaxation_policy: str = RELAX_DROP_LAST,
          max_relaxations: int | None = None,
          cleanup: str = CLEANUP_RANKED) -> SolverResult:
    """Solve the system, relaxing may constraints as needed.

    Raises :class:`SchedulingConflict` when a cycle of must constraints
    remains; the exception's ``cycle`` lists the conflicting constraints
    so authoring tools can report them (the paper's "CMIF plays a role in
    signalling problems, allowing other mechanisms to provide
    solutions").

    ``cleanup`` selects the phase-2 algorithm: the default ``ranked``
    cleanup is the pinned reference the compiled graph solver
    (:mod:`repro.timing.graph`) matches bit-for-bit; ``fifo`` keeps the
    pre-graph SPFA as the benchmark baseline (identical times, but cycle
    certification after |V| laps — seconds of pumping on conflicted
    documents, see ``benchmarks/bench_ingest.py``).
    """
    if relaxation_policy not in RELAXATION_POLICIES:
        raise SchedulingConflict(
            f"unknown relaxation policy {relaxation_policy!r}; expected "
            f"one of {RELAXATION_POLICIES}")
    if cleanup not in CLEANUP_ALGORITHMS:
        raise SchedulingConflict(
            f"unknown cleanup algorithm {cleanup!r}; expected one of "
            f"{CLEANUP_ALGORITHMS}")
    relaxable_total = sum(1 for c in system.constraints if c.relaxable)
    budget = (relaxable_total if max_relaxations is None
              else min(max_relaxations, relaxable_total))
    outgoing, _ = _build_adjacency(system)
    index = system.var_index
    dist, _, dropped, _, iterations = _relax(
        outgoing, index, relaxation_policy, budget, cleanup)
    times = {var: dist[index[var]] for var in system.variables}
    return SolverResult(times_ms=times, dropped=dropped,
                        iterations=iterations)


# ---------------------------------------------------------------------------
# Incremental re-relaxation (the authoring loop's re-solve step).


class IncrementalSolver:
    """Persistent SPFA state that absorbs constraint deltas.

    A full solve computes the pointwise-minimal feasible assignment —
    the least fixpoint of max-relaxation above the root anchor.  Two
    monotonicity facts make edits cheap:

    * *adding* constraints can only push times later, so the previous
      solution is a valid seed: enqueue the new constraints' bases and
      re-relax;
    * *removing* constraints can only pull times earlier, and only for
      variables whose supporting (longest) path used a removed
      constraint.  The solver tracks each variable's supporting
      constraint (its SPFA predecessor); on removal, the transitively
      supported region is reset to the root anchor and re-relaxed from
      its unaffected frontier.

    Both cases perform the same ``dist[base] + weight`` arithmetic as the
    full solve, so the re-relaxed times are identical to a from-scratch
    solve of the updated system (equality the property tests assert).

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
        if relaxation_policy not in RELAXATION_POLICIES:
            raise SchedulingConflict(
                f"unknown relaxation policy {relaxation_policy!r}; expected "
                f"one of {RELAXATION_POLICIES}")
        self.system = system
        self._outgoing, self._incoming = _build_adjacency(system,
                                                          incoming=True)
        self._index: dict[TimeVar, int] = dict(system.var_index)
        budget = sum(1 for constraint in system.constraints
                     if constraint.relaxable)
        # Ranked cleanup, like solve()'s default: the initial solve must
        # pick the same cycles (hence the same may drops) as a
        # from-scratch reference solve.
        (self._dist, self._pred, self._dropped, self._skipped,
         self._iterations) = _relax(self._outgoing, self._index,
                                    relaxation_policy, budget)
        self._times: dict[TimeVar, float] = {
            var: self._dist[position]
            for var, position in self._index.items()}
        #: support-graph reverse index (base position -> positions whose
        #: SPFA predecessor hangs off it), built lazily on first use and
        #: then maintained incrementally alongside ``_pred``.
        self._dependents: list[set[int]] | None = None
        self._dep_base: list[int] = []

    # -- adjacency ------------------------------------------------------

    def _attach(self, constraint: Constraint) -> None:
        base = self._index[constraint.base]
        var = self._index[constraint.var]
        self._outgoing[base].append((var, constraint.weight_ms, constraint))
        self._incoming[var].append((base, constraint.weight_ms, constraint))

    def _detach(self, constraint: Constraint) -> None:
        base = self._index[constraint.base]
        var = self._index[constraint.var]
        self._outgoing[base] = [edge for edge in self._outgoing[base]
                                if edge[2] is not constraint]
        self._incoming[var] = [edge for edge in self._incoming[var]
                               if edge[2] is not constraint]

    def _extend_arrays(self) -> None:
        """Grow state for variables a delta interned into the system."""
        variables = self.system.variables
        root_var = self.system.root_begin
        while len(self._dist) < len(variables):
            var = variables[len(self._dist)]
            self._index[var] = len(self._dist)
            self._outgoing.append([])
            self._incoming.append([])
            self._dist.append(0.0)
            self._pred.append(None)
            if self._dependents is not None:
                self._dependents.append(set())
                self._dep_base.append(-1)
            self._times[var] = 0.0
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
            index = self._index
            for position, constraint in enumerate(self._pred):
                if constraint is None:
                    continue
                base = index[constraint.base]
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
        index = self._index
        pred = self._pred
        for position in positions:
            constraint = pred[position]
            base = -1 if constraint is None else index[constraint.base]
            recorded = dep_base[position]
            if base != recorded:
                if recorded >= 0:
                    dependents[recorded].discard(position)
                if base >= 0:
                    dependents[base].add(position)
                dep_base[position] = base

    def _supported_by(self, removed_ids: set[int]) -> set[int]:
        """Indices whose value may rest on a removed constraint.

        A variable's longest path can only shrink if its supporting
        chain (the SPFA predecessors) crosses a removed constraint;
        everything else keeps its exact value.
        """
        if not removed_ids:
            return set()
        pred = self._pred
        affected = {position for position, constraint in enumerate(pred)
                    if constraint is not None
                    and id(constraint) in removed_ids}
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

        removed_ids = {id(constraint) for constraint in delta.removed}
        for constraint in delta.removed:
            self._detach(constraint)
        remove_all(self.system, delta.removed)
        for constraint in delta.added:
            self.system.add(constraint)
        self._extend_arrays()
        for constraint in delta.added:
            self._attach(constraint)

        if self._dropped:
            return IncrementalOutcome(
                "full", None,
                "previous solve dropped may constraints; revalidating")

        affected = self._supported_by(removed_ids)
        # Phase 0: re-anchor every affected variable on its unaffected
        # inflow — frontier values are final, and the implied root arc
        # floors everything at 0.  Intra-region inflow is re-derived by
        # the next two phases.
        for position in affected:
            best = 0.0
            best_constraint: Constraint | None = None
            for base, weight, constraint in self._incoming[position]:
                if base in affected or id(constraint) in self._skipped:
                    continue
                candidate = self._dist[base] + weight
                if candidate > best + 1e-9:
                    best = candidate
                    best_constraint = constraint
            self._dist[position] = best
            self._pred[position] = best_constraint
        # Phase 1: topological pass over the region's internal edges.
        _topological_pass(self._outgoing, self._dist, self._pred,
                          affected, len(self._dist), self._skipped)
        # Phase 2: label-correcting cleanup, plus propagation out of the
        # region and from any added constraints.
        seeds: set[int] = set(affected)
        for constraint in delta.added:
            seeds.add(self._index[constraint.base])
        try:
            changed = _spfa(self._outgoing, self._dist, self._pred,
                            seeds, self._index, self._skipped)
        except _Infeasible:
            return IncrementalOutcome(
                "full", None,
                "edit made the region infeasible; re-solving with may "
                "relaxation")
        changed |= affected
        # Phases 0-2 only write predecessors inside the affected region
        # plus the SPFA-changed set; re-index exactly those.
        self._note_support_changes(changed)
        variables = self.system.variables
        changed_vars: set[TimeVar] = set()
        for position in changed:
            var = variables[position]
            self._times[var] = self._dist[position]
            changed_vars.add(var)
        return IncrementalOutcome("incremental", changed_vars, delta.reason)


# ---------------------------------------------------------------------------
# Incremental deltas: the constraint-level effect of one authoring edit.
#
# The earlier delta layer of :mod:`repro.timing.constraints`, verbatim:
# each attribute edit in :mod:`repro.core.edit` (retime, add or remove an
# arc) maps to a small set of added/removed constraints, emitted by the
# same rule helpers ``build_constraints`` uses.  ``remove_all`` was a
# :class:`ConstraintSystem` method.


def remove_all(system: ConstraintSystem,
               removed: list["Constraint"]) -> None:
    """Remove constraints *by identity* in one pass.

    Identity matters: the system may hold several value-equal
    constraints (two identical arcs on one node, say) and a delta
    must only take out the instances it names.
    """
    removed_ids = {id(constraint) for constraint in removed}
    system.constraints = [constraint for constraint in system.constraints
                          if id(constraint) not in removed_ids]


@dataclass
class ConstraintDelta:
    """Added/removed constraints equivalent to one document edit.

    ``removed`` lists live constraint *instances* from the system being
    edited (identity, not equality).  ``full_rebuild`` marks edits whose
    effect cannot be expressed as a local diff; ``reason`` says why, for
    diagnostics and engine statistics.
    """

    added: list[Constraint] = field(default_factory=list)
    removed: list[Constraint] = field(default_factory=list)
    full_rebuild: bool = False
    reason: str = ""

    @property
    def empty(self) -> bool:
        """True when the edit has no scheduling effect at all."""
        return not (self.added or self.removed or self.full_rebuild)

    def describe(self) -> str:
        if self.full_rebuild:
            return f"full rebuild ({self.reason})"
        return (f"+{len(self.added)}/-{len(self.removed)} constraints"
                + (f" ({self.reason})" if self.reason else ""))


class ConstraintIndex:
    """Anchor -> live-constraint lookup kept in sync with a system.

    The delta builders need the *current instances* of the constraints an
    edit replaces: the two duration constraints of a leaf, or every
    constraint an explicit arc contributed.  Scanning
    ``system.constraints`` per edit would cost O(E); this index keeps the
    lookups O(1) and is updated through :meth:`apply` alongside the
    system itself.
    """

    def __init__(self, system: ConstraintSystem) -> None:
        self._duration: dict[str, list[Constraint]] = {}
        self._by_arc: dict[int, list[Constraint]] = {}
        for constraint in system.constraints:
            self._note(constraint)

    def _note(self, constraint: Constraint) -> None:
        if constraint.arc is not None:
            self._by_arc.setdefault(id(constraint.arc), []).append(constraint)
        elif constraint.kind is ConstraintKind.DURATION:
            self._duration.setdefault(constraint.var.path,
                                      []).append(constraint)

    def _forget(self, constraint: Constraint) -> None:
        if constraint.arc is not None:
            bucket = self._by_arc.get(id(constraint.arc), [])
        elif constraint.kind is ConstraintKind.DURATION:
            bucket = self._duration.get(constraint.var.path, [])
        else:
            return
        for position, candidate in enumerate(bucket):
            if candidate is constraint:
                del bucket[position]
                break

    def duration_constraints(self, leaf_path: str) -> list[Constraint]:
        """The lower+upper duration constraints of the leaf at ``path``."""
        return list(self._duration.get(leaf_path, []))

    def arc_constraints(self, arc: SyncArc) -> list[Constraint]:
        """Every constraint contributed by this arc instance."""
        return list(self._by_arc.get(id(arc), []))

    def apply(self, delta: ConstraintDelta) -> None:
        """Track a delta that is being applied to the system."""
        for constraint in delta.removed:
            self._forget(constraint)
        for constraint in delta.added:
            self._note(constraint)


def retime_delta(index: ConstraintIndex, leaf_path: str,
                 new_duration_ms: float, *,
                 event_id: str | None = None) -> ConstraintDelta:
    """The delta for :func:`repro.core.edit.retime` on a leaf.

    Replaces the leaf's lower+upper duration constraints with the pair
    :func:`build_constraints` emits for the new duration (the note
    names the leaf's path when ``event_id`` is not given).
    """
    added = _duration_pair(begin_var(leaf_path), end_var(leaf_path),
                           new_duration_ms, event_id or leaf_path)
    return ConstraintDelta(added=added,
                           removed=index.duration_constraints(leaf_path),
                           reason=f"retime {leaf_path}")


def add_arc_delta(document: CmifDocument, owner: Node,
                  arc: SyncArc) -> ConstraintDelta:
    """The delta for :func:`repro.core.edit.add_arc`: the arc's window
    constraints as :func:`build_constraints` emits them (an empty delta
    for a runtime-only conditional arc)."""
    if isinstance(arc, ConditionalArc):
        return ConstraintDelta(reason="conditional arc (runtime-only)")
    return ConstraintDelta(added=_arc_constraints(document, owner, arc),
                           reason=f"add arc at {node_path(owner)}")


def remove_arc_delta(index: ConstraintIndex,
                     arc: SyncArc) -> ConstraintDelta:
    """The delta for :func:`repro.core.edit.remove_arc`."""
    return ConstraintDelta(removed=index.arc_constraints(arc),
                           reason="remove arc")
