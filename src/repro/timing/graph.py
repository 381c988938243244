"""Constraint graphs: the one layout every solve runs on, and its core.

A document's synchronization rules are difference constraints
``var - base >= weight`` between time variables, and its ASAP schedule
is their longest-path relaxation from the root anchor (the semantics
are set out in :mod:`repro.timing.solver`).  :class:`ConstraintGraph`
holds them as *rows* over dense variable ids, and two lowerings fill
it:

* :func:`compile_graph` compiles a document straight into rows, paying
  none of the object-shaped costs of
  :func:`~repro.timing.constraints.build_constraints` — an interned
  :class:`TimeVar` frozen dataclass per variable and a
  :class:`Constraint` dataclass with an eagerly formatted note per
  rule.  Corpus ingest (thousands of cold documents, no warm cache to
  help) would pay all of it per document.  It reads the preorder
  :meth:`~repro.core.document.CmifDocument.compile` recorded, so the
  compile's walk is the cold path's only one.  Time variables get dense
  int ids in exactly the order ``build_constraints`` interns them, and
  each row's provenance is three parallel *columns* (a rule code, a
  subject and a second subject) holding objects the document already
  has; the corresponding :class:`Constraint` objects (with their
  formatted notes) only materialize for cycle diagnostics,
  dropped-constraint reporting and
  :func:`~repro.timing.solver.check_solution` audits.  Its solution
  stays dense: :class:`DenseTimes` maps each :class:`TimeVar` to its
  time by indexing the solve's own array.  Cold solves, admissions and
  the incremental solver of the authoring loop all run on these rows;
  a live edit detaches and attaches rows that :func:`_arc_rows` and
  :func:`_duration_rows` emit, the rules :func:`compile_graph` writes.
* :meth:`ConstraintGraph.from_system` lowers a built
  :class:`ConstraintSystem`, each row standing for one of the system's
  own constraint objects: what the reference
  :func:`~repro.timing.solver.solve` runs on.  Its solution is a dict.

For one document both produce the same rows in the same order, so
every tie-break of the solve matches.  One core solves them:

1. a Kahn pass in topological order of the non-negative rows.  Real
   documents are almost pure DAGs there (upper bounds are the only
   negative edges), so this settles nearly every variable with exactly
   one relaxation per row;
2. a label-correcting cleanup for whatever phase 1 cannot order —
   binding upper bounds and variables on (zero or positive) cycles —
   in phase-1 rank batches, with a walk of the predecessor graph that
   certifies a positive cycle once a variable has been re-relaxed
   :data:`SUSPICION_LAPS` times;
3. the may-relaxation loop, which drops one may row off each certified
   cycle and solves again, masking dropped rows instead of rebuilding
   anything.

The incremental solver reuses the Kahn pass and the cleanup's FIFO
mode.  ``tests/test_graph_solver.py`` pins the two lowerings against
each other, and ``tests/test_solver_oracle.py`` pins both against the
retired object-form solver.  The solve is a scalar loop over the row
lists; the ``kernel=`` axis covers only the replay loop.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.document import CompiledDocument
from repro.core.errors import SchedulingConflict
from repro.core.nodes import ContainerNode, NodeKind
from repro.core.paths import resolve_path
from repro.core.syncarc import Anchor, ConditionalArc, Strictness, SyncArc
from repro.timing.constraints import (Constraint, ConstraintKind,
                                      ConstraintSystem, TimeVar, VarKind)

#: Relaxation policies for may-arc conflicts (ablation axis).
RELAX_DROP_LAST = "drop-last"
RELAX_DROP_WIDEST = "drop-widest"
RELAXATION_POLICIES = (RELAX_DROP_LAST, RELAX_DROP_WIDEST)

#: How many re-relaxations of one variable the ranked cleanup tolerates
#: before walking the predecessor graph for a cycle certificate.  The
#: lap at which a conflicted solve certifies decides which cycle it
#: reports, and so which may constraint it drops: changing this value
#: changes the schedules of conflicted documents, not just the speed.
SUSPICION_LAPS = 16

_EPS = 1e-9

#: Row codes — which rule produced a constraint (the ``cons_code``
#: column; ``cons_subject`` and ``cons_other`` say from what).
_M_DUR_LOW = 0
_M_DUR_UP = 1
_M_SPAN = 2
_M_SEQ_START = 3
_M_SEQ_CHAIN = 4
_M_SEQ_END = 5
_M_PAR_FORK = 6
_M_PAR_JOIN = 7
_M_CHANNEL = 8
_M_ARC_LOW = 9
_M_ARC_UP = 10


@dataclass
class SolverResult:
    """The outcome of a (possibly relaxed) solve.

    ``times_ms`` maps every variable to its ASAP time; ``dropped``
    records the may constraints the solver had to relax, in the order
    they were dropped; ``iterations`` counts the solve attempts (1 when
    no relaxation was needed).
    """

    times_ms: Mapping[TimeVar, float]
    dropped: list[Constraint] = field(default_factory=list)
    iterations: int = 1


def check_relaxation_policy(relaxation_policy: str) -> None:
    """Reject a relaxation policy outside :data:`RELAXATION_POLICIES`."""
    if relaxation_policy not in RELAXATION_POLICIES:
        raise SchedulingConflict(
            f"unknown relaxation policy {relaxation_policy!r}; expected "
            f"one of {RELAXATION_POLICIES}")


class ConstraintGraph:
    """One document's constraint system as rows.

    Row ``r`` is the difference constraint ``cons_var[r] - cons_base[r]
    >= cons_weight[r]``, followed as an edge ``cons_base[r] ->
    cons_var[r]``; ``cons_relax[r]`` flags a may row.  The first
    ``real_count`` rows are the document's constraints in
    ``build_constraints`` order.  The implied root rows follow, one zero
    row per variable in variable order: the paper's "All nodes have an
    implied synchronization arc with the root node", so upper-bound
    chains that would push the root later show up as positive cycles,
    i.e. genuine conflicts.  ``out[v]`` lists the rows based at
    variable ``v`` in row order, the adjacency order every tie-break of
    the solve follows.  A live editor's
    :class:`~repro.timing.solver.IncrementalSolver` detaches the rows an
    edit retires from those lists and puts the rows it adds at their
    ends, each on a retired row's id or appended past the implied rows.

    A compiled graph keeps, per document row, the provenance that
    materializes its :class:`Constraint` on demand in three more
    columns: ``cons_code`` (the rule), ``cons_subject`` (the event,
    node, channel or arc) and ``cons_other`` (a seq chain row's next
    sibling, an arc row's owner path, else None).  ``var_paths`` and
    ``var_kinds`` name each variable, ``slots`` maps each node's path
    to its preorder position and ``begin_ids``/``end_ids`` a position
    to its anchors' ids, and ``event_begin``/``event_end`` hold each
    event's: what :class:`DenseTimes` and the schedule wrap read.  A
    graph lowered :meth:`from_system` holds the system's own
    constraints and variables instead.
    """

    __slots__ = ("count", "root", "real_count", "var_paths", "var_kinds",
                 "slots", "begin_ids", "end_ids", "event_begin",
                 "event_end", "cons_var", "cons_base", "cons_weight",
                 "cons_relax", "cons_code", "cons_subject", "cons_other",
                 "out", "_timevars", "_constraints")

    def __init__(self) -> None:
        self.count = 0
        self.root = 0
        self.real_count = 0
        self.var_paths: list[str] = []
        self.var_kinds: list[int] = []          # 0 = begin, 1 = end
        self.slots: dict[str, int] | None = None
        self.begin_ids: list[int] = []
        self.end_ids: list[int] = []
        self.event_begin: list[int] = []
        self.event_end: list[int] = []
        self.cons_var: list[int] = []
        self.cons_base: list[int] = []
        self.cons_weight: list[float] = []
        self.cons_relax: list[int] = []
        self.cons_code: list[int] = []
        self.cons_subject: list = []
        self.cons_other: list = []
        self.out: list[list[int]] = []
        self._timevars: list[TimeVar | None] = []
        self._constraints: dict[int, Constraint] = {}

    @classmethod
    def from_system(cls, system: ConstraintSystem) -> "ConstraintGraph":
        """Lower an object-form system onto rows.

        Row ``r`` stands for ``system.constraints[r]`` itself, so
        results and conflict cycles hold the caller's instances;
        implied root rows materialize on demand.
        """
        if system.root_begin is None:
            raise SchedulingConflict("constraint system has no root anchor")
        graph = cls()
        index = system.var_index
        constraints = system.constraints
        graph.cons_var = [index[constraint.var] for constraint in constraints]
        graph.cons_base = [index[constraint.base]
                           for constraint in constraints]
        graph.cons_weight = [constraint.weight_ms
                             for constraint in constraints]
        graph.cons_relax = [1 if constraint.relaxable else 0
                            for constraint in constraints]
        graph._timevars = list(system.variables)
        graph._constraints = dict(enumerate(constraints))
        graph._close(len(system.variables), index[system.root_begin])
        return graph

    def _close(self, count: int, root: int) -> None:
        """Append the implied root rows and index every row by base."""
        self.count = count
        self.root = root
        self.real_count = len(self.cons_var)
        implied = [var_id for var_id in range(count) if var_id != root]
        self.cons_var.extend(implied)
        self.cons_base.extend([root] * len(implied))
        self.cons_weight.extend([0.0] * len(implied))
        self.cons_relax.extend([0] * len(implied))
        self.out = _rows_by(self.cons_base, count)

    @property
    def columns(self) -> tuple[list, ...]:
        """The row columns in row-tuple order: ``(var, base, weight,
        relax, code, subject, other)``."""
        return (self.cons_var, self.cons_base, self.cons_weight,
                self.cons_relax, self.cons_code, self.cons_subject,
                self.cons_other)

    @property
    def size(self) -> tuple[int, int]:
        """``(variable count, constraint count)`` — mirrors the system."""
        return self.count, self.real_count

    # -- lazy materialization -------------------------------------------

    def timevar(self, var_id: int) -> TimeVar:
        """The :class:`TimeVar` for a dense id, built at most once."""
        cached = self._timevars[var_id]
        if cached is None:
            kind = VarKind.BEGIN if self.var_kinds[var_id] == 0 \
                else VarKind.END
            cached = TimeVar(self.var_paths[var_id], kind)
            self._timevars[var_id] = cached
        return cached

    def constraint(self, cons_id: int) -> Constraint:
        """Materialize one row as the reference Constraint.

        Ids at or past :attr:`real_count` are the implied root rows;
        both forms reproduce ``build_constraints`` output exactly (same
        kinds, notes, relaxability and arc references), so cycle
        diagnostics and dropped-constraint reports compare equal to the
        object path's.
        """
        cached = self._constraints.get(cons_id)
        if cached is not None:
            return cached
        if cons_id >= self.real_count:
            built = _implied_root_arc(self.timevar(self.cons_var[cons_id]),
                                      self.timevar(self.root))
        else:
            built = self._materialize(cons_id)
        self._constraints[cons_id] = built
        return built

    def _materialize(self, cons_id: int) -> Constraint:
        var = self.timevar(self.cons_var[cons_id])
        base = self.timevar(self.cons_base[cons_id])
        weight = self.cons_weight[cons_id]
        code = self.cons_code[cons_id]
        subject = self.cons_subject[cons_id]
        if code in (_M_DUR_LOW, _M_DUR_UP):
            return Constraint(var, base, weight, ConstraintKind.DURATION,
                              note=f"duration of {subject.event_id}")
        if code == _M_SPAN:
            kind = (ConstraintKind.SEQ_DEFAULT
                    if subject.kind is NodeKind.SEQ
                    else ConstraintKind.PAR_DEFAULT)
            return Constraint(var, base, weight, kind,
                              note="container non-negative span")
        if code == _M_SEQ_START:
            return Constraint(var, base, weight,
                              ConstraintKind.SEQ_DEFAULT,
                              note="seq start -> first child")
        if code == _M_SEQ_CHAIN:
            return Constraint(var, base, weight,
                              ConstraintKind.SEQ_DEFAULT,
                              note=f"seq chain {subject.label()} -> "
                                   f"{self.cons_other[cons_id].label()}")
        if code == _M_SEQ_END:
            return Constraint(var, base, weight,
                              ConstraintKind.SEQ_DEFAULT,
                              note="last child -> seq end")
        if code == _M_PAR_FORK:
            return Constraint(var, base, weight,
                              ConstraintKind.PAR_DEFAULT,
                              note=f"par fork -> {subject.label()}")
        if code == _M_PAR_JOIN:
            return Constraint(var, base, weight,
                              ConstraintKind.PAR_DEFAULT,
                              note=f"par join <- {subject.label()}")
        if code == _M_CHANNEL:
            return Constraint(var, base, weight,
                              ConstraintKind.CHANNEL_ORDER,
                              note=f"channel {subject!r} order")
        # _M_ARC_LOW / _M_ARC_UP: the arc, then its owner's path.
        return Constraint(var, base, weight, ConstraintKind.EXPLICIT_ARC,
                          relaxable=bool(self.cons_relax[cons_id]),
                          arc=subject,
                          note=f"arc at {self.cons_other[cons_id]}: "
                               f"{subject.describe()}")

    def arc_of(self, cons_id: int) -> SyncArc | None:
        """The owning SyncArc of a row, without materializing (or None)."""
        cached = self._constraints.get(cons_id)
        if cached is not None:
            return cached.arc
        if cons_id >= self.real_count:
            return None
        return (self.cons_subject[cons_id]
                if self.cons_code[cons_id] in (_M_ARC_LOW, _M_ARC_UP)
                else None)

    def system(self) -> ConstraintSystem:
        """Materialize the full object-form system (tests, diagnostics).

        Interning every constraint in row order reproduces the exact
        variable order ``build_constraints`` creates, which is what the
        equivalence tests assert.
        """
        system = ConstraintSystem()
        root_var = self.timevar(self.root)
        system.root_begin = root_var
        system.variable(root_var)
        for cons_id in range(self.real_count):
            system.add(self.constraint(cons_id))
        return system


def _implied_root_arc(var: TimeVar, root_var: TimeVar) -> Constraint:
    return Constraint(var, root_var, 0.0, ConstraintKind.ROOT_ANCHOR,
                      note="implied arc with the root")


def _rows_by(ends: list[int], count: int) -> list[list[int]]:
    """Per variable, the rows whose entry in ``ends`` names it."""
    lists: list[list[int]] = [[] for _ in range(count)]
    for row, var_id in enumerate(ends):
        lists[var_id].append(row)
    return lists


def _duration_rows(event, begin: int, end: int) -> tuple[tuple, tuple]:
    """A leaf's duration rule: ``end - begin`` pinned to its event's
    ``duration_ms``, the upper bound ``upper(end, begin, d)`` stored as
    ``begin - end >= -d``.

    A row tuple holds one value per :attr:`ConstraintGraph.columns`.
    A live retime emits a leaf's rows here; :func:`compile_graph`
    writes the same two inline.
    """
    duration = event.duration_ms
    return ((end, begin, duration, 0, _M_DUR_LOW, event, None),
            (begin, end, -duration, 0, _M_DUR_UP, event, None))


def _arc_rows(graph: ConstraintGraph, owner, owner_path: str, arc: SyncArc,
              seq_of: Mapping[int, int], timebase) -> tuple[tuple, ...]:
    """An explicit arc's window rule ``tref + delta <= t <= tref +
    epsilon``: a lower row for the minimum delay, plus an upper one when
    the maximum delay is finite (none for a runtime-only conditional
    arc).

    ``seq_of`` maps ``id(node)`` to the node's preorder position, which
    indexes the graph's ``begin_ids``/``end_ids``.  :func:`compile_graph`
    and a live arc edit both emit an arc's rows here.
    """
    if isinstance(arc, ConditionalArc):
        return ()
    source = seq_of[id(resolve_path(owner, arc.source))]
    destination = seq_of[id(resolve_path(owner, arc.destination))]
    src = (graph.begin_ids if arc.src_anchor is Anchor.BEGIN
           else graph.end_ids)[source]
    dst = (graph.begin_ids if arc.dst_anchor is Anchor.BEGIN
           else graph.end_ids)[destination]
    delta_ms, epsilon_ms = arc.window_ms(timebase)
    offset_ms = timebase.to_ms(arc.offset)
    relax = 1 if arc.strictness is Strictness.MAY else 0
    lower = (dst, src, offset_ms + delta_ms, relax, _M_ARC_LOW, arc,
             owner_path)
    if epsilon_ms is None:
        return (lower,)
    return lower, (src, dst, -(offset_ms + epsilon_ms), relax, _M_ARC_UP,
                   arc, owner_path)


def compile_graph(compiled: CompiledDocument, *,
                  channel_serialization: bool = True) -> ConstraintGraph:
    """Compile a document into a :class:`ConstraintGraph`.

    Emits the same rules, in the same order, as
    :func:`~repro.timing.constraints.build_constraints` — but into flat
    rows, with no TimeVar or Constraint objects and no note formatting,
    walking ``compiled.nodes`` (the compile's preorder) instead of the
    tree.  Variable ids follow the reference interning order (first
    mention in emission order, root begin first), so the rows are the
    ones :meth:`ConstraintGraph.from_system` lowers the built system to.
    """
    graph = ConstraintGraph()
    nodes = compiled.nodes
    paths = compiled.paths
    count = len(nodes)
    seq_of = dict(zip(map(id, nodes), range(count)))
    slots = graph.slots = dict(zip(paths, range(count)))
    # A node's anchors are first mentioned by its parent's rows (the
    # root's by its own span row), so numbering them there, in the order
    # those rows name them, is the reference interning order.
    begin_ids = graph.begin_ids = [0] * count
    end_ids = graph.end_ids = [1] * count
    fresh = 2                               # the next unnumbered anchor
    cons_var = graph.cons_var
    cons_base = graph.cons_base
    cons_weight = graph.cons_weight
    codes = graph.cons_code
    subjects = graph.cons_subject
    others = graph.cons_other

    def row(var: int, base: int, weight: float, code: int, subject,
            other=None) -> None:
        cons_var.append(var)
        cons_base.append(base)
        cons_weight.append(weight)
        codes.append(code)
        subjects.append(subject)
        others.append(other)

    events = iter(compiled.events)
    for seq in range(count):
        node = nodes[seq]
        begin = begin_ids[seq]
        end = end_ids[seq]
        if not isinstance(node, ContainerNode):
            # Leaves come in ``compiled.events`` order.  The two rows are
            # :func:`_duration_rows`', written inline for speed (the
            # live-retime tests pin the two copies together).
            event = next(events)
            duration = event.duration_ms
            graph.event_begin.append(begin)
            graph.event_end.append(end)
            cons_var += (end, begin)
            cons_base += (begin, end)
            cons_weight += (duration, -duration)
            codes += (_M_DUR_LOW, _M_DUR_UP)
            subjects += (event, event)
            others += (None, None)
            continue
        row(end, begin, 0.0, _M_SPAN, node)
        children = node.children
        if not children:
            continue
        kids = [seq_of[id(child)] for child in children]
        if node.kind is NodeKind.SEQ:
            begin_ids[kids[0]] = fresh
            row(fresh, begin, 0.0, _M_SEQ_START, node)
            fresh += 1
            for position in range(1, len(kids)):
                begin_ids[kids[position]] = fresh
                end_ids[kids[position - 1]] = fresh + 1
                row(fresh, fresh + 1, 0.0, _M_SEQ_CHAIN,
                    children[position - 1], children[position])
                fresh += 2
            end_ids[kids[-1]] = fresh
            row(end, fresh, 0.0, _M_SEQ_END, node)
            fresh += 1
            continue
        for child, kid in zip(children, kids):
            begin_ids[kid] = fresh
            end_ids[kid] = fresh + 1
            cons_var += (fresh, end)
            cons_base += (begin, fresh + 1)
            cons_weight += (0.0, 0.0)
            codes += (_M_PAR_FORK, _M_PAR_JOIN)
            subjects += (child, child)
            others += (None, None)
            fresh += 2

    if channel_serialization:
        for channel, lane in compiled.per_channel.items():
            for before, after in zip(lane, lane[1:]):
                row(begin_ids[slots[after.node_path]],
                    end_ids[slots[before.node_path]], 0.0, _M_CHANNEL,
                    channel)

    cons_relax = graph.cons_relax
    cons_relax += [0] * len(cons_var)      # only arc rows can be may rows
    columns = graph.columns
    timebase = compiled.document.timebase
    for seq in range(count):
        node = nodes[seq]
        for arc in node.attributes.get("sync-arc", ()):
            for values in _arc_rows(graph, node, paths[seq], arc, seq_of,
                                    timebase):
                for column, value in zip(columns, values):
                    column.append(value)

    var_paths = graph.var_paths = [""] * fresh
    var_kinds = graph.var_kinds = [0] * fresh
    for seq in range(count):
        var_paths[begin_ids[seq]] = var_paths[end_ids[seq]] = paths[seq]
        var_kinds[end_ids[seq]] = 1
    graph._timevars = [None] * fresh
    graph._close(fresh, 0)
    return graph


class DenseTimes(Mapping):
    """A compiled graph's solution as a read-only ``TimeVar -> ms`` map.

    It holds the solve's dense ``dist`` list and the graph's names for
    it (``var_paths``, ``var_kinds``, ``slots``, ``begin_ids`` and
    ``end_ids``), never its rows, ``out`` lists or provenance columns,
    so a cached schedule keeps alive only what a lookup reads.  A lookup
    is one path lookup plus an index; a :class:`TimeVar` is built only
    when something iterates, in variable order.  It compares equal to
    the dict a reference solve returns for the same document, and
    pickles.
    """

    __slots__ = ("dist", "_paths", "_kinds", "_slots", "_begin", "_end")

    def __init__(self, dist: list[float], graph: ConstraintGraph) -> None:
        self.dist = dist
        self._paths = graph.var_paths
        self._kinds = graph.var_kinds
        self._slots = graph.slots
        self._begin = graph.begin_ids
        self._end = graph.end_ids

    def __getitem__(self, var: TimeVar) -> float:
        slot = self._slots.get(var.path) if type(var) is TimeVar else None
        if slot is None:
            raise KeyError(var)
        ids = self._end if var.kind is VarKind.END else self._begin
        return self.dist[ids[slot]]

    def __iter__(self):
        kinds = (VarKind.BEGIN, VarKind.END)
        return map(TimeVar, self._paths, map(kinds.__getitem__, self._kinds))

    def __len__(self) -> int:
        return len(self.dist)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        missing = object()
        return len(other) == len(self.dist) and all(
            other.get(var, missing) == time
            for var, time in zip(self, self.dist))


# ---------------------------------------------------------------------------
# The core: Kahn pass, cleanup, cycle walk and may-relaxation loop.


class _Infeasible(Exception):
    """Internal: one solve attempt found a positive cycle (its rows)."""

    def __init__(self, cycle: list[int]) -> None:
        super().__init__("positive cycle")
        self.cycle = cycle


def _kahn(graph: ConstraintGraph, skipped: bytearray, dist: list[float],
          pred: list[int], members: Iterable[int] | None = None,
          rank: list[int] | None = None) -> list[int]:
    """Phase 1: Kahn's algorithm over the non-negative unmasked rows.

    ``members=None`` means the whole graph; otherwise only rows between
    members count (the incremental solver's affected region).  Relaxes
    every unmasked row, negative ones included, out of each variable it
    orders, and returns the variables that may still be unsettled:
    targets a negative row moved after they were ordered (in relaxation
    order), then members a non-negative cycle kept out of the order.
    Phase 2 only needs to start from those.  When ``rank`` is given,
    each ordered variable's pop position is recorded there (the ranked
    cleanup's batch order).
    """
    out = graph.out
    cons_var = graph.cons_var
    cons_weight = graph.cons_weight
    count = len(dist)
    member: bytearray | None = None
    if members is None:
        members = range(count)
    else:
        members = list(members)
        member = bytearray(count)
        for node in members:
            member[node] = 1
    indegree = [0] * count
    for node in members:
        for row in out[node]:
            if not skipped[row] and cons_weight[row] >= 0.0:
                target = cons_var[row]
                if member is None or member[target]:
                    indegree[target] += 1
    ready = [node for node in members if indegree[node] == 0]
    dirty: list[int] = []
    head = 0
    while head < len(ready):
        here = ready[head]
        if rank is not None:
            rank[here] = head
        head += 1
        base_dist = dist[here]
        for row in out[here]:
            if skipped[row]:
                continue
            target = cons_var[row]
            if member is None or member[target]:
                weight = cons_weight[row]
                candidate = base_dist + weight
                if candidate > dist[target] + _EPS:
                    dist[target] = candidate
                    pred[target] = row
                    if weight < 0.0:
                        # Ordered before this inflow existed; revisit.
                        dirty.append(target)
                if weight >= 0.0:
                    indegree[target] -= 1
                    if indegree[target] == 0:
                        ready.append(target)
    if head < len(members):
        # Non-negative cycles (zero cycles are feasible, positive ones
        # are conflicts): every unordered member goes to the cleanup.
        dirty.extend(node for node in members if indegree[node] != 0)
    return dirty


def _cleanup(graph: ConstraintGraph, skipped: bytearray, dist: list[float],
             pred: list[int], seeds: Iterable[int],
             rank: list[int] | None = None) -> set[int]:
    """Phase 2: label-correcting relaxation to fixpoint from ``seeds``.

    With ``rank`` (a full solve) it works in rounds, each processed in
    phase-1 pop order: forward propagation through an already-settled
    region completes within the round, and only genuinely backward
    influence (binding upper bounds, cycle laps) carries a variable
    into the next round.  A variable re-relaxed more than
    :data:`SUSPICION_LAPS` times triggers the cycle walk, which on a
    positive cycle fires after a few laps; that is what makes
    conflicted documents cheap to diagnose.

    Without ``rank`` (the incremental re-relaxation) the same loop is a
    FIFO queue, and the walk waits for |V| relaxations of one variable.

    Either way a relax count past the limit is only suspicion
    (legitimate on interleaved chains); a loop in the predecessor graph
    is proof, raised as :class:`_Infeasible`.  Returns the variables
    whose times moved.
    """
    out = graph.out
    cons_var = graph.cons_var
    cons_base = graph.cons_base
    cons_weight = graph.cons_weight
    count = len(dist)
    fifo = rank is None
    limit = count if fifo else SUSPICION_LAPS
    relax_count = [0] * count
    queued = bytearray(count)
    work: list[int] = []
    for seed in seeds:
        if not queued[seed]:
            queued[seed] = 1
            work.append(seed)
    changed: set[int] = set()
    while work:
        if not fifo:
            work.sort(key=rank.__getitem__)
            queued = bytearray(count)
        next_work: list[int] = []
        for here in work:
            if fifo:
                queued[here] = 0
            base_dist = dist[here]
            for row in out[here]:
                if skipped[row]:
                    continue
                target = cons_var[row]
                candidate = base_dist + cons_weight[row]
                if candidate > dist[target] + _EPS:
                    dist[target] = candidate
                    pred[target] = row
                    changed.add(target)
                    relax_count[target] += 1
                    if relax_count[target] > limit:
                        cycle = _find_cycle(cons_base, pred, target)
                        if cycle is None:
                            relax_count[target] = 1
                        else:
                            raise _Infeasible(cycle)
                    if not queued[target]:
                        queued[target] = 1
                        next_work.append(target)
        work = next_work
    return changed


def _find_cycle(cons_base: list[int], pred: list[int],
                start: int) -> list[int] | None:
    """The positive cycle in the predecessor graph through ``start``.

    Walks supporting rows backward from ``start``; a repeated variable
    proves a cycle (a loop in the label-correcting parent graph always
    has positive total weight, the longest-path analogue of the classic
    negative-cycle certificate).  Returns the cycle's rows, or ``None``
    when the walk ends at an unsupported variable — the suspicion was a
    false alarm.
    """
    seen: dict[int, int] = {}
    chain: list[int] = []
    node = start
    while True:
        row = pred[node]
        if row < 0:
            return None
        if node in seen:
            cycle = chain[seen[node]:]
            cycle.reverse()
            return cycle
        seen[node] = len(chain)
        chain.append(row)
        node = cons_base[row]


def _window_width(arc: SyncArc | None) -> float:
    if arc is None or arc.max_delay is None:
        return float("inf")
    return arc.max_delay.value - arc.min_delay.value


def _pick_relaxable_row(graph: ConstraintGraph, cycle: list[int],
                        policy: str) -> int | None:
    """Choose which may row in ``cycle`` to drop, per policy."""
    cons_relax = graph.cons_relax
    candidates = [row for row in cycle if cons_relax[row]]
    if not candidates:
        return None
    if policy == RELAX_DROP_WIDEST:
        return max(candidates,
                   key=lambda row: _window_width(graph.arc_of(row)))
    return candidates[-1]


def _relax(graph: ConstraintGraph, relaxation_policy: str, budget: int
           ) -> tuple[list[float], list[int], list[int], bytearray, int]:
    """The may-relaxation loop: solve, dropping may rows off positive
    cycles until the system is feasible.

    Returns ``(dist, pred, dropped, skipped, iterations)``: ``pred``
    holds each variable's supporting row (-1 for none), ``dropped`` the
    dropped rows in drop order and ``skipped`` their mask.  Raises
    :class:`SchedulingConflict` when a cycle has no relaxable member or
    ``budget`` drops are spent.
    """
    count = graph.count
    skipped = bytearray(len(graph.cons_var))
    dropped: list[int] = []
    iterations = 0
    while True:
        iterations += 1
        dist = [0.0] * count      # every event starts no earlier than root
        pred = [-1] * count
        # Unordered variables keep a deterministic rank past every
        # ordered one.
        rank = list(range(count, 2 * count))
        try:
            dirty = _kahn(graph, skipped, dist, pred, rank=rank)
            if dirty:
                _cleanup(graph, skipped, dist, pred, dirty, rank)
            return dist, pred, dropped, skipped, iterations
        except _Infeasible as infeasible:
            victim = _pick_relaxable_row(graph, infeasible.cycle,
                                         relaxation_policy)
            if victim is None or len(dropped) >= budget:
                cycle = [graph.constraint(row) for row in infeasible.cycle]
                raise SchedulingConflict(
                    "unsatisfiable synchronization constraints "
                    "(conflict class 1, section 5.3.3): "
                    + "; ".join(c.describe() for c in cycle),
                    cycle=cycle) from None
            skipped[victim] = 1
            dropped.append(victim)


def solve_graph(graph: ConstraintGraph, *,
                relaxation_policy: str = RELAX_DROP_LAST,
                max_relaxations: int | None = None) -> SolverResult:
    """Solve a graph, relaxing may constraints as needed.

    Returns the :class:`SolverResult` of
    :func:`~repro.timing.solver.solve` (times keyed by the graph's
    TimeVars in variable order: a :class:`DenseTimes` for a compiled
    graph, a dict for one lowered :meth:`~ConstraintGraph.from_system`;
    dropped constraints materialized in drop order) and raises the same
    :class:`~repro.core.errors.SchedulingConflict` on must-constraint
    cycles.
    """
    check_relaxation_policy(relaxation_policy)
    relaxable_total = sum(graph.cons_relax)
    budget = (relaxable_total if max_relaxations is None
              else min(max_relaxations, relaxable_total))
    dist, _, dropped, _, iterations = _relax(graph, relaxation_policy,
                                             budget)
    return SolverResult(
        times_ms=(dict(zip(graph._timevars, dist)) if graph.slots is None
                  else DenseTimes(dist, graph)),
        dropped=[graph.constraint(row) for row in dropped],
        iterations=iterations)
