"""Compiled constraint graphs: the cold-path solve lowered onto arrays.

:func:`repro.timing.constraints.build_constraints` +
:func:`repro.timing.solver.solve` define the scheduling semantics, but
they pay object-shaped costs on every *first* schedule of a document:
every variable is an interned :class:`TimeVar` frozen dataclass, every
rule a :class:`Constraint` dataclass with an eagerly formatted note, and
the adjacency structure is a list of ``(target, weight, constraint)``
tuples.  Corpus ingest (thousands of cold documents, no warm cache to
help) pays all of it per document.

This module compiles a document straight into a flat graph:

* time variables are interned to dense int ids in exactly the order
  ``build_constraints`` interns them (so every downstream tie-break
  matches the reference solver);
* edges live in CSR arrays (``row_start``/``edge_target``/
  ``edge_weight``/``edge_cons``), built once — implied root edges
  included — and masked per may-relaxation retry instead of rebuilt;
* constraints are *rows in a metadata table*; the corresponding
  :class:`Constraint` objects (with their formatted notes) only
  materialize for cycle diagnostics, dropped-constraint reporting and
  :func:`~repro.timing.solver.check_solution` audits.

The solve itself is the array form of the reference algorithm: the same
Kahn pass over the non-negative edges, then the same ranked cleanup with
the same :data:`~repro.timing.solver.SUSPICION_LAPS` cycle-certificate
schedule — mirrored operation for operation, so the certified conflict
cycles (and therefore the may-constraint drops, under either relaxation
policy) are identical to :func:`~repro.timing.solver.solve`.
``tests/test_graph_solver.py`` pins the equivalence: same times, same
dropped constraints in the same order, same conflict cycles.  The
pre-graph FIFO cleanup survives as ``solve(..., cleanup="fifo")``, the
baseline ``benchmarks/bench_ingest.py`` gates against.

Both phases are scalar loops over the CSR lists; the ``kernel=`` axis
covers only the replay loop.
"""

from __future__ import annotations

from repro.core.document import CompiledDocument
from repro.core.errors import SchedulingConflict
from repro.core.nodes import NodeKind
from repro.core.paths import resolve_path
from repro.core.syncarc import Anchor, ConditionalArc, Strictness
from repro.timing.constraints import (Constraint, ConstraintKind,
                                      ConstraintSystem, TimeVar, VarKind)
from repro.timing.solver import (RELAXATION_POLICIES, RELAX_DROP_LAST,
                                 RELAX_DROP_WIDEST, SUSPICION_LAPS,
                                 SolverResult)

#: Metadata row codes — which rule produced a constraint, and from what.
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

_EPS = 1e-9


class _GraphInfeasible(Exception):
    """Internal: one solve attempt found a positive cycle (edge ids)."""

    def __init__(self, cycle_edges: list[int]) -> None:
        super().__init__("positive cycle")
        self.cycle_edges = cycle_edges


class ConstraintGraph:
    """One document's constraint system in flat array form.

    ``cons_var``/``cons_base``/``cons_weight`` are the constraint rows
    (``var - base >= weight``); ``cons_relax`` flags may constraints.
    The CSR arrays hold every edge ``base -> var`` plus the implied
    root edges, in the reference solver's adjacency order.  ``meta``
    carries just enough provenance to materialize the row's
    :class:`Constraint` on demand.
    """

    __slots__ = ("compiled", "channel_serialization", "count", "root",
                 "var_paths", "var_kinds", "cons_var", "cons_base",
                 "cons_weight", "cons_relax", "meta", "implied_vars",
                 "row_start", "edge_src", "edge_target", "edge_weight",
                 "edge_cons", "_timevars", "_constraints")

    def __init__(self, compiled: CompiledDocument,
                 channel_serialization: bool) -> None:
        self.compiled = compiled
        self.channel_serialization = channel_serialization
        self.count = 0
        self.root = 0
        self.var_paths: list[str] = []
        self.var_kinds: list[int] = []          # 0 = begin, 1 = end
        self.cons_var: list[int] = []
        self.cons_base: list[int] = []
        self.cons_weight: list[float] = []
        self.cons_relax: list[int] = []
        self.meta: list[tuple] = []
        self.implied_vars: list[int] = []
        self.row_start: list[int] = []
        self.edge_src: list[int] = []
        self.edge_target: list[int] = []
        self.edge_weight: list[float] = []
        self.edge_cons: list[int] = []
        self._timevars: list[TimeVar | None] = []
        self._constraints: dict[int, Constraint] = {}

    # -- sizes ----------------------------------------------------------

    @property
    def size(self) -> tuple[int, int]:
        """``(variable count, constraint count)`` — mirrors the system."""
        return self.count, len(self.cons_var)

    @property
    def real_count(self) -> int:
        """Constraint rows from the document (implied edges excluded)."""
        return len(self.cons_var)

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
        """Materialize one metadata row as the reference Constraint.

        Ids at or past :attr:`real_count` are the implied root edges;
        both forms reproduce ``build_constraints`` output exactly (same
        kinds, notes, relaxability and arc references), so cycle
        diagnostics and dropped-constraint reports compare equal to the
        object path's.
        """
        cached = self._constraints.get(cons_id)
        if cached is not None:
            return cached
        if cons_id >= len(self.cons_var):
            var_id = self.implied_vars[cons_id - len(self.cons_var)]
            built = Constraint(self.timevar(var_id), self.timevar(self.root),
                               0.0, ConstraintKind.ROOT_ANCHOR,
                               note="implied arc with the root")
        else:
            built = self._materialize(cons_id)
        self._constraints[cons_id] = built
        return built

    def _materialize(self, cons_id: int) -> Constraint:
        var = self.timevar(self.cons_var[cons_id])
        base = self.timevar(self.cons_base[cons_id])
        weight = self.cons_weight[cons_id]
        row = self.meta[cons_id]
        code = row[0]
        if code in (_M_DUR_LOW, _M_DUR_UP):
            return Constraint(var, base, weight, ConstraintKind.DURATION,
                              note=f"duration of {row[1].event_id}")
        if code == _M_SPAN:
            kind = (ConstraintKind.SEQ_DEFAULT
                    if row[1].kind is NodeKind.SEQ
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
                              note=f"seq chain {row[1].label()} -> "
                                   f"{row[2].label()}")
        if code == _M_SEQ_END:
            return Constraint(var, base, weight,
                              ConstraintKind.SEQ_DEFAULT,
                              note="last child -> seq end")
        if code == _M_PAR_FORK:
            return Constraint(var, base, weight,
                              ConstraintKind.PAR_DEFAULT,
                              note=f"par fork -> {row[1].label()}")
        if code == _M_PAR_JOIN:
            return Constraint(var, base, weight,
                              ConstraintKind.PAR_DEFAULT,
                              note=f"par join <- {row[1].label()}")
        if code == _M_CHANNEL:
            return Constraint(var, base, weight,
                              ConstraintKind.CHANNEL_ORDER,
                              note=f"channel {row[1]!r} order")
        # _M_ARC_LOW / _M_ARC_UP: (code, owner_path, arc)
        return Constraint(var, base, weight, ConstraintKind.EXPLICIT_ARC,
                          relaxable=bool(self.cons_relax[cons_id]),
                          arc=row[2],
                          note=f"arc at {row[1]}: {row[2].describe()}")

    def arc_of(self, cons_id: int):
        """The owning SyncArc of a row, without materializing (or None)."""
        if cons_id >= len(self.cons_var):
            return None
        row = self.meta[cons_id]
        return row[2] if row[0] in (_M_ARC_LOW, _M_ARC_UP) else None

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
        for cons_id in range(len(self.cons_var)):
            system.add(self.constraint(cons_id))
        return system


def compile_graph(compiled: CompiledDocument, *,
                  channel_serialization: bool = True,
                  include_conditional: bool = False) -> ConstraintGraph:
    """Compile a document into a :class:`ConstraintGraph`.

    Emits the same rules, in the same order, as
    :func:`~repro.timing.constraints.build_constraints` — but into flat
    arrays, with no TimeVar or Constraint objects and no note
    formatting.  Variable ids follow the reference interning order
    (first mention in emission order, root begin first), so the graph
    solver's topological and queue orders match the reference solver's.
    """
    graph = ConstraintGraph(compiled, channel_serialization)
    document = compiled.document
    root = document.root

    # One walk assigns every node a preorder sequence number and its
    # canonical path (the reference recomputes node_path per mention).
    nodes: list = []
    paths: list[str] = []
    seq_of: dict[int, int] = {}
    seq_by_path: dict[str, int] = {}
    stack = [(root, "/", "")]
    while stack:
        node, path, prefix = stack.pop()
        seq_of[id(node)] = len(nodes)
        seq_by_path[path] = len(nodes)
        nodes.append(node)
        paths.append(path)
        if not node.is_leaf:
            for index in reversed(range(len(node.children))):
                child = node.children[index]
                component = (child.name if child.name is not None
                             else f"#{index}")
                child_path = f"{prefix}/{component}"
                stack.append((child, child_path, child_path))
    # The stack pops children in document order (reversed push), so
    # ``nodes`` is exactly ``iter_preorder(root)``.

    var_ids: dict[int, int] = {}
    var_paths = graph.var_paths
    var_kinds = graph.var_kinds

    def intern(key: int) -> int:
        var_id = var_ids.get(key)
        if var_id is None:
            var_id = len(var_paths)
            var_ids[key] = var_id
            var_paths.append(paths[key >> 1])
            var_kinds.append(key & 1)
        return var_id

    cons_var = graph.cons_var
    cons_base = graph.cons_base
    cons_weight = graph.cons_weight
    cons_relax = graph.cons_relax
    meta = graph.meta

    def lower(var_key: int, base_key: int, weight: float,
              row: tuple, relaxable: bool = False) -> None:
        cons_var.append(intern(var_key))
        cons_base.append(intern(base_key))
        cons_weight.append(weight)
        cons_relax.append(1 if relaxable else 0)
        meta.append(row)

    graph.root = intern(0)  # begin(root): key (seq 0 << 1) | 0

    for seq in range(len(nodes)):
        node = nodes[seq]
        begin_key = seq << 1
        end_key = begin_key | 1
        if node.is_leaf:
            event = compiled.event_for(node)
            duration = event.duration_ms
            lower(end_key, begin_key, duration, (_M_DUR_LOW, event))
            # upper(end, begin, d) stores begin - end >= -d.
            lower(begin_key, end_key, -duration, (_M_DUR_UP, event))
            continue
        children = node.children
        lower(end_key, begin_key, 0.0, (_M_SPAN, node))
        if not children:
            continue
        child_seq = [seq_of[id(child)] for child in children]
        if node.kind is NodeKind.SEQ:
            lower(child_seq[0] << 1, begin_key, 0.0, (_M_SEQ_START, node))
            for position in range(len(children) - 1):
                lower(child_seq[position + 1] << 1,
                      (child_seq[position] << 1) | 1, 0.0,
                      (_M_SEQ_CHAIN, children[position],
                       children[position + 1]))
            lower(end_key, (child_seq[-1] << 1) | 1, 0.0,
                  (_M_SEQ_END, node))
        else:
            for position, child in enumerate(children):
                fork_key = child_seq[position] << 1
                lower(fork_key, begin_key, 0.0, (_M_PAR_FORK, child))
                lower(end_key, fork_key | 1, 0.0, (_M_PAR_JOIN, child))

    if channel_serialization:
        for channel, events in compiled.per_channel.items():
            for before, after in zip(events, events[1:]):
                lower(seq_by_path[after.node_path] << 1,
                      (seq_by_path[before.node_path] << 1) | 1, 0.0,
                      (_M_CHANNEL, channel))

    timebase = document.timebase
    for seq in range(len(nodes)):
        node = nodes[seq]
        for arc in node.arcs:
            if isinstance(arc, ConditionalArc) and not include_conditional:
                continue
            source = resolve_path(node, arc.source)
            destination = resolve_path(node, arc.destination)
            src_key = (seq_of[id(source)] << 1) | (
                0 if arc.src_anchor is Anchor.BEGIN else 1)
            dst_key = (seq_of[id(destination)] << 1) | (
                0 if arc.dst_anchor is Anchor.BEGIN else 1)
            delta_ms, epsilon_ms = arc.window_ms(timebase)
            offset_ms = timebase.to_ms(arc.offset)
            relaxable = arc.strictness is Strictness.MAY
            owner_path = paths[seq]
            lower(dst_key, src_key, offset_ms + delta_ms,
                  (_M_ARC_LOW, owner_path, arc), relaxable)
            if epsilon_ms is not None:
                lower(src_key, dst_key, -(offset_ms + epsilon_ms),
                      (_M_ARC_UP, owner_path, arc), relaxable)

    graph.count = len(var_paths)
    graph._timevars = [None] * graph.count
    _build_csr(graph)
    return graph


def _build_csr(graph: ConstraintGraph) -> None:
    """Flatten the edge list — implied root edges last — into CSR form.

    A stable counting sort by source keeps every row in the reference
    adjacency order: constraint edges in emission order, then (for the
    root row) the implied edges in variable-interning order.
    """
    count = graph.count
    root = graph.root
    graph.implied_vars = [var_id for var_id in range(count)
                          if var_id != root]
    real = len(graph.cons_var)
    total = real + len(graph.implied_vars)

    sources = graph.cons_base + [root] * len(graph.implied_vars)
    targets = graph.cons_var + graph.implied_vars
    weights = graph.cons_weight + [0.0] * len(graph.implied_vars)

    counts = [0] * (count + 1)
    for source in sources:
        counts[source + 1] += 1
    row_start = counts
    for position in range(count):
        row_start[position + 1] += row_start[position]
    fill = list(row_start[:count])
    edge_src = [0] * total
    edge_target = [0] * total
    edge_weight = [0.0] * total
    edge_cons = [0] * total
    for cons_id in range(total):
        source = sources[cons_id]
        slot = fill[source]
        fill[source] = slot + 1
        edge_src[slot] = source
        edge_target[slot] = targets[cons_id]
        edge_weight[slot] = weights[cons_id]
        edge_cons[slot] = cons_id
    graph.row_start = row_start
    graph.edge_src = edge_src
    graph.edge_target = edge_target
    graph.edge_weight = edge_weight
    graph.edge_cons = edge_cons


# ---------------------------------------------------------------------------
# The graph solve.


def _graph_topo(graph: ConstraintGraph, skipped: bytearray,
                dist: list[float], pred: list[int],
                rank: list[int]) -> list[int]:
    """Kahn pass over the non-negative unmasked edges (phase 1).

    Bit-exact mirror of the reference ``_topological_pass`` over the
    whole graph: same indegree accounting, same FIFO order, same dirty
    list (negative-edge movers in relaxation order, then unordered
    members in id order).  Also records each variable's pop position in
    ``rank`` for the ranked cleanup.
    """
    count = graph.count
    row_start = graph.row_start
    edge_target = graph.edge_target
    edge_weight = graph.edge_weight
    edge_cons = graph.edge_cons

    indegree = [0] * count
    for edge in range(len(edge_target)):
        if not skipped[edge_cons[edge]] and edge_weight[edge] >= 0.0:
            indegree[edge_target[edge]] += 1
    ready = [node for node in range(count) if indegree[node] == 0]
    head = 0
    dirty: list[int] = []
    popped = 0
    while head < len(ready):
        here = ready[head]
        head += 1
        rank[here] = popped
        popped += 1
        base_dist = dist[here]
        for edge in range(row_start[here], row_start[here + 1]):
            if skipped[edge_cons[edge]]:
                continue
            target = edge_target[edge]
            weight = edge_weight[edge]
            candidate = base_dist + weight
            if candidate > dist[target] + _EPS:
                dist[target] = candidate
                pred[target] = edge
                if weight < 0.0:
                    dirty.append(target)
            if weight >= 0.0:
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
    if popped < count:
        dirty.extend(node for node in range(count) if indegree[node] != 0)
    return dirty


def _find_cycle_edges(graph: ConstraintGraph, pred: list[int],
                      start: int) -> list[int] | None:
    """Mirror of the reference ``_find_cycle`` over edge ids."""
    edge_src = graph.edge_src
    seen: dict[int, int] = {}
    chain: list[int] = []
    node = start
    while True:
        edge = pred[node]
        if edge < 0:
            return None
        if node in seen:
            cycle = chain[seen[node]:]
            cycle.reverse()
            return cycle
        seen[node] = len(chain)
        chain.append(edge)
        node = edge_src[edge]


def _ranked_cleanup(graph: ConstraintGraph, skipped: bytearray,
                    dist: list[float], pred: list[int],
                    rank: list[int], seeds: list[int]) -> None:
    """Array form of the reference ranked cleanup (phase 2).

    Bit-exact mirror of :func:`repro.timing.solver._ranked_cleanup`:
    same batch order (phase-1 pop rank), same relaxation arithmetic,
    same :data:`~repro.timing.solver.SUSPICION_LAPS` certification
    schedule — so the certified cycle, and therefore the may-constraint
    dropped under either policy, is identical to the object solver's.
    """
    count = graph.count
    row_start = graph.row_start
    edge_target = graph.edge_target
    edge_weight = graph.edge_weight
    edge_cons = graph.edge_cons
    rank_of = rank.__getitem__

    relax_count = [0] * count
    in_batch = bytearray(count)
    batch: list[int] = []
    for seed in seeds:
        if not in_batch[seed]:
            in_batch[seed] = 1
            batch.append(seed)
    while batch:
        batch.sort(key=rank_of)
        next_batch: list[int] = []
        in_batch = bytearray(count)
        for here in batch:
            base_dist = dist[here]
            for edge in range(row_start[here], row_start[here + 1]):
                if skipped[edge_cons[edge]]:
                    continue
                target = edge_target[edge]
                candidate = base_dist + edge_weight[edge]
                if candidate > dist[target] + _EPS:
                    dist[target] = candidate
                    pred[target] = edge
                    relax_count[target] += 1
                    if relax_count[target] > SUSPICION_LAPS:
                        cycle = _find_cycle_edges(graph, pred, target)
                        if cycle is None:
                            relax_count[target] = 1
                        else:
                            raise _GraphInfeasible(cycle)
                    if not in_batch[target]:
                        in_batch[target] = 1
                        next_batch.append(target)
        batch = next_batch


def _solve_pass(graph: ConstraintGraph, skipped: bytearray) -> list[float]:
    """One full relaxation pass; raises :class:`_GraphInfeasible`."""
    count = graph.count
    dist = [0.0] * count
    pred = [-1] * count
    # Unordered members keep a deterministic rank past every popped one.
    rank = [count + node for node in range(count)]
    dirty = _graph_topo(graph, skipped, dist, pred, rank)
    if dirty:
        _ranked_cleanup(graph, skipped, dist, pred, rank, dirty)
    return dist


def _pick_relaxable_row(graph: ConstraintGraph, cycle_edges: list[int],
                        policy: str) -> int | None:
    """Mirror of the reference ``_pick_relaxable`` over metadata rows."""
    edge_cons = graph.edge_cons
    cons_relax = graph.cons_relax
    real = len(cons_relax)
    candidates = [edge_cons[edge] for edge in cycle_edges
                  if edge_cons[edge] < real and cons_relax[edge_cons[edge]]]
    if not candidates:
        return None
    if policy == RELAX_DROP_WIDEST:
        best = candidates[0]
        best_width = _window_width(graph, best)
        for cons_id in candidates[1:]:
            width = _window_width(graph, cons_id)
            if width > best_width:
                best = cons_id
                best_width = width
        return best
    return candidates[-1]


def _window_width(graph: ConstraintGraph, cons_id: int) -> float:
    arc = graph.arc_of(cons_id)
    if arc is None or arc.max_delay is None:
        return float("inf")
    return arc.max_delay.value - arc.min_delay.value


def solve_graph(graph: ConstraintGraph, *,
                relaxation_policy: str = RELAX_DROP_LAST,
                max_relaxations: int | None = None) -> SolverResult:
    """Solve a compiled graph; drop-in equivalent of :func:`solve`.

    Returns the same :class:`SolverResult` (times keyed by materialized
    TimeVars, dropped constraints materialized in drop order) and raises
    the same :class:`SchedulingConflict` on must-constraint cycles.
    Adjacency is never rebuilt: each may-relaxation retry only flips a
    bit in the skip mask.
    """
    if relaxation_policy not in RELAXATION_POLICIES:
        raise SchedulingConflict(
            f"unknown relaxation policy {relaxation_policy!r}; expected "
            f"one of {RELAXATION_POLICIES}")
    relaxable_total = sum(graph.cons_relax)
    budget = (relaxable_total if max_relaxations is None
              else min(max_relaxations, relaxable_total))
    skipped = bytearray(len(graph.cons_var) + len(graph.implied_vars))
    dropped_rows: list[int] = []
    iterations = 0
    while True:
        iterations += 1
        try:
            dist = _solve_pass(graph, skipped)
        except _GraphInfeasible as infeasible:
            victim = _pick_relaxable_row(graph, infeasible.cycle_edges,
                                         relaxation_policy)
            if victim is None or len(dropped_rows) >= budget:
                cycle = [graph.constraint(graph.edge_cons[edge])
                         for edge in infeasible.cycle_edges]
                raise SchedulingConflict(
                    "unsatisfiable synchronization constraints "
                    "(conflict class 1, section 5.3.3): "
                    + "; ".join(c.describe() for c in cycle),
                    cycle=cycle) from None
            skipped[victim] = 1
            dropped_rows.append(victim)
            continue
        times = {graph.timevar(var_id): dist[var_id]
                 for var_id in range(graph.count)}
        return SolverResult(
            times_ms=times,
            dropped=[graph.constraint(row) for row in dropped_rows],
            iterations=iterations)
