"""The graph lowering the one-walk lowering replaced.

``compile_graph`` is the earlier :func:`repro.timing.graph.compile_graph`
verbatim: its own preorder walk of the tree rebuilding every node's
path, interning through an ``intern`` closure and appending through a
``lower`` closure, one provenance tuple per row.  It fills the shipped
:class:`~repro.timing.graph.ConstraintGraph`'s row layout (the tuples
are unzipped into the provenance columns the shipped solver reads), so
the shipped core solves it.  ``solve_graph`` is the earlier
:func:`repro.timing.graph.solve_graph` verbatim: its result is a dict
holding one materialized :class:`~repro.timing.constraints.TimeVar` per
variable.

The shipped lowering must build the same rows, in the same order, and
solve to the same times, drops and cycles as this one
(``tests/test_graph_solver.py``); ``benchmarks/bench_ingest.py`` times
its cold-wrap gate against it.
"""

from __future__ import annotations

from repro.core.document import CompiledDocument
from repro.core.nodes import NodeKind
from repro.core.paths import resolve_path
from repro.core.syncarc import Anchor, ConditionalArc, Strictness
from repro.timing.graph import (_M_ARC_LOW, _M_ARC_UP, _M_CHANNEL,
                                _M_DUR_LOW, _M_DUR_UP, _M_PAR_FORK,
                                _M_PAR_JOIN, _M_SEQ_CHAIN, _M_SEQ_END,
                                _M_SEQ_START, _M_SPAN, RELAX_DROP_LAST,
                                ConstraintGraph, SolverResult, _relax,
                                check_relaxation_policy)


def compile_graph(compiled: CompiledDocument, *,
                  channel_serialization: bool = True) -> ConstraintGraph:
    """Compile a document into a :class:`ConstraintGraph`.

    Emits the same rules, in the same order, as
    :func:`~repro.timing.constraints.build_constraints` — but into flat
    rows, with no TimeVar or Constraint objects and no note formatting.
    Variable ids follow the reference interning order (first mention in
    emission order, root begin first), so the rows are the ones
    :meth:`ConstraintGraph.from_system` lowers the built system to.
    """
    graph = ConstraintGraph()
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
    meta: list[tuple] = []

    def lower(var_key: int, base_key: int, weight: float,
              row: tuple, relaxable: bool = False) -> None:
        cons_var.append(intern(var_key))
        cons_base.append(intern(base_key))
        cons_weight.append(weight)
        cons_relax.append(1 if relaxable else 0)
        meta.append(row)

    root_id = intern(0)  # begin(root): key (seq 0 << 1) | 0

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
            if isinstance(arc, ConditionalArc):
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

    graph._timevars = [None] * len(var_paths)
    # The shipped solver reads provenance as columns.  An arc row's
    # tuple is (code, owner path, arc), a seq chain row's (code, before,
    # after), every other row's (code, subject).
    for row in meta:
        graph.cons_code.append(row[0])
        if row[0] in (_M_ARC_LOW, _M_ARC_UP):
            graph.cons_subject.append(row[2])
            graph.cons_other.append(row[1])
        else:
            graph.cons_subject.append(row[1])
            graph.cons_other.append(row[2] if len(row) > 2 else None)
    graph._close(len(var_paths), root_id)
    return graph


def solve_graph(graph: ConstraintGraph, *,
                relaxation_policy: str = RELAX_DROP_LAST,
                max_relaxations: int | None = None) -> SolverResult:
    """Solve a graph, relaxing may constraints as needed.

    Returns the :class:`SolverResult` of
    :func:`~repro.timing.solver.solve` (times keyed by the graph's
    TimeVars in variable order, dropped constraints materialized in
    drop order) and raises the same
    :class:`~repro.core.errors.SchedulingConflict` on must-constraint
    cycles.
    """
    check_relaxation_policy(relaxation_policy)
    relaxable_total = sum(graph.cons_relax)
    budget = (relaxable_total if max_relaxations is None
              else min(max_relaxations, relaxable_total))
    dist, _, dropped, _, iterations = _relax(graph, relaxation_policy,
                                             budget)
    timevar = graph.timevar
    return SolverResult(
        times_ms={timevar(var_id): dist[var_id]
                  for var_id in range(graph.count)},
        dropped=[graph.constraint(row) for row in dropped],
        iterations=iterations)
