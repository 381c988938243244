"""Building the constraint system from a document (paper section 5.3.1).

"The basic tree structure of CMIF documents imposes a default
synchronization that is based on the node type of the ancestors of a data
(leaf) node":

* a sequential node has a default arc from its start to its first child,
  arcs "from the end of leaf nodes to the start of the successor leaf",
  and an arc "from the last child of a sequential node to the end of its
  parent"; the relationship is "start the successor as soon as possible";
* a parallel node has default arcs "from the parallel parent node to each
  of the children" and "from the end of each of the children to the end
  of the parent"; the join relationship is "start the successor when the
  slowest parallel node finishes";
* events on one channel are serialized "in linear time order, with the
  start of the second of two events occurring at a (possibly constrained)
  time after the completion of the first" (section 3.1);
* explicit arcs contribute the window ``tref + delta <= t <= tref +
  epsilon``.

Every rule becomes a difference constraint between two *anchor variables*
(the begin or end time of a node).  The paper's fork/join observation
("default synchronization arcs correspond to fork and join operations")
is literally how the constraints read: par-node begins are forks, ends
are joins.

This object form serves the reference solve
(:func:`~repro.timing.solver.solve`), which the degraded solve and
replay fall back to, and figure 9's :func:`arc_table`.  Cold solves,
admissions and the live editor run on
:func:`~repro.timing.graph.compile_graph`'s rows instead, which
``tests/test_graph_solver.py`` pins to this builder's output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.document import CmifDocument, CompiledDocument
from repro.core.nodes import Node, NodeKind
from repro.core.paths import node_path, resolve_path
from repro.core.syncarc import Anchor, ConditionalArc, Strictness, SyncArc
from repro.core.tree import iter_preorder


class VarKind(enum.Enum):
    """The two anchor variables of every node."""

    BEGIN = "begin"
    END = "end"


@dataclass(frozen=True)
class TimeVar:
    """One time variable: a node anchor identified by its path."""

    path: str
    kind: VarKind

    def __str__(self) -> str:
        return f"{self.kind.value}({self.path})"


class ConstraintKind(enum.Enum):
    """The origin categories of constraints, for diagnosis and ablation."""

    DURATION = "duration"
    SEQ_DEFAULT = "seq-default"
    PAR_DEFAULT = "par-default"
    CHANNEL_ORDER = "channel-order"
    EXPLICIT_ARC = "explicit-arc"
    ROOT_ANCHOR = "root-anchor"


@dataclass(frozen=True)
class Constraint:
    """A difference constraint ``var - base >= weight_ms``.

    Upper bounds ``var - base <= w`` are stored as the equivalent
    ``base - var >= -w`` so the solver deals with one form only.
    ``relaxable`` marks constraints originating from *may* arcs, which the
    scheduler is allowed to drop to resolve a conflict (paper section
    5.3.2: may synchronization "is desirable but not essential").
    """

    var: TimeVar
    base: TimeVar
    weight_ms: float
    kind: ConstraintKind
    relaxable: bool = False
    arc: SyncArc | None = None
    note: str = ""

    def describe(self) -> str:
        tail = f" [{self.note}]" if self.note else ""
        relax = " (may)" if self.relaxable else ""
        return (f"{self.var} >= {self.base} + {self.weight_ms:g}ms "
                f"<{self.kind.value}>{relax}{tail}")


@dataclass
class ConstraintSystem:
    """All variables and constraints of one compiled document."""

    variables: list[TimeVar] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    root_begin: TimeVar | None = None
    var_index: dict[TimeVar, int] = field(default_factory=dict)

    def variable(self, var: TimeVar) -> TimeVar:
        """Intern ``var``, assigning it an index on first sight."""
        if var not in self.var_index:
            self.var_index[var] = len(self.variables)
            self.variables.append(var)
        return var

    def add(self, constraint: Constraint) -> None:
        """Register a constraint (interning both endpoints)."""
        self.variable(constraint.var)
        self.variable(constraint.base)
        self.constraints.append(constraint)

    def lower(self, var: TimeVar, base: TimeVar, weight_ms: float,
              kind: ConstraintKind, *, relaxable: bool = False,
              arc: SyncArc | None = None, note: str = "") -> None:
        """Add ``var >= base + weight_ms``."""
        self.add(Constraint(var, base, weight_ms, kind,
                            relaxable=relaxable, arc=arc, note=note))

    @property
    def size(self) -> tuple[int, int]:
        """``(variable count, constraint count)``."""
        return len(self.variables), len(self.constraints)


def begin_var(node_or_path: Node | str) -> TimeVar:
    """The begin-time variable of a node."""
    path = (node_or_path if isinstance(node_or_path, str)
            else node_path(node_or_path))
    return TimeVar(path, VarKind.BEGIN)


def end_var(node_or_path: Node | str) -> TimeVar:
    """The end-time variable of a node."""
    path = (node_or_path if isinstance(node_or_path, str)
            else node_path(node_or_path))
    return TimeVar(path, VarKind.END)


def anchor_var(node: Node, anchor: Anchor) -> TimeVar:
    """The variable an arc endpoint refers to."""
    return begin_var(node) if anchor is Anchor.BEGIN else end_var(node)


def build_constraints(compiled: CompiledDocument, *,
                      channel_serialization: bool = True) -> ConstraintSystem:
    """Build the full constraint system for a compiled document.

    ``channel_serialization`` exists for the ablation bench: disabling it
    removes the section-3.1 per-channel ordering constraints so their
    effect can be measured.  Conditional (hyper-navigation) arcs are
    runtime-only and never enter the static schedule, as DESIGN.md
    notes.
    """
    document = compiled.document
    system = ConstraintSystem()
    root = document.root
    system.root_begin = begin_var(root)
    system.variable(system.root_begin)

    for node in iter_preorder(root):
        _add_node_constraints(system, compiled, node)
    if channel_serialization:
        _add_channel_constraints(system, compiled)
    _add_explicit_arcs(system, document)
    return system


def _add_node_constraints(system: ConstraintSystem,
                          compiled: CompiledDocument, node: Node) -> None:
    """Durations for leaves; default fork/join arcs for containers."""
    begin = begin_var(node)
    end = end_var(node)
    if node.is_leaf:
        event = compiled.event_for(node)
        for constraint in _duration_pair(begin, end, event.duration_ms,
                                         event.event_id):
            system.add(constraint)
        return

    children = node.children
    # A container never ends before it begins, even when empty.
    kind = (ConstraintKind.SEQ_DEFAULT if node.kind is NodeKind.SEQ
            else ConstraintKind.PAR_DEFAULT)
    system.lower(end, begin, 0.0, kind, note="container non-negative span")
    if not children:
        return
    if node.kind is NodeKind.SEQ:
        system.lower(begin_var(children[0]), begin, 0.0, kind,
                     note="seq start -> first child")
        for before, after in zip(children, children[1:]):
            system.lower(begin_var(after), end_var(before), 0.0, kind,
                         note=f"seq chain {before.label()} -> "
                              f"{after.label()}")
        system.lower(end, end_var(children[-1]), 0.0, kind,
                     note="last child -> seq end")
    else:
        for child in children:
            system.lower(begin_var(child), begin, 0.0, kind,
                         note=f"par fork -> {child.label()}")
            system.lower(end, end_var(child), 0.0, kind,
                         note=f"par join <- {child.label()}")


def _add_channel_constraints(system: ConstraintSystem,
                             compiled: CompiledDocument) -> None:
    """Serialize events sharing a channel, in document order."""
    for channel, events in compiled.per_channel.items():
        for before, after in zip(events, events[1:]):
            system.lower(
                begin_var(after.node_path), end_var(before.node_path), 0.0,
                ConstraintKind.CHANNEL_ORDER,
                note=f"channel {channel!r} order")


def _add_explicit_arcs(system: ConstraintSystem,
                       document: CmifDocument) -> None:
    """Translate every explicit arc into its window constraints."""
    for node in iter_preorder(document.root):
        for arc in node.arcs:
            for constraint in _arc_constraints(document, node, arc):
                system.add(constraint)


def _duration_pair(begin: TimeVar, end: TimeVar, duration_ms: float,
                   event_id: str) -> list[Constraint]:
    """A leaf's duration rule: ``end - begin`` pinned to ``duration_ms``.

    The upper bound is stored in the solver's one ``>=`` form, as
    ``begin - end >= -duration_ms``.
    """
    note = f"duration of {event_id}"
    return [Constraint(end, begin, duration_ms, ConstraintKind.DURATION,
                       note=note),
            Constraint(begin, end, -duration_ms, ConstraintKind.DURATION,
                       note=note)]


def _arc_constraints(document: CmifDocument, owner: Node,
                     arc: SyncArc) -> list[Constraint]:
    """An explicit arc's window rule ``tref + delta <= t <= tref + epsilon``.

    One lower constraint for the minimum delay, plus an upper one (in
    ``>=`` form) when the maximum delay is finite.  Conditional
    (hyper-navigation) arcs are runtime-only and contribute nothing.
    """
    if isinstance(arc, ConditionalArc):
        return []
    src = anchor_var(resolve_path(owner, arc.source), arc.src_anchor)
    dst = anchor_var(resolve_path(owner, arc.destination), arc.dst_anchor)
    delta_ms, epsilon_ms = arc.window_ms(document.timebase)
    offset_ms = document.timebase.to_ms(arc.offset)
    relaxable = arc.strictness is Strictness.MAY
    note = f"arc at {node_path(owner)}: {arc.describe()}"
    constraints = [Constraint(dst, src, offset_ms + delta_ms,
                              ConstraintKind.EXPLICIT_ARC,
                              relaxable=relaxable, arc=arc, note=note)]
    if epsilon_ms is not None:
        constraints.append(Constraint(src, dst, -(offset_ms + epsilon_ms),
                                      ConstraintKind.EXPLICIT_ARC,
                                      relaxable=relaxable, arc=arc,
                                      note=note))
    return constraints


def arc_table(compiled: CompiledDocument, *,
              channel_serialization: bool = True) -> list[dict[str, str]]:
    """The figure-9 tabular rendering of every constraint in a document.

    Includes the implied (default) arcs, which the paper notes exist even
    when "the synchronization arc can be omitted from the description".
    Each row carries the figure's six columns plus the constraint origin.
    """
    system = build_constraints(compiled,
                               channel_serialization=channel_serialization)
    rows: list[dict[str, str]] = []
    seen_arcs: set[int] = set()
    for constraint in system.constraints:
        if constraint.arc is not None:
            # An explicit arc yields a lower and possibly an upper
            # constraint; the table shows the arc once.
            if id(constraint.arc) in seen_arcs:
                continue
            seen_arcs.add(id(constraint.arc))
            arc = constraint.arc
            epsilon = ("inf" if arc.max_delay is None
                       else f"{arc.max_delay.value:g}"
                            f"{arc.max_delay.unit.value}")
            rows.append({
                "type": arc.type_field(),
                "source": f"{arc.source or '.'}@{arc.src_anchor.value}",
                "offset": f"{arc.offset.value:g}{arc.offset.unit.value}",
                "destination":
                    f"{arc.destination or '.'}@{arc.dst_anchor.value}",
                "min_delay": f"{arc.min_delay.value:g}"
                             f"{arc.min_delay.unit.value}",
                "max_delay": epsilon,
                "origin": constraint.kind.value,
            })
        else:
            rows.append({
                "type": "begin/must",
                "source": str(constraint.base),
                "offset": f"{max(constraint.weight_ms, 0.0):g}ms",
                "destination": str(constraint.var),
                "min_delay": "0",
                "max_delay": "inf",
                "origin": constraint.kind.value,
            })
    return rows
