"""Pipeline stage 5a: document viewing tools (paper section 2, figures
3, 4 and 5).

"These tools present a document (based on the document structure map,
the presentation map, and the local filter map) and provide a means for
a reader to 'view' or (possibly) edit a document."  The renderings here
are text-mode, which keeps them testable and matches the document
structure's role as "an internal table-of-contents function":

* :func:`render_tree` — figure 5a, the conventional node-and-branch tree;
* :func:`render_embedded` — figure 5b, the nested-box (embedded) form;
* :func:`render_timeline` — figure 3 / figure 10, channels as columns
  with time flowing downward and events as boxes;
* :func:`render_screen` — figure 4a, the composite screen at one instant,
  using the presentation map's regions;
* :func:`render_arc_table` — figure 9, the tabular arc form.
"""

from __future__ import annotations

import math

from repro.core.document import CmifDocument
from repro.core.errors import ValueError_
from repro.core.nodes import ImmNode, Node
from repro.pipeline.presentation import PresentationMap
from repro.timing.constraints import arc_table
from repro.timing.schedule import Schedule, ScheduleCache, schedule_for


def _node_caption(node: Node) -> str:
    caption = node.kind.value
    if node.name:
        caption += f" {node.name}"
    channel = node.attributes.get("channel")
    if channel:
        caption += f" @{channel}"
    if node.arcs:
        caption += f" [{len(node.arcs)} arc(s)]"
    if isinstance(node, ImmNode) and node.data:
        text = str(node.data)
        snippet = text[:24] + ("..." if len(text) > 24 else "")
        caption += f' "{snippet}"'
    return caption


def render_tree(document: CmifDocument) -> str:
    """Figure 5a: the conventional tree with branch characters."""
    lines = [_node_caption(document.root)]
    _branch_lines(document.root, "", lines)
    return "\n".join(lines)


# The two walks are module-level functions: a nested function that
# calls itself by name ties itself and what it captures into a
# reference cycle.


def _branch_lines(node: Node, prefix: str, lines: list[str]) -> None:
    """Append the lines of ``node``'s children, each after ``prefix``."""
    children = node.children
    for index, child in enumerate(children):
        is_last = index == len(children) - 1
        connector = "`-- " if is_last else "|-- "
        lines.append(prefix + connector + _node_caption(child))
        _branch_lines(child, prefix + ("    " if is_last else "|   "),
                      lines)


def render_embedded(document: CmifDocument, width: int = 72) -> str:
    """Figure 5b: the embedded (nested box) form of the same tree."""
    lines: list[str] = []
    _box_lines(document.root, 0, width, lines)
    return "\n".join(lines)


def _box_lines(node: Node, depth: int, width: int, lines: list[str]) -> None:
    """Append the box of ``node``, its children's boxes inside it."""
    indent = "  " * depth
    inner = width - len(indent) - 2
    caption = _node_caption(node)[:inner - 2]
    lines.append(f"{indent}+{'-' * inner}+")
    lines.append(f"{indent}| {caption:<{inner - 2}} |")
    for child in node.children:
        _box_lines(child, depth + 1, width, lines)
    if node.children:
        lines.append(f"{indent}+{'-' * inner}+")


#: The most rows :func:`render_timeline` draws; a slot width that
#: would need more is refused rather than rendered for minutes.
MAX_TIMELINE_ROWS = 10_000


def render_timeline(schedule: Schedule, *, slot_ms: float = 1000.0,
                    column_width: int = 14) -> str:
    """Figure 3 / figure 10: channel columns, time rows, event boxes.

    Each row covers ``slot_ms`` of presentation time; a cell shows the
    event active on that channel during the slot, with ``+--`` marking
    the slot in which the event begins.  A slot width that is not a
    positive finite number, or that would need more than
    :data:`MAX_TIMELINE_ROWS` rows, raises :class:`ValueError_`.
    """
    if not 0.0 < slot_ms < math.inf:
        raise ValueError_("the slot width must be a positive finite "
                          "number of milliseconds")
    lanes = schedule.by_channel()
    channels = list(lanes)
    total = schedule.total_duration_ms
    if total / slot_ms > MAX_TIMELINE_ROWS:
        raise ValueError_(f"a {slot_ms:g}ms slot would draw more than "
                          f"{MAX_TIMELINE_ROWS} rows for {total:g}ms")
    slots = max(1, int(total / slot_ms + 0.999))
    header = "time".ljust(10) + "".join(
        name.ljust(column_width) for name in channels)
    lines = [header, "-" * len(header)]
    for slot in range(slots):
        start = slot * slot_ms
        row = [f"{start / 1000.0:7.1f}s  "]
        for channel in channels:
            cell = ""
            for event in lanes[channel]:
                if event.begin_ms <= start + 1e-6 < event.end_ms:
                    name = event.event.node_path.rsplit("/", 1)[-1]
                    starts_here = start <= event.begin_ms < start + slot_ms
                    cell = ("+" if starts_here else "|") + name
                    break
                if start < event.begin_ms < start + slot_ms:
                    name = event.event.node_path.rsplit("/", 1)[-1]
                    cell = "+" + name
                    break
            row.append(cell[:column_width - 1].ljust(column_width))
        lines.append("".join(row))
    return "\n".join(lines)


def render_screen(schedule: Schedule, presentation: PresentationMap,
                  at_ms: float, *, columns: int = 60, rows: int = 18
                  ) -> str:
    """Figure 4a: the composite screen at one instant.

    Visual events active at ``at_ms`` paint their channel's first letter
    into the character cells their region covers (higher z on top);
    active audio events are listed beneath, the way figure 4a draws the
    sound as coming from the side of the display.
    """
    grid = [[" "] * columns for _ in range(rows)]
    active = schedule.events_at(at_ms)
    painted = sorted(
        (event for event in active
         if event.event.channel in presentation.regions),
        key=lambda event: presentation.regions[event.event.channel].z_order)
    for event in painted:
        region = presentation.regions[event.event.channel]
        rect = region.rect
        x0 = rect.x * columns // 1000
        y0 = rect.y * rows // 1000
        x1 = max(x0 + 1, (rect.x + rect.width) * columns // 1000)
        y1 = max(y0 + 1, (rect.y + rect.height) * rows // 1000)
        letter = event.event.channel[0].upper()
        for y in range(y0, min(y1, rows)):
            for x in range(x0, min(x1, columns)):
                grid[y][x] = letter
    lines = ["+" + "-" * columns + "+"]
    lines.extend("|" + "".join(row) + "|" for row in grid)
    lines.append("+" + "-" * columns + "+")
    aural = [event for event in active
             if event.event.channel in presentation.speakers]
    for event in aural:
        speaker = presentation.speakers[event.event.channel].speaker
        lines.append(f"  (( speaker {speaker}: "
                     f"{event.event.node_path} ))")
    legend = ", ".join(
        f"{name[0].upper()}={name}" for name in sorted(presentation.regions))
    lines.append(f"  legend: {legend}")
    return "\n".join(lines)


def render_arc_table(schedule: Schedule, *, explicit_only: bool = True
                     ) -> str:
    """Figure 9: every synchronization arc in tabular form."""
    rows = arc_table(schedule.compiled)
    if explicit_only:
        rows = [row for row in rows if row["origin"] == "explicit-arc"]
    headers = ["type", "source", "offset", "destination", "min_delay",
               "max_delay"]
    widths = {h: max(len(h), *(len(row[h]) for row in rows)) if rows
              else len(h) for h in headers}
    lines = ["  ".join(h.ljust(widths[h]) for h in headers)]
    lines.append("  ".join("-" * widths[h] for h in headers))
    for row in rows:
        lines.append("  ".join(row[h].ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def render_sweep(cells) -> str:
    """A batch sweep's grid as a table (one row per cell).

    Takes the :class:`~repro.pipeline.program.SweepCell` list a
    :meth:`~repro.pipeline.program.BatchPlayer.sweep` returns and
    renders environment × rate × seek against played events, worst
    skew and arc violations — the serving-side counterpart of the
    figure-3 timeline view.
    """
    header = (f"{'environment':<16} {'rate':>5} {'seek':>7} "
              f"{'runs':>5} {'events':>7} {'skew':>9} "
              f"{'must':>5} {'may':>5}")
    lines = [header, "-" * len(header)]
    for cell in cells:
        lines.append(
            f"{cell.environment:<16} {cell.rate:>5g} "
            f"{cell.seek_to_ms / 1000.0:>6.1f}s "
            f"{len(cell.reports):>5} {cell.events_played:>7} "
            f"{cell.worst_skew_ms:>7.1f}ms "
            f"{cell.must_violations:>5} {cell.may_violations:>5}")
    return "\n".join(lines)


def render_summary(document: CmifDocument, schedule: Schedule | None = None
                   ) -> str:
    """The table-of-contents view: stats, channels, optional timing."""
    stats = document.stats()
    lines = [
        f"document: {document.root.name or '(unnamed)'}",
        f"  nodes: {stats.total_nodes} ({stats.seq_nodes} seq, "
        f"{stats.par_nodes} par, {stats.ext_nodes} ext, "
        f"{stats.imm_nodes} imm)",
        f"  depth: {stats.max_depth}, attributes: "
        f"{stats.attribute_count}, explicit arcs: {stats.arc_count}",
        f"  channels: " + ", ".join(
            f"{c.name}({c.medium.value})" for c in document.channels),
    ]
    if schedule is not None:
        lines.append(
            f"  scheduled span: {schedule.total_duration_ms / 1000.0:.1f}s "
            f"over {len(schedule.events)} events")
        utilization = schedule.channel_utilization()
        lines.append("  utilization: " + ", ".join(
            f"{name} {fraction * 100.0:.0f}%"
            for name, fraction in sorted(utilization.items())))
    return "\n".join(lines)


def render_authoring_view(document: CmifDocument, *,
                          cache: ScheduleCache | None = None,
                          slot_ms: float = 2000.0) -> str:
    """The edit-loop refresh: summary + timeline of the current revision.

    This is what an authoring tool re-renders after every edit.  With a
    ``cache`` (normally the one the incremental scheduler publishes to),
    an unchanged revision costs a lookup instead of a solve.
    """
    schedule = schedule_for(document, cache=cache)
    parts = [render_summary(document, schedule), "",
             render_timeline(schedule, slot_ms=slot_ms)]
    if schedule.dropped_constraints:
        parts.append("")
        parts.append(f"relaxed {len(schedule.dropped_constraints)} may "
                     f"constraint(s) to make the document schedulable:")
        parts.extend(f"  - {constraint.describe()}"
                     for constraint in schedule.dropped_constraints)
    return "\n".join(parts)
