"""Layer spans recorded from outside the program.

The traced run wraps the public entry points of each ``repro`` layer
(module = layer) with a span recorder: name, start, end and parent.
Functions that other modules import by name are wrapped in each
namespace that calls them, so the program itself is untouched.  Spans
stay in memory; :func:`write_chrome_trace` writes them out when the run
ends, as Chrome trace-event JSON that Perfetto opens.

A span's self time is its duration minus the durations of its direct
children; the self times of all spans sum to the time covered by root
spans, and whatever the traced wall time leaves uncovered is the
benchmark's own driver code (``unattributed_share``).
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import time
from pathlib import Path

#: (owner, attribute, span name).  ``owner`` is ``module`` or
#: ``module:Class``.  A module-level function imported by name elsewhere
#: appears once per importing namespace the workloads reach.
TARGETS = (
    ("repro.transport.package", "parse_document", "format.parse"),
    ("repro.corpus.ingest", "parse_document", "format.parse"),
    ("repro.core.document:CmifDocument", "compile", "core.compile"),
    ("repro.timing.schedule:ScheduleCache", "schedule_for", "timing.solve"),
    ("repro.timing.schedule", "schedule_document", "timing.solve"),
    ("repro.corpus.ingest", "schedule_document", "timing.solve"),
    ("repro.timing.schedule", "solve_graph", "timing.solver"),
    ("repro.timing.schedule", "solve", "timing.solver"),
    *(("repro.timing.incremental:IncrementalScheduler", method,
       "timing.incremental")
      for method in ("retime", "add_arc", "remove_arc", "reorder",
                     "splice", "duplicate", "remove")),
    ("repro.transport.package", "unpack", "transport.unpack"),
    ("repro.transport.requirements:RequirementsCache", "requirements_for",
     "transport.requirements"),
    ("repro.serving.engine", "negotiate", "transport.negotiate"),
    ("repro.pipeline.program", "compile_program", "pipeline.program"),
    ("repro.pipeline.adaptation", "compile_program", "pipeline.program"),
    ("repro.corpus.ingest", "compile_program", "pipeline.program"),
    ("repro.serving.engine", "adapted_program_for", "pipeline.adapt"),
    ("repro.serving.engine", "adapted_navigation_for",
     "pipeline.navigation"),
    ("repro.serving.engine", "random_trace", "pipeline.navigation"),
    ("repro.pipeline.navprogram:NavigationProgram", "warm",
     "pipeline.navigation"),
    ("repro.pipeline.program:BatchPlayer", "run_one", "pipeline.replay"),
    *(("repro.pipeline.program:PlaybackProgram", method,
       "pipeline.replay_loop") for method in ("plan", "run", "audit")),
    ("repro.pipeline.navprogram:CompiledNavigationSession", "follow",
     "pipeline.follow"),
    ("repro.pipeline.patch:LiveEditor", "apply", "pipeline.patch"),
    ("repro.pipeline.patch:ProgramPatcher", "lower", "pipeline.patch"),
    *((f"repro.kernel.backends:{kernel}", method, f"kernel.{label}")
      for kernel in ("NumpyKernel", "PythonKernel")
      for method, label in (("run", "run"), ("audit", "audit"),
                            ("build_plan", "plan"))),
    ("repro.serving.engine:SessionEngine", "admit", "serving.admit"),
    ("repro.serving.engine:SessionEngine", "admit_interactive",
     "serving.admit_interactive"),
    ("repro.serving.engine:SessionEngine", "drive", "serving.queue"),
    ("repro.serving.runqueue:RunQueue", "drive", "serving.queue"),
    ("repro.serving.session:Session", "play", "serving.queue"),
    ("repro.serving.engine:SessionEngine", "apply_edit", "serving.resync"),
    ("repro.store.distributed:FederatedStore", "stream", "store.stream"),
    ("repro.store.placement:HotSetTracker", "record", "store.tracker"),
    ("repro.store.placement:ReplicateHotPolicy", "plan",
     "store.placement_plan"),
    ("repro.store.distributed:FederatedStore", "apply_placement",
     "store.placement_apply"),
    ("repro.corpus.ingest", "ingest_corpus", "corpus.ingest"),
)

#: Per-layer time metric -> the span names whose self time it sums.
SELF_TIME_GROUPS = {
    "format.parse_s": ("format.parse",),
    "core.compile_s": ("core.compile",),
    "timing.solve_s": ("timing.solve", "timing.solver"),
    "timing.incremental_s": ("timing.incremental",),
    "transport.unpack_s": ("transport.unpack",),
    "transport.requirements_s": ("transport.requirements",),
    "transport.negotiate_s": ("transport.negotiate",),
    "pipeline.program_s": ("pipeline.program",),
    "pipeline.adapt_s": ("pipeline.adapt",),
    "pipeline.navigation_s": ("pipeline.navigation",),
    "pipeline.replay_s": ("pipeline.replay", "pipeline.replay_loop"),
    "pipeline.follow_s": ("pipeline.follow",),
    "pipeline.patch_s": ("pipeline.patch",),
    "kernel.run_s": ("kernel.run",),
    "kernel.audit_s": ("kernel.audit",),
    "kernel.plan_s": ("kernel.plan",),
    "serving.admit_s": ("serving.admit", "serving.admit_interactive"),
    "serving.queue_s": ("serving.queue",),
    "serving.resync_s": ("serving.resync",),
    "store.stream_s": ("store.stream",),
    "store.tracker_s": ("store.tracker",),
    "store.placement_plan_s": ("store.placement_plan",),
    "store.placement_apply_s": ("store.placement_apply",),
    "corpus.ingest_s": ("corpus.ingest",),
}

#: Per-layer count metric -> the span name whose calls it counts.
CALL_COUNTS = {
    "core.compiles": "core.compile",
    "timing.solves": "timing.solver",
    "transport.negotiations": "transport.negotiate",
    "pipeline.replays": "pipeline.replay",
    "pipeline.follows": "pipeline.follow",
    "serving.admits": "serving.admit",
}

#: The layers (``repro`` subpackages) spans are attributed to.
LAYERS = ("format", "core", "timing", "transport", "pipeline", "kernel",
          "serving", "store", "corpus")


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Records one span per wrapped call; single-threaded by design."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent id); parent 0 = root.
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._installed: list[tuple[object, str, object]] = []
        #: Bytes of CMIF text handed to the parser.
        self.parse_bytes = 0
        #: Payload ids the federation was asked to stream.
        self.stream_reads = 0

    def wrap(self, function, name: str):
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent))
        return traced

    def _counting(self, counter: str, position: int, function):
        """``function`` that first adds the length of its positional
        argument ``position`` (a CMIF text, a stream id list) to the
        tracer's ``counter``."""
        tracer = self

        @functools.wraps(function)
        def counted(*args, **kwargs):
            setattr(tracer, counter,
                    getattr(tracer, counter) + len(args[position]))
            return function(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap every target in place (undo with :meth:`uninstall`)."""
        for owner_name, attribute, span_name in TARGETS:
            owner = _resolve(owner_name)
            original = owner.__dict__[attribute] if isinstance(owner, type) \
                else getattr(owner, attribute)
            function = original
            if span_name == "format.parse":
                function = self._counting("parse_bytes", 0, original)
            elif span_name == "store.stream":
                # FederatedStore.stream(self, stream_ids, ...)
                function = self._counting("stream_reads", 1, original)
            setattr(owner, attribute, self.wrap(function, span_name))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = collections.defaultdict(float)
    for _span_id, _name, start, end, parent in spans:
        if parent:
            child_time[parent] += end - start
    return {span_id: (end - start) - child_time.get(span_id, 0.0)
            for span_id, _name, start, end, _parent in spans}


def summarize(spans, wall_seconds: float) -> dict:
    """Self time and call count per span name, per layer shares, and
    the share of ``wall_seconds`` no root span covers."""
    own = self_times(spans)
    by_name: dict[str, float] = collections.defaultdict(float)
    calls: collections.Counter = collections.Counter()
    inclusive: dict[str, float] = collections.defaultdict(float)
    covered = 0.0
    for span_id, name, start, end, parent in spans:
        by_name[name] += own[span_id]
        calls[name] += 1
        inclusive[name] += end - start
        if not parent:
            covered += end - start
    by_layer = {layer: 0.0 for layer in LAYERS}
    for name, seconds in by_name.items():
        by_layer[layer_of(name)] += seconds
    wall = wall_seconds if wall_seconds > 0 else 1.0
    return {
        "self_s": dict(by_name),
        "calls": dict(calls),
        "inclusive_s": dict(inclusive),
        "layer_s": by_layer,
        "layer_share": {layer: seconds / wall
                        for layer, seconds in by_layer.items()},
        "unattributed_share": 1.0 - covered / wall,
    }


def write_chrome_trace(spans, path: Path, *, origin: float,
                       limit: int = 100_000) -> int:
    """Write spans as Chrome trace-event JSON; returns spans written.

    Keeps the first ``limit`` spans by start time so a long run's file
    stays small; the metrics are always computed from every span.
    """
    ordered = sorted(spans, key=lambda span: span[2])[:limit]
    events = [{"name": name, "cat": layer_of(name), "ph": "X",
               "ts": round((start - origin) * 1e6, 3),
               "dur": round((end - start) * 1e6, 3),
               "pid": 1, "tid": 1,
               "args": {"id": span_id, "parent": parent}}
              for span_id, name, start, end, parent in ordered]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}),
                    encoding="utf-8")
    return len(events)
