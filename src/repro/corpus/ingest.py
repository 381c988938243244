"""Corpus ingest: the cold path from CMIF text to warmed serving caches.

The ROADMAP's fleet-serving posture needs more than warm-cache replay
speed (PR 3): bringing a *catalog* of documents online means paying the
cold pipeline — parse → compile → schedule → playback program — once
per document, for thousands of documents.  This engine streams a
directory of CMIF text files through that pipeline, warms the
:class:`~repro.timing.schedule.ScheduleCache` and
:class:`~repro.pipeline.program.ProgramCache` that the serving path
reads, and accounts for every stage separately so throughput regressions
point at the guilty layer.

The schedule stage solves with the compiled-graph engine
(:mod:`repro.timing.graph`), which is bit-identical to the reference
solver and the reason cold scheduling clears the ingest gate
(``benchmarks/bench_ingest.py``).

Failures are per-document: a malformed file or an unsatisfiable
constraint set is recorded (with its stage *and its category*) and the
stream moves on — one bad document must not stop a catalog.  Categories
drive the recovery policy (:func:`classify_failure`): ``parse_error``
and ``solve_conflict`` are properties of the document — retrying cannot
fix them, so they are quarantined immediately; ``infrastructure``
failures (I/O, store, transport, injected faults) are transient by
nature and retried under a bounded :class:`~repro.faults.RetryPolicy`
before quarantine.  Under a :class:`~repro.faults.FaultPlan` (explicit
or via ``REPRO_FAULTS``) the pipeline additionally injects transient
per-document faults and worker-process crashes — a dead shard's
documents are re-ingested serially in the parent, so the report stays
identical to the fault-free run.  All of it lands in the report's
:class:`~repro.faults.RobustnessStats`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.document import CmifDocument
from repro.core.errors import (CmifError, SchedulingConflict, StoreError,
                               TransportError)
from repro.corpus.generate import (make_deep_document, make_flat_document,
                                   make_random_document)
from repro.faults import (FaultInjected, FaultPlan, RetryPolicy,
                          RobustnessStats, resolve_faults, run_sharded)
from repro.format.parser import parse_document
from repro.format.writer import write_document
from repro.ledger import Ledger
from repro.pipeline.program import PlaybackProgram, ProgramCache, \
    compile_program
from repro.timing.schedule import (ENGINE_GRAPH, Schedule, ScheduleCache,
                                   schedule_document)
from repro.timing.solver import RELAX_DROP_LAST

#: Pipeline stages, in execution order (the report preserves this).
INGEST_STAGES = ("parse", "compile", "solve", "program")

#: Document shapes :func:`generate_corpus` cycles through.
CORPUS_SHAPES = ("flat", "deep", "random")

#: Failure categories (:func:`classify_failure`), deciding the recovery
#: policy: only ``infrastructure`` failures are worth retrying.
CATEGORY_PARSE_ERROR = "parse_error"
CATEGORY_SOLVE_CONFLICT = "solve_conflict"
CATEGORY_INFRASTRUCTURE = "infrastructure"
FAILURE_CATEGORIES = (CATEGORY_PARSE_ERROR, CATEGORY_SOLVE_CONFLICT,
                      CATEGORY_INFRASTRUCTURE)


def classify_failure(error: BaseException) -> str:
    """Which failure category an ingest exception belongs to.

    ``infrastructure`` — I/O, store, transport and injected faults:
    transient by nature, worth retrying.  ``solve_conflict`` — the
    document's constraint set is unsatisfiable: deterministic, never
    retried.  ``parse_error`` — everything else the pipeline rejects
    about the document itself: deterministic, never retried.
    """
    if isinstance(error, (FaultInjected, OSError, StoreError,
                          TransportError)):
        return CATEGORY_INFRASTRUCTURE
    if isinstance(error, SchedulingConflict):
        return CATEGORY_SOLVE_CONFLICT
    return CATEGORY_PARSE_ERROR


@dataclass
class IngestedDocument:
    """One successfully ingested document and its warmed artifacts."""

    path: Path
    document: CmifDocument
    schedule: Schedule
    program: PlaybackProgram | None

    @property
    def events(self) -> int:
        return len(self.schedule.events)


@dataclass
class IngestFailure:
    """One quarantined document: where it failed, and what kind of
    failure it was (:data:`FAILURE_CATEGORIES`)."""

    path: Path
    stage: str
    error: str
    category: str = CATEGORY_PARSE_ERROR
    #: True when the failure was an injected (simulated) fault — used
    #: by the recovery accounting, not part of the user-facing report.
    injected: bool = field(default=False, repr=False, compare=False)

    def __str__(self) -> str:
        return (f"{self.path.name} [{self.stage}/{self.category}]: "
                f"{self.error}")


@dataclass
class IngestReport(Ledger):
    """The outcome of one corpus ingest, stage accounting included.

    Shard reports of a ``workers=N`` ingest fold into the parent's by
    :meth:`~repro.ledger.Ledger.merge`: documents and failures append
    in shard order, stage counters add."""

    documents: list[IngestedDocument] = field(default_factory=list)
    failures: list[IngestFailure] = field(default_factory=list)
    stage_seconds: dict[str, float] = field(
        default_factory=lambda: {stage: 0.0 for stage in INGEST_STAGES})
    #: documents/events that *completed* each stage — failed documents
    #: still burn stage time, so rates divide completions by it rather
    #: than pretending only the survivors were processed.
    stage_documents: dict[str, int] = field(
        default_factory=lambda: {stage: 0 for stage in INGEST_STAGES})
    stage_events: dict[str, int] = field(
        default_factory=lambda: {stage: 0 for stage in INGEST_STAGES})
    wall_seconds: float = 0.0
    schedule_cache: ScheduleCache | None = None
    program_cache: ProgramCache | None = None
    #: Fault/recovery ledger: injected faults, retries, quarantines,
    #: worker-crash reshards.
    robustness: RobustnessStats = field(default_factory=RobustnessStats)

    @property
    def document_count(self) -> int:
        return len(self.documents)

    @property
    def total_events(self) -> int:
        return sum(entry.events for entry in self.documents)

    def stage_throughput(self, stage: str) -> tuple[float, float]:
        """``(documents/s, events/s)`` for one stage (0.0 when unused)."""
        seconds = self.stage_seconds.get(stage, 0.0)
        if seconds <= 0.0:
            return 0.0, 0.0
        return (self.stage_documents.get(stage, 0) / seconds,
                self.stage_events.get(stage, 0) / seconds)

    def describe(self) -> str:
        """The human report the ``ingest`` CLI subcommand prints."""
        attempted = self.document_count + len(self.failures)
        lines = [f"ingested {self.document_count}/{attempted} document(s), "
                 f"{self.total_events} event(s)"]
        for stage in INGEST_STAGES:
            seconds = self.stage_seconds[stage]
            if seconds <= 0.0:
                lines.append(f"  {stage:<8} skipped")
                continue
            docs_per_s, events_per_s = self.stage_throughput(stage)
            lines.append(f"  {stage:<8} {seconds * 1000:8.1f}ms  "
                         f"{docs_per_s:8.1f} doc/s  "
                         f"{events_per_s:10.0f} events/s")
        if self.wall_seconds > 0.0:
            lines.append(f"  {'total':<8} {self.wall_seconds * 1000:8.1f}ms  "
                         f"{self.document_count / self.wall_seconds:8.1f} "
                         f"doc/s  "
                         f"{self.total_events / self.wall_seconds:10.0f} "
                         f"events/s")
        if self.schedule_cache is not None:
            lines.append(f"  {self.schedule_cache.describe()}")
        if self.program_cache is not None:
            lines.append(f"  {self.program_cache.describe()}")
        if not self.robustness.empty:
            for line in self.robustness.describe().splitlines():
                lines.append(f"  {line}")
        for failure in self.failures:
            lines.append(f"  FAILED {failure}")
        return "\n".join(lines)


def corpus_paths(directory: Path | str,
                 pattern: str = "*.cmif") -> list[Path]:
    """The corpus files under ``directory``, in deterministic name order."""
    return sorted(Path(directory).glob(pattern))


def ingest_corpus(source: Path | str | Sequence[Path], *,
                  relaxation_policy: str = RELAX_DROP_LAST,
                  compile_programs: bool = True,
                  schedule_cache: ScheduleCache | None = None,
                  program_cache: ProgramCache | None = None,
                  kernel=None,
                  workers: int = 1,
                  faults: FaultPlan | str | None = None,
                  retry: RetryPolicy | None = None) -> IngestReport:
    """Stream a corpus through parse → compile → solve → program.

    ``source`` is a directory (its ``*.cmif`` files) or an explicit
    sequence of file paths.  Caches are created to fit the corpus when
    not supplied, so every ingested document's schedule and program stay
    resident for the serving path; pass existing caches to warm those
    instead.

    ``kernel`` is accepted and ignored: the cold solve has a single
    scalar implementation, and callers that name a replay kernel
    everywhere may still pass it here.

    ``workers`` > 1 shards the corpus into contiguous path chunks
    across a process pool — documents are embarrassingly parallel —
    and merges the shard reports in path order, then re-warms the
    parent's caches from the shipped artifacts, so the report (and the
    cache contents) are identical to a ``workers=1`` run except for
    the ``*_seconds`` timings.

    ``faults`` activates deterministic fault injection (a
    :class:`~repro.faults.FaultPlan`, a spec string, or the
    ``REPRO_FAULTS`` environment default); ``retry`` bounds how often
    an ``infrastructure`` failure is retried before the document is
    quarantined — permanent failures (``parse_error``,
    ``solve_conflict``) are never retried.  A worker whose crash the
    plan injects takes its shard down with it; the parent re-ingests
    that shard serially, so the merged report matches the fault-free
    run.
    """
    if workers < 1:
        raise CmifError(f"ingest workers must be at least 1, "
                        f"got {workers}")
    faults = resolve_faults(faults)
    if retry is None:
        retry = RetryPolicy()
    if isinstance(source, (str, Path)):
        paths = corpus_paths(source)
    else:
        paths = list(source)
    if schedule_cache is None:
        schedule_cache = ScheduleCache(capacity=max(len(paths), 1))
    if program_cache is None and compile_programs:
        program_cache = ProgramCache(capacity=max(len(paths), 1))
    report = IngestReport(schedule_cache=schedule_cache,
                          program_cache=program_cache)
    wall_start = time.perf_counter()
    shards = None
    if workers > 1 and len(paths) > 1:
        shards = run_sharded(
            paths, workers,
            functools.partial(_ingest_chunk,
                              relaxation_policy=relaxation_policy,
                              compile_programs=compile_programs,
                              faults=faults, retry=retry),
            faults=faults, ledger=report.robustness)
    if shards is None:
        stage_seconds = report.stage_seconds
        for path in paths:
            entry = _ingest_document(path, report, stage_seconds,
                                     relaxation_policy, compile_programs,
                                     schedule_cache, program_cache,
                                     faults, retry)
            if entry is not None:
                report.documents.append(entry)
    else:
        for shard in shards:
            report.merge(shard)
        # Re-warm this process's caches from the shipped artifacts, so
        # shard boundaries never show in cache contents.
        for entry in report.documents:
            schedule_cache.put(entry.document, entry.schedule,
                               relaxation_policy=relaxation_policy)
            if program_cache is not None and entry.program is not None:
                program_cache.put(entry.schedule, entry.program)
    report.wall_seconds = time.perf_counter() - wall_start
    return report


def _ingest_chunk(chunk: list[Path], **options) -> IngestReport:
    """Ingest one contiguous path chunk into a shippable shard report
    (its private caches stay behind: the parent re-warms its own)."""
    shard = ingest_corpus(chunk, workers=1, **options)
    shard.schedule_cache = None
    shard.program_cache = None
    return shard


def _ingest_document(path: Path, report: IngestReport,
                     stage_seconds: dict[str, float], relaxation_policy: str,
                     compile_programs: bool, schedule_cache: ScheduleCache,
                     program_cache: ProgramCache | None,
                     faults: FaultPlan | None,
                     retry: RetryPolicy) -> IngestedDocument | None:
    """One document through the pipeline, with the recovery policy.

    ``infrastructure`` failures are retried up to the policy's attempt
    budget; permanent failures (and exhausted retries) quarantine the
    document — it is recorded in ``report.failures`` and the stream
    moves on.  Returns the ingested document, or None on quarantine.
    """
    robust = report.robustness
    attempt = 0
    while True:
        outcome = _ingest_one(path, report, stage_seconds,
                              relaxation_policy, compile_programs,
                              schedule_cache, program_cache,
                              faults=faults, attempt=attempt)
        if not isinstance(outcome, IngestFailure):
            return outcome
        attempt += 1
        if (outcome.category == CATEGORY_INFRASTRUCTURE
                and not retry.gives_up(attempt, 0.0)):
            if attempt == 1:
                robust.retried_documents += 1
            robust.retries += 1
            if outcome.injected:
                robust.recovered += 1   # the retry masks this fault
            continue
        # Permanent failure, or the retry budget ran out: quarantine.
        robust.quarantined += 1
        if outcome.injected:
            robust.unrecovered += 1
        report.failures.append(outcome)
        return None


def _ingest_one(path: Path, report: IngestReport,
                stage_seconds: dict[str, float], relaxation_policy: str,
                compile_programs: bool, schedule_cache: ScheduleCache,
                program_cache: ProgramCache | None,
                faults: FaultPlan | None = None,
                attempt: int = 0) -> IngestedDocument | IngestFailure:
    """One attempt at one document; the failure on error (not recorded
    here — the caller's retry policy decides its fate)."""
    stage_documents = report.stage_documents
    stage_events = report.stage_events
    stage = "parse"
    start = time.perf_counter()
    injected = False
    try:
        if faults is not None and faults.fires(
                faults.ingest_failure_rate, "ingest", path.name, attempt):
            report.robustness.record_fault("ingest")
            injected = True
            raise FaultInjected(
                "ingest", path.name,
                f"transient ingest fault on {path.name} "
                f"(attempt {attempt})")
        text = path.read_text(encoding="utf-8")
        document = parse_document(text)
        stage_seconds["parse"] += time.perf_counter() - start
        stage_documents["parse"] += 1

        stage = "compile"
        start = time.perf_counter()
        compiled = document.compile()
        stage_seconds["compile"] += time.perf_counter() - start
        stage_documents["compile"] += 1
        # The event count exists from here on; credit the parse stage
        # retroactively so both front-door stages report events/s.
        stage_events["parse"] += len(compiled.events)
        stage_events["compile"] += len(compiled.events)

        stage = "solve"
        start = time.perf_counter()
        schedule = schedule_document(
            compiled, relaxation_policy=relaxation_policy,
            cache=schedule_cache, engine=ENGINE_GRAPH)
        stage_seconds["solve"] += time.perf_counter() - start
        stage_documents["solve"] += 1
        stage_events["solve"] += len(schedule.events)

        program = None
        if compile_programs:
            stage = "program"
            start = time.perf_counter()
            program = compile_program(schedule, cache=program_cache)
            stage_seconds["program"] += time.perf_counter() - start
            stage_documents["program"] += 1
            stage_events["program"] += len(schedule.events)
    except (CmifError, OSError) as error:
        # The failed attempt still burned this stage's time; without it
        # the per-stage report would show a fast stage even when failing
        # documents dominate the wall clock.
        stage_seconds[stage] += time.perf_counter() - start
        return IngestFailure(path, stage, str(error),
                             category=classify_failure(error),
                             injected=injected)
    return IngestedDocument(path=path, document=document,
                            schedule=schedule, program=program)


def generate_corpus(directory: Path | str, *, documents: int = 9,
                    events: int = 120, seed: int = 1991,
                    shapes: Iterable[str] = CORPUS_SHAPES) -> list[Path]:
    """Write a synthetic CMIF corpus into ``directory``.

    Cycles the generator shapes of :mod:`repro.corpus.generate` so the
    corpus mixes wide, deep and random-arc documents; each file is the
    text form :func:`ingest_corpus` reads back.  Returns the written
    paths in ingest order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    shape_cycle = list(shapes)
    if not shape_cycle:
        raise CmifError("generate_corpus needs at least one shape")
    written: list[Path] = []
    for index in range(documents):
        shape = shape_cycle[index % len(shape_cycle)]
        if shape == "flat":
            document = make_flat_document(events)
        elif shape == "deep":
            document = make_deep_document(max(4, events // 8))
        elif shape == "random":
            document = make_random_document(seed + index, events=events)
        else:
            raise CmifError(f"unknown corpus shape {shape!r}; expected "
                            f"one of {CORPUS_SHAPES}")
        path = directory / f"{index:03d}-{shape}.cmif"
        path.write_text(write_document(document), encoding="utf-8")
        written.append(path)
    return written
