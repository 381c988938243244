"""The benchmark's four workloads, each driven from one thread.

A workload is built in :meth:`Workload.setup` (the untimed phase:
inputs generated from the seed, caches warmed), driven through the
public ``repro`` APIs in :meth:`Workload.run` for the timed phase, and
checked against the interpretive reference in :meth:`Workload.verify`.
Each names the kernel and the fault plan it runs under explicitly, so
``REPRO_KERNEL``/``REPRO_FAULTS`` in the environment cannot change what
is measured.

Why these four: each layer does most of its work in one of them and
little in another, so every optimisation has a workload that exercises
it and one that predicts no change.

* ``cold-catalog`` — a catalog comes online: text ingest plus cold
  package opens admitted on the three era profiles.  Parse, solve,
  requirements and adaptation are paid here and nowhere else.
* ``hot-fleet`` — warm documents serving a zipf stream of readers in
  closed-loop waves; the compiled replay loop and admission.
* ``live-edit`` — an author's edits land at quantum boundaries inside
  the readers' drives; patch or recompile, then the replays after it.
* ``federated-zipf`` — readers pull payloads across a four-site star
  under a fault plan with hot-set placement; the only working set that
  exceeds the engine's 128-entry caches.
"""

from __future__ import annotations

import dataclasses
import random
import shutil
from pathlib import Path

from repro.core import edit as core_edit
from repro.core.errors import CmifError
from repro.core.nodes import NodeKind
from repro.core.paths import node_path, resolve_path
from repro.core.syncarc import ConditionalArc
from repro.core.tree import iter_preorder
from repro.corpus import ingest as corpus_ingest
from repro.corpus.generate import make_media_document
from repro.corpus.workload import WorkloadSpec, build_workload, zipf_weights
from repro.faults import STANDARD_PLAN_SPEC, RobustnessStats, \
    parse_fault_plan
from repro.format.parser import parse_document
from repro.pipeline.program import compile_program
from repro.serving import SessionEngine
from repro.serving.runqueue import BLOCKED_ON_CHOICE, BatchTask
from repro.serving.session import Session
from repro.timing.schedule import ENGINE_REFERENCE, schedule_document
from repro.transport import package as transport_package
from repro.transport.environments import (PERSONAL_SYSTEM, PROFILES,
                                          WORKSTATION)

from cmifbench.checks import (ReferenceCache, apply_to_twin,
                              check_ledgers, check_pyramid,
                              check_replays, check_verdicts)
from cmifbench.measure import Digest, Phase, clock

#: The clean workloads run with faults explicitly off.
FAULTS_OFF = "off"

#: The federated workload's plan: the repo's standard chaos plan with
#: compiled-replay failures off (a degraded replay after a live edit
#: replays a stale schedule, see the expected-failure test) and without
#: the flapping site, whose outage windows outlast the retry budget and
#: fail payload reads outright; block failures, corrupt deliveries,
#: summary failures and degraded solves all stay on.
FEDERATED_FAULTS = ",".join(
    part for part in STANDARD_PLAN_SPEC.split(",")
    if not part.startswith(("flap=", "period=", "replay="))) + ",replay=0"

#: Seed of the federated workload's document catalog.
CATALOG_SEED = 1991


def rich_document(index: int) -> bool:
    """Three rich documents (all four media: filtered on modest
    systems, refused by audio-less terminals) to one lean one, by
    position, so a seed changes the documents but not the mix."""
    return index % 4 != 3


class Workload:
    """Common state: counters, the digest and the verification sample."""

    name = ""
    #: Operations the digest covers; the phase always completes them.
    digest_ops = 0
    #: Share of timed-phase sessions whose outputs the run checks, and
    #: the most it keeps.
    sample_rate = 0.05
    sample_cap = 24

    #: Operations every full-size run completes however slow the
    #: machine, so the latency tail has at least ten samples beyond it.
    floor_ops = 0

    def __init__(self, seed: int, *, kernel: str, tiny: bool = False,
                 workdir: Path | None = None) -> None:
        self.seed = seed
        self.kernel = kernel
        self.tiny = tiny
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.digest = Digest()
        #: Workload-specific end-to-end figures, by the names the
        #: benchmark's documentation uses.
        self.detail: dict[str, float] = {}
        self.engine: SessionEngine | None = None
        #: Recorded (session, replay, play kwargs, report, revision).
        self.recorded: list = []
        #: Sampled (session, document revision at admission).
        self.admitted_sample: list = []
        self.sampling = False
        if tiny:
            # A tiny run has few sessions; check half of them.
            self.sample_rate = max(self.sample_rate, 0.5)
        self._sampler = random.Random(seed * 31 + 7)
        self.queue_steps = 0
        self.blocked_steps = 0

    @property
    def min_ops(self) -> int:
        return self.digest_ops if self.tiny \
            else max(self.digest_ops, self.floor_ops)

    @property
    def fault_plan(self) -> str:
        return FAULTS_OFF

    # -- the phases ------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, phase: Phase) -> None:
        raise NotImplementedError

    def verify(self) -> list[str]:
        raise NotImplementedError

    def close(self) -> None:
        """Release anything set-up wrote outside memory."""

    # -- counters the per-layer metrics take deltas of -------------------

    def caches(self) -> dict[str, list]:
        """Cache objects by kind: schedule, requirements, program."""
        engine = self.engine
        return {"schedule": [engine.schedule_cache],
                "requirements": [engine.requirements_cache],
                "program": [engine.program_cache]}

    def ledgers(self) -> dict[str, RobustnessStats]:
        return {"engine": self.engine.robustness}

    def counters(self) -> dict[str, float]:
        """Absolute counter values; per-layer metrics are deltas."""
        values: dict[str, float] = {
            "events_played": sum(stats.events_played
                                 for stats in self.engine.stats.values()),
            "queue_steps": self.queue_steps,
            "blocked_steps": self.blocked_steps,
        }
        for kind, caches in self.caches().items():
            values[f"{kind}_hits"] = sum(cache.hits for cache in caches)
            values[f"{kind}_misses"] = sum(cache.misses
                                           for cache in caches)
        merged = RobustnessStats()
        for ledger in self.ledgers().values():
            merged.merge(ledger)
        values.update(faults_injected=merged.total_faults,
                      faults_retries=merged.retries,
                      faults_unrecovered=merged.unrecovered,
                      faults_breaker_opens=merged.breaker_opens,
                      faults_backoff_ms=merged.backoff_ms)
        return values

    # -- sampling for the reference checks --------------------------------

    def _sample(self, session: Session) -> None:
        """Seeded choice of timed-phase sessions the run verifies."""
        if not self.sampling \
                or len(self.admitted_sample) >= self.sample_cap \
                or self._sampler.random() >= self.sample_rate:
            return
        self.admitted_sample.append((session, session.document.revision))
        if session.admitted:
            self._record_replays(session)

    def _record_replays(self, session: Session) -> None:
        recorded = self.recorded

        def play(**kwargs):
            replay = session.replays_run
            # Looked up per call, so a traced run records this span too.
            report = Session.play(session, **kwargs)
            recorded.append((session, replay, kwargs, report,
                             session.document.revision))
            return report
        session.play = play

    def _common_checks(self) -> list[str]:
        return (check_replays(self.recorded, ReferenceCache())
                + check_verdicts(self.admitted_sample)
                + check_ledgers(self.ledgers()))


# -- serving waves ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Request:
    """One reader: which document, on which environment, how."""

    document: int
    environment: object
    interactive: bool
    replays: int
    origin: str | None = None


def reader_requests(count: int, serial: int, rng: random.Random, weights,
                    environments) -> list[Request]:
    """``count`` readers from ``serial`` on: zipf-weighted documents,
    seeded environments, three batch readers (2-4 replays) to one
    interactive reader who follows up to two links."""
    requests = []
    for index in range(serial, serial + count):
        document = rng.choices(range(len(weights)), weights=weights)[0]
        requests.append(Request(
            document=document,
            environment=environments[rng.randrange(len(environments))],
            interactive=index % 4 == 3, replays=2 + index % 3))
    return requests


class ServingWorkload(Workload):
    """Closed-loop waves of readers over one :class:`SessionEngine`:
    a wave is admitted, then driven to completion."""

    #: Readers per wave (the closed loop's concurrency).
    wave = 32
    documents: list
    #: document index -> federation stream ids (federated only).
    catalog: dict | None = None

    def _admit(self, request: Request):
        engine = self.engine
        document = self.documents[request.document]
        extra = {}
        if request.origin is not None:
            extra = {"origin": request.origin,
                     "stream_ids": self.catalog[request.document]}
        if request.interactive:
            item = engine.admit_interactive(document, request.environment,
                                            follows=2, **extra)
            return item, item.session
        session = engine.admit(document, request.environment, **extra)
        return BatchTask(session, request.replays), session

    def _wave(self, requests, *, edits=None):
        """Admit and drive one wave.  Returns the wave's entries
        ``(start, item, session, request)`` and the admitted sessions'
        latencies in ms (admission start to the end of the drive)."""
        self.attempted += len(requests)
        entries = []
        try:
            for request in requests:
                start = clock()
                item, session = self._admit(request)
                self._sample(session)
                entries.append((start, item, session, request))
            #: What a live edit inside this drive must resync.
            self.live_items = [item for _, item, _, _ in entries]
            self.engine.drive(self.live_items, edits=edits)
        except CmifError:
            self.failed += len(requests)
            return [], []
        end = clock()
        queue = self.engine.last_queue
        self.queue_steps += queue.steps
        self.blocked_steps += sum(1 for _, state in queue.log
                                  if state == BLOCKED_ON_CHOICE)
        latencies = [(end - start) * 1000.0
                     for start, _, session, _ in entries
                     if session.admitted]
        return entries, latencies

    def _digest_wave(self, entries) -> None:
        for _, _, session, request in entries:
            self.digest.add(request.document, request.environment.name,
                            request.interactive, session.verdict,
                            session.replays_run, session.events_played,
                            session.navigations, session.bytes_streamed)

    def _warm(self, environments) -> None:
        """Admit every (document, environment) pair once, batch and
        interactive, and drive it: the set-up's cache warm-up."""
        self._wave([Request(index, environment, interactive, 1)
                    for index in range(len(self.documents))
                    for environment in environments
                    for interactive in (False, True)])
        self.attempted = self.failed = 0
        self.queue_steps = self.blocked_steps = 0


class HotFleet(ServingWorkload):
    """A warm catalog serving a zipf stream of readers, no federation,
    no edits, no faults; every (document, profile) player fits the
    engine's caches."""

    name = "hot-fleet"
    digest_ops = 256
    floor_ops = 1024

    def setup(self) -> None:
        size = (dict(documents=4, events=40, links=3, wave=8) if self.tiny
                else dict(documents=24, events=200, links=6, wave=32))
        self.wave = size["wave"]
        rng = random.Random(self.seed)
        self.documents = [make_media_document(rng.randrange(1 << 30),
                                              events=size["events"],
                                              links=size["links"],
                                              rich=rich_document(index))
                          for index in range(size["documents"])]
        self.engine = SessionEngine(seed=self.seed, kernel=self.kernel,
                                    faults=FAULTS_OFF)
        self._warm(PROFILES)
        self._weights = zipf_weights(len(self.documents), 1.1)
        self._stream = random.Random(self.seed + 1)

    def run(self, phase: Phase) -> None:
        while phase.running():
            start = clock()
            requests = reader_requests(self.wave, phase.ops, self._stream,
                                       self._weights, PROFILES)
            entries, latencies = self._wave(requests)
            phase.add(len(latencies), clock() - start)
            phase.record(latencies)
            if phase.ops < self.digest_ops:
                self._digest_wave(entries)
            phase.ops += len(requests)

    def verify(self) -> list[str]:
        return self._common_checks()


def strip_bounded_arcs(document) -> None:
    """Drop bounded (may) arcs so no live edit can conflict: a solve
    that relaxes one refuses incremental re-solves for good."""
    for node in list(iter_preorder(document.root)):
        arcs = node.arcs
        for index in reversed(range(len(arcs))):
            arc = arcs[index]
            if arc.max_delay is not None \
                    and not isinstance(arc, ConditionalArc):
                core_edit.remove_arc(document, node_path(node), index)


def edit_environments() -> list:
    """Environment compositions a live edit must patch: the two
    media-capable profiles plus four capability variants."""
    return [WORKSTATION, PERSONAL_SYSTEM,
            dataclasses.replace(WORKSTATION, name="wk-jittery",
                                jitter_ms=6.0),
            dataclasses.replace(WORKSTATION, name="wk-mono",
                                audio_channels=1),
            dataclasses.replace(WORKSTATION, name="wk-dim", color_depth=8),
            dataclasses.replace(PERSONAL_SYSTEM, name="ps-crisp",
                                jitter_ms=1.0)]


#: Per-document edit cycle: small retimes of seq leaves (patched in
#: place), retimes in par sections that move a leaf's end past its
#: co-starting neighbour's (the changed canonical order takes the
#: recompile fallback), and forward unbounded must arcs that are added
#: and later removed.  A fixed cycle keeps the mix the same across
#: seeds, and the mix is chosen so each reported percentile falls
#: inside one tight cluster: arc edits (two thirds, a near-constant
#: O(nodes + arcs) patch) hold the median, recompiles (two ninths, tens
#: of milliseconds) hold the p90, with the seq retimes in between.
EDIT_CYCLE = ("add_arc", "retime-par", "remove_arc", "add_arc",
              "retime-seq", "remove_arc", "add_arc", "retime-par",
              "remove_arc")


class LiveEdit(ServingWorkload):
    """Live edits on a few hot documents, each landing inside a wave of
    readers of the edited document."""

    name = "live-edit"
    digest_ops = 24
    floor_ops = 100
    #: Sessions of a document are checked only if no edit followed
    #: their replays, so sample densely and drop what an edit staled.
    sample_rate = 0.25
    sample_cap = 1 << 30

    def setup(self) -> None:
        # A dozen documents average out the per-seed document shapes
        # that set how many events an edit moves.
        size = (dict(documents=2, events=40, links=3, wave=6) if self.tiny
                else dict(documents=12, events=200, links=6, wave=8))
        self.wave = size["wave"]
        rng = random.Random(self.seed)
        seeds = [rng.randrange(1 << 30) for _ in range(size["documents"])]

        def build(doc_seed: int):
            document = make_media_document(doc_seed, events=size["events"],
                                           links=size["links"], rich=True)
            strip_bounded_arcs(document)
            return document
        self.documents = [build(doc_seed) for doc_seed in seeds]
        self.twins = [build(doc_seed) for doc_seed in seeds]
        self.environments = edit_environments()
        self.engine = SessionEngine(seed=self.seed, kernel=self.kernel,
                                    faults=FAULTS_OFF)
        self._warm(self.environments)
        self._stream = random.Random(self.seed + 1)
        self._cycle_position = [0] * len(self.documents)
        self.specs: list[list[dict]] = [[] for _ in self.documents]
        self.edit_records: list = []
        self.session_ms: list[float] = []

    def _edit_spec(self, index: int) -> dict:
        """The next edit of document ``index``'s cycle, drawn from its
        current schedule."""
        rng = self._stream
        document = self.documents[index]
        kind = EDIT_CYCLE[self._cycle_position[index] % len(EDIT_CYCLE)]
        self._cycle_position[index] += 1
        events = self.engine.editor_for(document).schedule.ordered_events()

        def parent_is(event, wanted: NodeKind) -> bool:
            return resolve_path(document.root, event.event.node_path) \
                .parent.kind is wanted

        if kind == "add_arc":
            # An arc the schedule already satisfies: it moves no event,
            # so every arc edit costs the same re-lowering of the arc
            # tables and the schedule shifts come from the retimes.
            first = rng.randrange(len(events) - 1)
            source = events[first]
            later = [event for event in events[first + 1:]
                     if event.begin_ms >= source.end_ms + 10.0] \
                or list(events[first + 1:])
            return {"op": "add_arc", "owner": "/",
                    "source": source.event.node_path,
                    "destination":
                        later[rng.randrange(len(later))].event.node_path,
                    "src_anchor": "end", "dst_anchor": "begin",
                    "strictness": "must", "offset_ms": 10.0,
                    "max_delay_ms": None}
        if kind == "remove_arc":
            return {"op": "remove_arc", "owner": "/",
                    "index": len(document.root.arcs) - 1}
        if kind == "retime-par":
            # Adjacent co-starting par leaves: swap their end order.
            pairs = [(first, second)
                     for first, second in zip(events, events[1:])
                     if first.begin_ms == second.begin_ms
                     and parent_is(first, NodeKind.PAR)]
            if pairs:
                first, second = pairs[rng.randrange(len(pairs))]
                if rng.random() < 0.5 or first.duration_ms < 250.0:
                    # Lengthen the first past the second's end ...
                    target = first
                    duration = second.end_ms - first.begin_ms + 50.0
                else:
                    # ... or shorten the second to end before the first.
                    target, duration = second, first.duration_ms - 50.0
                return {"op": "retime", "path": target.event.node_path,
                        "duration_ms": round(duration, 3)}
        leaves = [event for event in events
                  if parent_is(event, NodeKind.SEQ)] or list(events)
        event = leaves[rng.randrange(len(leaves))]
        return {"op": "retime", "path": event.event.node_path,
                "duration_ms": round(event.duration_ms
                                     * (1.0 + rng.uniform(-0.02, 0.02)),
                                     3)}

    def run(self, phase: Phase) -> None:
        engine = self.engine
        while phase.running():
            start = clock()
            index = phase.ops % len(self.documents)
            document = self.documents[index]
            self._forget_stale(document)
            spec = self._edit_spec(index)
            # Every reader of the wave reads the edited document.
            requests = [dataclasses.replace(request, document=index)
                        for request in reader_requests(
                            self.wave, phase.ops * self.wave, self._stream,
                            [1.0], self.environments)]
            edit_ms: list[float] = []

            def apply_edit() -> None:
                began = clock()
                self.attempted += 1
                try:
                    record = engine.apply_edit(document, spec,
                                               sessions=self.live_items)
                except CmifError:
                    self.failed += 1
                    return
                edit_ms.append((clock() - began) * 1000.0)
                self.edit_records.append(record)
                self.specs[index].append(spec)
                if phase.ops < self.digest_ops:
                    self.digest.add(record.op, record.subject, record.mode,
                                    record.events_touched)

            # The edit lands halfway through the drive's first round.
            entries, latencies = self._wave(
                requests, edits=[(len(requests) // 2, apply_edit)])
            self.session_ms.extend(latencies)
            phase.add(len(latencies), clock() - start)
            phase.record(edit_ms)
            if phase.ops < self.digest_ops:
                self._digest_wave(entries)
            phase.ops += 1

    def _forget_stale(self, document) -> None:
        """Drop checks of ``document`` that its next edit will stale."""
        self.recorded = [entry for entry in self.recorded
                         if entry[0].document is not document]
        self.admitted_sample = [entry for entry in self.admitted_sample
                                if entry[0].document is not document]

    def ledgers(self) -> dict[str, RobustnessStats]:
        ledgers = super().ledgers()
        for document in self.documents:
            ledgers[f"editor {document.root.name}"] = \
                self.engine.editor_for(document).stats.robustness
        return ledgers

    def verify(self) -> list[str]:
        # Readers admitted before their wave's edit carry a stale
        # revision; check admission of each final revision instead.
        self.admitted_sample = [
            (self.engine.admit(document, environment), document.revision)
            for document in self.documents
            for environment in self.environments]
        problems = self._common_checks()
        for document, twin, specs in zip(self.documents, self.twins,
                                         self.specs):
            for spec in specs:
                apply_to_twin(twin, spec)
            problems.extend(check_pyramid(self.engine, document, twin,
                                          self.environments,
                                          kernel=self.kernel))
        return problems


class ColdCatalog(Workload):
    """A new catalog comes online: text ingest interleaved with cold
    package opens admitted on all three era profiles.

    Each cycle ingests one batch with its own caches and admits its
    packages on a fresh engine, and the run keeps only what it checks,
    so the heap (and with it the collector's cost) stays flat instead
    of growing with every cold document the run has seen.
    """

    name = "cold-catalog"
    digest_ops = 4
    #: Cycles of one ingest batch and six package opens: 102 opens.
    floor_ops = 17
    sample_cap = 6
    #: Ingested documents kept for the reference check.
    ingest_checks = 2

    def setup(self) -> None:
        size = (dict(corpus=3, corpus_events=40, packages=3,
                     package_events=(20, 40), opens=2) if self.tiny
                else dict(corpus=9, corpus_events=400, packages=16,
                          package_events=(150, 300), opens=6))
        self.opens_per_cycle = size["opens"]
        rng = random.Random(self.seed)
        self._corpus_dir = self.workdir / "corpus"
        if self._corpus_dir.exists():
            shutil.rmtree(self._corpus_dir)
        self.corpus = corpus_ingest.generate_corpus(
            self._corpus_dir, documents=size["corpus"],
            events=size["corpus_events"], seed=rng.randrange(1 << 30))
        low, high = size["package_events"]
        count = size["packages"]
        self.packages = [
            transport_package.pack(make_media_document(
                rng.randrange(1 << 30),
                events=low + (high - low) * index // count, links=4,
                rich=rich_document(index)))
            for index in range(count)]
        # Every package is opened equally often, in a seeded order.
        self._open_order = list(range(count))
        rng.shuffle(self._open_order)
        self._opens = 0
        #: Cache and ledger totals of retired engines and ingest runs.
        self.retired: dict[str, float] = {}
        self.robustness = RobustnessStats()
        self.ingested = 0
        self.ingest_sample: list = []
        self._new_engine()
        # Warm the code paths, not the caches: every open is cold.
        self._ingest(self.corpus[:3])
        self._open(self.packages[0])
        self._new_engine()
        self.retired.clear()
        self.robustness = RobustnessStats()
        self.ingested = self.attempted = self.failed = 0

    def _retire(self, caches: dict[str, list]) -> None:
        for kind, objects in caches.items():
            for cache in objects:
                for field in ("hits", "misses"):
                    key = f"{kind}_{field}"
                    self.retired[key] = self.retired.get(key, 0) \
                        + getattr(cache, field)

    def _new_engine(self) -> None:
        if self.engine is not None:
            self._retire(self.caches())
            self.robustness.merge(self.engine.robustness)
        self.engine = SessionEngine(seed=self.seed, kernel=self.kernel,
                                    faults=FAULTS_OFF)

    def _ingest(self, paths):
        report = corpus_ingest.ingest_corpus(
            paths, kernel=self.kernel, workers=1, faults=FAULTS_OFF)
        self._retire({"schedule": [report.schedule_cache],
                      "program": [report.program_cache]})
        self.robustness.merge(report.robustness)
        self.attempted += len(paths)
        self.failed += len(report.failures)
        self.ingested += len(report.documents)
        if self.sampling and len(self.ingest_sample) < self.ingest_checks \
                and self._sampler.random() < 0.25:
            self.ingest_sample.extend(report.documents[:1])
        return report

    def _open(self, text: str):
        """Unpack one package and admit it on every era profile."""
        self.attempted += 1
        try:
            result = transport_package.unpack(text, faults=FAULTS_OFF)
            self.robustness.merge(result.robustness)
            return [self.engine.admit(result.document, environment)
                    for environment in PROFILES]
        except CmifError:
            self.failed += 1
            return None

    def run(self, phase: Phase) -> None:
        corpus = self.corpus
        while phase.running():
            cycle = phase.ops
            self._new_engine()
            batch = [corpus[(3 * cycle + offset) % len(corpus)]
                     for offset in range(3)]
            start = clock()
            report = self._ingest(batch)
            phase.add(report.total_events, clock() - start)
            if cycle < self.digest_ops:
                for entry in report.documents:
                    self.digest.add(entry.path.name, entry.events,
                                    entry.schedule.total_duration_ms)
            for _ in range(self.opens_per_cycle):
                order = self._open_order
                text = self.packages[order[self._opens % len(order)]]
                self._opens += 1
                start = clock()
                sessions = self._open(text)
                if sessions is None:
                    continue
                phase.record([(clock() - start) * 1000.0])
                for session in sessions:
                    self._sample(session)
                if cycle < self.digest_ops:
                    schedule = sessions[0].schedule
                    self.digest.add(
                        [session.verdict for session in sessions],
                        None if schedule is None else
                        (len(schedule.events), schedule.total_duration_ms))
            phase.ops += 1

    def ledgers(self) -> dict[str, RobustnessStats]:
        ledgers = super().ledgers()
        ledgers["retired engines, ingest and unpack"] = self.robustness
        return ledgers

    def counters(self) -> dict[str, float]:
        values = super().counters()
        for key, count in self.retired.items():
            values[key] += count
        values["documents_ingested"] = self.ingested
        return values

    def verify(self) -> list[str]:
        # Cold opens never replay in the timed phase: play each sampled
        # session once, compiled, and check that against the reference.
        for session, revision in self.admitted_sample:
            if session.admitted:
                report = session.player.run_one(
                    environment=session.environment,
                    rng=session.rng_for(0))
                self.recorded.append((session, 0, {}, report, revision))
        problems = self._common_checks()
        for entry in self.ingest_sample:
            document = parse_document(entry.path.read_text("utf-8"))
            reference = schedule_document(document.compile(),
                                          engine=ENGINE_REFERENCE)
            if reference.times_ms != entry.schedule.times_ms:
                problems.append(f"ingested {entry.path.name}: schedule "
                                f"differs from the reference solve")
            elif list(compile_program(reference).begin_ms) \
                    != list(entry.program.begin_ms):
                problems.append(f"ingested {entry.path.name}: program "
                                f"differs from a reference compile")
        return problems

    def close(self) -> None:
        if self._corpus_dir.exists():
            shutil.rmtree(self._corpus_dir)


class FederatedZipf(ServingWorkload):
    """Readers pulling payloads across a four-site star under faults,
    with hot-set replication applied between waves."""

    name = "federated-zipf"
    digest_ops = 256
    floor_ops = 1024
    #: Sessions whose simulated network cost is reported; a fixed
    #: count keeps those figures exact per seed.
    net_sessions = 1024

    @property
    def fault_plan(self) -> str:
        return FEDERATED_FAULTS

    def setup(self) -> None:
        size = (dict(documents=12, events=8, links=1, wave=8, rebalance=16,
                     requests=256) if self.tiny
                else dict(documents=160, events=24, links=2, wave=32,
                          rebalance=256, requests=4096))
        self.wave = size["wave"]
        self.rebalance_every = size["rebalance"]
        self.net_sessions = 4 * size["wave"] if self.tiny else 1024
        # The catalog is the same for every seed: under a zipf law the
        # head document's payload volume alone would swing the figures
        # by a tenth from seed to seed.  The seed draws everything else:
        # where each document was authored and is read from, the reader
        # stream, and the jitter.
        rng = random.Random(CATALOG_SEED)
        documents = [make_media_document(rng.randrange(1 << 30),
                                         events=size["events"],
                                         links=size["links"],
                                         rich=rich_document(index))
                     for index in range(size["documents"])]
        plan = parse_fault_plan(FEDERATED_FAULTS)
        self.workload = build_workload(
            WorkloadSpec(sites=4, topology="star",
                         documents=size["documents"],
                         events=size["events"],
                         sessions=size["requests"], zipf_s=1.1,
                         locality=0.75, seed=self.seed),
            documents, faults=plan)
        self.documents = self.workload.documents
        self.catalog = self.workload.catalog
        self.federation = self.workload.federation
        self.engine = SessionEngine(seed=self.seed, kernel=self.kernel,
                                    faults=plan,
                                    federation=self.federation)
        self._stream = random.Random(self.seed + 1)
        self._served = 0
        self._since_rebalance = 0
        #: (document index, replays, bytes streamed) per session.
        self.streamed: list[tuple[int, int, int]] = []
        # Warm-up: one wave from the head of the request stream.
        self._federated_wave(self.wave)
        self.attempted = self.failed = 0
        self.queue_steps = self.blocked_steps = 0
        self.streamed.clear()

    def _federated_wave(self, count: int):
        pool = self.workload.requests
        requests = []
        for serial in range(self._served, self._served + count):
            request = pool[serial % len(pool)]
            requests.append(Request(
                document=request.document_index,
                environment=PROFILES[
                    self._stream.randrange(len(PROFILES))],
                interactive=serial % 4 == 3, replays=2 + serial % 3,
                origin=request.origin))
        self._served += count
        ledger = self.federation.traffic.robustness
        unrecovered = ledger.unrecovered
        entries, latencies = self._wave(requests)
        # A failed payload read is one whose faults the retries, the
        # breakers and replica failover could not mask.
        self.failed += ledger.unrecovered - unrecovered
        for _, _, session, request in entries:
            reads = len(self.catalog[request.document]) \
                * session.replays_run
            self.attempted += reads
            self.streamed.append((request.document, session.replays_run,
                                  session.bytes_streamed))
        return entries, latencies

    def run(self, phase: Phase) -> None:
        traffic = self.federation.traffic
        before = traffic.counters()
        while phase.running():
            start = clock()
            if self._since_rebalance >= self.rebalance_every:
                self.federation.rebalance("replicate-hot")
                self._since_rebalance = 0
            entries, latencies = self._federated_wave(self.wave)
            self._since_rebalance += self.wave
            phase.add(len(latencies), clock() - start)
            phase.record(latencies)
            if phase.ops < self.digest_ops:
                self._digest_wave(entries)
            phase.ops += self.wave
            if phase.ops == self.net_sessions:
                after = traffic.counters()
                self.detail["net_ms_per_session"] = (
                    after["simulated_ms"] - before["simulated_ms"]) \
                    / self.net_sessions
                self.detail["net_bytes_per_session"] = (
                    after["total_bytes"] - before["total_bytes"]) \
                    / self.net_sessions

    def ledgers(self) -> dict[str, RobustnessStats]:
        ledgers = super().ledgers()
        ledgers["federation"] = self.federation.traffic.robustness
        return ledgers

    def counters(self) -> dict[str, float]:
        values = super().counters()
        traffic = self.federation.traffic.counters()
        values.update(remote_requests=traffic["requests"],
                      local_requests=traffic["local_requests"],
                      placement_moves=traffic["placement_moves"],
                      placement_bytes=traffic["placement_bytes"])
        return values

    def _payload_bytes(self, index: int) -> int:
        """Bytes one replay of document ``index`` streams: every
        catalog id's block, read at the document's author site."""
        store = self.federation.site(self.workload.homes[index][0]).store
        return sum(store.block_for(stream_id).size_bytes
                   for stream_id in self.catalog[index]
                   if store.descriptor(stream_id).block_id is not None)

    def verify(self) -> list[str]:
        problems = self._common_checks()
        if self.failed:
            return problems
        expected: dict[int, int] = {}
        for index, replays, delivered in self.streamed:
            if index not in expected:
                expected[index] = self._payload_bytes(index)
            if delivered != expected[index] * replays:
                problems.append(f"a session of document {index} streamed "
                                f"{delivered} payload bytes over {replays} "
                                f"replay(s), expected "
                                f"{expected[index] * replays}")
                break
        return problems


WORKLOADS = {workload.name: workload
             for workload in (ColdCatalog, HotFleet, LiveEdit,
                              FederatedZipf)}
