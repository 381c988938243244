"""The multi-tenant session engine: admission + adapted replay at scale.

This is the serving layer the ROADMAP's "locally served, centrally
authored" posture needs: heterogeneous client fleets (workstations,
modest personal systems, audio-less terminals) opening sessions against
a shared document catalog.  Per session, the naive path pays a
negotiation tree walk, a filter-plan derivation, a document adaptation,
a constraint solve and a program compilation; all of it is invariant
per (document revision, environment fingerprint), so the engine pays it
once and shares it:

* :class:`~repro.transport.requirements.RequirementsCache` — one
  requirement-profile walk per document revision, reused by every
  environment's negotiation;
* :class:`~repro.timing.schedule.ScheduleCache` — one constraint solve
  per document revision (cold solves run the compiled graph engine),
  shared across all environments;
* :class:`~repro.pipeline.program.ProgramCache` — one base playback
  program per schedule plus one compiled adaptation per environment
  fingerprint (:func:`~repro.pipeline.adaptation.adapted_program_for`);
* a :class:`~repro.pipeline.program.BatchPlayer` per (program,
  fingerprint), so concurrent sessions share transforms, run plans and
  latency tables and each replay is the pure array inner loop.

Admission is the paper's negotiation, made operational: ``unplayable``
sessions are rejected at the door, ``playable-with-filtering`` sessions
are auto-adapted through the compiled adaptation pipeline, ``playable``
sessions share the unspecialized base program.  Per-environment
admission and traffic statistics make the engine observable
(``report().describe()`` is what the CLI ``serve`` subcommand prints).
"""

from __future__ import annotations

import collections
import random
import time
from dataclasses import dataclass, field

from repro.cache import LRUCache
from repro.core.document import CmifDocument
from repro.core.errors import ValueError_
from repro.faults import (FaultPlan, RobustnessStats, resolve_faults,
                          run_sharded)
from repro.kernel import resolve_kernel
from repro.ledger import Ledger
from repro.pipeline.adaptation import (adapted_navigation_for,
                                       adapted_program_for)
from repro.pipeline.navprogram import random_trace
from repro.pipeline.patch import (EditRecord, LiveEditor,
                                  check_edit_spec)
from repro.pipeline.program import BatchPlayer, PlaybackProgram, \
    ProgramCache
from repro.timing.schedule import (ENGINE_GRAPH, ENGINE_REFERENCE,
                                   Schedule, ScheduleCache, schedule_for)
from repro.transport.environments import SystemEnvironment
from repro.transport.negotiate import negotiate
from repro.transport.requirements import RequirementsCache
from repro.serving.runqueue import (BatchTask, InteractiveSession,
                                    RunQueue, ScriptedChoices)
from repro.serving.session import (PLAYABLE, SESSION_SEED_STRIDE,
                                   Session, UNPLAYABLE)

#: Distinct (program, environment) batch players kept live; each holds
#: per-configuration transform caches, so the table is LRU-bounded.
PLAYER_CACHE_CAPACITY = 128

#: Schedules (and requirement profiles) an engine keeps cached.
SCHEDULE_CACHE_CAPACITY = 128

#: Playback programs (base and environment-adapted) an engine keeps
#: cached.
PROGRAM_CACHE_CAPACITY = 512


@dataclass
class EnvironmentStats(Ledger):
    """Admission and traffic accounting for one environment profile."""

    name: str
    sessions: int = 0
    playable: int = 0
    filtered: int = 0
    rejected: int = 0
    replays: int = 0
    events_played: int = 0
    navigations: int = 0
    #: Replays served through the degraded interpretive fallback
    #: (counted in ``replays`` too — they did complete).
    degraded: int = 0
    admit_seconds: float = 0.0
    replay_seconds: float = 0.0

    @property
    def admitted(self) -> int:
        return self.playable + self.filtered

    def describe(self) -> str:
        admission_rate = (self.admitted / self.admit_seconds
                          if self.admit_seconds > 0 else 0.0)
        replay_rate = (self.replays / self.replay_seconds
                       if self.replay_seconds > 0 else 0.0)
        events_rate = (self.events_played / self.replay_seconds
                       if self.replay_seconds > 0 else 0.0)
        navigation = (f", {self.navigations} jumps"
                      if self.navigations else "")
        degraded = (f", {self.degraded} degraded"
                    if self.degraded else "")
        return (f"{self.name:<16} {self.sessions:5d} sessions "
                f"({self.playable} playable / {self.filtered} filtered / "
                f"{self.rejected} rejected)  "
                f"{admission_rate:8.1f} admits/s  "
                f"{self.replays:6d} replays ({replay_rate:8.1f}/s, "
                f"{events_rate:10.0f} events/s{navigation}{degraded})")


@dataclass
class ServingReport:
    """One :meth:`SessionEngine.serve` run's aggregate outcome.

    The per-environment rows are *this run's* deltas, even when the
    engine (and its lifetime :attr:`SessionEngine.stats`) is reused
    across several ``serve`` calls."""

    environments: list[EnvironmentStats] = field(default_factory=list)
    documents: int = 0
    wall_seconds: float = 0.0
    schedule_cache: ScheduleCache | None = None
    program_cache: ProgramCache | None = None
    requirements_cache: RequirementsCache | None = None
    #: Per-edit delta-lowering outcomes when the run carried a live
    #: edit script (``serve(edit_script=...)``), in application order.
    edit_records: list[EditRecord] = field(default_factory=list)
    #: This run's fault/recovery ledger (a delta, like the env rows).
    robustness: RobustnessStats = field(default_factory=RobustnessStats)
    #: This run's federation traffic delta (when the engine serves
    #: through a federation): the counter dict of
    #: :meth:`~repro.store.distributed.TrafficStats.counters`.
    traffic: dict = field(default_factory=dict)
    #: One :meth:`~repro.serving.session.Session.describe` line per
    #: session, when the caller admitted them one by one
    #: (:func:`~repro.corpus.workload.serve_workload`).
    sessions_served: list[str] = field(default_factory=list)

    @property
    def sessions(self) -> int:
        return sum(stats.sessions for stats in self.environments)

    @property
    def admitted(self) -> int:
        return sum(stats.admitted for stats in self.environments)

    @property
    def rejected(self) -> int:
        return sum(stats.rejected for stats in self.environments)

    @property
    def replays(self) -> int:
        return sum(stats.replays for stats in self.environments)

    @property
    def events_played(self) -> int:
        return sum(stats.events_played for stats in self.environments)

    @property
    def navigations(self) -> int:
        return sum(stats.navigations for stats in self.environments)

    @property
    def sessions_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.sessions / self.wall_seconds

    def describe(self) -> str:
        navigation = (f", {self.navigations} navigation(s)"
                      if self.navigations else "")
        lines = [f"served {self.documents} document(s): {self.sessions} "
                 f"session(s), {self.admitted} admitted, "
                 f"{self.rejected} rejected, {self.replays} replay(s), "
                 f"{self.events_played} event(s){navigation} in "
                 f"{self.wall_seconds * 1000:.1f}ms "
                 f"({self.sessions_per_second:.1f} sessions/s)"]
        lines.extend(f"  {stats.describe()}"
                     for stats in self.environments)
        for cache in (self.requirements_cache, self.schedule_cache,
                      self.program_cache):
            if cache is not None:
                lines.append(f"  {cache.describe()}")
        if self.edit_records:
            patched = sum(1 for record in self.edit_records
                          if record.mode == "patched")
            lines.append(f"  live edits: {len(self.edit_records)} "
                         f"applied, {patched} patched in place")
            lines.extend(f"    {record.explain()}"
                         for record in self.edit_records)
        if not self.robustness.empty:
            lines.extend(f"  {line}" for line
                         in self.robustness.describe().splitlines())
        if self.traffic:
            lines.append(
                f"  federation: {self.traffic['requests']} remote / "
                f"{self.traffic['local_requests']} local request(s), "
                f"{self.traffic['total_bytes']} B moved, "
                f"{self.traffic['simulated_ms']:.1f} simulated ms, "
                f"{self.traffic['placement_moves']} placement move(s)")
        return "\n".join(lines)


def _run_queue(tasks: list, edits=None) -> RunQueue:
    """Drive ``tasks`` on one run queue, answering readers from their
    scripted traces; charge its wall time to the environment rows in
    proportion to the replays each row's tasks performed."""
    queue = RunQueue(tasks, choices=ScriptedChoices())
    start = time.perf_counter()
    queue.drive(edits=edits)
    elapsed = time.perf_counter() - start
    if queue.replays:
        shares: collections.Counter = collections.Counter()
        rows: dict[int, EnvironmentStats] = {}
        for task in tasks:
            stats = task.session.stats
            if stats is not None and task.replays_done:
                shares[id(stats)] += task.replays_done
                rows[id(stats)] = stats
        for key, share in shares.items():
            rows[key].replay_seconds += elapsed * share / queue.replays
    return queue


def _drive_shard(tasks: list
                 ) -> tuple[int, list[EnvironmentStats],
                            list[RobustnessStats]]:
    """Drive one shard's private copy of its tasks (see
    :func:`~repro.faults.run_sharded`) and return what it gathered.

    The copied tasks share copies of the engine's stats rows and
    robustness ledger; zeroed first, those hold exactly this shard's
    deltas after the drive.
    """
    rows = {id(task.session.stats): task.session.stats for task in tasks
            if task.session.stats is not None}
    ledgers = {id(task.session.robustness): task.session.robustness
               for task in tasks if task.session.robustness is not None}
    for ledger in [*rows.values(), *ledgers.values()]:
        ledger.reset()
    queue = _run_queue(tasks)
    return queue.replays, list(rows.values()), list(ledgers.values())


class SessionEngine:
    """Admit, adapt and replay sessions across shared compiled caches."""

    def __init__(self, *, seed: int = 0, kernel=None,
                 faults: FaultPlan | str | None = None,
                 federation=None) -> None:
        self.kernel = resolve_kernel(kernel)
        #: Fault plan for this engine's sessions (explicit, a spec
        #: string, or the ``REPRO_FAULTS`` environment default).
        self.faults = resolve_faults(faults)
        #: Lifetime fault/recovery ledger (``serve`` reports deltas).
        self.robustness = RobustnessStats()
        self.seed = seed
        self.schedule_cache = ScheduleCache(capacity=SCHEDULE_CACHE_CAPACITY)
        self.program_cache = ProgramCache(capacity=PROGRAM_CACHE_CAPACITY)
        self.requirements_cache = RequirementsCache(
            capacity=SCHEDULE_CACHE_CAPACITY)
        self.stats: dict[str, EnvironmentStats] = {}
        self.session_count = 0
        #: The most recent drive's run queue (scheduler observability).
        self.last_queue: RunQueue | None = None
        #: (id(program), environment fingerprint) -> (program, player);
        #: pinning the program keeps id() reuse impossible.
        self._players = LRUCache(PLAYER_CACHE_CAPACITY)
        #: id(document) -> (document, live editor), LRU-bounded like
        #: the schedule cache; pinning the document keeps id() reuse
        #: impossible.
        self._editors = LRUCache(SCHEDULE_CACHE_CAPACITY)
        #: Optional :class:`~repro.store.distributed.FederatedStore`
        #: the engine streams content through.  Admission installs a
        #: per-session streamer that pulls the document's payloads from
        #: the session origin's pinned replica set (session affinity);
        #: placement may change the traffic bill, never the reports.
        self.federation = federation

    # -- shared-resource plumbing -----------------------------------------

    def stats_for(self, environment: SystemEnvironment
                  ) -> EnvironmentStats:
        stats = self.stats.get(environment.name)
        if stats is None:
            stats = EnvironmentStats(name=environment.name)
            self.stats[environment.name] = stats
        return stats

    def _player_for(self, schedule: Schedule, program: PlaybackProgram,
                    environment: SystemEnvironment) -> BatchPlayer:
        key = (id(program), environment.fingerprint())
        entry = self._players.get(key)
        if entry is not None and entry[0] is program:
            return entry[1]
        player = BatchPlayer(schedule, environment, seed=self.seed,
                             program=program, kernel=self.kernel)
        self._players.put(key, (program, player))
        return player

    # -- live authoring ------------------------------------------------------

    def editor_for(self, document: CmifDocument) -> LiveEditor:
        """The document's live editor over this engine's shared caches.

        One editor per document, kept for the
        :data:`SCHEDULE_CACHE_CAPACITY` most recently edited documents:
        it owns the incremental solver state that makes successive edits
        O(affected events), and it starts from the exact schedule object
        the admission path published, so the cached program pyramid
        patches in place instead of going cold.  An evicted document's
        next edit builds a fresh editor, which starts from the cached
        schedule the way every first edit does.
        """
        entry = self._editors.get(id(document))
        if entry is not None and entry[0] is document:
            return entry[1]
        editor = LiveEditor(document,
                            schedule_cache=self.schedule_cache,
                            program_cache=self.program_cache,
                            requirements_cache=self.requirements_cache)
        self._editors.put(id(document), (document, editor))
        return editor

    def apply_edit(self, document: CmifDocument, spec: dict, *,
                   sessions=()) -> EditRecord:
        """Apply one live edit while sessions are being served.

        Lowers the edit onto every cached compiled program (see
        :class:`~repro.pipeline.patch.LiveEditor`), whether or not a
        session is named for it, then re-points the given sessions of
        this document at the document's current schedule and program —
        a swap the run queue only ever observes between quanta.
        An edit moves the document's revision, so its cached
        requirement profile no longer answers for it; a structural edit
        derives the new revision's profile once, through this engine's
        cache, to re-plan the cached compositions, and any other edit
        leaves it to the next admission.
        """
        editor = self.editor_for(document)
        record = editor.apply(spec)
        self._resync(document, editor, sessions)
        return record

    def _resync(self, document: CmifDocument, editor: LiveEditor,
                sessions) -> None:
        """Re-point live sessions of ``document`` at the edited state."""
        schedule = editor.schedule
        for item in sessions:
            interactive = isinstance(item, InteractiveSession)
            session = (item.session
                       if isinstance(item, (InteractiveSession,
                                            BatchTask)) else item)
            if not session.admitted or session.document is not document:
                continue
            session.schedule = schedule
            environment = session.environment
            desired = self.program_cache.get(schedule,
                                             environment=environment)
            if desired is None:
                # The LRU evicted this environment's composition, so
                # the edit had none to carry: recompile it lazily,
                # once, here.
                desired = adapted_program_for(
                    schedule, environment,
                    program_cache=self.program_cache)
            if desired is not session.program:
                session.program = desired
                session.player = self._player_for(schedule, desired,
                                                  environment)
            if interactive:
                item.resync()

    # -- admission ----------------------------------------------------------

    def admit(self, document: CmifDocument,
              environment: SystemEnvironment, *,
              origin: str | None = None,
              stream_ids=None) -> Session:
        """Negotiate one session; adapt and compile when admissible.

        Always returns a :class:`Session` — rejected ones carry the
        negotiation result (``session.admitted`` is False) so callers
        can report *why* without exception plumbing on the hot path.

        With a federation attached, ``origin`` names the site this
        tenant reads from and ``stream_ids`` (required) the federation
        ids of the document's payloads: every replay pulls them through
        the federation from the origin's nearest replicas — the traffic
        the placement policies optimize.  Streaming is accounting only;
        admission verdicts and replay reports are identical with or
        without it.
        """
        if self.federation is not None and stream_ids is None:
            raise ValueError_("a federated admission needs the "
                              "document's stream_ids")
        stats = self.stats_for(environment)
        start = time.perf_counter()
        # One compile serves both caches' misses: the profile is derived
        # from it and a cold solve schedules it.
        compiled = (None if self.requirements_cache.holds(document)
                    else document.compile())
        requirements = self.requirements_cache.requirements_for(
            document, compiled)
        negotiation = negotiate(document, environment,
                                requirements=requirements)
        self.session_count += 1
        session = Session(
            session_id=self.session_count,
            document=document,
            environment=environment,
            negotiation=negotiation,
            seed=self.seed + self.session_count * SESSION_SEED_STRIDE,
            stats=stats,
            faults=self.faults,
            robustness=self.robustness if self.faults is not None
            else None)
        stats.sessions += 1
        if negotiation.verdict == UNPLAYABLE:
            stats.rejected += 1
            stats.admit_seconds += time.perf_counter() - start
            return session
        plan = self.faults
        if plan is not None and plan.fires(plan.solve_failure_rate,
                                           "solve", self.session_count):
            # The compiled solver "failed" for this admission: degrade
            # to the retained interpretive reference engine, which is
            # pinned bit-identical — the session is admitted with the
            # exact same schedule, only the ledger shows the downgrade.
            self.robustness.record_fault("solve")
            self.robustness.degraded_solves += 1
            self.robustness.recovered += 1
            schedule = schedule_for(document, cache=self.schedule_cache,
                                    engine=ENGINE_REFERENCE,
                                    compiled=compiled)
        else:
            schedule = schedule_for(document, cache=self.schedule_cache,
                                    engine=ENGINE_GRAPH, compiled=compiled)
        program = adapted_program_for(schedule, environment,
                                      program_cache=self.program_cache,
                                      requirements=requirements)
        session.schedule = schedule
        session.program = program
        session.player = self._player_for(schedule, program, environment)
        if self.federation is not None:
            federation, ids = self.federation, tuple(stream_ids)
            session.origin = origin
            session.streamer = lambda: federation.stream(ids, origin=origin)
        if negotiation.verdict == PLAYABLE:
            stats.playable += 1
        else:
            stats.filtered += 1
        stats.admit_seconds += time.perf_counter() - start
        return session

    def admit_interactive(self, document: CmifDocument,
                          environment: SystemEnvironment, *,
                          trace=None, follows: int = 2,
                          rate: float = 1.0,
                          origin: str | None = None,
                          stream_ids=None) -> InteractiveSession:
        """Admit one interactive reader with a scripted choice trace.

        On top of :meth:`admit`, the document's compiled navigation
        program is fetched (shared per document revision across every
        environment — adaptation never moves event times) and the
        session's batch player is warmed with every link destination's
        seek plan, so each follow during the drive is an O(1) program
        swap + array seek.  ``trace`` scripts the reader's choices;
        when None, a deterministic trace is drawn from the session's
        own seed (``follows`` jumps at most).  Rejected sessions come
        back DONE and never enter the rotation.
        """
        session = self.admit(document, environment, origin=origin,
                             stream_ids=stream_ids)
        if not session.admitted:
            return InteractiveSession(session, None, ())
        stats = self.stats_for(environment)
        start = time.perf_counter()
        navigation = adapted_navigation_for(
            session.schedule, environment,
            program_cache=self.program_cache)
        navigator = navigation.session()
        if trace is None:
            trace = random_trace(session.schedule,
                                 random.Random(session.seed),
                                 follows=follows, program=navigation)
        navigation.warm(session.player, rate=rate)
        stats.admit_seconds += time.perf_counter() - start
        return InteractiveSession(session, navigator, trace, rate=rate)

    # -- replay -------------------------------------------------------------

    def drive(self, sessions, replays: int = 1, *, rate: float = 1.0,
              seek_to_ms: float = 0.0, workers: int = 1,
              edits=None) -> int:
        """Interleave mixed batch + interactive sessions, run-queue style.

        ``sessions`` may mix plain :class:`Session` objects (wrapped as
        ``replays``-round batch tasks), :class:`InteractiveSession`
        readers from :meth:`admit_interactive`, and prebuilt
        :class:`BatchTask` items.  The queue is FIFO round-robin — one
        quantum (replay, segment or link follow) per turn, a stepped
        task re-entering at the tail — so plain batch workloads keep
        the exact one-replay-per-session-per-round schedule (and the
        exact reports) of earlier engines, while a reader pausing on a
        choice blocks only their own session, and each reader's choices
        come from their own scripted trace.  Returns replays performed
        (an interactive segment counts as one replay); the full
        scheduler accounting stays on :attr:`last_queue`.

        ``workers`` > 1 partitions the task list into contiguous shards
        across a process pool — every session's replay outcome depends
        only on its own seed, so shards are independent — and merges
        the per-environment stat deltas back in shard order, matching a
        ``workers=1`` drive exactly except for the ``*_seconds``
        timings.  Shards run through :func:`~repro.faults.run_sharded`
        on private copies of their tasks, re-driven in this process
        when a worker dies.  Parallel drives leave :attr:`last_queue`
        unset (the shards ran separate queues) and the caller's Session
        objects unmutated.
        """
        if workers < 1:
            raise ValueError_(f"drive workers must be at least 1, "
                              f"got {workers}")
        tasks = []
        for item in sessions:
            if isinstance(item, (InteractiveSession, BatchTask)):
                if item.session.admitted:
                    tasks.append(item)
            elif item.admitted:
                tasks.append(BatchTask(item, replays, rate=rate,
                                       seek_to_ms=seek_to_ms))
        # Federation-backed sessions carry live streamer closures whose
        # traffic must land on the one shared TrafficStats — forked
        # shards would each mutate a private copy and lose it, so those
        # drives stay serial (the replay inner loop is unaffected).
        # Live edits mutate shared program state, so edited drives are
        # serial too: one process, edits applied between quanta.
        if workers > 1 and edits is None \
                and self.federation is None and len(tasks) > 1:
            shards = run_sharded(tasks, workers, _drive_shard,
                                 faults=self.faults,
                                 ledger=self.robustness)
            if shards is not None:
                performed = 0
                for replays_run, rows, ledgers in shards:
                    performed += replays_run
                    for row in rows:
                        self.stats.setdefault(
                            row.name, EnvironmentStats(name=row.name)
                        ).merge(row)
                    for ledger in ledgers:
                        self.robustness.merge(ledger)
                self.last_queue = None
                return performed
        self.last_queue = _run_queue(tasks, edits)
        return self.last_queue.replays

    # -- corpus serving ------------------------------------------------------

    def serve(self, documents, environments, *,
              sessions_per_pair: int = 1, replays: int = 1,
              rate: float = 1.0, seek_to_ms: float = 0.0,
              interactive_per_pair: int = 0, follows: int = 2,
              workers: int = 1,
              edit_script=None) -> ServingReport:
        """Admit and drive a whole corpus against environment profiles.

        ``documents`` is an iterable of :class:`CmifDocument`;
        ``sessions_per_pair`` opens that many tenant sessions per
        (document, environment) pair, and ``replays`` rounds are
        round-robined across every admitted session.
        ``interactive_per_pair`` adds that many interactive readers per
        pair, each with a seed-derived scripted trace of up to
        ``follows`` link follows, interleaved with the batch traffic on
        the run queue.  Admission always runs in this process (it warms
        the shared caches); ``workers`` > 1 shards the drive — see
        :meth:`drive`.

        ``edit_script`` is a list of JSON edit specs (the
        ``serve --edit-script`` format — see
        :meth:`~repro.pipeline.patch.LiveEditor.apply`) applied live
        while the sessions run.  Each spec may carry ``at_step`` (the
        scheduler step to fire at, default 0) and ``document`` (the
        0-based index of the target document, default 0); delta-lowered
        outcomes land on the report's ``edit_records``.  Edited serves
        run serial — the edits mutate shared program state.

        With a federation attached, the report's ``traffic`` carries
        this run's federation counter deltas.
        """
        if sessions_per_pair < 1:
            raise ValueError_("sessions_per_pair must be at least 1, "
                              f"got {sessions_per_pair}")
        if interactive_per_pair < 0:
            raise ValueError_("interactive_per_pair cannot be negative, "
                              f"got {interactive_per_pair}")
        documents = list(documents)
        environments = list(environments)
        checkpoint = self.checkpoint()
        sessions: list = []
        for document in documents:
            for environment in environments:
                for _ in range(sessions_per_pair):
                    sessions.append(self.admit(document, environment))
                for _ in range(interactive_per_pair):
                    sessions.append(self.admit_interactive(
                        document, environment, follows=follows,
                        rate=rate))
        edit_records: list[EditRecord] = []
        edits = None
        if edit_script:
            def make_edit(spec: dict):
                check_edit_spec(spec)
                index = int(spec.get("document", 0))
                if index >= len(documents):
                    raise ValueError_(f"edit spec names document {index} "
                                      f"of {len(documents)}")
                target = documents[index]

                def apply() -> None:
                    edit_records.append(self.apply_edit(
                        target, spec, sessions=sessions))
                return apply

            edits = [(int(spec.get("at_step", 0)), make_edit(spec))
                     for spec in edit_script]
        if replays > 0 or interactive_per_pair > 0 or edits:
            self.drive(sessions, replays, rate=rate,
                       seek_to_ms=seek_to_ms, workers=workers,
                       edits=edits)
        return self.report_since(checkpoint, environments,
                                 documents=len(documents),
                                 edit_records=edit_records)

    def checkpoint(self) -> tuple:
        """An opaque mark of the engine's ledgers, for
        :meth:`report_since`."""
        traffic = (self.federation.traffic.snapshot()
                   if self.federation is not None else None)
        return ({name: row.snapshot() for name, row in self.stats.items()},
                self.robustness.snapshot(), traffic, time.perf_counter())

    def report_since(self, checkpoint: tuple, environments, *,
                     documents: int, edit_records=(),
                     sessions_served=()) -> ServingReport:
        """What the engine served since ``checkpoint``: the rows of
        ``environments`` (in that order) and the robustness and
        federation traffic ledgers as deltas, plus the wall time."""
        rows, robustness, traffic, start = checkpoint
        return ServingReport(
            environments=[
                self.stats[environment.name].delta_since(
                    rows.get(environment.name))
                for environment in environments
                if environment.name in self.stats],
            documents=documents,
            wall_seconds=time.perf_counter() - start,
            schedule_cache=self.schedule_cache,
            program_cache=self.program_cache,
            requirements_cache=self.requirements_cache,
            edit_records=list(edit_records),
            robustness=self.robustness.delta_since(robustness),
            traffic=({} if traffic is None else
                     self.federation.traffic.delta_since(traffic)
                     .counters()),
            sessions_served=list(sessions_served))

    def describe(self) -> str:
        lines = [f"session engine: {self.session_count} session(s) "
                 "admitted or rejected"]
        lines.extend(f"  {stats.describe()}"
                     for stats in self.stats.values())
        lines.append(f"  {self.requirements_cache.describe()}")
        lines.append(f"  {self.schedule_cache.describe()}")
        lines.append(f"  {self.program_cache.describe()}")
        if not self.robustness.empty:
            lines.extend(f"  {line}" for line
                         in self.robustness.describe().splitlines())
        return "\n".join(lines)
