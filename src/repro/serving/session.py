"""Serving sessions: one admitted reader of one document.

A session is the unit the multi-tenant engine multiplexes: a reader on
some client environment asking to play some document.  Admission
(negotiate → adapt → compile) happens in the engine; the session object
holds the outcome — the verdict, the environment-specialized playback
program and the shared :class:`~repro.pipeline.program.BatchPlayer` —
plus the per-session replay counters.

Sessions are deterministic: each gets its own jitter seed derived from
the engine seed and its session id, so any session's runs can be
reproduced bit-for-bit regardless of how its replays interleave with
other tenants'.

That determinism is also what makes *graceful degradation* free of
blast radius: when the engine's fault plan fails a compiled replay, the
session falls back to the retained interpretive reference path
(``Player.play_reference`` over a reference-solved schedule of the —
possibly adapted — document), which PR 3's equivalence tests pin
bit-identical to the compiled path.  A degraded replay therefore plays
the exact same events with the exact same jitter draw; only the
``degraded`` counters show it happened.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.document import CmifDocument
from repro.core.errors import PlaybackError
from repro.faults import FaultPlan, RobustnessStats
from repro.pipeline.player import PlaybackReport, Player
from repro.pipeline.program import BatchPlayer, CompactReport, \
    PlaybackProgram
from repro.timing.schedule import (ENGINE_REFERENCE, Schedule,
                                   schedule_document)
from repro.transport.environments import SystemEnvironment
from repro.transport.negotiate import (FILTERABLE, NegotiationResult,
                                       PLAYABLE, UNPLAYABLE)

#: Spread between per-session jitter seed bases: large enough that no
#: realistic replay count makes two sessions' seed ranges overlap.
SESSION_SEED_STRIDE = 1_000_003


@dataclass
class Session:
    """One reader's admitted (or rejected) presentation session."""

    session_id: int
    document: CmifDocument
    environment: SystemEnvironment
    negotiation: NegotiationResult
    seed: int
    schedule: Schedule | None = None
    program: PlaybackProgram | None = None
    player: BatchPlayer | None = None
    #: The engine's per-environment stats row; replays report into it.
    stats: "object | None" = field(default=None, repr=False)
    replays_run: int = 0
    events_played: int = 0
    #: Link follows taken by this session's reader (interactive only).
    navigations: int = 0
    #: The engine's fault plan and ledger (None = no injection).
    faults: FaultPlan | None = field(default=None, repr=False,
                                     compare=False)
    robustness: RobustnessStats | None = field(default=None, repr=False,
                                               compare=False)
    #: Lazily built reference-solved schedule for degraded replays.
    _degraded_schedule: Schedule | None = field(default=None, repr=False,
                                                compare=False)
    #: Site this tenant reads from (session affinity); None = no
    #: federation attached.
    origin: str | None = None
    #: Zero-arg content-pull hook installed at admission when the
    #: engine has a federation: every replay streams the document's
    #: payloads from the origin's pinned replica set.  Pure traffic
    #: accounting — reports never depend on it.
    streamer: "object | None" = field(default=None, repr=False,
                                      compare=False)
    #: Payload bytes the federation delivered to this session.
    bytes_streamed: int = 0

    @property
    def verdict(self) -> str:
        return self.negotiation.verdict

    @property
    def admitted(self) -> bool:
        """True when the session may play (possibly with adaptation)."""
        return self.verdict in (PLAYABLE, FILTERABLE)

    @property
    def adapted(self) -> bool:
        """True when playback runs through a compiled adaptation."""
        return (self.program is not None
                and self.program.adaptation is not None)

    def rng_for(self, replay: int) -> random.Random:
        """The jitter RNG of this session's ``replay``-th run."""
        return random.Random(self.seed + replay)

    def play(self, *, rate: float = 1.0,
             freeze_at_ms: float | None = None,
             freeze_duration_ms: float = 0.0,
             seek_to_ms: float = 0.0) -> CompactReport:
        """One replay through the shared batch player.

        The player, its program, transforms and run plans are shared
        with every other session of the same (document revision,
        environment fingerprint); only the jitter draw is per-session.
        """
        if not self.admitted or self.player is None:
            raise PlaybackError(
                f"session {self.session_id} was not admitted "
                f"({self.verdict} on {self.environment.name}); it cannot "
                f"play")
        if self.streamer is not None:
            self.bytes_streamed += self.streamer()
        plan = self.faults
        if plan is not None and plan.fires(
                plan.replay_failure_rate, "replay",
                (self.session_id, self.replays_run)):
            report = self._play_degraded(
                rate=rate, freeze_at_ms=freeze_at_ms,
                freeze_duration_ms=freeze_duration_ms,
                seek_to_ms=seek_to_ms)
        else:
            report = self.player.run_one(
                rate=rate, freeze_at_ms=freeze_at_ms,
                freeze_duration_ms=freeze_duration_ms,
                seek_to_ms=seek_to_ms, environment=self.environment,
                rng=self.rng_for(self.replays_run))
        self.replays_run += 1
        self.events_played += report.played_count
        if self.stats is not None:
            self.stats.replays += 1
            self.stats.events_played += report.played_count
        return report

    def _play_degraded(self, *, rate: float, freeze_at_ms: float | None,
                       freeze_duration_ms: float,
                       seek_to_ms: float) -> PlaybackReport:
        """Serve one replay through the interpretive reference path.

        The compiled replay was failed by the fault plan; the retained
        reference path — the (adapted) document re-solved by the
        reference engine, played by the tree-walking
        :meth:`~repro.pipeline.player.Player.play_reference` loop with
        this replay's own jitter draw — is bit-identical to it, so the
        reader sees the same events and only the ledger records the
        downgrade.  :meth:`play` does the replay bookkeeping; this keeps
        only the degraded counters.
        """
        if self.robustness is not None:
            self.robustness.record_fault("replay")
        if self._degraded_schedule is None:
            document = self.document
            if self.program is not None \
                    and self.program.adaptation is not None:
                document = self.program.adaptation.adapt_document(document)
            self._degraded_schedule = schedule_document(
                document.compile(), engine=ENGINE_REFERENCE)
        report = Player(self.environment).play_reference(
            self._degraded_schedule, rate=rate, freeze_at_ms=freeze_at_ms,
            freeze_duration_ms=freeze_duration_ms, seek_to_ms=seek_to_ms,
            rng=self.rng_for(self.replays_run))
        if self.robustness is not None:
            self.robustness.degraded_replays += 1
            self.robustness.recovered += 1
        if self.stats is not None:
            self.stats.degraded += 1
        return report

    def describe(self) -> str:
        state = self.verdict if not self.adapted \
            else f"{self.verdict} (adapted)"
        suffix = (f", {self.navigations} navigation(s)"
                  if self.navigations else "")
        return (f"session {self.session_id} on {self.environment.name}: "
                f"{state}, {self.replays_run} replay(s), "
                f"{self.events_played} event(s){suffix}")


__all__ = ["FILTERABLE", "PLAYABLE", "SESSION_SEED_STRIDE", "Session",
           "UNPLAYABLE"]
