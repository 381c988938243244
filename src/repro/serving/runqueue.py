"""Run-queue scheduling of mixed interactive + batch sessions.

The serving engine's ``drive()`` used to be a fixed round-robin over
batch replay sessions.  Interactive reading (play → pause on a choice
point → follow a link → resume from the target) does not fit that
shape: a reader deciding which link to take must block *their own*
session without stalling anyone else's.  This module gives the engine
the run-queue form: every session is a small state machine

    RUNNING -> BLOCKED_ON_CHOICE -> SEEKING -> RUNNING -> ... -> DONE

and a FIFO :class:`RunQueue` interleaves thousands of them, one quantum
per turn.  A quantum is one unit of playback work: a batch task's next
replay, or an interactive task's next segment replay / link follow.
Choice points park only the blocking task — either until the scripted
:class:`ScriptedChoices` source answers (optionally after a seeded
think-time delay measured in scheduler steps) or until external code
calls :meth:`RunQueue.provide`.

Determinism: each session draws jitter from its own seeded stream
(engine seed + session id stride) and interactive traces are data, so
per-session reports are invariant under interleaving — the run queue
changes *when* work happens, never *what* it computes.  The scheduler
itself is deterministic under a fixed choice-source RNG.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

from repro.core.errors import NavigationError
from repro.pipeline.navigation import Jump
from repro.pipeline.navprogram import Choice
from repro.pipeline.program import CompactReport
from repro.serving.session import Session

RUNNING = "running"
BLOCKED_ON_CHOICE = "blocked-on-choice"
SEEKING = "seeking"
DONE = "done"

SESSION_STATES = (RUNNING, BLOCKED_ON_CHOICE, SEEKING, DONE)


class InteractiveSession:
    """One reader's interactive pass over an admitted session.

    ``navigator`` is a compiled (or interpretive) navigation session;
    ``trace`` scripts the reader's choice points.  Playback work rides
    the serving :class:`Session` — one ``play(seek_to_ms=segment
    start)`` per resumed segment, through the shared batch player whose
    per-destination run plans the navigation program warmed — so every
    link follow is a cached program swap plus an array seek.
    """

    def __init__(self, session: Session, navigator,
                 trace=(), *, rate: float = 1.0) -> None:
        self.session = session
        self.navigator = navigator
        self.trace: list[Choice] = list(trace)
        self.rate = rate
        self.cursor = 0
        self.pending: str | None = None
        self.reports: list[CompactReport] = []
        self.jumps: list[Jump] = []
        self.state = RUNNING if session.admitted else DONE
        #: Set by :meth:`resync` after a live edit patched the document
        #: under this reader; gates the lenient navigation handling so
        #: un-edited sessions keep exact reference behavior.
        self._edited = False

    @property
    def session_id(self) -> int:
        return self.session.session_id

    @property
    def admitted(self) -> bool:
        return self.session.admitted

    @property
    def position_ms(self) -> float:
        return self.navigator.position_ms if self.navigator else 0.0

    @property
    def replays_done(self) -> int:
        return len(self.reports)

    @property
    def navigations_done(self) -> int:
        return len(self.jumps)

    def resync(self) -> None:
        """Pick up a live edit: re-read the navigation program's tables.

        Delta-lowering refreshes the shared
        :class:`~repro.pipeline.navprogram.NavigationProgram` *in
        place*, but each reader session copied its link list and
        schedule pointer at construction; re-copy them so the reader's
        remaining trace resolves against the edited document.  The
        reader keeps their position and history — an author's edit must
        not restart anyone's presentation.  From here on navigation
        misses (a followed link the edit removed, a choice point the
        edit moved behind the reader) end the session instead of
        raising: the reader's scripted plan may reference a document
        that no longer exists, which is the author's doing, not an
        engine bug.
        """
        self._edited = True
        navigator = self.navigator
        if navigator is None:
            return
        program = getattr(navigator, "program", None)
        if program is not None:
            navigator.schedule = program.schedule
            navigator.links = list(program.links)

    def choose(self, condition: str) -> None:
        """Provide the reader's choice; only valid while blocked."""
        if self.state != BLOCKED_ON_CHOICE:
            raise NavigationError(
                f"session {self.session_id} is {self.state}, not "
                f"awaiting a choice")
        self.pending = condition
        self.state = SEEKING

    def step(self) -> str:
        """One scheduler quantum; returns the state after it.

        RUNNING plays the current segment (a seek-replay from the
        navigator's position through the shared player), then either
        pauses at the next scripted choice point or finishes.  SEEKING
        consumes the provided choice: the navigator follows the link
        and the session resumes at the target.  BLOCKED_ON_CHOICE and
        DONE never advance — a blocked reader only moves on input.
        """
        if self.state == RUNNING:
            position = self.navigator.position_ms
            report = self.session.play(
                rate=self.rate,
                seek_to_ms=position if position > 0 else 0.0)
            self.reports.append(report)
            if self.cursor < len(self.trace):
                try:
                    self.navigator.advance_to(
                        self.trace[self.cursor].at_ms)
                except NavigationError:
                    if not self._edited:
                        raise
                    # A live edit moved the next choice point behind
                    # the reader; their scripted pass is over.
                    self.state = DONE
                    return self.state
                self.state = BLOCKED_ON_CHOICE
            else:
                self.state = DONE
        elif self.state == SEEKING:
            condition = self.pending
            self.pending = None
            try:
                jump = self.navigator.follow(condition)
            except NavigationError:
                if not self._edited:
                    raise
                # The link this reader was promised no longer exists
                # (or its window moved) after a live edit.
                self.state = DONE
                return self.state
            self.jumps.append(jump)
            self.cursor += 1
            self.session.navigations += 1
            if self.session.stats is not None:
                self.session.stats.navigations += 1
            self.state = RUNNING
        return self.state

    def describe(self) -> str:
        return (f"interactive session {self.session_id}: {self.state}, "
                f"{len(self.reports)} segment(s), "
                f"{len(self.jumps)} jump(s) at "
                f"{self.position_ms:g}ms")


class BatchTask:
    """A plain replay session wrapped for the run queue."""

    def __init__(self, session: Session, replays: int = 1, *,
                 rate: float = 1.0, seek_to_ms: float = 0.0) -> None:
        self.session = session
        self.remaining = replays if session.admitted else 0
        self.rate = rate
        self.seek_to_ms = seek_to_ms
        self.performed = 0
        self.state = RUNNING if self.remaining > 0 else DONE

    @property
    def session_id(self) -> int:
        return self.session.session_id

    @property
    def replays_done(self) -> int:
        return self.performed

    @property
    def navigations_done(self) -> int:
        return 0

    def step(self) -> str:
        if self.state == RUNNING:
            self.session.play(rate=self.rate, seek_to_ms=self.seek_to_ms)
            self.performed += 1
            self.remaining -= 1
            if self.remaining <= 0:
                self.state = DONE
        return self.state


class ScriptedChoices:
    """Answer blocked sessions from their own scripted traces.

    ``max_delay_steps`` simulates reader think time: each answer lands
    a deterministic RNG-drawn number of scheduler steps after the
    block, so interactive sessions genuinely interleave with batch
    traffic instead of resuming instantly.  Without an RNG the answer
    is immediate.
    """

    def __init__(self, *, rng=None, max_delay_steps: int = 0) -> None:
        self.rng = rng
        self.max_delay_steps = max_delay_steps

    def condition_for(self, task: InteractiveSession) -> str | None:
        if task.cursor < len(task.trace):
            return task.trace[task.cursor].condition
        return None

    def delay_for(self, task: InteractiveSession) -> int:
        if self.rng is None or self.max_delay_steps <= 0:
            return 0
        return self.rng.randrange(self.max_delay_steps + 1)


@dataclass(frozen=True)
class QueueStats:
    """One drive's scheduler-side accounting."""

    steps: int
    replays: int
    navigations: int
    finished: int
    blocked: int

    def describe(self) -> str:
        return (f"run queue: {self.steps} step(s), {self.replays} "
                f"replay(s), {self.navigations} navigation(s), "
                f"{self.finished} finished, {self.blocked} blocked")


class RunQueue:
    """FIFO round-robin over mixed interactive and batch tasks.

    Fairness is structural: a stepped task re-enters at the tail, so no
    runnable task can starve — between two quanta of one task, every
    other runnable task gets exactly one.  Blocking moves a task out of
    the rotation entirely: into ``waiting`` when the choice source owes
    it a (possibly delayed) answer, into ``parked`` when only external
    :meth:`provide` input can revive it.
    """

    def __init__(self, tasks=(), *, choices: ScriptedChoices | None = None
                 ) -> None:
        self.queue: collections.deque = collections.deque()
        self.choices = choices
        #: Tasks owed a scripted answer: (ready step, order, task, cond).
        self.waiting: list[tuple[int, int, object, str]] = []
        #: Tasks only external input can revive.
        self.parked: list = []
        self.finished: list = []
        #: (session_id, state after step) per quantum, for invariant
        #: checks and observability; one small tuple per step.
        self.log: list[tuple[int, str]] = []
        self.steps = 0
        self.replays = 0
        self.navigations = 0
        self._order = 0
        for task in tasks:
            self.submit(task)

    def submit(self, task) -> None:
        if task.state == DONE:
            self.finished.append(task)
        else:
            self.queue.append(task)

    @property
    def blocked(self) -> list:
        """Every task currently unable to run without input."""
        return self.parked + [entry[2] for entry in self.waiting]

    def provide(self, task, condition: str) -> None:
        """External choice input for a parked task."""
        self.parked = [parked for parked in self.parked
                       if parked is not task]
        task.choose(condition)
        self.queue.append(task)

    def _release_ready(self) -> None:
        if not self.waiting:
            return
        due = sorted(entry for entry in self.waiting
                     if entry[0] <= self.steps)
        if not due:
            return
        self.waiting = [entry for entry in self.waiting
                        if entry[0] > self.steps]
        for _ready, _order, task, condition in due:
            task.choose(condition)
            self.queue.append(task)

    def _block(self, task) -> None:
        condition = (self.choices.condition_for(task)
                     if self.choices is not None else None)
        if condition is None:
            self.parked.append(task)
            return
        delay = self.choices.delay_for(task)
        self._order += 1
        if delay <= 0:
            # An instant answer still waits one quantum: the reader
            # acts between scheduler turns, never inside one.
            self.waiting.append((self.steps, self._order, task,
                                 condition))
        else:
            self.waiting.append((self.steps + delay, self._order, task,
                                 condition))

    def drive(self, *, edits=None) -> QueueStats:
        """Run until every task is DONE or parked awaiting input.

        ``edits`` is an optional iterable of ``(at_step, apply)``
        callbacks — live authoring edits scheduled against scheduler
        time.  Each fires once its step count is due, always *between*
        quanta: no session is ever mid-replay when the program arrays
        underneath it change, which is the safe replay boundary the
        live-edit equivalence pin relies on.  Edits still pending when
        the queue drains fire at the end (so a script longer than the
        workload is applied in full).
        """
        pending = (collections.deque(
            sorted(edits, key=lambda entry: entry[0]))
            if edits is not None else None)
        while True:
            if pending:
                while pending and pending[0][0] <= self.steps:
                    pending.popleft()[1]()
            self._release_ready()
            if not self.queue:
                if self.waiting:
                    # Only think-time delays remain: idle to the next
                    # due answer instead of spinning.
                    self.steps = min(entry[0] for entry in self.waiting)
                    continue
                break
            task = self.queue.popleft()
            replays_before = task.replays_done
            navigations_before = task.navigations_done
            state = task.step()
            self.steps += 1
            self.replays += task.replays_done - replays_before
            self.navigations += task.navigations_done - navigations_before
            self.log.append((task.session_id, state))
            if state == DONE:
                self.finished.append(task)
            elif state == BLOCKED_ON_CHOICE:
                self._block(task)
            else:
                self.queue.append(task)
        if pending:
            while pending:
                pending.popleft()[1]()
        return self.stats()

    def stats(self) -> QueueStats:
        return QueueStats(steps=self.steps, replays=self.replays,
                          navigations=self.navigations,
                          finished=len(self.finished),
                          blocked=len(self.blocked))


__all__ = ["BLOCKED_ON_CHOICE", "BatchTask", "DONE", "InteractiveSession",
           "QueueStats", "RUNNING", "RunQueue", "SEEKING",
           "SESSION_STATES", "ScriptedChoices"]
