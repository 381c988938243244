"""Recovery policies and the accounting that proves they worked.

:class:`RetryPolicy` bounds how hard any layer tries before giving up
(attempts, exponential backoff, a per-request deadline — backoff is
charged to the traffic model's simulated clock, never slept).
:class:`CircuitBreaker` stops a flapping site from eating every
request's retry budget: after enough consecutive failures the breaker
opens and requests are shorted locally until a cooldown expires, then a
single half-open probe decides whether to close it again.

:class:`RobustnessStats` is the ledger.  Every injection site records
the fault it injected; every recovery site records what it did about
one.  The books must balance — ``total_faults == recovered +
unrecovered + absorbed`` — and the fault bench and tests assert that
identity, so a fault that is silently dropped (or double-counted) is a
test failure, not a mystery.

:func:`run_sharded` is the one crash-tolerant process pool: ingest and
the serving drive shard their work through it, a worker the plan
crashes dies at chunk entry, and dead chunks re-run in the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.faults.plan import WORKER_CRASH_EXIT, FaultPlan
from repro.ledger import Ledger


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and a deadline.

    Backoff for attempt *n* (0-based, charged after the first failure)
    is ``backoff_base_ms * backoff_factor ** n`` of *simulated* time.
    A request abandons retrying when either ``max_attempts`` is reached
    or its accumulated simulated time would exceed ``deadline_ms``.
    """

    max_attempts: int = 4
    backoff_base_ms: float = 5.0
    backoff_factor: float = 2.0
    deadline_ms: float = 500.0

    def backoff_ms(self, attempt: int) -> float:
        """Simulated backoff charged before retry number ``attempt``."""
        return self.backoff_base_ms * (self.backoff_factor ** attempt)

    def gives_up(self, attempt: int, elapsed_ms: float) -> bool:
        """True when attempt number ``attempt`` must not be made."""
        return (attempt >= self.max_attempts
                or elapsed_ms >= self.deadline_ms)


class CircuitBreaker:
    """Per-site circuit breaker with half-open probing.

    CLOSED passes requests through; ``failure_threshold`` consecutive
    failures OPEN it.  While OPEN, requests are shorted (failed
    locally, no attempt, no retry budget spent) until ``cooldown_ticks``
    of the logical fault clock pass; the first request after cooldown
    is a HALF_OPEN probe — success closes the breaker, failure reopens
    it for another cooldown.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold: int = 4,
                 cooldown_ticks: int = 8) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown_ticks = cooldown_ticks
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at = -1

    def allow(self, tick: int) -> tuple[bool, bool]:
        """May a request proceed at ``tick``?  Returns (allowed, probe).

        A shorted request (``allowed`` False) must not touch the wire;
        a probe (``allowed`` True, ``probe`` True) is the single
        half-open trial request.
        """
        if self.state == self.CLOSED:
            return True, False
        if self.state == self.OPEN:
            if tick - self.opened_at >= self.cooldown_ticks:
                self.state = self.HALF_OPEN
                return True, True
            return False, False
        # HALF_OPEN: one probe is already in flight this cooldown; any
        # other request is shorted until the probe resolves.
        return False, False

    def record_success(self) -> bool:
        """Note a successful request; True when this closed the breaker."""
        closed = self.state == self.HALF_OPEN
        self.state = self.CLOSED
        self.consecutive_failures = 0
        return closed

    def record_failure(self, tick: int) -> bool:
        """Note a failed request; True when this opened the breaker."""
        if self.state == self.HALF_OPEN:
            self.state = self.OPEN
            self.opened_at = tick
            return True
        self.consecutive_failures += 1
        if (self.state == self.CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self.state = self.OPEN
            self.opened_at = tick
            return True
        return False


@dataclass
class RobustnessStats(Ledger):
    """The fault/recovery ledger threaded through every stats object.

    Injection sites call :meth:`record_fault`; recovery sites bump the
    outcome counters.  The accounting identity — every injected fault
    is eventually ``recovered`` (a retry, failover, stale answer, or
    degraded path served the request anyway), ``unrecovered`` (the
    failure reached the caller), or ``absorbed`` (the fault cost only
    simulated time, e.g. a latency spike) — is enforced by
    :meth:`balanced`, which the fault bench gates on.  Snapshots,
    deltas and shard merges come from :class:`~repro.ledger.Ledger`.
    """

    #: Injected faults by kind (``site-outage``, ``block``, ...).
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: Faults masked by a recovery action (request still succeeded).
    recovered: int = 0
    #: Faults whose failure reached the caller.
    unrecovered: int = 0
    #: Faults that only cost simulated time (latency spikes).
    absorbed: int = 0

    # Retry policy.
    retries: int = 0
    backoff_ms: float = 0.0
    deadline_exhausted: int = 0

    # Circuit breakers (shorts are local refusals, not injections).
    breaker_opens: int = 0
    breaker_shorts: int = 0
    breaker_probes: int = 0
    breaker_closes: int = 0

    # Federation failover.
    failovers: int = 0
    stale_summaries: int = 0
    partial_results: int = 0
    checksum_rejects: int = 0

    # Worker-pool crash recovery (reshard counts depend on pool timing
    # — a broken pool fails every unfinished future — so they are
    # excluded from determinism assertions; ``worker_crashes`` is not:
    # it is computed from the plan).
    worker_crashes: int = 0
    reshards: int = 0
    resharded_items: int = 0

    # Ingest quarantine.
    quarantined: int = 0
    retried_documents: int = 0

    # Serving degradation.
    degraded_replays: int = 0
    degraded_solves: int = 0
    degraded_edits: int = 0

    def record_fault(self, kind: str, count: int = 1) -> None:
        self.faults_injected[kind] = (
            self.faults_injected.get(kind, 0) + count)

    @property
    def total_faults(self) -> int:
        return sum(self.faults_injected.values())

    def balanced(self) -> bool:
        """Does every injected fault have a recorded outcome?"""
        return self.total_faults == (self.recovered + self.unrecovered
                                     + self.absorbed)

    def describe(self) -> str:
        """Human-readable ledger: only the nonzero lines."""
        lines = []
        if self.faults_injected:
            injected = ", ".join(
                f"{kind}={count}" for kind, count
                in sorted(self.faults_injected.items()))
            lines.append(f"faults injected: {injected} "
                         f"(total {self.total_faults})")
            lines.append(f"outcomes: recovered={self.recovered} "
                         f"unrecovered={self.unrecovered} "
                         f"absorbed={self.absorbed} "
                         f"[{'balanced' if self.balanced() else 'UNBALANCED'}]")
        outcomes = ("faults_injected", "recovered", "unrecovered",
                    "absorbed")
        rounded = {name: round(value, 3)
                   for name, value in self.counters().items()
                   if name not in outcomes}
        active = [f"{name}={value}" for name, value in rounded.items()
                  if value]
        if active:
            lines.append("recovery: " + " ".join(active))
        if not lines:
            return "robustness: no faults, no recoveries"
        return "\n".join(lines)


#: What a chunk or a pool dies of: a lost or unstartable process, or a
#: payload, call or result that does not pickle.
_POOL_FAILURES = (OSError, BrokenProcessPool, pickle.PicklingError,
                  TypeError, AttributeError)


def _run_chunk(run_chunk: Callable, payload: bytes, crash: bool):
    """Worker entry: honour a planned crash, else run the chunk."""
    if crash:
        # A planned worker crash: die the way a real worker does — no
        # exception, no cleanup, the pool just loses the process.
        os._exit(WORKER_CRASH_EXIT)
    return run_chunk(pickle.loads(payload))


def run_sharded(items: Sequence, workers: int, run_chunk: Callable, *,
                faults: FaultPlan | None,
                ledger: RobustnessStats) -> list | None:
    """``run_chunk`` over contiguous chunks of ``items``, one process each.

    ``items`` splits into ``min(workers, len(items))`` contiguous
    chunks.  Each chunk is pickled once here and ``run_chunk`` (a
    picklable module-level callable) receives a private copy, in a
    worker or — when the worker died — in this process, re-run from the
    same bytes; either way the caller's objects are never mutated and
    the results, returned in chunk order, do not depend on which
    workers survived.  A chunk whose index the plan crashes loses its
    worker at entry; the planned crashes, the re-runs and their
    recovery are booked on ``ledger``.  Returns None, having run
    nothing, when the chunks cannot be pickled or no pool can start.
    """
    count = min(workers, len(items))
    bounds = [len(items) * index // count for index in range(count + 1)]
    try:
        payloads = [pickle.dumps(items[bounds[index]:bounds[index + 1]])
                    for index in range(count)]
    except _POOL_FAILURES:
        return None
    crashes = [faults is not None and faults.crashes_worker(index)
               for index in range(count)]
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:                                # pragma: no cover
        context = multiprocessing.get_context()
    results: list = [None] * count
    dead: list[int] = []
    try:
        with ProcessPoolExecutor(max_workers=count,
                                 mp_context=context) as pool:
            futures = [pool.submit(_run_chunk, run_chunk, payload, crash)
                       for payload, crash in zip(payloads, crashes)]
            for index, future in enumerate(futures):
                try:
                    results[index] = future.result()
                except _POOL_FAILURES:
                    dead.append(index)
    except _POOL_FAILURES:
        # No usable pool (a restricted sandbox): the caller's serial
        # path is always correct, only slower.
        return None
    planned = sum(crashes)
    if planned:
        ledger.record_fault("worker-crash", planned)
        ledger.worker_crashes += planned
    for index in dead:
        # A broken pool fails every unfinished future, so which chunks
        # land here is timing-dependent: the reshard counters are
        # excluded from determinism assertions, the results are not.
        ledger.reshards += 1
        ledger.resharded_items += bounds[index + 1] - bounds[index]
        results[index] = _run_chunk(run_chunk, payloads[index], False)
    # The re-runs above masked every planned crash.
    ledger.recovered += planned
    return results
