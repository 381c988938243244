"""Deterministic fault injection and recovery (see ARCHITECTURE.md).

The injection side (:class:`FaultPlan`, :class:`FaultClock`) is a
seeded, order-independent description of what fails; the recovery side
(:class:`RetryPolicy`, :class:`CircuitBreaker`,
:class:`RobustnessStats`) is how the store, federation, ingest, and
serving layers survive it — and the ledger proving they did.
:func:`run_sharded` is the crash-tolerant process pool the ingest and
serving layers shard their work through.
"""

from repro.faults.plan import (FAULTS_ENV, STANDARD_PLAN_SPEC,
                               WORKER_CRASH_EXIT, FaultClock, FaultInjected,
                               FaultPlan, corrupt_block, parse_fault_plan,
                               resolve_faults)
from repro.faults.recovery import (CircuitBreaker, RetryPolicy,
                                   RobustnessStats, run_sharded)

__all__ = [
    "FAULTS_ENV",
    "STANDARD_PLAN_SPEC",
    "WORKER_CRASH_EXIT",
    "CircuitBreaker",
    "FaultClock",
    "FaultInjected",
    "FaultPlan",
    "RetryPolicy",
    "RobustnessStats",
    "corrupt_block",
    "parse_fault_plan",
    "resolve_faults",
    "run_sharded",
]
