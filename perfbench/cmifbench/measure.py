"""Timing helpers shared by the workloads: the timed phase and stats.

Wall-clock figures are reported at a *nominal machine speed*.  On a
shared virtual machine the speed of one core swings by half or more
within a minute as neighbours come and go, which no amount of work per
run averages away.  So the timed phase interleaves a small, fixed slice
of pure-Python work (:func:`calibrate`) every tenth of a second, and each
rate or latency is scaled by how much slower than :data:`NOMINAL_S` the
calibration ran at that moment: a figure reads as it would on a machine
where the calibration slice takes exactly :data:`NOMINAL_S`.  The raw
figures and the calibration itself are reported alongside.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import resource
import statistics
import time

clock = time.perf_counter

#: Seconds the calibration slice takes at nominal machine speed.
NOMINAL_S = 300e-6
#: Seconds of phase time between two calibrations.
CALIBRATE_EVERY_S = 0.1


def calibrate() -> float:
    """Seconds one fixed slice of dict and integer work takes now (the
    best of three, so a single preemption does not count)."""
    best = math.inf
    for _ in range(3):
        start = clock()
        table: dict[int, int] = {}
        total = 0
        for index in range(3000):
            table[index & 255] = total
            total += (index * 7) % 13
        best = min(best, clock() - start)
    return best


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Phase:
    """The timed phase of one workload run.

    Work is credited in *units* (events ingested, sessions completed)
    with the measured seconds it took; each credit's seconds are scaled
    to nominal speed by the calibration nearest in time, and the rate is
    all units over all scaled seconds.  The phase runs until ``seconds``
    have passed and at least ``min_ops`` operations completed (the
    digest covers a fixed prefix of them), or until ``max_ops``
    operations (small deterministic test runs).
    """

    def __init__(self, seconds: float, *, min_ops: int = 0,
                 max_ops: int | None = None) -> None:
        self.seconds = seconds
        self.min_ops = min_ops
        self.max_ops = max_ops
        self.ops = 0
        #: (time credited, units, measured seconds) per credit.
        self.credits: list[tuple[float, int, float]] = []
        #: (time recorded, raw milliseconds) per latency sample.
        self.samples: list[tuple[float, float]] = []
        #: (time, calibration seconds), in time order.
        self.calibrations: list[tuple[float, float]] = []
        self.started = 0.0
        self.wall_s = 0.0

    def start(self) -> None:
        self._calibrate()
        self.started = clock()

    def running(self) -> bool:
        if self.max_ops is not None:
            return self.ops < self.max_ops
        return (self.ops < self.min_ops
                or clock() - self.started < self.seconds)

    def _calibrate(self) -> None:
        seconds = calibrate()
        self.calibrations.append((clock(), seconds))

    def _tick(self) -> None:
        if clock() - self.calibrations[-1][0] >= CALIBRATE_EVERY_S:
            self._calibrate()

    def add(self, units: int, seconds: float) -> None:
        """Credit ``units`` of work done in ``seconds`` of measured time."""
        self.credits.append((clock(), units, seconds))
        self._tick()

    def record(self, latencies_ms) -> None:
        """Latency samples (ms) of operations that just finished."""
        now = clock()
        self.samples.extend((now, value) for value in latencies_ms)
        self._tick()

    def finish(self) -> None:
        self.wall_s = clock() - self.started
        self._calibrate()

    # -- figures at nominal speed ----------------------------------------

    def slowdowns(self, moments) -> list[float]:
        """How much slower than nominal the machine ran at each moment:
        the calibration nearest in time over :data:`NOMINAL_S`."""
        times = [when for when, _ in self.calibrations]
        factors = []
        for at in moments:
            index = bisect.bisect_left(times, at)
            near = [candidate for candidate in (index - 1, index)
                    if 0 <= candidate < len(times)]
            best = min(near, key=lambda candidate:
                       abs(times[candidate] - at))
            factors.append(self.calibrations[best][1] / NOMINAL_S)
        return factors

    @property
    def rate(self) -> float:
        """Units per second of measured time, at nominal speed."""
        factors = self.slowdowns(at for at, _, _ in self.credits)
        nominal = sum(seconds / factor for (_, _, seconds), factor
                      in zip(self.credits, factors))
        return self.units / nominal if nominal > 0 else 0.0

    @property
    def raw_rate(self) -> float:
        """Units per second of measured time, as on the wall clock."""
        measured = sum(seconds for _, _, seconds in self.credits)
        return self.units / measured if measured > 0 else 0.0

    @property
    def units(self) -> int:
        return sum(units for _, units, _ in self.credits)

    @property
    def latencies_ms(self) -> list[float]:
        """Latency samples at nominal speed."""
        factors = self.slowdowns(at for at, _ in self.samples)
        return [value / factor
                for (_, value), factor in zip(self.samples, factors)]

    @property
    def raw_latencies_ms(self) -> list[float]:
        return [value for _, value in self.samples]

    @property
    def calibration_s(self) -> float:
        """Median calibration time over the phase."""
        return statistics.median(seconds for _, seconds
                                 in self.calibrations)


class Digest:
    """A running SHA-256 over the repr of deterministic outcomes."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *values) -> None:
        self._hash.update(repr(values).encode("utf-8"))

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]
