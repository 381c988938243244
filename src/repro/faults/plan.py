"""Deterministic fault injection: the seeded plan and its clock.

The ROADMAP's fleet posture (serve heavy traffic across a federation of
sites) is only credible if the fleet survives the failures a real
network implies: site outages, latency spikes, corrupt payloads, worker
crashes, transient fetch errors.  This module defines the *injection*
side of that story; :mod:`repro.faults.recovery` defines the policies
that absorb it.

Two properties drive the design:

* **Deterministic** — every fault decision is a pure function of
  ``(seed, kind, key, attempt)`` through a stable hash
  (:meth:`FaultPlan.fires`), never of wall-clock time, process
  identity or call order.  The same plan over the same workload
  injects the same faults in every run, on every worker layout, which
  is what lets the recovery tests pin faulted runs bit-identical to
  fault-free ones (and lets a test *predict* exactly which faults a
  plan will inject).  Time-dependent faults (site flapping) advance on
  a :class:`FaultClock` of logical request ticks, not wall time.
* **Zero-cost when disabled** — every injection site guards on
  ``plan is None`` first; the disabled path is the pre-fault code
  path, unchanged.

Plans parse from a compact spec string (the CLI ``--faults`` grammar,
:func:`parse_fault_plan`) or a JSON file, and the ``REPRO_FAULTS``
environment variable supplies a default plan to the top-level entry
points (ingest, serving, unpacking) for chaos-matrix CI runs —
:func:`resolve_faults`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from repro.core.descriptors import DataBlock
from repro.core.errors import CmifError

#: Environment variable holding a default fault-plan spec (CI chaos
#: matrix); consulted by :func:`resolve_faults` when no explicit plan
#: is given.
FAULTS_ENV = "REPRO_FAULTS"

#: Spec values that explicitly mean "no faults".
_OFF_SPECS = ("", "0", "off", "none")

#: Exit code of a worker process whose crash a plan injected.
WORKER_CRASH_EXIT = 23

#: The denominator of the stable-hash fraction (48 bits is plenty).
_HASH_SCALE = float(1 << 48)

#: Most entries a caller's table of stable hashes (the ``hashes``
#: argument of :meth:`FaultPlan.fires`) holds; a full table is cleared.
FAULT_HASH_CAPACITY = 1 << 16

#: The standard fault plan the availability bench
#: (``benchmarks/bench_faults.py``) gates under: one of the federation
#: sites flapping, 5% transient block-fetch failures, 2% corrupt
#: payloads, one worker-process crash (shard 0), and light transient
#: faults on the ingest and serving paths.
STANDARD_PLAN_SPEC = ("seed=1991,flap=site-1,period=16,blocks=0.05,"
                      "corrupt=0.02,summaries=0.05,ingest=0.05,"
                      "replay=0.05,solve=0.05,crash=0")


class FaultInjected(CmifError):
    """An injected (simulated) fault fired at an injection point.

    Carries the fault ``kind`` and the ``key`` it fired on so recovery
    layers can classify it as an infrastructure failure (it never
    indicates malformed input).
    """

    def __init__(self, kind: str, key: object, message: str) -> None:
        super().__init__(message)
        self.kind = kind
        self.key = key


class FaultClock:
    """A logical clock of request ticks (never wall time).

    Time-windowed faults (site flapping) and circuit-breaker cooldowns
    advance on this clock, one tick per remote attempt, so a run's
    fault timeline is a pure function of its operation sequence.
    """

    def __init__(self, start: int = 0) -> None:
        self.now = start

    def tick(self) -> int:
        """Return the current tick and advance."""
        now = self.now
        self.now += 1
        return now


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic description of what fails, where.

    Rates are probabilities in [0, 1] evaluated per ``(kind, key,
    attempt)`` through the stable hash — a fault that fires on attempt
    0 need not fire on the retry, which is what makes these faults
    *transient*.  All fields default to "off"; a default-constructed
    plan injects nothing.
    """

    seed: int = 0
    #: Sites that are always unreachable (hard outages).
    down_sites: tuple[str, ...] = ()
    #: Sites that flap: down whenever ``(tick // flap_period)`` is odd.
    flap_sites: tuple[str, ...] = ()
    flap_period: int = 8
    #: Latency spikes on otherwise successful remote operations.
    latency_rate: float = 0.0
    latency_spike_ms: float = 250.0
    #: Transient remote block-fetch failures (kind ``block``).
    block_failure_rate: float = 0.0
    #: Corrupt payload delivered by a remote block fetch
    #: (kind ``block-corrupt``; caught by checksum verification).
    block_corrupt_rate: float = 0.0
    #: Transient site-summary refresh failures (kind ``summary``).
    summary_failure_rate: float = 0.0
    #: Corrupt payload inside a transport package
    #: (kind ``package-corrupt``; caught by checksum verification).
    package_corrupt_rate: float = 0.0
    #: Transient per-document infrastructure faults during ingest
    #: (kind ``ingest``).
    ingest_failure_rate: float = 0.0
    #: Compiled-replay failures per (session, replay) (kind ``replay``).
    replay_failure_rate: float = 0.0
    #: Compiled-solver failures per admission (kind ``solve``).
    solve_failure_rate: float = 0.0
    #: Worker-pool shard indexes whose process dies at shard entry.
    crash_shards: tuple[int, ...] = ()

    # -- decisions ---------------------------------------------------------

    def fires(self, rate: float, kind: str, key: object,
              attempt: int = 0, hashes: dict | None = None) -> bool:
        """Does a ``rate`` fault of ``kind`` fire on ``key``/``attempt``?

        A pure function: the stable 48-bit hash of ``(seed, kind, key,
        attempt)`` is compared against ``rate``.  Callers (and tests)
        can therefore predict every injection a plan will make.  A
        caller asking about the same string keys again and again passes
        a ``hashes`` table to keep their hashes in (two strings are
        equal only when their reprs are), bounded by
        :data:`FAULT_HASH_CAPACITY` (a full table is cleared); the
        comparison against ``rate`` still runs on every call.
        """
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        kept = hashes is not None and type(key) is str
        entry = (self.seed, kind, key, attempt)
        hashed = hashes.get(entry) if kept else None
        if hashed is None:
            text = f"{self.seed}|{kind}|{key!r}|{attempt}"
            hashed = int.from_bytes(hashlib.blake2b(
                text.encode("utf-8"), digest_size=6).digest(), "big")
            if kept:
                if len(hashes) >= FAULT_HASH_CAPACITY:
                    hashes.clear()
                hashes[entry] = hashed
        return hashed / _HASH_SCALE < rate

    def site_down(self, site_name: str, tick: int) -> bool:
        """Is ``site_name`` unreachable at logical time ``tick``?"""
        if site_name in self.down_sites:
            return True
        if site_name in self.flap_sites:
            return (tick // max(self.flap_period, 1)) % 2 == 1
        return False

    def crashes_worker(self, shard_index: int) -> bool:
        """Does the worker process of ``shard_index`` die at entry?"""
        return shard_index in self.crash_shards

    def describe(self) -> str:
        """The compact spec-ish summary the CLI prints."""
        parts = [f"seed={self.seed}"]
        if self.down_sites:
            parts.append(f"down={'+'.join(self.down_sites)}")
        if self.flap_sites:
            parts.append(f"flap={'+'.join(self.flap_sites)}"
                         f"/{self.flap_period}")
        for label, rate in (("latency", self.latency_rate),
                            ("blocks", self.block_failure_rate),
                            ("corrupt", self.block_corrupt_rate),
                            ("summaries", self.summary_failure_rate),
                            ("packages", self.package_corrupt_rate),
                            ("ingest", self.ingest_failure_rate),
                            ("replay", self.replay_failure_rate),
                            ("solve", self.solve_failure_rate)):
            if rate > 0:
                parts.append(f"{label}={rate:g}")
        if self.crash_shards:
            parts.append(
                f"crash={'+'.join(map(str, self.crash_shards))}")
        return f"faults({', '.join(parts)})"


def corrupt_block(block: DataBlock) -> DataBlock:
    """A copy of ``block`` with its payload deterministically damaged.

    The damage is guaranteed to change the payload (and therefore the
    checksum): the first unit of the payload is bit-flipped, or a
    sentinel is appended when the payload is empty.  Used by the
    injection sites that simulate corruption-in-transport; the
    receiving side's checksum verification is what must catch it.
    """
    payload = block.payload
    corrupted = _corrupt_payload(payload)
    return DataBlock(block_id=block.block_id, medium=block.medium,
                     payload=corrupted)


def _corrupt_payload(payload: object) -> object:
    if isinstance(payload, str):
        if not payload:
            return "\x01"
        return chr(ord(payload[0]) ^ 1) + payload[1:]
    if isinstance(payload, (bytes, bytearray)):
        raw = bytearray(payload)
        if not raw:
            return b"\x01"
        raw[0] ^= 1
        return bytes(raw)
    if callable(payload):
        return _corrupt_payload(payload())
    # Array payloads: flip one bit of the raw bytes, same dtype/shape.
    try:
        import numpy as np
    except ImportError:                               # pragma: no cover
        return b"\x01"
    array = np.asarray(payload)
    raw = bytearray(array.tobytes())
    if not raw:                                       # pragma: no cover
        return array
    raw[0] ^= 1
    return np.frombuffer(bytes(raw),
                         dtype=array.dtype).reshape(array.shape).copy()


# -- spec parsing -------------------------------------------------------------

#: spec key -> (FaultPlan field, parser).
_SPEC_KEYS = {
    "seed": ("seed", int),
    "down": ("down_sites", lambda text: tuple(text.split("+"))),
    "flap": ("flap_sites", lambda text: tuple(text.split("+"))),
    "period": ("flap_period", int),
    "flap-period": ("flap_period", int),
    "latency": ("latency_rate", float),
    "latency-ms": ("latency_spike_ms", float),
    "blocks": ("block_failure_rate", float),
    "corrupt": ("block_corrupt_rate", float),
    "summaries": ("summary_failure_rate", float),
    "packages": ("package_corrupt_rate", float),
    "ingest": ("ingest_failure_rate", float),
    "replay": ("replay_failure_rate", float),
    "solve": ("solve_failure_rate", float),
    "crash": ("crash_shards",
              lambda text: tuple(int(part) for part in text.split("+"))),
}


def parse_fault_plan(spec: "str | dict | FaultPlan | None"
                     ) -> FaultPlan | None:
    """Parse a fault-plan spec: ``k=v`` CSV, JSON, or a JSON file path.

    The CSV grammar is the CLI's ``--faults`` argument::

        seed=7,flap=delft,period=16,blocks=0.05,crash=0

    Multi-valued keys join entries with ``+`` (``down=a+b``,
    ``crash=0+2``).  A JSON object (inline or in a file) uses the
    :class:`FaultPlan` field names directly.  ``None`` and the literal
    specs ``""``/``"0"``/``"off"``/``"none"`` parse to ``None``.
    """
    if spec is None or isinstance(spec, FaultPlan):
        return spec
    if isinstance(spec, dict):
        return _plan_from_obj(spec)
    text = spec.strip()
    if text.lower() in _OFF_SPECS:
        return None
    if text.lower() == "standard":
        text = STANDARD_PLAN_SPEC
    if not text.startswith("{"):
        candidate = Path(text)
        if candidate.suffix == ".json" or candidate.is_file():
            try:
                text = candidate.read_text(encoding="utf-8").strip()
            except OSError as exc:
                raise CmifError(
                    f"cannot read fault plan file {spec!r}: {exc}") \
                    from None
    if text.startswith("{"):
        try:
            return _plan_from_obj(json.loads(text))
        except json.JSONDecodeError as exc:
            raise CmifError(f"malformed JSON fault plan: {exc}") from None
    values: dict[str, object] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, separator, raw = part.partition("=")
        if not separator:
            raise CmifError(f"fault plan entries are key=value, "
                            f"got {part!r}")
        entry = _SPEC_KEYS.get(key.strip())
        if entry is None:
            raise CmifError(f"unknown fault plan key {key!r}; expected "
                            f"one of {sorted(_SPEC_KEYS)}")
        field_name, parser = entry
        try:
            values[field_name] = parser(raw.strip())
        except ValueError:
            raise CmifError(f"bad fault plan value for {key}: "
                            f"{raw!r}") from None
    return _checked_plan(values)


def _is_list_of(kind):
    return lambda value: isinstance(value, (list, tuple)) and all(
        isinstance(item, kind) for item in value)


#: What each field of the JSON form holds, rates apart.
_OBJ_FIELDS = {
    "seed": lambda value: isinstance(value, int),
    "flap_period": lambda value: isinstance(value, int),
    "latency_spike_ms": lambda value: isinstance(value, (int, float)),
    "down_sites": _is_list_of(str),
    "flap_sites": _is_list_of(str),
    "crash_shards": _is_list_of(int),
}


def _plan_from_obj(obj: dict) -> FaultPlan:
    known = {field.name for field in fields(FaultPlan)}
    unknown = set(obj) - known
    if unknown:
        raise CmifError(f"unknown fault plan fields: {sorted(unknown)}")
    values = dict(obj)
    for name, holds in _OBJ_FIELDS.items():
        if name not in values:
            continue
        value = values[name]
        if not holds(value):
            raise CmifError(f"bad fault plan value for {name}: {value!r}")
        if isinstance(value, list):
            values[name] = tuple(value)
    return _checked_plan(values)


def _checked_plan(values: dict) -> FaultPlan:
    """The plan of parsed ``values``, every rate a probability.

    :meth:`FaultPlan.fires` reads a rate above 1 as 1 and one below 0
    as 0, so refusing those takes no meaning away; a rate that is not a
    number (or is NaN) would fail or never fire.
    """
    for field in fields(FaultPlan):
        rate = values.get(field.name, 0.0)
        if field.name.endswith("_rate") and not (
                isinstance(rate, (int, float)) and 0.0 <= rate <= 1.0):
            raise CmifError(f"fault plan {field.name} must be a "
                            f"probability in [0, 1], got {rate!r}")
    return FaultPlan(**values)


def resolve_faults(faults: "FaultPlan | str | None") -> FaultPlan | None:
    """The effective plan for a top-level entry point.

    Explicit plans (instances or spec strings) win; ``None`` consults
    the ``REPRO_FAULTS`` environment variable so CI can run the whole
    tier-1 suite under a chaos plan without touching every call site.
    Returns ``None`` when no plan is configured — the zero-cost path.
    """
    if faults is not None:
        return parse_fault_plan(faults)
    return parse_fault_plan(os.environ.get(FAULTS_ENV))
