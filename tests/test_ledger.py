"""Tests for the shared ledger algebra (repro.ledger).

Every stats ledger derives ``snapshot``/``delta_since``/``merge``/
``reset``/``counters``/``empty`` from its fields, so one parametrized
round trip covers them all: whatever moved after a snapshot, folded
back into that snapshot, reproduces the live ledger.
"""

import dataclasses

import pytest

from repro.corpus.ingest import IngestReport
from repro.faults import RobustnessStats
from repro.ledger import Ledger
from repro.pipeline.patch import EditRecord
from repro.serving.engine import EnvironmentStats
from repro.store.datastore import StoreStats
from repro.store.distributed import TrafficStats
from repro.timing.incremental import EngineStats
from repro.timing.schedule import ScheduleCache

LEDGERS = {
    "robustness": RobustnessStats,
    "traffic": TrafficStats,
    "store": StoreStats,
    "environment": lambda: EnvironmentStats(name="workstation"),
    "ingest": lambda: IngestReport(schedule_cache=ScheduleCache()),
    "edit": lambda: EditRecord(op="retime", subject="/story/clip"),
    "engine": EngineStats,
}


def _bump(ledger, step: int) -> None:
    """Move every counter: numbers grow, dicts and lists gain an entry,
    nested ledgers recurse.  Names, modes and handles stay put."""
    for spec in dataclasses.fields(ledger):
        value = getattr(ledger, spec.name)
        if isinstance(value, Ledger):
            _bump(value, step)
        elif isinstance(value, dict):
            value[f"kind-{step}"] = step
        elif isinstance(value, list):
            value.append(f"entry-{step}")
        elif isinstance(value, (int, float)):
            setattr(ledger, spec.name, value + step)


def _pass_through(ledger) -> dict:
    return {spec.name: getattr(ledger, spec.name)
            for spec in dataclasses.fields(ledger)
            if isinstance(getattr(ledger, spec.name), str)
            or spec.name.endswith("_cache")}


@pytest.mark.parametrize("make", LEDGERS.values(), ids=LEDGERS.keys())
def test_delta_merge_round_trip(make):
    ledger = make()
    assert ledger.empty
    _bump(ledger, 1)
    kept = _pass_through(ledger)
    before = ledger.snapshot()
    _bump(ledger, 2)
    assert before.counters() != ledger.counters()

    delta = ledger.delta_since(before)
    for spec in dataclasses.fields(delta):
        value = getattr(delta, spec.name)
        if isinstance(value, dict):
            # Keys that did not move since the snapshot are dropped.
            assert set(value) == {"kind-2"}
    before.merge(delta)
    assert before.counters() == ledger.counters()

    ledger.reset()
    assert ledger.empty
    assert not before.empty
    for name, value in kept.items():
        assert getattr(ledger, name) is value


def test_merge_folds_shared_counters_across_classes():
    record = EditRecord(op="retime", subject="/clip", mode="patched",
                        events_touched=3, programs_patched=2,
                        wall_seconds=0.5)
    stats = EngineStats(edits=1)
    stats.merge(record)
    stats.merge(record)
    assert stats.events_touched == 6 and stats.programs_patched == 4
    assert stats.edits == 1 and stats.last_mode == ""


def test_traffic_counters_keep_total_bytes():
    traffic = TrafficStats(descriptor_bytes=5, payload_bytes=7,
                           summary_bytes=1, placement_bytes=2)
    assert traffic.counters()["total_bytes"] == 15
