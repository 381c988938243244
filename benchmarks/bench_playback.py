"""playback — batch replay throughput of the compiled serving path.

The ROADMAP's "millions of users" north-star makes the *player* the
dominant workload: one authored document is replayed thousands of times
under different jitter seeds, rates, seeks and device models.  The seed
``Player.play()`` loop paid document-shaped costs on every run (schedule
copies, tree walks, per-arc path resolution, an object per event); the
compiled engine (:mod:`repro.pipeline.program`) pays them once and
replays pure array arithmetic.

This bench runs both paths over the same ~200-event document and checks
the gates recorded in ``benchmarks/baselines/playback.json``:

* **replay**: 1000 batch replays must beat the interpretive per-replay
  cost by the baseline factor (>=10x), with sampled batch reports
  bit-identical to the reference player;
* **sweep**: a rate x seek x environment grid through
  ``BatchPlayer.sweep`` must also clear its floor — transforms are
  arithmetic, not schedule copies.

When the ``BENCH_RESULTS`` environment variable names a file, each
gate merges its measurements into that JSON document — CI uploads the
consolidated ``BENCH_results.json`` as an artifact.

Run directly for a small report::

    PYTHONPATH=src python benchmarks/bench_playback.py

or through pytest (the CI smoke pass)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_playback.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.core.builder import DocumentBuilder
from repro.pipeline.player import Player
from repro.pipeline.program import BatchPlayer
from repro.timing import schedule_document
from repro.transport.environments import PROFILES, WORKSTATION

from results import record_result

BASELINE_PATH = Path(__file__).parent / "baselines" / "playback.json"
BASELINE = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))

REPLAY = BASELINE["replay"]
SWEEP = BASELINE["sweep"]

_MEDIA = ("video", "audio", "image", "text")

#: 20 sections x 10 leaves = 200 events, ~38 explicit arcs.
SECTIONS = 20
EVENTS_PER = 10

#: Reference replays actually run (per-replay cost is what matters;
#: the batch side runs the full gated count).
REFERENCE_RUNS = 120


def make_serving_document():
    """A broadcast-shaped ~200-event document with cross-section arcs."""
    builder = DocumentBuilder("broadcast", root_kind="seq")
    channels = []
    for index in range(6):
        name = f"ch{index}"
        builder.channel(name, _MEDIA[index % len(_MEDIA)])
        channels.append(name)
    leaves = {}
    for section in range(SECTIONS):
        opener = builder.seq if section % 3 else builder.par
        with opener(f"sec{section}"):
            for event in range(EVENTS_PER):
                name = f"e{section}-{event}"
                leaves[(section, event)] = builder.imm(
                    name, channel=channels[event % len(channels)],
                    medium=_MEDIA[(section + event) % len(_MEDIA)],
                    data=f"{section}/{event}",
                    duration=float(400 + 210 * ((section + event) % 11)))
    document = builder.build(validate=False)
    for section in range(1, SECTIONS):
        # One relaxable bounded arc and one unbounded must arc per
        # section, anchored in the previous section.
        builder.arc(leaves[(section, 0)],
                    source=f"/sec{section - 1}/e{section - 1}-0",
                    destination=".", strictness="may",
                    min_delay=-25.0, max_delay=250.0)
        builder.arc(leaves[(section, 3)],
                    source=f"/sec{section - 1}/e{section - 1}-5",
                    destination=".", src_anchor="end",
                    strictness="must", min_delay=-50.0, max_delay=None)
    return document


@pytest.fixture(scope="module")
def schedule():
    return schedule_document(make_serving_document().compile())


def reference_per_replay_s(schedule, *, runs: int = REFERENCE_RUNS,
                           rate: float = 1.0,
                           seek_to_ms: float = 0.0) -> float:
    """Per-replay cost of the interpretive (seed) playback loop."""
    player = Player(WORKSTATION, seed=0)
    start = time.perf_counter()
    for replay in range(runs):
        player.play_reference(schedule, rate=rate, seek_to_ms=seek_to_ms,
                              rng=player.rng_for(replay))
    return (time.perf_counter() - start) / runs


def assert_identical(compact, reference) -> None:
    report = compact.materialize()
    assert report.played == reference.played
    assert report.audits == reference.audits
    assert report.navigation_conflicts == reference.navigation_conflicts
    assert report.max_skew_ms == reference.max_skew_ms


def test_batch_replay_throughput(schedule):
    """Tentpole acceptance: >=10x over the seed loop at 1000 replays."""
    replays = REPLAY["replays"]
    events = len(schedule.events)
    reference_s = reference_per_replay_s(schedule)

    batch = BatchPlayer(schedule, WORKSTATION, seed=0)
    batch.run_one()  # compile + transform warm-up outside the clock
    start = time.perf_counter()
    reports = batch.replay_many(replays)
    batch_s = (time.perf_counter() - start) / replays

    speedup = reference_s / max(batch_s, 1e-12)
    events_per_s = events / max(batch_s, 1e-12)
    print(f"\n[playback] replay @ {events} events: reference "
          f"{reference_s * 1000:.3f}ms/run, batch "
          f"{batch_s * 1000:.3f}ms/run over {replays} replays "
          f"({events_per_s:,.0f} events/s) -> {speedup:.0f}x")

    player = Player(WORKSTATION, seed=0)
    for replay in (0, replays // 2, replays - 1):
        assert_identical(reports[replay], player.play_reference(
            schedule, rng=player.rng_for(replay)))

    record_result("playback_replay", {
        "events": events, "replays": replays,
        "reference_ms": round(reference_s * 1000, 4),
        "batch_ms": round(batch_s * 1000, 4),
        "events_per_s": round(events_per_s),
        "speedup": round(speedup, 1),
        "floor": REPLAY["min_speedup"]})
    assert speedup >= REPLAY["min_speedup"], (
        f"batch replay only {speedup:.1f}x faster than the seed loop "
        f"(baseline floor {REPLAY['min_speedup']}x)")


def test_sweep_throughput(schedule):
    """The rate x seek x environment grid must clear its own floor."""
    rates = tuple(SWEEP["rates"])
    seeks_ms = tuple(seek * 1000.0 for seek in SWEEP["seeks_s"])
    replays = SWEEP["replays_per_cell"]

    # Reference cost of one grid cell replay, averaged over the grid's
    # rate/seek configurations (environment does not change the work).
    reference_runs = max(10, REFERENCE_RUNS // (len(rates) * len(seeks_ms)))
    reference_s = sum(
        reference_per_replay_s(schedule, runs=reference_runs, rate=rate,
                               seek_to_ms=seek)
        for rate in rates for seek in seeks_ms
    ) / (len(rates) * len(seeks_ms))

    batch = BatchPlayer(schedule, WORKSTATION, seed=0)
    start = time.perf_counter()
    cells = batch.sweep(PROFILES, rates, seeks_ms, replays=replays)
    elapsed = time.perf_counter() - start
    runs = sum(len(cell.reports) for cell in cells)
    batch_s = elapsed / runs

    speedup = reference_s / max(batch_s, 1e-12)
    print(f"\n[playback] sweep: {len(cells)} cells x {replays} replays "
          f"in {elapsed * 1000:.1f}ms ({batch_s * 1000:.3f}ms/run) "
          f"-> {speedup:.0f}x")
    assert len(cells) == len(PROFILES) * len(rates) * len(seeks_ms)
    record_result("playback_sweep", {
        "cells": len(cells), "replays_per_cell": replays,
        "reference_ms": round(reference_s * 1000, 4),
        "batch_ms": round(batch_s * 1000, 4),
        "speedup": round(speedup, 1),
        "floor": SWEEP["min_speedup"]})
    assert speedup >= SWEEP["min_speedup"], (
        f"sweep replays only {speedup:.1f}x faster than the seed loop "
        f"(baseline floor {SWEEP['min_speedup']}x)")


def main():
    document = make_serving_document()
    timeline = schedule_document(document.compile())
    events = len(timeline.events)
    reference_s = reference_per_replay_s(timeline)
    batch = BatchPlayer(timeline, WORKSTATION, seed=0)
    batch.run_one()
    replays = REPLAY["replays"]
    start = time.perf_counter()
    batch.replay_many(replays)
    batch_s = (time.perf_counter() - start) / replays
    print(f"document            : {events} events, "
          f"{len(batch.program.audit_arcs)} audited arcs")
    print(f"reference replay    : {reference_s * 1000:.3f}ms/run")
    print(f"batch replay        : {batch_s * 1000:.3f}ms/run "
          f"({events / batch_s:,.0f} events/s)")
    print(f"speedup             : {reference_s / batch_s:.0f}x "
          f"(floor {REPLAY['min_speedup']}x)")


if __name__ == "__main__":
    main()
