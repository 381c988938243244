"""kernels — the vectorized numeric backend and multi-core sharding.

The kernel axis (:mod:`repro.kernel`) covers one hot loop, the quiet
(jitter-free) batch replay: it runs on either the pure-python reference
backend or the numpy vectorized backend, bit-identical by construction
and by test (tests/test_kernels.py).  Jittered replays draw once per
event into a serial recurrence and always run on the reference.  The graph solve and the planner's set
intersections have a single scalar implementation each.  The
embarrassingly parallel outer loops — corpus documents, serving
sessions — additionally shard across a process pool via ``workers=N``.

This bench checks the gates recorded in
``benchmarks/baselines/kernels.json``:

* **replay_kernel**: the quiet (jitter-free) batch replay inner loop
  on the numpy backend must beat the python backend by the baseline
  factor (>=5x), with bit-identical replay reports.  Jittered replays
  are exempt: their RNG draw order is part of the pinned output, and
  every jittered plan runs on the python backend whatever the kernel
  choice.
* **ingest_workers**: ``ingest_corpus(workers=4)`` must beat the
  serial run by the baseline factor (>=2x wall-clock) with a
  report identical in everything but the ``*_seconds`` timings.  The
  timing gate needs the cores it is measuring: on machines with fewer
  usable cores than the configured worker count it skips (the
  determinism half still runs).

When the ``BENCH_RESULTS`` environment variable names a file, each
gate merges its measurements into that JSON document — CI uploads the
consolidated ``BENCH_results.json`` as an artifact.

Run directly for a small report::

    PYTHONPATH=src python benchmarks/bench_kernels.py

or through pytest (the CI smoke pass)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_kernels.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro.corpus import generate_corpus, ingest_corpus
from repro.corpus.generate import make_flat_document
from repro.corpus.ingest import INGEST_STAGES
from repro.pipeline.program import BatchPlayer
from repro.transport.environments import WORKSTATION

from results import record_result

BASELINE_PATH = Path(__file__).parent / "baselines" / "kernels.json"
BASELINE = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))

REPLAY = BASELINE["replay_kernel"]
WORKERS = BASELINE["ingest_workers"]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                            # pragma: no cover
        return os.cpu_count() or 1


def _best_of(player: BatchPlayer, replays: int, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for replay in range(replays):
            player.run_one(replay=replay)
        best = min(best, time.perf_counter() - start)
    return best


def test_replay_kernel_speedup():
    """Tentpole acceptance: >=5x quiet batch replay, numpy vs python."""
    pytest.importorskip("numpy")
    quiet = dataclasses.replace(WORKSTATION, name="quiet", jitter_ms=0.0)
    document = make_flat_document(REPLAY["events"],
                                  channels=REPLAY["channels"])
    python = BatchPlayer.for_document(document, quiet, kernel="python")
    numpy_ = BatchPlayer.for_document(document, quiet, kernel="numpy")
    # Bit-identity before speed: same reports, replay by replay.
    for replay in range(3):
        a = python.run_one(replay=replay)
        b = numpy_.run_one(replay=replay)
        assert a.summary() == b.summary()
        assert a.played_count == b.played_count
        assert ([float(v) for v in a._actual_begin] ==
                [float(v) for v in b._actual_begin])
    replays = REPLAY["replays"]
    python_s = _best_of(python, replays)
    numpy_s = _best_of(numpy_, replays)
    speedup = python_s / max(numpy_s, 1e-12)
    print(f"\n[kernels] quiet replay x{replays} @ {REPLAY['events']} "
          f"events: python {python_s * 1000:.1f}ms, "
          f"numpy {numpy_s * 1000:.1f}ms -> {speedup:.1f}x")
    record_result("replay_kernel", {
        "events": REPLAY["events"], "replays": replays,
        "python_ms": round(python_s * 1000, 2),
        "numpy_ms": round(numpy_s * 1000, 2),
        "speedup": round(speedup, 1),
        "floor": REPLAY["min_speedup"]})
    assert speedup >= REPLAY["min_speedup"], (
        f"numpy replay kernel only {speedup:.1f}x faster than python "
        f"(baseline floor {REPLAY['min_speedup']}x)")


def _assert_reports_identical(serial, sharded) -> None:
    """Everything but the ``*_seconds`` timings, entry by entry."""
    assert ([entry.path for entry in serial.documents] ==
            [entry.path for entry in sharded.documents])
    assert ([failure.path for failure in serial.failures] ==
            [failure.path for failure in sharded.failures])
    for stage in INGEST_STAGES:
        assert (serial.stage_documents[stage] ==
                sharded.stage_documents[stage])
        assert serial.stage_events[stage] == sharded.stage_events[stage]
    for a, b in zip(serial.documents, sharded.documents):
        assert ({str(k): v for k, v in a.schedule.times_ms.items()} ==
                {str(k): v for k, v in b.schedule.times_ms.items()})


def test_ingest_workers_speedup(tmp_path):
    """Tentpole acceptance: >=2x ingest wall-clock with workers=4."""
    directory = tmp_path / "corpus"
    generate_corpus(directory, documents=WORKERS["documents"],
                    events=WORKERS["events"])
    workers = WORKERS["workers"]
    serial = ingest_corpus(directory, workers=1)
    sharded = ingest_corpus(directory, workers=workers)
    _assert_reports_identical(serial, sharded)
    cores = _usable_cores()
    speedup = serial.wall_seconds / max(sharded.wall_seconds, 1e-12)
    print(f"\n[kernels] ingest {WORKERS['documents']} docs: serial "
          f"{serial.wall_seconds * 1000:.0f}ms, workers={workers} "
          f"{sharded.wall_seconds * 1000:.0f}ms -> {speedup:.1f}x "
          f"({cores} core(s) usable)")
    record_result("ingest_workers", {
        "documents": WORKERS["documents"], "workers": workers,
        "cores": cores,
        "serial_ms": round(serial.wall_seconds * 1000, 1),
        "sharded_ms": round(sharded.wall_seconds * 1000, 1),
        "speedup": round(speedup, 1),
        "floor": WORKERS["min_speedup"],
        "gated": cores >= workers})
    if cores < workers:
        pytest.skip(f"timing gate needs {workers} cores, "
                    f"{cores} usable (determinism checked above)")
    assert speedup >= WORKERS["min_speedup"], (
        f"ingest workers={workers} only {speedup:.1f}x faster than "
        f"serial (baseline floor {WORKERS['min_speedup']}x)")


def main():
    test_replay_kernel_speedup()
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        try:
            test_ingest_workers_speedup(Path(scratch))
        except Exception as exc:                      # pytest.skip outside
            print(f"  ingest workers timing gate: {exc}")
    print(f"floors              : replay {REPLAY['min_speedup']}x "
          f"(recorded {REPLAY['reference_speedup']}x), ingest workers "
          f"{WORKERS['min_speedup']}x")


if __name__ == "__main__":
    main()
