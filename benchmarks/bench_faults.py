"""faults — availability and recovery under the standard fault plan.

PR 9 added the deterministic fault-injection and recovery layer
(:mod:`repro.faults`): a seeded :class:`~repro.faults.FaultPlan`
describing site outages, transient block failures, corrupt payloads,
worker crashes and serving-path faults, plus the recovery machinery
(retry with backoff, per-site circuit breakers, replica failover,
crash re-sharding, degraded interpretive replay) that survives it.
Every recovery action lands in a :class:`~repro.faults.RobustnessStats`
ledger whose accounting identity — ``total_faults == recovered +
unrecovered + absorbed`` — is what these gates lean on.

This bench checks the gates recorded in
``benchmarks/baselines/faults.json``, all under the *standard* plan
(``repro.faults.STANDARD_PLAN_SPEC``: one of four federation sites
flapping, 5% transient block failures, 2% corrupt payloads, one
worker-process crash, light serving/ingest fault rates):

* **federation_recovery**: a replicated 4-site federation must answer
  every descriptor/payload/search query with values identical to the
  fault-free run — failover, retries and stale summaries mask every
  injected fault (``unrecovered == 0``), and the ledger balances.
* **serving_availability**: at least ``min_complete`` (0.99) of the
  fault-free run's replays must complete under the plan, with the
  per-environment rows bit-identical to fault-free serving in
  everything a fault did not touch (the ``degraded`` counter and wall
  times are the only permitted deltas).
* **ingest_recovery**: a sharded ingest under the plan (including the
  injected worker crash) must produce the same documents and schedules
  as the serial fault-free run, with no document lost to quarantine.
* **overhead**: the engine with faults *armed* must stay within
  ``max_armed_ratio`` of the faults-disabled run on the same workload,
  and the disabled run must report an empty robustness ledger (the
  disabled path does no fault work at all).  The PR-4/PR-5 absolute
  floors for the disabled path are still gated where they always were
  (``bench_ingest.py``, ``bench_serving.py``).

When the ``BENCH_RESULTS`` environment variable names a file, each
gate merges its measurements into that JSON document — CI uploads the
consolidated ``BENCH_results.json`` as an artifact.

Run directly for a small report::

    PYTHONPATH=src python benchmarks/bench_faults.py

or through pytest (the CI smoke pass)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_faults.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.cli import load_document
from repro.corpus import generate_corpus, generate_serving_corpus, \
    ingest_corpus
from repro.faults import parse_fault_plan
from repro.pipeline.capture import CaptureSession
from repro.serving import SessionEngine
from repro.store import (DataStore, FederatedStore, MatchesAttr,
                         NetworkModel, Site)
from repro.transport.environments import PROFILES

from results import record_result

BASELINE_PATH = Path(__file__).parent / "baselines" / "faults.json"
BASELINE = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))

FEDERATION = BASELINE["federation_recovery"]
SERVING = BASELINE["serving_availability"]
INGEST = BASELINE["ingest_recovery"]
OVERHEAD = BASELINE["overhead"]

#: The standard plan every gate runs under (ISSUE 9's scenario).
STANDARD = parse_fault_plan("standard")


# -- federation ------------------------------------------------------------

def _build_store(faults) -> FederatedStore:
    """Four sites (site-0 local); every capture held by two remotes.

    The standard plan flaps ``site-1``, so replication is what keeps
    its descriptors reachable while it is down.
    """
    captures = [(f"doc-{index}/clip", ("news", f"topic-{index % 3}"))
                for index in range(FEDERATION["captures"])]
    stores = {name: DataStore(name)
              for name in ("site-0", "site-1", "site-2", "site-3")}
    sessions = {name: CaptureSession(store=store, seed=index)
                for index, (name, store) in enumerate(stores.items())}
    remotes = ("site-1", "site-2", "site-3")
    for index, (file_id, keywords) in enumerate(captures):
        primary = remotes[index % len(remotes)]
        sessions[primary].capture_text(file_id, keywords=keywords)
        replica = remotes[(index + 1) % len(remotes)]
        descriptor = stores[primary].descriptor(file_id)
        block = stores[primary].block_for(file_id)
        stores[replica].register(descriptor, block)
    sites = {name: Site(name=name, store=store,
                        network=NetworkModel(latency_ms=10.0))
             for name, store in stores.items()}
    return FederatedStore(sites["site-0"],
                          [sites["site-1"], sites["site-2"],
                           sites["site-3"]],
                          faults=faults)


def test_federation_recovery():
    """Every query answered identically to fault-free; ledger balances."""
    plain = _build_store(None)
    faulted = _build_store(STANDARD)
    ids = [f"doc-{index}/clip" for index in range(FEDERATION["captures"])]
    mismatches = 0
    for round_index in range(FEDERATION["rounds"]):
        for file_id in ids:
            expected = plain.block_for(file_id).materialize()
            actual = faulted.block_for(file_id).materialize()
            mismatches += expected != actual
        want = plain.find_where(MatchesAttr("medium", "text"))
        got = faulted.find_where(MatchesAttr("medium", "text"))
        mismatches += (sorted(d.descriptor_id for d in want) !=
                       sorted(d.descriptor_id for d in got))
    ledger = faulted.traffic.robustness
    queries = FEDERATION["rounds"] * (len(ids) + 1)
    print(f"\n[faults] federation: {queries} queries, "
          f"{ledger.total_faults} fault(s) injected, "
          f"{ledger.failovers} failover(s), {ledger.retries} retr(y/ies), "
          f"{ledger.stale_summaries} stale summar(y/ies)")
    record_result("federation_recovery", {
        "queries": queries, "mismatches": mismatches,
        "faults": ledger.total_faults, "recovered": ledger.recovered,
        "unrecovered": ledger.unrecovered, "absorbed": ledger.absorbed,
        "failovers": ledger.failovers, "retries": ledger.retries,
        "breaker_opens": ledger.breaker_opens,
        "stale_summaries": ledger.stale_summaries})
    assert mismatches == 0, f"{mismatches} quer(y/ies) answered wrong"
    assert plain.traffic.robustness.empty, "fault-free run kept a ledger"
    assert ledger.total_faults >= FEDERATION["min_faults"], (
        f"standard plan only injected {ledger.total_faults} fault(s); "
        f"the gate needs >= {FEDERATION['min_faults']} to mean anything")
    assert ledger.unrecovered == 0, (
        f"{ledger.unrecovered} fault(s) escaped recovery")
    assert ledger.balanced(), "robustness ledger does not balance"


# -- serving ---------------------------------------------------------------

def _row_key(row):
    """Everything a fault may not change (``degraded`` and wall times
    are the recovery layer's only permitted footprint)."""
    return (row.name, row.sessions, row.playable, row.filtered,
            row.rejected, row.replays, row.events_played,
            row.navigations)


def _serving_documents(directory: Path) -> list:
    generate_serving_corpus(directory, documents=SERVING["documents"],
                            events=SERVING["events"],
                            seed=SERVING["seed"])
    return [load_document(str(path))
            for path in sorted(directory.glob("*.cmif*"))]


def test_serving_availability(tmp_path):
    """>=99% of replays complete under the plan, rows pinned identical."""
    documents = _serving_documents(tmp_path / "catalog")
    plain = SessionEngine(seed=SERVING["engine_seed"]).serve(
        documents, PROFILES, sessions_per_pair=SERVING["sessions"],
        replays=SERVING["replays"])
    faulted = SessionEngine(seed=SERVING["engine_seed"],
                            faults=STANDARD).serve(
        documents, PROFILES, sessions_per_pair=SERVING["sessions"],
        replays=SERVING["replays"], workers=SERVING["workers"])
    ledger = faulted.robustness
    availability = (faulted.replays / plain.replays) if plain.replays \
        else 1.0
    print(f"\n[faults] serving: {faulted.replays}/{plain.replays} "
          f"replay(s) completed ({availability:.2%}), "
          f"{ledger.total_faults} fault(s), {ledger.degraded_replays} "
          f"degraded replay(s), {ledger.degraded_solves} degraded "
          f"solve(s), {ledger.worker_crashes} worker crash(es)")
    record_result("serving_availability", {
        "replays": faulted.replays, "fault_free_replays": plain.replays,
        "availability": round(availability, 4),
        "faults": ledger.total_faults,
        "degraded_replays": ledger.degraded_replays,
        "degraded_solves": ledger.degraded_solves,
        "worker_crashes": ledger.worker_crashes,
        "reshards": ledger.reshards,
        "min_complete": SERVING["min_complete"]})
    assert plain.robustness.empty, "fault-free serve kept a ledger"
    assert availability >= SERVING["min_complete"], (
        f"only {availability:.2%} of replays completed under the "
        f"standard plan (floor {SERVING['min_complete']:.0%})")
    assert ([_row_key(row) for row in faulted.environments] ==
            [_row_key(row) for row in plain.environments]), (
        "fault-untouched serving rows differ from fault-free serving")
    assert ledger.total_faults >= SERVING["min_faults"]
    assert ledger.unrecovered == 0, (
        f"{ledger.unrecovered} serving fault(s) escaped recovery")
    assert ledger.balanced(), "serving robustness ledger does not balance"


# -- ingest ----------------------------------------------------------------

def test_ingest_recovery(tmp_path):
    """Sharded ingest under the plan (crash included) pins the report."""
    directory = tmp_path / "corpus"
    generate_corpus(directory, documents=INGEST["documents"],
                    events=INGEST["events"], seed=INGEST["seed"])
    plain = ingest_corpus(directory, workers=1)
    faulted = ingest_corpus(directory, workers=INGEST["workers"],
                            faults=STANDARD)
    ledger = faulted.robustness
    print(f"\n[faults] ingest: {len(faulted.documents)}/"
          f"{len(plain.documents)} document(s), {ledger.total_faults} "
          f"fault(s), {ledger.retried_documents} retried, "
          f"{ledger.quarantined} quarantined, {ledger.worker_crashes} "
          f"worker crash(es)")
    record_result("ingest_recovery", {
        "documents": len(faulted.documents),
        "faults": ledger.total_faults,
        "retried_documents": ledger.retried_documents,
        "quarantined": ledger.quarantined,
        "worker_crashes": ledger.worker_crashes,
        "reshards": ledger.reshards})
    assert plain.robustness.empty, "fault-free ingest kept a ledger"
    assert not plain.failures and not faulted.failures
    assert ([entry.path for entry in faulted.documents] ==
            [entry.path for entry in plain.documents])
    for a, b in zip(plain.documents, faulted.documents):
        assert ({str(k): v for k, v in a.schedule.times_ms.items()} ==
                {str(k): v for k, v in b.schedule.times_ms.items()})
    assert ledger.unrecovered == 0, (
        f"{ledger.unrecovered} ingest fault(s) escaped recovery")
    assert ledger.balanced(), "ingest robustness ledger does not balance"


# -- overhead --------------------------------------------------------------

def _time_serve(documents, faults) -> tuple[float, object]:
    best = float("inf")
    report = None
    engine = SessionEngine(seed=SERVING["engine_seed"], faults=faults)
    for _ in range(OVERHEAD["rounds"]):
        start = time.perf_counter()
        report = engine.serve(documents, PROFILES,
                              sessions_per_pair=SERVING["sessions"],
                              replays=SERVING["replays"])
        best = min(best, time.perf_counter() - start)
    return best, report


def test_overhead(tmp_path):
    """Armed-but-idle fault machinery stays within the ratio cap.

    The gated ratio arms a *zero-rate* plan (every injection point
    consulted, nothing fires) against the faults-disabled run — that is
    the pure machinery cost.  The standard plan's timing is recorded
    too, ungated: its delta is recovery doing real work (degraded
    interpretive replays), not overhead.
    """
    documents = _serving_documents(tmp_path / "catalog")
    disabled_s, disabled = _time_serve(documents, None)
    idle_s, idle = _time_serve(documents, "seed=1991,latency=0.000001")
    standard_s, _ = _time_serve(documents, STANDARD)
    ratio = idle_s / max(disabled_s, 1e-12)
    print(f"\n[faults] overhead: disabled {disabled_s * 1000:.1f}ms, "
          f"armed-idle {idle_s * 1000:.1f}ms -> {ratio:.2f}x "
          f"(cap {OVERHEAD['max_armed_ratio']}x); standard plan "
          f"{standard_s * 1000:.1f}ms (recovery work, ungated)")
    record_result("overhead", {
        "disabled_ms": round(disabled_s * 1000, 2),
        "armed_idle_ms": round(idle_s * 1000, 2),
        "standard_plan_ms": round(standard_s * 1000, 2),
        "armed_idle_ratio": round(ratio, 2),
        "cap": OVERHEAD["max_armed_ratio"]})
    assert disabled.robustness.empty, (
        "faults-disabled serving did fault bookkeeping")
    assert idle.robustness.empty, "the idle plan injected something"
    assert ratio <= OVERHEAD["max_armed_ratio"], (
        f"idle fault machinery costs {ratio:.2f}x the disabled run "
        f"(cap {OVERHEAD['max_armed_ratio']}x)")


def main():
    import tempfile
    test_federation_recovery()
    with tempfile.TemporaryDirectory() as scratch:
        test_serving_availability(Path(scratch))
    with tempfile.TemporaryDirectory() as scratch:
        test_ingest_recovery(Path(scratch))
    with tempfile.TemporaryDirectory() as scratch:
        test_overhead(Path(scratch))
    print(f"floors              : availability "
          f">={SERVING['min_complete']:.0%}, unrecovered == 0, armed "
          f"overhead <= {OVERHEAD['max_armed_ratio']}x")


if __name__ == "__main__":
    main()
