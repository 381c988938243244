"""placement — traffic-driven data placement beats static authoring.

PR 10 added the placement subsystem (:mod:`repro.store.placement`): a
bounded hot-set tracker fed by the federation's traffic stats, cost-
model-driven placement policies (``replicate-hot``, ``migrate-owner``,
``hybrid``) that promote hot descriptors *and their program payloads*
to the sites reading them, and origin-aware routing that serves every
read from the cheapest replica.  The paper's remote-data chapter asks
exactly this: "management of the location of data in a distributed
environment" without the author — or the reader — noticing.

The gates recorded in ``benchmarks/baselines/placement.json``:

* **policy_gains**: on the standard zipf workload (star topology,
  asymmetric up-links, authors drawn independently of each document's
  fan base), every non-static policy must cut BOTH total simulated
  latency AND total bytes moved by at least ``min_ratio`` (3x) versus
  static placement — with the placement plans' own move traffic
  charged against the gain.  The per-request fingerprints (origin,
  document, delivered bytes) must be bit-identical to the static run:
  placement changes the bill, never the content.
* **fault_composition**: the same equivalence holds with PR 9's fault
  layer armed — a seeded transient-block-failure plan injects faults
  into both runs, recovery masks every one (``unrecovered == 0``, the
  ledger balances), and the hybrid run's fingerprints still match
  static's.
* **tracker_scale**: the space-saving hot-set tracker stays bounded at
  its capacity while absorbing a million distinct descriptors — the
  O(K) structure the per-site demand model rests on.
* **stream**: the federation's read core against the read path it
  replaced (``tests/oracles/federation.py``, which re-derives the
  origin, the replica order and each fault hash on every read).  Both
  replay one seeded script — a zipf request stream with
  ``replicate-hot`` applied between epochs, under block, corrupt and
  summary faults — on fresh federations; only the ``stream`` calls are
  timed, best of ``rounds`` interleaved passes.  The shipped core must
  leave every ledger identical (delivered bytes per request, traffic
  and robustness counters, per-site ``StoreStats``) and run at least
  ``min_speedup`` times faster.

When the ``BENCH_RESULTS`` environment variable names a file, each
gate merges its measurements into that JSON document — CI uploads the
consolidated ``BENCH_results.json`` as an artifact.

Run directly for a small report::

    PYTHONPATH=src python benchmarks/bench_placement.py

or through pytest (the CI smoke pass)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_placement.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.corpus.generate import make_media_document
from repro.corpus.workload import WorkloadSpec, build_workload, \
    run_workload
from repro.faults import parse_fault_plan, resolve_faults
from repro.store import FederatedStore
from repro.store.placement import HotSetTracker

from results import record_result

# The retired read path is a test oracle; importable from the checkout
# root, which a direct ``python benchmarks/bench_placement.py`` lacks.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles.federation import RoutingFederatedStore  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "baselines" / "placement.json"
BASELINE = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))

WORKLOAD = BASELINE["workload"]
GAINS = BASELINE["policy_gains"]
FAULTS = BASELINE["fault_composition"]
TRACKER = BASELINE["tracker_scale"]
STREAM = BASELINE["stream"]

SPEC = WorkloadSpec(sites=WORKLOAD["sites"],
                    topology=WORKLOAD["topology"],
                    documents=WORKLOAD["documents"],
                    events=WORKLOAD["events"],
                    sessions=WORKLOAD["sessions"],
                    zipf_s=WORKLOAD["zipf_s"],
                    locality=WORKLOAD["locality"],
                    seed=WORKLOAD["seed"])
EPOCH = WORKLOAD["rebalance_every"]


def _run(policy: str, faults=None):
    """One policy's pass over a freshly built workload (runs mutate
    the federation, so comparisons never share one).  With no explicit
    plan the ambient ``REPRO_FAULTS`` chaos plan (if any) is armed, so
    the CI chaos matrix exercises placement under fault weather."""
    workload = build_workload(
        SPEC, faults=faults if faults is not None
        else resolve_faults(None))
    report = run_workload(workload, policy=policy,
                          rebalance_every=EPOCH, fingerprints=True)
    return report, workload.federation


# -- policy gains ----------------------------------------------------------

def test_policy_gains():
    """Every policy >= min_ratio on latency AND bytes, content pinned."""
    static, _ = _run("static")
    static_ms = static.traffic["simulated_ms"]
    static_bytes = static.traffic["total_bytes"]
    rows = {}
    for policy in GAINS["policies"]:
        report, _ = _run(policy)
        latency_ratio = static_ms / max(report.traffic["simulated_ms"],
                                        1e-12)
        bytes_ratio = static_bytes / max(report.traffic["total_bytes"], 1)
        rows[policy] = {
            "latency_ratio": round(latency_ratio, 2),
            "bytes_ratio": round(bytes_ratio, 2),
            "simulated_ms": round(report.traffic["simulated_ms"], 1),
            "total_bytes": report.traffic["total_bytes"],
            "local_requests": report.traffic["local_requests"],
            "placement_moves": report.traffic["placement_moves"],
            "plans_applied": report.plans_applied,
            "identical": report.fingerprints == static.fingerprints,
        }
        print(f"\n[placement] {policy}: latency {latency_ratio:.2f}x, "
              f"bytes {bytes_ratio:.2f}x vs static "
              f"({report.traffic['placement_moves']} move(s), "
              f"{report.traffic['local_requests']} local read(s))")
    record_result("placement_gains", {
        "static_simulated_ms": round(static_ms, 1),
        "static_total_bytes": static_bytes,
        "sessions": static.requests,
        "min_ratio": GAINS["min_ratio"],
        "policies": rows})
    for policy, row in rows.items():
        assert row["identical"], (
            f"{policy} changed delivered content — placement must be a "
            f"pure optimization")
        gained = min(row["latency_ratio"], row["bytes_ratio"])
        assert gained >= GAINS["min_ratio"], (
            f"{policy} gained only {gained:.2f}x over static placement "
            f"(floor {GAINS['min_ratio']}x, move costs charged)")


# -- fault composition -----------------------------------------------------

def test_fault_composition():
    """Placement + PR 9 faults: same content, every fault recovered."""
    plan = parse_fault_plan(FAULTS["faults"])
    static, _ = _run("static", faults=plan)
    placed, federation = _run(FAULTS["policy"], faults=plan)
    ledger = federation.traffic.robustness
    identical = placed.fingerprints == static.fingerprints
    print(f"\n[placement] faulted {FAULTS['policy']}: "
          f"{placed.traffic['placement_moves']} move(s), "
          f"{ledger.total_faults} fault(s) injected, fingerprints "
          f"{'identical' if identical else 'DIVERGED'}")
    record_result("placement_faults", {
        "faults": FAULTS["faults"],
        "policy": FAULTS["policy"],
        "placement_moves": placed.traffic["placement_moves"],
        "injected_faults": ledger.total_faults,
        "recovered": ledger.recovered,
        "unrecovered": ledger.unrecovered,
        "identical": identical})
    assert identical, "placement under faults changed delivered content"
    assert placed.traffic["placement_moves"] > 0, (
        "the faulted run applied no placement moves — the gate checked "
        "nothing")
    assert ledger.total_faults > 0, (
        "the block-failure plan injected nothing — raise the rate")
    assert ledger.unrecovered == 0, (
        f"{ledger.unrecovered} fault(s) escaped recovery during the "
        f"placed run")
    assert ledger.balanced(), "robustness ledger does not balance"


# -- tracker scale ---------------------------------------------------------

def test_tracker_scale():
    """A million distinct descriptors; the sketch stays at capacity."""
    tracker = HotSetTracker(capacity=TRACKER["capacity"])
    start = time.perf_counter()
    for index in range(TRACKER["descriptors"]):
        tracker.record("site-0", f"doc{index % 4096}/d{index}", 1024)
    elapsed = time.perf_counter() - start
    hot = tracker.hot_set("site-0")
    rate = TRACKER["descriptors"] / max(elapsed, 1e-12)
    print(f"\n[placement] tracker: {TRACKER['descriptors']} records in "
          f"{elapsed:.2f}s ({rate / 1e6:.2f}M/s), {len(hot)} tracked "
          f"(capacity {TRACKER['capacity']})")
    record_result("placement_tracker", {
        "records": TRACKER["descriptors"],
        "capacity": TRACKER["capacity"],
        "tracked": len(hot),
        "records_per_s": int(rate)})
    assert len(hot) <= TRACKER["capacity"], (
        f"tracker grew to {len(hot)} entries (capacity "
        f"{TRACKER['capacity']}) — the hot set is not bounded")
    assert hot, "tracker recorded a million descriptors and kept none"


# -- stream ----------------------------------------------------------------

STREAM_SPEC = WorkloadSpec(**{key: value for key, value
                              in STREAM["workload"].items()
                              if key != "rebalance_every"})


def _stream_pass(federation_class, documents):
    """One pass of the seeded stream script on a fresh federation of
    ``federation_class``: (seconds inside ``stream``, ledgers)."""
    workload = build_workload(STREAM_SPEC, documents,
                              faults=parse_fault_plan(STREAM["faults"]))
    built = workload.federation
    federation = federation_class(built.local, built.remotes,
                                  topology=built.topology,
                                  faults=built.faults, retry=built.retry)
    epoch = STREAM["workload"]["rebalance_every"]
    seconds = 0.0
    delivered = []
    for serial, request in enumerate(workload.requests):
        if serial and serial % epoch == 0:
            federation.rebalance("replicate-hot")
        stream_ids = workload.catalog[request.document_index]
        start = time.perf_counter()
        delivered.append(federation.stream(stream_ids,
                                           origin=request.origin))
        seconds += time.perf_counter() - start
    stats = {site.name: site.store.stats.counters()
             for site in (built.local, *built.remotes)}
    reads = sum(len(workload.catalog[request.document_index])
                for request in workload.requests)
    return seconds, reads, (delivered, federation.traffic.counters(),
                            stats)


def test_stream_throughput():
    """The read core vs the retired read path: same ledgers, faster."""
    documents = [make_media_document(STREAM_SPEC.seed + index,
                                     events=STREAM_SPEC.events)
                 for index in range(STREAM_SPEC.documents)]
    retired_s = core_s = float("inf")
    for _ in range(STREAM["rounds"]):    # interleaved: same machine state
        seconds, reads, retired = _stream_pass(RoutingFederatedStore,
                                               documents)
        retired_s = min(retired_s, seconds)
        seconds, reads, shipped = _stream_pass(FederatedStore, documents)
        core_s = min(core_s, seconds)
        assert shipped == retired, "the read core changed a ledger"
    robust = shipped[1]["robustness"]
    speedup = retired_s / max(core_s, 1e-12)
    print(f"\n[placement] stream {reads} reads: retired "
          f"{retired_s / reads * 1e6:.2f} us/read, read core "
          f"{core_s / reads * 1e6:.2f} us/read -> {speedup:.2f}x "
          f"({robust['retries']} retries, {robust['checksum_rejects']} "
          f"corrupt deliveries)")
    record_result("placement_stream", {
        "reads": reads,
        "retired_us_per_read": round(retired_s / reads * 1e6, 3),
        "core_us_per_read": round(core_s / reads * 1e6, 3),
        "speedup": round(speedup, 3),
        "min_speedup": STREAM["min_speedup"],
        "faults_injected": sum(robust["faults_injected"].values()),
        "placement_moves": shipped[1]["placement_moves"],
    })
    assert sum(robust["faults_injected"].values()) > 0, (
        "the stream's fault plan injected nothing — the ledgers compared "
        "no recovery")
    assert shipped[1]["placement_moves"] > 0, (
        "the stream script applied no placement moves")
    assert speedup >= STREAM["min_speedup"], (
        f"the read core is only {speedup:.2f}x faster than the retired "
        f"read path (baseline floor {STREAM['min_speedup']}x)")


def main():
    test_policy_gains()
    test_fault_composition()
    test_tracker_scale()
    test_stream_throughput()
    print(f"floors              : latency and bytes both "
          f">={GAINS['min_ratio']}x vs static, content bit-identical, "
          f"hot set bounded at {TRACKER['capacity']}, read core "
          f">={STREAM['min_speedup']}x the retired read path")


if __name__ == "__main__":
    main()
