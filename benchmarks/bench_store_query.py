"""store-query — index-backed query plans vs the seed's full scan.

The paper's section-6 claim — attribute search keys simplify "finding
detailed information in large multimedia database" — needs the store's
query cost to track the *answer*, not the *corpus*.  The seed compiled
every query to an opaque closure and scanned all descriptors per query;
the planner (:mod:`repro.store.planner`) answers from inverted indexes
and examines only the candidates.  This bench measures both paths on
the same synthetic archives and checks the gate recorded in
``benchmarks/baselines/store_query.json``:

* **selective** queries at 100k descriptors must beat the scan by the
  baseline factor (>=10x) with identical results and 0 payload reads;
* **broad** queries at 10k must not regress below the baseline floor
  (planning never makes a query wrong, and never much slower);
* **federated** search must answer a shard-local query by contacting
  only the shard that can match, the other sites being pruned from
  their cached index summaries (fewer *requests*, not just fewer
  bytes).

Run directly for a small report::

    PYTHONPATH=src python benchmarks/bench_store_query.py

or through pytest (the CI smoke pass)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_store_query.py
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from repro.core.channels import Medium
from repro.core.descriptors import DataDescriptor
from repro.store import (DataStore, FederatedStore, NetworkModel, Site,
                         attr_range, keyword, medium_is)

from results import record_result

BASELINE_PATH = Path(__file__).parent / "baselines" / "store_query.json"
BASELINE = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))

_MEDIA = (Medium.TEXT, Medium.AUDIO, Medium.VIDEO, Medium.IMAGE)


def build_archive(count: int, seed: int = 1991,
                  name: str = "archive", locale: str = "") -> DataStore:
    """A synthetic archive: every descriptor carries section-6 search
    keys (keywords, language, size, duration) but no payload."""
    rng = random.Random(seed)
    store = DataStore(name)
    topics = max(count // 50, 1)
    for index in range(count):
        keywords = ["news", f"topic-{rng.randrange(topics)}"]
        if locale:
            keywords.append(locale)
        store.register(DataDescriptor(
            f"{name}/d{index:06d}", _MEDIA[index % len(_MEDIA)],
            attributes={
                "keywords": tuple(keywords),
                "language": rng.choice(("en", "fr", "nl", "de", "it")),
                "characters": rng.randrange(10_000),
                "duration": float(rng.randrange(500, 60_000)),
            }))
    return store


def timed(callable_, repeats: int = 1):
    start = time.perf_counter()
    for _ in range(repeats):
        result = callable_()
    return result, (time.perf_counter() - start) / repeats


def compare_paths(store: DataStore, query, *, repeats: int = 5):
    """Time the pre-PR scan path against the planner on one query."""
    scanned, scan_s = timed(lambda: store.scan_where(query))
    store.stats.reset()
    planned, planned_s = timed(lambda: store.find_where(query),
                               repeats=repeats)
    assert store.stats.payload_reads == 0
    assert sorted(d.descriptor_id for d in planned) == \
        sorted(d.descriptor_id for d in scanned), \
        "planner results diverged from the full scan"
    return {
        "matches": len(planned),
        "scan_s": scan_s,
        "planned_s": max(planned_s, 1e-9),
        "speedup": scan_s / max(planned_s, 1e-9),
        "examined": store.stats.attribute_reads / repeats,
    }


def _rounded(outcome: dict) -> dict:
    return {name: round(value, 6) if isinstance(value, float) else value
            for name, value in outcome.items()}


SELECTIVE = BASELINE["selective"]
BROAD = BASELINE["broad"]
FEDERATED = BASELINE["federated"]


@pytest.fixture(scope="module")
def large_archive():
    return build_archive(SELECTIVE["size"])


def selective_query():
    return (keyword("topic-7") & medium_is("video")
            & attr_range("characters", 0, 2000))


def broad_query():
    return keyword("news") & attr_range("characters", 0, 5000)


def test_selective_query_speedup(large_archive):
    """Tentpole acceptance: >=10x over the scan at 100k descriptors."""
    outcome = compare_paths(large_archive, selective_query())
    plan = large_archive.explain(selective_query())
    assert not plan.scan
    assert outcome["matches"] > 0
    assert outcome["examined"] < len(large_archive) / 100, \
        "selective plan examined too much of the store"
    print(f"\n[store-query] selective @ {len(large_archive)}: "
          f"scan {outcome['scan_s'] * 1000:.1f}ms, planned "
          f"{outcome['planned_s'] * 1000:.3f}ms "
          f"({outcome['matches']} matches, "
          f"{outcome['examined']:.0f} examined) "
          f"-> {outcome['speedup']:.0f}x")
    record_result("store_query_selective", {
        "descriptors": len(large_archive),
        **_rounded(outcome),
        "min_speedup": SELECTIVE["min_speedup"],
    })
    assert outcome["speedup"] >= SELECTIVE["min_speedup"], (
        f"selective planned query only "
        f"{outcome['speedup']:.1f}x faster than the scan "
        f"(baseline floor {SELECTIVE['min_speedup']}x)")


def test_broad_query_does_not_regress():
    """Planning a low-selectivity query must stay near scan cost."""
    store = build_archive(BROAD["size"])
    outcome = compare_paths(store, broad_query(), repeats=3)
    print(f"\n[store-query] broad @ {len(store)}: "
          f"scan {outcome['scan_s'] * 1000:.1f}ms, planned "
          f"{outcome['planned_s'] * 1000:.1f}ms "
          f"({outcome['matches']} matches) "
          f"-> {outcome['speedup']:.2f}x")
    record_result("store_query_broad", {
        "descriptors": len(store),
        **_rounded(outcome),
        "min_speedup": BROAD["min_speedup"],
    })
    assert outcome["speedup"] >= BROAD["min_speedup"], (
        f"broad planned query regressed to "
        f"{outcome['speedup']:.2f}x of scan speed "
        f"(baseline floor {BROAD['min_speedup']}x)")


def build_federation(per_site: int = 2000):
    local = Site("local", DataStore("local"))
    remotes = []
    for index in range(FEDERATED["sites"]):
        remotes.append(Site(
            f"shard{index}",
            build_archive(per_site, seed=index, name=f"shard{index}",
                          locale=f"locale-{index}"),
            NetworkModel(latency_ms=10.0)))
    return FederatedStore(local, remotes)


def test_federated_search_prunes_sites():
    """A shard-local query contacts one site; the rest are pruned."""
    federation = build_federation()
    query = keyword("locale-2") & medium_is("image")
    brute = sorted(
        d.descriptor_id
        for site in [federation.local, *federation.remotes]
        for d in site.store.scan_where(query))

    federation.find_where(query)        # warms the summary cache
    federation.traffic.reset()
    results = federation.find_where(query)

    assert sorted(d.descriptor_id for d in results) == brute
    assert federation.traffic.payload_bytes == 0
    assert federation.traffic.requests == 1, \
        "only the matching shard should be contacted"
    assert federation.traffic.requests_avoided >= \
        FEDERATED["min_requests_avoided"]
    print(f"\n[store-query] federated: {len(results)} matches from "
          f"{FEDERATED['sites']} shards with "
          f"{federation.traffic.requests} request(s), "
          f"{federation.traffic.requests_avoided} site(s) pruned by "
          f"summaries")
    record_result("store_query_federated", {
        "sites": FEDERATED["sites"],
        "matches": len(results),
        "requests": federation.traffic.requests,
        "requests_avoided": federation.traffic.requests_avoided,
        "min_requests_avoided": FEDERATED["min_requests_avoided"],
    })


def main():
    store = build_archive(SELECTIVE["size"])
    selective = compare_paths(store, selective_query())
    broad_store = build_archive(BROAD["size"])
    broad = compare_paths(broad_store, broad_query(), repeats=3)
    print(f"archive size        : {len(store)} descriptors")
    print(f"selective scan      : {selective['scan_s'] * 1000:.1f}ms")
    print(f"selective planned   : {selective['planned_s'] * 1000:.3f}ms "
          f"({selective['matches']} matches, "
          f"{selective['examined']:.0f} examined)")
    print(f"selective speedup   : {selective['speedup']:.0f}x "
          f"(floor {SELECTIVE['min_speedup']}x)")
    print(f"broad speedup @ {len(broad_store)} : "
          f"{broad['speedup']:.2f}x (floor {BROAD['min_speedup']}x)")
    print(store.explain(selective_query()).describe())


if __name__ == "__main__":
    main()
