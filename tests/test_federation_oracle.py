"""The federation's read core against the read path it replaced.

``tests/oracles/federation.py`` keeps the earlier ``stream``,
``descriptor``, ``block_for``, ``_read_block``, ``_holding_sites`` and
``_remote_call`` verbatim: every read re-resolves its origin, walks
every site's membership, sorts the holders by link cost and hashes each
fault decision afresh.  Two federations built alike, one of each class,
run the same random script: ``stream``, ``descriptor`` and
``block_for`` reads from every site, an unknown origin and no origin,
interleaved with placement under each policy, direct replica copies
and removals (among them copies a pin or a route points at), attribute
searches and traffic resets, cold or counters-only.  The worlds
cover star, chain, mesh and no topology, down and flapping sites,
block, corrupt, summary and latency fault rates, and retry budgets
tight enough to force failover and unrecovered reads.

After every step both must return equal values or raise equal errors,
and hold equal traffic and robustness ledgers, routes, affinity pins,
descriptor caches, fault clocks, breaker states, hot sets and demand
per origin, holdings, and per-site ``StoreStats``.
"""

from __future__ import annotations

import hashlib
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import repro.faults.plan as plan_module
from repro.core.channels import Medium
from repro.core.descriptors import DataBlock, DataDescriptor
from repro.faults import FaultPlan, RetryPolicy
from repro.store import (DataStore, FederatedStore, NetworkModel, Site,
                         SiteTopology)
from repro.store.placement import PLACEMENT_POLICIES, HotSetTracker
from repro.store.query import Contains
from tests.oracles.federation import RoutingFederatedStore

SITES = ("hub", "edge-1", "edge-2", "edge-3")
#: id -> (medium, payload kind); "note" ids carry no block, "lost" ids
#: name a block their author never stored.
IDS = {
    "a/clip": (Medium.TEXT, "ascii"),
    "b/clip": (Medium.TEXT, "unicode"),
    "c/clip": (Medium.AUDIO, "bytes"),
    "d/note": (Medium.TEXT, None),
    "e/clip": (Medium.AUDIO, "generated"),
    "f/lost": (Medium.TEXT, "lost"),
    "g/clip": (Medium.TEXT, "ascii"),
}
UNKNOWN_ID = "z/nowhere"
ORIGINS = (*SITES, "elsewhere", None)
KEYWORDS = ("clip", "note", "rare")


def _block(descriptor_id: str, medium: Medium, kind: str, size: int):
    block_id = f"{descriptor_id}#blk"
    if kind == "ascii":
        return DataBlock(block_id, medium, payload="x" * size)
    if kind == "unicode":
        return DataBlock(block_id, medium, payload="é" * size)
    if kind == "bytes":
        return DataBlock(block_id, medium, payload=bytes(size))
    return DataBlock(block_id, medium, payload=lambda: b"g" * size,
                     generator=True)


def build(cls, world):
    """One federation of ``cls`` from a drawn world description."""
    names = SITES[:world["sites"]]
    stores = {name: DataStore(name) for name in names}
    for index, (descriptor_id, (medium, kind)) in enumerate(IDS.items()):
        size = world["sizes"][index]
        keywords = ("note",) if kind is None else ("clip",)
        descriptor = DataDescriptor(
            descriptor_id, medium,
            block_id=None if kind is None else f"{descriptor_id}#blk",
            attributes={"keywords": keywords})
        block = None if kind in (None, "lost") \
            else _block(descriptor_id, medium, kind, size)
        author = names[world["authors"][index] % len(names)]
        stores[author].register(descriptor, block)
        for extra in world["replicas"][index]:
            holder = names[extra % len(names)]
            if descriptor_id not in stores[holder]:
                stores[holder].register_copy(descriptor, block)
    sites = [Site(name, stores[name],
                  NetworkModel(latency_ms=4.0 + 3 * position,
                               bandwidth_bytes_per_ms=500.0))
             for position, name in enumerate(names)]
    link = NetworkModel(latency_ms=6.0, bandwidth_bytes_per_ms=800.0)
    topology = {
        None: None,
        "star": lambda: SiteTopology.star(names[0], names[1:], spoke=link,
                                          uplink_factor=2.0),
        "chain": lambda: SiteTopology.chain(names, hop=link),
        "mesh": lambda: SiteTopology.mesh(names, base=link,
                                          seed=world["seed"]),
    }[world["topology"]]
    faults = world["faults"]
    if faults is not None:
        faults = FaultPlan(
            seed=world["seed"],
            down_sites=tuple(names[i % len(names)]
                             for i in faults["down"]),
            flap_sites=tuple(names[i % len(names)]
                             for i in faults["flap"]),
            flap_period=faults["period"],
            latency_rate=faults["latency"],
            block_failure_rate=faults["blocks"],
            block_corrupt_rate=faults["corrupt"],
            summary_failure_rate=faults["summaries"])
    federation = cls(sites[0], sites[1:], faults=faults,
                     retry=world["retry"],
                     topology=topology() if topology else None)
    if federation.hot_tracker is not None:
        # Small sketches evict, so merged and split records must agree
        # on which counter each new id recycles.
        federation.hot_tracker.capacity = world["capacity"]
    return federation


RATES = st.sampled_from((0.0, 0.0, 0.1, 0.3, 0.6, 1.0))

FAULTS = st.fixed_dictionaries({
    "down": st.lists(st.integers(0, 3), max_size=1),
    "flap": st.lists(st.integers(0, 3), max_size=2),
    "period": st.integers(1, 4),
    "latency": RATES,
    "blocks": RATES,
    "corrupt": RATES,
    "summaries": RATES,
})

RETRIES = st.builds(RetryPolicy,
                    max_attempts=st.integers(1, 4),
                    deadline_ms=st.sampled_from((500.0, 500.0, 12.0)))

WORLDS = st.fixed_dictionaries({
    "sites": st.integers(2, 4),
    "seed": st.integers(0, 2 ** 16),
    "sizes": st.lists(st.integers(0, 3000), min_size=len(IDS),
                      max_size=len(IDS)),
    "authors": st.lists(st.integers(0, 3), min_size=len(IDS),
                        max_size=len(IDS)),
    "replicas": st.lists(st.lists(st.integers(0, 3), max_size=2),
                         min_size=len(IDS), max_size=len(IDS)),
    "topology": st.sampled_from((None, "star", "chain", "mesh")),
    "capacity": st.sampled_from((1, 2, 3, 64)),
    "faults": st.none() | FAULTS,
    "retry": RETRIES,
})

READ_IDS = st.sampled_from((*IDS, UNKNOWN_ID))
ORIGIN = st.sampled_from(ORIGINS)
SITE_INDEX = st.integers(0, 3)

STREAM = st.tuples(st.just("stream"), st.lists(READ_IDS, min_size=1,
                                              max_size=8), ORIGIN)
BLOCK_FOR = st.tuples(st.just("block_for"), READ_IDS, ORIGIN)
#: Reads drawn three times as often as each other step: pins, routes and
#: fault hashes only matter to the reads that follow them.
STEPS = st.one_of(
    STREAM, STREAM, STREAM, BLOCK_FOR, BLOCK_FOR, BLOCK_FOR,
    st.tuples(st.just("descriptor"), READ_IDS, ORIGIN),
    st.tuples(st.just("rebalance"), st.sampled_from(PLACEMENT_POLICIES)),
    st.tuples(st.just("copy"), READ_IDS, SITE_INDEX),
    st.tuples(st.just("unregister"), READ_IDS, SITE_INDEX),
    st.tuples(st.just("vanish"), st.integers(0, 15)),
    st.tuples(st.just("find"), st.sampled_from(KEYWORDS), ORIGIN),
    st.tuples(st.just("reset"), st.booleans()),
)


def run_step(federation, step):
    """Apply one step; its result, or the error it raised."""
    action = step[0]
    try:
        if action == "stream":
            return federation.stream(step[1], origin=step[2])
        if action == "descriptor":
            return federation.descriptor(step[1], origin=step[2])
        if action == "block_for":
            block = federation.block_for(step[1], origin=step[2])
            # Generated payloads are per-build closures: compare output.
            return (block.block_id, block.medium, block.materialize(),
                    block.generator)
        if action == "rebalance":
            policy = step[1] if federation.topology is not None \
                else "static"
            plan, outcome = federation.rebalance(policy)
            return plan.moves, outcome.applied, outcome.bytes_moved
        if action == "find":
            outcome = federation.find_where_detailed(
                Contains("keywords", step[1]), origin=step[2])
            return ([d.descriptor_id for d in outcome.descriptors],
                    outcome.partial, outcome.unreachable_sites,
                    outcome.stale_sites)
        if action == "reset":
            if step[1]:
                return federation.reset_traffic()
            return federation.traffic.reset()
        if action == "vanish":
            # Delete a copy some pin or route points at, behind the
            # router's back: the next read must heal, not follow it.
            pointed = sorted({*federation._routes.items(), *(
                (descriptor_id, site) for descriptor_id, pins
                in federation._affinity.items() for site in pins.values())})
            if not pointed:
                return None
            descriptor_id, name = pointed[step[1] % len(pointed)]
            store = federation.site(name).store
            return store.unregister(descriptor_id) \
                if descriptor_id in store else None
        names = [site.name for site in federation._sites_by_name.values()]
        target = federation.site(names[step[2] % len(names)]).store
        descriptor_id = step[1]
        if action == "copy":
            holders = federation.holders(descriptor_id)
            if not holders or descriptor_id in target:
                return None
            source = federation.site(holders[0]).store
            descriptor = source.descriptor_by_id(descriptor_id)
            block = source._blocks.get(descriptor.block_id)
            return target.register_copy(descriptor, block)
        if descriptor_id in target:     # unregister
            return target.unregister(descriptor_id)
        return None
    except Exception as exc:            # compared, never swallowed
        return ("raised", type(exc).__name__, str(exc))


def state(federation) -> dict:
    """Everything a read may touch, copied out for comparison."""
    tracker = federation.hot_tracker
    hot = demand = None
    if tracker is not None:
        hot = {origin: [(e.descriptor_id, e.requests, e.payload_bytes,
                         e.error) for e in tracker.hot_set(origin)]
               for origin in (*tracker.origins(), *SITES, "elsewhere")}
        demand = {descriptor_id: {
            origin: (e.requests, e.payload_bytes, e.error)
            for origin, e in tracker.demand(descriptor_id).items()}
            for descriptor_id in (*IDS, UNKNOWN_ID)}
    return {
        "traffic": federation.traffic.counters(),
        "routes": dict(federation._routes),
        "pins": {key: dict(pins)
                 for key, pins in federation._affinity.items()},
        "cache": dict(federation._descriptor_cache),
        "clock": federation.fault_clock.now,
        "breakers": {name: (breaker.state, breaker.consecutive_failures,
                            breaker.opened_at)
                     for name, breaker in federation._breakers.items()},
        "hot": hot,
        "demand": demand,
        "held": {name: [descriptor_id for descriptor_id in IDS
                        if descriptor_id in site.store]
                 for name, site in federation._sites_by_name.items()},
        "stats": {name: site.store.stats.counters()
                  for name, site in federation._sites_by_name.items()},
    }


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


@FUZZ
@given(world=WORLDS, script=st.lists(STEPS, min_size=1, max_size=30))
def test_scripts_read_alike(world, script):
    oracle = build(RoutingFederatedStore, world)
    shipped = build(FederatedStore, world)
    assert state(shipped) == state(oracle)
    for number, step in enumerate(script):
        expected = run_step(oracle, step)
        assert run_step(shipped, step) == expected, (number, step)
        assert state(shipped) == state(oracle), (number, step)


@pytest.mark.parametrize("topology", [None, "star", "chain", "mesh"])
def test_a_standard_plan_reads_alike(topology):
    """A longer fixed script per topology under block, corrupt and
    flapping weather: the fuzz's short scripts rarely evict hot-set
    entries or open a breaker twice."""
    rng = random.Random(7)
    world = {
        "sites": 4, "seed": 1991, "sizes": [rng.randrange(3000)
                                             for _ in IDS],
        "authors": [1, 2, 3, 1, 2, 3, 0],
        "replicas": [[2], [3], [], [1], [0], [], [3]],
        "topology": topology, "capacity": 2,
        "faults": {"down": [], "flap": [1], "period": 3, "latency": 0.1,
                   "blocks": 0.3, "corrupt": 0.2, "summaries": 0.1},
        "retry": RetryPolicy(max_attempts=2),
    }
    oracle = build(RoutingFederatedStore, world)
    shipped = build(FederatedStore, world)
    ids = [*IDS, UNKNOWN_ID]
    for number in range(400):
        if number % 50 == 49:
            step = ("rebalance", PLACEMENT_POLICIES[number // 50 % 4])
        elif number % 50 == 24:
            step = ("vanish", number)
        else:
            step = ("stream", rng.sample(ids, rng.randint(1, 5)),
                    rng.choice(ORIGINS))
        assert run_step(shipped, step) == run_step(oracle, step), number
        assert state(shipped) == state(oracle), number
    assert shipped.traffic.robustness.total_faults > 0
    assert shipped.traffic.robustness.breaker_opens > 0


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 4),
       reads=st.lists(st.tuples(st.sampled_from(("hub", "edge")),
                                st.integers(0, 6), st.integers(0, 900),
                                st.integers(1, 3)), max_size=60))
def test_one_record_of_several_reads_builds_the_same_sketch(capacity,
                                                            reads):
    """``record(..., requests=k)`` leaves the sketch ``k`` single-read
    records moving the same bytes leave, evictions included."""
    merged = HotSetTracker(capacity=capacity)
    split = HotSetTracker(capacity=capacity)
    for origin, index, size, requests in reads:
        descriptor_id = f"d{index}"
        merged.record(origin, descriptor_id, size * requests, requests)
        for _ in range(requests):
            split.record(origin, descriptor_id, size)

        def rows(tracker):
            return {name: [(e.descriptor_id, e.requests, e.payload_bytes,
                            e.error) for e in tracker.hot_set(name)]
                    for name in tracker.origins()}
        assert rows(merged) == rows(split)


def _blake2b_48(seed, kind, key, attempt) -> int:
    text = f"{seed}|{kind}|{key!r}|{attempt}"
    return int.from_bytes(hashlib.blake2b(text.encode("utf-8"),
                                          digest_size=6).digest(), "big")


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32),
       rate=st.floats(-0.5, 1.5, allow_nan=False),
       other_rate=st.floats(0.0, 1.0),
       kind=st.sampled_from(("block", "block-corrupt", "latency",
                             "descriptor")),
       key=st.text(max_size=12) | st.integers(0, 2) | st.booleans()
       | st.tuples(st.text(max_size=4), st.integers(0, 9)),
       attempt=st.integers(0, 6))
def test_kept_hash_matches_fires(seed, rate, other_rate, kind, key,
                                 attempt):
    plan = FaultPlan(seed=seed)
    table: dict = {}
    fired = plan.fires(rate, kind, key, attempt)
    assert plan.fires(rate, kind, key, attempt, table) == fired
    assert plan.fires(rate, kind, key, attempt, table) == fired
    if 0.0 < rate < 1.0 and isinstance(key, str):
        assert table == {(seed, kind, key, attempt):
                         _blake2b_48(seed, kind, key, attempt)}
    else:   # only string keys are kept: 1 == True, but not as text
        assert table == {}
    # The table keeps the hash, not the answer: another rate over the
    # same kept hash answers for that rate.
    assert plan.fires(other_rate, kind, key, attempt, table) \
        == plan.fires(other_rate, kind, key, attempt)
    # A table shared across seeds never answers for the wrong seed.
    other = FaultPlan(seed=seed + 1)
    assert other.fires(other_rate, kind, key, attempt, table) \
        == other.fires(other_rate, kind, key, attempt)


def test_a_full_hash_table_starts_over(monkeypatch):
    monkeypatch.setattr(plan_module, "FAULT_HASH_CAPACITY", 8)
    plan = FaultPlan(seed=3)
    table: dict = {}
    for attempt in range(40):
        for key in ("a", "b", "c"):
            assert plan.fires(0.5, "block", key, attempt, table) \
                == plan.fires(0.5, "block", key, attempt)
            assert len(table) <= 8
