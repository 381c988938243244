"""Tests for traffic-driven placement (repro.store.placement).

Covers the hot-set sketch, topologies, the cost-model policies,
plan application semantics, routing-map / affinity invalidation after
migration and replication (including the circuit-breaker interaction),
the summary-size cache, and the load-bearing equivalence property:
placement never changes what any read returns — under every policy,
with and without an armed fault plan.
"""

import random

import pytest

from repro.core.channels import Medium
from repro.core.descriptors import DataBlock, DataDescriptor
from repro.core.errors import StoreError
from repro.corpus.workload import (WorkloadSpec, build_workload,
                                   run_workload, serve_workload)
from repro.faults import CircuitBreaker, parse_fault_plan
from repro.store import (DataStore, FederatedStore, HotSetTracker,
                         HybridPolicy, MigrateOwnerPolicy, NetworkModel,
                         PlacementMove, PlacementPolicy, ReplicateHotPolicy,
                         ReplicationPlan, Site, SiteTopology,
                         resolve_policy)
from repro.store.placement import LOCAL_LINK


def text_descriptor(descriptor_id, payload):
    return (DataDescriptor(descriptor_id=descriptor_id,
                           medium=Medium.TEXT,
                           block_id=f"{descriptor_id}#blk"),
            DataBlock(f"{descriptor_id}#blk", Medium.TEXT,
                      payload=payload))


def make_federation(holdings, *, topology=None, faults=None):
    """``holdings``: site name -> list of (id, payload) text captures.
    The first site is local; site order follows the dict."""
    sites = []
    for name, captures in holdings.items():
        store = DataStore(name)
        for descriptor_id, payload in captures:
            store.register(*text_descriptor(descriptor_id, payload))
        network = NetworkModel(latency_ms=10.0) if sites else \
            NetworkModel()
        sites.append(Site(name=name, store=store, network=network))
    return FederatedStore(sites[0], sites[1:], topology=topology,
                          faults=faults)


def star_topology(names, latency=10.0, bandwidth=1000.0):
    return SiteTopology.star(names[0], names[1:],
                             spoke=NetworkModel(
                                 latency_ms=latency,
                                 bandwidth_bytes_per_ms=bandwidth),
                             uplink_factor=2.0)


class TestHotSetTracker:
    def test_counts_and_ordering(self):
        tracker = HotSetTracker(capacity=8)
        tracker.record("a", "small", 10)
        for _ in range(3):
            tracker.record("a", "big", 500)
        hot = tracker.hot_set("a")
        assert [entry.descriptor_id for entry in hot] == ["big", "small"]
        assert hot[0].requests == 3
        assert hot[0].payload_bytes == 1500
        assert hot[0].error == 0

    def test_bounded_with_inherited_error(self):
        tracker = HotSetTracker(capacity=2)
        for _ in range(5):
            tracker.record("a", "hot", 100)
        tracker.record("a", "warm", 100)
        tracker.record("a", "new", 100)     # evicts "warm" (min counter)
        hot = {entry.descriptor_id: entry
               for entry in tracker.hot_set("a")}
        assert len(hot) == 2
        assert "hot" in hot and "new" in hot
        # Space-saving: the newcomer inherits the victim's counts as
        # its overestimate bound.
        assert hot["new"].requests == 2
        assert hot["new"].error == 1
        assert hot["hot"].requests == 5

    def test_stays_bounded_under_churn(self):
        tracker = HotSetTracker(capacity=16)
        for index in range(10_000):
            tracker.record("a", f"d{index}", 64)
        assert len(tracker.hot_set("a")) == 16

    def test_per_origin_sketches_and_demand(self):
        tracker = HotSetTracker(capacity=4)
        tracker.record("a", "shared", 100)
        tracker.record("b", "shared", 200)
        tracker.record("b", "only-b", 50)
        assert tracker.origins() == ["a", "b"]
        demand = tracker.demand("shared")
        assert set(demand) == {"a", "b"}
        assert demand["b"].payload_bytes == 200
        assert set(tracker.demand("only-b")) == {"b"}
        tracker.reset()
        assert tracker.origins() == []

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            HotSetTracker(capacity=0)


class TestSiteTopology:
    def test_self_link_is_free(self):
        topology = star_topology(["hub", "a", "b"])
        assert topology.link("a", "a") is LOCAL_LINK
        assert topology.transfer_ms("a", "a", 10_000_000) == 0.0

    def test_star_asymmetry(self):
        topology = star_topology(["hub", "a", "b"])
        down = topology.link("hub", "a")    # hub pulls from an edge
        up = topology.link("a", "hub")      # edge pulls from the hub
        assert up.latency_ms == pytest.approx(2 * down.latency_ms)
        assert up.bandwidth_bytes_per_ms == pytest.approx(
            down.bandwidth_bytes_per_ms / 2)
        two_hop = topology.link("a", "b")
        assert two_hop.latency_ms == pytest.approx(
            down.latency_ms + up.latency_ms)

    def test_chain_scales_with_distance(self):
        topology = SiteTopology.chain(
            ["a", "b", "c"], hop=NetworkModel(latency_ms=4.0))
        assert topology.link("a", "b").latency_ms == pytest.approx(4.0)
        assert topology.link("a", "c").latency_ms == pytest.approx(8.0)

    def test_mesh_deterministic_and_asymmetric(self):
        names = ["a", "b", "c"]
        one = SiteTopology.mesh(names, seed=7)
        two = SiteTopology.mesh(names, seed=7)
        assert all(one.link(x, y).latency_ms ==
                   two.link(x, y).latency_ms
                   for x in names for y in names)
        assert any(one.link(x, y).latency_ms !=
                   one.link(y, x).latency_ms
                   for x in names for y in names if x != y)


def heat(federation, origin, descriptor_id, reads):
    """Pull a block ``reads`` times from ``origin`` (feeds the tracker)."""
    blocks = [federation.block_for(descriptor_id, origin=origin)
              for _ in range(reads)]
    return blocks[-1]


class TestPolicies:
    def make(self):
        names = ["hub", "edge-1", "edge-2"]
        federation = make_federation(
            {"hub": [("hub/clip", "x" * 4000)],
             "edge-1": [], "edge-2": []},
            topology=star_topology(names))
        return federation

    def test_static_plans_nothing(self):
        federation = self.make()
        heat(federation, "edge-1", "hub/clip", 20)
        plan = PlacementPolicy().plan(federation)
        assert plan.empty
        assert federation.apply_placement(plan).applied == 0

    def test_replicate_hot_promotes_hot_remote_reads(self):
        federation = self.make()
        heat(federation, "edge-1", "hub/clip", 20)
        plan = ReplicateHotPolicy().plan(federation)
        assert [(m.descriptor_id, m.source, m.target, m.action)
                for m in plan.moves] == \
            [("hub/clip", "hub", "edge-1", "replicate")]
        assert plan.projected_saving_ms > plan.move_cost_ms
        assert "replicate" in plan.describe()

    def test_cold_reads_not_promoted(self):
        federation = self.make()
        heat(federation, "edge-1", "hub/clip", 1)
        assert ReplicateHotPolicy().plan(federation).empty

    def test_migrate_owner_moves_to_dominant_origin(self):
        federation = self.make()
        heat(federation, "edge-1", "hub/clip", 20)
        heat(federation, "edge-2", "hub/clip", 2)
        plan = MigrateOwnerPolicy().plan(federation)
        assert [(m.descriptor_id, m.target, m.action)
                for m in plan.moves] == \
            [("hub/clip", "edge-1", "migrate")]

    def test_hybrid_migrates_dominant_replicates_shared(self):
        dominant = self.make()
        heat(dominant, "edge-1", "hub/clip", 20)
        heat(dominant, "edge-2", "hub/clip", 2)
        plan = HybridPolicy().plan(dominant)
        assert [m.action for m in plan.moves] == ["migrate"]
        shared = self.make()
        heat(shared, "edge-1", "hub/clip", 10)
        heat(shared, "edge-2", "hub/clip", 10)
        plan = HybridPolicy().plan(shared)
        assert sorted((m.target, m.action) for m in plan.moves) == \
            [("edge-1", "replicate"), ("edge-2", "replicate")]

    def test_resolve_policy(self):
        assert resolve_policy("hybrid").name == "hybrid"
        policy = ReplicateHotPolicy()
        assert resolve_policy(policy) is policy
        with pytest.raises(ValueError):
            resolve_policy("teleport")

    def test_move_action_validated(self):
        with pytest.raises(ValueError):
            PlacementMove("id", "a", "b", action="shred")


class TestApplyPlacement:
    def make(self):
        names = ["hub", "edge-1", "edge-2"]
        return make_federation(
            {"hub": [("hub/clip", "y" * 2000)],
             "edge-1": [], "edge-2": []},
            topology=star_topology(names))

    def test_replicate_copies_and_charges(self):
        federation = self.make()
        plan = ReplicationPlan("manual", (PlacementMove(
            "hub/clip", "hub", "edge-1", payload_bytes=2000),))
        outcome = federation.apply_placement(plan)
        assert outcome.applied == 1 and outcome.skipped == 0
        assert sorted(federation.holders("hub/clip")) == \
            ["edge-1", "hub"]
        assert outcome.bytes_moved > 2000    # payload + descriptor wire
        assert federation.traffic.placement_moves == 1
        assert federation.traffic.placement_bytes == outcome.bytes_moved
        assert federation.traffic.placement_ms == pytest.approx(
            outcome.simulated_ms)
        assert federation.traffic.simulated_ms == pytest.approx(
            outcome.simulated_ms)
        # The copy serves payload-identical content.
        assert federation.block_for(
            "hub/clip", origin="edge-1").materialize() == \
            federation.block_for("hub/clip", origin="hub").materialize()

    def test_migrate_unregisters_source(self):
        federation = self.make()
        plan = ReplicationPlan("manual", (PlacementMove(
            "hub/clip", "hub", "edge-2", action="migrate"),))
        assert federation.apply_placement(plan).applied == 1
        assert federation.holders("hub/clip") == ["edge-2"]

    def test_nonsense_moves_are_skipped(self):
        federation = self.make()
        federation.apply_placement(ReplicationPlan("manual", (
            PlacementMove("hub/clip", "hub", "edge-1"),)))
        plan = ReplicationPlan("manual", (
            PlacementMove("hub/clip", "hub", "edge-1"),   # already there
            PlacementMove("nowhere/clip", "hub", "edge-1"),
            PlacementMove("hub/clip", "hub", "mars"),))
        outcome = federation.apply_placement(plan)
        assert outcome.applied == 0 and outcome.skipped == 3


class TestRoutingInvalidation:
    """Satellite: stale routes and affinity pins must never serve a
    moved descriptor from its old owner."""

    def make(self):
        names = ["hub", "edge-1", "edge-2"]
        return make_federation(
            {"hub": [("hub/clip", "z" * 3000)],
             "edge-1": [], "edge-2": []},
            topology=star_topology(names))

    def test_replication_reroutes_origin_reads(self):
        federation = self.make()
        before = federation.block_for("hub/clip", origin="edge-1")
        assert federation.traffic.local_requests == 0
        paid_ms = federation.traffic.simulated_ms
        assert paid_ms > 0
        plan = ReplicationPlan("manual", (PlacementMove(
            "hub/clip", "hub", "edge-1"),))
        federation.apply_placement(plan)
        move_ms = federation.traffic.simulated_ms
        after = federation.block_for("hub/clip", origin="edge-1")
        # Same bytes, now free: the affinity pin to the hub was
        # invalidated and the read landed on the origin's own replica.
        assert after.materialize() == before.materialize()
        assert federation.traffic.local_requests == 1
        assert federation.traffic.simulated_ms == pytest.approx(move_ms)

    def test_migration_invalidates_routing_map(self):
        names = ["hub", "edge-1", "edge-2"]
        federation = make_federation(
            {"hub": [], "edge-1": [("far/clip", "z" * 3000)],
             "edge-2": []},
            topology=star_topology(names))
        # Populate the origin-less routing map toward the old owner.
        federation.descriptor("far/clip")
        assert federation._routes["far/clip"] == "edge-1"
        plan = ReplicationPlan("manual", (PlacementMove(
            "far/clip", "edge-1", "edge-2", action="migrate"),))
        federation.apply_placement(plan)
        assert "far/clip" not in federation._routes
        assert federation.site_of("far/clip") == "edge-2"
        # The read still answers, now from the new owner.
        assert federation.block_for("far/clip").size_bytes == 3000

    def test_stale_affinity_pin_self_heals(self):
        federation = self.make()
        federation.apply_placement(ReplicationPlan("manual", (
            PlacementMove("hub/clip", "hub", "edge-2"),)))
        # Pin edge-1's reads to the edge-2 replica, then delete that
        # replica behind the router's back.
        before = federation.block_for("hub/clip", origin="edge-1")
        federation._affinity["hub/clip"]["edge-1"] = "edge-2"
        federation.site("edge-2").store.unregister("hub/clip")
        after = federation.block_for("hub/clip", origin="edge-1")
        assert after.materialize() == before.materialize()
        assert federation._affinity["hub/clip"]["edge-1"] == "hub"

    def test_breaker_interaction_with_down_old_owner(self):
        """A flapped/downed old owner opens its breaker; placement then
        routes around the dead site entirely."""
        names = ["hub", "edge-1", "edge-2"]
        federation = make_federation(
            {"hub": [("hub/clip", "w" * 2500)],
             "edge-1": [], "edge-2": []},
            topology=star_topology(names),
            faults=parse_fault_plan("seed=11,down=hub"))
        # Replicate to edge-2 first so the id stays reachable while the
        # hub (its cheapest holder for edge-1, pre-placement) is down.
        federation.apply_placement(ReplicationPlan("manual", (
            PlacementMove("hub/clip", "hub", "edge-2"),)))
        robust = federation.traffic.robustness
        first = federation.block_for("hub/clip", origin="edge-1")
        # The hub exhausted its retry budget (opening its breaker) and
        # the read failed over to the edge-2 replica.
        assert robust.breaker_opens >= 1
        assert robust.failovers >= 1
        shorts_before = robust.breaker_shorts
        second = federation.block_for("hub/clip", origin="edge-1")
        assert second.materialize() == first.materialize()
        # While open, the breaker shorts the hub without an attempt.
        assert robust.breaker_shorts > shorts_before
        # Enough failovers tick the clock past the cooldown: the
        # breaker half-opens and probes the (still dead) hub.
        for _ in range(20):
            federation.block_for("hub/clip", origin="edge-1")
        assert robust.breaker_probes >= 1
        # Placement now gives the origin its own replica: reads go
        # local and never consult the dead site again.
        federation.apply_placement(ReplicationPlan("manual", (
            PlacementMove("hub/clip", "edge-2", "edge-1"),)))
        local_before = federation.traffic.local_requests
        shorts_after = robust.breaker_shorts
        placed = federation.block_for("hub/clip", origin="edge-1")
        assert placed.materialize() == first.materialize()
        assert federation.traffic.local_requests == local_before + 1
        assert robust.breaker_shorts == shorts_after
        assert robust.unrecovered == 0

    def test_half_open_probe_closes_on_success(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ticks=4)
        assert breaker.allow(0) == (True, False)
        breaker.record_failure(0)
        breaker.record_failure(1)
        assert breaker.allow(2) == (False, False)       # open: shorted
        allowed, probe = breaker.allow(6)               # cooled down
        assert allowed and probe
        assert breaker.record_success()                 # probe closes it
        assert breaker.allow(7) == (True, False)


class TestSummarySizeCache:
    """Satellite: summary wire bytes computed once per (site, version)."""

    def test_size_walk_runs_once_per_version(self, monkeypatch):
        federation = make_federation(
            {"a": [], "b": [("b/one", "text")]})
        import repro.store.distributed as distributed
        calls = []
        real = distributed.summary_wire_bytes

        def counting(summary):
            calls.append(summary.version)
            return real(summary)

        monkeypatch.setattr(distributed, "summary_wire_bytes", counting)
        site = federation.site("b")
        first = federation._summary_size(site, site.summary())
        second = federation._summary_size(site, site.summary())
        assert first == second
        assert len(calls) == 1
        # A version bump invalidates the cached size.
        site.store.register(*text_descriptor("b/two", "more text"))
        third = federation._summary_size(site, site.summary())
        assert len(calls) == 2
        assert third != first or calls[-1] != calls[0]

    def test_find_traffic_uses_cached_size(self):
        federation = make_federation(
            {"a": [], "b": [("b/one", "text")]})
        federation.find(medium="text")
        bytes_once = federation.traffic.summary_bytes
        federation.site("b").store.register(
            *text_descriptor("b/two", "more"))
        federation.find(medium="text")
        # Second search refreshed the changed summary: bytes charged
        # again, from the recomputed (not stale) size.
        assert federation.traffic.summary_bytes > bytes_once


SMALL = WorkloadSpec(sites=3, topology="star", documents=6, events=6,
                     sessions=120, zipf_s=1.2, locality=0.75, seed=23)


class TestPlacementEquivalence:
    """The tentpole invariant: placement is a pure optimization."""

    @pytest.mark.parametrize("policy", ["replicate-hot", "migrate-owner",
                                        "hybrid"])
    @pytest.mark.parametrize("seed", [7, 23])
    def test_fingerprints_identical_to_static(self, policy, seed):
        spec = WorkloadSpec(sites=3, topology="mesh", documents=5,
                            events=6, sessions=100, seed=seed)
        static = run_workload(build_workload(spec), policy="static",
                              fingerprints=True)
        placed = run_workload(build_workload(spec), policy=policy,
                              rebalance_every=25, fingerprints=True)
        assert placed.fingerprints == static.fingerprints
        assert placed.requests == static.requests

    def test_fingerprints_identical_under_faults(self):
        plan = parse_fault_plan("seed=5,blocks=0.05")
        static = run_workload(
            build_workload(SMALL, faults=plan), policy="static",
            fingerprints=True)
        placed = run_workload(
            build_workload(SMALL, faults=parse_fault_plan(
                "seed=5,blocks=0.05")),
            policy="hybrid", rebalance_every=30, fingerprints=True)
        assert placed.fingerprints == static.fingerprints
        assert placed.moves_applied > 0

    def test_find_results_unchanged_by_rebalance(self):
        workload = build_workload(SMALL)
        federation = workload.federation
        run_workload(workload, policy="static")  # heat the tracker
        before = [d.descriptor_id
                  for d in federation.find(medium="audio")]
        plan, outcome = federation.rebalance("replicate-hot")
        assert outcome.applied > 0
        after = [d.descriptor_id
                 for d in federation.find(medium="audio")]
        assert after == before

    def test_placement_reduces_traffic(self):
        static = run_workload(build_workload(SMALL), policy="static")
        placed = run_workload(build_workload(SMALL),
                              policy="replicate-hot", rebalance_every=30)
        assert placed.traffic["simulated_ms"] < \
            static.traffic["simulated_ms"]
        assert placed.traffic["total_bytes"] < \
            static.traffic["total_bytes"]
        assert placed.traffic["local_requests"] > \
            static.traffic["local_requests"]


class TestWorkloadDeterminism:
    def test_same_spec_same_world(self):
        one = build_workload(SMALL)
        two = build_workload(SMALL)
        assert one.requests == two.requests
        assert one.homes == two.homes
        assert one.catalog == two.catalog
        one_report = one.federation.placement_report()
        two_report = two.federation.placement_report()
        assert {n: s.file_ids for n, s in one_report.sites.items()} == \
            {n: s.file_ids for n, s in two_report.sites.items()}

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            build_workload(WorkloadSpec(topology="torus"))

    def test_zipf_head_dominates(self):
        workload = build_workload(SMALL)
        counts = {}
        for request in workload.requests:
            counts[request.document_index] = \
                counts.get(request.document_index, 0) + 1
        assert counts[0] == max(counts.values())


class TestServingAffinity:
    def test_reports_identical_traffic_differs(self):
        from repro.transport.environments import WORKSTATION
        static_load = build_workload(SMALL)
        static = serve_workload(static_load, [WORKSTATION],
                                policy="static", rebalance_every=40,
                                seed=3)
        placed_load = build_workload(SMALL)
        placed = serve_workload(placed_load, [WORKSTATION],
                                policy="hybrid", rebalance_every=40,
                                seed=3)
        assert [r.sessions_served for r in placed] == \
            [r.sessions_served for r in static]
        assert placed_load.federation.traffic.placement_moves > 0
        assert placed_load.federation.traffic.simulated_ms < \
            static_load.federation.traffic.simulated_ms

    def test_admit_installs_streamer_and_origin(self):
        from repro.serving import SessionEngine
        from repro.transport.environments import WORKSTATION
        workload = build_workload(SMALL)
        engine = SessionEngine(federation=workload.federation, seed=1)
        request = workload.requests[0]
        session = engine.admit(
            workload.documents[request.document_index], WORKSTATION,
            origin=request.origin,
            stream_ids=workload.catalog[request.document_index])
        assert session.origin == request.origin
        assert session.streamer is not None
        assert session.bytes_streamed == 0
        session.play()
        assert session.bytes_streamed > 0

    def test_federation_forces_serial_drive(self):
        """Worker forking would lose the shared federation's traffic;
        the drive must stay serial and keep every counter."""
        from repro.serving import SessionEngine
        from repro.transport.environments import WORKSTATION
        workload = build_workload(SMALL)
        engine = SessionEngine(federation=workload.federation, seed=1)
        sessions = [engine.admit(
            workload.documents[request.document_index], WORKSTATION,
            origin=request.origin,
            stream_ids=workload.catalog[request.document_index])
            for request in workload.requests[:8]]
        engine.drive(sessions, 1, workers=4)
        traffic = workload.federation.traffic
        assert traffic.local_requests + traffic.requests > 0
        assert all(session.bytes_streamed > 0
                   for session in sessions if session.admitted)


class TestServeWorkloadReports:
    def test_batch_rows_count_every_session(self):
        """Each batch report's rows are the engine's deltas over that
        batch, so the per-batch session counts sum to the stream."""
        import dataclasses
        from repro.transport.environments import (PERSONAL_SYSTEM,
                                                  WORKSTATION)
        workload = build_workload(dataclasses.replace(SMALL, sessions=12))
        reports = serve_workload(workload, [WORKSTATION, PERSONAL_SYSTEM],
                                 policy="replicate-hot",
                                 rebalance_every=6, seed=3)
        assert [report.sessions for report in reports] == [6, 6]
        assert sum(report.sessions for report in reports) == \
            len(workload.requests)
        assert [len(report.sessions_served) for report in reports] == \
            [6, 6]
        assert all(report.wall_seconds > 0 for report in reports)
        assert all(report.replays == report.admitted
                   for report in reports)


class TestPlacementReportCli:
    def test_federation_wide_report(self):
        workload = build_workload(SMALL)
        report = workload.federation.placement_report()
        assert set(report.sites) == set(workload.site_names)
        assert sum(site.descriptor_count
                   for site in report.sites.values()) == \
            report.total_replicas
        assert report.replica_histogram  # every id counted somewhere
        text = report.describe()
        assert "placement:" in text
        assert "site-0" in text and "payload B" in text

    def test_cli_serve_sites(self, tmp_path, capsys):
        from repro.cli import main
        code = main(["serve", str(tmp_path / "corpus"),
                     "--generate", "3", "--sites", "2",
                     "--placement", "replicate-hot",
                     "--placement-sessions", "40",
                     "--rebalance-every", "20",
                     "--environments", "workstation",
                     "--placement-report"])
        out = capsys.readouterr().out
        assert code == 0
        assert "placement: policy=replicate-hot" in out
        assert "x1 replication:" in out
