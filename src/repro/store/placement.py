"""Traffic-driven placement for the federation (ROADMAP item 1).

The paper's distributed store (section 6) leaves descriptors wherever
they were authored; Gray's *Locally Served Network Computers*
(PAPERS.md) argues the economics run the other way — serve from where
the traffic is.  This module turns the federation's traffic telemetry
into *action*:

* :class:`NetworkModel` — one link's per-request latency and
  throughput, the price every federated read and placement move pays;
* :class:`SiteTopology` — named sites joined by per-ordered-pair
  :class:`NetworkModel` links (asymmetric costs allowed), with
  ``star`` / ``chain`` / ``mesh`` constructors;
* :class:`HotSetTracker` — a bounded space-saving top-K sketch per
  origin site (Metwally et al.), so demand accounting stays O(K) in
  space no matter how many descriptors the federation holds, and a
  min-heap keeps each read's bookkeeping at O(log K) amortized;
* :class:`PlacementPolicy` and friends — cost-model-driven policies
  (``static`` / ``replicate-hot`` / ``migrate-owner`` / ``hybrid``)
  that turn a hot set into an explicit :class:`ReplicationPlan` of
  :class:`PlacementMove`\\ s, applied by
  :meth:`~repro.store.distributed.FederatedStore.apply_placement`.

Placement is a pure optimization: applying any plan may change *where*
reads are served from (and hence the simulated traffic bill), but never
*what* they return — ``find`` / ``descriptor`` / ``block_for`` results
stay bit-identical, which the placement tests and
``benchmarks/bench_placement.py`` pin.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class NetworkModel:
    """Per-request latency and throughput of the simulated network."""

    latency_ms: float = 5.0
    bandwidth_bytes_per_ms: float = 1250.0   # 10 Mbit/s

    def transfer_ms(self, size_bytes: int) -> float:
        """Simulated wall time to move ``size_bytes`` one way."""
        return self.latency_ms + size_bytes / self.bandwidth_bytes_per_ms


#: A zero-cost link: a site reading its own store never touches the
#: simulated network.
LOCAL_LINK = NetworkModel(latency_ms=0.0,
                          bandwidth_bytes_per_ms=float("inf"))

#: Policy names accepted by :func:`resolve_policy` (CLI / bench axis).
PLACEMENT_POLICIES = ("static", "replicate-hot", "migrate-owner",
                     "hybrid")


class SiteTopology:
    """Named sites joined by directed, possibly asymmetric links.

    ``link(a, b)`` is the network model a request *from* ``a`` *to*
    ``b`` pays; ``link(a, a)`` is always :data:`LOCAL_LINK` (free).
    Unlisted pairs fall back to ``default``.
    """

    def __init__(self, sites, links=None, *,
                 default: NetworkModel | None = None) -> None:
        self.sites = tuple(sites)
        self._links: dict[tuple[str, str], NetworkModel] = \
            dict(links or {})
        self.default = default if default is not None else NetworkModel()

    def link(self, origin: str, target: str) -> NetworkModel:
        """The directed link model from ``origin`` to ``target``."""
        if origin == target:
            return LOCAL_LINK
        return self._links.get((origin, target), self.default)

    def transfer_ms(self, origin: str, target: str,
                    size_bytes: int) -> float:
        """Simulated time to move ``size_bytes`` from target to origin."""
        return self.link(origin, target).transfer_ms(size_bytes)

    # -- constructors ------------------------------------------------------

    @classmethod
    def star(cls, hub: str, edges, *,
             spoke: NetworkModel | None = None,
             uplink_factor: float = 1.0) -> "SiteTopology":
        """Hub-and-spoke: every edge reaches the hub over ``spoke``;
        edge-to-edge traffic pays both hops.  ``uplink_factor`` > 1
        makes edge→hub uploads slower than downloads (asymmetric DSL-
        style links)."""
        spoke = spoke if spoke is not None else NetworkModel()
        up = NetworkModel(
            latency_ms=spoke.latency_ms * uplink_factor,
            bandwidth_bytes_per_ms=(
                spoke.bandwidth_bytes_per_ms / uplink_factor))
        two_hop = NetworkModel(
            latency_ms=spoke.latency_ms + up.latency_ms,
            bandwidth_bytes_per_ms=min(spoke.bandwidth_bytes_per_ms,
                                       up.bandwidth_bytes_per_ms))
        links: dict[tuple[str, str], NetworkModel] = {}
        edges = tuple(edges)
        for edge in edges:
            links[(hub, edge)] = spoke       # hub pulls from an edge
            links[(edge, hub)] = up          # edge pulls from the hub
            for other in edges:
                if other != edge:
                    links[(edge, other)] = two_hop
        return cls((hub, *edges), links, default=two_hop)

    @classmethod
    def chain(cls, sites, *,
              hop: NetworkModel | None = None) -> "SiteTopology":
        """A linear chain: cost scales with hop distance."""
        hop = hop if hop is not None else NetworkModel()
        sites = tuple(sites)
        links: dict[tuple[str, str], NetworkModel] = {}
        for i, a in enumerate(sites):
            for j, b in enumerate(sites):
                if i == j:
                    continue
                hops = abs(i - j)
                links[(a, b)] = NetworkModel(
                    latency_ms=hop.latency_ms * hops,
                    bandwidth_bytes_per_ms=hop.bandwidth_bytes_per_ms)
        return cls(sites, links, default=hop)

    @classmethod
    def mesh(cls, sites, *, base: NetworkModel | None = None,
             seed: int = 0) -> "SiteTopology":
        """A full mesh with seeded, deterministic per-direction jitter —
        the asymmetric-link case (a→b and b→a differ)."""
        base = base if base is not None else NetworkModel()
        rng = random.Random(seed)
        sites = tuple(sites)
        links: dict[tuple[str, str], NetworkModel] = {}
        for a in sites:
            for b in sites:
                if a == b:
                    continue
                jitter = 0.5 + rng.random()      # 0.5x .. 1.5x
                links[(a, b)] = NetworkModel(
                    latency_ms=base.latency_ms * jitter,
                    bandwidth_bytes_per_ms=(
                        base.bandwidth_bytes_per_ms / jitter))
        return cls(sites, links, default=base)


@dataclass
class HotEntry:
    """One counter of the space-saving sketch.

    ``error`` bounds the overestimate inherited when the counter was
    recycled from an evicted id: the true request count is at least
    ``requests - error``.
    """

    descriptor_id: str
    requests: int = 0
    payload_bytes: int = 0
    error: int = 0


class HotSetTracker:
    """Space-saving top-K demand sketch, one sketch per origin site.

    ``record`` is O(1) for an id already tracked and O(log K) amortized
    when a new id evicts the minimum counter, and the whole tracker is
    O(origins × K) space regardless of how many distinct descriptors
    flow through — the property that keeps placement viable at
    million-descriptor scale.  Counters weight by both request count
    and payload bytes; policies rank by the byte volume a placement
    move could actually save.

    Each origin keeps a min-heap of ``(requests, payload_bytes,
    descriptor_id)`` keys beside its sketch, one key per tracked id.
    A hit only bumps the sketch entry, leaving its heap key stale but
    never above the entry's true key (a counter only grows, and every
    hit adds a request).  Eviction re-pushes stale tops with their
    current keys until the top is current: that id then holds the
    smallest key of the sketch, and since the id makes every key
    unique, it is the victim a full scan would pick.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("tracker capacity must be >= 1")
        self.capacity = capacity
        self._sketches: dict[str, dict[str, HotEntry]] = {}
        self._heaps: dict[str, list[tuple[int, int, str]]] = {}

    def record(self, origin: str, descriptor_id: str,
               payload_bytes: int = 0, requests: int = 1) -> None:
        """Note ``requests`` reads (at least one) of ``descriptor_id``
        issued from ``origin``, moving ``payload_bytes`` in all: the
        sketch ends as ``requests`` single-read calls would leave it."""
        sketch = self._sketches.get(origin)
        if sketch is None:
            sketch = self._sketches[origin] = {}
            self._heaps[origin] = []
        entry = sketch.get(descriptor_id)
        if entry is not None:
            entry.requests += requests
            entry.payload_bytes += payload_bytes
            return
        heap = self._heaps[origin]
        if len(sketch) < self.capacity:
            sketch[descriptor_id] = HotEntry(
                descriptor_id, requests=requests,
                payload_bytes=payload_bytes)
            heapq.heappush(heap, (requests, payload_bytes, descriptor_id))
            return
        # Space-saving eviction: recycle the minimum counter, the new
        # id inherits its counts as the overestimate bound.
        while True:
            pushed, _, victim_id = heap[0]
            victim = sketch[victim_id]
            if victim.requests == pushed:       # no hit since pushed
                break
            heapq.heapreplace(heap, (victim.requests,
                                     victim.payload_bytes, victim_id))
        del sketch[victim_id]
        entry = HotEntry(
            descriptor_id,
            requests=victim.requests + requests,
            payload_bytes=victim.payload_bytes + payload_bytes,
            error=victim.requests)
        sketch[descriptor_id] = entry
        heapq.heapreplace(heap, (entry.requests, entry.payload_bytes,
                                 descriptor_id))

    def hot_set(self, origin: str) -> list[HotEntry]:
        """The origin's hot entries, heaviest (by bytes) first."""
        sketch = self._sketches.get(origin, {})
        return sorted(sketch.values(),
                      key=lambda e: (-e.payload_bytes, -e.requests,
                                     e.descriptor_id))

    def origins(self) -> list[str]:
        """Every origin the tracker has seen, sorted."""
        return sorted(self._sketches)

    def demand(self, descriptor_id: str) -> dict[str, HotEntry]:
        """Per-origin entries for one id (origins that still track it)."""
        out: dict[str, HotEntry] = {}
        for origin, sketch in self._sketches.items():
            entry = sketch.get(descriptor_id)
            if entry is not None:
                out[origin] = entry
        return out

    def reset(self) -> None:
        self._sketches.clear()
        self._heaps.clear()


@dataclass(frozen=True)
class PlacementMove:
    """Copy (``replicate``) or move (``migrate``) one descriptor and
    its payload block from ``source`` to ``target``."""

    descriptor_id: str
    source: str
    target: str
    action: str = "replicate"            # "replicate" | "migrate"
    payload_bytes: int = 0

    def __post_init__(self) -> None:
        if self.action not in ("replicate", "migrate"):
            raise ValueError(f"unknown placement action {self.action!r}")


@dataclass
class ReplicationPlan:
    """An explicit, inspectable batch of placement moves."""

    policy: str
    moves: tuple[PlacementMove, ...] = ()
    projected_saving_ms: float = 0.0
    move_cost_ms: float = 0.0

    @property
    def empty(self) -> bool:
        return not self.moves

    def describe(self) -> str:
        lines = [f"plan[{self.policy}]: {len(self.moves)} move(s), "
                 f"projected saving {self.projected_saving_ms:.1f} ms, "
                 f"move cost {self.move_cost_ms:.1f} ms"]
        for move in self.moves:
            lines.append(
                f"  {move.action:<9} {move.descriptor_id} "
                f"{move.source} -> {move.target} "
                f"({move.payload_bytes} B)")
        return "\n".join(lines)


class PlacementPolicy:
    """Base policy: ``static`` — never move anything.

    Subclasses override :meth:`plan`.  All policies are pure functions
    of the federation's current holdings, its topology and the hot-set
    tracker: planning inspects, only
    :meth:`FederatedStore.apply_placement` mutates.
    """

    name = "static"

    #: A move must project at least this multiple of its own transfer
    #: cost in savings before it is worth scheduling.
    promote_factor = 2.0

    def plan(self, federation) -> ReplicationPlan:
        return ReplicationPlan(policy=self.name)

    # -- shared cost-model helpers ----------------------------------------

    def _payload_size(self, federation, descriptor_id: str,
                      entry_bytes: int, requests: int) -> int:
        """True block size when a holder knows it, else the observed
        mean transfer size from the sketch."""
        for name in federation.holders(descriptor_id):
            store = federation.site(name).store
            descriptor = store.descriptor(descriptor_id)
            if descriptor.block_id is not None:
                return store.block_for(descriptor_id).size_bytes
            return 0
        return entry_bytes // max(requests, 1)

    def _serve_cost_ms(self, federation, origin: str,
                       descriptor_id: str, size: int) -> tuple[float, str]:
        """(cost, holder) of the cheapest current replica for origin."""
        topology = federation.topology
        best: tuple[float, str] | None = None
        for holder in federation.holders(descriptor_id):
            cost = topology.transfer_ms(origin, holder, size)
            if best is None or (cost, holder) < best:
                best = (cost, holder)
        if best is None:
            return float("inf"), ""
        return best

    def _move(self, federation, descriptor_id: str, target: str,
              action: str, size: int) -> tuple[PlacementMove, float]:
        """Build a move from the holder nearest to ``target``."""
        topology = federation.topology
        cost, source = min(
            (topology.transfer_ms(target, holder, size), holder)
            for holder in federation.holders(descriptor_id))
        move = PlacementMove(descriptor_id, source, target,
                             action=action, payload_bytes=size)
        return move, cost

    def _demand_table(self, federation):
        """id -> {origin: HotEntry} across every tracked origin."""
        tracker = federation.hot_tracker
        table: dict[str, dict[str, HotEntry]] = {}
        for origin in tracker.origins():
            for entry in tracker.hot_set(origin):
                table.setdefault(entry.descriptor_id, {})[origin] = entry
        return table


class ReplicateHotPolicy(PlacementPolicy):
    """Copy each origin's hot descriptors next to that origin whenever
    the projected steady-state saving clears the transfer cost."""

    name = "replicate-hot"

    def plan(self, federation) -> ReplicationPlan:
        moves: list[PlacementMove] = []
        saving_total = 0.0
        cost_total = 0.0
        planned: set[tuple[str, str]] = set()
        tracker = federation.hot_tracker
        for origin in tracker.origins():
            for entry in tracker.hot_set(origin):
                did = entry.descriptor_id
                if (did, origin) in planned:
                    continue
                holders = federation.holders(did)
                if not holders or origin in holders:
                    continue
                size = self._payload_size(federation, did,
                                          entry.payload_bytes,
                                          entry.requests)
                serve_ms, _ = self._serve_cost_ms(
                    federation, origin, did, size)
                projected = entry.requests * serve_ms
                move, move_ms = self._move(federation, did, origin,
                                           "replicate", size)
                if projected < self.promote_factor * move_ms:
                    continue
                planned.add((did, origin))
                moves.append(move)
                saving_total += projected
                cost_total += move_ms
        return ReplicationPlan(self.name, tuple(moves),
                               projected_saving_ms=saving_total,
                               move_cost_ms=cost_total)


class MigrateOwnerPolicy(PlacementPolicy):
    """Move each descriptor to the single origin that dominates its
    demand (no extra copies — the storage-frugal policy)."""

    name = "migrate-owner"

    def plan(self, federation) -> ReplicationPlan:
        moves: list[PlacementMove] = []
        saving_total = 0.0
        cost_total = 0.0
        topology = federation.topology
        for did, per_origin in sorted(self._demand_table(
                federation).items()):
            holders = federation.holders(did)
            if not holders:
                continue
            dominant = min(
                per_origin,
                key=lambda o: (-per_origin[o].payload_bytes,
                               -per_origin[o].requests, o))
            if dominant in holders:
                continue
            entry = per_origin[dominant]
            size = self._payload_size(federation, did,
                                      entry.payload_bytes,
                                      entry.requests)
            # Total bill across every tracked origin, before vs after.
            before = after = 0.0
            for origin, origin_entry in per_origin.items():
                serve_ms, _ = self._serve_cost_ms(
                    federation, origin, did, size)
                before += origin_entry.requests * serve_ms
                after += origin_entry.requests * topology.transfer_ms(
                    origin, dominant, size)
            move, move_ms = self._move(federation, did, dominant,
                                       "migrate", size)
            if before - after < self.promote_factor * move_ms:
                continue
            moves.append(move)
            saving_total += before - after
            cost_total += move_ms
        return ReplicationPlan(self.name, tuple(moves),
                               projected_saving_ms=saving_total,
                               move_cost_ms=cost_total)


class HybridPolicy(PlacementPolicy):
    """Migrate when one origin dominates a descriptor's demand,
    replicate to every origin with a meaningful share otherwise."""

    name = "hybrid"
    #: Demand share above which a single origin takes sole ownership.
    dominance = 0.6
    #: Minimum share an origin needs to earn its own replica.
    share = 0.15

    def plan(self, federation) -> ReplicationPlan:
        moves: list[PlacementMove] = []
        saving_total = 0.0
        cost_total = 0.0
        for did, per_origin in sorted(self._demand_table(
                federation).items()):
            holders = federation.holders(did)
            if not holders:
                continue
            total_bytes = sum(e.payload_bytes
                              for e in per_origin.values())
            if total_bytes <= 0:
                continue
            dominant = min(
                per_origin,
                key=lambda o: (-per_origin[o].payload_bytes,
                               -per_origin[o].requests, o))
            dominant_share = (per_origin[dominant].payload_bytes
                              / total_bytes)
            if dominant_share >= self.dominance:
                targets = [(dominant, "migrate")]
            else:
                targets = [(origin, "replicate")
                           for origin in sorted(per_origin)
                           if per_origin[origin].payload_bytes
                           / total_bytes >= self.share]
            for target, action in targets:
                if target in holders:
                    continue
                entry = per_origin[target]
                size = self._payload_size(federation, did,
                                          entry.payload_bytes,
                                          entry.requests)
                serve_ms, _ = self._serve_cost_ms(
                    federation, target, did, size)
                projected = entry.requests * serve_ms
                move, move_ms = self._move(federation, did, target,
                                           action, size)
                if projected < self.promote_factor * move_ms:
                    continue
                moves.append(move)
                saving_total += projected
                cost_total += move_ms
                if action == "migrate":
                    break       # sole owner moved; nothing to replicate
        return ReplicationPlan(self.name, tuple(moves),
                               projected_saving_ms=saving_total,
                               move_cost_ms=cost_total)


def resolve_policy(spec) -> PlacementPolicy:
    """A policy instance from a name (CLI / bench axis) or instance."""
    if isinstance(spec, PlacementPolicy):
        return spec
    policies = {
        "static": PlacementPolicy,
        "replicate-hot": ReplicateHotPolicy,
        "migrate-owner": MigrateOwnerPolicy,
        "hybrid": HybridPolicy,
    }
    try:
        return policies[spec]()
    except KeyError:
        raise ValueError(
            f"unknown placement policy {spec!r}; expected one of "
            f"{', '.join(PLACEMENT_POLICIES)}") from None


@dataclass
class PlacementOutcome:
    """What :meth:`FederatedStore.apply_placement` actually did."""

    applied: int = 0
    skipped: int = 0
    bytes_moved: int = 0
    simulated_ms: float = 0.0
    moves: tuple[PlacementMove, ...] = ()


@dataclass
class PlacementSiteReport:
    """One site's physical footprint (satellite: byte accounting)."""

    site: str
    descriptor_count: int = 0
    payload_bytes: int = 0
    file_ids: tuple[str, ...] = ()


@dataclass
class PlacementReport:
    """Per-site footprints plus the federation's replica histogram."""

    sites: dict[str, PlacementSiteReport] = field(default_factory=dict)
    #: replication factor -> number of descriptor ids at that factor.
    replica_histogram: dict[int, int] = field(default_factory=dict)

    def __getitem__(self, site: str) -> tuple[str, ...]:
        """Back-compat: ``report[site]`` is that site's file ids."""
        return self.sites[site].file_ids

    def describe(self) -> str:
        lines = ["placement:"]
        for name in sorted(self.sites):
            entry = self.sites[name]
            lines.append(
                f"  {name:<12} {entry.descriptor_count:>6} descriptor(s)"
                f"  {entry.payload_bytes:>10} payload B")
        for factor in sorted(self.replica_histogram):
            lines.append(f"  x{factor} replication: "
                         f"{self.replica_histogram[factor]} id(s)")
        return "\n".join(lines)
