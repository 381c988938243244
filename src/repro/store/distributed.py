"""A simulated distributed document store (paper section 6).

"We also feel that the use of both distributed databases and distributed
operating systems support is vital to the efficient implementation of
multimedia systems. ... we are investigating the use of the Amoeba
distributed operating system as a base for a distributed multimedia
system, with integrated support for a distributed database mechanism to
manage document storage across the multimedia environment."

Amoeba itself is substituted (DESIGN.md) by a federation of local
:class:`~repro.store.datastore.DataStore` sites connected by a simulated
network: every remote operation pays a per-request latency plus a
per-byte transfer cost, and the federation keeps transfer accounting.

Two mechanisms keep the federation's *request* traffic proportional to
the sites that can actually answer (Gray's locally-served-network
principle — serve from local knowledge, touch remotes only when they
contribute):

* each site exports a cheap :class:`~repro.store.datastore.StoreSummary`
  (keyword / medium / attribute-key membership, refreshed only when the
  site's store version moves), and :meth:`FederatedStore.find` skips
  any site whose summary cannot match the query — counted in
  ``traffic.requests_avoided``;
* every descriptor that crosses the network is recorded in a
  descriptor→site **routing map**, so later :meth:`descriptor`,
  :meth:`site_of` and :meth:`block_for` calls go straight to the owning
  site instead of probing the federation in order.

That is enough to reproduce the section-6 tendency the paper cares
about: descriptor traffic is tiny and cacheable, payload traffic is
huge, so *moving descriptors instead of data* is the winning strategy —
measured by :mod:`benchmarks.bench_distributed_store` and
:mod:`benchmarks.bench_store_query`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.core.channels import Medium
from repro.core.descriptors import DataBlock, DataDescriptor
from repro.core.errors import StoreError
from repro.faults import (CircuitBreaker, FaultClock, FaultInjected,
                          FaultPlan, RetryPolicy, RobustnessStats,
                          corrupt_block, parse_fault_plan)
from repro.ledger import Ledger
from repro.store.datastore import DataStore, StoreSummary
from repro.store.placement import (HotSetTracker, NetworkModel,
                                   PlacementOutcome, PlacementReport,
                                   PlacementSiteReport, resolve_policy)
from repro.store.query import (Always, And, Contains, DurationBetween, Eq,
                               MatchesAttr, MediumIs, Or, Query, Range,
                               criteria_query)

#: Rough size of one serialized descriptor on the wire, in bytes.  Used
#: for transfer accounting only; the exact figure is irrelevant to the
#: descriptor-vs-payload asymmetry being demonstrated.
DESCRIPTOR_WIRE_BYTES = 512

#: Fixed overhead of one serialized index summary, in bytes.
SUMMARY_BASE_WIRE_BYTES = 64

#: Per-entry cost of a summary (one keyword / medium / attribute key).
SUMMARY_ENTRY_WIRE_BYTES = 8


def summary_wire_bytes(summary: StoreSummary) -> int:
    """Simulated wire size of one site summary."""
    entries = (len(summary.keywords) + len(summary.media)
               + len(summary.attribute_keys))
    return SUMMARY_BASE_WIRE_BYTES + SUMMARY_ENTRY_WIRE_BYTES * entries


def summary_can_match(query: Query, summary: StoreSummary) -> bool:
    """Could any descriptor behind ``summary`` satisfy ``query``?

    Conservative: False only when the summary *proves* no match is
    possible (a required keyword / medium / attribute key the site has
    never seen).  Unknown query shapes — NOT, opaque closures — always
    answer True, so pruning can never lose results.
    """
    if isinstance(query, And):
        return all(summary_can_match(part, summary)
                   for part in query.parts)
    if isinstance(query, Or):
        return any(summary_can_match(part, summary)
                   for part in query.parts)
    if isinstance(query, MediumIs):
        return query.medium in summary.media
    if isinstance(query, Contains):
        if query.name != "keywords":
            return query.name in summary.attribute_keys
        if summary.fuzzy_keywords:
            return True
        try:
            return query.item in summary.keywords
        except TypeError:
            return True         # unhashable search item: cannot prune
    if isinstance(query, MatchesAttr):
        if query.name == "medium":
            try:
                medium = (query.wanted
                          if isinstance(query.wanted, Medium)
                          else Medium.from_name(query.wanted))
            except Exception:
                return True     # malformed medium: let the site raise
            return medium in summary.media
        if query.wanted is None:
            return True         # matches descriptors lacking the key
        if query.name == "keywords":
            if summary.fuzzy_keywords:
                return True
            try:
                if query.wanted in summary.keywords:
                    return True
            except TypeError:
                return True
            if isinstance(query.wanted, str):
                # Without fuzzy entries every stored keywords value is a
                # container of hashable members, so a string criterion
                # can only match by membership — proven absent above.
                return False
            return "keywords" in summary.attribute_keys
        return query.name in summary.attribute_keys
    if isinstance(query, Eq):
        if query.value is None:
            return True         # equals-None matches absent attributes
        return query.name in summary.attribute_keys
    if isinstance(query, Range):
        return query.name in summary.attribute_keys
    if isinstance(query, DurationBetween):
        return "duration" in summary.attribute_keys
    if isinstance(query, Always):
        return summary.count > 0
    return True                 # Not / opaque closures: no pruning


@dataclass
class TrafficStats(Ledger):
    """Accumulated simulated network traffic of one federation.

    :meth:`reset` zeroes the *counters* only — warm state survives on
    purpose.  The federation's descriptor→site routing map, descriptor
    cache and cached summaries live on :class:`FederatedStore`, not
    here, and deliberately survive it: the benchmarks that call
    ``traffic.reset()`` measure the *warm* request path (what repeat
    traffic costs once routes are learned).  To measure a cold start —
    counters and caches together — use
    :meth:`FederatedStore.reset_traffic`.
    """

    requests: int = 0
    requests_avoided: int = 0
    #: Reads served from the requesting origin's own store (free).
    local_requests: int = 0
    descriptor_bytes: int = 0
    payload_bytes: int = 0
    summary_bytes: int = 0
    #: Placement-plan traffic (descriptor + payload copies/migrations).
    placement_moves: int = 0
    placement_bytes: int = 0
    placement_ms: float = 0.0
    simulated_ms: float = 0.0
    #: Fault/recovery ledger for the federation's remote operations.
    robustness: RobustnessStats = field(default_factory=RobustnessStats)

    counter_properties = ("total_bytes",)

    @property
    def total_bytes(self) -> int:
        """All bytes moved: descriptors, payloads, summaries and
        placement transfers."""
        return self.descriptor_bytes + self.payload_bytes \
            + self.summary_bytes + self.placement_bytes


@dataclass
class Site:
    """One storage site of the federation."""

    name: str
    store: DataStore
    network: NetworkModel = field(default_factory=NetworkModel)

    def summary(self) -> StoreSummary:
        """The site's current index summary (version-cached)."""
        return self.store.summary()


class SiteUnavailable(StoreError):
    """A remote operation failed after exhausting its retry budget.

    ``pending`` counts the injected faults of the *final* attempt that
    still await an outcome: the catcher must classify them — a replica
    failover, stale summary, or partial result masks them
    (``recovered``); re-raising to the caller makes them
    ``unrecovered``.  A circuit-breaker short carries ``pending=0``
    (shorting is a local refusal, not an injected fault).
    """

    def __init__(self, site: str, kind: str, key: object, *,
                 pending: int, reason: str) -> None:
        super().__init__(
            f"site {site!r} unavailable for {kind} {key!r}: {reason}")
        self.site = site
        self.kind = kind
        self.key = key
        self.pending = pending
        self.reason = reason


@dataclass
class FindOutcome:
    """A federation search result with its completeness marked.

    ``partial`` is True when any remote site could not be (fully)
    consulted; ``unreachable_sites`` were skipped outright,
    ``stale_sites`` were pruned against a stale cached summary (their
    recent additions may be missing).  ``descriptors`` is never
    speculative — everything listed really matched.
    """

    descriptors: list[DataDescriptor]
    partial: bool = False
    unreachable_sites: tuple[str, ...] = ()
    stale_sites: tuple[str, ...] = ()


class FederatedStore:
    """Several sites presenting one descriptor namespace.

    Descriptor lookups consult the local site first, then the routing
    map, then the remotes (paying simulated network cost); fetched
    descriptors are cached locally — the paper's "value of document
    sharing and multiple access to information".  Payload fetches
    always pay full transfer cost and are never cached (payloads are
    "massive"); moving a payload closer to its readers is placement's
    job (:meth:`rebalance`).
    """

    #: Circuit-breaker tuning for remote sites (per-site breakers are
    #: created lazily; only consulted when a fault plan is active).
    BREAKER_THRESHOLD = 4
    BREAKER_COOLDOWN_TICKS = 16

    def __init__(self, local: Site, remotes: list[Site], *,
                 faults: FaultPlan | str | None = None,
                 retry: RetryPolicy | None = None,
                 topology=None) -> None:
        names = [local.name] + [site.name for site in remotes]
        if len(set(names)) != len(names):
            raise StoreError(f"duplicate site names in federation: {names}")
        self.local = local
        self.remotes = list(remotes)
        self.traffic = TrafficStats()
        #: Optional :class:`~repro.store.placement.SiteTopology`.  When
        #: set, reads that carry an ``origin=`` are priced by the
        #: origin→holder link and served from the cheapest replica;
        #: without it every call keeps the pre-placement behaviour.
        self.topology = topology
        #: With a topology, the
        #: :class:`~repro.store.placement.HotSetTracker` fed by every
        #: origin-tagged read (the placement policies' input).
        self.hot_tracker = None if topology is None else HotSetTracker()
        # Faults are explicit-only here (no REPRO_FAULTS default): the
        # federation's tests and benches assert exact traffic counts,
        # and the chaos matrix exercises it through the higher layers.
        self.faults = parse_fault_plan(faults)
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_clock = FaultClock()
        self._breakers: dict[str, CircuitBreaker] = {}
        self._descriptor_cache: dict[str, DataDescriptor] = {}
        #: descriptor id -> name of the site that physically holds it.
        self._routes: dict[str, str] = {}
        self._sites_by_name: dict[str, Site] = {
            site.name: site for site in [local, *remotes]}
        #: last summary seen per remote site (refreshed by version).
        self._summaries: dict[str, StoreSummary] = {}
        #: cached summary wire size per site: (version, bytes).
        self._summary_sizes: dict[str, tuple[int, int]] = {}
        #: affinity pins: descriptor id -> {origin -> serving site}.
        #: Invalidated when a placement plan moves the id.
        self._affinity: dict[str, dict[str, str]] = {}
        #: origin site -> every site with its link from the origin, by
        #: (rank cost, name); the topology is fixed, like the tracker.
        self._orders: dict[str, tuple[tuple[Site, NetworkModel], ...]] = {}
        #: ``FaultPlan.fires``'s kept hashes for descriptor-id reads.
        self._fault_hashes: dict[tuple, int] = {}

    def reset_traffic(self) -> None:
        """Reset traffic counters and the warm state with them.

        The routing map, the descriptor cache, the cached summaries,
        the affinity pins and the hot-set tracker are cleared together
        with the counters, so subsequent measurements include the
        warm-up traffic a cold federation would pay.
        ``traffic.reset()`` resets the counters alone.
        """
        self.traffic.reset()
        self._descriptor_cache.clear()
        self._routes.clear()
        self._summaries.clear()
        self._summary_sizes.clear()
        self._affinity.clear()
        if self.hot_tracker is not None:
            self.hot_tracker.reset()

    # -- guarded remote operations -----------------------------------------

    def _breaker(self, site_name: str) -> CircuitBreaker:
        breaker = self._breakers.get(site_name)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.BREAKER_THRESHOLD,
                cooldown_ticks=self.BREAKER_COOLDOWN_TICKS)
            self._breakers[site_name] = breaker
        return breaker

    def _remote_call(self, site: Site, kind: str, key: object, fetch,
                     *, rate: float = 0.0,
                     network: NetworkModel | None = None,
                     hashes: dict | None = None):
        """Run one remote operation under the fault plan's weather.

        ``fetch(attempt)`` performs the actual operation and pays its
        normal traffic accounting.  With no plan active this *is*
        ``fetch(0)`` — the pre-fault code path, zero added cost.  With
        a plan, each attempt ticks the fault clock, consults the site's
        circuit breaker, and may be failed by a site outage, a
        transient fault of this ``kind`` (probability ``rate``), or a
        :class:`FaultInjected` raised inside ``fetch`` (e.g. a corrupt
        payload caught by checksum).  Failed attempts pay one request
        plus latency; retries add exponential backoff to the simulated
        clock until the policy's attempt or deadline budget runs out,
        then :class:`SiteUnavailable` carries the final attempt's
        unclassified faults to the caller.  Reads keyed by a descriptor
        id pass the federation's table of fault ``hashes``.
        """
        if self.faults is None:
            return fetch(0)
        plan = self.faults
        policy = self.retry
        robust = self.traffic.robustness
        breaker = self._breaker(site.name)
        network = network if network is not None else site.network
        elapsed_ms = 0.0
        attempt = 0
        while True:
            tick = self.fault_clock.tick()
            allowed, probe = breaker.allow(tick)
            if not allowed:
                robust.breaker_shorts += 1
                raise SiteUnavailable(site.name, kind, key, pending=0,
                                      reason="circuit breaker open")
            if probe:
                robust.breaker_probes += 1
            failure = None
            fetch_paid = False
            if plan.site_down(site.name, tick):
                robust.record_fault("site-outage")
                failure = "site outage"
            elif plan.fires(rate, kind, key, attempt, hashes):
                robust.record_fault(kind)
                failure = f"transient {kind} failure"
            if failure is None:
                try:
                    result = fetch(attempt)
                except FaultInjected as exc:
                    failure = str(exc)      # fault already recorded
                    fetch_paid = True       # ...and its traffic paid
                else:
                    if breaker.record_success():
                        robust.breaker_closes += 1
                    if plan.fires(plan.latency_rate, "latency", key,
                                  attempt, hashes):
                        robust.record_fault("latency")
                        robust.absorbed += 1
                        self.traffic.simulated_ms += plan.latency_spike_ms
                    return result
            # One injected fault is now pending an outcome.  An attempt
            # that never reached fetch() still pays one request plus
            # latency; a corrupt delivery already paid its transfer.
            if not fetch_paid:
                self.traffic.requests += 1
                self.traffic.simulated_ms += network.latency_ms
            elapsed_ms += network.latency_ms
            if breaker.record_failure(tick):
                robust.breaker_opens += 1
            attempt += 1
            if policy.gives_up(attempt, elapsed_ms):
                if elapsed_ms >= policy.deadline_ms:
                    robust.deadline_exhausted += 1
                raise SiteUnavailable(site.name, kind, key, pending=1,
                                      reason=failure)
            backoff = policy.backoff_ms(attempt - 1)
            robust.retries += 1
            robust.backoff_ms += backoff
            robust.recovered += 1       # the retry masks this fault
            self.traffic.simulated_ms += backoff
            elapsed_ms += backoff

    # -- routing -----------------------------------------------------------

    def site(self, name: str) -> Site:
        """The named site, local or remote."""
        try:
            return self._sites_by_name[name]
        except KeyError:
            raise StoreError(
                f"no site named {name!r} in the federation") from None

    def holders(self, descriptor_id: str) -> list[str]:
        """Names of every site physically holding a descriptor."""
        return [site.name for site in self._sites_by_name.values()
                if descriptor_id in site.store]

    def _link(self, origin: str | None, site: Site) -> NetworkModel:
        """The network a read from ``origin`` pays to reach ``site``."""
        if origin is None or self.topology is None:
            return site.network
        return self.topology.link(origin, site.name)

    def _record_route(self, descriptor_id: str, site_name: str) -> None:
        self._routes[descriptor_id] = site_name

    def _routed_site(self, descriptor_id: str) -> Site | None:
        """The site the routing map names, if it still holds the id."""
        site_name = self._routes.get(descriptor_id)
        if site_name is None:
            return None
        site = self._sites_by_name.get(site_name)
        if site is None or descriptor_id not in site.store:
            self._routes.pop(descriptor_id, None)   # stale route
            return None
        return site

    def _summary_size(self, site: Site, summary: StoreSummary) -> int:
        """The summary's wire size, cached per (site, version) — the
        size walk over every keyword/medium/attribute entry runs once
        per version, not once per refresh."""
        cached = self._summary_sizes.get(site.name)
        if cached is not None and cached[0] == summary.version:
            return cached[1]
        size = summary_wire_bytes(summary)
        self._summary_sizes[site.name] = (summary.version, size)
        return size

    def _summary_for(self, site: Site,
                     origin: str | None = None) -> StoreSummary:
        """The site's summary, refreshed (and paid for) when stale.

        Coherence is modelled as *push-invalidation*: sites are assumed
        to broadcast their version bumps (a real federation would
        piggyback them on any reply, or multicast invalidations), so
        learning "has this site changed?" is free and only the summary
        refresh itself pays a request plus its wire bytes.
        """
        cached = self._summaries.get(site.name)
        if cached is not None and cached.version == site.store.version:
            return cached
        network = self._link(origin, site)

        def fetch(attempt: int) -> StoreSummary:
            summary = site.summary()
            size = self._summary_size(site, summary)
            self.traffic.requests += 1
            self.traffic.summary_bytes += size
            self.traffic.simulated_ms += network.transfer_ms(size)
            return summary

        rate = 0.0 if self.faults is None \
            else self.faults.summary_failure_rate
        summary = self._remote_call(
            site, "summary", (site.name, site.store.version), fetch,
            rate=rate, network=network)
        self._summaries[site.name] = summary
        return summary

    # -- the read core ----------------------------------------------------

    #: Nominal transfer size used to rank replica links (blends the
    #: per-request latency with the per-byte cost of a typical payload).
    RANK_TRANSFER_BYTES = 65536

    def _resolve(self, origin: str | None):
        """``(origin, home, track)`` for reads from ``origin``.  Without
        a topology the origin tag is ignored (pre-placement behaviour)
        and the local site is home; with one, the origin's own site
        serves for free and reads feed the hot-set tracker."""
        if origin is None or self.topology is None:
            return None, self.local, None
        tracker = self.hot_tracker
        return (origin, self._sites_by_name.get(origin),
                None if tracker is None else tracker.record)

    def _replica_order(self, origin: str) -> tuple:
        """Every site with its link from ``origin``, ordered by (rank
        cost, name): computed once for each site name."""
        order = self._orders.get(origin)
        if order is None:
            links = [(site, self.topology.link(origin, site.name))
                     for site in self._sites_by_name.values()]
            order = tuple(sorted(links, key=lambda pair: (
                pair[1].transfer_ms(self.RANK_TRANSFER_BYTES),
                pair[0].name)))
            if origin in self._sites_by_name:
                self._orders[origin] = order
        return order

    def _replicas(self, descriptor_id: str, origin: str | None):
        """Candidate ``(site, link)`` pairs for an id in failover order.

        Without an origin: the routed site first, then every other
        remote replica (pre-placement behaviour).  With an origin and a
        topology: every holding site — local included — ordered by the
        origin's link cost.  An affinity pin recorded for (origin, id)
        keeps reads on the chosen replica until a placement plan (or a
        vanished copy) invalidates it: the pinned replica is tried
        first, and the others are ranked only when it fails.
        """
        if origin is None:
            routed = self._routed_site(descriptor_id)
            if routed is not None:
                yield routed, routed.network
            for site in self.remotes:
                if site is not routed and descriptor_id in site.store:
                    yield site, site.network
            return
        pins = self._affinity.get(descriptor_id)
        pinned = None if pins is None else pins.get(origin)
        if pinned is not None:
            site = self._sites_by_name.get(pinned)
            if site is not None and descriptor_id in site.store:
                yield site, self.topology.link(origin, pinned)
                for other, link in self._replica_order(origin):
                    if other is not site and descriptor_id in other.store:
                        yield other, link
                return
            del pins[origin]                    # stale pin: copy gone
        holding = [pair for pair in self._replica_order(origin)
                   if descriptor_id in pair[0].store]
        if holding:
            self._affinity.setdefault(descriptor_id, {})[origin] = \
                holding[0][0].name
        yield from holding

    def _classify_failover(self, pending: int, failed: list[str]) -> None:
        """A replica answered after ``failed`` sites did not: the
        pending faults were masked by failover."""
        if self.faults is None or not failed:
            return
        robust = self.traffic.robustness
        robust.failovers += 1
        robust.recovered += pending

    def _failover(self, descriptor_id: str, origin: str | None, kind: str,
                  fetch, rate: float = 0.0):
        """``(site, answer)`` of the first replica, in failover order,
        whose ``fetch(descriptor_id, site, link, attempt)`` answers; the
        id is routed to it.  A :class:`StoreError` when none does."""
        pending = 0
        failed: list[str] = []
        for site, network in self._replicas(descriptor_id, origin):
            try:
                answer = self._remote_call(
                    site, kind, descriptor_id,
                    partial(fetch, descriptor_id, site, network),
                    rate=rate, network=network, hashes=self._fault_hashes)
            except SiteUnavailable as exc:
                pending += exc.pending
                failed.append(site.name)
                continue
            self._classify_failover(pending, failed)
            self._record_route(descriptor_id, site.name)
            return site, answer
        what = "descriptor" if kind == "descriptor" else "block for"
        if failed:
            self.traffic.robustness.unrecovered += pending
            raise StoreError(
                f"{what} {descriptor_id!r} unreachable: site(s) "
                f"{', '.join(failed)} unavailable")
        what = "descriptor" if kind == "descriptor" else "a block for"
        raise StoreError(
            f"no site in the federation holds {what} {descriptor_id!r}")

    def _serve_descriptor(self, descriptor_id: str, origin: str | None,
                          held: Site | None) -> DataDescriptor:
        """One descriptor read; ``held`` is the home site when its store
        holds the id (a free read), else None."""
        if held is not None:
            if origin is not None:
                self.traffic.local_requests += 1
            descriptor = held.store.descriptor(descriptor_id)
        else:
            descriptor = self._descriptor_cache.get(descriptor_id)
            if descriptor is None:
                _, descriptor = self._failover(
                    descriptor_id, origin, "descriptor",
                    self._fetch_descriptor)
                self._descriptor_cache[descriptor_id] = descriptor
        return descriptor

    def _fetch_descriptor(self, descriptor_id: str, site: Site,
                          network: NetworkModel,
                          attempt: int) -> DataDescriptor:
        self.traffic.requests += 1
        self.traffic.descriptor_bytes += DESCRIPTOR_WIRE_BYTES
        self.traffic.simulated_ms += network.transfer_ms(
            DESCRIPTOR_WIRE_BYTES)
        return site.store.descriptor(descriptor_id)

    def _serve_block(self, descriptor_id: str, origin: str | None,
                     held: Site | None) -> tuple[DataBlock, int]:
        """One block read, as :meth:`_serve_descriptor`; returns the block
        and its size in bytes, taken once per read for the traffic
        bill, the hot-set tracker and :meth:`stream`."""
        if held is not None:
            block, size = held.store.read_block(descriptor_id)
            if origin is not None:
                self.traffic.local_requests += 1
        else:
            rate = 0.0 if self.faults is None \
                else self.faults.block_failure_rate
            _, (block, size) = self._failover(
                descriptor_id, origin, "block", self._fetch_block, rate)
        return block, size

    def _fetch_block(self, descriptor_id: str, site: Site,
                     network: NetworkModel,
                     attempt: int) -> tuple[DataBlock, int]:
        block, size = site.store.read_block(descriptor_id)
        self.traffic.requests += 1
        self.traffic.payload_bytes += size
        self.traffic.simulated_ms += network.transfer_ms(size)
        plan = self.faults
        if plan is not None and plan.fires(
                plan.block_corrupt_rate, "block-corrupt", descriptor_id,
                attempt, self._fault_hashes):
            robust = self.traffic.robustness
            robust.record_fault("block-corrupt")
            damaged = corrupt_block(block)
            if damaged.checksum() != block.checksum():
                robust.checksum_rejects += 1
                raise FaultInjected(
                    "block-corrupt", descriptor_id,
                    f"checksum mismatch on block for "
                    f"{descriptor_id!r} from {site.name}")
            robust.absorbed += 1    # pragma: no cover
        return block, size

    # -- reads ---------------------------------------------------------------

    def descriptor(self, descriptor_id: str, *,
                   origin: str | None = None) -> DataDescriptor:
        """Resolve a descriptor: local, cache, route, then probing.

        Under an active fault plan an unavailable site fails over to
        any other replica holding the id; only when every holder is
        unavailable does the lookup fail.  With a topology attached and
        an ``origin`` site given, the read is priced from that origin
        and served by its cheapest replica (free when the origin's own
        store holds the id) — results are identical either way.
        """
        origin, home, track = self._resolve(origin)
        held = home if home is not None and descriptor_id in home.store \
            else None
        descriptor = self._serve_descriptor(descriptor_id, origin, held)
        if track is not None:
            track(origin, descriptor_id, DESCRIPTOR_WIRE_BYTES)
        return descriptor

    def site_of(self, descriptor_id: str) -> str:
        """Which site physically holds a descriptor's data.

        Locally held descriptors answer immediately; everything the
        federation has ever routed answers from the routing map without
        touching any site.
        """
        if descriptor_id in self.local.store:
            return self.local.name
        routed = self._routed_site(descriptor_id)
        if routed is not None:
            return routed.name
        for site in self.remotes:
            if descriptor_id in site.store:
                self._record_route(descriptor_id, site.name)
                return site.name
        raise StoreError(f"descriptor {descriptor_id!r} is nowhere in "
                         f"the federation")

    def block_for(self, descriptor_id: str, *,
                  origin: str | None = None) -> DataBlock:
        """Fetch a payload block, paying transfer cost when remote.

        Under an active fault plan a delivery may be transiently failed
        (``block_failure_rate``) or corrupted in flight
        (``block_corrupt_rate``) — corruption is detected by checksum
        and the fetch retried; an unavailable site fails over to any
        other replica holding the id.  With a topology attached and an
        ``origin`` site given, transfer is priced over the origin's
        cheapest link and a replica at the origin serves for free —
        the block returned is identical either way.
        """
        origin, home, track = self._resolve(origin)
        held = home if home is not None and descriptor_id in home.store \
            else None
        block, size = self._serve_block(descriptor_id, origin, held)
        if track is not None:
            track(origin, descriptor_id, size)
        return block

    # -- federation-wide attribute search -----------------------------------------

    def find(self, **criteria) -> list[DataDescriptor]:
        """Attribute search across the federation (descriptor traffic
        only); criteria semantics match :meth:`DataStore.find`."""
        return self.find_where(criteria_query(criteria))

    def find_where(self, query: Query, *,
                   origin: str | None = None) -> list[DataDescriptor]:
        """Planned attribute search; see :meth:`find_where_detailed`.

        Under an active fault plan the result may silently be partial —
        callers that need to know use :meth:`find_where_detailed`,
        whose :class:`FindOutcome` marks incompleteness explicitly.
        """
        return self.find_where_detailed(query, origin=origin).descriptors

    def find_where_detailed(self, query: Query, *,
                            origin: str | None = None) -> FindOutcome:
        """Planned attribute search across every site that can match.

        The local site answers through its own planner for free; each
        remote site is consulted only when its cached index summary
        (refreshed when the site's store version moves) says the query
        could match there — skipped sites are tallied in
        ``traffic.requests_avoided``.  Contacted sites answer with
        matching descriptors at one request plus one descriptor's bytes
        per match — the section-6 search-key scenario.

        Under an active fault plan, a site whose summary refresh fails
        is pruned against its last cached summary instead (a *stale*
        site: recent additions may be missed), and a site that cannot
        be reached at all is skipped (*unreachable*).  Either case
        marks the outcome ``partial``.

        With a topology attached and an ``origin`` given, the origin's
        own site answers for free and every other site is priced over
        the origin's link.  Results are returned in descriptor-id
        order, so *what* a search returns never depends on placement —
        only the traffic bill does.
        """
        origin = self._resolve(origin)[0]
        if origin is None:
            home = self.local
            fanout = list(self.remotes)
        else:
            home = self._sites_by_name.get(origin, self.local)
            fanout = [site for site in self._sites_by_name.values()
                      if site is not home]
            self.traffic.local_requests += 1
        results = list(home.store.find_where(query))
        seen = {descriptor.descriptor_id for descriptor in results}
        unreachable: list[str] = []
        stale: list[str] = []
        for site in fanout:
            try:
                summary = self._summary_for(site, origin)
            except SiteUnavailable as exc:
                robust = self.traffic.robustness
                cached = self._summaries.get(site.name)
                if cached is None:
                    # Nothing to prune with and the site is down:
                    # serve without it, explicitly partial.
                    robust.recovered += exc.pending
                    unreachable.append(site.name)
                    continue
                robust.stale_summaries += 1
                robust.recovered += exc.pending
                stale.append(site.name)
                summary = cached
            if not summary_can_match(query, summary):
                self.traffic.requests_avoided += 1
                continue

            network = self._link(origin, site)

            def fetch(attempt: int, site: Site = site,
                      network: NetworkModel = network
                      ) -> list[DataDescriptor]:
                matches = site.store.find_where(query)
                self.traffic.requests += 1
                matched_bytes = DESCRIPTOR_WIRE_BYTES * len(matches)
                self.traffic.descriptor_bytes += matched_bytes
                self.traffic.simulated_ms += network.transfer_ms(
                    matched_bytes)
                return matches

            try:
                matches = self._remote_call(
                    site, "find", (site.name, site.store.version), fetch,
                    network=network)
            except SiteUnavailable as exc:
                self.traffic.robustness.recovered += exc.pending
                unreachable.append(site.name)
                continue
            for descriptor in matches:
                self._record_route(descriptor.descriptor_id, site.name)
                if descriptor.descriptor_id not in seen:
                    seen.add(descriptor.descriptor_id)
                    results.append(descriptor)
                    self._descriptor_cache[descriptor.descriptor_id] = \
                        descriptor
        if unreachable:
            self.traffic.robustness.partial_results += 1
        results.sort(key=lambda descriptor: descriptor.descriptor_id)
        return FindOutcome(results,
                           partial=bool(unreachable or stale),
                           unreachable_sites=tuple(unreachable),
                           stale_sites=tuple(stale))

    def resolver(self):
        """A document resolver over the whole federation."""
        def resolve(file_id: str) -> DataDescriptor | None:
            try:
                return self.descriptor(file_id)
            except StoreError:
                return None
        return resolve

    # -- placement ---------------------------------------------------------

    def _invalidate_placement(self, descriptor_id: str) -> None:
        """Drop every cached route for an id a plan just moved: the
        stale ``_routed_site`` / affinity pins must not keep serving
        from the old owner."""
        self._routes.pop(descriptor_id, None)
        self._descriptor_cache.pop(descriptor_id, None)
        self._affinity.pop(descriptor_id, None)

    def apply_placement(self, plan):
        """Execute a :class:`~repro.store.placement.ReplicationPlan`.

        Each move copies the descriptor (and its payload block, when it
        has one) from source to target, unregistering the source copy
        on a migration.  The transfer is charged to the placement
        counters *and* to ``simulated_ms`` — a plan has to pay for its
        own moves, so the bench's ≥3× gate already nets them out.
        Placement transfers are control-plane traffic: they run outside
        the fault plan's weather (a real rebalancer retries in the
        background at leisure).
        """
        applied = skipped = 0
        bytes_moved = 0
        cost_ms = 0.0
        done: list = []
        for move in plan.moves:
            source = self._sites_by_name.get(move.source)
            target = self._sites_by_name.get(move.target)
            if (source is None or target is None
                    or move.descriptor_id not in source.store
                    or move.descriptor_id in target.store):
                skipped += 1
                continue
            descriptor = source.store.descriptor(move.descriptor_id)
            block = None
            size = DESCRIPTOR_WIRE_BYTES
            if descriptor.block_id is not None:
                block = source.store.block_for(move.descriptor_id)
                size += block.size_bytes
            target.store.register_copy(descriptor, block)
            if move.action == "migrate":
                source.store.unregister(move.descriptor_id)
            link = (self.topology.link(move.target, move.source)
                    if self.topology is not None else source.network)
            applied += 1
            bytes_moved += size
            cost_ms += link.transfer_ms(size)
            self._invalidate_placement(move.descriptor_id)
            done.append(move)
        self.traffic.placement_moves += applied
        self.traffic.placement_bytes += bytes_moved
        self.traffic.placement_ms += cost_ms
        self.traffic.simulated_ms += cost_ms
        return PlacementOutcome(applied=applied, skipped=skipped,
                                bytes_moved=bytes_moved,
                                simulated_ms=cost_ms,
                                moves=tuple(done))

    def rebalance(self, policy):
        """Plan with ``policy`` and apply in one step; returns
        ``(plan, outcome)``."""
        plan = resolve_policy(policy).plan(self)
        return plan, self.apply_placement(plan)

    # -- streaming ---------------------------------------------------------

    def stream(self, stream_ids, *, origin: str | None = None) -> int:
        """Pull every listed payload toward ``origin`` — one session's
        content traffic.  Ids nobody holds, and ids whose every replica
        is unavailable under the fault plan, are skipped (the serving
        layer degrades; this accounting must not abort the session).
        Returns the number of payload bytes delivered.
        """
        origin, home, track = self._resolve(origin)
        delivered = 0
        for descriptor_id in stream_ids:
            held = home if home is not None \
                and descriptor_id in home.store else None
            try:
                descriptor = self._serve_descriptor(descriptor_id, origin,
                                                    held)
            except StoreError:
                continue
            reads, moved = 1, DESCRIPTOR_WIRE_BYTES
            if descriptor.block_id is not None:
                try:
                    size = self._serve_block(descriptor_id, origin, held)[1]
                except StoreError:
                    pass
                else:
                    reads, moved = 2, moved + size
                    delivered += size
            if track is not None:       # both of the id's reads at once
                track(origin, descriptor_id, moved, reads)
        return delivered

    # -- placement analysis ---------------------------------------------------------

    def placement_report(self, document=None):
        """Where data physically lives, with byte footprints.

        The paper: "management of the location of data in a
        transportable document" — this is the map a placement optimizer
        would consume.  With a ``document``, each of its EXT file
        references is attributed to the site that serves it
        (``<missing>`` when nobody does); without one the whole
        federation is reported.  Either way every site entry carries
        its descriptor count and payload byte footprint, and the report
        includes a replication-factor histogram.
        """
        report = PlacementReport()
        if document is None:
            counted: dict[str, int] = {}
            for site in self._sites_by_name.values():
                store = site.store
                report.sites[site.name] = PlacementSiteReport(
                    site=site.name,
                    descriptor_count=len(store),
                    payload_bytes=store.total_payload_bytes(),
                    file_ids=tuple(sorted(
                        d.descriptor_id for d in store.descriptors())))
                for descriptor in store.descriptors():
                    counted[descriptor.descriptor_id] = \
                        counted.get(descriptor.descriptor_id, 0) + 1
            for factor in counted.values():
                report.replica_histogram[factor] = \
                    report.replica_histogram.get(factor, 0) + 1
            return report
        placement: dict[str, list[str]] = {}
        for _, file_id in document.file_references():
            try:
                site = self.site_of(file_id)
            except StoreError:
                site = "<missing>"
            placement.setdefault(site, []).append(file_id)
            copies = len(self.holders(file_id))
            if copies:
                report.replica_histogram[copies] = \
                    report.replica_histogram.get(copies, 0) + 1
        for site_name, file_ids in placement.items():
            file_ids.sort()
            payload = 0
            site = self._sites_by_name.get(site_name)
            if site is not None:
                for file_id in file_ids:
                    descriptor = site.store.descriptor(file_id)
                    if descriptor.block_id is not None:
                        payload += site.store.block_for(
                            file_id).size_bytes
            report.sites[site_name] = PlacementSiteReport(
                site=site_name,
                descriptor_count=len(file_ids),
                payload_bytes=payload,
                file_ids=tuple(file_ids))
        return report
