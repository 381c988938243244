"""The federation's read path before it routed each read once.

``RoutingFederatedStore`` overrides :class:`FederatedStore`'s reads with
their earlier bodies, verbatim: ``stream``, ``descriptor``,
``block_for`` and ``_read_block`` resolve the origin, the home site and
its membership once per step; ``_holding_sites`` tests every site's
membership and sorts the holders by link cost on every read that walks
the replicas, then sorts again to put an affinity pin first; and
``_remote_call`` hashes each fault decision afresh.  Everything else
(routes, pins, caches, breakers, placement, search) is inherited, so a
test driving both classes through one script compares exactly the read
paths.
"""

from __future__ import annotations

from repro.core.descriptors import DataBlock, DataDescriptor
from repro.core.errors import StoreError
from repro.faults import FaultInjected, corrupt_block
from repro.store.distributed import (DESCRIPTOR_WIRE_BYTES, FederatedStore,
                                     NetworkModel, Site, SiteUnavailable)


class RoutingFederatedStore(FederatedStore):
    """A federation whose reads re-derive their routing per read."""

    def _effective_origin(self, origin: str | None) -> str | None:
        """Origin-aware routing needs a topology; without one the
        origin tag is ignored and behaviour is pre-placement."""
        if origin is None or self.topology is None:
            return None
        return origin

    def _track(self, origin: str | None, descriptor_id: str,
               payload_bytes: int) -> None:
        if origin is not None and self.hot_tracker is not None:
            self.hot_tracker.record(origin, descriptor_id, payload_bytes)

    def _remote_call(self, site: Site, kind: str, key: object, fetch,
                     *, rate: float = 0.0,
                     network: NetworkModel | None = None):
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
        unclassified faults to the caller.
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
            elif plan.fires(rate, kind, key, attempt):
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
                                  attempt):
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

    def _holding_sites(self, descriptor_id: str,
                       origin: str | None = None) -> list[Site]:
        """Candidate sites for an id in failover order.

        Without an origin: the routed site first, then every other
        remote replica (pre-placement behaviour).  With an origin and a
        topology: every holding site — local included — ordered by the
        origin's link cost; an affinity pin recorded for (origin, id)
        keeps reads on the chosen replica until a placement plan (or a
        vanished copy) invalidates it.
        """
        if origin is None or self.topology is None:
            routed = self._routed_site(descriptor_id)
            candidates = [] if routed is None else [routed]
            for site in self.remotes:
                if site is not routed and descriptor_id in site.store:
                    candidates.append(site)
            return candidates
        holding = [site for site in self._sites_by_name.values()
                   if descriptor_id in site.store]
        holding.sort(key=lambda site: (
            self._rank_cost(origin, site.name), site.name))
        pins = self._affinity.get(descriptor_id)
        pinned = None if pins is None else pins.get(origin)
        if pinned is not None:
            pinned_site = self._sites_by_name.get(pinned)
            if pinned_site is None or descriptor_id not in \
                    pinned_site.store:
                pins.pop(origin, None)          # stale pin: copy gone
            else:
                holding.sort(key=lambda site: site.name != pinned)
                return holding
        if holding:
            self._affinity.setdefault(descriptor_id, {})[origin] = \
                holding[0].name
        return holding

    def _rank_cost(self, origin: str, site_name: str) -> float:
        link = self.topology.link(origin, site_name)
        return link.transfer_ms(self.RANK_TRANSFER_BYTES)

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
        origin = self._effective_origin(origin)
        if origin is None:
            if descriptor_id in self.local.store:
                return self.local.store.descriptor(descriptor_id)
        else:
            home = self._sites_by_name.get(origin)
            if home is not None and descriptor_id in home.store:
                self.traffic.local_requests += 1
                self._track(origin, descriptor_id, DESCRIPTOR_WIRE_BYTES)
                return home.store.descriptor(descriptor_id)
        cached = self._descriptor_cache.get(descriptor_id)
        if cached is not None:
            self._track(origin, descriptor_id, DESCRIPTOR_WIRE_BYTES)
            return cached
        pending = 0
        failed: list[str] = []
        for site in self._holding_sites(descriptor_id, origin):
            network = self._link(origin, site)

            def fetch(attempt: int, site: Site = site,
                      network: NetworkModel = network) -> DataDescriptor:
                self.traffic.requests += 1
                self.traffic.descriptor_bytes += DESCRIPTOR_WIRE_BYTES
                self.traffic.simulated_ms += network.transfer_ms(
                    DESCRIPTOR_WIRE_BYTES)
                return site.store.descriptor(descriptor_id)

            try:
                descriptor = self._remote_call(
                    site, "descriptor", descriptor_id, fetch,
                    network=network)
            except SiteUnavailable as exc:
                pending += exc.pending
                failed.append(site.name)
                continue
            self._classify_failover(pending, failed)
            self._descriptor_cache[descriptor_id] = descriptor
            self._record_route(descriptor_id, site.name)
            self._track(origin, descriptor_id, DESCRIPTOR_WIRE_BYTES)
            return descriptor
        if failed:
            self.traffic.robustness.unrecovered += pending
            raise StoreError(
                f"descriptor {descriptor_id!r} unreachable: site(s) "
                f"{', '.join(failed)} unavailable")
        raise StoreError(
            f"no site in the federation holds descriptor "
            f"{descriptor_id!r}")

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
        return self._read_block(descriptor_id, origin)[0]

    def _read_block(self, descriptor_id: str,
                    origin: str | None) -> tuple[DataBlock, int]:
        """:meth:`block_for`'s read, returning the block and its size in
        bytes.  The size is taken once per read and shared by the
        traffic bill, the hot-set tracker and :meth:`stream`."""
        origin = self._effective_origin(origin)
        if origin is None:
            if descriptor_id in self.local.store:
                block = self.local.store.block_for(descriptor_id)
                return block, block.size_bytes
        else:
            home = self._sites_by_name.get(origin)
            if home is not None and descriptor_id in home.store:
                block = home.store.block_for(descriptor_id)
                size = block.size_bytes
                self.traffic.local_requests += 1
                self._track(origin, descriptor_id, size)
                return block, size
        pending = 0
        failed: list[str] = []
        for site in self._holding_sites(descriptor_id, origin):
            network = self._link(origin, site)

            def fetch(attempt: int, site: Site = site,
                      network: NetworkModel = network
                      ) -> tuple[DataBlock, int]:
                block = site.store.block_for(descriptor_id)
                size = block.size_bytes
                self.traffic.requests += 1
                self.traffic.payload_bytes += size
                self.traffic.simulated_ms += network.transfer_ms(size)
                plan = self.faults
                if plan is not None and plan.fires(
                        plan.block_corrupt_rate, "block-corrupt",
                        descriptor_id, attempt):
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

            rate = 0.0 if self.faults is None \
                else self.faults.block_failure_rate
            try:
                block, size = self._remote_call(
                    site, "block", descriptor_id, fetch, rate=rate,
                    network=network)
            except SiteUnavailable as exc:
                pending += exc.pending
                failed.append(site.name)
                continue
            self._classify_failover(pending, failed)
            self._record_route(descriptor_id, site.name)
            self._track(origin, descriptor_id, size)
            return block, size
        if failed:
            self.traffic.robustness.unrecovered += pending
            raise StoreError(
                f"block for {descriptor_id!r} unreachable: site(s) "
                f"{', '.join(failed)} unavailable")
        raise StoreError(
            f"no site in the federation holds a block for "
            f"{descriptor_id!r}")

    def stream(self, stream_ids, *, origin: str | None = None) -> int:
        """Pull every listed payload toward ``origin`` — one session's
        content traffic.  Ids nobody holds, and ids whose every replica
        is unavailable under the fault plan, are skipped (the serving
        layer degrades; this accounting must not abort the session).
        Returns the number of payload bytes delivered.
        """
        delivered = 0
        for descriptor_id in stream_ids:
            try:
                descriptor = self.descriptor(descriptor_id,
                                             origin=origin)
                if descriptor.block_id is not None:
                    delivered += self._read_block(descriptor_id,
                                                  origin)[1]
            except StoreError:
                continue
        return delivered
