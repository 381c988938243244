"""Zipf-skewed placement workloads over configurable site topologies.

The placement subsystem (``repro.store.placement``) needs traffic worth
optimizing: millions of sessions whose document popularity follows a
zipf law and whose origins cluster around per-document "fan bases" —
regional content read mostly, but not only, from one region.  This
module builds that world deterministically from a seed:

* a :class:`SiteTopology` (star / chain / mesh, asymmetric links);
* one :class:`~repro.store.datastore.DataStore` per site, populated by
  authoring each corpus document at a seeded *author* site — every
  media descriptor gets a real payload block
  (:func:`~repro.corpus.generate.make_payload_block`) and the packed
  document itself is registered as a ``<name>/package`` program
  payload, so placement moves programs with their media;
* a request stream of ``(origin, document)`` pairs: documents sampled
  zipf, origins sampled from the document's favourite site with
  probability ``locality`` (uniform otherwise).

Descriptor ids are namespaced ``doc<i>/<id>`` in the federation (corpus
documents reuse ids like ``d0`` across documents), and
:attr:`PlacementWorkload.catalog` maps each document to its stream ids.

The author site is drawn independently of the favourite origin — the
paper's documents live where they were *made*, which is exactly the
mismatch traffic-driven placement exists to fix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.channels import Medium
from repro.core.descriptors import DataBlock, DataDescriptor
from repro.corpus.generate import make_media_document, make_payload_block
from repro.store.datastore import DataStore
from repro.store.distributed import FederatedStore, NetworkModel, Site
from repro.store.placement import SiteTopology, resolve_policy

#: Attribute marking a registered package payload (searchable).
PACKAGE_KEYWORD = "package"


@dataclass(frozen=True)
class WorkloadSpec:
    """Everything that determines a placement workload, seeded."""

    sites: int = 4
    topology: str = "star"               # star | chain | mesh
    documents: int = 16
    events: int = 10
    sessions: int = 800
    zipf_s: float = 1.2
    #: Probability a session originates at its document's favourite site.
    locality: float = 0.75
    seed: int = 1991
    link_latency_ms: float = 8.0
    link_bandwidth: float = 1250.0       # bytes per simulated ms


@dataclass(frozen=True)
class SessionRequest:
    """One session: which site asks for which document."""

    origin: str
    document_index: int


@dataclass
class PlacementWorkload:
    """A built workload: federation, documents, and request stream."""

    spec: WorkloadSpec
    topology: SiteTopology
    federation: FederatedStore
    documents: list
    #: document index -> federation ids a session of it streams
    #: (package payload first, then media in authoring order).
    catalog: dict[int, tuple[str, ...]] = field(default_factory=dict)
    requests: list[SessionRequest] = field(default_factory=list)
    #: document index -> (author site, favourite origin).
    homes: dict[int, tuple[str, str]] = field(default_factory=dict)

    @property
    def site_names(self) -> tuple[str, ...]:
        return tuple(f"site-{i}" for i in range(self.spec.sites))


def make_topology(spec: WorkloadSpec) -> SiteTopology:
    """The spec's site topology with its link cost model."""
    names = [f"site-{i}" for i in range(spec.sites)]
    link = NetworkModel(latency_ms=spec.link_latency_ms,
                        bandwidth_bytes_per_ms=spec.link_bandwidth)
    if spec.topology == "star":
        return SiteTopology.star(names[0], names[1:], spoke=link,
                                 uplink_factor=1.5)
    if spec.topology == "chain":
        return SiteTopology.chain(names, hop=link)
    if spec.topology == "mesh":
        return SiteTopology.mesh(names, base=link, seed=spec.seed)
    raise ValueError(f"unknown topology {spec.topology!r}; "
                     f"expected star, chain or mesh")


def zipf_weights(count: int, s: float) -> list[float]:
    """Unnormalized zipf weights for ranks 1..count."""
    return [1.0 / (rank ** s) for rank in range(1, count + 1)]


def package_descriptor_id(document) -> str:
    """The ``<name>/package`` id of a document's program payload."""
    return f"{document.root.name}/package"


def build_workload(spec: WorkloadSpec, documents=None,
                   *, faults=None, retry=None) -> PlacementWorkload:
    """Author the corpus across sites and draw the request stream.

    Deterministic in ``spec`` (and the passed documents): building the
    same spec twice yields bit-identical federations and requests — the
    property the static-vs-policy equivalence checks rest on.
    """
    rng = random.Random(spec.seed)
    site_names = [f"site-{i}" for i in range(spec.sites)]
    topology = make_topology(spec)
    stores = {name: DataStore(name) for name in site_names}
    if documents is None:
        documents = [make_media_document(spec.seed + index,
                                         events=spec.events)
                     for index in range(spec.documents)]
    else:
        documents = list(documents)

    from repro.transport.package import pack

    catalog: dict[int, tuple[str, ...]] = {}
    homes: dict[int, tuple[str, str]] = {}
    for index, document in enumerate(documents):
        author = rng.choice(site_names)
        favourite = rng.choice(site_names)
        homes[index] = (author, favourite)
        ids: list[str] = []
        package_id = package_descriptor_id(document)
        package_text = pack(document)
        stores[author].register(
            DataDescriptor(
                descriptor_id=package_id,
                medium=Medium.PROGRAM,
                block_id=f"{package_id}#blk",
                attributes={"keywords": (PACKAGE_KEYWORD,),
                            "document": document.root.name}),
            DataBlock(f"{package_id}#blk", Medium.PROGRAM,
                      payload=package_text))
        ids.append(package_id)
        for file_id, descriptor in document.descriptors.items():
            placed = DataDescriptor(
                descriptor_id=f"doc{index}/{file_id}",
                medium=descriptor.medium,
                block_id=f"doc{index}/{file_id}#blk",
                attributes=dict(descriptor.attributes))
            stores[author].register(
                placed, make_payload_block(placed, seed=spec.seed))
            ids.append(placed.descriptor_id)
        catalog[index] = tuple(ids)

    weights = zipf_weights(len(documents), spec.zipf_s)
    requests = []
    for _ in range(spec.sessions):
        document_index = rng.choices(range(len(documents)),
                                     weights=weights, k=1)[0]
        _, favourite = homes[document_index]
        if rng.random() < spec.locality:
            origin = favourite
        else:
            origin = rng.choice(site_names)
        requests.append(SessionRequest(origin, document_index))

    sites = [Site(name, stores[name],
                  network=topology.link(site_names[0], name)
                  if name != site_names[0] else NetworkModel())
             for name in site_names]
    federation = FederatedStore(sites[0], sites[1:], topology=topology,
                                faults=faults, retry=retry)
    return PlacementWorkload(spec=spec, topology=topology,
                             federation=federation,
                             documents=documents, catalog=catalog,
                             requests=requests, homes=homes)


@dataclass
class WorkloadRunReport:
    """What one pass of the request stream cost."""

    policy: str
    requests: int = 0
    bytes_delivered: int = 0
    plans_applied: int = 0
    moves_applied: int = 0
    traffic: dict = field(default_factory=dict)
    #: per-request (origin, document, delivered bytes) when collected —
    #: must be identical across policies (placement moves cost, never
    #: content).
    fingerprints: tuple = ()


def run_workload(workload: PlacementWorkload, *, policy="static",
                 rebalance_every: int = 0,
                 fingerprints: bool = False) -> WorkloadRunReport:
    """Stream every request through the federation under a policy.

    ``rebalance_every`` > 0 replans (and applies) after that many
    sessions — the placement epoch.  The federation is mutated; build a
    fresh workload per run when comparing policies.
    """
    federation = workload.federation
    chosen = resolve_policy(policy)
    report = WorkloadRunReport(policy=chosen.name)
    prints: list = []
    for serial, request in enumerate(workload.requests):
        if (rebalance_every and serial
                and serial % rebalance_every == 0
                and chosen.name != "static"):
            plan = chosen.plan(federation)
            outcome = federation.apply_placement(plan)
            if outcome.applied:
                report.plans_applied += 1
                report.moves_applied += outcome.applied
        delivered = federation.stream(
            workload.catalog[request.document_index],
            origin=request.origin)
        report.requests += 1
        report.bytes_delivered += delivered
        if fingerprints:
            prints.append((request.origin, request.document_index,
                           delivered))
    report.traffic = federation.traffic.counters()
    report.fingerprints = tuple(prints)
    return report


def serve_workload(workload: PlacementWorkload, environments, *,
                   policy="static", rebalance_every: int = 0,
                   replays: int = 1, engine=None, **engine_kwargs):
    """Serve the workload's request stream through a
    :class:`~repro.serving.engine.SessionEngine`.

    One session per request, admitted with the request's origin and the
    document's catalog ids, cycling the given environment profiles.
    ``rebalance_every`` > 0 applies the policy's plan between batches
    of that many sessions (each batch is admitted and driven before the
    next plan runs, so replanning sees the batch's traffic).  Returns
    the list of per-batch :class:`~repro.serving.engine.ServingReport`
    objects — placement must never change their rows, only their
    ``traffic``.
    """
    from repro.serving.engine import SessionEngine

    if engine is None:
        engine = SessionEngine(federation=workload.federation,
                               **engine_kwargs)
    chosen = resolve_policy(policy)
    environments = list(environments)
    batch = (rebalance_every if rebalance_every
             else len(workload.requests)) or 1
    reports = []
    for start in range(0, len(workload.requests), batch):
        if start and chosen.name != "static":
            plan = chosen.plan(workload.federation)
            workload.federation.apply_placement(plan)
        chunk = workload.requests[start:start + batch]
        checkpoint = engine.checkpoint()
        sessions = []
        for serial, request in enumerate(chunk):
            environment = environments[(start + serial)
                                       % len(environments)]
            sessions.append(engine.admit(
                workload.documents[request.document_index],
                environment,
                origin=request.origin,
                stream_ids=workload.catalog[request.document_index]))
        engine.drive(sessions, replays)
        reports.append(engine.report_since(
            checkpoint, environments,
            documents=len({r.document_index for r in chunk}),
            sessions_served=[session.describe() for session in sessions]))
    return reports
