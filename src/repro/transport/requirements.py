"""Document requirement profiles: negotiation's compiled form.

The paper's transportability claim is that a document carries enough
structure for "a given system to determine whether it can support the
requested document or not".  The seed implementation re-derived that
structure on every :func:`~repro.transport.negotiate.negotiate` call —
a full tree walk per environment, so negotiating one document against
N environments (the serving engine's admission path) walked the tree N
times.

This module splits the derivation out: a :class:`DocumentRequirements`
profile is computed once per document *revision* (and cached in a
:class:`RequirementsCache`), after which negotiating against any number
of environments is pure arithmetic over the profile.  The profile also
carries per-descriptor :class:`DescriptorDemand` rows, which is what
lets negotiation be *honest* about ``playable-with-filtering``: the
bandwidth verdict is no longer "some filter might help" but "the
constraint filter's own planning math projects a post-adaptation
bandwidth that fits".  The projection is the plan itself:
:meth:`DocumentRequirements.plan_for` is what
:func:`~repro.pipeline.filters.filter_actions` turns into actions and
the adaptation compiler lowers, so a filterable verdict is a promise
the filter keeps.

The planned-parameter helpers (:func:`planned_resolution`,
:func:`planned_color_depth`, :func:`quantized_rate`, …) are the single
source of truth for what each filtering maps *to*; the filter stage,
the adaptation compiler and the negotiation projection all read them,
so the three layers cannot drift apart.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass
from functools import cached_property

from repro.cache import LRUCache
from repro.core.channels import Medium
from repro.core.document import CmifDocument
from repro.core.errors import SyncArcError
from repro.core.syncarc import ConditionalArc, Strictness
from repro.core.tree import iter_preorder
from repro.transport.environments import SystemEnvironment


# -- planned-parameter math (shared with the constraint filter) -----------

def planned_resolution(width: int, height: int,
                       environment: SystemEnvironment
                       ) -> tuple[int, int] | None:
    """The scale-resolution target, or None when the source fits."""
    if width <= environment.screen_width \
            and height <= environment.screen_height:
        return None
    scale = min(environment.screen_width / width,
                environment.screen_height / height)
    return (max(1, int(width * scale)), max(1, int(height * scale)))


def planned_color_depth(depth: int,
                        environment: SystemEnvironment) -> int | None:
    """The reduced colour depth, or None when the source fits.

    Mirrors the filter exactly: a <=1-bit display goes monochrome,
    anything else reduces to ``max(1, depth // 3)`` bits per channel.
    """
    if depth <= environment.color_depth:
        return None
    if environment.color_depth <= 1:
        return 1
    return max(1, environment.color_depth // 3) * 3


def quantized_rate(rate: float, target: float) -> float:
    """``rate`` reduced by an integer subsampling step to <= ``target``.

    Both rate filters keep every n-th frame/sample window, so the
    achievable rates are ``rate / n`` for integer n; rounding the step
    *up* guarantees the achieved rate never exceeds the target (the
    filter's promise to negotiation).  The epsilon absorbs float noise
    so a target that *is* an achievable rate maps onto itself — filter
    actions carry achieved rates as their targets and must be
    idempotent.
    """
    if target >= rate:
        return rate
    return rate / math.ceil(rate / target - 1e-9)


def planned_frame_rate(rate: float,
                       environment: SystemEnvironment) -> float | None:
    """The subsampled frame rate, or None when no device cut is needed."""
    if rate > environment.max_frame_rate > 0:
        return quantized_rate(rate, environment.max_frame_rate)
    return None


def planned_sample_rate(rate: float,
                        environment: SystemEnvironment) -> float | None:
    """The downsampled audio rate, or None when no device cut is needed."""
    if rate > environment.max_sample_rate > 0:
        return quantized_rate(rate, environment.max_sample_rate)
    return None


def planned_audio_channels(channels: int,
                           environment: SystemEnvironment) -> int | None:
    """The merged channel count, or None when the layout fits."""
    if channels > environment.audio_channels >= 1:
        return environment.audio_channels
    return None


# -- per-descriptor demand rows -------------------------------------------

@dataclass(frozen=True)
class DescriptorDemand:
    """One distinct descriptor's resource demand, with its use count.

    ``uses`` preserves the seed's per-event bandwidth accounting: a
    descriptor placed on three events contributes its stream three
    times to the summed worst-case bandwidth.
    """

    descriptor_id: str
    medium: Medium
    uses: int
    resolution: tuple[int, int] | None
    color_depth: int
    frame_rate: float
    sample_rate: float
    audio_channels: int
    bandwidth_bps: int


@dataclass(frozen=True)
class PlannedAdaptation:
    """What the constraint filter will do to one descriptor, projected.

    ``None`` fields mean "left as captured".  ``bandwidth_bps`` is the
    projected per-use stream bandwidth after every planned change —
    the value the adapted descriptor will actually carry, so the
    projection and the adaptation cannot disagree.
    """

    demand: DescriptorDemand
    dropped: bool = False
    resolution: tuple[int, int] | None = None
    color_depth: int | None = None
    frame_rate: float | None = None
    sample_rate: float | None = None
    audio_channels: int | None = None
    bandwidth_bps: int = 0


def projected_bandwidth_bps(demand: DescriptorDemand,
                            resolution: tuple[int, int] | None,
                            color_depth: int | None,
                            frame_rate: float | None,
                            sample_rate: float | None,
                            audio_channels: int | None) -> int:
    """One descriptor's per-use bandwidth after the given changes.

    Streams scale linearly in each reduced dimension (pixels, depth,
    rate, channels); this is the single formula negotiation projects
    with and the adaptation writes back into descriptor attributes.
    """
    ratio = 1.0
    if resolution is not None and demand.resolution:
        width, height = demand.resolution
        ratio *= (resolution[0] * resolution[1]) / (width * height)
    if color_depth is not None and demand.color_depth > 0:
        ratio *= color_depth / demand.color_depth
    if frame_rate is not None and demand.frame_rate > 0:
        ratio *= frame_rate / demand.frame_rate
    if sample_rate is not None and demand.sample_rate > 0:
        ratio *= sample_rate / demand.sample_rate
    if audio_channels is not None and demand.audio_channels > 0:
        ratio *= audio_channels / demand.audio_channels
    return int(demand.bandwidth_bps * ratio)


def _device_adaptation(demand: DescriptorDemand,
                       environment: SystemEnvironment) -> PlannedAdaptation:
    """The device-capability cuts for one descriptor (no bandwidth yet)."""
    if not environment.supports(demand.medium):
        return PlannedAdaptation(demand=demand, dropped=True,
                                 bandwidth_bps=0)
    resolution = None
    color_depth = None
    frame_rate = None
    sample_rate = None
    audio_channels = None
    if demand.medium in (Medium.IMAGE, Medium.VIDEO):
        if demand.resolution:
            resolution = planned_resolution(demand.resolution[0],
                                            demand.resolution[1],
                                            environment)
        if demand.color_depth:
            color_depth = planned_color_depth(demand.color_depth,
                                              environment)
    if demand.medium is Medium.VIDEO and demand.frame_rate:
        frame_rate = planned_frame_rate(demand.frame_rate, environment)
    if demand.medium is Medium.AUDIO:
        if demand.sample_rate:
            sample_rate = planned_sample_rate(demand.sample_rate,
                                              environment)
        if demand.audio_channels:
            audio_channels = planned_audio_channels(demand.audio_channels,
                                                    environment)
    return PlannedAdaptation(
        demand=demand, resolution=resolution, color_depth=color_depth,
        frame_rate=frame_rate, sample_rate=sample_rate,
        audio_channels=audio_channels,
        bandwidth_bps=projected_bandwidth_bps(
            demand, resolution, color_depth, frame_rate, sample_rate,
            audio_channels))


@dataclass(frozen=True)
class EnvironmentPlan:
    """The projected adaptation of one document for one environment.

    ``achievable`` is the honesty bit behind the bandwidth verdict:
    True when the planned (device + bandwidth-pressure) adaptations
    bring the summed stream bandwidth inside the environment's budget.
    """

    environment_name: str
    adaptations: tuple[PlannedAdaptation, ...]
    projected_bandwidth_bps: int
    achievable: bool

    @cached_property
    def by_descriptor(self) -> dict[str, PlannedAdaptation]:
        return {adaptation.demand.descriptor_id: adaptation
                for adaptation in self.adaptations}

    def adaptation_for(self, descriptor_id: str
                       ) -> PlannedAdaptation | None:
        return self.by_descriptor.get(descriptor_id)


def plan_adaptations(demands: tuple[DescriptorDemand, ...],
                     environment: SystemEnvironment) -> EnvironmentPlan:
    """Project the filter's adaptations for every descriptor demand.

    Two passes.  First, device-capability cuts (screen, depth, device
    rates, channel layout — plus dropping unsupported media).  Second,
    when the projected summed bandwidth still exceeds the environment's
    budget, *bandwidth pressure*: every rate-bearing stream is
    subsampled further by a common factor chosen so the projection
    fits.  Rate cuts quantize to integer steps (``quantized_rate``),
    which can only undershoot the common factor, so a fitting plan is
    guaranteed to actually fit.  When even that cannot fit — the
    rate-less residue alone exceeds the budget — the plan is marked
    unachievable and negotiation reports the bandwidth requirement as
    unfilterable.
    """
    planned = [_device_adaptation(demand, environment)
               for demand in demands]
    total = sum(adaptation.bandwidth_bps * adaptation.demand.uses
                for adaptation in planned)
    budget = environment.bandwidth_bps
    if total <= budget:
        return EnvironmentPlan(environment_name=environment.name,
                               adaptations=tuple(planned),
                               projected_bandwidth_bps=total,
                               achievable=True)

    def current_rate(adaptation: PlannedAdaptation) -> float:
        demand = adaptation.demand
        if demand.frame_rate > 0:
            return (adaptation.frame_rate if adaptation.frame_rate
                    is not None else demand.frame_rate)
        if demand.sample_rate > 0:
            return (adaptation.sample_rate if adaptation.sample_rate
                    is not None else demand.sample_rate)
        return 0.0

    reducible = [adaptation for adaptation in planned
                 if not adaptation.dropped
                 and adaptation.bandwidth_bps > 0
                 and current_rate(adaptation) > 0]
    reducible_total = sum(adaptation.bandwidth_bps
                          * adaptation.demand.uses
                          for adaptation in reducible)
    fixed = total - reducible_total
    if not reducible or fixed >= budget:
        return EnvironmentPlan(environment_name=environment.name,
                               adaptations=tuple(planned),
                               projected_bandwidth_bps=total,
                               achievable=False)

    pressure = (budget - fixed) / reducible_total
    squeezed: dict[int, PlannedAdaptation] = {}
    for adaptation in reducible:
        demand = adaptation.demand
        rate = current_rate(adaptation)
        target = rate * pressure
        frame_rate = adaptation.frame_rate
        sample_rate = adaptation.sample_rate
        if demand.frame_rate > 0:
            frame_rate = quantized_rate(demand.frame_rate, target)
        else:
            sample_rate = quantized_rate(demand.sample_rate, target)
        squeezed[id(adaptation)] = PlannedAdaptation(
            demand=demand, resolution=adaptation.resolution,
            color_depth=adaptation.color_depth, frame_rate=frame_rate,
            sample_rate=sample_rate,
            audio_channels=adaptation.audio_channels,
            bandwidth_bps=projected_bandwidth_bps(
                demand, adaptation.resolution, adaptation.color_depth,
                frame_rate, sample_rate, adaptation.audio_channels))
    final = tuple(squeezed.get(id(adaptation), adaptation)
                  for adaptation in planned)
    projected = sum(adaptation.bandwidth_bps * adaptation.demand.uses
                    for adaptation in final)
    return EnvironmentPlan(environment_name=environment.name,
                           adaptations=final,
                           projected_bandwidth_bps=projected,
                           achievable=projected <= budget)


# -- the document profile --------------------------------------------------

@dataclass(frozen=True)
class DocumentRequirements:
    """Everything negotiation needs, derived once per document revision.

    Aggregate fields keep the seed semantics bit-for-bit (maxima over
    all descriptors, bandwidth summed per event use); ``demands`` adds
    the per-descriptor rows the bandwidth projection and the adaptation
    compiler share.
    """

    revision: int
    media: frozenset[Medium]
    max_resolution: tuple[int, int]
    color_depth: int
    frame_rate: float
    sample_rate: float
    audio_channels: int
    bandwidth_bps: int
    tightest_must_epsilon_ms: float | None
    demands: tuple[DescriptorDemand, ...]

    def worst_latency_ms(self, environment: SystemEnvironment) -> float:
        """The worst per-medium start latency among used media."""
        return max((environment.latency_for(medium)
                    for medium in self.media), default=0.0)

    def plan_for(self, environment: SystemEnvironment) -> EnvironmentPlan:
        """The projected adaptation plan under ``environment``.

        Memoized per environment fingerprint on the (frozen, cached-
        per-revision) profile: admission negotiates and filter-plans
        every tenant session of a (document, environment) pair, and
        all of them share one projection.
        """
        plans = self.__dict__.setdefault("_plans", {})
        key = environment.fingerprint()
        plan = plans.get(key)
        if plan is None:
            plan = plan_adaptations(self.demands, environment)
            plans[key] = plan
        return plan

    def as_dict(self) -> dict[str, object]:
        """The seed's ``document_requirements`` mapping shape."""
        return {
            "media": set(self.media),
            "max_resolution": self.max_resolution,
            "color_depth": self.color_depth,
            "frame_rate": self.frame_rate,
            "sample_rate": self.sample_rate,
            "audio_channels": self.audio_channels,
            "bandwidth_bps": self.bandwidth_bps,
            "tightest_must_epsilon_ms": self.tightest_must_epsilon_ms,
        }


def _tightest_must_window(document: CmifDocument) -> float | None:
    """The smallest finite max-delay among must arcs, if any."""
    tightest: float | None = None
    for node in iter_preorder(document.root):
        for arc in node.attributes.get("sync-arc", ()):
            if isinstance(arc, ConditionalArc):
                continue
            if arc.strictness is not Strictness.MUST:
                continue
            try:
                _delta, epsilon = arc.window_ms(document.timebase)
            except SyncArcError:
                continue
            if epsilon is None:
                continue
            if tightest is None or epsilon < tightest:
                tightest = epsilon
    return tightest


def compute_requirements(document: CmifDocument,
                         compiled=None) -> DocumentRequirements:
    """Derive the full requirement profile (one tree walk + compile).

    ``compiled`` skips the re-compile when the caller already holds the
    document's :class:`~repro.core.document.CompiledDocument`.
    """
    media: set[Medium] = set()
    max_width = 0
    max_height = 0
    color_depth = 0
    frame_rate = 0.0
    sample_rate = 0.0
    audio_channels = 0
    bandwidth = 0
    uses: collections.Counter[str] = collections.Counter()
    descriptors: dict[str, tuple] = {}
    if compiled is None:
        compiled = document.compile()
    for event in compiled.events:
        media.add(event.medium)
        descriptor = event.descriptor
        if descriptor is None:
            continue
        resolution = descriptor.get("resolution")
        if resolution:
            width, height = resolution
            max_width = max(max_width, int(width))
            max_height = max(max_height, int(height))
        color_depth = max(color_depth, int(descriptor.get("color-depth", 0)))
        frame_rate = max(frame_rate, float(descriptor.get("frame-rate", 0.0)))
        sample_rate = max(sample_rate,
                          float(descriptor.get("sample-rate", 0.0)))
        audio_channels = max(audio_channels,
                             int(descriptor.get("channels", 0)))
        resources = descriptor.get("resources", {})
        bandwidth += int(resources.get("bandwidth-bps", 0))
        uses[descriptor.descriptor_id] += 1
        if descriptor.descriptor_id not in descriptors:
            descriptors[descriptor.descriptor_id] = (descriptor,
                                                     event.medium)
    demands = tuple(
        DescriptorDemand(
            descriptor_id=descriptor_id,
            medium=medium,
            uses=uses[descriptor_id],
            resolution=(tuple(int(side) for side
                              in descriptor.get("resolution"))
                        if descriptor.get("resolution") else None),
            color_depth=int(descriptor.get("color-depth", 0)),
            frame_rate=float(descriptor.get("frame-rate", 0.0)),
            sample_rate=float(descriptor.get("sample-rate", 0.0)),
            audio_channels=int(descriptor.get("channels", 0)),
            bandwidth_bps=int(descriptor.get("resources", {})
                              .get("bandwidth-bps", 0)),
        )
        for descriptor_id, (descriptor, medium) in descriptors.items())
    return DocumentRequirements(
        revision=document.revision,
        media=frozenset(media),
        max_resolution=(max_width, max_height),
        color_depth=color_depth,
        frame_rate=frame_rate,
        sample_rate=sample_rate,
        audio_channels=audio_channels,
        bandwidth_bps=bandwidth,
        tightest_must_epsilon_ms=_tightest_must_window(document),
        demands=demands,
    )


class RequirementsCache(LRUCache):
    """Requirement profiles keyed by (document identity, revision).

    The admission path negotiates every arriving document against every
    environment profile; this cache makes the tree walk a once-per-
    revision cost.  Entries are owned by their document, so ``id()``
    reuse is impossible and any edit (revision bump) moves the key and
    evicts the superseded profile — the discipline of
    :mod:`repro.cache`, shared with the schedule and program caches.
    """

    name = "requirements cache"

    def __init__(self, capacity: int = 64) -> None:
        super().__init__(capacity)

    def holds(self, document: CmifDocument) -> bool:
        """True when the document's current revision has a profile
        (a peek: it counts neither a hit nor a miss)."""
        return (id(document), document.revision) in self._entries

    def requirements_for(self, document: CmifDocument,
                         compiled=None) -> DocumentRequirements:
        """The document's profile, derived at most once per revision."""
        key = (id(document), document.revision)
        profile = self.get(key)
        if profile is None:
            profile = compute_requirements(document, compiled)
            self.put(key, profile, owner=document,
                     revision=document.revision)
        return profile


def requirements_for(document: CmifDocument, *,
                     cache: RequirementsCache | None = None,
                     compiled=None) -> DocumentRequirements:
    """The document's requirement profile, through a cache when given."""
    if cache is not None:
        return cache.requirements_for(document, compiled)
    return compute_requirements(document, compiled)
