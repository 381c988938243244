"""The adaptation planner and lowering the direct lowering replaced.

``ConstraintFilter`` is the earlier
:class:`repro.pipeline.filters.ConstraintFilter` verbatim: its
``plan(compiled, requirements=)`` re-expresses the profile's projection
per (channel, descriptor) row through ``_plan_event`` and the four
``_plan_*`` methods, then runs the device-conflict pass.  The one edit
is ``_changed``, the projection's retired ``PlannedAdaptation.changed``
property, kept here as a function.

``compile_adaptation`` is the earlier
:func:`repro.pipeline.adaptation.compile_adaptation` verbatim: it
deduplicates the plan's ops per (descriptor, kind), then folds each
descriptor's chain by scanning the whole op table once per descriptor
slot (slots x ops).  Chained, the two derive a program the way the
serving path once did, sharing no action builder with the code under
test.
"""

from __future__ import annotations

from repro.core.channels import Medium
from repro.core.descriptors import DataDescriptor
from repro.core.document import CompiledDocument
from repro.pipeline.adaptation import AdaptationProgram
from repro.pipeline.filters import (FilterAction, FilterKind, FilterPlan,
                                    adapt_attributes)
from repro.timing.conflicts import detect_device_conflicts
from repro.transport.environments import SystemEnvironment
from repro.transport.requirements import (DocumentRequirements,
                                          EnvironmentPlan,
                                          PlannedAdaptation,
                                          planned_frame_rate,
                                          planned_sample_rate,
                                          requirements_for)


def _changed(adaptation: PlannedAdaptation) -> bool:
    """True when any filtering applies to this descriptor."""
    return adaptation.dropped or any(
        value is not None for value in (
            adaptation.resolution, adaptation.color_depth,
            adaptation.frame_rate, adaptation.sample_rate,
            adaptation.audio_channels))


class ConstraintFilter:
    """Derives a :class:`FilterPlan` from descriptors and capabilities."""

    def __init__(self, environment: SystemEnvironment) -> None:
        self.environment = environment

    def plan(self, compiled: CompiledDocument, *,
             requirements: DocumentRequirements | None = None
             ) -> FilterPlan:
        """Compute the constraint mapping for a compiled document.

        ``requirements`` reuses a cached profile (the serving path);
        without one, the profile is derived here.  Either way, the
        per-descriptor adaptation projection drives every action's
        parameters, so the plan and the negotiation verdict agree.
        """
        document = compiled.document
        if requirements is None:
            requirements = requirements_for(document, compiled=compiled)
        environment_plan = requirements.plan_for(self.environment)
        plan = FilterPlan(environment=self.environment.name,
                          environment_plan=environment_plan)
        seen: set[tuple[str, str]] = set()
        for event in compiled.events:
            key = (event.channel,
                   event.descriptor.descriptor_id if event.descriptor
                   else event.event_id)
            if key in seen:
                continue
            seen.add(key)
            self._plan_event(plan, environment_plan, event.channel,
                             event.medium, event.descriptor)
        latencies = {
            name: self.environment.latency_for(
                document.channels.lookup(name).medium)
            for name in document.channels.names()}
        plan.conflicts = detect_device_conflicts(compiled, latencies)
        return plan

    # -- per-event planning --------------------------------------------------

    def _plan_event(self, plan: FilterPlan,
                    environment_plan: EnvironmentPlan, channel: str,
                    medium: Medium,
                    descriptor: DataDescriptor | None) -> None:
        environment = self.environment
        if not environment.supports(medium):
            plan.actions.append(FilterAction(
                kind=FilterKind.DROP_CHANNEL, channel=channel,
                descriptor_id=None,
                parameters={"medium": medium.value},
                reason=f"environment {environment.name!r} does not support "
                       f"{medium.value}"))
            return
        if descriptor is None:
            return
        adaptation = environment_plan.adaptation_for(
            descriptor.descriptor_id)
        if adaptation is None or not _changed(adaptation):
            return
        self._plan_color(plan, channel, descriptor, adaptation)
        self._plan_resolution(plan, channel, descriptor, adaptation)
        self._plan_frame_rate(plan, channel, descriptor, adaptation)
        self._plan_audio(plan, channel, descriptor, adaptation)

    def _plan_color(self, plan: FilterPlan, channel: str,
                    descriptor: DataDescriptor,
                    adaptation: PlannedAdaptation) -> None:
        if adaptation.color_depth is None:
            return
        environment = self.environment
        depth = adaptation.demand.color_depth
        if environment.color_depth <= 1:
            plan.actions.append(FilterAction(
                kind=FilterKind.TO_MONOCHROME, channel=channel,
                descriptor_id=descriptor.descriptor_id,
                parameters={},
                reason=f"{depth}-bit colour on a monochrome display"))
        else:
            plan.actions.append(FilterAction(
                kind=FilterKind.REDUCE_COLOR, channel=channel,
                descriptor_id=descriptor.descriptor_id,
                parameters={
                    "bits_per_channel": adaptation.color_depth // 3},
                reason=f"{depth}-bit colour exceeds the display's "
                       f"{environment.color_depth}-bit depth"))

    def _plan_resolution(self, plan: FilterPlan, channel: str,
                         descriptor: DataDescriptor,
                         adaptation: PlannedAdaptation) -> None:
        if adaptation.resolution is None:
            return
        environment = self.environment
        width, height = adaptation.demand.resolution
        plan.actions.append(FilterAction(
            kind=FilterKind.SCALE_RESOLUTION, channel=channel,
            descriptor_id=descriptor.descriptor_id,
            parameters={
                "target_width": adaptation.resolution[0],
                "target_height": adaptation.resolution[1],
            },
            reason=f"{width}x{height} exceeds the "
                   f"{environment.screen_width}x"
                   f"{environment.screen_height} screen"))

    def _plan_frame_rate(self, plan: FilterPlan, channel: str,
                         descriptor: DataDescriptor,
                         adaptation: PlannedAdaptation) -> None:
        if adaptation.frame_rate is None:
            return
        environment = self.environment
        rate = adaptation.demand.frame_rate
        device_rate = planned_frame_rate(rate, environment)
        if device_rate is not None \
                and adaptation.frame_rate >= device_rate:
            reason = (f"{rate:g}fps exceeds the device's "
                      f"{environment.max_frame_rate:g}fps")
        else:
            reason = (f"{rate:g}fps subsampled to fit the "
                      f"{environment.bandwidth_bps}bps stream budget")
        plan.actions.append(FilterAction(
            kind=FilterKind.SUBSAMPLE_FRAMES, channel=channel,
            descriptor_id=descriptor.descriptor_id,
            parameters={"target_rate": adaptation.frame_rate},
            reason=reason))

    def _plan_audio(self, plan: FilterPlan, channel: str,
                    descriptor: DataDescriptor,
                    adaptation: PlannedAdaptation) -> None:
        environment = self.environment
        if adaptation.sample_rate is not None:
            rate = adaptation.demand.sample_rate
            device_rate = planned_sample_rate(rate, environment)
            if device_rate is not None \
                    and adaptation.sample_rate >= device_rate:
                reason = (f"{rate:g}Hz exceeds the device's "
                          f"{environment.max_sample_rate:g}Hz")
            else:
                reason = (f"{rate:g}Hz downsampled to fit the "
                          f"{environment.bandwidth_bps}bps stream budget")
            plan.actions.append(FilterAction(
                kind=FilterKind.DOWNSAMPLE_AUDIO, channel=channel,
                descriptor_id=descriptor.descriptor_id,
                parameters={"target_rate": adaptation.sample_rate},
                reason=reason))
        if adaptation.audio_channels is not None:
            channels = adaptation.demand.audio_channels
            plan.actions.append(FilterAction(
                kind=FilterKind.MERGE_CHANNELS, channel=channel,
                descriptor_id=descriptor.descriptor_id,
                parameters={"target_channels": adaptation.audio_channels},
                reason=f"{channels}-channel layout exceeds the device's "
                       f"{environment.audio_channels} channel(s)"))


def compile_adaptation(plan: FilterPlan, compiled: CompiledDocument,
                       environment: SystemEnvironment
                       ) -> AdaptationProgram:
    """Lower a filter plan into an :class:`AdaptationProgram`.

    Actions are grouped per descriptor (a descriptor shared by several
    channels gets one op chain — applying identical transforms twice
    would falsify the attributes) and the adapted descriptors are
    precomputed through :func:`~repro.pipeline.filters.adapt_attributes`.
    """
    by_id: dict[str, DataDescriptor] = {}
    for event in compiled.events:
        if event.descriptor is not None:
            by_id.setdefault(event.descriptor.descriptor_id,
                             event.descriptor)
    slots: dict[str, int] = {}
    seen_kinds: set[tuple[str, FilterKind]] = set()
    op_slot: list[int] = []
    actions: list[FilterAction] = []
    for action in plan.actions:
        if action.kind is FilterKind.DROP_CHANNEL \
                or action.descriptor_id is None:
            continue
        dedup = (action.descriptor_id, action.kind)
        if dedup in seen_kinds:
            continue
        seen_kinds.add(dedup)
        op_slot.append(slots.setdefault(action.descriptor_id,
                                        len(slots)))
        actions.append(action)
    originals: list[DataDescriptor] = []
    overrides: list[DataDescriptor] = []
    for descriptor_id in slots:
        descriptor = by_id[descriptor_id]
        attributes = dict(descriptor.attributes)
        for slot, action in zip(op_slot, actions):
            if slot == slots[descriptor_id]:
                attributes = adapt_attributes(action, attributes)
        originals.append(descriptor)
        overrides.append(DataDescriptor(
            descriptor_id=descriptor.descriptor_id,
            medium=descriptor.medium,
            block_id=descriptor.block_id,
            attributes=attributes))
    projected = (plan.environment_plan.projected_bandwidth_bps
                 if plan.environment_plan is not None else 0)
    return AdaptationProgram(
        environment=environment.name,
        fingerprint=environment.fingerprint(),
        revision=compiled.document.revision,
        descriptor_ids=tuple(slots),
        op_slot=tuple(op_slot),
        actions=tuple(actions),
        originals=tuple(originals),
        overrides=tuple(overrides),
        dropped_channels=tuple(sorted(plan.dropped_channels)),
        projected_bandwidth_bps=projected)
