"""Pipeline stage 4: constraint filtering tools (paper section 2).

"These tools allow the end-user presentation system to filter components
of the document to meet local processing constraints.  (This corresponds
to a mapping of the document from the virtual presentation environment
to a physical presentation environment.)  Typical filterings may include
24-bit color to 8-bit color, color to monochrome, high-resolution to low
resolution, full-frame-rate video to sub-sampled rate video."

Exactly per the paper, "this tool manages a constraint *mapping*; the
actual constraint implementation will be supported by user level,
operating system, or hardware level modules": :func:`filter_actions`
turns one descriptor's projected adaptation into declarative
:class:`FilterAction` records, from descriptors alone, and a separate
executor (:func:`apply_action`) realizes each action on payload data
using the :mod:`repro.media` transformations.  :class:`ConstraintFilter`
is the authoring view of the same mapping: a :class:`FilterPlan` of
every channel's actions and drops, plus the §5.3.3 device conflicts.
The serving path skips it and lowers the projection straight into an
adaptation program (:mod:`repro.pipeline.adaptation`).

The projection is the shared planning math in
:mod:`repro.transport.requirements` — the same one negotiation uses to
decide whether a document is ``playable-with-filtering`` — so a
filterable verdict is a promise this stage keeps: beyond the per-device
cuts, it applies *bandwidth pressure* (deeper rate subsampling by a
common factor) whenever the summed stream bandwidth still exceeds the
environment's budget.  :func:`adapt_attributes` is the attribute-only
form of each action; :func:`apply_action` applies the identical
attribute update next to the payload transformation, so a document
adapted without payloads and a payload filtered with them can never
disagree about the resulting format.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any

from repro.core.channels import Medium
from repro.core.descriptors import DataDescriptor
from repro.core.document import CompiledDocument
from repro.core.errors import DeviceConstraintError, MediaError
from repro.kernel._np import require_numpy
from repro.media.audio import downsample, merge_channels
from repro.media.image import reduce_color_depth, scale_image, to_monochrome
from repro.media.video import scale_frames, subsample_frame_rate
from repro.timing.conflicts import ConflictReport, detect_device_conflicts
from repro.transport.environments import SystemEnvironment
from repro.transport.requirements import (EnvironmentPlan,
                                          PlannedAdaptation,
                                          planned_frame_rate,
                                          planned_sample_rate,
                                          quantized_rate,
                                          requirements_for)


class FilterKind(enum.Enum):
    """The constraint mappings the paper lists, plus channel dropping."""

    REDUCE_COLOR = "reduce-color"
    TO_MONOCHROME = "to-monochrome"
    SCALE_RESOLUTION = "scale-resolution"
    SUBSAMPLE_FRAMES = "subsample-frames"
    DOWNSAMPLE_AUDIO = "downsample-audio"
    MERGE_CHANNELS = "merge-channels"
    DROP_CHANNEL = "drop-channel"


@dataclass(frozen=True)
class FilterAction:
    """One declarative filtering step for one channel or descriptor."""

    kind: FilterKind
    channel: str
    descriptor_id: str | None
    parameters: dict[str, Any]
    reason: str

    def __str__(self) -> str:
        target = self.descriptor_id or f"channel {self.channel!r}"
        return f"{self.kind.value} on {target}: {self.reason}"


@dataclass
class FilterPlan:
    """The stage-4 output: actions plus device conflict reports.

    ``environment_plan`` carries the per-descriptor projection the
    actions were derived from (including the projected post-adaptation
    bandwidth); :func:`~repro.pipeline.adaptation.adapt_document`
    lowers it, interactive callers can ignore it.
    """

    environment: str
    actions: list[FilterAction] = field(default_factory=list)
    conflicts: list[ConflictReport] = field(default_factory=list)
    environment_plan: EnvironmentPlan | None = None

    @property
    def dropped_channels(self) -> set[str]:
        """Channels the plan removes entirely."""
        return {action.channel for action in self.actions
                if action.kind is FilterKind.DROP_CHANNEL}

    def actions_for(self, descriptor_id: str) -> list[FilterAction]:
        """The actions applying to one descriptor."""
        return [action for action in self.actions
                if action.descriptor_id == descriptor_id]

    def describe(self) -> str:
        lines = [f"filter plan for {self.environment}:"]
        if not self.actions:
            lines.append("  (document passes unfiltered)")
        lines.extend(f"  - {action}" for action in self.actions)
        for conflict in self.conflicts:
            lines.append(f"  ! {conflict}")
        return "\n".join(lines)


class ConstraintFilter:
    """Derives a :class:`FilterPlan` from descriptors and capabilities.

    The authoring tool (the CLI, the examples, :func:`run_pipeline`):
    besides the actions it reports channel drops and device conflicts.
    The serving path lowers the projection straight into an
    :class:`~repro.pipeline.adaptation.AdaptationProgram` and never
    builds this plan.
    """

    def __init__(self, environment: SystemEnvironment) -> None:
        self.environment = environment

    def plan(self, compiled: CompiledDocument) -> FilterPlan:
        """Compute the constraint mapping for a compiled document.

        One row per distinct (channel, descriptor) pair: a drop when the
        environment lacks the channel's medium, otherwise the
        descriptor's :func:`filter_actions` chain; then the §5.3.3
        device conflicts under the environment's start latencies.
        """
        environment = self.environment
        document = compiled.document
        environment_plan = requirements_for(
            document, compiled=compiled).plan_for(environment)
        plan = FilterPlan(environment=environment.name,
                          environment_plan=environment_plan)
        seen: set[tuple[str, str]] = set()
        for event in compiled.events:
            descriptor = event.descriptor
            key = (event.channel,
                   descriptor.descriptor_id if descriptor
                   else event.event_id)
            if key in seen:
                continue
            seen.add(key)
            if not environment.supports(event.medium):
                plan.actions.append(FilterAction(
                    kind=FilterKind.DROP_CHANNEL, channel=event.channel,
                    descriptor_id=None,
                    parameters={"medium": event.medium.value},
                    reason=f"environment {environment.name!r} does not "
                           f"support {event.medium.value}"))
            elif descriptor is not None:
                plan.actions.extend(filter_actions(
                    environment_plan.adaptation_for(
                        descriptor.descriptor_id),
                    event.channel, environment))
        latencies = {
            name: environment.latency_for(
                document.channels.lookup(name).medium)
            for name in document.channels.names()}
        plan.conflicts = detect_device_conflicts(compiled, latencies)
        return plan


def filter_actions(adaptation: PlannedAdaptation, channel: str,
                   environment: SystemEnvironment) -> list[FilterAction]:
    """One planned descriptor change as its ordered action chain.

    The only place a projected adaptation turns into actions: colour,
    resolution, frame rate, sample rate, then channel layout, each
    parameterized by the projection and explained against
    ``environment``.  A descriptor left as captured, or dropped with its
    medium, yields no actions.
    """
    demand = adaptation.demand
    descriptor_id = demand.descriptor_id
    actions: list[FilterAction] = []
    if adaptation.color_depth is not None:
        depth = demand.color_depth
        if environment.color_depth <= 1:
            actions.append(FilterAction(
                FilterKind.TO_MONOCHROME, channel, descriptor_id, {},
                f"{depth}-bit colour on a monochrome display"))
        else:
            actions.append(FilterAction(
                FilterKind.REDUCE_COLOR, channel, descriptor_id,
                {"bits_per_channel": adaptation.color_depth // 3},
                f"{depth}-bit colour exceeds the display's "
                f"{environment.color_depth}-bit depth"))
    if adaptation.resolution is not None:
        width, height = demand.resolution
        actions.append(FilterAction(
            FilterKind.SCALE_RESOLUTION, channel, descriptor_id,
            {"target_width": adaptation.resolution[0],
             "target_height": adaptation.resolution[1]},
            f"{width}x{height} exceeds the {environment.screen_width}x"
            f"{environment.screen_height} screen"))
    if adaptation.frame_rate is not None:
        rate = demand.frame_rate
        device_rate = planned_frame_rate(rate, environment)
        if device_rate is not None and adaptation.frame_rate >= device_rate:
            reason = (f"{rate:g}fps exceeds the device's "
                      f"{environment.max_frame_rate:g}fps")
        else:
            reason = (f"{rate:g}fps subsampled to fit the "
                      f"{environment.bandwidth_bps}bps stream budget")
        actions.append(FilterAction(
            FilterKind.SUBSAMPLE_FRAMES, channel, descriptor_id,
            {"target_rate": adaptation.frame_rate}, reason))
    if adaptation.sample_rate is not None:
        rate = demand.sample_rate
        device_rate = planned_sample_rate(rate, environment)
        if device_rate is not None \
                and adaptation.sample_rate >= device_rate:
            reason = (f"{rate:g}Hz exceeds the device's "
                      f"{environment.max_sample_rate:g}Hz")
        else:
            reason = (f"{rate:g}Hz downsampled to fit the "
                      f"{environment.bandwidth_bps}bps stream budget")
        actions.append(FilterAction(
            FilterKind.DOWNSAMPLE_AUDIO, channel, descriptor_id,
            {"target_rate": adaptation.sample_rate}, reason))
    if adaptation.audio_channels is not None:
        actions.append(FilterAction(
            FilterKind.MERGE_CHANNELS, channel, descriptor_id,
            {"target_channels": adaptation.audio_channels},
            f"{demand.audio_channels}-channel layout exceeds the "
            f"device's {environment.audio_channels} channel(s)"))
    return actions


def _scale_stream_bandwidth(attributes: dict[str, Any],
                            ratio: float) -> None:
    """Scale the declared stream bandwidth by a reduction ratio.

    Truncation matches (and can only undershoot) the negotiation
    projection's single-``int`` arithmetic, so adapted documents never
    demand more bandwidth than the projection promised.
    """
    resources = attributes.get("resources")
    if not resources or "bandwidth-bps" not in resources:
        return
    updated = dict(resources)
    updated["bandwidth-bps"] = int(updated["bandwidth-bps"] * ratio)
    attributes["resources"] = updated


def adapt_attributes(action: FilterAction,
                     attributes: dict[str, Any]) -> dict[str, Any]:
    """The attribute-only effect of one filter action.

    This is the single place an action's format consequences are
    written down: :func:`apply_action` uses it next to the payload
    transformation, and the adaptation compiler uses it to adapt whole
    documents without touching payload bytes — so the two paths cannot
    drift apart.  Returns a new attribute mapping.
    """
    updated = dict(attributes)
    kind = action.kind
    if kind is FilterKind.REDUCE_COLOR:
        depth = int(updated.get("color-depth", 0))
        bits = action.parameters["bits_per_channel"]
        updated["color-depth"] = bits * 3
        if depth > 0:
            _scale_stream_bandwidth(updated, (bits * 3) / depth)
    elif kind is FilterKind.TO_MONOCHROME:
        depth = int(updated.get("color-depth", 0))
        updated["color-depth"] = 1
        if depth > 0:
            _scale_stream_bandwidth(updated, 1 / depth)
    elif kind is FilterKind.SCALE_RESOLUTION:
        width = action.parameters["target_width"]
        height = action.parameters["target_height"]
        previous = updated.get("resolution")
        updated["resolution"] = (width, height)
        if previous and int(previous[0]) and int(previous[1]):
            _scale_stream_bandwidth(
                updated,
                (width * height) / (int(previous[0]) * int(previous[1])))
    elif kind is FilterKind.SUBSAMPLE_FRAMES:
        rate = float(updated.get("frame-rate", 25.0))
        achieved = quantized_rate(rate,
                                  action.parameters["target_rate"])
        step = math.ceil(rate / action.parameters["target_rate"] - 1e-9) \
            if action.parameters["target_rate"] < rate else 1
        updated["frame-rate"] = achieved
        if "frames" in updated:
            # frames[::step] keeps ceil(n / step) frames.
            updated["frames"] = -(-int(updated["frames"]) // step)
        if rate > 0:
            _scale_stream_bandwidth(updated, achieved / rate)
    elif kind is FilterKind.DOWNSAMPLE_AUDIO:
        rate = float(updated.get("sample-rate", 44100.0))
        target = action.parameters["target_rate"]
        if target < rate:
            factor = math.ceil(rate / target - 1e-9)
        else:
            factor = 1
        achieved = rate / factor
        updated["sample-rate"] = achieved
        if "samples" in updated:
            # The decimator emits one window mean per full window, but
            # never less than a single sample.
            updated["samples"] = max(1, int(updated["samples"]) // factor)
        if rate > 0:
            _scale_stream_bandwidth(updated, achieved / rate)
    elif kind is FilterKind.MERGE_CHANNELS:
        channels = int(updated.get("channels", 0) or 0)
        target = action.parameters["target_channels"]
        if channels > target:
            updated["channels"] = target
            if channels > 0:
                _scale_stream_bandwidth(updated, target / channels)
    elif kind is FilterKind.DROP_CHANNEL:
        raise DeviceConstraintError(
            "drop-channel actions remove events; they have no attribute "
            "transformation")
    else:  # pragma: no cover - exhaustive over FilterKind
        raise MediaError(f"unknown filter action {action.kind}")
    return updated


def apply_action(action: FilterAction, payload: Any,
                 descriptor: DataDescriptor) -> tuple[Any, DataDescriptor]:
    """Execute one filter action on concrete payload data.

    Returns the transformed payload and an updated descriptor whose
    attributes reflect the new format (the receiving tools keep working
    from attributes, so the mapping must keep them truthful).  The
    attribute update is :func:`adapt_attributes`, the same function the
    document-level adaptation uses.
    """
    if action.kind is FilterKind.REDUCE_COLOR:
        bits = action.parameters["bits_per_channel"]
        transformed = _map_frames(payload, descriptor,
                                  lambda a: reduce_color_depth(a, bits))
    elif action.kind is FilterKind.TO_MONOCHROME:
        transformed = _map_frames(payload, descriptor, to_monochrome)
    elif action.kind is FilterKind.SCALE_RESOLUTION:
        width = action.parameters["target_width"]
        height = action.parameters["target_height"]
        if descriptor.medium is Medium.VIDEO:
            transformed = scale_frames(payload, width, height)
        else:
            transformed = scale_image(payload, width, height)
    elif action.kind is FilterKind.SUBSAMPLE_FRAMES:
        rate = float(descriptor.get("frame-rate", 25.0))
        transformed, _achieved = subsample_frame_rate(
            payload, rate, action.parameters["target_rate"])
    elif action.kind is FilterKind.DOWNSAMPLE_AUDIO:
        np = require_numpy("audio downsampling")
        rate = float(descriptor.get("sample-rate", 44100.0))
        transformed, _achieved = downsample(
            np.asarray(payload), rate, action.parameters["target_rate"])
    elif action.kind is FilterKind.MERGE_CHANNELS:
        np = require_numpy("audio channel merging")
        transformed = merge_channels(
            np.asarray(payload), action.parameters["target_channels"])
    elif action.kind is FilterKind.DROP_CHANNEL:
        raise DeviceConstraintError(
            "drop-channel actions remove events; they have no payload "
            "transformation")
    else:  # pragma: no cover - exhaustive over FilterKind
        raise MediaError(f"unknown filter action {action.kind}")
    attributes = adapt_attributes(action, dict(descriptor.attributes))
    if action.kind is FilterKind.SUBSAMPLE_FRAMES:
        attributes["frames"] = len(transformed)
    elif action.kind is FilterKind.DOWNSAMPLE_AUDIO:
        attributes["samples"] = len(transformed)
    updated = DataDescriptor(
        descriptor_id=descriptor.descriptor_id,
        medium=descriptor.medium,
        block_id=descriptor.block_id,
        attributes=attributes,
    )
    return transformed, updated


def _map_frames(payload: Any, descriptor: DataDescriptor, transform) -> Any:
    """Apply a per-image transform to an image or every video frame."""
    np = require_numpy("image/video payload filtering")
    array = np.asarray(payload)
    if descriptor.medium is Medium.VIDEO:
        return np.stack([transform(frame) for frame in array])
    return transform(array)
