"""The adaptation lowering the one-pass lowering replaced.

``compile_adaptation`` is the earlier
:func:`repro.pipeline.adaptation.compile_adaptation` verbatim: it
deduplicates the plan's ops, then folds each descriptor's chain by
scanning the whole op table once per descriptor slot (slots x ops).
A test comparing the two compares exactly the programs each builds.
"""

from __future__ import annotations

from repro.core.descriptors import DataDescriptor
from repro.core.document import CompiledDocument
from repro.pipeline.adaptation import AdaptationProgram
from repro.pipeline.filters import (FilterAction, FilterKind, FilterPlan,
                                    adapt_attributes)
from repro.transport.environments import SystemEnvironment


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
