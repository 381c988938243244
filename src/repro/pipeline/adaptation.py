"""Compiled adaptation programs: filtering lowered for the serving path.

The serving engine admits many sessions of the same document against
the same environment, so filtering is planned once per (document
revision, environment) and lowered, never re-derived per session.  The
plan is the requirement profile's memoized projection
(:meth:`~repro.transport.requirements.DocumentRequirements.plan_for`),
the one negotiation judged the document by; the authoring
:class:`~repro.pipeline.filters.ConstraintFilter`, with its per-channel
rows and device-conflict pass, stays off this path.

:func:`compile_adaptation` lowers that projection in one pass into an
:class:`AdaptationProgram`: interned descriptor slots, a parallel
(slot, action) op table holding one action chain per descriptor, and
precomputed adapted descriptors.  :func:`adapted_program_for` composes
it with the shared base :class:`~repro.pipeline.program.PlaybackProgram`
into an environment-specialized program, cached in the
:class:`~repro.pipeline.program.ProgramCache` under (schedule identity,
revision, environment fingerprint).  Per-descriptor filtering never
changes event timing — durations are authored attributes, untouched by
scale/colour/rate/channel mappings — so the specialized program shares
every compiled array with the base, and adapted playback is pinned
bit-identical to interpretively filtering the document and playing the
result (``tests/test_adaptation.py``).

:meth:`AdaptationProgram.adapt_document` is that interpretive
reference: a copied document whose descriptors carry the post-filter
attributes (the same :func:`~repro.pipeline.filters.adapt_attributes`
update the payload executor applies), which re-negotiates as
``playable`` — the honesty contract behind ``playable-with-filtering``
verdicts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.core.descriptors import DataDescriptor
from repro.core.document import CmifDocument, CompiledDocument
from repro.core.errors import DeviceConstraintError
from repro.pipeline.filters import (FilterAction, FilterPlan,
                                    adapt_attributes, filter_actions)
from repro.pipeline.program import (PlaybackProgram, ProgramCache,
                                    compile_program)
from repro.timing.schedule import Schedule
from repro.transport.environments import SystemEnvironment
from repro.transport.requirements import (DocumentRequirements,
                                          EnvironmentPlan,
                                          requirements_for)


@dataclass(frozen=True)
class AdaptationProgram:
    """One document's filtering for one environment, in compiled form.

    The op table is two parallel tuples: ``op_slot[i]`` is the interned
    descriptor slot the ``i``-th op applies to, ``actions[i]`` the
    filter action itself, each slot's chain contiguous and in order;
    ``originals``/``overrides`` hold the per-slot descriptor before and
    after adaptation, precomputed at compile time so per-session work
    is a tuple lookup.
    """

    environment: str
    fingerprint: tuple
    revision: int
    descriptor_ids: tuple[str, ...]
    op_slot: tuple[int, ...]
    actions: tuple[FilterAction, ...]
    originals: tuple[DataDescriptor, ...]
    overrides: tuple[DataDescriptor, ...]
    dropped_channels: tuple[str, ...]
    projected_bandwidth_bps: int

    @property
    def identity(self) -> bool:
        """True when the environment needs no adaptation at all."""
        return not self.op_slot and not self.dropped_channels

    def slot_of(self, descriptor_id: str) -> int | None:
        try:
            return self.descriptor_ids.index(descriptor_id)
        except ValueError:
            return None

    def override_for(self, descriptor_id: str) -> DataDescriptor | None:
        """The adapted descriptor, or None when unchanged."""
        slot = self.slot_of(descriptor_id)
        return None if slot is None else self.overrides[slot]

    def actions_for(self, descriptor_id: str) -> tuple[FilterAction, ...]:
        """The compiled op sequence of one descriptor, as actions."""
        slot = self.slot_of(descriptor_id)
        if slot is None:
            return ()
        return tuple(action for index, action
                     in zip(self.op_slot, self.actions)
                     if index == slot)

    def adapt_document(self, document: CmifDocument) -> CmifDocument:
        """The interpretive reference: a copy with adapted descriptors.

        This is "filtering then playing"'s first half — the compiled
        serving path must stay bit-identical to playing this document.
        Channel drops change document structure and timing; they only
        arise for ``unplayable`` verdicts, which the serving engine
        rejects instead of adapting, so adapting such a plan is an
        error rather than a silent partial result.
        """
        if self.dropped_channels:
            raise DeviceConstraintError(
                f"cannot adapt for {self.environment!r}: channels "
                f"{sorted(self.dropped_channels)} carry unsupported "
                f"media (the document is unplayable there, not "
                f"filterable)")
        if self.identity:
            return document
        clone = copy.deepcopy(document)
        for _, file_id in document.file_references():
            descriptor = document.resolve_descriptor(file_id)
            if descriptor is None:
                continue
            override = self.override_for(descriptor.descriptor_id)
            if override is not None:
                clone.register_descriptor(file_id, override)
        return clone


def compile_adaptation(environment_plan: EnvironmentPlan,
                       compiled: CompiledDocument,
                       environment: SystemEnvironment
                       ) -> AdaptationProgram:
    """Lower one environment's plan into an :class:`AdaptationProgram`.

    ``environment_plan`` is the document profile's memoized
    :meth:`~repro.transport.requirements.DocumentRequirements.plan_for`.
    One pass over the events: each descriptor, at its first event,
    becomes a slot when its :func:`~repro.pipeline.filters.filter_actions`
    chain is not empty (one chain per descriptor, however many channels
    show it — applying identical transforms twice would falsify the
    attributes), and the chain is folded in order into the adapted
    descriptor through :func:`~repro.pipeline.filters.adapt_attributes`.
    """
    dropped: set[str] = set()
    seen: set[str] = set()
    descriptor_ids: list[str] = []
    op_slot: list[int] = []
    actions: list[FilterAction] = []
    originals: list[DataDescriptor] = []
    overrides: list[DataDescriptor] = []
    for event in compiled.events:
        if not environment.supports(event.medium):
            dropped.add(event.channel)
        descriptor = event.descriptor
        if descriptor is None or descriptor.descriptor_id in seen:
            continue
        descriptor_id = descriptor.descriptor_id
        seen.add(descriptor_id)
        adaptation = environment_plan.adaptation_for(descriptor_id)
        if adaptation is None:  # newer than the profile: left as captured
            continue
        chain = filter_actions(adaptation, event.channel, environment)
        if not chain:
            continue
        attributes = descriptor.attributes
        for action in chain:
            attributes = adapt_attributes(action, attributes)
        op_slot.extend([len(descriptor_ids)] * len(chain))
        descriptor_ids.append(descriptor_id)
        actions.extend(chain)
        originals.append(descriptor)
        overrides.append(DataDescriptor(
            descriptor_id=descriptor_id, medium=descriptor.medium,
            block_id=descriptor.block_id, attributes=attributes))
    return AdaptationProgram(
        environment=environment.name,
        fingerprint=environment.fingerprint(),
        revision=compiled.document.revision,
        descriptor_ids=tuple(descriptor_ids),
        op_slot=tuple(op_slot),
        actions=tuple(actions),
        originals=tuple(originals),
        overrides=tuple(overrides),
        dropped_channels=tuple(sorted(dropped)),
        projected_bandwidth_bps=environment_plan.projected_bandwidth_bps)


def adapt_document(document: CmifDocument, plan: FilterPlan,
                   environment: SystemEnvironment) -> CmifDocument:
    """Interpretively apply a filter plan to a whole document.

    Convenience over :func:`compile_adaptation` of the plan's
    projection + :meth:`AdaptationProgram.adapt_document` — the
    reference path the equivalence tests and the serving bench's naive
    baseline use.
    """
    return compile_adaptation(plan.environment_plan, document.compile(),
                              environment).adapt_document(document)


def adapted_navigation_for(schedule: Schedule,
                           environment: SystemEnvironment | None = None,
                           *, program_cache: ProgramCache | None = None):
    """The navigation program serving an environment-adapted session.

    Adaptation is timing-invariant: per-descriptor filtering rewrites
    attributes, never event begin/end times, and links derive from the
    schedule's solved times alone — so every environment of a document
    shares one compiled
    :class:`~repro.pipeline.navprogram.NavigationProgram`, exactly as
    specialized playback programs share the base program's arrays.
    This function makes that sharing explicit at the engine's admission
    site (and keeps a seam should an adaptation kind ever move times).
    """
    from repro.pipeline.navprogram import navigation_for
    return navigation_for(schedule, program_cache=program_cache)


def adaptation_for(schedule: Schedule, environment: SystemEnvironment,
                   *, requirements: DocumentRequirements | None = None
                   ) -> AdaptationProgram:
    """Plan and lower one environment's adaptation of a schedule.

    The composition ``adapted_program_for`` performs on a miss, without
    the program-cache plumbing — the piece delta-lowering re-runs per
    *cached* environment after a structural edit.  ``requirements``
    reuses a cached profile (and its memoized plan); without one the
    profile is derived here.  Either way the output is bit-identical.
    """
    compiled = schedule.compiled
    if requirements is None:
        requirements = requirements_for(compiled.document,
                                        compiled=compiled)
    return compile_adaptation(requirements.plan_for(environment),
                              compiled, environment)


def adapted_program_for(schedule: Schedule,
                        environment: SystemEnvironment, *,
                        program_cache: ProgramCache | None = None,
                        requirements: DocumentRequirements | None = None
                        ) -> PlaybackProgram:
    """The environment-specialized playback program of a schedule.

    On a cache hit this is one dictionary probe.  On a miss: the shared
    base program is compiled (or fetched) under the environment-free
    key, the profile's plan for the environment (``requirements`` when
    the caller holds a cached profile) is lowered and composed — then
    cached under (schedule identity, revision, environment
    fingerprint).  A plan with no ops composes to the base program
    itself, so playable documents cost nothing extra per environment.
    """
    if program_cache is not None:
        cached = program_cache.get(schedule, environment=environment)
        if cached is not None:
            return cached
    base = compile_program(schedule, cache=program_cache)
    adaptation = adaptation_for(schedule, environment,
                                requirements=requirements)
    program = base if adaptation.identity \
        else base.specialized(adaptation)
    if program_cache is not None:
        program_cache.put(schedule, program, environment=environment)
    return program
