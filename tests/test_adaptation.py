"""Tests for the compiled adaptation pipeline (repro.pipeline.adaptation).

Two contracts gate the serving path:

* **equivalence** — playback through an environment-specialized
  program (base arrays + compiled adaptation) is bit-identical to
  interpretively adapting the document and playing the result;
* **honesty** — a ``playable-with-filtering`` verdict is a promise:
  applying the filter plan yields a document that re-negotiates as
  ``playable`` under the same environment.
"""

import random

import numpy as np
import pytest

from repro.core.errors import DeviceConstraintError
from repro.corpus import make_media_document
from repro.pipeline.adaptation import (adapt_document,
                                       adapted_program_for,
                                       compile_adaptation)
from repro.pipeline.filters import (ConstraintFilter, FilterKind,
                                    adapt_attributes, apply_action)
from repro.pipeline.player import Player
from repro.pipeline.program import BatchPlayer, ProgramCache
from repro.timing.schedule import schedule_document
from repro.transport import (FILTERABLE, PLAYABLE, PROFILES, UNPLAYABLE,
                             negotiate)
from repro.transport.environments import (PERSONAL_SYSTEM,
                                          SILENT_TERMINAL, WORKSTATION)

SEEDS = range(10)


def _plan_for(document, environment):
    return ConstraintFilter(environment).plan(document.compile())


class TestAdaptedPlaybackEquivalence:
    @pytest.mark.parametrize("environment", PROFILES,
                             ids=lambda e: e.name)
    def test_compiled_equals_interpretive(self, environment):
        """Acceptance: adapted playback through an AdaptationProgram is
        bit-identical to filtering the document, rescheduling and
        playing — randomized documents, every admissible pairing."""
        cache = ProgramCache(capacity=64)
        covered_adapted = covered_identity = 0
        for seed in SEEDS:
            document = make_media_document(seed, events=18)
            verdict = negotiate(document, environment).verdict
            if verdict == UNPLAYABLE:
                continue
            schedule = schedule_document(document.compile())
            program = adapted_program_for(schedule, environment,
                                          program_cache=cache)
            compiled_report = BatchPlayer(
                schedule, environment, program=program).run_one(
                rng=random.Random(seed)).materialize()

            plan = _plan_for(document, environment)
            adapted = adapt_document(document, plan, environment)
            reference_schedule = schedule_document(adapted.compile())
            reference = Player(environment).play(
                reference_schedule, rng=random.Random(seed))
            assert compiled_report == reference
            if program.adaptation is not None:
                covered_adapted += 1
            else:
                covered_identity += 1
        assert covered_adapted or covered_identity

    def test_equivalence_against_interpretive_reference_loop(self):
        """Belt and braces: one adapted pairing checked against the
        original tree-walking ``play_reference`` oracle too."""
        document = make_media_document(3, events=16)
        environment = PERSONAL_SYSTEM
        assert negotiate(document, environment).verdict == FILTERABLE
        schedule = schedule_document(document.compile())
        program = adapted_program_for(schedule, environment)
        compiled_report = BatchPlayer(
            schedule, environment, program=program).run_one(
            rng=random.Random(99)).materialize()
        adapted = adapt_document(document, _plan_for(document, environment),
                                 environment)
        reference = Player(environment).play_reference(
            schedule_document(adapted.compile()), rng=random.Random(99))
        assert compiled_report == reference

    def test_rate_seek_controls_stay_identical(self):
        document = make_media_document(5, events=16)
        environment = PERSONAL_SYSTEM
        schedule = schedule_document(document.compile())
        program = adapted_program_for(schedule, environment)
        batch = BatchPlayer(schedule, environment, program=program)
        adapted = adapt_document(document, _plan_for(document, environment),
                                 environment)
        reference_schedule = schedule_document(adapted.compile())
        player = Player(environment)
        for rate, seek in ((1.0, 0.0), (2.0, 0.0), (0.5, 1500.0)):
            compact = batch.run_one(rate=rate, seek_to_ms=seek,
                                    rng=random.Random(11))
            reference = player.play(reference_schedule, rate=rate,
                                    seek_to_ms=seek,
                                    rng=random.Random(11))
            assert compact.materialize() == reference


class TestFilterableHonesty:
    @pytest.mark.parametrize("environment", PROFILES,
                             ids=lambda e: e.name)
    def test_filterable_verdicts_are_honest(self, environment):
        """Satellite property: applying the ConstraintFilter plan to a
        playable-with-filtering document yields one that re-negotiates
        as playable under the same environment."""
        exercised = 0
        for seed in range(20):
            document = make_media_document(seed, events=14)
            verdict = negotiate(document, environment).verdict
            if verdict != FILTERABLE:
                continue
            exercised += 1
            plan = _plan_for(document, environment)
            adapted = adapt_document(document, plan, environment)
            again = negotiate(adapted, environment)
            assert again.verdict == PLAYABLE, (
                f"seed {seed} on {environment.name}: "
                f"{again.summary()}")
            # The original document is untouched.
            assert negotiate(document, environment).verdict == FILTERABLE
        assert exercised >= 3

    def test_playable_documents_adapt_to_themselves(self):
        document = make_media_document(1, events=12, rich=False)
        environment = WORKSTATION
        assert negotiate(document, environment).verdict == PLAYABLE
        plan = _plan_for(document, environment)
        adapted = adapt_document(document, plan, environment)
        assert adapted is document

    def test_unplayable_plans_refuse_document_adaptation(self):
        """Channel drops mean unplayable, and the adaptation layer says
        so instead of silently restructuring the document."""
        document = make_media_document(0, events=12, rich=True)
        assert negotiate(document, SILENT_TERMINAL).verdict == UNPLAYABLE
        plan = _plan_for(document, SILENT_TERMINAL)
        assert plan.dropped_channels
        adaptation = compile_adaptation(plan.environment_plan,
                                        document.compile(),
                                        SILENT_TERMINAL)
        with pytest.raises(DeviceConstraintError, match="unplayable"):
            adaptation.adapt_document(document)


class TestAdaptationProgram:
    def test_ops_are_grouped_and_deduplicated(self):
        document = make_media_document(2, events=16)
        plan = _plan_for(document, PERSONAL_SYSTEM)
        adaptation = compile_adaptation(plan.environment_plan,
                                        document.compile(),
                                        PERSONAL_SYSTEM)
        assert not adaptation.identity
        assert len(adaptation.op_slot) == len(adaptation.actions)
        assert len(adaptation.descriptor_ids) \
            == len(adaptation.originals) == len(adaptation.overrides)
        seen = set()
        for slot, action in zip(adaptation.op_slot, adaptation.actions):
            assert (slot, action.kind) not in seen
            seen.add((slot, action.kind))

    def test_overrides_match_sequential_attribute_adaptation(self):
        document = make_media_document(2, events=16)
        plan = _plan_for(document, PERSONAL_SYSTEM)
        compiled = document.compile()
        adaptation = compile_adaptation(plan.environment_plan, compiled,
                                        PERSONAL_SYSTEM)
        for slot, descriptor_id in enumerate(adaptation.descriptor_ids):
            attributes = dict(adaptation.originals[slot].attributes)
            for action in adaptation.actions_for(descriptor_id):
                attributes = adapt_attributes(action, attributes)
            assert adaptation.overrides[slot].attributes == attributes

    def test_adapted_bandwidth_never_exceeds_projection(self):
        for seed in range(12):
            document = make_media_document(seed, events=16)
            for environment in (WORKSTATION, PERSONAL_SYSTEM):
                plan = _plan_for(document, environment)
                adaptation = compile_adaptation(plan.environment_plan,
                                                document.compile(),
                                                environment)
                if adaptation.dropped_channels:
                    continue
                adapted_total = 0
                for event in adaptation.adapt_document(
                        document).compile().events:
                    if event.descriptor is None:
                        continue
                    adapted_total += int(event.descriptor.get(
                        "resources", {}).get("bandwidth-bps", 0))
                if plan.environment_plan.achievable:
                    assert adapted_total <= max(
                        plan.environment_plan.projected_bandwidth_bps,
                        environment.bandwidth_bps)

    def test_merge_channels_op_for_stereo_audio(self):
        from repro.core.builder import DocumentBuilder
        from repro.core.channels import Medium
        from repro.core.descriptors import DataDescriptor
        from repro.core.timebase import MediaTime
        builder = DocumentBuilder("stereo-doc")
        builder.channel("sound", "audio")
        descriptor = DataDescriptor(
            descriptor_id="stereo", medium=Medium.AUDIO, block_id=None,
            attributes={"duration": MediaTime.ms(1000.0),
                        "sample-rate": 22050.0, "samples": 22050,
                        "channels": 2,
                        "resources": {"bandwidth-bps": 705600}})
        builder.descriptor("stereo", descriptor)
        builder.ext("clip", file="stereo", channel="sound")
        document = builder.build(validate=False)
        plan = _plan_for(document, PERSONAL_SYSTEM)
        kinds = {action.kind for action in plan.actions}
        assert FilterKind.MERGE_CHANNELS in kinds
        adaptation = compile_adaptation(plan.environment_plan,
                                        document.compile(),
                                        PERSONAL_SYSTEM)
        override = adaptation.override_for("stereo")
        assert override.get("channels") == 1
        stereo = np.stack([np.ones(100), np.zeros(100)], axis=1)
        merged, updated = stereo, descriptor
        for action in adaptation.actions_for("stereo"):
            merged, updated = apply_action(action, merged, updated)
        assert merged.ndim == 1
        assert np.allclose(merged, 0.5)
        assert updated.get("channels") == 1


class TestEnvironmentKeyedProgramCache:
    def test_base_program_shared_by_playable_environments(self):
        document = make_media_document(1, events=12, rich=False)
        assert negotiate(document, WORKSTATION).verdict == PLAYABLE
        cache = ProgramCache()
        schedule = schedule_document(document.compile())
        program = adapted_program_for(schedule, WORKSTATION,
                                      program_cache=cache)
        base = cache.get(schedule)
        assert program is base
        assert program.adaptation is None

    def test_specialized_programs_cached_per_fingerprint(self):
        document = make_media_document(3, events=12)
        cache = ProgramCache()
        schedule = schedule_document(document.compile())
        personal = adapted_program_for(schedule, PERSONAL_SYSTEM,
                                       program_cache=cache)
        workstation = adapted_program_for(schedule, WORKSTATION,
                                          program_cache=cache)
        assert personal is not workstation
        # Re-requests are cache hits returning the same object.
        assert adapted_program_for(schedule, PERSONAL_SYSTEM,
                                   program_cache=cache) is personal
        assert adapted_program_for(schedule, WORKSTATION,
                                   program_cache=cache) is workstation
        # A capability-identical twin with another name shares the entry.
        twin = PERSONAL_SYSTEM.degraded(name="kiosk")
        assert adapted_program_for(schedule, twin,
                                   program_cache=cache) is personal

    def test_entries_carry_their_environment_through_take(self):
        """A composition's entry keeps the environment that compiled
        it: take hands it back with the program, restore re-inserts
        both, and the base program's entry carries none."""
        document = make_media_document(3, events=12)
        cache = ProgramCache()
        schedule = schedule_document(document.compile())
        personal = adapted_program_for(schedule, PERSONAL_SYSTEM,
                                       program_cache=cache)
        workstation = adapted_program_for(schedule, WORKSTATION,
                                          program_cache=cache)
        expected = {
            None: (cache.get(schedule), None),
            PERSONAL_SYSTEM.fingerprint(): (personal, PERSONAL_SYSTEM),
            WORKSTATION.fingerprint(): (workstation, WORKSTATION)}

        def identities(entries):
            return {slot: tuple(map(id, entry))
                    for slot, entry in entries.items()}

        taken = cache.take(schedule)
        assert identities(taken) == identities(expected)
        assert cache.get(schedule, environment=PERSONAL_SYSTEM) is None
        for slot, (program, environment) in taken.items():
            cache.restore(schedule, slot, program, environment)
        assert cache.get(schedule, environment=PERSONAL_SYSTEM) \
            is personal
        assert identities(cache.take(schedule)) == identities(expected)

    def test_specialized_program_shares_base_arrays(self):
        document = make_media_document(3, events=12)
        cache = ProgramCache()
        schedule = schedule_document(document.compile())
        specialized = adapted_program_for(schedule, PERSONAL_SYSTEM,
                                          program_cache=cache)
        base = cache.get(schedule)
        assert specialized is not base
        assert specialized.begin_ms is base.begin_ms
        assert specialized.end_ms is base.end_ms
        assert specialized.audit_arcs is base.audit_arcs
        assert specialized.adaptation is not None
        assert specialized.adaptation.fingerprint \
            == PERSONAL_SYSTEM.fingerprint()
