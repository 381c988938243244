"""The direct adaptation lowering against the retired derivation.

``tests/oracles/adaptation.py`` keeps the earlier planner and lowering
verbatim: ``ConstraintFilter.plan(compiled, requirements=)`` re-expresses
the profile's projection per (channel, descriptor) row, and its
``compile_adaptation`` deduplicates those actions back into one chain
per descriptor.  The shipped ``compile_adaptation`` lowers the profile's
plan straight.  Both derive programs for rich and lean media documents,
random documents and news documents under the era profiles and degraded
copies of them, and must build the same
:class:`~repro.pipeline.adaptation.AdaptationProgram` field by field:
the original descriptors by identity (they are the compiled document's
own objects), the actions and the adapted descriptors by value (each
side builds its own actions).  The authoring
:class:`~repro.pipeline.filters.ConstraintFilter`, rebuilt on the same
action builder, must still plan what the retired planner planned:
actions, device conflicts and projection.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.channels import Medium
from repro.corpus import make_media_document, make_random_document
from repro.corpus.news import make_news_document
from repro.pipeline.adaptation import compile_adaptation
from repro.pipeline.filters import ConstraintFilter
from repro.transport.environments import PROFILES
from repro.transport.requirements import compute_requirements
from tests.oracles import adaptation as oracle

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def documents(draw):
    """A compiled document of one of the four shapes, in which a few
    external nodes may take an earlier drawn node's file, so that one
    descriptor plays on several channels (of several media)."""
    shape = draw(st.sampled_from(("rich", "lean", "random", "news")))
    seed = draw(st.integers(0, 10_000))
    if shape == "news":
        document = make_news_document(stories=draw(st.integers(1, 3)),
                                      seed=seed).document
    elif shape == "random":
        document = make_random_document(seed,
                                        events=draw(st.integers(4, 40)))
    else:
        document = make_media_document(
            seed, events=draw(st.integers(4, 60)),
            links=draw(st.integers(0, 3)), rich=shape == "rich")
    references = list(document.file_references())
    if references:
        index = st.integers(0, len(references) - 1)
        for source, target in draw(st.lists(st.tuples(index, index),
                                            max_size=3)):
            references[target][0].attributes.set(
                "file", references[source][1])
    return document.compile()


@st.composite
def environments(draw):
    """An era profile, or a copy of one with degraded capabilities."""
    base = draw(st.sampled_from(PROFILES))
    if draw(st.booleans()):
        return base
    return base.degraded(
        name=f"{base.name}-degraded",
        screen_width=draw(st.sampled_from((0, 320, 640, base.screen_width))),
        screen_height=draw(st.sampled_from((0, 240, 480,
                                            base.screen_height))),
        color_depth=draw(st.sampled_from((0, 1, 8, 16, 24))),
        max_frame_rate=draw(st.sampled_from((0.0, 5.0, 12.5, 25.0))),
        audio_channels=draw(st.integers(0, 2)),
        max_sample_rate=draw(st.sampled_from((0.0, 8000.0, 22050.0,
                                              44100.0))),
        bandwidth_bps=draw(st.sampled_from((9_600, 64_000, 1_000_000,
                                            base.bandwidth_bps))),
        supported_media=frozenset(draw(st.sets(st.sampled_from(
            tuple(Medium)), min_size=1))))


def _assert_same_program(mine, theirs) -> None:
    assert mine.environment == theirs.environment
    assert mine.fingerprint == theirs.fingerprint
    assert mine.revision == theirs.revision
    assert mine.descriptor_ids == theirs.descriptor_ids
    assert mine.op_slot == theirs.op_slot
    assert mine.actions == theirs.actions
    assert [id(descriptor) for descriptor in mine.originals] \
        == [id(descriptor) for descriptor in theirs.originals]
    assert mine.overrides == theirs.overrides
    assert mine.dropped_channels == theirs.dropped_channels
    assert mine.projected_bandwidth_bps == theirs.projected_bandwidth_bps


@FUZZ
@given(compiled=documents(), environment=environments())
def test_lowering_matches_the_retired_one(compiled, environment):
    profile = compute_requirements(compiled.document, compiled)
    retired = oracle.ConstraintFilter(environment).plan(
        compiled, requirements=profile)
    _assert_same_program(
        compile_adaptation(profile.plan_for(environment), compiled,
                           environment),
        oracle.compile_adaptation(retired, compiled, environment))
    # The authoring tool builds its rows on the same action builder and
    # still plans what the retired per-event planner did.
    authored = ConstraintFilter(environment).plan(compiled)
    assert authored.environment == retired.environment
    assert authored.actions == retired.actions
    assert authored.conflicts == retired.conflicts
    assert authored.environment_plan == retired.environment_plan
