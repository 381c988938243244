"""The one-pass adaptation lowering against the retired one.

``tests/oracles/adaptation.py`` keeps the earlier ``compile_adaptation``
verbatim: it folds each descriptor's op chain by scanning the whole op
table once per descriptor slot.  The shipped one groups the ops by slot
in one pass.  Both lower the same filter plans, derived for rich and
lean media documents, random documents and news documents under the
era profiles and degraded copies of them, and must build the same
:class:`~repro.pipeline.adaptation.AdaptationProgram` field by field:
the original descriptors and the actions by identity (they are the
compiled document's and the plan's own objects), the adapted
descriptors by value.
"""

from __future__ import annotations

import dataclasses
import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.core.channels import Medium
from repro.corpus import make_media_document, make_random_document
from repro.corpus.news import make_news_document
from repro.pipeline.adaptation import compile_adaptation
from repro.pipeline.filters import ConstraintFilter
from repro.transport.environments import PERSONAL_SYSTEM, PROFILES
from tests.oracles import adaptation as oracle

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def documents(draw):
    """A compiled document of one of the four shapes."""
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
    assert [id(action) for action in mine.actions] \
        == [id(action) for action in theirs.actions]
    assert [id(descriptor) for descriptor in mine.originals] \
        == [id(descriptor) for descriptor in theirs.originals]
    assert mine.overrides == theirs.overrides
    assert mine.dropped_channels == theirs.dropped_channels
    assert mine.projected_bandwidth_bps == theirs.projected_bandwidth_bps


def _shuffled(plan, seed: int):
    """The plan with its actions in another order.

    A derived plan lists each descriptor's ops together; a shuffled one
    interleaves the chains, so a fold that mixes up slots or op order
    shows.
    """
    actions = list(plan.actions)
    random.Random(seed).shuffle(actions)
    return dataclasses.replace(plan, actions=actions)


@FUZZ
@given(compiled=documents(), environment=environments(),
       shuffle=st.none() | st.integers(0, 1 << 16))
def test_lowering_matches_the_retired_one(compiled, environment, shuffle):
    plan = ConstraintFilter(environment).plan(compiled)
    if shuffle is not None:
        plan = _shuffled(plan, shuffle)
    _assert_same_program(compile_adaptation(plan, compiled, environment),
                         oracle.compile_adaptation(plan, compiled,
                                                   environment))


def test_interleaved_chains_fold_in_op_order():
    """The fuzz is only as good as its plans: here descriptors carry
    chains of several ops, interleaved with other descriptors'."""
    compiled = make_media_document(3, events=60, links=2,
                                   rich=True).compile()
    plan = _shuffled(ConstraintFilter(PERSONAL_SYSTEM).plan(compiled), 7)
    program = compile_adaptation(plan, compiled, PERSONAL_SYSTEM)
    slots = program.op_slot
    assert len(set(slots)) < len(slots)
    assert list(slots) != sorted(slots)
    _assert_same_program(program, oracle.compile_adaptation(
        plan, compiled, PERSONAL_SYSTEM))
