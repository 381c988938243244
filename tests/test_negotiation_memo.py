"""Negotiation as a lookup: one frozen verdict per (profile, environment).

Given a requirement profile, ``negotiate`` is a pure function of the
frozen :class:`SystemEnvironment`, so the verdict is memoized on the
profile.  These tests pin the memo against fresh, uncached negotiations
over generated documents and degraded environments, and pin the
per-instance environment fingerprint the plan memo keys on.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

from repro.core.channels import Medium
from repro.corpus.generate import make_media_document
from repro.transport.environments import (PERSONAL_SYSTEM, PROFILES,
                                          WORKSTATION, SystemEnvironment)
from repro.transport.negotiate import negotiate
from repro.transport.requirements import RequirementsCache


def _degraded(rng: random.Random, base: SystemEnvironment, index: int
              ) -> SystemEnvironment:
    """A random variation of ``base`` (some variations are playable)."""
    media = [medium for medium in Medium if rng.random() < 0.85]
    return base.degraded(
        name=f"{base.name}-{index}",
        screen_width=rng.choice((0, 320, 640, 1280, 1920)),
        screen_height=rng.choice((0, 240, 480, 1024)),
        color_depth=rng.choice((0, 1, 8, 16, 24)),
        max_frame_rate=rng.choice((0.0, 5.0, 12.5, 25.0, 30.0)),
        audio_channels=rng.choice((0, 1, 2)),
        max_sample_rate=rng.choice((0.0, 8000.0, 22050.0, 44100.0)),
        bandwidth_bps=rng.choice((16_000, 64_000, 1_000_000, 10_000_000)),
        supported_media=frozenset(media),
        start_latency_ms={medium: rng.choice((0.0, 5.0, 40.0, 500.0))
                          for medium in Medium},
        jitter_ms=rng.choice((0.0, 2.0, 10.0)))


def test_memoized_verdicts_equal_fresh_negotiations():
    rng = random.Random(1991)
    environments = list(PROFILES) + [
        _degraded(rng, rng.choice(PROFILES), index) for index in range(12)]
    cache = RequirementsCache()
    verdicts = set()
    for seed in range(8):
        document = make_media_document(seed, events=rng.randrange(6, 30),
                                       links=seed % 3,
                                       rich=seed % 4 != 3)
        profile = cache.requirements_for(document)
        for environment in rng.choices(environments, k=40):
            memoized = negotiate(document, environment,
                                 requirements=profile)
            fresh = negotiate(document, environment)
            assert memoized == fresh
            assert memoized.to_obj() == fresh.to_obj()
            assert memoized.summary() == fresh.summary()
            verdicts.add(memoized.verdict)
    # The generated space reaches every verdict.
    assert verdicts == {"playable", "playable-with-filtering",
                        "unplayable"}


def test_repeated_negotiations_share_one_frozen_result():
    document = make_media_document(3, events=12)
    cache = RequirementsCache()
    profile = cache.requirements_for(document)
    first = negotiate(document, PERSONAL_SYSTEM, requirements=profile)
    assert negotiate(document, PERSONAL_SYSTEM,
                     requirements=profile) is first
    assert negotiate(document, PERSONAL_SYSTEM, cache=cache) is first
    assert isinstance(first.findings, tuple)
    assert isinstance(first.to_obj()["findings"], list)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.verdict = "playable"


def test_a_renamed_twin_environment_gets_its_own_name():
    document = make_media_document(5, events=12, rich=True)
    profile = RequirementsCache().requirements_for(document)
    twin = dataclasses.replace(PERSONAL_SYSTEM, name="personal-twin")
    assert twin.fingerprint() == PERSONAL_SYSTEM.fingerprint()
    original = negotiate(document, PERSONAL_SYSTEM, requirements=profile)
    renamed = negotiate(document, twin, requirements=profile)
    assert original.environment == "personal-system"
    assert renamed.environment == "personal-twin"
    assert renamed.verdict == original.verdict
    assert renamed.findings == original.findings


def _recomputed(environment: SystemEnvironment) -> tuple:
    return (
        environment.screen_width, environment.screen_height,
        environment.color_depth, environment.max_frame_rate,
        environment.audio_channels, environment.max_sample_rate,
        environment.bandwidth_bps,
        tuple(sorted(medium.value
                     for medium in environment.supported_media)),
        tuple(sorted((medium.value, latency) for medium, latency
                     in environment.start_latency_ms.items())),
        environment.jitter_ms,
    )


@pytest.mark.parametrize("environment", PROFILES,
                         ids=[profile.name for profile in PROFILES])
def test_fingerprint_is_built_once_and_stays_right(environment):
    fingerprint = environment.fingerprint()
    assert fingerprint == _recomputed(environment)
    assert environment.fingerprint() is fingerprint
    for twin in (copy.deepcopy(environment),
                 pickle.loads(pickle.dumps(environment))):
        assert twin == environment
        assert twin.fingerprint() == fingerprint == _recomputed(twin)
    changed = dataclasses.replace(environment,
                                  bandwidth_bps=environment.bandwidth_bps + 1)
    assert changed.fingerprint() == _recomputed(changed)
    assert changed.fingerprint() != fingerprint
    assert hash(WORKSTATION) == hash(copy.deepcopy(WORKSTATION))
