"""Document/environment capability negotiation (paper section 1).

"What CMIF can provide ... is a structured basis upon which a given
system can determine whether it can support the requested document or
not."  :func:`negotiate` performs that determination from descriptors
alone: the document's requirements (media used, resolutions, rates,
bandwidth, hard-synchronization tightness) are derived once per
document revision as a
:class:`~repro.transport.requirements.DocumentRequirements` profile,
then checked against a
:class:`~repro.transport.environments.SystemEnvironment`, returning a
structured verdict with per-requirement findings.  Negotiating one
document against N environments therefore walks the tree once, not N
times — the serving engine's admission path relies on this — and each
(profile, environment) verdict is computed once and then shared.

Three verdicts are possible, mirroring the pipeline's options:

* ``playable`` — every requirement is met natively;
* ``playable-with-filtering`` — unmet requirements can all be resolved
  by the constraint-filter stage (colour reduction, scaling,
  sub-sampling, channel merging);
* ``unplayable`` — some requirement has no filter (a required medium is
  entirely unsupported, a must arc is tighter than the device latency,
  or the bandwidth projection shows no achievable filtering).

Verdicts are *honest*: a finding is only marked filterable when the
constraint filter's own planning math — shared through
:mod:`repro.transport.requirements` — can actually resolve it, so a
``playable-with-filtering`` document re-negotiates as ``playable``
after its filter plan is applied.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.document import CmifDocument
from repro.transport.environments import SystemEnvironment
from repro.transport.requirements import (DocumentRequirements,
                                          RequirementsCache,
                                          requirements_for)

PLAYABLE = "playable"
FILTERABLE = "playable-with-filtering"
UNPLAYABLE = "unplayable"


@dataclass(frozen=True)
class Finding:
    """One requirement check: what the document needs vs what exists."""

    requirement: str
    needed: str
    available: str
    satisfied: bool
    filterable: bool = False

    def __str__(self) -> str:
        state = ("ok" if self.satisfied
                 else "filterable" if self.filterable else "unmet")
        return (f"{self.requirement}: needs {self.needed}, "
                f"has {self.available} [{state}]")

    def to_obj(self) -> dict[str, object]:
        """The machine-readable form (CLI ``negotiate --json``)."""
        return {
            "requirement": self.requirement,
            "needed": self.needed,
            "available": self.available,
            "satisfied": self.satisfied,
            "filterable": self.filterable,
        }


@dataclass(frozen=True)
class NegotiationResult:
    """The structured verdict of a negotiation.

    Frozen, so every session admitted under one (profile, environment)
    pair can share the one memoized result :func:`negotiate` returns.
    """

    environment: str
    verdict: str
    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        """True unless the document is unplayable."""
        return self.verdict != UNPLAYABLE

    def summary(self) -> str:
        lines = [f"negotiation against {self.environment}: {self.verdict}"]
        lines.extend(f"  - {finding}" for finding in self.findings)
        return "\n".join(lines)

    def to_obj(self) -> dict[str, object]:
        """The machine-readable form (CLI ``negotiate --json``)."""
        return {
            "environment": self.environment,
            "verdict": self.verdict,
            "ok": self.ok,
            "findings": [finding.to_obj() for finding in self.findings],
        }

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_obj(), indent=indent)


def document_requirements(document: CmifDocument) -> dict[str, object]:
    """Derive a document's requirements from descriptors only.

    Returns media set, maximum resolution, colour depth, frame and
    sample rates, audio channel count, summed worst-case bandwidth, and
    the tightest must-arc window.  Kept as the seed's mapping shape;
    the structured (and cacheable) form is
    :func:`repro.transport.requirements.requirements_for`.
    """
    return requirements_for(document).as_dict()


def negotiate(document: CmifDocument,
              environment: SystemEnvironment, *,
              requirements: DocumentRequirements | None = None,
              cache: RequirementsCache | None = None) -> NegotiationResult:
    """Check ``document`` against ``environment``; never raises.

    ``requirements`` short-circuits the profile derivation when the
    caller already holds one (the serving engine); ``cache`` makes the
    derivation once-per-revision without the caller managing profiles.
    The verdict is memoized on the profile per environment, so every
    call with one profile and one environment returns the same frozen
    result.
    """
    if requirements is None:
        requirements = requirements_for(document, cache=cache)
    # Given the profile, the verdict is a pure function of the frozen
    # environment, so it is memoized on the profile next to plan_for's
    # plans, keyed by the environment itself: the result carries the
    # environment's name, which the fingerprint leaves out.
    verdicts = requirements.__dict__.setdefault("_verdicts", {})
    result = verdicts.get(environment)
    if result is None:
        result = verdicts[environment] = _negotiate(requirements,
                                                    environment)
    return result


def _negotiate(requirements: DocumentRequirements,
               environment: SystemEnvironment) -> NegotiationResult:
    """Check one requirement profile against ``environment``."""
    findings: list[Finding] = []

    for medium in sorted(requirements.media, key=lambda m: m.value):
        supported = environment.supports(medium)
        findings.append(Finding(
            requirement=f"medium:{medium.value}",
            needed="supported",
            available="supported" if supported else "unsupported",
            satisfied=supported,
            filterable=False,
        ))

    width, height = requirements.max_resolution
    if width and height:
        fits = (width <= environment.screen_width
                and height <= environment.screen_height)
        findings.append(Finding(
            requirement="resolution",
            needed=f"{width}x{height}",
            available=(f"{environment.screen_width}x"
                       f"{environment.screen_height}"),
            satisfied=fits, filterable=True))

    if requirements.color_depth:
        deep_enough = requirements.color_depth <= environment.color_depth
        findings.append(Finding(
            requirement="color-depth",
            needed=f"{requirements.color_depth}-bit",
            available=f"{environment.color_depth}-bit",
            satisfied=deep_enough,
            # Reduction needs at least a 1-bit target to map onto.
            filterable=environment.color_depth >= 1))

    if requirements.frame_rate:
        fast_enough = (requirements.frame_rate
                       <= environment.max_frame_rate)
        findings.append(Finding(
            requirement="frame-rate",
            needed=f"{requirements.frame_rate:g}fps",
            available=f"{environment.max_frame_rate:g}fps",
            satisfied=fast_enough,
            # Sub-sampling needs a positive device rate to target.
            filterable=environment.max_frame_rate > 0))

    if requirements.sample_rate:
        enough = requirements.sample_rate <= environment.max_sample_rate
        findings.append(Finding(
            requirement="sample-rate",
            needed=f"{requirements.sample_rate:g}Hz",
            available=f"{environment.max_sample_rate:g}Hz",
            satisfied=enough,
            filterable=(environment.has_audio
                        and environment.max_sample_rate > 0)))

    if requirements.audio_channels > 1:
        enough_lanes = (requirements.audio_channels
                        <= environment.audio_channels)
        findings.append(Finding(
            requirement="audio-channels",
            needed=f"{requirements.audio_channels}ch",
            available=f"{environment.audio_channels}ch",
            satisfied=enough_lanes,
            # Channel merging needs at least one output lane.
            filterable=environment.has_audio))

    if requirements.bandwidth_bps:
        enough = requirements.bandwidth_bps <= environment.bandwidth_bps
        plan = (None if enough
                else requirements.plan_for(environment))
        findings.append(Finding(
            requirement="bandwidth",
            needed=f"{requirements.bandwidth_bps}bps",
            available=f"{environment.bandwidth_bps}bps",
            satisfied=enough,
            # Honest: filterable only when the filter's own projection
            # fits the budget after (device + pressure) adaptations.
            filterable=enough or plan.achievable))

    tightest = requirements.tightest_must_epsilon_ms
    if tightest is not None:
        worst_latency = requirements.worst_latency_ms(environment)
        meets = worst_latency <= tightest
        findings.append(Finding(
            requirement="must-sync-tightness",
            needed=f"start latency <= {tightest:g}ms",
            available=f"worst latency {worst_latency:g}ms",
            satisfied=meets, filterable=False))

    if all(finding.satisfied for finding in findings):
        verdict = PLAYABLE
    elif all(finding.satisfied or finding.filterable
             for finding in findings):
        verdict = FILTERABLE
    else:
        verdict = UNPLAYABLE
    return NegotiationResult(environment=environment.name, verdict=verdict,
                             findings=tuple(findings))
