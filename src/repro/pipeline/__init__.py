"""The CWI/Multimedia Pipeline (paper section 2, figure 1).

Five stages, one module each:

1. :mod:`repro.pipeline.capture` — media block capture tools;
2. :mod:`repro.pipeline.mapping` — the document structure mapping tool;
3. :mod:`repro.pipeline.presentation` — the presentation mapping tool;
4. :mod:`repro.pipeline.filters` — constraint filtering tools;
5. :mod:`repro.pipeline.viewer` / :mod:`repro.pipeline.player` —
   document viewing and reading tools.

Stages 1–2 are target-system independent, 3 bridges, 4–5 are
target-system dependent — the figure-1 split.  :func:`run_pipeline`
drives a document through all five stages and returns every
intermediate artifact, which is what the fig-1 bench measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.document import CmifDocument
from repro.pipeline.adaptation import (AdaptationProgram, adapt_document,
                                       adapted_navigation_for,
                                       adapted_program_for,
                                       compile_adaptation)
from repro.pipeline.capture import Captured, CaptureSession
from repro.pipeline.filters import (ConstraintFilter, FilterAction,
                                    FilterKind, FilterPlan,
                                    adapt_attributes, apply_action)
from repro.pipeline.mapping import StructureMapper
from repro.pipeline.navigation import (Jump, Link, collect_links,
                                       segments_cover)
from repro.pipeline.navprogram import (Choice, CompiledNavigationSession,
                                       NavigationProgram,
                                       compile_navigation, navigation_for,
                                       random_trace)
from repro.pipeline.player import (ArcAudit, PlaybackReport, PlayedEvent,
                                   Player)
from repro.pipeline.presentation import (PresentationMap,
                                         PresentationMapper, Region,
                                         SpeakerAssignment, VIRTUAL_HEIGHT,
                                         VIRTUAL_WIDTH)
from repro.pipeline.program import (BatchPlayer, CompactReport,
                                    PlaybackProgram, ProgramCache,
                                    SweepCell, compile_program)
from repro.pipeline.viewer import (render_arc_table, render_embedded,
                                   render_screen, render_summary,
                                   render_sweep, render_timeline,
                                   render_tree)
from repro.timing.schedule import Schedule, schedule_document
from repro.transport.environments import SystemEnvironment, WORKSTATION


@dataclass
class PipelineRun:
    """Every artifact of one end-to-end pipeline execution."""

    document: CmifDocument
    presentation: PresentationMap
    filter_plan: FilterPlan
    schedule: Schedule
    playback: PlaybackReport


def run_pipeline(document: CmifDocument,
                 environment: SystemEnvironment = WORKSTATION, *,
                 seed: int = 0) -> PipelineRun:
    """Drive a finished document through stages 3–5.

    (Stages 1–2 produce the document itself; see
    :class:`CaptureSession` and :class:`StructureMapper`.)
    """
    compiled = document.compile()
    presentation = PresentationMapper(
        speaker_count=max(1, environment.audio_channels)).map_document(
        document)
    filter_plan = ConstraintFilter(environment).plan(compiled)
    schedule = schedule_document(compiled)
    playback = Player(environment, seed=seed).play(schedule)
    return PipelineRun(document=document, presentation=presentation,
                       filter_plan=filter_plan, schedule=schedule,
                       playback=playback)


__all__ = [
    "AdaptationProgram", "ArcAudit", "BatchPlayer", "Captured",
    "CaptureSession", "Choice", "CompactReport",
    "CompiledNavigationSession", "ConstraintFilter", "FilterAction",
    "FilterKind", "FilterPlan", "Jump", "Link", "NavigationProgram",
    "PipelineRun", "PlaybackProgram",
    "PlaybackReport", "PlayedEvent", "Player", "PresentationMap",
    "PresentationMapper", "ProgramCache", "Region", "SpeakerAssignment",
    "StructureMapper", "SweepCell", "collect_links", "VIRTUAL_HEIGHT",
    "VIRTUAL_WIDTH", "adapt_attributes", "adapt_document",
    "adapted_navigation_for", "adapted_program_for", "apply_action",
    "compile_adaptation", "compile_navigation", "compile_program",
    "navigation_for", "random_trace", "render_arc_table",
    "render_embedded", "render_screen", "render_summary", "render_sweep",
    "render_timeline", "render_tree", "run_pipeline", "segments_cover",
]
