"""Pipeline stage 3: the presentation mapping tool (paper section 2).

"This tool allows portions of a document to be allocated to a virtual
presentation environment ... to allocate virtual presentation 'real
estate' (such as areas on a display or channels of a loudspeaker) to a
given multimedia document. ... this tool manipulates the definitions
provided in the CMIF document and creates a presentation map that can be
manipulated separately from the document itself."

The virtual environment is a normalized screen (the allocator works in a
1000x1000 virtual coordinate space, so the map is target-independent —
the constraint-filter stage later scales it to physical pixels) plus a
set of loudspeaker channels.  Visual channels receive :class:`Region`
rectangles; aural channels receive speaker indices.  Preference defaults
may come "provided with each atomic media block" — here, from channel
declaration extras (``region-hint``, ``prefer-width``) — "or they may
need to be added by this tool", which otherwise lays channels out in
columns by medium weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.channels import Channel, Medium
from repro.core.document import CmifDocument
from repro.core.errors import DeviceConstraintError
from repro.core.values import Rect

#: The virtual screen's coordinate space (target-independent units).
VIRTUAL_WIDTH = 1000
VIRTUAL_HEIGHT = 1000

#: Relative widths by medium when the tool must invent a layout; video
#: dominates the screen the way the news example's main stream does.
_MEDIUM_WEIGHT = {
    Medium.VIDEO: 3.0,
    Medium.IMAGE: 2.0,
    Medium.TEXT: 1.0,
    Medium.PROGRAM: 1.0,
}


@dataclass(frozen=True)
class Region:
    """One allocated area of the virtual screen."""

    channel: str
    rect: Rect
    z_order: int = 0


@dataclass(frozen=True)
class SpeakerAssignment:
    """One aural channel's loudspeaker allocation."""

    channel: str
    speaker: int


@dataclass
class PresentationMap:
    """The stage-3 output: virtual real estate per channel.

    Deliberately separate from the document (the paper: "a presentation
    map that can be manipulated separately from the document itself") —
    re-mapping a document to a different layout never touches the tree.
    """

    regions: dict[str, Region] = field(default_factory=dict)
    speakers: dict[str, SpeakerAssignment] = field(default_factory=dict)

    def region_for(self, channel: str) -> Region:
        """The region of a visual channel."""
        region = self.regions.get(channel)
        if region is None:
            raise DeviceConstraintError(
                f"channel {channel!r} has no allocated region")
        return region

    def speaker_for(self, channel: str) -> SpeakerAssignment:
        """The speaker of an aural channel."""
        assignment = self.speakers.get(channel)
        if assignment is None:
            raise DeviceConstraintError(
                f"channel {channel!r} has no allocated speaker")
        return assignment

    def describe(self) -> str:
        """Human-readable allocation summary (used by the fig-4 bench)."""
        lines = ["presentation map (virtual 1000x1000):"]
        for name in sorted(self.regions):
            region = self.regions[name]
            rect = region.rect
            lines.append(
                f"  {name:<10} region ({rect.x:4},{rect.y:4}) "
                f"{rect.width:4}x{rect.height:<4} z={region.z_order}")
        for name in sorted(self.speakers):
            lines.append(
                f"  {name:<10} speaker #{self.speakers[name].speaker}")
        return "\n".join(lines)


class PresentationMapper:
    """Allocates virtual real estate to a document's channels."""

    def __init__(self, *, speaker_count: int = 2) -> None:
        if speaker_count < 0:
            raise DeviceConstraintError("speaker count cannot be negative")
        self.speaker_count = speaker_count

    def map_document(self, document: CmifDocument) -> PresentationMap:
        """Produce the presentation map for every declared channel."""
        visual = [c for c in document.channels if c.is_visual]
        aural = [c for c in document.channels if c.is_aural]
        presentation = PresentationMap()
        self._allocate_visual(visual, presentation)
        self._allocate_aural(aural, presentation)
        return presentation

    # -- visual allocation --------------------------------------------------

    def _allocate_visual(self, channels: list[Channel],
                         presentation: PresentationMap) -> None:
        hinted = [c for c in channels if "region-hint" in c.extra]
        automatic = [c for c in channels if "region-hint" not in c.extra]
        for z, channel in enumerate(hinted):
            rect = _rect_from_hint(channel)
            presentation.regions[channel.name] = Region(
                channel=channel.name, rect=rect, z_order=z + 100)
        if automatic:
            self._column_layout(automatic, presentation)

    def _column_layout(self, channels: list[Channel],
                       presentation: PresentationMap) -> None:
        """Weighted column layout for channels without preferences.

        Channels split the virtual screen into vertical columns whose
        widths follow the medium weights; text channels are additionally
        stacked when there are several (captions below labels, like the
        news screen).
        """
        weights = [
            float(c.extra.get("prefer-width",
                              _MEDIUM_WEIGHT.get(c.medium, 1.0)))
            for c in channels]
        total = sum(weights) or 1.0
        x = 0
        for z, (channel, weight) in enumerate(zip(channels, weights)):
            width = max(1, int(VIRTUAL_WIDTH * weight / total))
            if channel is channels[-1]:
                width = VIRTUAL_WIDTH - x  # absorb rounding in the last column
            rect = Rect(x, 0, width, VIRTUAL_HEIGHT)
            presentation.regions[channel.name] = Region(
                channel=channel.name, rect=rect, z_order=z)
            x += width

    # -- aural allocation ----------------------------------------------------

    def _allocate_aural(self, channels: list[Channel],
                        presentation: PresentationMap) -> None:
        if channels and self.speaker_count == 0:
            raise DeviceConstraintError(
                f"document needs audio channels "
                f"({[c.name for c in channels]}) but the virtual "
                f"environment has no speakers")
        for index, channel in enumerate(channels):
            speaker = int(channel.extra.get(
                "speaker-hint", index % max(1, self.speaker_count)))
            if not 0 <= speaker < max(1, self.speaker_count):
                raise DeviceConstraintError(
                    f"channel {channel.name!r} requests speaker {speaker} "
                    f"but only {self.speaker_count} exist")
            presentation.speakers[channel.name] = SpeakerAssignment(
                channel=channel.name, speaker=speaker)


def _rect_from_hint(channel: Channel) -> Rect:
    """Decode a channel's ``region-hint`` extra into a virtual rect."""
    hint = channel.extra["region-hint"]
    if isinstance(hint, Rect):
        return hint
    if isinstance(hint, dict):
        return Rect(int(hint.get("x", 0)), int(hint.get("y", 0)),
                    int(hint.get("width", VIRTUAL_WIDTH)),
                    int(hint.get("height", VIRTUAL_HEIGHT)))
    if isinstance(hint, (list, tuple)) and len(hint) == 4:
        x, y, w, h = hint
        return Rect(int(x), int(y), int(w), int(h))
    raise DeviceConstraintError(
        f"channel {channel.name!r} has a malformed region-hint {hint!r}")
