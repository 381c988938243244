"""Target system environments (paper sections 1, 2 and 5.3.3).

Transportability means "the document structure can be accessed across
system environments independently of individual component input or
output dependencies"; whether a given system can *present* a document is
a separate question CMIF only supplies the structured basis for ("a
given system can determine whether it can support the requested document
or not").

:class:`SystemEnvironment` is that capability description: display
geometry and colour depth, video frame rate, audio channels and rates,
stream bandwidth, per-medium start latency (the device characteristic
behind conflict class 2), and the supported media set.  Profiles for the
classes of machine the paper's era distinguished — high-end workstation,
modest personal system, audio-less terminal — ship as ready-made
constants for the benches and examples.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from repro.core.channels import Medium
from repro.core.errors import DeviceConstraintError


class LatencyMap(Mapping):
    """An immutable, hashable per-medium latency table.

    :class:`SystemEnvironment` is ``frozen=True`` so instances can key
    the serving-layer caches (program cache, adaptation cache, session
    stats) — which requires every field to be hashable.  A plain dict
    field silently broke that contract; this wrapper keeps the mapping
    interface (``[]``, ``get``, iteration) while making mutation a
    ``TypeError`` and equality/hashing order-independent.
    """

    __slots__ = ("_data", "_hash")

    def __init__(self, data: Mapping[Medium, float] | None = None) -> None:
        object.__setattr__(self, "_data", dict(data or {}))
        object.__setattr__(self, "_hash", None)

    def __getitem__(self, medium: Medium) -> float:
        return self._data[medium]

    def __iter__(self):
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash",
                               hash(frozenset(self._data.items())))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LatencyMap):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __setattr__(self, name: str, value: object) -> None:
        raise TypeError("LatencyMap is immutable")

    def __reduce__(self):
        # Copy/pickle must reconstruct through __init__: the default
        # slotted-state path would setattr on the frozen instance.
        return (LatencyMap, (self._data,))

    def __repr__(self) -> str:
        return f"LatencyMap({self._data!r})"


@dataclass(frozen=True)
class SystemEnvironment:
    """A target presentation environment's capabilities."""

    name: str
    screen_width: int = 1280
    screen_height: int = 1024
    color_depth: int = 24
    max_frame_rate: float = 25.0
    audio_channels: int = 2
    max_sample_rate: float = 44100.0
    bandwidth_bps: int = 10_000_000
    supported_media: frozenset[Medium] = frozenset(Medium)
    #: Worst-case start latency per medium, in milliseconds; the player's
    #: device model and the class-2 conflict detector read these.  Any
    #: mapping passed in is frozen into a :class:`LatencyMap` so the
    #: environment stays hashable (cache-keyable) as a whole.
    start_latency_ms: Mapping[Medium, float] = field(
        default_factory=LatencyMap)
    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.start_latency_ms, LatencyMap):
            object.__setattr__(self, "start_latency_ms",
                               LatencyMap(self.start_latency_ms))
        if self.screen_width < 0 or self.screen_height < 0:
            raise DeviceConstraintError(
                f"screen size cannot be negative: "
                f"{self.screen_width}x{self.screen_height}")
        if self.color_depth not in (0, 1, 8, 16, 24):
            raise DeviceConstraintError(
                f"unsupported color depth {self.color_depth}")
        if self.audio_channels < 0:
            raise DeviceConstraintError("audio channel count cannot be "
                                        "negative")

    @property
    def has_display(self) -> bool:
        """True when the environment can show anything at all."""
        return self.screen_width > 0 and self.screen_height > 0

    @property
    def has_audio(self) -> bool:
        """True when the environment can play sound."""
        return self.audio_channels > 0

    def supports(self, medium: Medium) -> bool:
        """True when the environment supports ``medium`` at all."""
        if medium not in self.supported_media:
            return False
        if medium is Medium.AUDIO:
            return self.has_audio
        if medium in (Medium.VIDEO, Medium.IMAGE, Medium.TEXT):
            return self.has_display
        return True

    def latency_for(self, medium: Medium) -> float:
        """Worst-case start latency for ``medium`` in milliseconds."""
        return self.start_latency_ms.get(medium, 0.0)

    def latency_table(self, media) -> tuple[float, ...]:
        """Start latencies for an ordered media set, as a flat table.

        The compiled playback layer indexes media once per program and
        looks latencies up by position per environment, so the per-run
        loop never touches the ``start_latency_ms`` dict.
        """
        return tuple(self.latency_for(medium) for medium in media)

    def degraded(self, **changes) -> "SystemEnvironment":
        """A copy with some capabilities changed (for sweeps)."""
        return replace(self, **changes)

    def fingerprint(self) -> tuple:
        """A stable capability identity, for cache keys.

        Deliberately excludes :attr:`name`: two differently-named but
        capability-identical environments negotiate, filter and compile
        identically, so the serving caches (program cache, adaptation
        cache) should share one entry between them.  Everything that can
        influence negotiation, filtering or playback is included.  Built
        once per instance: the environment is frozen, and a copy made by
        ``dataclasses.replace`` is a new instance that builds its own.
        """
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            fingerprint = self.__dict__["_fingerprint"] = (
                self.screen_width, self.screen_height, self.color_depth,
                self.max_frame_rate, self.audio_channels,
                self.max_sample_rate, self.bandwidth_bps,
                tuple(sorted(medium.value
                             for medium in self.supported_media)),
                tuple(sorted((medium.value, latency) for medium, latency
                             in self.start_latency_ms.items())),
                self.jitter_ms,
            )
        return fingerprint


def _latencies(text: float = 1.0, audio: float = 5.0, video: float = 20.0,
               image: float = 10.0) -> dict[Medium, float]:
    return {
        Medium.TEXT: text,
        Medium.AUDIO: audio,
        Medium.VIDEO: video,
        Medium.IMAGE: image,
        Medium.PROGRAM: 50.0,
    }


#: A 1991 high-end workstation: the authors' SGI-class reference target.
WORKSTATION = SystemEnvironment(
    name="workstation",
    screen_width=1280, screen_height=1024, color_depth=24,
    max_frame_rate=25.0, audio_channels=2, max_sample_rate=44100.0,
    bandwidth_bps=10_000_000,
    start_latency_ms=_latencies(),
    jitter_ms=2.0,
)

#: A modest personal system: smaller 8-bit display, mono audio, slower
#: devices — the machine the constraint filters exist for.
PERSONAL_SYSTEM = SystemEnvironment(
    name="personal-system",
    screen_width=640, screen_height=480, color_depth=8,
    max_frame_rate=12.5, audio_channels=1, max_sample_rate=22050.0,
    bandwidth_bps=1_000_000,
    start_latency_ms=_latencies(text=5.0, audio=20.0, video=80.0,
                                image=40.0),
    jitter_ms=10.0,
)

#: A text terminal with no audio: the degenerate case the paper's flying
#: bird aside mentions ("impossible ... if the target system had no
#: display") inverted — here there is a display but no sound path.
SILENT_TERMINAL = SystemEnvironment(
    name="silent-terminal",
    screen_width=800, screen_height=600, color_depth=1,
    max_frame_rate=0.0, audio_channels=0, max_sample_rate=0.0,
    bandwidth_bps=64_000,
    supported_media=frozenset({Medium.TEXT, Medium.IMAGE}),
    start_latency_ms=_latencies(text=2.0, audio=0.0, video=0.0, image=60.0),
    jitter_ms=5.0,
)

#: All ready-made profiles, for sweeps.
PROFILES = (WORKSTATION, PERSONAL_SYSTEM, SILENT_TERMINAL)
