"""Media-dependent time units and conversion (paper sections 5.3.2 and 6).

The paper allows synchronization offsets to be "expressed in terms of
media-dependent units (such as seconds, frames, bytes, etc.)" and lists the
resolution of delay times and sampling frequencies as one of the first
transportability problems (section 6).  This module provides:

* :class:`Unit` — the supported media-dependent units,
* :class:`MediaTime` — a value tagged with its unit,
* :class:`TimeBase` — the rates needed to convert any unit to canonical
  milliseconds, so that a scheduler can mix constraints given in frames,
  audio samples and seconds in a single system.

Canonical time is a ``float`` number of milliseconds.  Milliseconds were
chosen because every rate in the paper's examples (video frame rates,
audio sample rates, reading speeds for captions) divides cleanly into
sub-second periods, and because a float millisecond keeps round-trip error
well below human-perceptible synchronization skew (about 20 ms for
audio/video lip sync).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.core.errors import ValueError_

#: Absolute tolerance, in milliseconds, for canonical-time comparisons.
TIME_EPSILON_MS = 1e-6


class Unit(enum.Enum):
    """Media-dependent units in which offsets and delays may be expressed."""

    MILLISECONDS = "ms"
    SECONDS = "s"
    FRAMES = "frames"
    SAMPLES = "samples"
    BYTES = "bytes"
    CHARACTERS = "chars"

    @classmethod
    def from_name(cls, name: str) -> "Unit":
        """Return the unit whose symbolic name is ``name``.

        Accepts both the short form used in the concrete syntax (``"ms"``,
        ``"s"``) and the enum member name (``"SECONDS"``).
        """
        unit = _UNIT_NAMES.get(name.strip().lower())
        if unit is None:
            raise ValueError_(f"unknown time unit {name!r}")
        return unit


_UNIT_NAMES = {spelling: unit for unit in Unit
               for spelling in (unit.value, unit.name.lower())}


@dataclass(frozen=True)
class MediaTime:
    """A scalar duration or offset tagged with its media-dependent unit.

    ``MediaTime`` is a value object: immutable, hashable, and comparable
    only after conversion through a :class:`TimeBase` (comparing a frame
    count with a sample count is meaningless without rates).
    """

    value: float
    unit: Unit = Unit.MILLISECONDS

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError_("MediaTime value must be finite")

    @classmethod
    def ms(cls, value: float) -> "MediaTime":
        """Construct a value in milliseconds."""
        return cls(float(value), Unit.MILLISECONDS)

    @classmethod
    def seconds(cls, value: float) -> "MediaTime":
        """Construct a value in seconds."""
        return cls(float(value), Unit.SECONDS)

    @classmethod
    def frames(cls, value: float) -> "MediaTime":
        """Construct a value in video frames."""
        return cls(float(value), Unit.FRAMES)

    @classmethod
    def samples(cls, value: float) -> "MediaTime":
        """Construct a value in audio samples."""
        return cls(float(value), Unit.SAMPLES)

    @classmethod
    def bytes(cls, value: float) -> "MediaTime":
        """Construct a value in data bytes."""
        return cls(float(value), Unit.BYTES)

    def scaled(self, factor: float) -> "MediaTime":
        """Return this value multiplied by ``factor``, same unit."""
        return MediaTime(self.value * factor, self.unit)

    def __repr__(self) -> str:
        return f"MediaTime({self.value:g} {self.unit.value})"


@dataclass(frozen=True)
class TimeBase:
    """Conversion rates from media-dependent units to milliseconds.

    The rates correspond to the data-descriptor attributes the paper says a
    capture tool should record (section 6: "sound coordinates, sampling
    frequencies, etc."):

    * ``frame_rate`` — video frames per second,
    * ``sample_rate`` — audio samples per second,
    * ``byte_rate`` — data bytes per second (stream bandwidth),
    * ``chars_per_second`` — caption/label reading speed, used for text
      durations.
    """

    frame_rate: float = 25.0
    sample_rate: float = 44100.0
    byte_rate: float = 176400.0
    chars_per_second: float = 15.0

    def __post_init__(self) -> None:
        for field in ("frame_rate", "sample_rate", "byte_rate",
                      "chars_per_second"):
            rate = getattr(self, field)
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError_(f"TimeBase {field} must be positive and "
                                  f"finite, got {rate!r}")

    def _rate_for(self, unit: Unit) -> float:
        """Return the per-second rate that converts ``unit`` to seconds."""
        if unit is Unit.FRAMES:
            return self.frame_rate
        if unit is Unit.SAMPLES:
            return self.sample_rate
        if unit is Unit.BYTES:
            return self.byte_rate
        if unit is Unit.CHARACTERS:
            return self.chars_per_second
        raise ValueError_(f"unit {unit} has no rate")

    def to_ms(self, time: MediaTime) -> float:
        """Convert ``time`` to canonical milliseconds."""
        if time.unit is Unit.MILLISECONDS:
            return time.value
        if time.unit is Unit.SECONDS:
            return time.value * 1000.0
        return time.value / self._rate_for(time.unit) * 1000.0

    def from_ms(self, ms: float, unit: Unit) -> MediaTime:
        """Convert canonical milliseconds back into ``unit``."""
        if unit is Unit.MILLISECONDS:
            return MediaTime(ms, unit)
        if unit is Unit.SECONDS:
            return MediaTime(ms / 1000.0, unit)
        return MediaTime(ms / 1000.0 * self._rate_for(unit), unit)

    def convert(self, time: MediaTime, unit: Unit) -> MediaTime:
        """Convert ``time`` into ``unit`` through canonical milliseconds."""
        return self.from_ms(self.to_ms(time), unit)


#: The default time base used when a document does not declare rates.
DEFAULT_TIMEBASE = TimeBase()


def times_close(a_ms: float, b_ms: float,
                epsilon: float = TIME_EPSILON_MS) -> bool:
    """Return True when two canonical times are equal within tolerance."""
    return abs(a_ms - b_ms) <= epsilon
