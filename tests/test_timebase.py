"""Unit tests for media-dependent time units (repro.core.timebase)."""

import math

import pytest

from repro.core.channels import Medium
from repro.core.errors import ChannelError, SyncArcError, ValueError_
from repro.core.syncarc import Anchor, Strictness
from repro.core.timebase import (DEFAULT_TIMEBASE, MediaTime, TimeBase,
                                 Unit, times_close)


class TestUnit:
    def test_from_name_short_forms(self):
        assert Unit.from_name("ms") is Unit.MILLISECONDS
        assert Unit.from_name("s") is Unit.SECONDS
        assert Unit.from_name("frames") is Unit.FRAMES
        assert Unit.from_name("samples") is Unit.SAMPLES
        assert Unit.from_name("bytes") is Unit.BYTES

    def test_from_name_enum_names(self):
        assert Unit.from_name("SECONDS") is Unit.SECONDS
        assert Unit.from_name("Frames") is Unit.FRAMES

    def test_from_name_unknown_raises(self):
        with pytest.raises(ValueError_):
            Unit.from_name("fortnights")


#: Each enum with a ``from_name``, the spellings it accepts per member
#: (before case folding and padding), one unknown name, and the error
#: that name must raise, message included.
ENUM_NAMES = (
    (Unit, lambda unit: (unit.value, unit.name.lower()), "parsecs",
     ValueError_, "unknown time unit 'parsecs'"),
    (Medium, lambda medium: (medium.value,), "smell", ChannelError,
     "unknown medium 'smell'; expected one of "
     "['text', 'audio', 'video', 'image', 'program']"),
    (Anchor, lambda anchor: (anchor.value,), "middle", SyncArcError,
     "unknown anchor 'middle'; expected 'begin' or 'end'"),
    (Strictness, lambda strictness: (strictness.value,), "should",
     SyncArcError, "unknown strictness 'should'; expected 'may' or "
     "'must'"),
)


@pytest.mark.parametrize("enum, spellings, unknown, error, message",
                         ENUM_NAMES, ids=lambda value: getattr(
                             value, "__name__", None))
def test_from_name_accepts_every_spelling_and_names_the_unknown(
        enum, spellings, unknown, error, message):
    for member in enum:
        for spelling in spellings(member):
            for written in (spelling, spelling.upper(),
                            spelling.capitalize(), f" \t{spelling}\n "):
                assert enum.from_name(written) is member, written
    with pytest.raises(error) as raised:
        enum.from_name(unknown)
    assert str(raised.value) == message


class TestMediaTime:
    def test_constructors_tag_units(self):
        assert MediaTime.ms(5).unit is Unit.MILLISECONDS
        assert MediaTime.seconds(5).unit is Unit.SECONDS
        assert MediaTime.frames(5).unit is Unit.FRAMES
        assert MediaTime.samples(5).unit is Unit.SAMPLES
        assert MediaTime.bytes(5).unit is Unit.BYTES

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError_):
            MediaTime(math.inf)
        with pytest.raises(ValueError_):
            MediaTime(math.nan, Unit.SECONDS)

    def test_scaled(self):
        doubled = MediaTime.seconds(2).scaled(2.0)
        assert doubled.value == 4.0
        assert doubled.unit is Unit.SECONDS

    def test_is_hashable_and_frozen(self):
        time = MediaTime.ms(10)
        assert hash(time) == hash(MediaTime.ms(10))
        with pytest.raises(Exception):
            time.value = 5  # type: ignore[misc]


class TestTimeBase:
    def test_seconds_and_ms_are_rate_free(self):
        base = TimeBase()
        assert base.to_ms(MediaTime.seconds(2)) == 2000.0
        assert base.to_ms(MediaTime.ms(250)) == 250.0

    def test_frames_use_frame_rate(self):
        base = TimeBase(frame_rate=25.0)
        assert base.to_ms(MediaTime.frames(25)) == pytest.approx(1000.0)
        assert base.to_ms(MediaTime.frames(1)) == pytest.approx(40.0)

    def test_samples_use_sample_rate(self):
        base = TimeBase(sample_rate=44100.0)
        assert base.to_ms(MediaTime.samples(44100)) == pytest.approx(1000.0)

    def test_bytes_use_byte_rate(self):
        base = TimeBase(byte_rate=1000.0)
        assert base.to_ms(MediaTime.bytes(500)) == pytest.approx(500.0)

    def test_characters_use_reading_speed(self):
        base = TimeBase(chars_per_second=10.0)
        assert base.to_ms(MediaTime(20, Unit.CHARACTERS)) == pytest.approx(
            2000.0)

    def test_round_trip_all_units(self):
        base = TimeBase(frame_rate=30.0, sample_rate=22050.0,
                        byte_rate=9600.0, chars_per_second=12.0)
        for unit in Unit:
            original = MediaTime(123.0, unit)
            back = base.from_ms(base.to_ms(original), unit)
            assert back.value == pytest.approx(123.0)
            assert back.unit is unit

    def test_convert_between_units(self):
        base = TimeBase(frame_rate=25.0)
        converted = base.convert(MediaTime.seconds(2), Unit.FRAMES)
        assert converted.value == pytest.approx(50.0)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError_):
            TimeBase(frame_rate=0.0)
        with pytest.raises(ValueError_):
            TimeBase(sample_rate=-1.0)
        with pytest.raises(ValueError_):
            TimeBase(byte_rate=math.inf)

    def test_default_timebase_is_pal_cd(self):
        assert DEFAULT_TIMEBASE.frame_rate == 25.0
        assert DEFAULT_TIMEBASE.sample_rate == 44100.0


class TestTimesClose:
    def test_within_epsilon(self):
        assert times_close(1.0, 1.0 + 1e-9)

    def test_outside_epsilon(self):
        assert not times_close(1.0, 1.1)

    def test_custom_epsilon(self):
        assert times_close(1.0, 1.05, epsilon=0.1)
