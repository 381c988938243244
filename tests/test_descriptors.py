"""Unit tests for blocks, descriptors and events (repro.core.descriptors)."""

import hashlib

import pytest

from repro.core.channels import Medium
from repro.core.descriptors import (DataBlock, DataDescriptor,
                                    EventDescriptor, Slice)
from repro.core.errors import MediaError, ValueError_
from repro.core.timebase import MediaTime, TimeBase


class TestDataBlock:
    def test_atomic_payload(self):
        block = DataBlock("b1", Medium.TEXT, "hello")
        assert block.materialize() == "hello"
        assert block.size_bytes == 5

    def test_generator_payload(self):
        """'They may also be programs that produce information of a
        particular type.'"""
        block = DataBlock("b2", Medium.PROGRAM, lambda: b"rendered",
                          generator=True)
        assert block.materialize() == b"rendered"
        assert block.size_bytes == 8

    def test_generator_requires_callable(self):
        with pytest.raises(MediaError):
            DataBlock("b3", Medium.TEXT, "not callable", generator=True)

    def test_checksum_stable_and_content_sensitive(self):
        a = DataBlock("x", Medium.TEXT, "same")
        b = DataBlock("y", Medium.TEXT, "same")
        c = DataBlock("z", Medium.TEXT, "different")
        assert a.checksum() == b.checksum()
        assert a.checksum() != c.checksum()

    def test_medium_coerced(self):
        assert DataBlock("b", "audio").medium is Medium.AUDIO

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError_):
            DataBlock("", Medium.TEXT)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestBlockSizeAndDigest:
    @pytest.mark.parametrize("payload, size", [
        ("hello", 5), ("héllo", 6), ("日本", 6), ("", 0),
        (b"h\xc3\xa9", 3), (bytearray(b"abcd"), 4)])
    def test_size_counts_utf8_bytes(self, payload, size):
        assert DataBlock("b", Medium.TEXT, payload).size_bytes == size

    @pytest.mark.parametrize("payload, data", [
        ("text", b"text"), ("héllo", "héllo".encode("utf-8")),
        (b"\x00raw", b"\x00raw")])
    def test_memoized_digest_equals_a_fresh_sha256(self, payload, data):
        block = DataBlock("b", Medium.TEXT, payload)
        assert block.checksum() == sha256(data)
        assert block._digest == (payload, sha256(data))
        assert block.checksum() == sha256(data)

    def test_reassigned_payload_recomputes(self):
        block = DataBlock("b", Medium.TEXT, "first")
        assert block.checksum() == sha256(b"first")
        block.payload = "second"
        assert block.checksum() == sha256(b"second")
        # An equal but distinct object is a new payload too.
        block.payload = "".join(["sec", "ond"])
        assert block.checksum() == sha256(b"second")

    def test_mutable_payloads_rehash_every_call(self):
        np = pytest.importorskip("numpy")
        raw = bytearray(b"abc")
        frames = np.zeros(4, dtype=np.uint8)
        for payload, view in ((raw, lambda: bytes(raw)),
                              (frames, lambda: repr(frames).encode())):
            block = DataBlock("b", Medium.VIDEO, payload)
            before = block.checksum()
            payload[0] ^= 1
            assert block.checksum() == sha256(view()) != before
            assert block._digest is None

    def test_generator_called_on_every_checksum(self):
        calls = []

        def render():
            calls.append(None)
            return f"frame {len(calls)}"

        block = DataBlock("b", Medium.PROGRAM, render, generator=True)
        assert block.checksum() == sha256(b"frame 1")
        assert block.checksum() == sha256(b"frame 2")
        assert len(calls) == 2
        assert block._digest is None

    def test_memo_invisible_to_eq_and_repr(self):
        warm = DataBlock("b", Medium.TEXT, "same")
        cold = DataBlock("b", Medium.TEXT, "same")
        warm.checksum()
        assert warm == cold
        assert repr(warm) == repr(cold)
        assert "_digest" not in repr(warm)


class TestDataDescriptor:
    def test_duration_from_media_time(self):
        descriptor = DataDescriptor("d", Medium.AUDIO, attributes={
            "duration": MediaTime.seconds(3)})
        assert descriptor.duration_ms(TimeBase()) == 3000.0

    def test_duration_from_bare_number(self):
        descriptor = DataDescriptor("d", Medium.AUDIO, attributes={
            "duration": 1500})
        assert descriptor.duration_ms(TimeBase()) == 1500.0

    def test_missing_duration_is_none(self):
        descriptor = DataDescriptor("d", Medium.AUDIO)
        assert descriptor.duration is None
        assert descriptor.duration_ms(TimeBase()) is None

    def test_bad_duration_type_raises(self):
        descriptor = DataDescriptor("d", Medium.AUDIO, attributes={
            "duration": "long"})
        with pytest.raises(ValueError_):
            descriptor.duration

    def test_matches_equality_and_medium(self):
        descriptor = DataDescriptor("d", Medium.VIDEO, attributes={
            "format": "video/raw-rgb", "frames": 100})
        assert descriptor.matches(format="video/raw-rgb")
        assert descriptor.matches(medium="video", frames=100)
        assert not descriptor.matches(medium="audio")
        assert not descriptor.matches(format="mpeg")

    def test_matches_containment_for_sequences(self):
        descriptor = DataDescriptor("d", Medium.TEXT, attributes={
            "keywords": ("crime", "museum")})
        assert descriptor.matches(keywords="crime")
        assert not descriptor.matches(keywords="sports")


class TestSlice:
    def test_bounds_with_length(self):
        slice_ = Slice(MediaTime.seconds(1), MediaTime.seconds(2))
        assert slice_.bounds_ms(TimeBase(), 10_000.0) == (1000.0, 3000.0)

    def test_open_ended_uses_intrinsic(self):
        slice_ = Slice(MediaTime.seconds(4))
        assert slice_.bounds_ms(TimeBase(), 10_000.0) == (4000.0, 10_000.0)

    def test_open_ended_without_intrinsic_raises(self):
        with pytest.raises(MediaError):
            Slice(MediaTime.seconds(1)).bounds_ms(TimeBase(), None)

    def test_slice_past_block_raises(self):
        """Atomic blocks cannot be extrapolated."""
        slice_ = Slice(MediaTime.seconds(8), MediaTime.seconds(5))
        with pytest.raises(MediaError, match="past the block"):
            slice_.bounds_ms(TimeBase(), 10_000.0)

    def test_media_unit_slice(self):
        base = TimeBase(frame_rate=25.0)
        slice_ = Slice(MediaTime.frames(25), MediaTime.frames(50))
        assert slice_.bounds_ms(base, 10_000.0) == (
            pytest.approx(1000.0), pytest.approx(3000.0))

    def test_negative_start_rejected(self):
        with pytest.raises(MediaError):
            Slice(MediaTime.ms(-1))

    def test_zero_length_rejected(self):
        with pytest.raises(MediaError):
            Slice(MediaTime.ms(0), MediaTime.ms(0))


class TestEventDescriptor:
    def test_event_identity_and_sharing(self):
        descriptor = DataDescriptor("d", Medium.VIDEO)
        event = EventDescriptor(
            event_id="/a/b", node_path="/a/b", channel="video",
            medium=Medium.VIDEO, duration_ms=1000.0, descriptor=descriptor)
        assert "/a/b" in event.describe()
        assert "d" in event.describe()

    def test_immediate_event(self):
        event = EventDescriptor(
            event_id="/x", node_path="/x", channel="caption",
            medium="text", duration_ms=500.0)
        assert "<immediate>" in event.describe()

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError_):
            EventDescriptor(event_id="/x", node_path="/x",
                            channel="caption", medium=Medium.TEXT,
                            duration_ms=-1.0)
