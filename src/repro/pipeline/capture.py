"""Pipeline stage 1: media block capture tools (paper section 2).

"A set of tools that will allow the user to iteratively capture (and
edit) the atomic pieces of information that will be included in a
composite document. ... our focus is on providing descriptive tools that
allow higher-level processing of various bits of collected information."

Exactly as the paper prescribes, these tools' real output is the
*descriptor*: each ``capture_*`` method synthesizes a payload (standing
in for vendor capture hardware, per DESIGN.md) and compiles the
attribute record downstream tools schedule, search and filter on.  A
:class:`CaptureSession` accumulates captures into a
:class:`~repro.store.datastore.DataStore` and hands out the ``file``
references documents use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.descriptors import DataBlock, DataDescriptor
from repro.core.errors import MediaError
from repro.core.timebase import TimeBase
from repro.media.audio import make_audio_block
from repro.media.image import make_image_block
from repro.media.text import make_text_block
from repro.media.video import make_video_block
from repro.store.datastore import DataStore


@dataclass
class Captured:
    """One captured media block: its store reference plus objects."""

    file_id: str
    block: DataBlock
    descriptor: DataDescriptor


@dataclass
class CaptureSession:
    """An iterative capture session filling a data store.

    ``seed`` drives every synthetic generator deterministically, so a
    corpus (like the evening news) is reproducible bit-for-bit; each
    capture perturbs the seed so sibling blocks differ.
    """

    store: DataStore = field(default_factory=DataStore)
    seed: int = 0
    timebase: TimeBase = field(default_factory=TimeBase)
    _count: int = 0

    def _next_seed(self) -> int:
        self._count += 1
        return self.seed * 100_003 + self._count

    def _register(self, file_id: str, block: DataBlock,
                  descriptor: DataDescriptor) -> Captured:
        if file_id in self.store:
            raise MediaError(f"capture id {file_id!r} already used in "
                             f"this session")
        self.store.register(descriptor, block)
        return Captured(file_id=file_id, block=block, descriptor=descriptor)

    def capture_text(self, file_id: str, *, text: str | None = None,
                     sentences: int = 2, language: str = "en",
                     keywords: tuple[str, ...] = ()) -> Captured:
        """Capture a text block (captions, labels, articles)."""
        block, descriptor = make_text_block(
            file_id, seed=self._next_seed(), sentences=sentences,
            language=language, timebase=self.timebase,
            keywords=keywords, text=text)
        descriptor = _rename(descriptor, file_id)
        return self._register(file_id, block, descriptor)

    def capture_audio(self, file_id: str, duration_ms: float, *,
                      sample_rate: float | None = None,
                      keywords: tuple[str, ...] = ()) -> Captured:
        """Capture a sound stream of the given duration."""
        block, descriptor = make_audio_block(
            file_id, duration_ms,
            sample_rate=sample_rate or self.timebase.sample_rate,
            seed=self._next_seed(), keywords=keywords)
        descriptor = _rename(descriptor, file_id)
        return self._register(file_id, block, descriptor)

    def capture_video(self, file_id: str, duration_ms: float, *,
                      frame_rate: float | None = None, width: int = 32,
                      height: int = 24,
                      keywords: tuple[str, ...] = ()) -> Captured:
        """Capture a video stream of the given duration."""
        block, descriptor = make_video_block(
            file_id, duration_ms,
            frame_rate=frame_rate or self.timebase.frame_rate,
            width=width, height=height, seed=self._next_seed(),
            keywords=keywords)
        descriptor = _rename(descriptor, file_id)
        return self._register(file_id, block, descriptor)

    def capture_image(self, file_id: str, *, width: int = 320,
                      height: int = 240, display_ms: float = 8000.0,
                      keywords: tuple[str, ...] = ()) -> Captured:
        """Capture a still image (graphics, illustrations, maps)."""
        block, descriptor = make_image_block(
            file_id, width, height, seed=self._next_seed(),
            display_ms=display_ms, keywords=keywords)
        descriptor = _rename(descriptor, file_id)
        return self._register(file_id, block, descriptor)


def _rename(descriptor: DataDescriptor, file_id: str) -> DataDescriptor:
    """Key the descriptor by the capture's file id.

    Documents reference descriptors by their ``file`` attribute; using
    the capture id as the descriptor id keeps the reference chain
    (node -> file -> descriptor -> block) one-to-one and obvious.
    """
    return DataDescriptor(
        descriptor_id=file_id,
        medium=descriptor.medium,
        block_id=descriptor.block_id,
        attributes=dict(descriptor.attributes),
    )
