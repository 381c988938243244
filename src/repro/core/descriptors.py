"""Data blocks, data descriptors and event descriptors (paper section 3.1).

Figure 2 of the paper separates three layers:

* **Data blocks** hold "data that is typically associated with a single
  medium"; their fundamental property is *atomicity* — a block "can not be
  further decomposed or sub-scheduled".
* **Data descriptors** are "collections of attributes that describe the
  nature of the data block" (format, resolution, length, resources);
  CMIF "does not interpret the meaning of these attributes".
* **Event descriptors** describe "how a single instance of a data block is
  integrated into a multimedia document"; "the event descriptor can be
  used to define multiple uses of a single data descriptor".

In this implementation, data blocks carry synthetic payloads produced by
:mod:`repro.media` / :mod:`repro.pipeline.capture`; data descriptors are
the attribute records stored in the DDBMS (:mod:`repro.store`); and event
descriptors are materialized from the document tree's leaf nodes when a
document is compiled for scheduling.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import MediaError, ValueError_
from repro.core.channels import Medium
from repro.core.timebase import MediaTime, TimeBase


@dataclass
class DataBlock:
    """The atomic element of single-media data.

    ``payload`` is opaque to CMIF proper: the document structure never
    interprets it (the paper's point about manipulating "relatively small
    clusters of data (the attributes) rather than the often massive
    amounts of media-based data itself").  ``payload`` may also be a
    zero-argument callable, covering the paper's "programs that produce
    information of a particular type".
    """

    block_id: str
    medium: Medium
    payload: Any = b""
    generator: bool = False
    #: ``(payload, digest)`` of the last :meth:`checksum` of an immutable
    #: payload; the digest is valid while ``payload`` is that object.
    _digest: tuple[Any, str] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.block_id:
            raise ValueError_("DataBlock requires a non-empty block_id")
        if not isinstance(self.medium, Medium):
            self.medium = Medium.from_name(self.medium)
        if self.generator and not callable(self.payload):
            raise MediaError(
                f"block {self.block_id!r} is marked as a generator but its "
                f"payload is not callable")

    def materialize(self) -> Any:
        """Return the concrete payload, running the generator if needed."""
        if self.generator:
            return self.payload()
        return self.payload

    @property
    def size_bytes(self) -> int:
        """Size of the concrete payload in bytes.

        Handles byte strings, text (its UTF-8 length), and array
        payloads (anything with an ``nbytes`` attribute, i.e. numpy
        media data); other payload types report 0.  ASCII text answers
        without walking the payload: ``str.isascii`` reads a flag
        CPython keeps on every string, and an ASCII character is one
        UTF-8 byte.
        """
        data = self.materialize()
        if isinstance(data, (bytes, bytearray)):
            return len(data)
        if isinstance(data, str):
            return len(data) if data.isascii() \
                else len(data.encode("utf-8"))
        nbytes = getattr(data, "nbytes", None)
        if isinstance(nbytes, int):
            return nbytes
        return 0

    def checksum(self) -> str:
        """A content digest used by the transport packager for integrity.

        The digest of a ``str`` or ``bytes`` payload is remembered for
        as long as ``payload`` is that same object, so verifying a
        block against its source hashes the source once; assigning a
        new payload recomputes.  Mutable (``bytearray``, array) and
        generated payloads are hashed on every call.
        """
        payload = self.payload
        memo = self._digest
        if memo is not None and memo[0] is payload:
            return memo[1]
        data = self.materialize()
        if isinstance(data, str):
            data = data.encode("utf-8")
        if not isinstance(data, (bytes, bytearray)):
            data = repr(data).encode("utf-8")
        digest = hashlib.sha256(bytes(data)).hexdigest()
        if isinstance(payload, (str, bytes)):
            self._digest = (payload, digest)
        return digest


@dataclass
class DataDescriptor:
    """Attributes describing the semantics of one data block.

    ``attributes`` is deliberately open-ended (CMIF "makes only minimal
    assumptions about the types of attributes that can be defined").  The
    well-known keys the rest of the pipeline consults are:

    * ``duration`` (:class:`MediaTime`) — intrinsic presentation length,
    * ``format`` (str) — encoding name (the paper encourages embedding
      well-accepted external formats here),
    * ``resolution`` ((width, height)) — for visual media,
    * ``color-depth`` (int, bits) — for visual media,
    * ``frame-rate`` / ``sample-rate`` (float) — stream rates,
    * ``resources`` (dict) — resource requirements (bandwidth, memory),
    * ``keywords`` (tuple[str, ...]) — search keys for attribute-only
      retrieval (paper section 6).
    """

    descriptor_id: str
    medium: Medium
    block_id: str | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.descriptor_id:
            raise ValueError_("DataDescriptor requires a descriptor_id")
        if not isinstance(self.medium, Medium):
            self.medium = Medium.from_name(self.medium)

    def get(self, name: str, default: Any = None) -> Any:
        """Return attribute ``name`` or ``default``."""
        return self.attributes.get(name, default)

    @property
    def duration(self) -> MediaTime | None:
        """The intrinsic duration recorded by the capture tool, if any."""
        value = self.attributes.get("duration")
        if value is None:
            return None
        if isinstance(value, MediaTime):
            return value
        if isinstance(value, (int, float)):
            return MediaTime.ms(float(value))
        raise ValueError_(f"descriptor {self.descriptor_id!r} has a "
                          f"non-time duration attribute {value!r}")

    def duration_ms(self, timebase: TimeBase) -> float | None:
        """The intrinsic duration in canonical milliseconds, if any."""
        duration = self.duration
        return None if duration is None else timebase.to_ms(duration)

    def matches(self, **criteria: Any) -> bool:
        """True when every criterion equals the stored attribute value.

        ``medium`` may be given as a criterion and is checked against the
        descriptor's medium field; a tuple-valued stored attribute matches
        when it *contains* the criterion (so ``keywords="crime"`` matches
        a keyword list).
        """
        for name, wanted in criteria.items():
            if name == "medium":
                medium = (wanted if isinstance(wanted, Medium)
                          else Medium.from_name(wanted))
                if self.medium is not medium:
                    return False
                continue
            stored = self.attributes.get(name)
            if isinstance(stored, (tuple, list)) and not isinstance(
                    wanted, (tuple, list)):
                if wanted not in stored:
                    return False
            elif stored != wanted:
                return False
        return True


@dataclass
class Slice:
    """A restriction of a data block to a subsection (paper figure 7).

    Unifies the paper's three restriction attributes: ``slice`` for binary
    data, ``clip`` for sound fragments, and — held separately because it is
    spatial, not temporal — ``crop`` for images.  ``start``/``length`` are
    media times; a None length means "to the end of the block".
    """

    start: MediaTime = MediaTime.ms(0)
    length: MediaTime | None = None

    def __post_init__(self) -> None:
        if self.start.value < 0:
            raise MediaError(f"slice start must be non-negative, "
                             f"got {self.start!r}")
        if self.length is not None and self.length.value <= 0:
            raise MediaError(f"slice length must be positive, "
                             f"got {self.length!r}")

    def bounds_ms(self, timebase: TimeBase,
                  intrinsic_ms: float | None) -> tuple[float, float]:
        """Resolve to a concrete ``(start_ms, end_ms)`` pair.

        ``intrinsic_ms`` is the block's full duration; it bounds the slice
        and supplies the end when ``length`` is None.  A slice extending
        past the block is a :class:`MediaError` — atomic blocks cannot be
        extrapolated.
        """
        start = timebase.to_ms(self.start)
        if self.length is None:
            if intrinsic_ms is None:
                raise MediaError("open-ended slice on a block without an "
                                 "intrinsic duration")
            end = intrinsic_ms
        else:
            end = start + timebase.to_ms(self.length)
        if intrinsic_ms is not None and end > intrinsic_ms + 1e-6:
            raise MediaError(
                f"slice [{start}ms, {end}ms) extends past the block's "
                f"intrinsic duration {intrinsic_ms}ms")
        if end <= start:
            raise MediaError(f"slice is empty: [{start}ms, {end}ms)")
        return start, end


@dataclass
class EventDescriptor:
    """One presentation instance of a data block (paper section 3.1).

    Event descriptors are produced by compiling a document: each leaf node
    of the tree, together with its resolved (inherited, style-expanded)
    attributes, yields one event.  ``node_path`` is the root-relative path
    of the originating node, which doubles as the event's identity.
    """

    event_id: str
    node_path: str
    channel: str
    medium: Medium
    duration_ms: float
    descriptor: DataDescriptor | None = None
    slice_: Slice | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_ms < 0:
            raise ValueError_(
                f"event {self.event_id!r} has negative duration "
                f"{self.duration_ms}ms")
        if not isinstance(self.medium, Medium):
            self.medium = Medium.from_name(self.medium)

    def describe(self) -> str:
        """One-line summary used by the structure viewer."""
        source = (self.descriptor.descriptor_id if self.descriptor
                  else "<immediate>")
        return (f"{self.event_id} on {self.channel} "
                f"[{self.medium.value}] {self.duration_ms:g}ms <- {source}")
