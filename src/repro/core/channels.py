"""Synchronization channels (paper sections 3.1 and 5.2).

A channel is "a placement framework for sequential and parallel events":
events mapped onto one channel are serialized in linear time order, while
events on different channels may run in parallel.  Each channel carries a
single medium; "it is possible to have several channels of the same medium
type" (the news example has two text channels, ``caption`` and ``label``).

Channels are declared in the root node's ``channel-dictionary`` attribute
and referenced from nodes through the inherited ``channel`` attribute.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.core.errors import ChannelError
from repro.core.values import validate_name


class Medium(enum.Enum):
    """The media a channel (or data block) may carry.

    The set covers every medium the paper's examples use: video streams,
    sound streams, graphic/image frames, and the two text roles (captions
    and labels are both text channels).  ``PROGRAM`` covers the paper's
    note that a data block "may also be a program that produces
    information of a particular type".
    """

    TEXT = "text"
    AUDIO = "audio"
    VIDEO = "video"
    IMAGE = "image"
    PROGRAM = "program"

    @classmethod
    def from_name(cls, name: str) -> "Medium":
        """Look a medium up by its symbolic name (case-insensitive)."""
        medium = _MEDIUM_NAMES.get(str(name).strip().lower())
        if medium is None:
            raise ChannelError(f"unknown medium {name!r}; expected one of "
                               f"{[m.value for m in cls]}")
        return medium


_MEDIUM_NAMES = {medium.value: medium for medium in Medium}


#: Media that occupy screen real estate and therefore need a region from
#: the presentation mapping tool.
VISUAL_MEDIA = frozenset({Medium.TEXT, Medium.VIDEO, Medium.IMAGE})

#: Media that occupy loudspeaker channels.
AURAL_MEDIA = frozenset({Medium.AUDIO})


@dataclass
class Channel:
    """One declared synchronization channel.

    ``extra`` holds any additional declaration attributes beyond the
    medium (for example a preferred region size used as a presentation
    "preference default", which the paper says "may come from preference
    defaults provided with each atomic media block").
    """

    name: str
    medium: Medium
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        validate_name(self.name)
        if not isinstance(self.medium, Medium):
            self.medium = Medium.from_name(self.medium)

    @property
    def is_visual(self) -> bool:
        """True when this channel needs screen real estate."""
        return self.medium in VISUAL_MEDIA

    @property
    def is_aural(self) -> bool:
        """True when this channel needs a loudspeaker channel."""
        return self.medium in AURAL_MEDIA

    def declaration(self) -> dict[str, Any]:
        """The group-attribute form of this channel declaration."""
        body: dict[str, Any] = {"medium": self.medium.value}
        body.update(self.extra)
        return body


class ChannelDictionary:
    """The root node's channel dictionary.

    Preserves declaration order, which the viewer uses as the left-to-right
    lane order when rendering the figure-3 style structure view.
    """

    def __init__(self, channels: list[Channel] | None = None) -> None:
        self._channels: dict[str, Channel] = {}
        for channel in channels or []:
            self.declare(channel)

    def declare(self, channel: Channel) -> Channel:
        """Add a channel declaration; duplicate names are an error."""
        if channel.name in self._channels:
            raise ChannelError(f"channel {channel.name!r} declared twice")
        self._channels[channel.name] = channel
        return channel

    def declare_named(self, name: str, medium: Medium | str,
                      **extra: Any) -> Channel:
        """Declare a channel from its parts; returns the new channel."""
        return self.declare(Channel(name, medium if isinstance(medium, Medium)
                                    else Medium.from_name(medium), extra))

    def lookup(self, name: str) -> Channel:
        """Return the channel named ``name``; raise when undeclared."""
        channel = self._channels.get(name)
        if channel is None:
            raise ChannelError(
                f"channel {name!r} is not declared in the root node's "
                f"channel dictionary (declared: {sorted(self._channels)})")
        return channel

    def __contains__(self, name: str) -> bool:
        return name in self._channels

    def __len__(self) -> int:
        return len(self._channels)

    def __iter__(self) -> Iterator[Channel]:
        return iter(self._channels.values())

    def names(self) -> list[str]:
        """Channel names in declaration order."""
        return list(self._channels)

    @classmethod
    def from_group(cls, group: dict[str, Any]) -> "ChannelDictionary":
        """Build the dictionary from a ``channel-dictionary`` group value.

        The group maps channel names to declaration dicts; each
        declaration must contain at least ``medium``.
        """
        dictionary = cls()
        for name, declaration in group.items():
            if not isinstance(declaration, dict) or "medium" not in declaration:
                raise ChannelError(
                    f"channel {name!r} declaration must be a group "
                    f"containing 'medium', got {declaration!r}")
            extra = {k: v for k, v in declaration.items() if k != "medium"}
            dictionary.declare(
                Channel(name, Medium.from_name(declaration["medium"]), extra))
        return dictionary

    def to_group(self) -> dict[str, Any]:
        """The ``channel-dictionary`` group value form."""
        return {channel.name: channel.declaration() for channel in self}
