"""The Evening News corpus (paper section 4, figures 4 and 10).

Builds the paper's running example as a live document: five
synchronization channels (video, audio, graphic, caption, label), a
sequence of program blocks (stories), and — for story 3, the stolen
van Gogh paintings — the exact explicit synchronization structure of
section 5.3.4:

* the graphic channel start-synchronized with the audio portion;
* implied sequential sync between the first and second illustration,
  explicit sync between the second and third;
* the captioned text start-synchronized with the video portion (and not
  with the audio, "so one story can be presented for local consumption
  and another for global presentation");
* an arc from the end of the second caption block to the start of the
  second graphic, "illustrating the use of an offset within an arc";
* an arc from the end of the fourth caption block to the video portion:
  "a new video sequence may not start until the caption text is over.
  This may require a freeze-frame video operation" — the caption
  durations here are chosen so the hold actually occurs;
* occasional generic label titles linked to other portions with *may*
  synchronization ("if the label is a little late, then there is no
  reason for panic").

All media payloads are captured through the stage-1 tools with a fixed
seed, so the corpus is deterministic end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.builder import DocumentBuilder
from repro.core.document import CmifDocument
from repro.core.timebase import MediaTime
from repro.pipeline.capture import CaptureSession
from repro.store.datastore import DataStore

#: Caption block names and durations (seconds) for the figure-10 story.
#: The fourth block ("painting-value") runs long so the caption -> video
#: hold arc genuinely forces a freeze-frame.
_STORY3_CAPTIONS = (
    ("intro-set-up", 6.0),
    ("location", 6.0),
    ("public-outcry", 8.0),
    ("painting-value", 14.0),
    ("witness-reports", 4.0),
    ("humorous-close", 6.0),
)

#: Video segments of the figure-10 story (seconds).
_STORY3_VIDEO = (
    ("talking-head", 10.0),
    ("crime-scene-report", 22.0),
    ("talking-head-2", 8.0),
)

#: Graphic stills of the figure-10 story (seconds each).
_STORY3_GRAPHICS = ("painting-one", "painting-two", "insurance-graph")
_STORY3_GRAPHIC_SECONDS = 12.0

#: Label titles of the figure-10 story (name, duration seconds).
_STORY3_LABELS = (
    ("story-name", 8.0),
    ("museum-name", 10.0),
    ("announcer-name", 6.0),
)


@dataclass
class NewsCorpus:
    """A built news broadcast: the document plus its capture store."""

    document: CmifDocument
    store: DataStore
    story_count: int


def declare_news_channels(builder: DocumentBuilder) -> None:
    """Declare the five figure-4 channels with figure-4a region hints.

    The hints reproduce the broadcast screen: the main video stream on
    the left, the graphic frame top right, the label just under it, and
    the caption strip along the bottom.
    """
    builder.channel("video", "video",
                    **{"region-hint": (0, 0, 640, 840)})
    builder.channel("audio", "audio", **{"speaker-hint": 0})
    builder.channel("graphic", "image",
                    **{"region-hint": (640, 0, 360, 500)})
    builder.channel("label", "text",
                    **{"region-hint": (640, 500, 360, 160)})
    builder.channel("caption", "text",
                    **{"region-hint": (0, 840, 1000, 160)})


def add_paintings_story(builder: DocumentBuilder,
                        session: CaptureSession) -> None:
    """Append the figure-10 'stolen paintings' story to the document."""
    keywords = ("museum", "painting", "stolen")
    voice = session.capture_audio(
        "story3/voice", 40_000.0, keywords=keywords)
    videos = {
        name: session.capture_video(
            f"story3/{name}", seconds * 1000.0, keywords=keywords)
        for name, seconds in _STORY3_VIDEO}
    graphics = {
        name: session.capture_image(
            f"story3/{name}", width=320, height=240,
            display_ms=_STORY3_GRAPHIC_SECONDS * 1000.0,
            keywords=keywords)
        for name in _STORY3_GRAPHICS}

    with builder.par("story-paintings", title="Story 3. Paintings"):
        with builder.seq("video-track", channel="video"):
            for name, _seconds in _STORY3_VIDEO:
                captured = videos[name]
                builder.descriptor(captured.file_id, captured.descriptor)
                builder.ext(name, file=captured.file_id)

        with builder.seq("audio-track", channel="audio"):
            builder.descriptor(voice.file_id, voice.descriptor)
            builder.ext("voice", file=voice.file_id)

        with builder.seq("graphic-track", channel="graphic") as graphic_track:
            for name in _STORY3_GRAPHICS:
                captured = graphics[name]
                builder.descriptor(captured.file_id, captured.descriptor)
                node = builder.ext(name, file=captured.file_id)
                if name == "insurance-graph":
                    # Explicit sync between the second and third
                    # illustration (section 5.3.4); the first pair stays
                    # implied.
                    builder.arc(node, source="../painting-two",
                                destination=".", src_anchor="end",
                                min_delay=0.0,
                                max_delay=MediaTime.ms(500.0))

        with builder.seq("caption-track", channel="caption") as captions:
            for name, seconds in _STORY3_CAPTIONS:
                builder.imm(name,
                            data=_caption_text(name),
                            duration=MediaTime.seconds(seconds))

        with builder.seq("label-track", channel="label"):
            for name, seconds in _STORY3_LABELS:
                builder.imm(name, data=_label_text(name),
                            duration=MediaTime.seconds(seconds))

    story = builder.current.child_named("story-paintings")
    graphic_track = story.child_named("graphic-track")
    caption_track = story.child_named("caption-track")
    label_track = story.child_named("label-track")

    # The graphic channel is synchronized with the start of the audio
    # portion of the report.  The tolerance window (-50ms, +250ms) is the
    # paper's transportability mechanism: a workstation-class device
    # honours it, a slow personal system does not.
    builder.arc(graphic_track, source="../audio-track", destination=".",
                min_delay=MediaTime.ms(-50.0),
                max_delay=MediaTime.ms(250.0))
    # The captioned text is start-synchronized with the video portion
    # (and deliberately not with the audio).
    builder.arc(caption_track, source="../video-track", destination=".",
                min_delay=MediaTime.ms(-50.0),
                max_delay=MediaTime.ms(250.0))
    # From the end of the second caption block to the start of the
    # second graphic — the offset illustration.
    builder.arc(caption_track.child_named("location"),
                source=".", destination="../../graphic-track/painting-two",
                src_anchor="end", offset=MediaTime.seconds(1.0),
                min_delay=0.0, max_delay=MediaTime.ms(250.0))
    # At the end of the fourth caption block, a new video sequence may
    # not start until the caption text is over (freeze-frame hold).
    builder.arc(caption_track.child_named("painting-value"),
                source=".", destination="../../video-track/talking-head-2",
                src_anchor="end", min_delay=0.0, max_delay=None)
    # Labels are linked with MAY synchronization: a late label is no
    # reason for panic.
    builder.arc(label_track.child_named("museum-name"),
                source="../../graphic-track/painting-one", destination=".",
                offset=MediaTime.seconds(10.0), strictness="may",
                min_delay=0.0, max_delay=MediaTime.seconds(1.0))
    builder.arc(label_track.child_named("announcer-name"),
                source="../../video-track/talking-head-2", destination=".",
                strictness="may", min_delay=0.0,
                max_delay=MediaTime.seconds(1.0))


def _caption_text(name: str) -> str:
    texts = {
        "intro-set-up": "Paintings worth ten million stolen from the "
                        "municipal museum overnight.",
        "location": "The thieves entered through the west wing of the "
                    "museum after closing.",
        "public-outcry": "Citizens and curators alike call for better "
                         "protection of the collection.",
        "painting-value": "The two van Goghs are insured for ten million "
                          "guilders; experts fear they may be sold "
                          "abroad before the police can trace them.",
        "witness-reports": "A night guard reports seeing a grey van.",
        "humorous-close": "The museum's cat, at least, was left behind.",
    }
    return texts[name]


def _label_text(name: str) -> str:
    texts = {
        "story-name": "Gestolen van Gogh's",
        "museum-name": "Gemeentemuseum",
        "announcer-name": "Henk de Vries, verslaggever",
    }
    return texts[name]


def add_generic_story(builder: DocumentBuilder, session: CaptureSession,
                      index: int, rng: random.Random) -> None:
    """Append one generated program block shaped like a news story."""
    story = f"story-{index}"
    keywords = (rng.choice(("crime", "politics", "weather", "sports")),
                "news")
    video_seconds = [rng.uniform(6.0, 15.0) for _ in range(3)]
    total_video_ms = sum(video_seconds) * 1000.0
    voice = session.capture_audio(f"{story}/voice", total_video_ms,
                                  keywords=keywords)
    with builder.par(story, title=f"Story {index}"):
        with builder.seq("video-track", channel="video"):
            for part, seconds in enumerate(video_seconds):
                captured = session.capture_video(
                    f"{story}/video-{part}", seconds * 1000.0,
                    keywords=keywords)
                builder.descriptor(captured.file_id, captured.descriptor)
                builder.ext(f"segment-{part}", file=captured.file_id)
        with builder.seq("audio-track", channel="audio"):
            builder.descriptor(voice.file_id, voice.descriptor)
            builder.ext("voice", file=voice.file_id)
        with builder.seq("graphic-track", channel="graphic"):
            for part in range(rng.randint(1, 3)):
                captured = session.capture_image(
                    f"{story}/graphic-{part}",
                    display_ms=rng.uniform(8.0, 14.0) * 1000.0,
                    keywords=keywords)
                builder.descriptor(captured.file_id, captured.descriptor)
                builder.ext(f"graphic-{part}", file=captured.file_id)
        with builder.seq("caption-track", channel="caption"):
            for part in range(rng.randint(2, 5)):
                captured = session.capture_text(
                    f"{story}/caption-{part}",
                    sentences=rng.randint(1, 3), keywords=keywords)
                builder.descriptor(captured.file_id, captured.descriptor)
                builder.ext(f"caption-{part}", file=captured.file_id)
        with builder.seq("label-track", channel="label"):
            builder.imm("title-label", data=f"Story {index}",
                        duration=MediaTime.seconds(rng.uniform(4.0, 8.0)))
    story_node = builder.current.child_named(story)
    builder.arc(story_node.child_named("caption-track"),
                source="../video-track", destination=".",
                min_delay=MediaTime.ms(-50.0),
                max_delay=MediaTime.ms(250.0))


def make_news_document(*, stories: int = 3, seed: int = 1991,
                       include_paintings_story: bool = True) -> NewsCorpus:
    """Build a complete evening news broadcast.

    ``stories`` counts the generic program blocks; the figure-10
    paintings story is appended after them when
    ``include_paintings_story`` is set (the default), matching the
    paper's "Story 3" placement for the default count.
    """
    session = CaptureSession(store=DataStore("news-archive"), seed=seed)
    builder = DocumentBuilder("evening-news", root_kind="seq")
    declare_news_channels(builder)
    rng = random.Random(seed)
    with builder.seq("opening", channel="video"):
        opening = session.capture_video("opening/titles", 5000.0,
                                        keywords=("news", "titles"))
        builder.descriptor(opening.file_id, opening.descriptor)
        builder.ext("titles", file=opening.file_id)
    for index in range(1, stories + 1):
        add_generic_story(builder, session, index, rng)
    if include_paintings_story:
        add_paintings_story(builder, session)
    with builder.seq("closing", channel="video"):
        closing = session.capture_video("closing/credits", 4000.0,
                                        keywords=("news", "credits"))
        builder.descriptor(closing.file_id, closing.descriptor)
        builder.ext("credits", file=closing.file_id)
    document = builder.build()
    document.attach_resolver(session.store.resolver())
    return NewsCorpus(document=document, store=session.store,
                      story_count=stories + (1 if include_paintings_story
                                             else 0))


def make_paintings_fragment(*, seed: int = 1991) -> NewsCorpus:
    """Just the figure-10 story, as its own document (for the benches)."""
    session = CaptureSession(store=DataStore("fragment-archive"), seed=seed)
    builder = DocumentBuilder("news-fragment", root_kind="seq")
    declare_news_channels(builder)
    add_paintings_story(builder, session)
    document = builder.build()
    document.attach_resolver(session.store.resolver())
    return NewsCorpus(document=document, store=session.store, story_count=1)
