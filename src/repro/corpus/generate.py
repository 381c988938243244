"""Synthetic document generators for scaling and property tests.

The paper's documents are small; measuring how the parser, scheduler and
filters scale (the perf bench) needs documents from tens to thousands of
events with controlled shape:

* :func:`make_flat_document` — one par of many single-event seqs: wide,
  shallow, channel-heavy (stress channel serialization);
* :func:`make_deep_document` — alternating seq/par nesting: stresses the
  tree walks and default-arc chains;
* :func:`make_random_document` — seeded random trees with random explicit
  arcs between sibling leaves: the hypothesis-style workload for solver
  robustness;
* :func:`make_media_document` — seeded random trees of *external* nodes
  with full media descriptors (resolutions, colour depths, rates,
  stream bandwidths): the serving-layer workload, where negotiation and
  constraint filtering have real requirements to chew on.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.core.builder import DocumentBuilder
from repro.core.channels import Medium
from repro.core.descriptors import DataDescriptor
from repro.core.document import CmifDocument
from repro.core.timebase import MediaTime

_MEDIA = ("video", "audio", "image", "text")


def _declare_channels(builder: DocumentBuilder, channels: int) -> list[str]:
    names: list[str] = []
    for index in range(channels):
        medium = _MEDIA[index % len(_MEDIA)]
        name = f"ch{index}-{medium}"
        builder.channel(name, medium)
        names.append(name)
    return names


def make_flat_document(events: int, *, channels: int = 5,
                       event_ms: float = 1000.0) -> CmifDocument:
    """A wide document: ``events`` leaves spread over ``channels``."""
    builder = DocumentBuilder("flat", root_kind="seq")
    names = _declare_channels(builder, channels)
    with builder.par("body"):
        for index in range(events):
            builder.imm(f"event-{index}", channel=names[index % channels],
                        data=f"event {index}",
                        duration=MediaTime.ms(event_ms))
    return builder.build(validate=False)


def make_deep_document(depth: int, *, fanout: int = 2,
                       event_ms: float = 500.0) -> CmifDocument:
    """A deep document: alternating seq/par nesting ``depth`` levels."""
    builder = DocumentBuilder("deep", root_kind="seq")
    names = _declare_channels(builder, 2)
    _descend(builder, names, depth, fanout, event_ms, 0, 0)
    return builder.build(validate=False)


# The tree growers below are module-level functions: a nested function
# that calls itself by name ties itself and everything it captures (the
# builder, and through it the document) into a reference cycle.


def _descend(builder: DocumentBuilder, names: list[str], depth: int,
             fanout: int, event_ms: float, level: int, index: int) -> None:
    """Build one level of :func:`make_deep_document`'s nesting."""
    if level >= depth:
        builder.imm(None, channel=names[level % 2],
                    data=f"leaf at {level}",
                    duration=MediaTime.ms(event_ms))
        return
    opener = builder.seq if level % 2 == 0 else builder.par
    with opener(f"level-{level}-{index}"):
        for child in range(fanout if level < 3 else 1):
            _descend(builder, names, depth, fanout, event_ms, level + 1,
                     child)


def _grow(builder: DocumentBuilder, rng: random.Random,
          add_leaf: Callable[[int], None], remaining: int, level: int,
          leaf_below: float, seq_below: float) -> int:
    """Fill one container of a seeded random tree; return the number of
    leaves still to place.

    Each step draws a leaf (below ``leaf_below``, and always from level
    4 down), a nested seq (below ``seq_below``) or a nested par; below
    the top level the container then closes with probability 0.3.
    ``add_leaf`` places one leaf, given the count left after it.
    """
    while remaining > 0:
        choice = rng.random()
        if choice < leaf_below or level >= 4:
            remaining -= 1
            add_leaf(remaining)
        else:
            with (builder.seq if choice < seq_below else builder.par)(None):
                remaining = _grow(builder, rng, add_leaf, remaining,
                                  level + 1, leaf_below, seq_below)
        if rng.random() < 0.3 and level > 0:
            break
    return remaining


def make_random_document(seed: int, *, events: int = 40,
                         channels: int = 4,
                         arc_fraction: float = 0.2) -> CmifDocument:
    """A seeded random document with explicit arcs between siblings.

    Arcs always point from an earlier sibling to a later one.  Unbounded
    arcs are must-strict (a forward lower bound is always satisfiable);
    bounded arcs are may-strict, because an upper bound can contradict
    the durations of intervening siblings and the solver must then be
    free to relax it.  Every generated document therefore schedules.
    """
    rng = random.Random(seed)
    builder = DocumentBuilder(f"random-{seed}", root_kind="seq")
    names = _declare_channels(builder, channels)

    def add_leaf(remaining: int) -> None:
        builder.imm(None, channel=rng.choice(names),
                    data=f"event {remaining}",
                    duration=MediaTime.ms(rng.uniform(100.0, 3000.0)))

    _grow(builder, rng, add_leaf, events, 0, 0.5, 0.75)
    document = builder.build(validate=False)
    _add_random_arcs(document, rng, arc_fraction)
    return document


def _add_random_arcs(document: CmifDocument, rng: random.Random,
                     arc_fraction: float) -> None:
    """Attach forward arcs between random sibling pairs."""
    from repro.core.nodes import ContainerNode
    from repro.core.syncarc import SyncArc
    from repro.core.tree import iter_preorder

    for node in iter_preorder(document.root):
        if not isinstance(node, ContainerNode) or len(node.children) < 2:
            continue
        if rng.random() > arc_fraction:
            continue
        children = node.children
        first = rng.randrange(0, len(children) - 1)
        second = rng.randrange(first + 1, len(children))
        source = children[first]
        destination = children[second]
        if source.name is None or destination.name is None:
            # Unnamed children are addressed positionally.
            source_ref = f"#{first}"
            destination_ref = f"#{second}"
        else:
            source_ref = source.name
            destination_ref = destination.name
        if rng.random() < 0.5:
            node.add_arc(SyncArc(
                source=source_ref, destination=destination_ref,
                min_delay=MediaTime.ms(0.0), max_delay=None))
        else:
            from repro.core.syncarc import Strictness
            node.add_arc(SyncArc(
                source=source_ref, destination=destination_ref,
                strictness=Strictness.MAY,
                min_delay=MediaTime.ms(0.0),
                max_delay=MediaTime.ms(rng.uniform(5000.0, 20000.0))))


def _add_conditional_links(document: CmifDocument, rng: random.Random,
                           links: int) -> None:
    """Attach ``links`` conditional hyper-links between random siblings.

    Each link rides a randomly chosen child of some container and
    targets a *different* sibling — forward (skip ahead) or backward
    (replay) — under a unique condition name, so scripted traces
    address exactly the link they chose.  Conditional arcs are
    runtime-only: a linked document's static schedule is identical to
    its unlinked twin's, which keeps linked corpora comparable across
    every cache level.
    """
    from repro.core.nodes import ContainerNode
    from repro.core.syncarc import ConditionalArc
    from repro.core.tree import iter_preorder

    containers = [node for node in iter_preorder(document.root)
                  if isinstance(node, ContainerNode)
                  and len(node.children) >= 2]
    if not containers:
        return
    for serial in range(links):
        parent = containers[rng.randrange(len(containers))]
        children = parent.children
        source_index = rng.randrange(len(children))
        target_index = rng.randrange(len(children) - 1)
        if target_index >= source_index:
            target_index += 1
        owner = children[source_index]
        target = children[target_index]
        target_ref = (target.name if target.name is not None
                      else f"#{target_index}")
        owner.add_arc(ConditionalArc(
            ".", f"../{target_ref}", condition=f"goto-{serial}"))


# -- serving-corpus generation (documents with real media demands) --------

#: Era-plausible capture formats the media generator draws from.
_VIDEO_RESOLUTIONS = ((320, 240), (640, 480), (720, 576), (1280, 1024))
_IMAGE_RESOLUTIONS = ((320, 240), (640, 480), (800, 600), (1280, 960))
_FRAME_RATES = (12.5, 15.0, 25.0, 30.0)
_SAMPLE_RATES = (11025.0, 22050.0, 32000.0, 44100.0)
_COLOR_DEPTHS = (8, 24)


def _media_descriptor(rng: random.Random, descriptor_id: str,
                      medium: Medium, duration_ms: float
                      ) -> DataDescriptor:
    """A captured-style descriptor with realistic demand attributes.

    Stream bandwidths follow the same shape the capture substrate uses
    (pixels x depth x rate for video, rate x width for audio), with a
    compression divisor so documents spread across the era profiles'
    budgets instead of all saturating them.
    """
    attributes: dict = {"duration": MediaTime.ms(duration_ms),
                        "keywords": ()}
    if medium is Medium.VIDEO:
        width, height = rng.choice(_VIDEO_RESOLUTIONS)
        rate = rng.choice(_FRAME_RATES)
        depth = rng.choice(_COLOR_DEPTHS)
        compression = rng.choice((25, 50, 100))
        attributes.update({
            "format": "video/raw-rgb",
            "resolution": (width, height),
            "frame-rate": rate,
            "frames": int(round(duration_ms / 1000.0 * rate)),
            "color-depth": depth,
            "resources": {"bandwidth-bps": int(
                rate * width * height * depth / compression)},
        })
    elif medium is Medium.AUDIO:
        rate = rng.choice(_SAMPLE_RATES)
        channels = rng.choice((1, 1, 2))
        attributes.update({
            "format": "audio/pcm-float32",
            "sample-rate": rate,
            "samples": int(round(duration_ms / 1000.0 * rate)),
            "channels": channels,
            "resources": {"bandwidth-bps": int(rate * 16 * channels)},
        })
    elif medium is Medium.IMAGE:
        width, height = rng.choice(_IMAGE_RESOLUTIONS)
        attributes.update({
            "format": "image/raw-rgb",
            "resolution": (width, height),
            "color-depth": rng.choice(_COLOR_DEPTHS),
            "resources": {"memory-bytes": width * height * 3},
        })
    else:
        attributes.update({
            "format": "text/plain",
            "language": "en",
            "characters": rng.randrange(40, 400),
            "resources": {"bandwidth-bps": rng.randrange(320, 3200)},
        })
    return DataDescriptor(descriptor_id=descriptor_id, medium=medium,
                          block_id=None, attributes=attributes)


def make_payload_block(descriptor: DataDescriptor, *,
                       seed: int = 0) -> "DataBlock":
    """A deterministic synthetic payload block for a media descriptor.

    The placement workload needs real payload *bytes* behind the
    corpus descriptors (the generator leaves ``block_id`` None — media
    documents schedule on attributes alone).  Sizes derive from the
    descriptor's own demand attributes — a video clip's stream
    bandwidth times its duration, an image's memory footprint — capped
    so a federation of thousands of blocks stays in memory, and the
    payload text is seeded by descriptor id, so two generations of the
    same corpus are bit-identical.
    """
    from repro.core.descriptors import DataBlock

    attributes = descriptor.attributes
    duration = attributes.get("duration")
    duration_ms = float(getattr(duration, "value", 0.0) or 0.0)
    resources = attributes.get("resources") or {}
    bandwidth = resources.get("bandwidth-bps", 0)
    memory = resources.get("memory-bytes", 0)
    if bandwidth:
        size = int(bandwidth / 8.0 * duration_ms / 1000.0)
    elif memory:
        size = int(memory // 16)
    else:
        size = int(attributes.get("characters", 512))
    size = max(1024, min(size, 262144))
    stamp = f"{descriptor.descriptor_id}:{seed}:"
    payload = (stamp * (size // len(stamp) + 1))[:size]
    return DataBlock(f"{descriptor.descriptor_id}#blk",
                     descriptor.medium, payload=payload)


def make_media_document(seed: int, *, events: int = 24,
                        rich: bool | None = None,
                        links: int = 0) -> CmifDocument:
    """A seeded random document whose leaves carry media descriptors.

    ``rich`` documents mix all four media (audio/video material rejects
    on audio-less terminals, filters on modest systems); lean ones stay
    image/text and play almost anywhere.  When None, the seed decides —
    a corpus of consecutive seeds covers every negotiation verdict on
    the era profiles.  Arcs are added with the same generator the
    random corpus uses, so schedules have audit material.  ``links``
    adds that many conditional hyper-links between siblings (drawn
    after everything else, so ``links=0`` documents are bit-identical
    to what earlier generators produced).
    """
    rng = random.Random(seed)
    if rich is None:
        rich = rng.random() < 0.7
    media = (list(Medium) if rich
             else [Medium.IMAGE, Medium.TEXT])
    media = [medium for medium in media if medium is not Medium.PROGRAM]
    builder = DocumentBuilder(f"media-{seed}", root_kind="seq")
    channel_names: dict[Medium, str] = {}
    for medium in media:
        name = f"ch-{medium.value}"
        builder.channel(name, medium.value)
        channel_names[medium] = name

    def add_leaf(remaining: int) -> None:
        serial = events - 1 - remaining     # leaves placed before this one
        medium = rng.choice(media)
        duration_ms = rng.uniform(400.0, 6000.0)
        descriptor = _media_descriptor(
            rng, f"d{serial}", medium, duration_ms)
        builder.descriptor(descriptor.descriptor_id, descriptor)
        builder.ext(f"e{serial}", file=descriptor.descriptor_id,
                    channel=channel_names[medium])

    _grow(builder, rng, add_leaf, events, 0, 0.55, 0.8)
    document = builder.build(validate=False)
    _add_random_arcs(document, rng, arc_fraction=0.2)
    if links > 0:
        _add_conditional_links(document, rng, links)
    return document


def make_linked_document(seed: int, *, events: int = 24,
                         links: int = 4,
                         rich: bool | None = None) -> CmifDocument:
    """A media document with conditional hyper-links: the interactive
    serving workload (navigation tests, run-queue drives, the
    navigation bench)."""
    return make_media_document(seed, events=events, rich=rich,
                               links=links)


def generate_serving_corpus(directory, *, documents: int = 12,
                            events: int = 24, seed: int = 1991,
                            links: int = 0) -> list:
    """Write a mixed serving corpus of transport *packages*.

    Descriptors only travel in packages (the bare text form is
    structure-only), and the serving engine negotiates on descriptors —
    so unlike :func:`generate_corpus`'s text files, this corpus is
    written with :func:`repro.transport.package.pack`.  ``links`` adds
    conditional hyper-links per document (the interactive workload).
    Returns the written paths in serve order.
    """
    from pathlib import Path

    from repro.transport.package import pack

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for index in range(documents):
        document = make_media_document(seed + index, events=events,
                                       links=links)
        path = directory / f"{index:03d}-media.cmifpkg"
        path.write_text(pack(document), encoding="utf-8")
        written.append(path)
    return written
