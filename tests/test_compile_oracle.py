"""The one-pass compile against the retired leaf-by-leaf one.

``tests/oracles/compile.py`` keeps the earlier ``CmifDocument.compile``
verbatim: every attribute read goes through ``Node.effective`` and every
path through ``node_path``.  Both compile generated documents (random,
media, flat, deep and the news corpora) after random mutations:
``channel``/``file`` moved onto containers and overridden below,
styles from the document dictionary or from a root attribute only
(supplying channel, file, medium, duration, slice or clip), unknown
styles on containers that a lookup does or does not reach, unnamed
nodes, slice/clip combinations, immediate text without a duration and
descriptors served by an external resolver.  They must build the same
events field by field (descriptor by identity), the same ``by_node``
and ``per_channel`` maps in the same order and the same sequence of
resolver calls, or raise the same exception type and message after the
same resolver calls.
"""

from __future__ import annotations

import dataclasses
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.attributes import spec_for
from repro.core.descriptors import EventDescriptor
from repro.core.document import CmifDocument
from repro.core.errors import (ChannelError, MediaError, StructureError,
                               StyleError, ValueError_)
from repro.core.nodes import ContainerNode, NodeKind
from repro.core.styles import StyleDictionary
from repro.core.timebase import MediaTime, Unit
from repro.corpus.generate import (make_deep_document, make_flat_document,
                                   make_media_document,
                                   make_random_document)
from repro.corpus.news import make_news_document, make_paintings_fragment
from tests.oracles.compile import compile_document

DOCUMENTS = {
    "random-0.0": lambda seed: make_random_document(
        seed, events=16, arc_fraction=0.0),
    "random-0.2": lambda seed: make_random_document(seed, events=16),
    "random-0.6": lambda seed: make_random_document(
        seed, events=16, arc_fraction=0.6),
    "media-rich": lambda seed: make_media_document(
        seed, events=16, rich=True, links=2),
    "media-lean": lambda seed: make_media_document(
        seed, events=16, rich=False),
    "flat": lambda seed: make_flat_document(6 + seed % 8),
    "deep": lambda seed: make_deep_document(3 + seed % 3),
    "news": lambda seed: make_news_document(stories=1 + seed % 2).document,
    "paintings": lambda seed: make_paintings_fragment(seed=seed).document,
}

# -- mutations ---------------------------------------------------------------


def _containers(document: CmifDocument) -> list:
    return [node for node in document.nodes()
            if isinstance(node, ContainerNode)]


def _leaves(node) -> list:
    stack, found = [node], []
    while stack:
        current = stack.pop()
        if current.is_leaf:
            found.append(current)
        stack.extend(reversed(current.children))
    return found


def _ext_leaves(node) -> list:
    return [leaf for leaf in _leaves(node) if leaf.kind is NodeKind.EXT]


def _file_ids(document: CmifDocument) -> list[str]:
    return sorted({leaf.attributes.get("file")
                   for leaf in _ext_leaves(document.root)} - {None})


def _inherit(name: str, values: list):
    """Set ``name`` on random containers; drop it from some leaves below
    (they inherit) and keep it on the others (they override)."""
    def mutate(document, rng, resolver):
        choices = values(document)
        if not choices:
            return
        containers = _containers(document)
        for container in rng.sample(containers, k=min(3, len(containers))):
            container.attributes.set(name, rng.choice(choices))
            for leaf in _leaves(container):
                if rng.random() < 0.6:
                    leaf.attributes.remove(name)
    return mutate


def _style_bodies(document: CmifDocument, rng: random.Random) -> dict:
    channels = document.channels.names()
    files = _file_ids(document)
    bodies = {
        "s-channel": {"channel": rng.choice(channels)},
        "s-duration": {"duration": rng.choice(
            (1500.0, 700, MediaTime.ms(900.0), MediaTime(12, Unit.FRAMES)))},
        "s-medium": {"medium": rng.choice(("text", "image", "audio"))},
        "s-slice": {"slice": MediaTime.ms(rng.choice((0.0, 50.0, 120.0))),
                    "slice-length": MediaTime.ms(rng.choice((80.0, 200.0)))},
        "s-clip": {"clip": rng.choice((10.0, MediaTime.ms(30.0))),
                   "clip-length": MediaTime.ms(60.0)},
        "s-chained": {"style": ["s-channel", "s-duration"],
                      "title": "chained"},
        "s-none": {"channel": None} if rng.random() < 0.2 else {},
    }
    if files:
        bodies["s-file"] = {"file": rng.choice(files)}
    return bodies


def _apply_styles(document, rng, bodies: dict) -> None:
    nodes = list(document.nodes())
    for node in rng.sample(nodes, k=min(8, len(nodes))):
        chosen = rng.sample(sorted(bodies), k=rng.randint(1, 2))
        node.attributes.set("style", chosen)
        # Styles are defaults: drop some own values so the style shows.
        supplied = set().union(*(bodies[name] for name in chosen))
        for name in supplied & {"channel", "file", "duration"}:
            if rng.random() < 0.6:
                node.attributes.remove(name)


def styles_in_dictionary(document, rng, resolver):
    bodies = _style_bodies(document, rng)
    for name, body in bodies.items():
        document.styles.define(name, body)
    _apply_styles(document, rng, bodies)


def styles_on_root_only(document, rng, resolver):
    bodies = _style_bodies(document, rng)
    document.styles = StyleDictionary()
    document.root.attributes.set("style-dictionary", bodies)
    _apply_styles(document, rng, bodies)


def unknown_style_on_container(document, rng, resolver):
    """A container names an undefined style; a leaf below may or may not
    have to look through it."""
    container = rng.choice(_containers(document))
    container.attributes.set("style", ["no-such-style"])
    if rng.random() < 0.5:
        leaves = _leaves(container)
        if leaves:
            rng.choice(leaves).attributes.remove(
                rng.choice(("channel", "file")))


def unnamed_nodes(document, rng, resolver):
    for node in document.nodes():
        if rng.random() < 0.4:
            node.attributes.remove("name")


def slices(document, rng, resolver):
    """Slice/clip combinations on external leaves, sometimes negative or
    past the block's end."""
    for leaf in _ext_leaves(document.root):
        if rng.random() < 0.5:
            continue
        leaf.attributes.remove("duration")
        start = rng.choice((None, 0.0, 40.0, 150.0))
        length = rng.choice((None, 100.0, 250.0))
        if rng.random() < 0.05:
            start, length = rng.choice(
                ((-5.0, None), (0.0, -1.0), (0.0, 10_000_000.0)))
        prefix = rng.choice(("slice", "clip"))
        if start is not None:
            leaf.attributes.set(prefix, MediaTime.ms(start))
        if length is not None:
            leaf.attributes.set(f"{prefix}-length", MediaTime.ms(length))
        if rng.random() < 0.2:   # both pairs: slice wins
            leaf.attributes.set("clip", MediaTime.ms(20.0))


def text_without_duration(document, rng, resolver):
    for leaf in document.leaves():
        if leaf.kind is NodeKind.IMM and rng.random() < 0.5:
            leaf.attributes.remove("duration")
            if rng.random() < 0.1:
                leaf.attributes.set("medium", "image")


def external_resolver(document, rng, resolver):
    """Serve some descriptors from the resolver; point some leaves at
    ids nobody knows."""
    for file_id in list(document.descriptors):
        if rng.random() < 0.5:
            resolver.store[file_id] = document.descriptors.pop(file_id)
    for leaf in _ext_leaves(document.root):
        if rng.random() < 0.1:
            leaf.attributes.set("file", f"unknown-{rng.randrange(99)}")
            if rng.random() < 0.8:
                leaf.attributes.set("duration", MediaTime.ms(500.0))


def no_channel(document, rng, resolver):
    leaf = rng.choice(list(document.leaves()))
    for node in (leaf, *leaf.ancestors()):
        node.attributes.remove("channel")


def unknown_channel(document, rng, resolver):
    rng.choice(list(document.nodes())).attributes.set("channel", "nowhere")


def no_file(document, rng, resolver):
    leaves = _ext_leaves(document.root)
    if leaves:
        leaf = rng.choice(leaves)
        for node in (leaf, *leaf.ancestors()):
            node.attributes.remove("file")


def bad_medium(document, rng, resolver):
    rng.choice(list(document.leaves())).attributes.set("medium", "smell")


MUTATIONS = {
    "inherit-channel": _inherit("channel", lambda d: d.channels.names()),
    "inherit-file": _inherit("file", _file_ids),
    "styles-in-dictionary": styles_in_dictionary,
    "styles-on-root-only": styles_on_root_only,
    "unknown-style-on-container": unknown_style_on_container,
    "unnamed-nodes": unnamed_nodes,
    "slices": slices,
    "text-without-duration": text_without_duration,
    "external-resolver": external_resolver,
}
ERRORS = {
    "no-channel": no_channel,
    "unknown-channel": unknown_channel,
    "no-file": no_file,
    "bad-medium": bad_medium,
}

# -- outcomes -----------------------------------------------------------------


class RecordingResolver:
    """An external descriptor resolver that logs every request."""

    def __init__(self) -> None:
        self.store: dict = {}
        self.calls: list[str] = []

    def __call__(self, file_id: str):
        self.calls.append(file_id)
        return self.store.get(file_id)


def _outcome(compile_, document: CmifDocument, resolver: RecordingResolver):
    resolver.calls.clear()
    try:
        result = compile_(document)
    except Exception as error:   # the oracle decides what is expected
        return ("raised", type(error), str(error)), list(resolver.calls)
    return result, list(resolver.calls)


def _positions(compiled, events) -> list[int]:
    index = {id(event): position
             for position, event in enumerate(compiled.events)}
    return [index[id(event)] for event in events]


def assert_same_compile(actual, expected) -> None:
    assert actual.document is expected.document
    assert len(actual.events) == len(expected.events)
    for new, old in zip(actual.events, expected.events):
        for field in dataclasses.fields(EventDescriptor):
            if field.name == "descriptor":
                assert new.descriptor is old.descriptor, new.event_id
            else:
                assert getattr(new, field.name) == getattr(old, field.name), \
                    (new.event_id, field.name)
    assert list(actual.by_node) == list(expected.by_node)
    assert _positions(actual, actual.by_node.values()) \
        == _positions(expected, expected.by_node.values())
    assert list(actual.per_channel) == list(expected.per_channel)
    for channel, events in expected.per_channel.items():
        assert _positions(actual, actual.per_channel[channel]) \
            == _positions(expected, events)


def assert_compiles_agree(document: CmifDocument,
                          resolver: RecordingResolver) -> str:
    """Both compiles agree on ``document``; returns "ok" or the error
    type's name."""
    expected, expected_calls = _outcome(compile_document, document,
                                        resolver)
    actual, actual_calls = _outcome(CmifDocument.compile, document,
                                    resolver)
    assert actual_calls == expected_calls
    if isinstance(expected, tuple):
        assert actual == expected
        return expected[1].__name__
    assert not isinstance(actual, tuple), actual
    assert_same_compile(actual, expected)
    return "ok"


def mutated(kind: str, seed: int, mutations, error=None):
    document = DOCUMENTS[kind](seed)
    resolver = RecordingResolver()
    document.attach_resolver(resolver)
    rng = random.Random(seed)
    for name in sorted(mutations):
        MUTATIONS[name](document, rng, resolver)
    if error is not None:
        ERRORS[error](document, rng, resolver)
    return document, resolver


# -- the compiles agree -------------------------------------------------------

FUZZ = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(kind=st.sampled_from(sorted(DOCUMENTS)),
       seed=st.integers(0, 2 ** 16),
       mutations=st.sets(st.sampled_from(sorted(MUTATIONS))),
       error=st.sampled_from((None,) * 8 + tuple(sorted(ERRORS))))
def test_mutated_documents_compile_alike(kind, seed, mutations, error):
    document, resolver = mutated(kind, seed, mutations, error)
    assert_compiles_agree(document, resolver)


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
def test_generated_documents_compile_alike(kind):
    for seed in range(3):
        document, resolver = mutated(kind, seed, ())
        assert assert_compiles_agree(document, resolver) == "ok"


def test_the_fuzzed_mutations_mostly_compile():
    """The fuzz compares successful compiles, not only errors: most
    mutated documents still compile, and the error mix reaches every
    error path compile has."""
    outcomes: dict[str, int] = {}
    rng = random.Random(19)
    for round_ in range(120):
        kind = sorted(DOCUMENTS)[round_ % len(DOCUMENTS)]
        mutations = [name for name in MUTATIONS if rng.random() < 0.4]
        document, resolver = mutated(kind, round_, mutations)
        outcome = assert_compiles_agree(document, resolver)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes["ok"] >= 50, outcomes
    assert {"StyleError", "MediaError"} <= set(outcomes), outcomes


# -- each error, raised at the same leaf ------------------------------------

@pytest.mark.parametrize("kind,error,raised", [
    ("random-0.2", "no-channel", ChannelError),
    ("media-rich", "unknown-channel", ChannelError),
    ("media-lean", "no-file", StructureError),
    ("flat", "bad-medium", ChannelError),
])
def test_each_error_is_the_same(kind, error, raised):
    for seed in range(4):
        document, resolver = mutated(kind, seed, ("inherit-channel",),
                                     error)
        assert assert_compiles_agree(document, resolver) == raised.__name__


def _media_leaf_document(**attributes):
    document, resolver = mutated("media-lean", 1, ("external-resolver",))
    leaf = _ext_leaves(document.root)[-1]
    leaf.attributes.remove("duration")
    for name, value in attributes.items():
        leaf.attributes.set(name.replace("_", "-"), value)
    return document, resolver


@pytest.mark.parametrize("attributes,error", [
    ({"slice": MediaTime.ms(-5.0)}, MediaError),
    ({"slice": MediaTime.ms(0.0),
      "slice_length": MediaTime.ms(10_000_000.0)}, MediaError),
    ({"clip_length": MediaTime.ms(-1.0)}, MediaError),
    ({"clip": MediaTime.ms(10.0), "clip_length": MediaTime.ms(50.0)}, None),
    ({"slice": MediaTime.ms(10.0)}, None),
])
def test_slice_errors_are_the_same(attributes, error):
    document, resolver = _media_leaf_document(**attributes)
    outcome = assert_compiles_agree(document, resolver)
    assert outcome == (error.__name__ if error else "ok")


def test_missing_duration_is_the_same_error():
    document, resolver = mutated("flat", 0, ())
    leaf = list(document.leaves())[2]
    leaf.attributes.remove("duration")
    leaf.attributes.set("medium", "image")
    assert assert_compiles_agree(document, resolver) == ValueError_.__name__


def test_a_container_level_is_built_only_when_reached():
    """An undefined style on a container raises only if a leaf's
    inherited lookup reaches that container."""
    document, resolver = mutated("media-rich", 0, ())
    document.styles.define("defined", {"title": "x"})
    container = next(node for node in _containers(document)[1:]
                     if _ext_leaves(node))
    container.attributes.set("style", ["no-such-style"])
    assert assert_compiles_agree(document, resolver) == "ok"
    _ext_leaves(container)[0].attributes.remove("file")
    assert assert_compiles_agree(document, resolver) == \
        StyleError.__name__


def test_a_malformed_root_style_dictionary_raises_at_the_first_leaf():
    document, resolver = mutated("flat", 0, ())
    document.root.attributes.set("style-dictionary", {"broken": 5})
    assert assert_compiles_agree(document, resolver) == StyleError.__name__
    empty = CmifDocument()
    empty.root.attributes.set("style-dictionary", {"broken": 5})
    assert assert_compiles_agree(empty, RecordingResolver()) == "ok"


def test_compile_reads_the_registry_inheritance_it_assumes():
    """The one-pass compile walks container levels for ``channel`` and
    ``file`` and reads the other names from the leaf's own level; that
    is the standard registry's rule."""
    inherited = {name for name in ("channel", "file", "medium", "duration",
                                   "slice", "slice-length", "clip",
                                   "clip-length")
                 if spec_for(name).inherited}
    assert inherited == {"channel", "file"}
