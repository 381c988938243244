"""The document tree's ownership contract, and the cycles it keeps out.

A node reaches its container through a weak reference, so a tree is
owned from its root down: a dropped document is freed by reference
counting and never waits for the cyclic collector.  These tests pin:

* **no cycles left behind** — reading a corpus text, opening a package
  and admitting it on the era profiles, and each generator or tree walk
  that once called itself through a closure leave nothing for
  ``gc.collect()`` to find;
* **copies stay inside themselves** — after ``copy.deepcopy`` and a
  ``pickle`` round trip, every node's parent is the copy's own
  container and never the original's; ``adapt_document`` and a
  sharded ingest still match a serial run;
* **the held-subtree rule** — a node held past its tree reads no
  parent and is the root of what is left, and a node copied on its own
  is a root.
"""

from __future__ import annotations

import copy
import gc
import os
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.styles import StyleDictionary
from repro.core.tree import iter_preorder
from repro.corpus import (generate_corpus, ingest_corpus,
                          make_deep_document, make_flat_document,
                          make_media_document, make_random_document)
from repro.faults import RobustnessStats, run_sharded
from repro.format.parser import parse_document
from repro.format.writer import write_document
from repro.pipeline.adaptation import adapt_document
from repro.pipeline.filters import ConstraintFilter
from repro.pipeline.viewer import render_embedded, render_tree
from repro.serving import SessionEngine
from repro.transport import FILTERABLE, PROFILES, negotiate, pack, unpack
from repro.transport.environments import PERSONAL_SYSTEM


def _unreachable_after(action) -> int:
    """The objects that only the cyclic collector frees once ``action``
    has run and dropped what it made (run once before, so that first-call
    caches do not count)."""
    action()
    gc.collect()
    gc.disable()
    try:
        action()
    finally:
        found = gc.collect()
        gc.enable()
    return found


def _assert_links_inside(root, original_root=None) -> None:
    """Every node under ``root`` is its children's parent; none of them
    is a node of ``original_root``'s tree."""
    assert root.parent is None
    originals = set() if original_root is None else \
        {id(node) for node in iter_preorder(original_root)}
    for node in iter_preorder(root):
        assert id(node) not in originals
        for child in node.children:
            assert child.parent is node


# -- no cycles left behind ----------------------------------------------------


def _cold_open(packages) -> None:
    engine = SessionEngine(seed=3)
    for package in packages:
        document = unpack(package).document
        for environment in PROFILES:
            engine.admit(document, environment)


def test_reading_a_corpus_text_leaves_no_cycles(tmp_path):
    path = generate_corpus(tmp_path, documents=1, events=60)[0]
    text = path.read_text(encoding="utf-8")
    assert _unreachable_after(lambda: parse_document(text)) == 0


def test_a_cold_open_and_admission_leave_no_cycles():
    packages = [pack(make_media_document(seed, events=40, links=2))
                for seed in range(2)]
    assert _unreachable_after(lambda: _cold_open(packages)) == 0


_STYLES = StyleDictionary({"caption": {"channel": "text"},
                           "title": {"style": ("caption",)}})
_SHOWN = make_media_document(4, events=12)

#: Each once called itself through a closure, a cycle holding what the
#: closure captured (for the generators, the whole document).
CLOSURE_FREE = {
    "make_deep_document": lambda: make_deep_document(5),
    "make_random_document": lambda: make_random_document(1, events=20),
    "make_media_document": lambda: make_media_document(1, events=20),
    "render_tree": lambda: render_tree(_SHOWN),
    "render_embedded": lambda: render_embedded(_SHOWN),
    "StyleDictionary.validate": _STYLES.validate,
}


@pytest.mark.parametrize("name", CLOSURE_FREE)
def test_recursive_walks_leave_no_cycles(name):
    assert _unreachable_after(CLOSURE_FREE[name]) == 0


# -- copies stay inside themselves --------------------------------------------

documents = st.one_of(
    st.builds(make_media_document, st.integers(0, 500),
              events=st.integers(1, 30), links=st.integers(0, 3)),
    st.builds(make_random_document, st.integers(0, 500),
              events=st.integers(1, 30)),
    st.builds(make_deep_document, st.integers(0, 6),
              fanout=st.integers(1, 3)),
    st.builds(make_flat_document, st.integers(1, 12)))

COPIES = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@COPIES
@given(document=documents)
def test_deep_copies_link_inside_themselves(document):
    text = write_document(document)
    clone = copy.deepcopy(document)
    _assert_links_inside(clone.root, document.root)
    _assert_links_inside(document.root)
    assert write_document(clone) == text


@COPIES
@given(document=documents)
def test_pickled_copies_link_inside_themselves(document):
    text = write_document(document)
    clone = pickle.loads(pickle.dumps(document))
    _assert_links_inside(clone.root, document.root)
    assert write_document(clone) == text


@COPIES
@given(document=documents)
def test_copies_reached_leaf_first_link_inside_themselves(document):
    """A copy that meets the leaves before the root still links them."""
    compiled = document.compile()
    nodes = list(reversed(compiled.nodes))
    for twin_nodes, twin in (copy.deepcopy((nodes, document)),
                             pickle.loads(pickle.dumps((nodes, document)))):
        _assert_links_inside(twin.root, document.root)
        assert twin_nodes == list(reversed(list(iter_preorder(twin.root))))


def test_an_adapted_copy_links_inside_itself():
    document = make_media_document(3, events=16)
    assert negotiate(document, PERSONAL_SYSTEM).verdict == FILTERABLE
    plan = ConstraintFilter(PERSONAL_SYSTEM).plan(document.compile())
    adapted = adapt_document(document, plan, PERSONAL_SYSTEM)
    assert adapted is not document
    _assert_links_inside(adapted.root, document.root)
    assert adapted.compile().paths == document.compile().paths


def _ship(chunk):
    return os.getpid(), chunk


def test_documents_shipped_to_workers_link_inside_themselves():
    shipped = [make_media_document(seed, events=20, links=2)
               for seed in range(4)]
    results = run_sharded(shipped, 2, _ship, faults=None,
                          ledger=RobustnessStats())
    assert results is not None, "no worker ran the chunks"
    returned = [document for _pid, chunk in results for document in chunk]
    assert all(pid != os.getpid() for pid, _chunk in results)
    for original, twin in zip(shipped, returned):
        _assert_links_inside(twin.root, original.root)
        assert write_document(twin) == write_document(original)


def test_a_sharded_ingest_matches_a_serial_one(tmp_path):
    generate_corpus(tmp_path, documents=4, events=30, seed=5)
    serial = ingest_corpus(tmp_path, workers=1)
    sharded = ingest_corpus(tmp_path, workers=2)
    assert len(sharded.documents) == len(serial.documents) == 4
    for mine, theirs in zip(sharded.documents, serial.documents):
        _assert_links_inside(mine.document.root)
        assert write_document(mine.document) \
            == write_document(theirs.document)
        assert mine.schedule.times_ms == theirs.schedule.times_ms


# -- the held-subtree rule ----------------------------------------------------


def test_a_node_held_past_its_tree_is_a_root():
    document = make_media_document(2, events=8)
    leaf = next(iter(document.leaves()))
    assert leaf.parent is not None and leaf.root is document.root
    del document
    assert leaf.parent is None
    assert leaf.root is leaf and leaf.depth == 0


def test_a_held_subtree_keeps_its_own_links():
    document = make_deep_document(4)
    subtree = document.root.children[-1]
    assert subtree.children
    del document
    assert subtree.parent is None
    _assert_links_inside(subtree)


def test_a_node_copied_on_its_own_is_a_root():
    document = make_deep_document(4)
    subtree = document.root.children[-1]
    leaf = next(node for node in iter_preorder(subtree) if node.is_leaf)
    for twin in (copy.deepcopy(subtree), pickle.loads(pickle.dumps(subtree))):
        _assert_links_inside(twin, document.root)
    assert copy.deepcopy(leaf).parent is None
    assert leaf.parent is not None         # the original keeps its link
    copy.copy(subtree)          # a shallow copy shares, never steals, them
    _assert_links_inside(document.root)
