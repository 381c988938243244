"""The one-pass writer against the retired one: byte-identical text.

``tests/oracles/writer.py`` keeps the earlier printer verbatim: every
level renders its whole subtree on one line to test the width.  The
shipped :func:`~repro.format.sexpr.dump` renders each list's one-line
text once, bottom-up.  Both must write the same bytes for the reader
oracle's document shapes and attribute forms, a 200-level document, a
wide flat one, and arbitrary s-expressions at any indent and width —
or raise the same error for an atom neither can write.
"""

from __future__ import annotations

import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.errors import CmifError
from repro.corpus.generate import (make_deep_document, make_flat_document,
                                   make_media_document,
                                   make_random_document)
from repro.corpus.news import make_paintings_fragment
from repro.format.parser import parse_document
from repro.format.sexpr import Symbol, dump
from repro.format.writer import write_document
from tests.oracles import writer as oracle
from tests.test_reader_oracle import DOCUMENTS, attributed_documents

FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])


def _assert_same_text(document) -> None:
    assert write_document(document) == oracle.write_document(document)


@st.composite
def documents(draw):
    """One of the reader oracle's generated document shapes."""
    shape = draw(st.sampled_from(("media", "random", "flat", "deep")))
    seed = draw(st.integers(0, 10_000))
    if shape == "media":
        return make_media_document(seed, events=draw(st.integers(1, 60)),
                                   links=draw(st.integers(0, 4)),
                                   rich=draw(st.booleans()))
    if shape == "random":
        return make_random_document(seed, events=draw(st.integers(1, 60)))
    if shape == "flat":
        return make_flat_document(draw(st.integers(1, 40)))
    return make_deep_document(draw(st.integers(1, 12)))


@FUZZ
@given(document=documents())
def test_generated_documents_write_identically(document):
    _assert_same_text(document)


@pytest.mark.parametrize("index", range(len(DOCUMENTS)))
def test_reader_oracle_documents_write_identically(index):
    _assert_same_text(parse_document(DOCUMENTS[index]))


@FUZZ
@given(text=attributed_documents())
def test_attribute_forms_write_identically(text):
    try:
        document = parse_document(text)
    except CmifError:
        return
    _assert_same_text(document)


def test_deep_wide_and_story_documents_write_identically():
    _assert_same_text(make_deep_document(200))
    _assert_same_text(make_flat_document(2_000))
    _assert_same_text(make_paintings_fragment().document)


# -- arbitrary expressions ---------------------------------------------------

ATOMS = st.one_of(
    st.from_regex(r"[a-z][a-z0-9.\-]{0,12}", fullmatch=True).map(Symbol),
    st.text(max_size=30), st.integers(), st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e16, -2.0, 0.5, 1e300]))

EXPRESSIONS = st.recursive(
    ATOMS, lambda children: st.lists(children, max_size=6), max_leaves=60)


@FUZZ
@given(expression=EXPRESSIONS, indent=st.integers(0, 90),
       width=st.integers(0, 100))
def test_expressions_dump_identically(expression, indent, width):
    assert dump(expression, indent, width) \
        == oracle.dump(expression, indent, width)


@pytest.mark.parametrize("expression", [
    [[Symbol("head"), "a" * 90], Symbol("x")],
    [[], [[]], Symbol("y"), [[Symbol("z")] * 40]],
    [Symbol("a"), [Symbol("b"), None, [object()]], None],
    [Symbol("a"), "x" * 100, [Symbol("b"), 2.5]],
    "just a string",
    [],
], ids=["list-head", "empty-lists", "unserializable", "long-atom",
        "atom", "empty"])
def test_edge_expressions_dump_identically(expression):
    for width in (0, 10, 76):
        outcomes = []
        for printer in (dump, oracle.dump):
            try:
                outcomes.append(printer(expression, 0, width))
            except CmifError as error:
                outcomes.append((type(error), str(error)))
        assert outcomes[0] == outcomes[1]


def test_the_new_writer_survives_what_exhausts_the_retired_one():
    expression: list = [Symbol("leaf")]
    for _ in range(sys.getrecursionlimit() + 100):
        expression = [Symbol("seq"), expression]
    with pytest.raises(RecursionError):
        oracle.dump(expression)
    text = dump(expression)
    assert text.startswith("(seq\n  (seq\n")
    assert text.count("(") == text.count(")")
