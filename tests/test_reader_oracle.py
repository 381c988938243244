"""The one-pass CMIF reader against the retired one, on hostile input.

``tests/oracles/reader.py`` keeps the earlier token-stream scanner and
recursive node walk verbatim.  Both readers parse generated documents
(the media, random and corpus shapes, written with ``write_document``)
and byte-level mutations of them: truncation, deleted, duplicated and
swapped spans, injected delimiters and escapes, Unicode whitespace.
They must agree on the document (compared as written text) or raise
the same exception type and message, line and column included.  Where
the retired reader's recursion gives out, the new one must return a
document or raise :class:`FormatError`.  The retired reader installs
every attribute value through the validating ``AttributeList.set``;
generated attribute forms on both sides of the shipped reader's
trusted path (values it installs unvalidated, and values it must
still validate) hold it to that.

``unpack`` gets the same diet of generated packages plus mutations:
only :class:`CmifError` subclasses may escape it.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.descriptors import DataBlock
from repro.core.errors import CmifError, FormatError
from repro.core.nodes import NodeKind
from repro.corpus.generate import (make_deep_document, make_flat_document,
                                   make_media_document,
                                   make_random_document)
from repro.corpus.news import make_paintings_fragment
from repro.format.parser import parse_document
from repro.format.sexpr import Symbol, parse_all, parse_one, tokenize
from repro.format.writer import write_document
from repro.store.datastore import DataStore
from repro.transport.package import pack, unpack
from tests.oracles import reader as oracle

UNICODE_SPACES = "\x1c\x85\u00a0\u2028\u3000"
INJECTED = '()"\\;' + UNICODE_SPACES

DOCUMENTS = (
    *(write_document(make_media_document(seed, events=10, links=2,
                                         rich=seed % 2 == 0))
      for seed in range(3)),
    *(write_document(make_random_document(seed, events=12))
      for seed in range(2)),
    write_document(make_flat_document(8)),
    write_document(make_deep_document(5)),
    write_document(make_paintings_fragment().document),
    # Strings with escapes and newlines take the scanner's slow path.
    '(cmif (version 1) (seq (attributes (name "a\\"b") (title "x\ny")) '
    '(imm (attributes (name t)) "line\\none\\ttab \\\\ end" ; note\n'
    '"more")))',
    # Attribute forms on both sides of the trusted path.
    '(cmif (version 1) (seq (attributes (name "r") (title "a b") '
    '(style s1 s2) (t-formatting (font f) (size 12)) (x-free "q r")) '
    '(ext (attributes (name e1) (channel c1) (file "d 1") (comment c) '
    '(duration (time 4 s)) (clip 250) (crop (rect 0 0 8 8)) '
    '(keywords k1 k2) (medium video)))))',
)

# -- attribute forms ---------------------------------------------------------

#: Attribute values on both sides of the trusted path: bare symbols,
#: quoted strings (with spaces, empty, padded), numbers, flags, media
#: times (units in other spellings too), rects, pointer sets and groups.
ATTRIBUTE_VALUES = (
    "e1", "x-1.b", "INF", '"e1"', '"two words"', '""', '" padded "',
    '"tab\\there"', "5", "2.5", "-1", "1e999", "true", "false",
    "(time 4 s)", "(time 25 frames)", "(time 1500 ms)",
    "(time 2 SECONDS)", "(time 3 Milliseconds)", "(time 2 parsecs)",
    "(time x s)", "(rect 0 0 10 10)", "(rect 0 0 0 10)", "(rect 1 2)",
    "a b c", 'a "b c"', "a 5", "(font helvetica) (size 12)",
    "(a (b 1))", "(time 4 s) (b 1)")

#: Standard names of every kind the values meet, and free names.
ATTRIBUTE_NAMES = (
    "name", "channel", "medium", "file", "title", "comment", "duration",
    "clip", "slice-length", "style", "crop", "t-formatting", "keywords",
    "language", "x-free")

SYNC_ARCS = (
    '(sync-arc (type begin must) (source "e1" begin) (offset (time 0 ms))'
    ' (dest "e2") (min (time 0 ms)) (max inf))',
    "(sync-arc (type END May) (source e1 end) (offset 40)"
    " (dest e2) (min (time 1 s)) (max (time 2 s)) (when \"lang=en\"))",
    "(sync-arc (type middle must) (source e1) (offset 0) (dest e2)"
    " (min 0) (max inf))",
)


@st.composite
def attribute_form(draw) -> str:
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(SYNC_ARCS))
    return (f"({draw(st.sampled_from(ATTRIBUTE_NAMES))} "
            f"{draw(st.sampled_from(ATTRIBUTE_VALUES))})")


@st.composite
def attributed_documents(draw) -> str:
    """A small document with generated attribute forms on one node."""
    forms = " ".join(draw(st.lists(attribute_form(), min_size=1,
                                   max_size=4)))
    kind = draw(st.sampled_from(("seq", "ext", "imm")))
    leaf = '(imm (attributes (name t)) "text")'
    if kind == "seq":
        body = f"(seq (attributes {forms}) {leaf})"
    elif kind == "ext":
        body = f"(seq (ext (attributes {forms})) {leaf})"
    else:
        body = f'(seq (imm (attributes {forms}) "data"))'
    return f"(cmif (version 1) {body})"


# -- mutations -------------------------------------------------------------


@st.composite
def _mutation(draw, text):
    size = len(text)
    at = draw(st.integers(0, size))
    span = min(size, at + draw(st.integers(0, 40)))
    kind = draw(st.sampled_from(
        ("truncate", "delete", "duplicate", "swap", "inject", "space")))
    if kind == "truncate":
        return text[:at]
    if kind == "delete":
        return text[:at] + text[span:]
    if kind == "duplicate":
        return text[:span] + text[at:span] + text[span:]
    if kind == "swap":
        end = min(size, span + draw(st.integers(0, 40)))
        return text[:at] + text[span:end] + text[at:span] + text[end:]
    char = draw(st.sampled_from(INJECTED if kind == "inject"
                                else UNICODE_SPACES))
    if kind == "space":
        return text[:at] + char + text[at + 1:]
    return text[:at] + char + text[at:]


@st.composite
def mutated(draw, texts):
    """One of ``texts`` after one to three random mutations."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        text = draw(_mutation(text))
    return text


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow,
                                       HealthCheck.data_too_large])

# -- outcomes --------------------------------------------------------------

RECURSION = ("RecursionError",)


def _failure(error: Exception) -> tuple:
    return (type(error), str(error), getattr(error, "line", None),
            getattr(error, "column", None))


def _outcome(read, text: str, render=repr) -> tuple:
    """What one reader makes of ``text``: its rendered result or error."""
    try:
        result = read(text)
    except RecursionError:
        return RECURSION
    except Exception as error:   # the oracle decides what is expected
        return _failure(error)
    try:
        return ("ok", render(result))
    except Exception as error:
        return ("unrenderable", _failure(error))


def _assert_agree(read, retired, text: str, render=repr) -> None:
    expected = _outcome(retired, text, render)
    actual = _outcome(read, text, render)
    if expected == RECURSION:
        assert actual[0] in ("ok", FormatError), actual
    else:
        assert actual == expected


def _read_tokens(text: str) -> list:
    return list(tokenize(text))


def _retired_tokens(text: str) -> list:
    return list(oracle.tokenize(text))


# -- the readers agree -------------------------------------------------------


@pytest.mark.parametrize("index", range(len(DOCUMENTS)))
def test_generated_documents_read_identically(index):
    text = DOCUMENTS[index]
    assert repr(parse_all(text)) == repr(oracle.parse_all(text))
    assert write_document(parse_document(text)) \
        == write_document(oracle.parse_document(text))


@FUZZ
@given(text=mutated(DOCUMENTS))
def test_mutated_documents_read_identically(text):
    _assert_agree(parse_document, oracle.parse_document, text,
                  render=write_document)


@FUZZ
@given(text=attributed_documents())
def test_attribute_forms_read_identically(text):
    _assert_agree(parse_document, oracle.parse_document, text,
                  render=write_document)


@FUZZ
@given(text=mutated(DOCUMENTS))
def test_mutated_texts_scan_identically(text):
    _assert_agree(parse_all, oracle.parse_all, text)
    _assert_agree(_read_tokens, _retired_tokens, text)


@pytest.mark.parametrize("text", [
    '"unterminated',
    '(a "ab\\',
    '(a "x\ny\\q")',
    '(a\n  "open \\n\\q" b)',
    "(a))",
    "((a)\n(b",
    '(a "\\\ncontinued")',
    "a\u2028b\x85c\u3000d",
    '(a "x")\n\n   ) ; trailing',
], ids=["unterminated", "trailing-backslash", "escape-after-newline",
        "escape-column", "unbalanced-close", "unbalanced-open",
        "escaped-newline", "unicode-spaces", "close-after-lines"])
def test_scanner_edge_cases_match(text):
    _assert_agree(parse_all, oracle.parse_all, text)
    _assert_agree(_read_tokens, _retired_tokens, text)


@pytest.mark.parametrize("body", [
    "(seq (seq (imm (attributes (name a))) (imm (attributes (name a))))"
    " (bogus))",
    "(seq (seq (attributes (name s))) (seq (attributes (name s)) (bogus)))",
    "(par (attributes (name p) (duration x)) (bogus))",
    "(seq (imm (attributes (name a))) (ext (attributes (name a)) 1))",
    "(seq\r\n (imm \"a\\q\"))",
], ids=["duplicate-before-later-error", "subtree-error-before-duplicate",
        "attributes-before-children", "leaf-error-before-duplicate",
        "crlf-escape"])
def test_document_error_order_matches(body):
    _assert_agree(parse_document, oracle.parse_document,
                  f"(cmif (version 1) {body})", render=write_document)


def test_the_new_reader_survives_what_exhausts_the_retired_one():
    depth = sys.getrecursionlimit() + 100
    tree = ("(cmif (version 1) " + "(seq " * depth
            + '(imm (attributes (name x)) "y")' + ")" * depth + ")")
    value = "(a " * depth + "1" + ")" * depth
    attribute = f"(cmif (version 1) (seq (attributes (v {value}))))"
    for text in (tree, attribute):
        with pytest.raises(RecursionError):
            oracle.parse_document(text)
    assert parse_document(tree).root.kind is NodeKind.SEQ
    with pytest.raises(FormatError, match="nested too deeply"):
        parse_document(attribute)


# -- why the scanner may trust its atoms ------------------------------------


def test_regex_whitespace_is_exactly_str_isspace():
    whitespace = re.compile(r"\s")
    assert [code for code in range(sys.maxunicode + 1)
            if bool(whitespace.fullmatch(chr(code)))
            != chr(code).isspace()] == []


@pytest.mark.parametrize("text", ["a b", "", "a\u3000b", "\x85"])
def test_a_caller_built_symbol_keeps_its_whitespace_check(text):
    with pytest.raises(FormatError):
        Symbol(text)


def test_scanned_symbols_equal_checked_ones():
    scanned = parse_one("(name x-1 true)")
    assert scanned == [Symbol("name"), Symbol("x-1"), Symbol("true")]
    assert hash(scanned[0]) == hash(Symbol("name"))


# -- unpack raises only typed errors ----------------------------------------


def _package(seed: int) -> str:
    """A small media document packed with one block per payload kind."""
    np = pytest.importorskip("numpy")
    document = make_media_document(seed, events=8, links=1)
    store = DataStore("fuzz")
    payloads = (f"text payload {seed}", bytes(range(seed, seed + 24)),
                np.arange(24, dtype="uint8").reshape(2, 3, 4))
    for index, (file_id, descriptor) in enumerate(
            sorted(document.descriptors.items())):
        block = DataBlock(f"{file_id}#blk", descriptor.medium,
                          payload=payloads[index % len(payloads)])
        descriptor = dataclasses.replace(descriptor,
                                         block_id=block.block_id)
        document.register_descriptor(file_id, descriptor)
        store.register(descriptor, block)
    return pack(document, store, embed_data=True)


PACKAGES = tuple(_package(seed) for seed in range(2))


def _nested_group(depth: int) -> dict:
    group: dict = {}
    for _ in range(depth):
        group = {"a": group}
    return group


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
    st.text(max_size=8),
    st.sampled_from([[], {}, [[]], {"a": [1]}, _nested_group(700)]))


def _leaves(obj, path=()):
    """Every (path, value) position inside a decoded JSON document."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for index, value in enumerate(obj):
            yield from _leaves(value, path + (index,))


@st.composite
def replaced_json_values(draw):
    """A package with one JSON value anywhere replaced by another."""
    package = json.loads(draw(st.sampled_from(PACKAGES)))
    paths = [path for path in _leaves(package) if path]
    path = draw(st.sampled_from(paths))
    target = package
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = draw(JSON_VALUES)
    return json.dumps(package)


@st.composite
def mutated_embedded_documents(draw):
    """A package whose CMIF text was mutated before re-embedding."""
    package = json.loads(draw(st.sampled_from(PACKAGES)))
    body = package["cmif-package"]
    body["document"] = draw(mutated((body["document"],)))
    return json.dumps(package)


def _unpack_typed(text: str) -> None:
    try:
        unpack(text)
    except CmifError:
        pass


@FUZZ
@given(text=mutated(PACKAGES))
def test_mutated_packages_raise_only_typed_errors(text):
    _unpack_typed(text)


@FUZZ
@given(text=mutated_embedded_documents())
def test_packages_with_mutated_documents_raise_only_typed_errors(text):
    _unpack_typed(text)


@FUZZ
@given(text=replaced_json_values())
def test_packages_with_replaced_values_raise_only_typed_errors(text):
    _unpack_typed(text)


def test_generated_packages_unpack():
    for text in PACKAGES:
        result = unpack(text)
        assert result.embedded_blocks == len(result.document.descriptors)
