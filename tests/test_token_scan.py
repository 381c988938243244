"""The reader's token scan and the positional path it hands texts to.

``parse_all`` reads the token texts of one ``findall``; a text that scan
cannot finish — a string with escapes or newlines, an unterminated
string, a ``)`` that closes nothing, an unclosed ``(`` — is read again
by the positional loop, which decodes such strings and places errors.
Each case below must come out as the retired scanner
(``tests/oracles/reader.py``) reads it: the same lists, or the same
:class:`FormatError` message, line and column.  The ids say which path
the text must take.
"""

from __future__ import annotations

import pytest

from repro.core.errors import FormatError
from repro.corpus.generate import make_media_document, make_random_document
from repro.format import sexpr
from repro.format.writer import write_document
from tests.oracles import reader as oracle


def _outcome(read, text: str) -> tuple:
    try:
        return ("ok", repr(read(text)))
    except FormatError as error:
        return (str(error), error.line, error.column)


@pytest.fixture()
def positional_reads(monkeypatch) -> list[str]:
    """The texts handed to the positional loop while the test runs."""
    reads: list[str] = []
    positional = sexpr._parse_positional

    def counted(text: str) -> list:
        reads.append(text)
        return positional(text)

    monkeypatch.setattr(sexpr, "_parse_positional", counted)
    return reads


FALLBACKS = {
    "escaped-string": '(a\n  (b "say \\"hi\\"\\t" c))',
    "multi-line-string": '(a "one\ntwo" 3)\n(b)',
    "unterminated-string": '(a b)\n  (c "open',
    "unknown-escape": '(a)\n (b "x\\q")',
    "stray-close": "(a (b))\n  (c)) (d)",
    "unclosed-open": "(a)\n(b (c\n   (d)",
    "error-after-escape": '(a "x\\ny")\n  )',
}

FAST = {
    "comment-at-end": "(a b) ; a comment with no newline",
    "comment-only-lines": "; first\n(a \"s\" 1.5 -2)\n; last\n",
    "empty-text": "",
    "whitespace-only": "  \n\t ",
    "empty-string": '(a "" "")',
    "nested": "((a) (b (c)) ())",
}


@pytest.mark.parametrize("text", FALLBACKS.values(), ids=FALLBACKS.keys())
def test_texts_the_scan_cannot_finish_read_as_before(text, positional_reads):
    assert _outcome(sexpr.parse_all, text) == _outcome(oracle.parse_all,
                                                        text)
    assert positional_reads == [text]


@pytest.mark.parametrize("text", FAST.values(), ids=FAST.keys())
def test_texts_the_scan_finishes_read_as_before(text, positional_reads):
    assert _outcome(sexpr.parse_all, text) == _outcome(oracle.parse_all,
                                                        text)
    assert positional_reads == []


def test_written_documents_never_leave_the_scan(positional_reads):
    """What the writer emits — the cold path's whole input — stays on
    the token scan, and repeated atoms and strings still read equal."""
    for document in (make_media_document(7, events=40, links=3),
                     make_random_document(7, events=40)):
        text = write_document(document)
        assert repr(sexpr.parse_all(text)) == repr(oracle.parse_all(text))
    assert positional_reads == []
