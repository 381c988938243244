"""S-expression substrate for the concrete CMIF syntax.

The paper states that "we have created CMIF documents to be
human-readable"; the reference report's concrete grammar [Rossum91] is
not available, so this reproduction defines a parenthesized concrete
syntax directly from the abstract structures of figures 6, 7 and 9 (the
substitution is recorded in DESIGN.md).  This module supplies the
reader/printer for the underlying s-expressions; the CMIF-specific
grammar lives in :mod:`repro.format.parser` and
:mod:`repro.format.writer`.

Data model: an expression is a :class:`Symbol`, a ``str`` (quoted
string), an ``int``/``float``, or a ``list`` of expressions.  Comments
run from ``;`` to end of line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from repro.core.errors import FormatError


@dataclass(frozen=True)
class Symbol:
    """A bare (unquoted) token, the concrete form of the paper's ID values."""

    text: str

    def __post_init__(self) -> None:
        if not self.text or any(ch.isspace() for ch in self.text):
            raise FormatError(f"symbol cannot be empty or contain "
                              f"whitespace: {self.text!r}")

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Token:
    """One lexical token with its source position (for error messages)."""

    kind: str        # 'open' | 'close' | 'string' | 'number' | 'symbol'
    value: object
    line: int
    column: int


#: The reader's one scanner.  Each match skips any whitespace and
#: comments, then takes one token; the group that matched names its
#: kind (``Match.lastindex``).  Every character can start some
#: alternative, so ``finditer`` walks the whole text with no gaps; the
#: last match, with no group, is the end of the text.
_READ_RE = re.compile(
    r"""(?:\s+|;[^\n]*)*              # whitespace and comments: skip
      (?: ([^\s()";]+)                  # 1 atom
        | (\()                          # 2 open
        | (\))                          # 3 close
        | "([^"\\\n]*)"                 # 4 string: one line, no escapes
        | "([^"\\]*(?:\\.[^"\\]*)*)"    # 5 string with escapes/newlines
        | "()                           # 6 unterminated string
        | \Z)
    """, re.VERBOSE | re.DOTALL)
_ATOM, _OPEN, _CLOSE, _PLAIN_STRING, _ESCAPED_STRING, _UNTERMINATED = \
    range(1, 7)

#: ``_READ_RE``'s tokens as texts for ``findall``: an atom, a paren, a
#: plain string (quoted), a lone ``"`` (any other string) or the end.
_TOKEN_RE = re.compile(
    r'(?:\s+|;[^\n]*)*([^\s()";]+|[()]|"[^"\\\n]*"|"|\Z)')

_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _atom(word: str) -> int | float | Symbol:
    r"""The value of one scanned atom: a number, else a symbol.

    The symbol skips :class:`Symbol`'s whitespace scan: the atom group
    ``[^\s()";]+`` already excludes every character ``str.isspace()``
    accepts (``re``'s ``\s`` matches exactly those).  A caller's
    ``Symbol(...)`` keeps the check.
    """
    number = _try_number(word)
    if number is not None:
        return number
    symbol = object.__new__(Symbol)
    object.__setattr__(symbol, "text", word)
    return symbol


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of ``text[offset]``.

    Computed only when raising: the scanners keep no line bookkeeping.
    """
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _string_value(text: str, quote: int, end: int | None) -> str:
    """Decode the string whose opening ``"`` is at ``text[quote]``.

    ``end`` is the offset just past its closing quote, or None when the
    string runs unterminated to the end of the text.  Supports the
    escapes ``\\\\``, ``\\\"``, ``\\n``, ``\\t``.  An unknown escape is
    reported at the string's line and the backslash's column.
    """
    body = text[quote + 1:len(text) if end is None else end - 1]

    def unescape(escape: re.Match) -> str:
        char = escape.group(1)
        value = _ESCAPES.get(char)
        if value is None:
            line = _position(text, quote)[0]
            column = _position(text, quote + 1 + escape.start())[1]
            raise FormatError(f"unknown string escape \\{char}", line,
                              column)
        return value

    # Decoded even when unterminated: reading left to right, an unknown
    # escape is met before the missing end quote.
    value = _ESCAPE_RE.sub(unescape, body)
    if end is None:
        raise FormatError("unterminated string literal",
                          *_position(text, quote))
    return value


def tokenize(text: str) -> Iterator[Token]:
    """Tokenize s-expression source text, tracking line/column."""
    line = 1
    line_start = 0   # offset of the current line's first character
    counted = 0      # newlines before this offset are in ``line``
    for found in _READ_RE.finditer(text):
        kind = found.lastindex
        if kind is None:
            return
        start = found.start(kind)
        if kind >= _PLAIN_STRING:
            start -= 1          # the opening quote
        newlines = text.count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, start) + 1
        counted = start
        column = start - line_start + 1
        if kind == _ATOM:
            value = _atom(found.group(kind))
            yield Token("symbol" if isinstance(value, Symbol) else "number",
                        value, line, column)
        elif kind == _OPEN:
            yield Token("open", "(", line, column)
        elif kind == _CLOSE:
            yield Token("close", ")", line, column)
        elif kind == _PLAIN_STRING:
            yield Token("string", found.group(kind), line, column)
        else:
            yield Token("string", _string_value(
                text, start, None if kind == _UNTERMINATED else found.end()),
                line, column)


def _try_number(word: str) -> int | float | None:
    """Parse ``word`` as a number, or None when it is a symbol."""
    # Cheap reject before the exception-priced parses: every numeric
    # token starts with a digit, sign or dot; most atoms are names.
    if word[0] not in "+-.0123456789":
        return None
    try:
        return int(word)
    except ValueError:
        pass
    try:
        value = float(word)
    except ValueError:
        return None
    # Reject words like 'inf'/'nan' as numbers; they read as symbols so
    # the CMIF grammar can give 'inf' its own meaning (unbounded delay).
    if word.lower() in ("inf", "-inf", "nan", "infinity", "-infinity"):
        return None
    return value


def parse_all(text: str) -> list[object]:
    """Parse the source text into a list of top-level expressions.

    One pass over the token texts of one ``findall``: no match objects,
    no offsets, and each distinct atom or string is converted once.  A
    text it cannot finish (a string with escapes, newlines or no end, a
    stray ``)``, an unclosed ``(``) goes to :func:`_parse_positional`.
    """
    top: list[object] = []
    current = top
    enclosing: list[list[object]] = []   # the lists around ``current``
    atoms: dict[str, object] = {}
    for token in _TOKEN_RE.findall(text):
        if token == "(":
            child: list[object] = []
            current.append(child)
            enclosing.append(current)
            current = child
        elif token == ")":
            if not enclosing:
                return _parse_positional(text)
            current = enclosing.pop()
        else:
            value = atoms.get(token)
            if value is None:
                if token[:1] == '"':
                    if len(token) == 1:
                        return _parse_positional(text)
                    value = token[1:-1]
                elif not token:           # the end of the text
                    break
                else:
                    value = _atom(token)
                atoms[token] = value
            current.append(value)
    if enclosing:
        return _parse_positional(text)
    return top


def _parse_positional(text: str) -> list[object]:
    """:func:`parse_all` over :func:`tokenize`'s tokens, which decode
    every string and carry their positions: the path for the texts the
    token scan cannot finish."""
    top: list[object] = []
    current = top
    enclosing: list[list[object]] = []   # the lists around ``current``
    opens: list[Token] = []              # the unclosed '('
    for token in tokenize(text):
        if token.kind == "open":
            child: list[object] = []
            current.append(child)
            enclosing.append(current)
            current = child
            opens.append(token)
        elif token.kind == "close":
            if not enclosing:
                raise FormatError("unbalanced ')'", token.line,
                                  token.column)
            current = enclosing.pop()
            opens.pop()
        else:
            current.append(token.value)
    if enclosing:
        raise FormatError("unbalanced '('", opens[-1].line, opens[-1].column)
    return top


def parse_one(text: str) -> object:
    """Parse exactly one expression from the source text."""
    expressions = parse_all(text)
    if len(expressions) != 1:
        raise FormatError(
            f"expected exactly one expression, found {len(expressions)}")
    return expressions[0]


def dump(expression: object, indent: int = 0, width: int = 76) -> str:
    """Pretty-print an expression with indentation.

    Short lists are kept on one line; long ones break after the head so
    documents stay readable — the property the paper wants from the
    interchange form.
    """
    one_line = _one_line_texts(expression, width - indent)
    parts: list[str] = []
    # Work items: (expression, its indent), or (text, None) to emit.
    work: list[tuple[object, int | None]] = [(expression, indent)]
    while work:
        item, depth = work.pop()
        if depth is None:
            parts.append(item)
        elif not isinstance(item, list):
            parts.append(_dump_atom(item))
        elif (text := one_line.get(id(item))) is not None \
                and len(text) + depth <= width:
            parts.append(text)
        else:       # break after the head (an empty list has none)
            parts.append("(" + dump(item[0], 0, float("inf")) if item
                         else "(")
            work.append((")", None))
            pad = "\n" + " " * (depth + 2)
            for child in reversed(item[1:]):
                work += ((child, depth + 2), (pad, None))
    return "".join(parts)


def _one_line_texts(expression: object, limit: float) -> dict[int, str]:
    """The one-line text, by ``id``, of each list in ``expression`` of at
    most ``limit`` characters: its items' texts joined as it closes.
    Atoms render in document order (the first unwritable one raises)."""
    texts: dict[int, str] = {}
    # Frames: (list, its remaining items, its items' texts so far).
    stack = [(expression, iter(expression), [])] \
        if isinstance(expression, list) else []
    while stack:
        current, items, pieces = stack[-1]
        for item in items:
            if isinstance(item, list):
                stack.append((item, iter(item), []))
                break
            pieces.append(_dump_atom(item))
        else:
            stack.pop()
            if None not in pieces and \
                    len(text := "(" + " ".join(pieces) + ")") <= limit:
                texts[id(current)] = text
            if stack:
                stack[-1][2].append(texts.get(id(current)))
    return texts


def _dump_atom(expression: object) -> str:
    """The text of one atom."""
    if isinstance(expression, Symbol):
        return expression.text
    if isinstance(expression, str):
        escaped = (expression.replace("\\", "\\\\").replace('"', '\\"')
                   .replace("\n", "\\n").replace("\t", "\\t"))
        return f'"{escaped}"'
    if isinstance(expression, bool):
        return "true" if expression else "false"
    if isinstance(expression, float):
        # repr() is the shortest representation that round-trips exactly;
        # integral floats drop the trailing ".0" for readability.
        if expression.is_integer() and abs(expression) < 1e16:
            return str(int(expression))
        return repr(expression)
    if isinstance(expression, int):
        return str(expression)
    raise FormatError(f"cannot serialize {expression!r} as an s-expression")


def head_symbol(expression: object) -> str | None:
    """The head symbol text of a list expression, or None."""
    if (isinstance(expression, list) and expression
            and isinstance(expression[0], Symbol)):
        return expression[0].text
    return None
