"""The CMIF text reader the one-pass reader replaced.

``tokenize``, ``parse_all`` and ``parse_one`` are the earlier
:mod:`repro.format.sexpr` scanner verbatim: a generator of frozen
:class:`~repro.format.sexpr.Token` objects tracking line and column for
every lexeme, drained into nested lists.  ``parse_document`` and
``parse_node`` are the earlier :mod:`repro.format.parser` entry points
verbatim: one recursion per node level, each child attached through
``ContainerNode.add``'s sibling scan.  ``_apply_attributes`` is the
earlier one verbatim too: it installs every value through the
validating :meth:`~repro.core.attributes.AttributeList.set`, where the
shipped one trusts the values its own decoders built.  The decoders
themselves (``parse_value``, ``parse_arc`` and friends) are imported
from the shipped parser, so a test comparing the two readers compares
exactly the lists and trees their scanners, walks and attribute
installs build.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.core.document import CmifDocument
from repro.core.errors import FormatError
from repro.core.nodes import ContainerNode, Node, NodeKind, make_node
from repro.format.parser import (_maybe_decode_binary,
                                 _parse_immediate_data, parse_arc,
                                 parse_value)
from repro.format.sexpr import Symbol, Token, head_symbol

#: One master scanner instead of the seed's char-by-char loop: every
#: position matches exactly one alternative (atoms swallow anything that
#: is not whitespace or a delimiter), except a ``"`` opening a string
#: with escapes/newlines, which falls through to :func:`_read_string`.
#: The parse stage is the corpus-ingest pipeline's front door, so the
#: tokenizer is the one place in the format layer worth this treatment.
_TOKEN_RE = re.compile(
    r"""[^\S\n]+                  # whitespace except newline: skip
      | \n+                       # newlines: tracked for positions
      | ;[^\n]*                   # comment to end of line
      | (?P<open>\()
      | (?P<close>\))
      | (?P<string>"[^"\\\n]*")   # fast path: no escapes, single line
      | (?P<atom>[^\s()";]+)
    """, re.VERBOSE)


def tokenize(text: str) -> Iterator[Token]:
    """Tokenize s-expression source text, tracking line/column."""
    line = 1
    line_start = 0   # offset of the current line's first character
    position = 0
    length = len(text)
    match = _TOKEN_RE.match
    while position < length:
        found = match(text, position)
        if found is None:
            # Only a quote can fail the master pattern: a string with
            # escapes, embedded newlines, or no terminator.
            column = position - line_start + 1
            value, consumed, newlines, end_column = _read_string(
                text, position, line, column)
            yield Token("string", value, line, column)
            position += consumed
            if newlines:
                line += newlines
                line_start = position - (end_column - 1)
            continue
        kind = found.lastgroup
        start = found.start()
        end = found.end()
        if kind is None:            # whitespace, newlines or a comment
            if text[start] == "\n":
                line += end - start
                line_start = end
            position = end
            continue
        column = start - line_start + 1
        if kind == "atom":
            word = found.group("atom")
            number = _try_number(word)
            if number is not None:
                yield Token("number", number, line, column)
            else:
                yield Token("symbol", Symbol(word), line, column)
        elif kind == "string":
            yield Token("string", text[start + 1:end - 1], line, column)
        elif kind == "open":
            yield Token("open", "(", line, column)
        else:
            yield Token("close", ")", line, column)
        position = end


def _read_string(text: str, start: int, line: int,
                 column: int) -> tuple[str, int, int, int]:
    """Read a quoted string starting at ``text[start]`` (a ``\"``).

    Returns (value, characters consumed, newlines inside, column after).
    Supports the escapes ``\\\\``, ``\\\"``, ``\\n``, ``\\t``.
    """
    out: list[str] = []
    i = start + 1
    newlines = 0
    current_column = column + 1
    while i < len(text):
        ch = text[i]
        if ch == '"':
            return "".join(out), i - start + 1, newlines, current_column + 1
        if ch == "\\":
            if i + 1 >= len(text):
                break
            escape = text[i + 1]
            mapping = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
            if escape not in mapping:
                raise FormatError(f"unknown string escape \\{escape}",
                                  line, current_column)
            out.append(mapping[escape])
            i += 2
            current_column += 2
            continue
        if ch == "\n":
            newlines += 1
            current_column = 1
        else:
            current_column += 1
        out.append(ch)
        i += 1
    raise FormatError("unterminated string literal", line, column)


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
    """Parse the source text into a list of top-level expressions."""
    stack: list[list[object]] = [[]]
    opens: list[Token] = []
    for token in tokenize(text):
        if token.kind == "open":
            stack.append([])
            opens.append(token)
        elif token.kind == "close":
            if len(stack) == 1:
                raise FormatError("unbalanced ')'", token.line, token.column)
            finished = stack.pop()
            opens.pop()
            stack[-1].append(finished)
        else:
            stack[-1].append(token.value)
    if len(stack) != 1:
        token = opens[-1]
        raise FormatError("unbalanced '('", token.line, token.column)
    return stack[0]


def parse_one(text: str) -> object:
    """Parse exactly one expression from the source text."""
    expressions = parse_all(text)
    if len(expressions) != 1:
        raise FormatError(
            f"expected exactly one expression, found {len(expressions)}")
    return expressions[0]


def parse_document(text: str) -> CmifDocument:
    """Parse concrete CMIF text into a :class:`CmifDocument`."""
    expression = parse_one(text)
    if head_symbol(expression) != "cmif":
        raise FormatError("document must be a (cmif ...) form")
    body = expression[1:]
    node_form: object | None = None
    for item in body:
        head = head_symbol(item)
        if head == "version":
            version = item[1] if len(item) > 1 else None
            if version != 1:
                raise FormatError(f"unsupported CMIF format version "
                                  f"{version!r}")
        elif head in {kind.value for kind in NodeKind}:
            if node_form is not None:
                raise FormatError("document has more than one root node")
            node_form = item
        else:
            raise FormatError(f"unexpected form ({head} ...) at document "
                              f"level")
    if node_form is None:
        raise FormatError("document has no root node")
    root = parse_node(node_form)
    if not isinstance(root, ContainerNode):
        raise FormatError("the root node must be seq or par")
    return CmifDocument.from_root(root)


def parse_node(expression: object) -> Node:
    """Parse one node form (recursively)."""
    head = head_symbol(expression)
    kinds = {kind.value: kind for kind in NodeKind}
    if head not in kinds:
        raise FormatError(f"expected a node form, got ({head} ...)")
    kind = kinds[head]
    body = list(expression[1:])
    attribute_forms: list = []
    if body and head_symbol(body[0]) == "attributes":
        attribute_forms = body.pop(0)[1:]

    if kind.is_container:
        node = make_node(kind)
        _apply_attributes(node, attribute_forms)
        assert isinstance(node, ContainerNode)
        for child_form in body:
            node.add(parse_node(child_form))
        return node

    if kind is NodeKind.IMM:
        data = _parse_immediate_data(body)
        node = make_node(kind, data=data)
        _apply_attributes(node, attribute_forms)
        if node.attributes.get("medium") not in (None, "text") \
                and isinstance(data, str):
            node.data = _maybe_decode_binary(node, data)
        return node

    if body:
        raise FormatError("ext nodes take no children or data")
    node = make_node(kind)
    _apply_attributes(node, attribute_forms)
    return node


def _apply_attributes(node: Node, forms: list) -> None:
    """Install parsed attribute forms onto ``node``."""
    for form in forms:
        head = head_symbol(form)
        if head is None:
            raise FormatError(f"malformed attribute form {form!r}")
        if head == "sync-arc":
            node.attributes.append_value("sync-arc", parse_arc(form))
            continue
        node.attributes.set(head, parse_value(form[1:]))
