"""The CMIF text writer the one-pass writer replaced.

``dump`` and ``_dump_flat`` are the earlier :mod:`repro.format.sexpr`
printer verbatim: every level renders its whole subtree on one line to
test it against the width, so a subtree is rendered once per enclosing
level that breaks (size x depth).  ``write_document`` is the earlier
:func:`repro.format.writer.write_document` verbatim, calling that
printer; the expression it prints comes from the shipped
:func:`~repro.format.writer.node_expression`, so a test comparing the
two writers compares exactly the text each printer lays out.
"""

from __future__ import annotations

from repro.core.document import CmifDocument
from repro.core.errors import FormatError
from repro.format.sexpr import Symbol
from repro.format.writer import FORMAT_VERSION, node_expression


def write_document(document: CmifDocument) -> str:
    """Serialize ``document`` to concrete CMIF text."""
    document.sync_root_attributes()
    expression = [
        Symbol("cmif"),
        [Symbol("version"), FORMAT_VERSION],
        node_expression(document.root),
    ]
    return dump(expression) + "\n"


def dump(expression: object, indent: int = 0, width: int = 76) -> str:
    """Pretty-print an expression with indentation.

    Short lists are kept on one line; long ones break after the head so
    documents stay readable — the property the paper wants from the
    interchange form.
    """
    flat = _dump_flat(expression)
    if len(flat) + indent <= width or not isinstance(expression, list):
        return flat
    if not expression:
        return "()"
    head = _dump_flat(expression[0])
    lines = ["(" + head]
    pad = " " * (indent + 2)
    for item in expression[1:]:
        lines.append(pad + dump(item, indent + 2, width))
    return "\n".join(lines) + ")"


def _dump_flat(expression: object) -> str:
    """Single-line rendering of an expression."""
    if isinstance(expression, list):
        return "(" + " ".join(_dump_flat(item) for item in expression) + ")"
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
