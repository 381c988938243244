"""One accounting algebra for every stats ledger.

The fault/recovery books, federation traffic, store access counters,
per-environment serving rows, ingest reports and live-edit records are
all dataclasses of counters, and all need the same operations: copy a
ledger, diff two copies, fold one into another, zero it.
:class:`Ledger` derives every one of them from the dataclass fields,
classified once per class by each field's declared default:

* a number is a counter — merged by adding, diffed by subtracting,
  reset to its default;
* a dict is a keyed counter — merged per key; a delta keeps only the
  keys that moved;
* a list is an append-only log — merged by extending; a delta keeps
  the tail appended since;
* a nested :class:`Ledger` recurses;
* anything else (names, modes, cache handles, fields with no default)
  passes through every operation unchanged.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import MISSING, fields

_NUMBER = "number"
_DICT = "dict"
_LIST = "list"
_NESTED = "nested"
_PASS = "pass"


def _default(spec):
    if spec.default_factory is not MISSING:
        return spec.default_factory()
    return spec.default


def _kind(spec) -> str:
    if spec.default is MISSING and spec.default_factory is MISSING:
        return _PASS
    value = _default(spec)
    if isinstance(value, Ledger):
        return _NESTED
    if isinstance(value, dict):
        return _DICT
    if isinstance(value, list):
        return _LIST
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return _NUMBER
    return _PASS


@functools.cache
def _layout(cls: type) -> dict:
    """``field name -> (kind, field)`` for every counting field of a
    ledger class, in declaration order."""
    layout = {}
    for spec in fields(cls):
        kind = _kind(spec)
        if kind != _PASS:
            layout[spec.name] = (kind, spec)
    return layout


class Ledger:
    """Mixin deriving the ledger algebra of a dataclass from its fields."""

    #: Read-only properties :meth:`counters` reports beside the fields.
    counter_properties: tuple[str, ...] = ()

    def snapshot(self):
        """A copy whose counters no longer move with this ledger."""
        clone = copy.copy(self)
        for name, (kind, _spec) in _layout(type(self)).items():
            value = getattr(self, name)
            if kind == _DICT:
                setattr(clone, name, dict(value))
            elif kind == _LIST:
                setattr(clone, name, list(value))
            elif kind == _NESTED:
                setattr(clone, name, value.snapshot())
        return clone

    def delta_since(self, before=None):
        """What moved since ``before`` (an earlier snapshot; None means
        since the ledger was created)."""
        if before is None:
            return self.snapshot()
        delta = copy.copy(self)
        for name, (kind, _spec) in _layout(type(self)).items():
            now = getattr(self, name)
            then = getattr(before, name)
            if kind == _NUMBER:
                moved = now - then
            elif kind == _DICT:
                moved = {key: count - then.get(key, 0)
                         for key, count in now.items()
                         if count != then.get(key, 0)}
            elif kind == _LIST:
                moved = now[len(then):]
            else:
                moved = now.delta_since(then)
            setattr(delta, name, moved)
        return delta

    def merge(self, other: "Ledger") -> None:
        """Fold ``other`` into this ledger.

        ``other`` may be a ledger of another class: the counters the two
        declare under the same name are folded, the rest are ignored.
        """
        theirs = _layout(type(other))
        for name, (kind, _spec) in _layout(type(self)).items():
            if name not in theirs:
                continue
            mine = getattr(self, name)
            value = getattr(other, name)
            if kind == _NUMBER:
                setattr(self, name, mine + value)
            elif kind == _DICT:
                for key, count in value.items():
                    mine[key] = mine.get(key, 0) + count
            elif kind == _LIST:
                mine.extend(value)
            else:
                mine.merge(value)

    def reset(self) -> None:
        """Return every counter to its default; nested ledgers reset in
        place, so references to them stay live."""
        for name, (kind, spec) in _layout(type(self)).items():
            if kind == _NESTED:
                getattr(self, name).reset()
            else:
                setattr(self, name, _default(spec))

    def counters(self) -> dict:
        """A plain copy of every counter (nested ledgers as dicts), plus
        the :attr:`counter_properties`."""
        values = {}
        for name, (kind, _spec) in _layout(type(self)).items():
            value = getattr(self, name)
            if kind == _DICT:
                value = dict(value)
            elif kind == _LIST:
                value = list(value)
            elif kind == _NESTED:
                value = value.counters()
            values[name] = value
        for name in self.counter_properties:
            values[name] = getattr(self, name)
        return values

    @property
    def empty(self) -> bool:
        """True when no counter holds anything."""
        for name, (kind, _spec) in _layout(type(self)).items():
            value = getattr(self, name)
            if kind == _DICT:
                if any(value.values()):
                    return False
            elif kind == _NESTED:
                if not value.empty:
                    return False
            elif value:
                return False
        return True


__all__ = ["Ledger"]
