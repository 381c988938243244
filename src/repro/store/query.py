"""An inspectable combinator query language over data descriptors (§6).

"If the attributes contain search key information, then many time
consuming activities relating to finding detailed information in large
multimedia database may be simplified."  This module provides composable
predicates over descriptors — equality, containment, numeric ranges,
boolean combinators — as a small AST the
:class:`~repro.store.planner` module compiles into index-backed plans.

Every node is still a plain callable (``query(descriptor) -> bool``) and
still composes with ``&``, ``|`` and ``~``, so code written against the
original closure-only :class:`Query` keeps working; the difference is
that the structure is now *inspectable*, which is what lets the
:class:`~repro.store.datastore.DataStore` answer selective queries from
its inverted indexes instead of scanning every descriptor.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterator

from repro.core.channels import Medium
from repro.core.descriptors import DataDescriptor
from repro.core.errors import QueryError
from repro.core.timebase import TimeBase

Predicate = Callable[[DataDescriptor], bool]


class Query:
    """A composable descriptor predicate with a readable description.

    Instantiated directly it wraps an opaque callable (the original
    closure form, kept for compatibility); the planner treats such
    leaves as unindexable residuals.  The subclasses below form the
    indexable AST.
    """

    def __init__(self, predicate: Predicate,
                 description: str = "<opaque>") -> None:
        self.predicate = predicate
        self.description = description

    def __call__(self, descriptor: DataDescriptor) -> bool:
        return bool(self.predicate(descriptor))

    def __and__(self, other: "Query") -> "Query":
        return And((self, other))

    def __or__(self, other: "Query") -> "Query":
        return Or((self, other))

    def __invert__(self) -> "Query":
        return Not(self)

    def __repr__(self) -> str:
        return f"Query({self.description})"

    def children(self) -> tuple["Query", ...]:
        """Sub-queries of a combinator node (leaves have none)."""
        return ()


def iter_leaves(query: Query) -> Iterator[Query]:
    """All leaf nodes of a query AST, in declaration order."""
    children = query.children()
    if not children:
        yield query
        return
    for child in children:
        yield from iter_leaves(child)


# -- leaf nodes -----------------------------------------------------------


class Eq(Query):
    """Attribute ``name`` equals ``value`` exactly."""

    def __init__(self, name: str, value: Any) -> None:
        self.name = name
        self.value = value
        self.description = f"{name} == {value!r}"

    def __call__(self, descriptor: DataDescriptor) -> bool:
        return descriptor.get(self.name) == self.value


class Contains(Query):
    """Sequence attribute ``name`` contains ``item`` (keywords etc.)."""

    def __init__(self, name: str, item: Any) -> None:
        self.name = name
        self.item = item
        self.description = f"{item!r} in {name}"

    def __call__(self, descriptor: DataDescriptor) -> bool:
        stored = descriptor.get(self.name)
        if stored is None:
            return False
        if isinstance(stored, (tuple, list, set, frozenset, str)):
            return self.item in stored
        return False


class Range(Query):
    """Numeric attribute ``name`` lies in [minimum, maximum]."""

    def __init__(self, name: str, minimum: float | None = None,
                 maximum: float | None = None) -> None:
        if minimum is None and maximum is None:
            raise QueryError("attr_range needs at least one bound")
        self.name = name
        self.minimum = minimum
        self.maximum = maximum
        self.description = f"{minimum!r} <= {name} <= {maximum!r}"

    def __call__(self, descriptor: DataDescriptor) -> bool:
        value = descriptor.get(self.name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if self.minimum is not None and value < self.minimum:
            return False
        if self.maximum is not None and value > self.maximum:
            return False
        return True


class MediumIs(Query):
    """Descriptor medium equals ``medium``."""

    def __init__(self, medium: Medium | str) -> None:
        self.medium = (medium if isinstance(medium, Medium)
                       else Medium.from_name(medium))
        self.description = f"medium == {self.medium.value}"

    def __call__(self, descriptor: DataDescriptor) -> bool:
        return descriptor.medium is self.medium


class DurationBetween(Query):
    """Intrinsic duration lies in [min_ms, max_ms] (canonical ms)."""

    def __init__(self, min_ms: float | None = None,
                 max_ms: float | None = None,
                 timebase: TimeBase | None = None) -> None:
        if min_ms is None and max_ms is None:
            raise QueryError("duration_between needs at least one bound")
        for bound in (min_ms, max_ms):
            if bound is not None and not math.isfinite(bound):
                raise QueryError("a duration bound must be a finite "
                                 "number of milliseconds")
        self.min_ms = min_ms
        self.max_ms = max_ms
        self.timebase = timebase or TimeBase()
        self.description = f"duration in [{min_ms}, {max_ms}]ms"

    def __call__(self, descriptor: DataDescriptor) -> bool:
        duration = descriptor.duration
        if duration is None:
            return False
        value = self.timebase.to_ms(duration)
        if self.min_ms is not None and value < self.min_ms:
            return False
        if self.max_ms is not None and value > self.max_ms:
            return False
        return True


class MatchesAttr(Query):
    """One criterion with :meth:`DataDescriptor.matches` semantics.

    Equality, except that a tuple/list-valued stored attribute matches
    when it *contains* a scalar criterion — the semantics
    :meth:`DataStore.find` has always used for keyword criteria.
    """

    def __init__(self, name: str, wanted: Any) -> None:
        self.name = name
        self.wanted = wanted
        self.description = f"{name} ~ {wanted!r}"

    def __call__(self, descriptor: DataDescriptor) -> bool:
        return descriptor.matches(**{self.name: self.wanted})


class Always(Query):
    """Matches every descriptor."""

    def __init__(self) -> None:
        self.description = "TRUE"

    def __call__(self, descriptor: DataDescriptor) -> bool:
        return True


# -- combinator nodes ------------------------------------------------------


class And(Query):
    """All parts match (n-ary; nested ANDs are flattened)."""

    def __init__(self, parts: tuple[Query, ...]) -> None:
        flattened: list[Query] = []
        for part in parts:
            if isinstance(part, And):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if not flattened:
            raise QueryError("AND needs at least one part")
        self.parts = tuple(flattened)
        self.description = ("(" + " AND ".join(p.description
                                               for p in self.parts) + ")")

    def __call__(self, descriptor: DataDescriptor) -> bool:
        return all(part(descriptor) for part in self.parts)

    def children(self) -> tuple[Query, ...]:
        return self.parts


class Or(Query):
    """Any part matches (n-ary; nested ORs are flattened)."""

    def __init__(self, parts: tuple[Query, ...]) -> None:
        flattened: list[Query] = []
        for part in parts:
            if isinstance(part, Or):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        if not flattened:
            raise QueryError("OR needs at least one part")
        self.parts = tuple(flattened)
        self.description = ("(" + " OR ".join(p.description
                                              for p in self.parts) + ")")

    def __call__(self, descriptor: DataDescriptor) -> bool:
        return any(part(descriptor) for part in self.parts)

    def children(self) -> tuple[Query, ...]:
        return self.parts


class Not(Query):
    """The negation of one part."""

    def __init__(self, part: Query) -> None:
        self.part = part
        self.description = f"(NOT {part.description})"

    def __call__(self, descriptor: DataDescriptor) -> bool:
        return not self.part(descriptor)

    def children(self) -> tuple[Query, ...]:
        return (self.part,)


# -- factory functions (the stable public surface) -------------------------


def attr_eq(name: str, value: Any) -> Query:
    """Attribute ``name`` equals ``value``."""
    return Eq(name, value)


def attr_contains(name: str, item: Any) -> Query:
    """Sequence attribute ``name`` contains ``item`` (keywords etc.)."""
    return Contains(name, item)


def attr_range(name: str, minimum: float | None = None,
               maximum: float | None = None) -> Query:
    """Numeric attribute ``name`` lies in [minimum, maximum]."""
    return Range(name, minimum, maximum)


def medium_is(medium: Medium | str) -> Query:
    """Descriptor medium equals ``medium``."""
    return MediumIs(medium)


def duration_between(min_ms: float | None = None,
                     max_ms: float | None = None,
                     timebase: TimeBase | None = None) -> Query:
    """Intrinsic duration lies in [min_ms, max_ms] (canonical ms)."""
    return DurationBetween(min_ms, max_ms, timebase)


def keyword(word: str) -> Query:
    """Shorthand for a keyword search (the common section-6 case)."""
    return Contains("keywords", word)


def always() -> Query:
    """Matches every descriptor."""
    return Always()


def criteria_query(criteria: dict[str, Any]) -> Query:
    """The AST equivalent of ``DataStore.find(**criteria)``."""
    parts: list[Query] = []
    for name, wanted in criteria.items():
        if name == "medium":
            parts.append(MediumIs(wanted))
        else:
            parts.append(MatchesAttr(name, wanted))
    if not parts:
        return Always()
    if len(parts) == 1:
        return parts[0]
    return And(tuple(parts))


def run(store, query: Query) -> list[DataDescriptor]:
    """Execute ``query`` against a :class:`DataStore` (attribute-only)."""
    return store.find_where(query)
