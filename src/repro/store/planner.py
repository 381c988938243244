"""The store query planner: AST -> index-backed execution plans.

The seed implementation compiled every query to an opaque closure and
executed it by scanning all descriptors — O(N) per query, which defeats
the paper's section-6 promise that attribute search keys make "finding
detailed information in large multimedia database" cheap.  This module
compiles the :mod:`repro.store.query` AST into a :class:`Plan`:

* each indexable leaf becomes an :class:`IndexStep` producing a
  candidate id set from one inverted index (equality, keyword, medium,
  numeric range, duration);
* steps are intersected in **estimated-selectivity order** (smallest
  candidate set first), short-circuiting on an empty intersection;
* a step whose candidates would have to be *materialized* (a numeric or
  duration range slice) and whose estimate dwarfs the most selective
  step is **demoted**: its leaf predicate is verified per surviving
  candidate instead of building a huge set nobody narrows with;
* leaves no index can answer — ``NOT``, opaque closures, unhashable
  values, non-keyword containment — are collected into a **residual
  predicate** verified once per surviving candidate;
* a query with no indexable leaf at all falls back to the full scan,
  so planning never changes results, only cost.

Index steps whose candidate set may over-approximate (dirty entries:
string-valued keywords, unhashable attribute values, malformed
durations) are marked inexact and their leaf joins the residual — an
index is a superset source, never an oracle.  ``DataStore.explain``
returns the chosen :class:`Plan` so tests and the CLI can assert which
indexes a query actually uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, AbstractSet, Callable

from repro.store.query import (Always, And, Contains, DurationBetween, Eq,
                               MatchesAttr, MediumIs, Or, Query, Range)

if TYPE_CHECKING:
    from repro.core.descriptors import DataDescriptor
    from repro.store.datastore import DataStore

#: A lazy (range) step this many times bigger than the most selective
#: step is demoted to per-candidate verification instead of being
#: materialized into a set.
DEMOTE_FACTOR = 4

#: Below this driver estimate the demotion threshold stops shrinking
#: (materializing a few dozen ids is cheaper than deciding not to).
DEMOTE_FLOOR = 64


@dataclass
class IndexStep:
    """One index probe of a plan: a candidate id set plus provenance.

    ``ids`` may be a live reference into the store's indexes — plans
    snapshot nothing and must be executed before the store mutates
    (which is what :meth:`DataStore.find_where` does).  Range probes
    are lazy: their set is only built if the step survives planning.
    """

    index: str                  # e.g. "eq[language]", "keyword", "medium"
    description: str            # the leaf this step answers
    estimate: int
    exact: bool                 # False: superset only, leaf re-verified
    leaf: Query
    materialized: AbstractSet[str] | None = None
    thunk: Callable[[], set[str]] | None = field(default=None, repr=False)

    @property
    def ids(self) -> AbstractSet[str]:
        if self.materialized is None:
            self.materialized = self.thunk()
        return self.materialized

    @property
    def lazy(self) -> bool:
        return self.materialized is None

    def describe(self) -> str:
        mark = "" if self.exact else " (superset, verified)"
        return f"{self.index} -> {self.estimate} candidate(s){mark}"


@dataclass(frozen=True)
class Plan:
    """A compiled query: index steps, residual predicate, or scan.

    A plan references live index state; execute it immediately (as
    :meth:`DataStore.find_where` does) — a plan held across store
    mutations is stale.
    """

    query_description: str
    steps: tuple[IndexStep, ...] = ()
    residual: Query | None = None
    scan: bool = False
    store_size: int = 0
    demoted: tuple[str, ...] = ()   # index names verified, not probed

    @property
    def indexes_used(self) -> tuple[str, ...]:
        """Names of the indexes the plan probes, in probe order."""
        return tuple(step.index for step in self.steps)

    @property
    def estimated_candidates(self) -> int:
        """Upper bound on descriptors the plan will examine."""
        if self.scan or not self.steps:
            return self.store_size
        return self.steps[0].estimate

    def describe(self) -> str:
        """A human-readable rendering for tests and the CLI."""
        lines = [f"plan for: {self.query_description}"]
        if self.scan:
            lines.append(f"  full scan over {self.store_size} "
                         f"descriptor(s)")
        else:
            for step in self.steps:
                lines.append(f"  probe {step.describe()}")
            lines.append(f"  examine <= {self.estimated_candidates} of "
                         f"{self.store_size} descriptor(s)")
        if self.residual is not None:
            lines.append(f"  verify residual: "
                         f"{self.residual.description}")
        return "\n".join(lines)


@dataclass
class _Subplan:
    """Intermediate planning result for one AST node."""

    steps: list[IndexStep] = field(default_factory=list)
    residuals: list[Query] = field(default_factory=list)
    matches_all: bool = False   # Always(): no constraint contributed


def build_plan(store: "DataStore", query: Query) -> Plan:
    """Compile ``query`` against ``store``'s current indexes."""
    if not isinstance(query, Query):
        raise TypeError(f"build_plan expects a Query, got {query!r}")
    subplan = _plan_node(store, query)
    size = store.index_size()
    if subplan is None:
        return Plan(query_description=query.description, residual=query,
                    scan=True, store_size=size)
    if subplan.matches_all or not subplan.steps:
        # Nothing narrows the candidate set: scanning with whatever
        # residual remains is the honest plan.
        residual = _conjoin(subplan.residuals) if subplan.residuals \
            else (None if subplan.matches_all else query)
        return Plan(query_description=query.description,
                    residual=residual, scan=True, store_size=size)
    ordered = sorted(subplan.steps, key=lambda s: s.estimate)
    threshold = DEMOTE_FACTOR * max(ordered[0].estimate, DEMOTE_FLOOR)
    kept: list[IndexStep] = []
    residuals = list(subplan.residuals)
    demoted: list[str] = []
    for position, step in enumerate(ordered):
        if position > 0 and step.lazy and step.estimate > threshold:
            # Building this set would cost more than verifying its
            # leaf on the (far smaller) surviving candidates.
            demoted.append(step.index)
            if step.exact:          # inexact leaves are already residual
                residuals.append(step.leaf)
            continue
        kept.append(step)
    return Plan(query_description=query.description, steps=tuple(kept),
                residual=_conjoin(residuals), store_size=size,
                demoted=tuple(demoted))


def _conjoin(parts: list[Query]) -> Query | None:
    deduplicated: list[Query] = []
    for part in parts:
        if all(part is not kept for kept in deduplicated):
            deduplicated.append(part)
    if not deduplicated:
        return None
    if len(deduplicated) == 1:
        return deduplicated[0]
    return And(tuple(deduplicated))


def _plan_node(store: "DataStore", node: Query) -> _Subplan | None:
    """Plan one AST node; None means no index applies at all."""
    if isinstance(node, Always):
        return _Subplan(matches_all=True)
    if isinstance(node, And):
        return _plan_and(store, node)
    if isinstance(node, Or):
        return _plan_or(store, node)
    step = _leaf_step(store, node)
    if step is None:
        return None
    subplan = _Subplan(steps=[step])
    if not step.exact:
        subplan.residuals.append(node)
    return subplan


def _plan_and(store: "DataStore", node: And) -> _Subplan | None:
    combined = _Subplan()
    indexable = False
    for part in node.parts:
        child = _plan_node(store, part)
        if child is None:
            combined.residuals.append(part)
            continue
        if child.matches_all:
            continue
        combined.steps.extend(child.steps)
        combined.residuals.extend(child.residuals)
        indexable = True
    if not indexable:
        return None if combined.residuals else _Subplan(matches_all=True)
    return combined


def _plan_or(store: "DataStore", node: Or) -> _Subplan | None:
    """A union step over the branches' candidate supersets.

    Sound only when *every* branch is indexable: one unindexable branch
    means the union could miss matches, so the whole OR degrades to a
    residual (and, at top level, a scan).
    """
    union: set[str] = set()
    exact = True
    for part in node.parts:
        child = _plan_node(store, part)
        if child is None:
            return None
        if child.matches_all:
            return _Subplan(matches_all=True)
        if not child.steps:
            return None
        union |= _intersect_steps(child.steps)
        if child.residuals or any(not s.exact for s in child.steps):
            exact = False
    step = IndexStep(index="union", description=node.description,
                     estimate=len(union), exact=exact, leaf=node,
                     materialized=union)
    subplan = _Subplan(steps=[step])
    if not exact:
        subplan.residuals.append(node)
    return subplan


def _intersect_steps(steps: list[IndexStep]) -> set[str]:
    """The steps' candidate intersection, smallest set first."""
    if not steps:
        return set()
    ordered = sorted(steps, key=lambda s: s.estimate)
    result = set(ordered[0].ids)
    for step in ordered[1:]:
        if not result:
            break
        result = result & step.ids
    return result


def _leaf_step(store: "DataStore", node: Query) -> IndexStep | None:
    if isinstance(node, Eq):
        answer = store.eq_candidates(node.name, node.value)
        if answer is None:
            return None
        ids, exact = answer
        return IndexStep(index=f"eq[{node.name}]",
                         description=node.description,
                         estimate=len(ids), exact=exact, leaf=node,
                         materialized=ids)
    if isinstance(node, Contains):
        if node.name != "keywords":
            return None         # containment is indexed for keywords only
        ids, exact = store.keyword_candidates(node.item)
        return IndexStep(index="keyword", description=node.description,
                         estimate=len(ids), exact=exact, leaf=node,
                         materialized=ids)
    if isinstance(node, MediumIs):
        ids = store.medium_candidates(node.medium)
        return IndexStep(index="medium", description=node.description,
                         estimate=len(ids), exact=True, leaf=node,
                         materialized=ids)
    if isinstance(node, Range):
        estimate, exact = store.numeric_estimate(node.name, node.minimum,
                                                 node.maximum)
        return IndexStep(
            index=f"range[{node.name}]", description=node.description,
            estimate=estimate, exact=exact, leaf=node,
            thunk=lambda: store.numeric_candidates(
                node.name, node.minimum, node.maximum))
    if isinstance(node, DurationBetween):
        answer = store.duration_estimate(node.min_ms, node.max_ms,
                                         node.timebase)
        if answer is None:
            return None
        estimate, exact = answer
        return IndexStep(
            index="duration", description=node.description,
            estimate=estimate, exact=exact, leaf=node,
            thunk=lambda: store.duration_candidates(
                node.min_ms, node.max_ms, node.timebase))
    if isinstance(node, MatchesAttr):
        answer = store.matches_candidates(node.name, node.wanted)
        if answer is None:
            return None
        ids, exact = answer
        return IndexStep(index=f"attr[{node.name}]",
                         description=node.description,
                         estimate=len(ids), exact=exact, leaf=node,
                         materialized=ids)
    # Not, opaque Query closures, and anything future: residual-only.
    return None


def execute_plan(store: "DataStore", plan: Plan) -> list["DataDescriptor"]:
    """Run a plan, charging one attribute read per examined descriptor."""
    if plan.scan:
        residual = plan.residual
        if residual is None:
            return store.scan_where(lambda descriptor: True)
        return store.scan_where(residual)
    examined = store.in_registration_order(
        _intersect_steps(list(plan.steps)))
    residual = plan.residual
    results: list["DataDescriptor"] = []
    for descriptor_id in examined:
        descriptor = store.descriptor(descriptor_id)
        if residual is not None and not residual(descriptor):
            continue
        results.append(descriptor)
    return results
