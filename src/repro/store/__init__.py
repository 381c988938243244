"""The optional DDBMS of paper figure 2: attribute-indexed block storage.

Documents reference data through descriptors; the store resolves those
references and answers attribute queries without touching payload bytes,
reproducing the paper's section-6 claim about descriptor-driven document
manipulation.  Queries are inspectable ASTs (:mod:`repro.store.query`)
compiled by a planner (:mod:`repro.store.planner`) into index-backed
plans; the federation (:mod:`repro.store.distributed`) routes them only
to the sites whose index summaries can match.
"""

from repro.store.datastore import DataStore, StoreStats, StoreSummary
from repro.store.distributed import (DESCRIPTOR_WIRE_BYTES, FederatedStore,
                                     FindOutcome, Site, SiteUnavailable,
                                     TrafficStats, summary_can_match,
                                     summary_wire_bytes)
from repro.store.placement import (PLACEMENT_POLICIES, HotSetTracker,
                                   HybridPolicy, MigrateOwnerPolicy,
                                   NetworkModel, PlacementMove,
                                   PlacementOutcome, PlacementPolicy,
                                   PlacementReport, ReplicateHotPolicy,
                                   ReplicationPlan, SiteTopology,
                                   resolve_policy)
from repro.store.planner import IndexStep, Plan, build_plan, execute_plan
from repro.store.query import (Always, And, Contains, DurationBetween, Eq,
                               MatchesAttr, MediumIs, Not, Or, Query, Range,
                               always, attr_contains, attr_eq, attr_range,
                               criteria_query, duration_between, iter_leaves,
                               keyword, medium_is, run)

__all__ = [
    "DESCRIPTOR_WIRE_BYTES", "PLACEMENT_POLICIES", "Always", "And",
    "Contains", "DataStore", "DurationBetween", "Eq", "FederatedStore",
    "FindOutcome", "HotSetTracker", "HybridPolicy", "IndexStep",
    "MatchesAttr", "MediumIs", "MigrateOwnerPolicy", "NetworkModel",
    "Not", "Or", "Plan", "PlacementMove", "PlacementOutcome",
    "PlacementPolicy", "PlacementReport", "Query", "Range",
    "ReplicateHotPolicy", "ReplicationPlan", "Site", "SiteTopology",
    "SiteUnavailable", "StoreStats", "StoreSummary", "TrafficStats",
    "always", "resolve_policy",
    "attr_contains", "attr_eq", "attr_range", "build_plan",
    "criteria_query", "duration_between", "execute_plan", "iter_leaves",
    "keyword", "medium_is", "run", "summary_can_match",
    "summary_wire_bytes",
]
