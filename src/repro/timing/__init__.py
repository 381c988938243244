"""Timing: the synchronization semantics of CMIF (paper section 5.3).

Turns a compiled document into a constraint system (default tree arcs,
channel serialization, explicit arcs), solves it for the ASAP schedule,
and diagnoses the paper's three conflict classes.
"""

from repro.core.timebase import (DEFAULT_TIMEBASE, MediaTime, TimeBase,
                                 Unit, times_close)
from repro.timing.conflicts import (AUTHORING, ConflictReport, DEVICE,
                                    NAVIGATION, common_ancestor_of_arc,
                                    detect_device_conflicts,
                                    diagnose_authoring,
                                    invalid_arcs_after_seek)
from repro.timing.constraints import (Constraint, ConstraintKind,
                                      ConstraintSystem, TimeVar, VarKind,
                                      anchor_var, arc_table, begin_var,
                                      build_constraints, end_var)
from repro.timing.graph import (ConstraintGraph, compile_graph,
                                solve_graph)
from repro.timing.incremental import EngineStats, IncrementalScheduler
from repro.timing.intervals import Window, arc_window
from repro.timing.schedule import (ENGINE_GRAPH, ENGINE_REFERENCE,
                                   SCHEDULE_ENGINES, Schedule,
                                   ScheduleCache, ScheduledEvent,
                                   event_order, make_schedule,
                                   schedule_document, schedule_for,
                                   wrap_event)
from repro.timing.solver import (IncrementalOutcome, IncrementalSolver,
                                 RELAXATION_POLICIES, RELAX_DROP_LAST,
                                 RELAX_DROP_WIDEST, SolverResult,
                                 check_solution, solve)

__all__ = [
    "AUTHORING", "ConflictReport", "Constraint", "ConstraintGraph",
    "ConstraintKind", "ConstraintSystem", "DEFAULT_TIMEBASE", "DEVICE",
    "ENGINE_GRAPH", "ENGINE_REFERENCE", "EngineStats", "IncrementalOutcome",
    "IncrementalScheduler", "IncrementalSolver", "MediaTime", "NAVIGATION",
    "RELAXATION_POLICIES", "RELAX_DROP_LAST", "RELAX_DROP_WIDEST",
    "SCHEDULE_ENGINES", "Schedule", "ScheduleCache", "ScheduledEvent",
    "SolverResult", "TimeBase", "TimeVar", "Unit", "VarKind", "Window",
    "anchor_var", "arc_table", "arc_window", "begin_var", "build_constraints",
    "check_solution", "common_ancestor_of_arc", "compile_graph",
    "detect_device_conflicts", "diagnose_authoring", "end_var", "event_order",
    "invalid_arcs_after_seek", "make_schedule", "schedule_document",
    "schedule_for", "solve", "solve_graph", "times_close", "wrap_event",
]
