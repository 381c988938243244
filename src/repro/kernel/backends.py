"""The two numeric kernel backends behind the ``kernel=`` axis.

:class:`PythonKernel` *is* the retained reference: its playback
operations delegate to the interpretive loops on
:class:`~repro.pipeline.program.PlaybackProgram`, exactly as every
release before the kernel axis ran them.  It runs every jittered
replay: the player draws one jitter value per event and serializes each
channel, so a jittered run is a draw sequence feeding a serial
recurrence, and :class:`~repro.pipeline.program.BatchPlayer` routes it
here whatever kernel it was configured with.

:class:`NumpyKernel` serves the quiet (jitter-free) replay, the one
case where whole-array operations win.  With zero jitter a run is a
pure function of its plan, so the run and its audit are computed once
per plan, returned as the reference's plain lists, and shared by every
later replay.  Both are pinned **bit-identical** to the reference,
which takes care, because floating point addition does not reassociate:

* the plan's transforms (dispatch clamp, latency add) and the start
  candidates map 1:1 onto vector ops and are exact by construction;
* the channel-contention chain (``stop_k = max(pre_k, stop_{k-1}) +
  d_k``) is a serial recurrence that a prefix operation would
  reassociate.  A lane whose vector candidates never overlap (no
  event starts before its predecessor stops) is exact as computed;
  the serial chain only departs from the candidates at the first
  overlap, so that test classifies every lane exactly, and only lanes
  that contend replay the recurrence over plain Python lists;
* the audit evaluates all leaf-to-leaf arcs (the overwhelming
  majority) in one vector pass; arcs with container endpoints keep the
  envelope min/max loop, which is order-insensitive and therefore
  exact.

Numpy stays inside this package: plans, runs and audits reach the
pipeline as the reference's lists.  Randomized equivalence is pinned by
``tests/test_kernels.py``; the quiet speedup is gated by
``benchmarks/bench_kernels.py`` against ``baselines/kernels.json``.
"""

from __future__ import annotations

import random

from repro.kernel._np import HAVE_NUMPY, np


class PythonKernel:
    """The pure-Python backend — the pinned interpretive reference."""

    name = "python"
    np = None

    def build_plan(self, program, tb, te, seek_to_ms, latencies,
                   prefetch_lead_ms):
        return program.plan(tb, te, seek_to_ms, latencies,
                            prefetch_lead_ms)

    def run(self, program, plan, jitter_ms, rng: random.Random):
        return program.run(plan, jitter_ms, rng)

    def audit(self, program, actual_begin, actual_end, played,
              plan=None):
        return program.audit(actual_begin, actual_end, played)


class _NpPlaybackView:
    """Per-program compiled state for the numpy backend.

    Shared across every environment-specialized view of a program —
    specialization never changes event timing or the arc table.  A
    live edit patches the program's channel and arc tables in place and
    bumps its shared ``patch_epoch``; ``epoch`` records the generation
    this view was built from, so a moved epoch means a rebuild.
    """

    __slots__ = ("epoch", "chan", "single_pos", "s_idx", "s_beg",
                 "d_idx", "d_beg", "s_off", "s_delta", "s_eps",
                 "s_has_eps", "multis")

    def __init__(self, program) -> None:
        self.epoch = program.patch_epoch[0]
        self.chan = np.asarray(program.channel_index, dtype=np.int64)
        single_pos = []
        s_idx, s_beg, d_idx, d_beg = [], [], [], []
        s_off, s_delta, s_eps, s_has_eps = [], [], [], []
        self.multis = []
        for position, arc in enumerate(program.audit_arcs):
            if len(arc.source_events) == 1 and len(arc.dest_events) == 1:
                single_pos.append(position)
                s_idx.append(arc.source_events[0])
                s_beg.append(arc.src_begin)
                d_idx.append(arc.dest_events[0])
                d_beg.append(arc.dst_begin)
                s_off.append(arc.offset_ms)
                s_delta.append(arc.delta_ms)
                # 0.0 placeholder where the arc has no upper bound;
                # ``s_has_eps`` gates every read of ``s_eps``.
                s_eps.append(0.0 if arc.epsilon_ms is None
                             else arc.epsilon_ms)
                s_has_eps.append(arc.epsilon_ms is not None)
            else:
                # Container endpoints stay Python lists: the envelope
                # min/max over a handful of leaves is faster as plain
                # comparisons than as tiny-array reductions.
                self.multis.append((
                    position,
                    list(arc.source_events), arc.src_begin,
                    list(arc.dest_events), arc.dst_begin,
                    arc.offset_ms, arc.delta_ms, arc.epsilon_ms))
        self.single_pos = single_pos
        self.s_idx = np.asarray(s_idx, dtype=np.int64)
        self.s_beg = np.asarray(s_beg, dtype=bool)
        self.d_idx = np.asarray(d_idx, dtype=np.int64)
        self.d_beg = np.asarray(d_beg, dtype=bool)
        self.s_off = np.asarray(s_off, dtype=np.float64)
        self.s_delta = np.asarray(s_delta, dtype=np.float64)
        self.s_eps = np.asarray(s_eps, dtype=np.float64)
        self.s_has_eps = np.asarray(s_has_eps, dtype=bool)


class NpRunPlan:
    """One quiet configuration's precomputed run state, numpy form.

    Mirrors :class:`~repro.pipeline.program.RunPlan` over the active
    events, plus the lane structure the contention test needs:
    ``groups`` holds each channel's active-local event positions in
    canonical order.  ``played`` is the reference's list mask.  The
    run and its audit are cached here as plain lists (``quiet``,
    ``quiet_audit``), so replays after the first are lookups.
    """

    __slots__ = ("n", "active", "played", "tb_a", "ready_base",
                 "duration", "groups", "quiet", "quiet_audit")

    def __init__(self, n, active, played, tb_a, ready_base, duration,
                 groups) -> None:
        self.n = n
        self.active = active
        self.played = played
        self.tb_a = tb_a
        self.ready_base = ready_base
        self.duration = duration
        self.groups = groups
        self.quiet = None
        self.quiet_audit = None


class NumpyKernel:
    """The vectorized quiet-replay backend, bit-identical to the
    reference."""

    name = "numpy"
    np = np

    def _view(self, program) -> _NpPlaybackView:
        views = program._kernel_views
        view = views.get(self.name)
        if view is None or view.epoch != program.patch_epoch[0]:
            view = views[self.name] = _NpPlaybackView(program)
        return view

    def build_plan(self, program, tb, te, seek_to_ms, latencies,
                   prefetch_lead_ms) -> NpRunPlan:
        view = self._view(program)
        tb = np.asarray(tb, dtype=np.float64)
        te = np.asarray(te, dtype=np.float64)
        played = te > seek_to_ms
        active = np.nonzero(played)[0]
        tb_a = tb[active]
        dispatch = tb_a - prefetch_lead_ms
        if seek_to_ms > 0:
            dispatch = np.maximum(dispatch, seek_to_ms)
        ready_base = dispatch + np.asarray(latencies,
                                           dtype=np.float64)[active]
        duration = te[active] - tb_a
        lanes = view.chan[active]
        if lanes.size:
            order = np.argsort(lanes, kind="stable")
            lanes_sorted = lanes[order]
            starts = np.nonzero(lanes_sorted[1:] !=
                                lanes_sorted[:-1])[0] + 1
            bounds = np.concatenate(
                ([0], starts, [lanes_sorted.size]))
            groups = [order[a:b]
                      for a, b in zip(bounds[:-1], bounds[1:])]
        else:
            groups = []
        return NpRunPlan(n=program.n_events, active=active,
                         played=played.tolist(), tb_a=tb_a,
                         ready_base=ready_base, duration=duration,
                         groups=groups)

    def run(self, program, plan: NpRunPlan, jitter_ms: float,
            rng: random.Random):
        """The quiet run as ``(actual_begin, actual_end)`` lists.

        Computed on the first call and shared by every later replay of
        the plan.  Only quiet plans reach this backend (``BatchPlayer``
        routes every jittered plan to the reference), so ``jitter_ms``
        is zero and, as in the reference, the RNG is never drawn from.
        """
        if plan.quiet is None:
            start = np.maximum(plan.ready_base, plan.tb_a)
            stop = start + plan.duration
            for members in plan.groups:
                # Channels start free at 0.0; the serial chain matches
                # the candidates until the first overlap.
                prior = np.concatenate(([0.0], stop[members[:-1]]))
                if not (prior > start[members]).any():
                    continue
                free = 0.0
                lane_start, lane_stop = [], []
                for ready, begin, length in zip(
                        plan.ready_base[members].tolist(),
                        plan.tb_a[members].tolist(),
                        plan.duration[members].tolist()):
                    if ready > begin:
                        begin = ready
                    if free > begin:
                        begin = free
                    free = begin + length
                    lane_start.append(begin)
                    lane_stop.append(free)
                start[members] = lane_start
                stop[members] = lane_stop
            actual_begin = np.zeros(plan.n, dtype=np.float64)
            actual_end = np.zeros(plan.n, dtype=np.float64)
            actual_begin[plan.active] = start
            actual_end[plan.active] = stop
            plan.quiet = (actual_begin.tolist(), actual_end.tolist())
        return plan.quiet

    def audit(self, program, actual_begin, actual_end, played,
              plan=None):
        """The reference's per-arc rows for a quiet run (see
        :meth:`~repro.pipeline.program.PlaybackProgram.audit`),
        computed once per plan."""
        quiet = (plan is not None and plan.quiet is not None
                 and actual_begin is plan.quiet[0])
        if quiet and plan.quiet_audit is not None:
            return plan.quiet_audit
        view = self._view(program)
        rows = [None] * len(program.audit_arcs)
        if view.single_pos:
            begin = np.asarray(actual_begin, dtype=np.float64)
            end = np.asarray(actual_end, dtype=np.float64)
            mask = np.asarray(played, dtype=bool)
            source_t = np.where(view.s_beg, begin[view.s_idx],
                                end[view.s_idx])
            dest_t = np.where(view.d_beg, begin[view.d_idx],
                              end[view.d_idx])
            ok = mask[view.s_idx] & mask[view.d_idx]
            base = source_t + view.s_off
            lo = base + view.s_delta
            hi = base + view.s_eps
            under = dest_t < lo
            over = view.s_has_eps & (dest_t > hi)
            viol = np.where(under, dest_t - lo,
                            np.where(over, dest_t - hi, 0.0))
            for (position, valid, arc_actual, arc_violation, low, high,
                 bounded) in zip(view.single_pos, ok.tolist(),
                                 dest_t.tolist(), viol.tolist(),
                                 lo.tolist(), hi.tolist(),
                                 view.s_has_eps.tolist()):
                if valid:
                    rows[position] = (arc_actual, arc_violation, low,
                                      high if bounded else None)
        for (position, src_events, src_begin, dst_events, dst_begin,
             offset_ms, delta_ms, epsilon_ms) in view.multis:
            # Envelope arcs: min/max comparisons carry no rounding, so
            # the values are exact.
            tref = _py_endpoint(src_events, src_begin, actual_begin,
                                actual_end, played)
            if tref is None:
                continue
            arc_actual = _py_endpoint(dst_events, dst_begin, actual_begin,
                                      actual_end, played)
            if arc_actual is None:
                continue
            base_t = tref + offset_ms
            lo_t = base_t + delta_ms
            hi_t = None if epsilon_ms is None else base_t + epsilon_ms
            if arc_actual < lo_t:
                arc_violation = arc_actual - lo_t
            elif hi_t is not None and arc_actual > hi_t:
                arc_violation = arc_actual - hi_t
            else:
                arc_violation = 0.0
            rows[position] = (arc_actual, arc_violation, lo_t, hi_t)
        if quiet:
            plan.quiet_audit = rows
        return rows


def _py_endpoint(events, anchor_begin, actual_begin, actual_end, played):
    """Envelope time of a container endpoint (min begin / max end).

    Mirrors the reference ``_endpoint_time`` exactly — comparisons
    only, so the result is order-insensitive and bit-identical.
    """
    value = None
    if anchor_begin:
        for index in events:
            if played[index]:
                candidate = actual_begin[index]
                if value is None or candidate < value:
                    value = candidate
    else:
        for index in events:
            if played[index]:
                candidate = actual_end[index]
                if value is None or candidate > value:
                    value = candidate
    return value


PYTHON_KERNEL = PythonKernel()
NUMPY_KERNEL = NumpyKernel() if HAVE_NUMPY else None
