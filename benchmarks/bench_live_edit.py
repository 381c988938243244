"""live_edit — delta-lowering authoring edits into program patches.

PR 8 lets an author edit a document while a serving fleet is hot:
:class:`repro.pipeline.patch.LiveEditor` classifies each edit against
the cached pyramid (schedule -> PlaybackProgram -> per-environment
AdaptationProgram -> NavigationProgram) and lowers timing and arc
edits onto the flat program arrays in place, O(affected events),
instead of recompiling the world.  Structural edits fall back to a
targeted per-level recompile of just the edited document's pyramid.

This bench checks the gate recorded in
``benchmarks/baselines/live_edit.json``:

* **live_edit**: a mixed edit script (16 retimes + 4 arc adds + 4 arc
  removes) against a 1000-event document warmed across 8 environments
  must beat the naive path — re-apply the edit to a twin document and
  rebuild every pyramid level cold (schedule, program, 8 constraint
  plans + adaptations, navigation) — by the baseline factor (>=10x
  wall-clock).  Bit-identity comes first: after both scripts run, the
  patched pyramid must equal the cold compile of the twin, array for
  array, before any timing is compared.

When the ``BENCH_RESULTS`` environment variable names a file, the gate
merges its measurements into that JSON document — CI uploads the
consolidated ``BENCH_results.json`` as an artifact.

Run directly for a small report::

    PYTHONPATH=src python benchmarks/bench_live_edit.py

or through pytest (the CI smoke pass)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_live_edit.py
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import random

from repro.core import edit as core_edit
from repro.core.builder import DocumentBuilder
from repro.core.channels import Medium
from repro.core.syncarc import Anchor, Strictness, SyncArc
from repro.core.timebase import MediaTime
from repro.corpus.generate import (_add_conditional_links,
                                   _media_descriptor)
from repro.pipeline.adaptation import adaptation_for
from repro.pipeline.navprogram import compile_navigation
from repro.pipeline.program import compile_program
from repro.serving import SessionEngine
from repro.timing.schedule import schedule_for
from repro.transport.environments import PERSONAL_SYSTEM, WORKSTATION

from results import record_result

BASELINE_PATH = Path(__file__).parent / "baselines" / "live_edit.json"
BASELINE = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))

LIVE = BASELINE["live_edit"]


def _environments():
    """The 8-environment fleet: the two media-capable profiles plus six
    degraded variants (the silent terminal rejects media documents at
    admission, so it would never hold a cached program to patch)."""
    extras = [
        dataclasses.replace(WORKSTATION, name="wk-jittery", jitter_ms=6.0),
        dataclasses.replace(WORKSTATION, name="wk-slow",
                            bandwidth_bps=2_000_000),
        dataclasses.replace(WORKSTATION, name="wk-mono", audio_channels=1),
        dataclasses.replace(WORKSTATION, name="wk-dim", color_depth=8),
        dataclasses.replace(PERSONAL_SYSTEM, name="ps-crisp", jitter_ms=1.0),
        dataclasses.replace(PERSONAL_SYSTEM, name="ps-wide",
                            screen_width=1024, screen_height=768),
    ]
    environments = [WORKSTATION, PERSONAL_SYSTEM] + extras
    assert len(environments) == LIVE["environments"]
    return environments


def _bench_document(seed: int, *, events: int, links: int):
    """A sectioned 1000-event media document whose solve never drops
    may arcs.

    The random corpus generator attaches *bounded* may arcs whose upper
    bounds contradict long seq chains at this scale; the solver then
    drops them, and a degraded solve correctly refuses incremental
    re-relaxation (every edit would fall back to a full rebuild — the
    thing this bench measures the absence of).  So the bench builds its
    document directly: full media descriptors per leaf (real
    negotiation and filtering work for the 8 environments), forward
    *unbounded* section arcs (always satisfiable, never dropped) and
    conditional hyper-links for the navigation level.
    """
    rng = random.Random(seed)
    media = [medium for medium in Medium if medium is not Medium.PROGRAM]
    builder = DocumentBuilder(f"live-{seed}", root_kind="seq")
    channel_names = {}
    for medium in media:
        name = f"ch-{medium.value}"
        builder.channel(name, medium.value)
        channel_names[medium] = name
    per_section = 10
    serial = 0
    for section in range(events // per_section):
        opener = builder.par if section % 3 == 0 else builder.seq
        with opener(f"sec{section}"):
            for _ in range(per_section):
                medium = rng.choice(media)
                duration_ms = rng.uniform(400.0, 6000.0)
                descriptor = _media_descriptor(
                    rng, f"d{serial}", medium, duration_ms)
                builder.descriptor(descriptor.descriptor_id, descriptor)
                builder.ext(f"e{serial}",
                            file=descriptor.descriptor_id,
                            channel=channel_names[medium])
                serial += 1
    document = builder.build(validate=False)
    sections = events // per_section
    for index in range(0, sections - 1, 7):
        document.root.add_arc(SyncArc(
            source=f"sec{index}", destination=f"sec{index + 1}",
            min_delay=MediaTime.ms(0.0), max_delay=None))
    if links:
        _add_conditional_links(document, random.Random(seed + 1), links)
    return document


def _edit_script(document, leaves):
    """The mixed script: retimes + arc adds + removes of those arcs."""
    script = []
    # Retimes target seq-section leaves: retiming inside a par section
    # can reorder equal-begin siblings, which the patcher's canonical
    # order guard (correctly) answers with a structural fallback — the
    # path this bench is *not* measuring.
    patchable = [path for path in leaves
                 if int(path.split("/")[1][len("sec"):]) % 3 != 0]
    stride = max(1, len(patchable) // LIVE["retimes"])
    for index in range(LIVE["retimes"]):
        script.append({"op": "retime",
                       "path": patchable[(index * stride) % len(patchable)],
                       "duration_ms": float(400 + 37 * index)})
    for index in range(LIVE["arc_adds"]):
        # Forward unbounded arcs (earlier leaf -> later leaf, no upper
        # bound): always satisfiable, so the solver never degrades and
        # every later edit stays on the incremental path.
        first = (29 * index + 3) % (len(leaves) - 1)
        second = len(leaves) - 1 - ((13 * index) % (len(leaves) - first - 1))
        script.append({"op": "add_arc", "owner": "/",
                       "source": leaves[first],
                       "destination": leaves[max(second, first + 1)],
                       "src_anchor": "end", "dst_anchor": "begin",
                       "strictness": "must",
                       "offset_ms": float(10 * index),
                       "max_delay_ms": None})
    base = len(document.root.arcs)
    for index in reversed(range(LIVE["arc_removes"])):
        script.append({"op": "remove_arc", "owner": "/",
                       "index": base + index})
    return script


def _apply_naive(twin, spec) -> None:
    """Mirror one edit spec onto the twin through the core edit ops."""
    op = spec["op"]
    if op == "retime":
        core_edit.retime(twin, spec["path"], spec["duration_ms"])
    elif op == "add_arc":
        core_edit.add_arc(twin, spec["owner"], SyncArc(
            source=spec["source"], destination=spec["destination"],
            src_anchor=Anchor.END, dst_anchor=Anchor.BEGIN,
            strictness=Strictness.MUST,
            offset=MediaTime.ms(spec["offset_ms"]),
            max_delay=None))
    elif op == "remove_arc":
        core_edit.remove_arc(twin, spec["owner"], spec["index"])
    else:                                             # pragma: no cover
        raise AssertionError(f"unknown bench op {op!r}")


def _recompile_cold(twin, environments, *, kernel):
    """The naive per-edit path: every pyramid level, from the document."""
    schedule = schedule_for(twin, kernel=kernel)
    program = compile_program(schedule)
    adaptations = [adaptation_for(schedule, environment)
                   for environment in environments]
    navigation = compile_navigation(schedule)
    return schedule, program, adaptations, navigation


def _assert_program_equal(hot, cold) -> None:
    assert list(hot.begin_ms) == list(cold.begin_ms)
    assert list(hot.end_ms) == list(cold.end_ms)
    assert list(hot.channel_index) == list(cold.channel_index)
    assert hot.node_paths == cold.node_paths
    assert hot._audit_rows == cold._audit_rows


def test_live_edit_speedup():
    """Tentpole acceptance: >=10x mixed edit script, patch vs recompile."""
    environments = _environments()
    document = _bench_document(LIVE["seed"], events=LIVE["events"],
                               links=LIVE["links"])
    twin = _bench_document(LIVE["seed"], events=LIVE["events"],
                           links=LIVE["links"])
    engine = SessionEngine(seed=LIVE["seed"])
    sessions = [engine.admit(document, environment)
                for environment in environments]
    # One interactive session warms the navigation level too.
    sessions.append(engine.admit_interactive(document, environments[0]))
    schedule = engine.schedule_cache.get(document)
    leaves = [event.event.node_path for event in schedule.events]
    script = _edit_script(document, leaves)

    start = time.perf_counter()
    for spec in script:
        engine.apply_edit(document, spec, sessions=sessions)
    patched_s = time.perf_counter() - start

    start = time.perf_counter()
    for spec in script:
        _apply_naive(twin, spec)
        cold = _recompile_cold(twin, environments, kernel=engine.kernel)
    naive_s = time.perf_counter() - start

    # Bit-identity before speed: the patched pyramid equals the last
    # cold rebuild of the twin, level by level.
    cold_schedule, cold_program, cold_adaptations, cold_nav = cold
    editor = engine.editor_for(document)
    hot_base = engine.program_cache.get(editor.schedule)
    _assert_program_equal(hot_base, cold_program)
    for environment, cold_ad in zip(environments, cold_adaptations):
        hot = engine.program_cache.get(editor.schedule,
                                       environment=environment)
        _assert_program_equal(hot, cold_program)
        assert hot.adaptation.descriptor_ids == cold_ad.descriptor_ids
        assert hot.adaptation.actions == cold_ad.actions
        assert hot.adaptation.overrides == cold_ad.overrides
    hot_nav = engine.program_cache.get_derived(editor.schedule, "navigation")
    assert hot_nav is not None
    assert hot_nav.active_from == cold_nav.active_from
    assert hot_nav.active_until == cold_nav.active_until
    assert hot_nav.targets == cold_nav.targets

    stats = editor.stats
    edits = len(script)
    speedup = naive_s / max(patched_s, 1e-12)
    print(f"\n[live_edit] {edits} edits @ {LIVE['events']} events x "
          f"{len(environments)} environments: patched "
          f"{patched_s * 1000:.1f}ms, naive recompile "
          f"{naive_s * 1000:.1f}ms -> {speedup:.1f}x "
          f"(programs {stats.programs_patched}p/"
          f"{stats.programs_recompiled}r)")
    record_result("live_edit", {
        "events": LIVE["events"], "environments": len(environments),
        "edits": edits,
        "patched_ms": round(patched_s * 1000, 2),
        "naive_ms": round(naive_s * 1000, 2),
        "programs_patched": stats.programs_patched,
        "programs_recompiled": stats.programs_recompiled,
        "adaptations_patched": stats.adaptations_patched,
        "navigations_patched": stats.navigations_patched,
        "speedup": round(speedup, 1),
        "floor": LIVE["min_speedup"]})
    assert speedup >= LIVE["min_speedup"], (
        f"live edit patching only {speedup:.1f}x faster than naive "
        f"recompile (baseline floor {LIVE['min_speedup']}x)")


def main():
    test_live_edit_speedup()
    print(f"floors              : live edit {LIVE['min_speedup']}x "
          f"(recorded {LIVE['reference_speedup']}x)")


if __name__ == "__main__":
    main()
