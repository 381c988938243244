"""The benchmark's own tests: tiny runs, determinism, span arithmetic,
the output checker, and a known serving bug reproduced as an expected
failure.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from repro.corpus import make_media_document  # noqa: E402
from repro.faults import RobustnessStats  # noqa: E402
from repro.serving import SessionEngine  # noqa: E402
from repro.transport.environments import WORKSTATION  # noqa: E402

from cmifbench import checks, main, tracing  # noqa: E402
from cmifbench.workloads import WORKLOADS, HotFleet, \
    strip_bounded_arcs  # noqa: E402

#: Operations per tiny run: enough for every check to have material.
TINY_OPS = {"cold-catalog": 3, "hot-fleet": 24, "live-edit": 8,
            "federated-zipf": 32}


def tiny_run(name: str, seed: int, *, trace: bool = False):
    return main.run(name, seed, 60.0, trace, tiny=True,
                    max_ops=TINY_OPS[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_runs_and_verifies(name):
    result, detail = tiny_run(name, 7)
    assert detail["problems"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert [metric for metric in result["metrics"]] \
        == [metric for metric, _, _ in main.END_TO_END]
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(name):
    result, detail = tiny_run(name, 7, trace=True)
    assert result["correct"] is True, detail["problems"]
    metrics = result["metrics"]
    assert list(metrics) == [metric for metric, _, _ in main.PER_LAYER]
    shares = sum(metrics[f"{layer}.share"]["value"]
                 for layer in tracing.LAYERS)
    assert shares + metrics["unattributed_share"]["value"] \
        == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_outcome_other_seed_other_digest(name):
    first, first_detail = tiny_run(name, 11)
    second, second_detail = tiny_run(name, 11)
    other, other_detail = tiny_run(name, 12)
    assert first_detail["digest"] == second_detail["digest"]
    assert (first["attempted"], first["failed"]) \
        == (second["attempted"], second["failed"])
    assert other_detail["digest"] != first_detail["digest"]


def test_self_time_and_unattributed_share_on_a_hand_built_tree():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; child [5, 9];
    # a second root [12, 13]; traced wall time 20.
    spans = [(3, "pipeline.replay_loop", 2.0, 3.0, 2),
             (2, "pipeline.replay", 1.0, 4.0, 1),
             (4, "kernel.run", 5.0, 9.0, 1),
             (1, "serving.queue", 0.0, 10.0, 0),
             (5, "store.stream", 12.0, 13.0, 0)]
    own = tracing.self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0, 5: 1.0}
    summary = tracing.summarize(spans, 20.0)
    assert summary["unattributed_share"] == pytest.approx(9.0 / 20.0)
    assert summary["layer_s"]["pipeline"] == pytest.approx(3.0)
    assert summary["layer_share"]["serving"] == pytest.approx(3.0 / 20.0)
    assert summary["calls"]["pipeline.replay"] == 1
    assert summary["inclusive_s"]["serving.queue"] == pytest.approx(10.0)


def test_tracer_restores_every_wrapped_entry_point():
    from repro.serving.engine import SessionEngine as Engine
    original = Engine.__dict__["admit"]
    with tracing.Tracer():
        assert Engine.__dict__["admit"] is not original
    assert Engine.__dict__["admit"] is original


class _Perturbed:
    """A compact report whose materialized form lost its last event."""

    def __init__(self, report) -> None:
        self.report = report

    def materialize(self):
        played = self.report.materialize()
        played.played = played.played[:-1]
        return played


def test_checker_fails_a_perturbed_report():
    workload = HotFleet(5, kernel=main.kernel_name(), tiny=True)
    workload.setup()
    workload.run(_phase(workload, 24))
    assert workload.recorded, "the tiny run sampled no replays"
    assert workload.verify() == []
    session, replay, kwargs, report, revision = workload.recorded[0]
    workload.recorded[0] = (session, replay, kwargs, _Perturbed(report),
                            revision)
    assert len(checks.check_replays(workload.recorded,
                                    checks.ReferenceCache())) == 1
    unbalanced = RobustnessStats()
    unbalanced.record_fault("block")
    assert checks.check_ledgers({"federation": unbalanced})


def _phase(workload, ops):
    phase = main.Phase(60.0, max_ops=ops)
    workload.sampling = True
    phase.start()
    return phase


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [entry["name"] for entry in spec["workloads"]] \
        == list(WORKLOADS)
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in spec["end_to_end"]] == list(main.END_TO_END)
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in spec["per_layer"]] == list(main.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hot-fleet",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout == ""


# -- the stale degraded schedule ----------------------------------------------
#
# ``SessionEngine._resync`` re-points a live session's schedule, program
# and player after an edit but keeps ``Session._degraded_schedule``, so
# a session that degraded before a live edit replays the pre-edit
# schedule on its next degraded replay.  The federated workload runs
# with ``replay=0`` and the live-edit workload without faults until the
# fix lands; the fix makes the strict expected failure below pass, which
# fails the suite until the marker goes with it.


def _degraded_replays_around_an_edit():
    document = make_media_document(11, events=30, rich=False)
    strip_bounded_arcs(document)
    engine = SessionEngine(seed=3, kernel=main.kernel_name(),
                           faults="seed=1,replay=1.0")
    session = engine.admit(document, WORKSTATION)
    first = session.play()          # degraded: every replay fails over
    compiled_first = session.player.run_one(
        environment=WORKSTATION, rng=session.rng_for(0)).materialize()
    event = engine.schedule_cache.get(document).ordered_events()[0]
    before = session.player.run_one(environment=WORKSTATION,
                                    rng=session.rng_for(1)).materialize()
    engine.apply_edit(document, {"op": "retime",
                                 "path": event.event.node_path,
                                 "duration_ms": event.duration_ms + 750.0},
                      sessions=[session])
    degraded = session.play()
    compiled = session.player.run_one(environment=WORKSTATION,
                                      rng=session.rng_for(1)).materialize()
    return first, compiled_first, before, degraded, compiled


def test_degraded_replay_matches_compiled_before_an_edit():
    first, compiled_first, before, _degraded, compiled = \
        _degraded_replays_around_an_edit()
    assert first == compiled_first
    assert compiled != before, "the edit must change the replay"


@pytest.mark.xfail(strict=True, reason="SessionEngine._resync keeps the "
                   "session's pre-edit degraded schedule")
def test_degraded_replay_after_a_live_edit_matches_compiled():
    _first, _compiled_first, _before, degraded, compiled = \
        _degraded_replays_around_an_edit()
    assert degraded == compiled
