"""One benchmark run: set-up, timed phase, checks, one JSON result.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the workload untraced, sets it up afresh and runs it
again with every layer's entry points wrapped (:mod:`cmifbench.tracing`),
then reports the per-layer metrics of the traced run and the tracing
overhead against the untraced one.  Either way the last line of
standard output is the result object; the line before it carries the
run's environment, its workload-specific figures and its digest.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
from pathlib import Path

from repro.faults import parse_fault_plan
from repro.kernel import HAVE_NUMPY, KERNEL_ENV, KERNEL_NUMPY, \
    KERNEL_PYTHON, np
from repro.faults.plan import FAULTS_ENV

from cmifbench import tracing
from cmifbench.measure import NOMINAL_S, Phase, calibrate, clock, \
    peak_rss_mb, percentile
from cmifbench.workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = BENCH_DIR / "out"
DIGESTS = BENCH_DIR / "digests.json"

#: The seed whose digests ``digests.json`` records.
DEFAULT_SEED = 1991
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The latency tail every workload reports: each run of each workload
#: has at least ten samples beyond it.
TAIL = 90

#: (name, unit, better) of the end-to-end metrics, every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_ms.p50", "ms", "lower"),
    (f"latency_ms.p{TAIL}", "ms", "lower"),
)

#: (name, unit, better) of the per-layer metrics of a traced run.
PER_LAYER = (
    ("format.parse_s", "s", "lower"),
    ("format.parse_mb_per_s", "MB/s", "higher"),
    ("core.compile_s", "s", "lower"),
    ("core.compiles", "count", "lower"),
    ("timing.solve_s", "s", "lower"),
    ("timing.solves", "count", "lower"),
    ("timing.schedule_cache.hit_ratio", "ratio", "higher"),
    ("timing.incremental_s", "s", "lower"),
    ("transport.unpack_s", "s", "lower"),
    ("transport.requirements_s", "s", "lower"),
    ("transport.requirements_cache.hit_ratio", "ratio", "higher"),
    ("transport.negotiate_s", "s", "lower"),
    ("transport.negotiations", "count", "higher"),
    ("pipeline.program_s", "s", "lower"),
    ("pipeline.adapt_s", "s", "lower"),
    ("pipeline.navigation_s", "s", "lower"),
    ("pipeline.program_cache.hit_ratio", "ratio", "higher"),
    ("pipeline.replay_s", "s", "lower"),
    ("pipeline.replays", "count", "higher"),
    ("pipeline.replay_events_per_s", "1/s", "higher"),
    ("pipeline.follow_s", "s", "lower"),
    ("pipeline.follows", "count", "higher"),
    ("pipeline.patch_s", "s", "lower"),
    ("pipeline.edits", "count", "higher"),
    ("pipeline.patched_share", "ratio", "higher"),
    ("pipeline.events_touched", "count", "lower"),
    ("kernel.run_s", "s", "lower"),
    ("kernel.audit_s", "s", "lower"),
    ("kernel.plan_s", "s", "lower"),
    ("serving.admit_s", "s", "lower"),
    ("serving.admits", "count", "higher"),
    ("serving.queue_s", "s", "lower"),
    ("serving.queue_steps", "count", "higher"),
    ("serving.blocked_steps", "count", "higher"),
    ("serving.resync_s", "s", "lower"),
    ("store.stream_s", "s", "lower"),
    ("store.reads", "count", "higher"),
    ("store.remote_share", "ratio", "lower"),
    ("store.tracker_s", "s", "lower"),
    ("store.placement_plan_s", "s", "lower"),
    ("store.placement_apply_s", "s", "lower"),
    ("store.placement_moves", "count", "lower"),
    ("store.placement_bytes", "bytes", "lower"),
    ("store.net_ms_per_session", "ms", "lower"),
    ("store.net_bytes_per_session", "bytes", "lower"),
    ("faults.injected", "count", "lower"),
    ("faults.retries", "count", "lower"),
    ("faults.unrecovered", "count", "lower"),
    ("faults.breaker_opens", "count", "lower"),
    ("faults.backoff_ms", "ms", "lower"),
    ("corpus.ingest_s", "s", "lower"),
    ("corpus.docs", "count", "higher"),
    *((f"{layer}.share", "ratio", "lower") for layer in tracing.LAYERS),
    ("unattributed_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)


def kernel_name() -> str:
    """The kernel every workload names: numpy when importable."""
    return KERNEL_NUMPY if HAVE_NUMPY else KERNEL_PYTHON


def environment_record(workload, seed: int, kernel: str) -> dict:
    plan = parse_fault_plan(workload.fault_plan)
    return {"workload": workload.name, "seed": seed, "kernel": kernel,
            "faults": plan.describe() if plan is not None else "off",
            "python": platform.python_version(),
            "numpy": np.__version__ if HAVE_NUMPY else None,
            "nproc": os.cpu_count()}


def run_phase(workload, seconds: float, max_ops: int | None) -> Phase:
    phase = Phase(seconds, min_ops=workload.min_ops, max_ops=max_ops)
    workload.sampling = True
    phase.start()
    workload.run(phase)
    phase.finish()
    workload.sampling = False
    return phase


def ratio(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def workload_detail(workload, phase: Phase) -> dict:
    """The workload's own figures, by the names its description uses."""
    latencies = phase.latencies_ms
    detail = dict(workload.detail)
    detail["error_rate"] = (workload.failed / workload.attempted
                            if workload.attempted else 0.0)
    detail["latency_samples"] = len(latencies)
    detail["raw_throughput_per_s"] = phase.raw_rate
    detail["raw_latency_ms.p50"] = percentile(phase.raw_latencies_ms, 50)
    detail["calibration_us"] = phase.calibration_s * 1e6
    tail = "p99" if len(latencies) >= 1000 else f"p{TAIL}"
    tail_q = 99 if tail == "p99" else TAIL
    if workload.name == "cold-catalog":
        detail["ingest_events_per_s"] = phase.rate
        detail["open_ms.p50"] = percentile(latencies, 50)
        detail[f"open_ms.{tail}"] = percentile(latencies, tail_q)
    elif workload.name == "live-edit":
        detail["sessions_per_s"] = phase.rate
        detail["edit_ms.p50"] = percentile(latencies, 50)
        detail[f"edit_ms.{tail}"] = percentile(latencies, tail_q)
        detail["session_ms.p50"] = percentile(workload.session_ms, 50)
        records = workload.edit_records
        detail["edits_patched"] = sum(1 for record in records
                                      if record.mode == "patched")
        detail["edits"] = len(records)
    else:
        detail["sessions_per_s"] = phase.rate
        detail["session_ms.p50"] = percentile(latencies, 50)
        detail[f"session_ms.{tail}"] = percentile(latencies, tail_q)
    return detail


def layer_metrics(workload, summary: dict, tracer, before: dict,
                  after: dict, overhead: float) -> dict:
    delta = {key: after.get(key, 0) - before.get(key, 0)
             for key in set(before) | set(after)}
    self_s = summary["self_s"]
    calls = summary["calls"]
    values = {metric: sum(self_s.get(name, 0.0) for name in names)
              for metric, names in tracing.SELF_TIME_GROUPS.items()}
    values.update({metric: calls.get(name, 0)
                   for metric, name in tracing.CALL_COUNTS.items()})
    parse_s = values["format.parse_s"]
    values["format.parse_mb_per_s"] = (tracer.parse_bytes / 1e6 / parse_s
                                       if parse_s else 0.0)
    for metric, kind in (("timing.schedule_cache.hit_ratio", "schedule"),
                         ("transport.requirements_cache.hit_ratio",
                          "requirements"),
                         ("pipeline.program_cache.hit_ratio", "program")):
        values[metric] = ratio(delta[f"{kind}_hits"],
                               delta[f"{kind}_misses"])
    replay_s = summary["inclusive_s"].get("pipeline.replay", 0.0)
    values["pipeline.replay_events_per_s"] = (
        delta["events_played"] / replay_s if replay_s else 0.0)
    records = getattr(workload, "edit_records", [])
    values["pipeline.edits"] = len(records)
    values["pipeline.patched_share"] = (
        sum(1 for record in records if record.mode == "patched")
        / len(records) if records else 0.0)
    values["pipeline.events_touched"] = sum(record.events_touched
                                            for record in records)
    values["serving.queue_steps"] = delta["queue_steps"]
    values["serving.blocked_steps"] = delta["blocked_steps"]
    values["store.reads"] = tracer.stream_reads
    values["store.remote_share"] = ratio(delta.get("remote_requests", 0),
                                         delta.get("local_requests", 0))
    values["store.placement_moves"] = delta.get("placement_moves", 0)
    values["store.placement_bytes"] = delta.get("placement_bytes", 0)
    values["store.net_ms_per_session"] = workload.detail.get(
        "net_ms_per_session", 0.0)
    values["store.net_bytes_per_session"] = workload.detail.get(
        "net_bytes_per_session", 0.0)
    values["faults.injected"] = delta["faults_injected"]
    values["faults.retries"] = delta["faults_retries"]
    values["faults.unrecovered"] = delta["faults_unrecovered"]
    values["faults.breaker_opens"] = delta["faults_breaker_opens"]
    values["faults.backoff_ms"] = delta["faults_backoff_ms"]
    values["corpus.docs"] = delta.get("documents_ingested", 0)
    for layer in tracing.LAYERS:
        values[f"{layer}.share"] = summary["layer_share"][layer]
    values["unattributed_share"] = summary["unattributed_share"]
    values["trace.overhead"] = overhead
    return values


def expected_digest(name: str, seed: int, tiny: bool) -> str | None:
    if seed != DEFAULT_SEED or tiny or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text("utf-8")).get(name)


def run(name: str, seed: int, seconds: float, trace: bool, *,
        tiny: bool = False, max_ops: int | None = None,
        trace_file: Path | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result object, detail record)."""
    kernel = kernel_name()
    workdir = OUT_DIR / f"work-{name}-{os.getpid()}"
    factory = WORKLOADS[name]

    def build():
        """A set-up workload, its set-up seconds as measured and at
        nominal speed (calibrated before and after)."""
        workload = factory(seed, kernel=kernel, tiny=tiny, workdir=workdir)
        before = calibrate()
        started = clock()
        workload.setup()
        elapsed = clock() - started
        slowdown = (before + calibrate()) / 2 / NOMINAL_S
        return workload, (elapsed, elapsed / slowdown)

    setups: list[tuple[float, float]] = []
    workload = None
    try:
        repeats = 1 if trace else SETUP_REPEATS
        for _ in range(repeats):
            if workload is not None:
                workload.close()
                workload = None
                gc.collect()
            workload, timing = build()
            setups.append(timing)
        untraced = run_phase(workload, seconds, max_ops)
        phase = untraced
        if trace:
            workload.close()
            workload = None
            gc.collect()
            workload, _timing = build()
            tracer = tracing.Tracer()
            before = workload.counters()
            with tracer:
                phase = run_phase(workload, seconds, max_ops)
            after = workload.counters()
        problems = workload.verify()
        digest = workload.digest.hexdigest()
        expected = expected_digest(name, seed, tiny)
        if expected is not None and digest != expected:
            problems.append(f"digest {digest} differs from the recorded "
                            f"{expected} for seed {seed}")
        figures = workload_detail(workload, phase)
        figures["raw_setup_s"] = statistics.median(raw for raw, _ in setups)
        detail = {"environment": environment_record(workload, seed,
                                                    kernel),
                  "detail": figures, "digest": digest,
                  "problems": problems[:8]}
        if trace:
            summary = tracing.summarize(tracer.spans, phase.wall_s)
            overhead = (untraced.rate / phase.rate - 1.0
                        if phase.rate else 0.0)
            metrics = layer_metrics(workload, summary, tracer, before,
                                    after, overhead)
            units = PER_LAYER
            if trace_file is not None:
                detail["trace_spans"] = tracing.write_chrome_trace(
                    tracer.spans, trace_file, origin=phase.started)
        else:
            metrics = {
                "setup_s": statistics.median(nominal
                                             for _, nominal in setups),
                "peak_rss_mb": peak_rss_mb(),
                "throughput_per_s": phase.rate,
                "latency_ms.p50": percentile(phase.latencies_ms, 50),
                f"latency_ms.p{TAIL}": percentile(phase.latencies_ms,
                                                  TAIL),
            }
            units = END_TO_END
        result = {
            "correct": not problems,
            "attempted": workload.attempted,
            "failed": workload.failed,
            "metrics": {metric: {"value": metrics[metric], "unit": unit}
                        for metric, unit, _better in units},
        }
        return result, detail
    finally:
        if workload is not None:
            workload.close()
        if workdir.exists() and not any(workdir.iterdir()):
            workdir.rmdir()


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one workload of the CMIF serving benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    # Pin what is measured: every workload names its kernel and fault
    # plan, and nothing reachable may pick up an ambient default.
    for variable in (KERNEL_ENV, FAULTS_ENV):
        os.environ.pop(variable, None)
    trace_file = (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
                  if args.trace else None)
    result, detail = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), trace_file=trace_file)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0
