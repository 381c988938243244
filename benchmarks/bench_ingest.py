"""ingest — cold-path scheduling throughput of the compiled graph.

PRs 1-3 made warm paths fast (edit re-solves, indexed queries, batch
replays); corpus ingest is the cold path: every document pays parse →
compile → constraint build → solve → program once, with no cache to
help.  The seed pipeline pays it in object form — interned ``TimeVar``
dataclasses, eagerly formatted ``Constraint`` notes, and a FIFO cleanup
whose positive-cycle certificate only fires after |V| re-relaxations of
one variable, which on conflicted documents means seconds of cycle
pumping before the first may constraint can even be dropped.

The compiled graph engine (:mod:`repro.timing.graph`) lowers the same
semantics straight onto the solver's row layout, solved with a ranked
cleanup and an early cycle certificate.  The retired object-form solver
(``tests/oracles/solver.py``) supplies both comparison paths.  This
bench checks the gates recorded in ``benchmarks/baselines/ingest.json``:

* **cold_schedule**: scheduling 1000-event corpus documents through the
  graph engine must beat the pre-graph path — object constraint build +
  the retired ``solve(cleanup="fifo")``, the exact pre-graph algorithm,
  kept for this comparison the way the batch player keeps
  ``play_reference`` — by the baseline factor (>=5x).  The graph
  schedules must be bit-identical to the retired ranked ``solve()``,
  an independent implementation of the same semantics.  The figures go
  to ``$BENCH_RESULTS``;
* **ingest_smoke**: the end-to-end ingest engine over a generated
  corpus must come back failure-free with both serving caches warmed;
* **parse**: on the smoke corpus's texts, the one-pass reader behind
  ``parse_document`` must beat the retired token-stream reader
  (``tests/oracles/reader.py``), timed in the same process, by the
  baseline factor (>=1.5x), building identical trees.  Both MB/s
  figures go to ``$BENCH_RESULTS``;
* **compile**: on the smoke corpus plus packed media documents, the
  one-pass ``CmifDocument.compile`` must beat the retired leaf-by-leaf
  compile (``tests/oracles/compile.py``), timed in the same process, by
  the baseline factor (>=1.5x), building identical events.  Both
  microseconds-per-event figures go to ``$BENCH_RESULTS``;
* **write**: on the smoke corpus plus media documents, the one-pass
  writer behind ``write_document`` must beat the retired printer
  (``tests/oracles/writer.py``), timed in the same process, by the
  baseline factor (>=1.5x), writing identical text.  Both MB/s figures
  go to ``$BENCH_RESULTS``;
* **cold_wrap**: on the compile gate's documents, compile → graph →
  solve → wrap through ``schedule_document(engine="graph")`` (the
  lowering reads the compile's preorder, rows carry no tuples and the
  times stay dense) must beat the same steps through the retired
  lowering and its dict result (``tests/oracles/graph.py``) wrapped by
  ``make_schedule``, timed in the same process, by the baseline factor
  (>=1.25x), building identical schedules.  Both
  microseconds-per-event figures go to ``$BENCH_RESULTS``;
* **cold_open_cycles**: opening the compile gate's packed media
  documents through ``unpack`` and ``SessionEngine.admit`` on the three
  era profiles, then dropping everything, must leave no object that
  only the cyclic collector frees (an exact count, so timing noise
  cannot flake it): parent links are weak, and values sit in the
  attribute lists bare.

Run directly for a small report::

    PYTHONPATH=src python benchmarks/bench_ingest.py

or through pytest (the CI smoke pass)::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_ingest.py
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path

from repro.corpus import generate_corpus, ingest_corpus, \
    make_media_document, make_random_document
from repro.format import parse_document, write_document
from repro.serving import SessionEngine
from repro.transport import PROFILES, pack, unpack
from repro.timing import (ENGINE_GRAPH, build_constraints, compile_graph,
                          make_schedule, schedule_document, solve_graph)

from results import record_result

# The retired implementations are test oracles, importable from the
# checkout root, which a direct ``python benchmarks/bench_ingest.py``
# lacks.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles import compile as retired_compile  # noqa: E402
from tests.oracles import graph as retired_graph  # noqa: E402
from tests.oracles import reader as retired_reader  # noqa: E402
from tests.oracles import solver as retired_solver  # noqa: E402
from tests.oracles import writer as retired_writer  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "baselines" / "ingest.json"
BASELINE = json.loads(BASELINE_PATH.read_text(encoding="utf-8"))

COLD = BASELINE["cold_schedule"]
SMOKE = BASELINE["ingest_smoke"]
PARSE = BASELINE["parse"]
COMPILE = BASELINE["compile"]
WRITE = BASELINE["write"]
COLD_WRAP = BASELINE["cold_wrap"]


def _corpus_documents():
    """The gated corpus: 1000-event random documents (bounded may arcs
    included, so some documents need relaxation retries — the realistic
    catalog mix, and exactly where the pre-graph path collapses)."""
    return [(seed, make_random_document(seed, events=COLD["events"]))
            for seed in COLD["seeds"]]


def _schedule_pre_pr(compiled):
    """The pre-PR cold path: object build + FIFO-cleanup solve."""
    system = build_constraints(compiled)
    return make_schedule(compiled,
                         retired_solver.solve(system, cleanup="fifo"))


def _schedule_reference(compiled):
    """The retired object-form ranked solve — the bit-identity
    reference, and a context line."""
    system = build_constraints(compiled)
    return make_schedule(compiled, retired_solver.solve(system))


def _schedule_graph(compiled):
    """The compiled-graph cold path."""
    graph = compile_graph(compiled)
    return make_schedule(compiled, solve_graph(graph))


def _assert_identical(mine, theirs) -> None:
    """Bit-identity: the invariant pinning graph vs ranked reference."""
    assert mine.times_ms == theirs.times_ms
    assert ([str(event) for event in mine.events]
            == [str(event) for event in theirs.events])
    assert ([c.describe() for c in mine.dropped_constraints]
            == [c.describe() for c in theirs.dropped_constraints])


def test_cold_schedule_throughput():
    """Tentpole acceptance: >=5x cold scheduling vs the pre-PR path.

    The graph schedule must be bit-identical to the retired object
    solver's ranked cleanup.  The pre-graph FIFO path is the timing
    baseline only: on documents needing may relaxation it can certify a
    different (equally valid) cycle and therefore drop a different may
    constraint, so it is held to the weaker contract of producing a
    complete schedule — and, when it dropped nothing, the same times.
    """
    documents = _corpus_documents()
    pre_pr_s = 0.0
    ranked_s = 0.0
    graph_s = 0.0
    events = 0
    for seed, document in documents:
        compiled = document.compile()
        start = time.perf_counter()
        baseline_schedule = _schedule_pre_pr(compiled)
        pre_pr_s += time.perf_counter() - start
        start = time.perf_counter()
        reference_schedule = _schedule_reference(compiled)
        ranked_s += time.perf_counter() - start
        start = time.perf_counter()
        graph_schedule = _schedule_graph(compiled)
        graph_s += time.perf_counter() - start
        _assert_identical(graph_schedule, reference_schedule)
        assert len(baseline_schedule.events) == len(graph_schedule.events)
        if not baseline_schedule.dropped_constraints:
            assert baseline_schedule.times_ms == graph_schedule.times_ms
        events += len(graph_schedule.events)

    speedup = pre_pr_s / max(graph_s, 1e-12)
    docs_per_s = len(documents) / max(graph_s, 1e-12)
    print(f"\n[ingest] cold schedule @ {events} events over "
          f"{len(documents)} docs: pre-PR {pre_pr_s * 1000:.0f}ms, "
          f"ranked reference {ranked_s * 1000:.0f}ms, graph "
          f"{graph_s * 1000:.0f}ms ({docs_per_s:.1f} docs/s) "
          f"-> {speedup:.0f}x vs pre-PR, "
          f"{ranked_s / max(graph_s, 1e-12):.1f}x vs ranked")
    record_result("cold_schedule", {
        "documents": len(documents),
        "events": events,
        "pre_pr_s": round(pre_pr_s, 4),
        "ranked_reference_s": round(ranked_s, 4),
        "graph_s": round(graph_s, 4),
        "docs_per_s": round(docs_per_s, 2),
        "speedup": round(speedup, 2),
        "min_speedup": COLD["min_speedup"],
    })
    assert speedup >= COLD["min_speedup"], (
        f"graph cold scheduling only {speedup:.1f}x faster than the "
        f"pre-PR reference path (baseline floor {COLD['min_speedup']}x)")


def test_ingest_smoke(tmp_path):
    """End-to-end engine: generated corpus in, warmed caches out."""
    directory = tmp_path / "corpus"
    generate_corpus(directory, documents=SMOKE["documents"],
                    events=SMOKE["events"])
    report = ingest_corpus(directory)
    assert not report.failures, report.failures
    assert report.document_count == SMOKE["documents"]
    assert len(report.schedule_cache) == report.document_count
    assert len(report.program_cache) == report.document_count
    docs_per_s = report.document_count / max(report.wall_seconds, 1e-12)
    print(f"\n[ingest] pipeline: {report.document_count} docs, "
          f"{report.total_events} events in "
          f"{report.wall_seconds * 1000:.0f}ms ({docs_per_s:.1f} docs/s)")
    for stage in ("parse", "compile", "solve", "program"):
        docs, events_per_s = report.stage_throughput(stage)
        print(f"  {stage:<8} {report.stage_seconds[stage] * 1000:7.1f}ms "
              f"({events_per_s:,.0f} events/s)")


def _seconds(read, texts) -> float:
    start = time.perf_counter()
    for text in texts:
        read(text)
    return time.perf_counter() - start


def test_parse_throughput(tmp_path):
    """The one-pass reader vs the retired one: >=1.5x, same trees."""
    paths = generate_corpus(tmp_path / "corpus",
                            documents=SMOKE["documents"],
                            events=SMOKE["events"])
    texts = [path.read_text(encoding="utf-8") for path in paths]
    for text in texts:
        assert write_document(parse_document(text)) \
            == write_document(retired_reader.parse_document(text))
    megabytes = sum(len(text.encode("utf-8")) for text in texts) / 1e6
    retired_s = reader_s = float("inf")
    for _ in range(PARSE["rounds"]):     # interleaved: same machine state
        retired_s = min(retired_s,
                        _seconds(retired_reader.parse_document, texts))
        reader_s = min(reader_s, _seconds(parse_document, texts))
    speedup = retired_s / max(reader_s, 1e-12)
    print(f"\n[ingest] parse {megabytes:.2f} MB: retired reader "
          f"{megabytes / retired_s:.2f} MB/s, one-pass reader "
          f"{megabytes / reader_s:.2f} MB/s -> {speedup:.2f}x")
    record_result("parse", {
        "megabytes": round(megabytes, 4),
        "retired_mb_per_s": round(megabytes / retired_s, 3),
        "reader_mb_per_s": round(megabytes / reader_s, 3),
        "speedup": round(speedup, 3),
        "min_speedup": PARSE["min_speedup"],
    })
    assert speedup >= PARSE["min_speedup"], (
        f"the one-pass reader is only {speedup:.2f}x faster than the "
        f"retired one (baseline floor {PARSE['min_speedup']}x)")


def _event_rows(compiled) -> list[tuple]:
    return [(event.event_id, event.node_path, event.channel, event.medium,
             event.duration_ms, id(event.descriptor), event.slice_,
             event.attributes) for event in compiled.events]


def _compile_documents(tmp_path) -> list:
    """The smoke corpus's documents plus unpacked media packages."""
    paths = generate_corpus(tmp_path / "corpus",
                            documents=SMOKE["documents"],
                            events=SMOKE["events"])
    documents = [parse_document(path.read_text(encoding="utf-8"))
                 for path in paths]
    return documents + [unpack(pack(make_media_document(
        seed, events=COMPILE["package_events"], links=4))).document
        for seed in range(COMPILE["packages"])]


def test_compile_throughput(tmp_path):
    """The one-pass compile vs the retired one: >=1.5x, same events."""
    documents = _compile_documents(tmp_path)
    for document in documents:
        assert _event_rows(document.compile()) \
            == _event_rows(retired_compile.compile_document(document))
    events = sum(len(document.compile().events) for document in documents)
    retired_s = compile_s = float("inf")
    for _ in range(COMPILE["rounds"]):   # interleaved: same machine state
        retired_s = min(retired_s, _seconds(
            retired_compile.compile_document, documents))
        compile_s = min(compile_s, _seconds(
            lambda document: document.compile(), documents))
    speedup = retired_s / max(compile_s, 1e-12)
    print(f"\n[ingest] compile {events} events over {len(documents)} "
          f"docs: retired {retired_s / events * 1e6:.2f} us/event, "
          f"one-pass {compile_s / events * 1e6:.2f} us/event "
          f"-> {speedup:.2f}x")
    record_result("compile", {
        "documents": len(documents),
        "events": events,
        "retired_us_per_event": round(retired_s / events * 1e6, 3),
        "compile_us_per_event": round(compile_s / events * 1e6, 3),
        "speedup": round(speedup, 3),
        "min_speedup": COMPILE["min_speedup"],
    })
    assert speedup >= COMPILE["min_speedup"], (
        f"the one-pass compile is only {speedup:.2f}x faster than the "
        f"retired one (baseline floor {COMPILE['min_speedup']}x)")


def _retired_cold_wrap(document):
    compiled = document.compile()
    result = retired_graph.solve_graph(retired_graph.compile_graph(compiled))
    return make_schedule(compiled, result)


def _cold_wrap(document):
    return schedule_document(document.compile(), engine=ENGINE_GRAPH)


def test_cold_wrap_speedup(tmp_path):
    """One walk per cold solve vs the retired lowering: >=1.25x, same
    schedules."""
    documents = _compile_documents(tmp_path)
    for document in documents:
        _assert_identical(_cold_wrap(document), _retired_cold_wrap(document))
    events = sum(len(document.compile().events) for document in documents)
    retired_s = wrap_s = float("inf")
    for _ in range(COLD_WRAP["rounds"]):  # interleaved: same machine state
        retired_s = min(retired_s, _seconds(_retired_cold_wrap, documents))
        wrap_s = min(wrap_s, _seconds(_cold_wrap, documents))
    speedup = retired_s / max(wrap_s, 1e-12)
    print(f"\n[ingest] cold wrap {events} events over {len(documents)} "
          f"docs: retired {retired_s / events * 1e6:.2f} us/event, "
          f"one walk {wrap_s / events * 1e6:.2f} us/event "
          f"-> {speedup:.2f}x")
    record_result("cold_wrap", {
        "documents": len(documents),
        "events": events,
        "retired_us_per_event": round(retired_s / events * 1e6, 3),
        "wrap_us_per_event": round(wrap_s / events * 1e6, 3),
        "speedup": round(speedup, 3),
        "min_speedup": COLD_WRAP["min_speedup"],
    })
    assert speedup >= COLD_WRAP["min_speedup"], (
        f"the one-walk cold solve is only {speedup:.2f}x faster than the "
        f"retired lowering (baseline floor {COLD_WRAP['min_speedup']}x)")


def test_write_throughput(tmp_path):
    """The one-pass writer vs the retired one: >=1.5x, same text."""
    paths = generate_corpus(tmp_path / "corpus",
                            documents=SMOKE["documents"],
                            events=SMOKE["events"])
    documents = [parse_document(path.read_text(encoding="utf-8"))
                 for path in paths]
    documents += [make_media_document(seed, events=WRITE["media_events"],
                                      links=4, rich=seed % 2 == 0)
                  for seed in range(WRITE["media_documents"])]
    texts = [write_document(document) for document in documents]
    assert texts == [retired_writer.write_document(document)
                     for document in documents]
    megabytes = sum(len(text.encode("utf-8")) for text in texts) / 1e6
    retired_s = writer_s = float("inf")
    for _ in range(WRITE["rounds"]):     # interleaved: same machine state
        retired_s = min(retired_s, _seconds(
            retired_writer.write_document, documents))
        writer_s = min(writer_s, _seconds(write_document, documents))
    speedup = retired_s / max(writer_s, 1e-12)
    print(f"\n[ingest] write {megabytes:.2f} MB over {len(documents)} "
          f"docs: retired writer {megabytes / retired_s:.2f} MB/s, "
          f"one-pass writer {megabytes / writer_s:.2f} MB/s "
          f"-> {speedup:.2f}x")
    record_result("write", {
        "documents": len(documents),
        "megabytes": round(megabytes, 4),
        "retired_mb_per_s": round(megabytes / retired_s, 3),
        "writer_mb_per_s": round(megabytes / writer_s, 3),
        "speedup": round(speedup, 3),
        "min_speedup": WRITE["min_speedup"],
    })
    assert speedup >= WRITE["min_speedup"], (
        f"the one-pass writer is only {speedup:.2f}x faster than the "
        f"retired one (baseline floor {WRITE['min_speedup']}x)")


def _open_and_admit(packages) -> None:
    engine = SessionEngine(seed=3)
    for package in packages:
        document = unpack(package).document
        for environment in PROFILES:
            engine.admit(document, environment)


def test_cold_open_leaves_no_cycles():
    """Cold opens and admissions leave nothing for the cyclic collector."""
    packages = [pack(make_media_document(
        seed, events=COMPILE["package_events"], links=4))
        for seed in range(COMPILE["packages"])]
    _open_and_admit(packages)     # first-call caches are not garbage
    gc.collect()
    gc.disable()
    try:
        _open_and_admit(packages)
    finally:
        unreachable = gc.collect()
        gc.enable()
    print(f"\n[ingest] cold open of {len(packages)} packages on "
          f"{len(PROFILES)} profiles: {unreachable} cyclic objects")
    record_result("cold_open_cycles", {
        "packages": len(packages),
        "profiles": len(PROFILES),
        "unreachable": unreachable,
    })
    assert unreachable == 0, (
        f"a cold open left {unreachable} objects that only the cyclic "
        f"collector frees")


def main():
    test_cold_schedule_throughput()
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        test_ingest_smoke(Path(scratch))
    with tempfile.TemporaryDirectory() as scratch:
        test_parse_throughput(Path(scratch))
    with tempfile.TemporaryDirectory() as scratch:
        test_compile_throughput(Path(scratch))
    with tempfile.TemporaryDirectory() as scratch:
        test_cold_wrap_speedup(Path(scratch))
    with tempfile.TemporaryDirectory() as scratch:
        test_write_throughput(Path(scratch))
    test_cold_open_leaves_no_cycles()
    print(f"floor               : {COLD['min_speedup']}x "
          f"(recorded reference {COLD['reference_speedup']}x)")


if __name__ == "__main__":
    main()
