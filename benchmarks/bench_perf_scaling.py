"""perf — parser, writer, scheduler and store scaling.

No absolute numbers appear in the paper; these benches characterize the
reproduction's own subsystems on generated documents from 10 to 2000
events, so regressions are visible and EXPERIMENTS.md can record the
observed complexity (near-linear for parse/write, near-linear for the
two-phase solve on tree-shaped systems).
"""

import pytest

from repro.corpus.generate import make_flat_document, make_random_document
from repro.format.parser import parse_document
from repro.format.writer import write_document
from repro.timing import schedule_document
from repro.timing.constraints import build_constraints
from repro.timing.solver import solve

SIZES = (10, 100, 1000)


@pytest.mark.parametrize("events", SIZES)
def test_perf_schedule_flat(benchmark, events):
    document = make_flat_document(events, channels=5)
    compiled = document.compile()

    schedule = benchmark(schedule_document, compiled)

    assert len(schedule.events) == events
    # Five channels serialize events / 5 deep each.
    assert schedule.total_duration_ms == pytest.approx(
        1000.0 * ((events + 4) // 5), rel=0.01)


@pytest.mark.parametrize("events", SIZES)
def test_perf_solver_only(benchmark, events):
    document = make_flat_document(events, channels=5)
    system = build_constraints(document.compile())

    result = benchmark(solve, system)

    variables, constraints = system.size
    assert len(result.times_ms) == variables
    print(f"\n[perf] {events} events -> {variables} variables, "
          f"{constraints} constraints")


@pytest.mark.parametrize("events", SIZES)
def test_perf_write(benchmark, events):
    document = make_flat_document(events)
    text = benchmark(write_document, document)
    assert len(text) > events * 20


@pytest.mark.parametrize("events", SIZES)
def test_perf_parse(benchmark, events):
    text = write_document(make_flat_document(events))
    document = benchmark(parse_document, text)
    assert document.stats().imm_nodes == events


def test_perf_schedule_random_2000(benchmark):
    """The stress shape: a 2000-event random tree with explicit arcs."""
    document = make_random_document(99, events=2000, channels=8)
    compiled = document.compile()

    schedule = benchmark(schedule_document, compiled)

    assert len(schedule.events) == 2000
    schedule.assert_channel_serialization()


def test_perf_store_query_10k(benchmark):
    """Attribute query rate over a 10k-descriptor store."""
    from repro.core.channels import Medium
    from repro.core.descriptors import DataDescriptor
    from repro.store import DataStore, keyword, run
    store = DataStore("big")
    for index in range(10_000):
        store.register(DataDescriptor(
            f"d{index}", Medium.TEXT,
            attributes={"keywords": (f"topic-{index % 50}", "news"),
                        "characters": index}))

    results = benchmark(run, store, keyword("topic-7"))

    assert len(results) == 200
