"""Tests for deterministic fault injection and recovery (repro.faults).

The layer's contract has three parts, and each gets its section here:

* the *plan* is a pure function — same seed, same faults, predictable
  by tests (``TestFaultPlan``, ``TestRecoveryPrimitives``);
* every recovery path masks its faults without changing results —
  federation failover, ingest retry/quarantine, crash re-sharding and
  degraded serving all pin their outputs to the fault-free run
  (``TestFederationRecovery``, ``TestIngestFaults``,
  ``TestCrashRecovery``, ``TestServingDegradation``,
  ``TestUnpackFaults``);
* the :class:`RobustnessStats` ledger balances — ``total_faults ==
  recovered + unrecovered + absorbed`` — on every path
  (``TestRobustnessLedger``).
"""

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from types import SimpleNamespace

import pytest

from repro.core.errors import (CmifError, SchedulingConflict, StoreError,
                               TransportError)
from repro.corpus import generate_corpus, ingest_corpus
from repro.corpus.ingest import (CATEGORY_INFRASTRUCTURE,
                                 CATEGORY_PARSE_ERROR,
                                 CATEGORY_SOLVE_CONFLICT, classify_failure)
from repro.faults import (FAULTS_ENV, STANDARD_PLAN_SPEC, CircuitBreaker,
                          FaultClock, FaultInjected, FaultPlan, RetryPolicy,
                          RobustnessStats, corrupt_block, parse_fault_plan,
                          resolve_faults, run_sharded)
from repro.pipeline.capture import CaptureSession
from repro.serving import SessionEngine
from repro.store import DataStore, FederatedStore, NetworkModel, Site
from repro.transport.environments import PROFILES
from repro.transport.package import pack, unpack


@pytest.fixture(autouse=True)
def _isolated_fault_env(monkeypatch):
    """These tests build their plans explicitly; the CI chaos matrix
    (ambient ``REPRO_FAULTS``) must not leak into their ledgers."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)


def seed_where(predicate, *, limit: int = 500) -> FaultPlan:
    """The first seed whose plan satisfies ``predicate`` — fault plans
    are pure functions of the seed, so tests *search* for the scenario
    they need instead of mocking randomness."""
    for seed in range(limit):
        plan = predicate(seed)
        if plan is not None:
            return plan
    raise AssertionError(f"no seed under {limit} fits the scenario")


def transient_plan(kind_rate: str, kind: str, key, *, rate: float = 0.5,
                   **extra) -> FaultPlan:
    """A plan where ``kind`` fires on ``key`` at attempt 0 but not 1."""
    def fits(seed):
        plan = FaultPlan(seed=seed, **{kind_rate: rate}, **extra)
        if plan.fires(rate, kind, key, 0) \
                and not plan.fires(rate, kind, key, 1):
            return plan
        return None
    return seed_where(fits)


class TestFaultPlan:
    def test_fires_is_deterministic_and_rate_bounded(self):
        plan = FaultPlan(seed=42, block_failure_rate=0.3)
        draws = [plan.fires(0.3, "block", f"key-{n}") for n in range(400)]
        assert draws == [plan.fires(0.3, "block", f"key-{n}")
                         for n in range(400)]
        hit_rate = sum(draws) / len(draws)
        assert 0.15 < hit_rate < 0.45
        assert not any(plan.fires(0.0, "block", f"key-{n}")
                       for n in range(50))
        assert all(plan.fires(1.0, "block", f"key-{n}")
                   for n in range(50))

    def test_seed_changes_the_draw(self):
        keys = [f"key-{n}" for n in range(200)]
        a = [FaultPlan(seed=1).fires(0.5, "k", key) for key in keys]
        b = [FaultPlan(seed=2).fires(0.5, "k", key) for key in keys]
        assert a != b

    def test_flap_windows_and_down_sites(self):
        plan = FaultPlan(seed=0, down_sites=("dead",),
                         flap_sites=("flappy",), flap_period=4)
        assert all(plan.site_down("dead", tick) for tick in range(20))
        assert [plan.site_down("flappy", tick) for tick in range(8)] \
            == [False] * 4 + [True] * 4
        assert not any(plan.site_down("healthy", tick)
                       for tick in range(20))

    def test_clock_ticks_monotonically(self):
        clock = FaultClock()
        assert [clock.tick() for _ in range(3)] == [0, 1, 2]
        assert clock.now == 3

    def test_crashes_worker_names_the_crash_shards(self):
        plan = FaultPlan(seed=1, crash_shards=(0, 2))
        assert plan.crashes_worker(0) and plan.crashes_worker(2)
        assert not plan.crashes_worker(1)

    def test_corrupt_block_changes_checksum(self):
        from repro.media import make_text_block
        block, _ = make_text_block("payload/x",
                                   text="hello fault world",
                                   keywords=("x",))
        mangled = corrupt_block(block)
        assert mangled.checksum() != block.checksum()
        assert mangled.block_id == block.block_id

    def test_parse_csv_spec(self):
        plan = parse_fault_plan("seed=7,down=a+b,flap=c,period=5,"
                                "blocks=0.25,crash=1+3")
        assert plan.seed == 7
        assert plan.down_sites == ("a", "b")
        assert plan.flap_sites == ("c",)
        assert plan.flap_period == 5
        assert plan.block_failure_rate == 0.25
        assert plan.crash_shards == (1, 3)

    def test_parse_off_none_and_passthrough(self):
        assert parse_fault_plan(None) is None
        assert parse_fault_plan("off") is None
        assert parse_fault_plan("") is None
        assert parse_fault_plan("0") is None
        plan = FaultPlan(seed=3)
        assert parse_fault_plan(plan) is plan

    def test_parse_standard_named_plan(self):
        assert parse_fault_plan("standard") \
            == parse_fault_plan(STANDARD_PLAN_SPEC)

    def test_parse_json_inline_and_file(self, tmp_path):
        obj = {"seed": 9, "flap_sites": ["site-1"],
               "block_failure_rate": 0.1}
        inline = parse_fault_plan(json.dumps(obj))
        assert inline.seed == 9 and inline.flap_sites == ("site-1",)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert parse_fault_plan(str(path)) == inline
        assert parse_fault_plan(obj) == inline

    def test_parse_rejects_unknown_keys_and_bad_values(self):
        with pytest.raises(CmifError, match="unknown fault plan key"):
            parse_fault_plan("seed=1,frobnicate=2")
        with pytest.raises(CmifError, match="bad fault plan value"):
            parse_fault_plan("blocks=lots")
        with pytest.raises(CmifError, match="key=value"):
            parse_fault_plan("justaword")
        with pytest.raises(CmifError, match="unknown fault plan fields"):
            parse_fault_plan({"seed": 1, "nope": 2})

    def test_resolve_faults_env_default(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert resolve_faults(None) is None
        monkeypatch.setenv(FAULTS_ENV, "seed=4,ingest=0.1")
        plan = resolve_faults(None)
        assert plan.seed == 4 and plan.ingest_failure_rate == 0.1
        explicit = FaultPlan(seed=8)
        assert resolve_faults(explicit) is explicit
        assert resolve_faults("off") is None


class TestRecoveryPrimitives:
    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(backoff_base_ms=5.0, backoff_factor=2.0)
        assert [policy.backoff_ms(n) for n in range(3)] \
            == [5.0, 10.0, 20.0]

    def test_gives_up_on_attempts_and_deadline(self):
        policy = RetryPolicy(max_attempts=3, deadline_ms=100.0)
        assert not policy.gives_up(2, 0.0)
        assert policy.gives_up(3, 0.0)
        assert policy.gives_up(1, 100.0)

    def test_breaker_opens_shorts_probes_and_closes(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_ticks=4)
        assert breaker.allow(0) == (True, False)
        assert not breaker.record_failure(0)
        assert breaker.record_failure(1)          # second failure opens
        assert breaker.allow(2) == (False, False)  # short inside cooldown
        allowed, probe = breaker.allow(6)          # half-open probe
        assert allowed and probe
        assert breaker.record_success()            # probe success closes
        assert breaker.allow(7) == (True, False)

    def test_breaker_probe_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ticks=3)
        breaker.record_failure(0)
        assert breaker.allow(1)[0] is False
        allowed, probe = breaker.allow(4)
        assert allowed and probe
        breaker.record_failure(4)
        assert breaker.allow(5)[0] is False


def make_site(name, captures, seed=0):
    store = DataStore(name)
    session = CaptureSession(store=store, seed=seed)
    for file_id, keywords in captures:
        session.capture_text(file_id, keywords=keywords)
    return Site(name=name, store=store,
                network=NetworkModel(latency_ms=10.0))


def replicated_federation(faults, retry=None):
    """site-1 and site-2 both hold every remote capture."""
    local = make_site("site-0", [])
    primary = make_site("site-1", [("r/story", ("news",)),
                                   ("r/clip", ("art",))], seed=1)
    replica = make_site("site-2", [], seed=2)
    for file_id in ("r/story", "r/clip"):
        replica.store.register(primary.store.descriptor(file_id),
                               primary.store.block_for(file_id))
    return FederatedStore(local, [primary, replica], faults=faults,
                          retry=retry)


class TestFederationRecovery:
    def test_transient_block_failure_retried(self):
        plan = transient_plan("block_failure_rate", "block", "r/story")
        plain = replicated_federation(None)
        faulted = replicated_federation(plan)
        assert faulted.block_for("r/story").materialize() \
            == plain.block_for("r/story").materialize()
        ledger = faulted.traffic.robustness
        assert ledger.faults_injected.get("block", 0) >= 1
        assert ledger.retries >= 1
        assert ledger.recovered >= 1 and ledger.unrecovered == 0
        assert ledger.backoff_ms > 0
        assert faulted.traffic.simulated_ms > plain.traffic.simulated_ms
        assert ledger.balanced()

    def test_down_site_fails_over_to_replica(self):
        plan = FaultPlan(seed=0, down_sites=("site-1",))
        faulted = replicated_federation(
            plan, retry=RetryPolicy(max_attempts=2))
        block = faulted.block_for("r/story")
        assert block.materialize() \
            == replicated_federation(None).block_for(
                "r/story").materialize()
        ledger = faulted.traffic.robustness
        assert ledger.failovers >= 1
        assert ledger.unrecovered == 0
        assert ledger.balanced()

    def test_unreplicated_down_site_is_unrecoverable(self):
        local = make_site("site-0", [])
        only = make_site("site-1", [("solo/x", ("news",))], seed=3)
        store = FederatedStore(
            local, [only], faults=FaultPlan(seed=0,
                                            down_sites=("site-1",)),
            retry=RetryPolicy(max_attempts=2))
        with pytest.raises(StoreError, match="unreachable"):
            store.descriptor("solo/x")
        ledger = store.traffic.robustness
        assert ledger.unrecovered >= 1
        assert ledger.balanced()

    def test_breaker_opens_and_shorts_under_permanent_outage(self):
        local = make_site("site-0", [])
        only = make_site("site-1", [("solo/x", ("news",))], seed=3)
        store = FederatedStore(
            local, [only], faults=FaultPlan(seed=0,
                                            down_sites=("site-1",)),
            retry=RetryPolicy(max_attempts=2))
        for _ in range(6):
            with pytest.raises(StoreError):
                store.descriptor("solo/x")
        ledger = store.traffic.robustness
        assert ledger.breaker_opens >= 1
        assert ledger.breaker_shorts >= 1
        assert ledger.balanced()
        # Shorts are local refusals, not faults: ledger still balances
        # with every *injected* outage accounted.
        assert ledger.total_faults \
            == ledger.recovered + ledger.unrecovered + ledger.absorbed

    def test_latency_spikes_are_absorbed(self):
        plan = seed_where(
            lambda seed: (lambda p: p if p.fires(
                0.9, "latency", ("site-1", "r/story"), 0) else None)(
                FaultPlan(seed=seed, latency_rate=0.9)))
        faulted = replicated_federation(plan)
        plain = replicated_federation(None)
        assert faulted.block_for("r/story").materialize() \
            == plain.block_for("r/story").materialize()
        ledger = faulted.traffic.robustness
        assert ledger.absorbed >= 1
        assert ledger.unrecovered == 0
        assert ledger.balanced()
        assert faulted.traffic.simulated_ms > plain.traffic.simulated_ms

    def test_corrupt_delivery_rejected_by_checksum_and_retried(self):
        plan = transient_plan("block_corrupt_rate", "block-corrupt",
                              "r/clip")
        faulted = replicated_federation(plan)
        assert faulted.block_for("r/clip").materialize() \
            == replicated_federation(None).block_for(
                "r/clip").materialize()
        ledger = faulted.traffic.robustness
        assert ledger.checksum_rejects >= 1
        assert ledger.faults_injected.get("block-corrupt", 0) >= 1
        assert ledger.unrecovered == 0
        assert ledger.balanced()

    def test_corrupt_delivery_rejected_on_every_read(self, monkeypatch):
        import repro.core.descriptors as descriptors

        digests = []

        def sha256(data):
            digests.append(len(data))
            return hashlib.sha256(data)

        monkeypatch.setattr(descriptors, "hashlib",
                            SimpleNamespace(sha256=sha256))
        plan = transient_plan("block_corrupt_rate", "block-corrupt",
                              "r/clip")
        faulted = replicated_federation(plan)
        source = faulted.site("site-1").store.block_for("r/clip")
        ledger = faulted.traffic.robustness
        for read in range(1, 5):
            before = len(digests)
            assert faulted.block_for("r/clip") is source
            # Every read's first delivery is corrupt and rejected; the
            # source digest is computed once, then only each damaged
            # copy is hashed, in full.
            assert ledger.checksum_rejects == read
            assert digests[before:] == ([source.size_bytes] * 2
                                        if read == 1
                                        else [source.size_bytes])
        assert ledger.unrecovered == 0
        assert ledger.balanced()

    def test_stale_summary_fallback_marks_partial_honestly(self):
        from repro.store import MatchesAttr
        plan = FaultPlan(seed=0, flap_sites=("site-1",), flap_period=1)
        store = replicated_federation(
            plan, retry=RetryPolicy(max_attempts=1))
        site1 = next(site for site in store.remotes
                     if site.name == "site-1")
        # Warm the summaries, then keep *writing* to site-1 (bumping
        # its version, so each search needs a summary refresh) while it
        # flaps: a refresh that lands on a down tick falls back to the
        # stale cached summary, which still answers the query.
        baseline = {d.descriptor_id for d in store.find_where(
            MatchesAttr("medium", "text"))}
        stale_outcomes = 0
        writer = CaptureSession(store=site1.store, seed=9)
        for round_index in range(8):
            writer.capture_text(f"r/extra-{round_index}",
                                keywords=("news",))
            outcome = store.find_where_detailed(
                MatchesAttr("medium", "text"))
            assert {d.descriptor_id
                    for d in outcome.descriptors} >= baseline
            if "site-1" in outcome.stale_sites:
                assert outcome.partial
                stale_outcomes += 1
        ledger = store.traffic.robustness
        assert stale_outcomes >= 1
        assert ledger.stale_summaries >= 1
        assert ledger.balanced()

    def test_cold_down_site_yields_partial_outcome(self):
        from repro.store import MatchesAttr
        local = make_site("site-0", [])
        only = make_site("site-1", [("solo/x", ("news",))], seed=3)
        store = FederatedStore(
            local, [only], faults=FaultPlan(seed=0,
                                            down_sites=("site-1",)),
            retry=RetryPolicy(max_attempts=2))
        outcome = store.find_where_detailed(
            MatchesAttr("medium", "text"))
        assert outcome.partial
        assert "site-1" in outcome.unreachable_sites
        assert store.traffic.robustness.partial_results == 1
        assert store.traffic.robustness.balanced()

    def test_explicit_plan_only_no_env_default(self, monkeypatch):
        """FederatedStore takes explicit plans only: federation tests
        assert exact traffic counts, so ambient env chaos must not
        leak in."""
        monkeypatch.setenv(FAULTS_ENV, "seed=1,down=site-1")
        store = replicated_federation(None)
        assert store.faults is None
        assert store.block_for("r/story") is not None


class TestIngestFaults:
    def test_classify_failure(self):
        assert classify_failure(ValueError("bad form")) \
            == CATEGORY_PARSE_ERROR
        assert classify_failure(SchedulingConflict("cycle")) \
            == CATEGORY_SOLVE_CONFLICT
        assert classify_failure(OSError("disk")) \
            == CATEGORY_INFRASTRUCTURE
        assert classify_failure(FaultInjected("ingest", "x", "boom")) \
            == CATEGORY_INFRASTRUCTURE
        assert classify_failure(StoreError("gone")) \
            == CATEGORY_INFRASTRUCTURE

    def test_malformed_document_quarantined_not_retried(self, tmp_path):
        generate_corpus(tmp_path, documents=3, events=20, seed=1)
        poison = tmp_path / "poison.cmif"
        poison.write_text("(cmif :version \"1\" (seq", encoding="utf-8")
        report = ingest_corpus(tmp_path, faults=FaultPlan(seed=0))
        assert len(report.documents) == 3
        [failure] = report.failures
        assert failure.category == CATEGORY_PARSE_ERROR
        ledger = report.robustness
        assert ledger.quarantined == 1
        assert ledger.retried_documents == 0
        assert ledger.balanced()

    def test_transient_infrastructure_fault_retried(self, tmp_path):
        paths = generate_corpus(tmp_path, documents=3, events=20, seed=1)
        target = sorted(tmp_path.glob("*.cmif"))[0].name
        plan = transient_plan("ingest_failure_rate", "ingest", target)
        plain = ingest_corpus(tmp_path)
        faulted = ingest_corpus(tmp_path, faults=plan)
        assert not faulted.failures
        assert ([e.path for e in faulted.documents] ==
                [e.path for e in plain.documents])
        ledger = faulted.robustness
        assert ledger.retried_documents == 1
        assert ledger.recovered >= 1 and ledger.unrecovered == 0
        assert ledger.balanced()
        assert plain.robustness.empty

    def test_permanent_infrastructure_fault_quarantined(self, tmp_path):
        generate_corpus(tmp_path, documents=2, events=20, seed=1)
        plan = FaultPlan(seed=0, ingest_failure_rate=1.0)
        report = ingest_corpus(
            tmp_path, faults=plan,
            retry=RetryPolicy(max_attempts=2))
        assert not report.documents
        assert len(report.failures) == 2
        assert all(f.category == CATEGORY_INFRASTRUCTURE
                   for f in report.failures)
        ledger = report.robustness
        assert ledger.quarantined == 2
        assert ledger.unrecovered == 2
        assert ledger.balanced()

    def test_resumable_after_mid_corpus_failure(self, tmp_path):
        """The failed document can be re-ingested alone afterwards; the
        union matches a clean full ingest."""
        generate_corpus(tmp_path, documents=4, events=20, seed=2)
        poison = tmp_path / "m-broken.cmif"
        poison.write_text("(not-cmif)", encoding="utf-8")
        first = ingest_corpus(tmp_path)
        assert len(first.documents) == 4 and len(first.failures) == 1
        # Operator fixes the document and retries just the failures.
        good = sorted(tmp_path.glob("*.cmif"))[0].read_text(
            encoding="utf-8")
        poison.write_text(good, encoding="utf-8")
        second = ingest_corpus([f.path for f in first.failures])
        assert not second.failures and len(second.documents) == 1
        clean = ingest_corpus(tmp_path)
        assert sorted(e.path for e in first.documents) \
            + [e.path for e in second.documents] \
            == sorted(e.path for e in clean.documents)


def _env_rows(stats):
    rows = {}
    for name, row in stats.items():
        data = dict(row.__dict__)
        data.pop("admit_seconds")
        data.pop("replay_seconds")
        data.pop("degraded")
        rows[name] = data
    return rows


class TestCrashRecovery:
    def test_ingest_crash_resharded_bit_identical(self, tmp_path):
        generate_corpus(tmp_path, documents=6, events=30, seed=5)
        serial = ingest_corpus(tmp_path, workers=1)
        crashed = ingest_corpus(tmp_path, workers=3,
                                faults=FaultPlan(seed=0,
                                                 crash_shards=(1,)))
        assert ([e.path for e in crashed.documents] ==
                [e.path for e in serial.documents])
        for a, b in zip(serial.documents, crashed.documents):
            assert ({str(k): v for k, v in a.schedule.times_ms.items()}
                    == {str(k): v for k, v in b.schedule.times_ms.items()})
        ledger = crashed.robustness
        assert ledger.worker_crashes == 1
        assert ledger.faults_injected.get("worker-crash") == 1
        assert ledger.unrecovered == 0
        assert ledger.balanced()

    def test_drive_crash_resharded_bit_identical(self, tmp_path):
        generate_corpus(tmp_path, documents=4, events=24, seed=9)
        documents = [entry.document
                     for entry in ingest_corpus(tmp_path).documents]
        serial = SessionEngine(seed=11)
        serial.serve(documents, PROFILES, sessions_per_pair=2,
                     replays=2)
        crashed = SessionEngine(seed=11,
                                faults=FaultPlan(seed=0,
                                                 crash_shards=(0,)))
        report = crashed.serve(documents, PROFILES, sessions_per_pair=2,
                               replays=2, workers=4)
        assert _env_rows(serial.stats) == _env_rows(crashed.stats)
        ledger = report.robustness
        assert ledger.worker_crashes == 1
        assert ledger.unrecovered == 0
        assert ledger.balanced()

    def test_crashes_only_fire_in_parallel_pools(self, tmp_path):
        generate_corpus(tmp_path, documents=2, events=20, seed=5)
        report = ingest_corpus(tmp_path, workers=1,
                               faults=FaultPlan(seed=0,
                                                crash_shards=(0,)))
        assert report.robustness.worker_crashes == 0
        assert not report.failures


@pytest.fixture(scope="module")
def serving_documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("catalog")
    generate_corpus(directory, documents=4, events=24, seed=13)
    return [entry.document
            for entry in ingest_corpus(directory).documents]


class TestServingDegradation:
    def test_degraded_replays_pin_events_played(self, serving_documents):
        plain = SessionEngine(seed=7).serve(
            serving_documents, PROFILES, sessions_per_pair=2, replays=3)
        faulted_engine = SessionEngine(
            seed=7, faults=FaultPlan(seed=0, replay_failure_rate=1.0))
        faulted = faulted_engine.serve(
            serving_documents, PROFILES, sessions_per_pair=2, replays=3)
        assert faulted.replays == plain.replays
        assert faulted.events_played == plain.events_played
        ledger = faulted.robustness
        assert ledger.degraded_replays == faulted.replays
        assert ledger.unrecovered == 0
        assert ledger.balanced()
        degraded = sum(row.degraded for row in faulted.environments)
        assert degraded == faulted.replays
        assert all(row.degraded == 0 for row in plain.environments)

    def test_degraded_solves_pin_rows(self, serving_documents):
        plain = SessionEngine(seed=7).serve(
            serving_documents, PROFILES, sessions_per_pair=1, replays=2)
        faulted = SessionEngine(
            seed=7,
            faults=FaultPlan(seed=0, solve_failure_rate=1.0)).serve(
            serving_documents, PROFILES, sessions_per_pair=1, replays=2)
        assert faulted.replays == plain.replays
        assert faulted.events_played == plain.events_played
        ledger = faulted.robustness
        assert ledger.degraded_solves > 0
        assert ledger.unrecovered == 0
        assert ledger.balanced()

    def test_engine_env_default(self, monkeypatch, serving_documents):
        monkeypatch.setenv(FAULTS_ENV, "seed=3,replay=1.0")
        engine = SessionEngine(seed=7)
        assert engine.faults is not None
        report = engine.serve(serving_documents[:1], PROFILES,
                              sessions_per_pair=1, replays=1)
        assert report.robustness.degraded_replays == report.replays

    def test_fault_free_serve_keeps_no_ledger(self, serving_documents):
        report = SessionEngine(seed=7).serve(
            serving_documents[:1], PROFILES, sessions_per_pair=1,
            replays=1)
        assert report.robustness.empty
        assert "faults injected" not in report.describe()


@pytest.fixture(scope="module")
def package_text():
    from repro.corpus import make_paintings_fragment
    corpus = make_paintings_fragment()
    return pack(corpus.document, corpus.store, embed_data=True)


class TestUnpackFaults:
    def test_corrupt_delivery_re_requested(self, package_text):
        clean = unpack(package_text)
        ids = sorted(clean.store.descriptors(),
                     key=lambda d: d.descriptor_id)
        block_ids = sorted({d.block_id for d in ids if d.block_id})
        target, rate = block_ids[0], 0.3

        def fits(seed):
            plan = FaultPlan(seed=seed, package_corrupt_rate=rate)
            if plan.fires(rate, "package-corrupt", target, 0) \
                    and not any(plan.fires(rate, "package-corrupt",
                                           block_id, 1)
                                for block_id in block_ids):
                return plan
            return None
        plan = seed_where(fits)
        result = unpack(package_text, faults=plan)
        ledger = result.robustness
        assert ledger.checksum_rejects >= 1
        assert ledger.retries >= 1
        assert ledger.recovered == ledger.total_faults
        assert ledger.unrecovered == 0
        assert ledger.balanced()
        for descriptor in ids:
            if descriptor.block_id:
                assert result.store.block_for(
                    descriptor.descriptor_id).checksum() \
                    == clean.store.block_for(
                        descriptor.descriptor_id).checksum()

    def test_persistent_corruption_exhausts_retries(self, package_text):
        with pytest.raises(TransportError, match="corrupted in "
                                                 "transport"):
            unpack(package_text,
                   faults=FaultPlan(seed=0, package_corrupt_rate=1.0),
                   retry=RetryPolicy(max_attempts=2))

    def test_no_plan_is_byte_for_byte_unchanged(self, package_text):
        result = unpack(package_text)
        assert result.robustness.empty
        assert result.verified_checksums == result.embedded_blocks


class TestRobustnessLedger:
    def test_record_and_balance(self):
        stats = RobustnessStats()
        assert stats.empty and stats.balanced()
        stats.record_fault("block", 2)
        stats.recovered += 1
        assert not stats.balanced()
        stats.unrecovered += 1
        assert stats.balanced()
        assert stats.total_faults == 2

    def test_merge_and_delta(self):
        a = RobustnessStats()
        a.record_fault("x")
        a.recovered += 1
        a.retries += 3
        before = a.snapshot()
        a.record_fault("y")
        a.absorbed += 1
        a.retries += 1
        delta = a.delta_since(before)
        assert delta.faults_injected == {"y": 1}
        assert delta.retries == 1 and delta.absorbed == 1
        merged = RobustnessStats()
        merged.merge(before)
        merged.merge(delta)
        assert merged.faults_injected == a.faults_injected
        assert merged.retries == a.retries
        assert merged.balanced()

    def test_describe_mentions_counters(self):
        assert "no faults" in RobustnessStats().describe()
        stats = RobustnessStats()
        stats.record_fault("site-outage")
        stats.recovered += 1
        text = stats.describe()
        assert "site-outage=1" in text and "balanced" in text


def _tag_chunk(chunk):
    return os.getpid(), list(chunk)


def test_run_sharded_reruns_a_crashed_chunk_in_the_parent():
    ledger = RobustnessStats()
    results = run_sharded(list(range(7)), 3, _tag_chunk,
                          faults=FaultPlan(seed=0, crash_shards=(0,)),
                          ledger=ledger)
    assert [items for _pid, items in results] == \
        [[0, 1], [2, 3], [4, 5, 6]]
    assert results[0][0] == os.getpid()
    assert ledger.worker_crashes == ledger.recovered == 1
    assert ledger.faults_injected == {"worker-crash": 1}
    assert ledger.reshards >= 1 and ledger.resharded_items >= 2
    assert ledger.balanced()


class _LateSubmitPool(ProcessPoolExecutor):
    """A pool whose submits after the first wait until the pool has
    broken: the order a busy machine can produce when chunk 0's planned
    crash kills its worker before the other chunks are handed over."""

    def submit(self, *args, **kwargs):
        if getattr(self, "_submits", 0):
            deadline = time.monotonic() + 30.0
            while not self._broken and time.monotonic() < deadline:
                time.sleep(0.005)
        self._submits = getattr(self, "_submits", 0) + 1
        return super().submit(*args, **kwargs)


def test_run_sharded_books_a_crash_that_breaks_the_pool_mid_submit(
        monkeypatch):
    monkeypatch.setattr("repro.faults.recovery.ProcessPoolExecutor",
                        _LateSubmitPool)
    ledger = RobustnessStats()
    results = run_sharded(list(range(7)), 3, _tag_chunk,
                          faults=FaultPlan(seed=0, crash_shards=(0,)),
                          ledger=ledger)
    assert results is not None
    assert [items for _pid, items in results] == \
        [[0, 1], [2, 3], [4, 5, 6]]
    assert all(pid == os.getpid() for pid, _items in results)
    assert ledger.worker_crashes == ledger.recovered == 1
    assert ledger.reshards == 3 and ledger.resharded_items == 7
    assert ledger.balanced()
