"""The kernel axis: bit-identical backends + deterministic sharding.

The contract under test is the one the caches rely on: a kernel choice
(or a worker count) changes cost, never one bit of output.  Replay
reports are pinned equal across the python and numpy backends on
randomized documents; sharded ingest and serving runs are pinned equal
to their serial twins in everything but the ``*_seconds`` timings.
"""

import pickle

import pytest

from repro.corpus.generate import make_media_document
from repro.corpus.ingest import INGEST_STAGES, generate_corpus, ingest_corpus
from repro.kernel import (HAVE_NUMPY, KERNEL_ENV, KernelError,
                          PYTHON_KERNEL, resolve_kernel)
from repro.pipeline.program import BatchPlayer
from repro.serving.engine import SessionEngine
from repro.transport.environments import PROFILES, WORKSTATION

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy not installed")

#: WORKSTATION without jitter: the one environment shape whose replays
#: reach the numpy kernel.
QUIET_WORKSTATION = WORKSTATION.degraded(name="quiet-workstation",
                                         jitter_ms=0.0)


class TestKernelAxis:
    def test_auto_resolves_to_a_backend(self):
        kernel = resolve_kernel(None)
        assert kernel.name in ("python", "numpy")
        assert kernel is resolve_kernel("auto") or True  # env-dependent

    def test_names_and_instance_passthrough(self):
        python = resolve_kernel("python")
        assert python is PYTHON_KERNEL
        assert resolve_kernel(python) is python
        if HAVE_NUMPY:
            numpy_kernel = resolve_kernel("numpy")
            assert numpy_kernel.name == "numpy"
            assert numpy_kernel.np is not None
        assert python.np is None

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KernelError):
            resolve_kernel("fortran")

    def test_environment_override(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "python")
        assert resolve_kernel("auto") is PYTHON_KERNEL
        assert resolve_kernel(None) is PYTHON_KERNEL
        monkeypatch.delenv(KERNEL_ENV)
        # explicit names ignore the override
        monkeypatch.setenv(KERNEL_ENV, "numpy")
        assert resolve_kernel("python") is PYTHON_KERNEL

    def test_kernels_cross_process_boundaries(self):
        # workers=N ships sessions (and their players) through pickle.
        for name in (("python", "numpy") if HAVE_NUMPY else ("python",)):
            kernel = resolve_kernel(name)
            clone = pickle.loads(pickle.dumps(kernel))
            assert clone.name == kernel.name
            assert (clone.np is None) == (kernel.np is None)


def _replay_fields(report):
    """Everything observable about one replay, in comparable form."""
    return (report.summary(),
            report.played_count,
            report.max_skew_ms,
            [None if audit is None else str(audit)
             for audit in report.audits],
            [float(value) for value in report._actual_begin],
            [float(value) for value in report._actual_end])


@needs_numpy
class TestReplayEquivalence:
    @pytest.mark.parametrize("environment",
                             (WORKSTATION, QUIET_WORKSTATION),
                             ids=("jittered", "quiet"))
    @pytest.mark.parametrize("seed", range(4))
    def test_replay_reports_bit_identical(self, seed, environment):
        document = make_media_document(seed, events=18)
        python = BatchPlayer.for_document(document, environment,
                                          seed=seed, kernel="python")
        numpy_ = BatchPlayer.for_document(document, environment,
                                          seed=seed, kernel="numpy")
        for replay in range(3):
            for rate, seek in ((1.0, 0.0), (1.5, 250.0)):
                a = python.run_one(rate=rate, seek_to_ms=seek,
                                   replay=replay)
                b = numpy_.run_one(rate=rate, seek_to_ms=seek,
                                   replay=replay)
                assert _replay_fields(a) == _replay_fields(b)

    def test_only_quiet_plans_reach_numpy(self):
        """Jittered plans stay scalar; every report holds plain lists."""
        from repro.kernel.backends import NpRunPlan
        from repro.pipeline.program import RunPlan
        document = make_media_document(2, events=18)
        player = BatchPlayer.for_document(document, WORKSTATION,
                                          kernel="numpy")
        for environment, plan_type in ((WORKSTATION, RunPlan),
                                       (QUIET_WORKSTATION, NpRunPlan)):
            report = player.run_one(environment=environment)
            entry = player._plans.get(((1.0, None, 0.0), 0.0,
                                       id(environment)))
            assert type(entry[-1]) is plan_type
            for values in (report._actual_begin, report._actual_end,
                           report._played_mask, report._arc_results):
                assert type(values) is list


def _env_rows(stats_map):
    """Per-environment counters minus the wall-clock fields."""
    rows = {}
    for name, stats in sorted(stats_map.items()):
        row = dict(stats.__dict__)
        row.pop("admit_seconds")
        row.pop("replay_seconds")
        rows[name] = row
    return rows


class TestShardingDeterminism:
    def test_ingest_workers_match_serial(self, tmp_path):
        generate_corpus(tmp_path, documents=6, events=40, seed=5)
        serial = ingest_corpus(tmp_path, workers=1)
        sharded = ingest_corpus(tmp_path, workers=4)
        assert ([entry.path for entry in serial.documents] ==
                [entry.path for entry in sharded.documents])
        assert ([failure.path for failure in serial.failures] ==
                [failure.path for failure in sharded.failures])
        for stage in INGEST_STAGES:
            assert (serial.stage_documents[stage] ==
                    sharded.stage_documents[stage])
            assert (serial.stage_events[stage] ==
                    sharded.stage_events[stage])
        for a, b in zip(serial.documents, sharded.documents):
            assert ({str(k): v for k, v in a.schedule.times_ms.items()} ==
                    {str(k): v for k, v in b.schedule.times_ms.items()})

    def test_ingest_workers_warm_the_parent_caches(self, tmp_path):
        generate_corpus(tmp_path, documents=6, events=40, seed=5)
        report = ingest_corpus(tmp_path, workers=3)
        for entry in report.documents:
            assert report.schedule_cache.get(entry.document) \
                is entry.schedule
            if entry.program is not None:
                assert report.program_cache.get(entry.schedule) \
                    is entry.program

    def test_ingest_workers_validated(self, tmp_path):
        from repro.core.errors import CmifError
        with pytest.raises(CmifError):
            ingest_corpus(tmp_path, workers=0)

    def test_drive_workers_match_serial(self, tmp_path):
        generate_corpus(tmp_path, documents=5, events=30, seed=9)
        documents = [entry.document
                     for entry in ingest_corpus(tmp_path).documents]
        environments = list(PROFILES)
        serial = SessionEngine(seed=11)
        serial_report = serial.serve(documents, environments,
                                     sessions_per_pair=2, replays=3)
        sharded = SessionEngine(seed=11)
        sharded_report = sharded.serve(documents, environments,
                                       sessions_per_pair=2, replays=3,
                                       workers=4)
        assert _env_rows(serial.stats) == _env_rows(sharded.stats)
        assert serial_report.sessions == sharded_report.sessions
        assert serial_report.replays == sharded_report.replays
        assert (serial_report.events_played ==
                sharded_report.events_played)
        # parallel drives run shard-local queues
        assert sharded.last_queue is None

    def test_drive_workers_validated(self):
        from repro.core.errors import ValueError_
        engine = SessionEngine()
        with pytest.raises(ValueError_):
            engine.drive([], workers=0)


@needs_numpy
class TestEngineKernelAxis:
    def test_serving_counters_identical_across_kernels(self, tmp_path):
        generate_corpus(tmp_path, documents=4, events=30, seed=3)
        documents = [entry.document
                     for entry in ingest_corpus(tmp_path).documents]
        rows = {}
        for name in ("python", "numpy"):
            engine = SessionEngine(seed=7, kernel=name)
            engine.serve(documents, list(PROFILES),
                         sessions_per_pair=2, replays=2)
            rows[name] = _env_rows(engine.stats)
        assert rows["python"] == rows["numpy"]

    def test_ingest_report_identical_across_kernels(self, tmp_path):
        generate_corpus(tmp_path, documents=4, events=40, seed=2)
        reports = {name: ingest_corpus(tmp_path, kernel=name)
                   for name in ("python", "numpy")}
        a, b = reports["python"], reports["numpy"]
        assert len(a.documents) == len(b.documents)
        for entry_a, entry_b in zip(a.documents, b.documents):
            assert ({str(k): v
                     for k, v in entry_a.schedule.times_ms.items()} ==
                    {str(k): v
                     for k, v in entry_b.schedule.times_ms.items()})
