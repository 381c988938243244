"""Tests for the corpus ingest engine and its CLI subcommand."""

import pytest

from repro.cli import main
from repro.core.errors import CmifError
from repro.corpus import generate_corpus, ingest_corpus
from repro.corpus.ingest import INGEST_STAGES, corpus_paths
from repro.pipeline.program import ProgramCache
from repro.timing import ScheduleCache


@pytest.fixture()
def corpus_dir(tmp_path):
    directory = tmp_path / "corpus"
    generate_corpus(directory, documents=6, events=40, seed=42)
    return directory


class TestGenerateCorpus:
    def test_writes_requested_documents(self, tmp_path):
        written = generate_corpus(tmp_path / "c", documents=5, events=20)
        assert len(written) == 5
        assert all(path.exists() for path in written)
        assert written == corpus_paths(tmp_path / "c")

    def test_shape_cycle_in_names(self, corpus_dir):
        names = [path.name for path in corpus_paths(corpus_dir)]
        assert any("flat" in name for name in names)
        assert any("deep" in name for name in names)
        assert any("random" in name for name in names)

    def test_unknown_shape_rejected(self, tmp_path):
        with pytest.raises(CmifError, match="shape"):
            generate_corpus(tmp_path, documents=1, shapes=("spiral",))


class TestIngestCorpus:
    def test_full_pipeline(self, corpus_dir):
        report = ingest_corpus(corpus_dir)
        assert not report.failures
        assert report.document_count == 6
        assert report.total_events > 0
        for stage in INGEST_STAGES:
            assert report.stage_seconds[stage] > 0.0
        assert report.wall_seconds > 0.0

    def test_warms_the_serving_caches(self, corpus_dir):
        schedule_cache = ScheduleCache(capacity=16)
        program_cache = ProgramCache(capacity=16)
        report = ingest_corpus(corpus_dir, schedule_cache=schedule_cache,
                               program_cache=program_cache)
        assert len(schedule_cache) == report.document_count
        assert len(program_cache) == report.document_count
        for entry in report.documents:
            cached = schedule_cache.get(entry.document)
            assert cached is entry.schedule
            assert program_cache.get(entry.schedule) is entry.program

    def test_skips_broken_documents_and_continues(self, corpus_dir):
        (corpus_dir / "000-flat.cmif").write_text("(cmif broken",
                                                  encoding="utf-8")
        report = ingest_corpus(corpus_dir)
        assert len(report.failures) == 1
        assert report.failures[0].stage == "parse"
        assert report.document_count == 5

    def test_no_programs_mode(self, corpus_dir):
        report = ingest_corpus(corpus_dir, compile_programs=False)
        assert not report.failures
        assert report.program_cache is None
        assert report.stage_seconds["program"] == 0.0
        assert all(entry.program is None for entry in report.documents)
        assert "program  skipped" in report.describe()

    def test_explicit_path_list(self, corpus_dir):
        paths = corpus_paths(corpus_dir)[:2]
        report = ingest_corpus(paths)
        assert report.document_count == 2

    def test_describe_reports_throughput(self, corpus_dir):
        report = ingest_corpus(corpus_dir)
        text = report.describe()
        assert "ingested 6/6" in text
        assert "doc/s" in text and "events/s" in text
        for stage in INGEST_STAGES:
            assert stage in text

    def test_stage_throughput_counts_completions_not_survivors(
            self, corpus_dir):
        """A document failing mid-pipeline still shows up in the rates
        of the stages it completed."""
        # A parseable, compilable document that cannot be scheduled:
        # its only arc demands e1 begin 0ms after e0's end *and* within
        # an impossible upper window of the sequence chain.
        from repro.core.builder import DocumentBuilder
        from repro.core.timebase import MediaTime
        from repro.format.writer import write_document
        builder = DocumentBuilder("stuck", root_kind="seq")
        builder.channel("c", "video")
        with builder.seq("track"):
            builder.imm("e0", channel="c", data="x",
                        duration=MediaTime.ms(1000))
            e1 = builder.imm("e1", channel="c", data="y",
                             duration=MediaTime.ms(1000))
        document = builder.build(validate=False)
        builder.arc(e1, source="../e0", destination=".",
                    max_delay=MediaTime.ms(10))
        (corpus_dir / "zz-stuck.cmif").write_text(
            write_document(document), encoding="utf-8")
        report = ingest_corpus(corpus_dir)
        assert len(report.failures) == 1
        assert report.failures[0].stage == "solve"
        assert report.stage_documents["parse"] == 7
        assert report.stage_documents["solve"] == 6
        assert report.stage_events["parse"] > report.stage_events["solve"]
        parse_docs_per_s, _ = report.stage_throughput("parse")
        assert parse_docs_per_s > 0.0


class TestIngestCli:
    def test_generate_and_ingest(self, tmp_path, capsys):
        directory = tmp_path / "cli-corpus"
        code = main(["ingest", str(directory), "--generate", "4",
                     "--events", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "generated 4 document(s)" in out
        assert "ingested 4/4" in out
        assert "events/s" in out

    def test_existing_corpus(self, corpus_dir, capsys):
        code = main(["ingest", str(corpus_dir), "--no-programs"])
        out = capsys.readouterr().out
        assert code == 0
        assert "ingested 6/6" in out
        assert "program  skipped" in out

    def test_missing_directory_errors(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "nowhere")])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_generate_onto_a_file_errors_cleanly(self, tmp_path, capsys):
        target = tmp_path / "afile.cmif"
        target.write_text("(cmif)", encoding="utf-8")
        code = main(["ingest", str(target), "--generate", "2"])
        assert code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_empty_directory_errors(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["ingest", str(empty)])
        assert code == 2
        assert "no *.cmif files" in capsys.readouterr().err

    def test_broken_document_exit_code(self, corpus_dir, capsys):
        (corpus_dir / "zzz-bad.cmif").write_text("(((", encoding="utf-8")
        code = main(["ingest", str(corpus_dir)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
