"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def news_text_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "news.cmif"
    assert main(["news", "--stories", "1", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def news_package_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "news.cmifpkg"
    assert main(["news", "--stories", "1", "--package",
                 "-o", str(path)]) == 0
    return str(path)


class TestNewsCommand:
    def test_emits_parseable_text(self, news_text_file, capsys):
        from repro.format.parser import parse_document
        from pathlib import Path
        document = parse_document(Path(news_text_file).read_text())
        assert document.root.name == "evening-news"

    def test_package_carries_descriptors(self, news_package_file):
        from pathlib import Path
        payload = json.loads(Path(news_package_file).read_text())
        assert payload["cmif-package"]["descriptors"]

    def test_prints_to_stdout_without_output(self, capsys):
        assert main(["news", "--stories", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(cmif")


class TestQuery:
    def test_query_package_with_explain(self, news_package_file, capsys):
        assert main(["query", news_package_file,
                     "--keyword", "painting", "--medium", "image",
                     "--explain"]) == 0
        out = capsys.readouterr().out
        assert "plan for" in out
        assert "probe" in out
        assert "0 payload read(s)" in out
        assert "match(es)" in out

    def test_query_attr_and_range(self, news_package_file, capsys):
        assert main(["query", news_package_file,
                     "--attr", "language=en",
                     "--range", "characters=1:100000"]) == 0
        out = capsys.readouterr().out
        assert "0 payload read(s)" in out

    def test_query_without_criteria_lists_everything(
            self, news_package_file, capsys):
        assert main(["query", news_package_file]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) > 1

    def test_query_rejects_bare_text_form(self, news_text_file, capsys):
        assert main(["query", news_text_file,
                     "--keyword", "painting"]) == 2
        assert "transport package" in capsys.readouterr().err

    def test_query_rejects_malformed_range(self, news_package_file,
                                           capsys):
        assert main(["query", news_package_file,
                     "--range", "characters=a:b"]) == 2
        assert "numeric bounds" in capsys.readouterr().err
        assert main(["query", news_package_file,
                     "--range", "characters=5"]) == 2
        assert "min:max" in capsys.readouterr().err


class TestValidate:
    def test_valid_package(self, news_package_file, capsys):
        assert main(["validate", news_package_file]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_text_form_warns_but_validates(self, news_text_file, capsys):
        assert main(["validate", news_text_file]) == 0
        out = capsys.readouterr().out
        assert "unresolved-descriptor" in out

    def test_invalid_document_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.cmif"
        bad.write_text('(cmif (version 1) (seq (imm (attributes '
                       '(channel "ghost")) "x")))')
        assert main(["validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_missing_file_is_error_2(self, capsys):
        assert main(["validate", "/nonexistent.cmif"]) == 2

    def test_unparseable_file_is_error_2(self, tmp_path, capsys):
        bad = tmp_path / "garbage.cmif"
        bad.write_text("(((")
        assert main(["validate", str(bad)]) == 2


class TestViews:
    def test_show_tree(self, news_package_file, capsys):
        assert main(["show", news_package_file]) == 0
        assert "story-paintings" in capsys.readouterr().out

    def test_show_embedded(self, news_package_file, capsys):
        assert main(["show", news_package_file,
                     "--form", "embedded"]) == 0
        assert "+--" in capsys.readouterr().out

    def test_show_summary(self, news_package_file, capsys):
        assert main(["show", news_package_file,
                     "--form", "summary"]) == 0
        assert "channels:" in capsys.readouterr().out

    def test_schedule(self, news_package_file, capsys):
        assert main(["schedule", news_package_file]) == 0
        out = capsys.readouterr().out
        assert "scheduled span" in out
        assert "time" in out

    def test_arcs(self, news_package_file, capsys):
        assert main(["arcs", news_package_file]) == 0
        assert "begin/must" in capsys.readouterr().out


class TestPlayAndNegotiate:
    def test_play_on_workstation_succeeds(self, news_package_file,
                                          capsys):
        assert main(["play", news_package_file,
                     "--environment", "workstation"]) == 0
        assert "must arcs violated: 0" in capsys.readouterr().out

    def test_play_on_personal_system_fails(self, news_package_file,
                                           capsys):
        assert main(["play", news_package_file,
                     "--environment", "personal-system"]) == 1

    def test_play_with_prefetch_rescues(self, news_package_file, capsys):
        assert main(["play", news_package_file,
                     "--environment", "personal-system",
                     "--prefetch", "100"]) == 0

    def test_negotiate_verdicts(self, news_package_file, capsys):
        assert main(["negotiate", news_package_file,
                     "--environment", "workstation"]) == 0
        assert main(["negotiate", news_package_file,
                     "--environment", "silent-terminal"]) == 1


class TestPackUnpack:
    def test_round_trip(self, news_package_file, tmp_path, capsys):
        packed = tmp_path / "repacked.cmifpkg"
        assert main(["pack", news_package_file, "-o", str(packed)]) == 0
        unpacked = tmp_path / "unpacked.cmif"
        assert main(["unpack", str(packed), "-o", str(unpacked)]) == 0
        from repro.format.parser import parse_document
        document = parse_document(unpacked.read_text())
        assert document.root.name == "evening-news"


class TestNegotiateJson:
    def test_json_verdict_machine_readable(self, news_package_file,
                                           capsys):
        assert main(["negotiate", news_package_file,
                     "--environment", "personal-system", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["environment"] == "personal-system"
        assert payload["verdict"] == "playable-with-filtering"
        assert payload["ok"] is True
        findings = payload["findings"]
        assert findings
        assert {"requirement", "needed", "available", "satisfied",
                "filterable"} <= set(findings[0])
        unmet = [finding for finding in findings
                 if not finding["satisfied"]]
        assert unmet and all(finding["filterable"] for finding in unmet)

    def test_json_exit_code_still_signals_unplayable(
            self, news_package_file, capsys):
        assert main(["negotiate", news_package_file,
                     "--environment", "silent-terminal", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "unplayable"
        assert payload["ok"] is False


class TestServe:
    def test_serve_generated_corpus(self, tmp_path, capsys):
        directory = tmp_path / "catalog"
        assert main(["serve", str(directory), "--generate", "4",
                     "--events", "12", "--sessions", "2",
                     "--replays", "2"]) == 0
        out = capsys.readouterr().out
        assert "generated 4 package(s)" in out
        assert "served 4 document(s)" in out
        for name in ("workstation", "personal-system", "silent-terminal"):
            assert name in out
        assert "schedule cache" in out

    def test_serve_environment_subset(self, tmp_path, capsys):
        directory = tmp_path / "catalog"
        assert main(["serve", str(directory), "--generate", "3",
                     "--events", "10",
                     "--environments", "workstation"]) == 0
        out = capsys.readouterr().out
        assert "workstation" in out
        assert "personal-system" not in out

    def test_serve_unknown_environment_errors(self, tmp_path, capsys):
        directory = tmp_path / "catalog"
        assert main(["serve", str(directory), "--generate", "2",
                     "--environments", "cray"]) == 2
        assert "unknown environment" in capsys.readouterr().err

    def test_serve_missing_directory_errors(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_serve_interactive_readers(self, tmp_path, capsys):
        directory = tmp_path / "catalog"
        assert main(["serve", str(directory), "--generate", "3",
                     "--events", "14", "--links", "3",
                     "--sessions", "1", "--replays", "2",
                     "--interactive", "2", "--follows", "2"]) == 0
        out = capsys.readouterr().out
        assert "navigation(s)" in out
        assert "run queue" in out
        assert "jumps" in out

    def test_serve_has_no_engine_flag(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", str(tmp_path), "--engine", "graph"])
        assert exit_info.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_serve_interactive_rejects_negative(self, tmp_path, capsys):
        directory = tmp_path / "catalog"
        assert main(["serve", str(directory), "--generate", "2",
                     "--interactive", "-1"]) == 2
