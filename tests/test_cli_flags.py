"""The CLI grammar, pinned per subcommand.

Each subcommand's minimal argv must parse to exactly these values, and
each flag that restricts its values must offer exactly these choices:
the table-driven parser has to reproduce the grammar flag for flag.
"""

import argparse

import pytest

from repro.cli import build_parser

ENVIRONMENT_NAMES = ["personal-system", "silent-terminal", "workstation"]

#: subcommand -> (minimal argv after the name, namespace, flag choices).
GRAMMAR = {
    "validate": (["doc.cmif"], {"document": "doc.cmif"}, {}),
    "show": (["doc.cmif"], {"document": "doc.cmif", "form": "tree"},
             {"form": ["tree", "embedded", "summary"]}),
    "schedule": (["doc.cmif"], {"document": "doc.cmif", "slot_ms": 2000.0},
                 {}),
    "arcs": (["doc.cmif"], {"document": "doc.cmif", "all": False}, {}),
    "play": (["doc.cmif"],
             {"document": "doc.cmif", "environment": "workstation",
              "rate": 1.0, "seek": 0.0, "prefetch": 0.0, "seed": 0,
              "replays": 1, "sweep": False, "rates": None, "seeks": None,
              "verbose": False},
             {"environment": ENVIRONMENT_NAMES}),
    "negotiate": (["doc.cmif"],
                  {"document": "doc.cmif", "environment": "workstation",
                   "json": False},
                  {"environment": ENVIRONMENT_NAMES}),
    "serve": (["catalog"],
              {"directory": "catalog", "pattern": "*.cmif*",
               "environments": "all", "sessions": 1, "replays": 1,
               "interactive": 0, "follows": 2, "generate": None,
               "events": 24, "links": 0, "seed": 1991, "workers": 1,
               "faults": None, "edit_script": None, "sites": 0,
               "topology": "star", "placement": "static",
               "placement_sessions": 200, "zipf": 1.2, "locality": 0.75,
               "rebalance_every": 50, "placement_report": False},
              {"topology": ["star", "chain", "mesh"],
               "placement": ["static", "replicate-hot", "migrate-owner",
                             "hybrid"]}),
    "edit": (["doc.cmif", "--script", "edits.json"],
             {"document": "doc.cmif", "script": "edits.json",
              "environments": "all", "seed": 1991},
             {}),
    "pack": (["doc.cmif", "-o", "doc.pkg"],
             {"document": "doc.cmif", "output": "doc.pkg"}, {}),
    "unpack": (["doc.pkg", "-o", "doc.cmif"],
               {"package": "doc.pkg", "output": "doc.cmif"}, {}),
    "query": (["doc.pkg"],
              {"package": "doc.pkg", "keyword": None, "medium": None,
               "attr": None, "range": None, "min_duration": None,
               "max_duration": None, "explain": False},
              {"medium": ["text", "audio", "video", "image", "program"]}),
    "ingest": (["corpus"],
               {"directory": "corpus", "pattern": "*.cmif",
                "policy": "drop-last", "no_programs": False,
                "generate": None, "events": 120, "seed": 1991,
                "workers": 1, "faults": None},
               {"policy": ["drop-last", "drop-widest"]}),
    "news": ([], {"stories": 2, "seed": 1991, "package": False,
                  "embed_data": False, "output": None}, {}),
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)]
    return action.choices


def test_every_subcommand_is_pinned():
    assert sorted(_subparsers(build_parser())) == sorted(GRAMMAR)


@pytest.mark.parametrize("command", GRAMMAR)
def test_minimal_argv_and_choices(command):
    argv, namespace, choices = GRAMMAR[command]
    parser = build_parser()
    parsed = vars(parser.parse_args([command, *argv]))
    assert parsed.pop("handler").__name__ == f"cmd_{command}"
    assert parsed == {"command": command, **namespace}
    subparser = _subparsers(parser)[command]
    assert {action.dest: list(action.choices)
            for action in subparser._actions
            if action.choices is not None} == choices
