"""Hostile input fails with typed errors, never a builtin exception.

Malformed CMIF text must raise :class:`FormatError` from
``parse_document``; a package whose JSON lacks the package's shape must
raise :class:`TransportError` from ``unpack``, which the CLI reports
with exit code 2.  The same holds for live-edit specs
(``LiveEditor.apply`` and the CLI's edit scripts), the JSON document
form (``document_from_json``) and fault plans (``parse_fault_plan``):
only :class:`CmifError` escapes them.  Every float-typed CLI flag
refuses a value outside its range with exit code 2 and one error line
(a rate too large for the document's timeline included), and no run
prints a NaN or an infinity.
"""

import copy
import json
import math
import os
import re
import signal
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.cli import main
from repro.core.errors import (CmifError, FormatError, PlaybackError,
                               TransportError, ValueError_)
from repro.corpus import make_flat_document, make_media_document
from repro.corpus.news import make_paintings_fragment
from repro.faults.plan import FaultPlan, parse_fault_plan
from repro.format.json_io import document_from_json, document_to_json
from repro.format.parser import parse_document
from repro.format.writer import write_document
from repro.pipeline.patch import LiveEditor
from repro.pipeline.player import Player
from repro.pipeline.program import BatchPlayer
from repro.timing.schedule import schedule_document
from repro.transport import PROFILES
from repro.transport.environments import WORKSTATION
from repro.transport.package import pack, unpack

ARC = ('(cmif (version 1) (par (attributes (name d)) '
       '(imm (attributes (name a) (sync-arc {fields})) "x") '
       '(imm (attributes (name b)) "y")))')
FIELDS = {
    "type": "(type begin must)",
    "source": '(source "../b" begin)',
    "offset": "(offset (time 0 ms))",
    "dest": '(dest ".")',
    "min": "(min (time 0 ms))",
    "max": "(max (time 10 ms))",
}


def arc_with_empty(field):
    fields = dict(FIELDS, **{field: f"({field})"})
    return ARC.format(fields=" ".join(fields.values()))


@pytest.mark.parametrize("text", [
    *(arc_with_empty(field) for field in FIELDS),
    ARC.format(fields=" ".join(FIELDS.values()) + " (when)"),
    "(cmif (version 1) (seq (attributes (name d) "
    "(timebase (frame-rate x25)))))",
], ids=[*(f"empty-{field}" for field in FIELDS), "empty-when",
        "frame-rate-x25"])
def test_parse_document_raises_format_error(text):
    with pytest.raises(FormatError):
        parse_document(text)


def test_well_formed_arc_still_parses():
    document = parse_document(ARC.format(fields=" ".join(FIELDS.values())))
    assert document.root.name == "d"


@pytest.fixture(scope="module")
def package():
    fragment = make_paintings_fragment()
    return json.loads(pack(fragment.document, fragment.store,
                           embed_data=True))


def _descriptor(body):
    return next(iter(body["descriptors"].values()))


def _block(body):
    return next(iter(body["blocks"].values()))


MUTATIONS = {
    "descriptor-without-id": lambda body: _descriptor(body).pop(
        "descriptor_id"),
    "descriptor-without-medium": lambda body: _descriptor(body).pop(
        "medium"),
    "no-document": lambda body: body.pop("document"),
    "block-without-encoding": lambda body: _block(body).pop("encoding"),
    "descriptors-as-list": lambda body: body.update(
        descriptors=list(body["descriptors"].values())),
    "short-time-attribute": lambda body: _descriptor(body)["attributes"]
    .update(duration={"$time": [40]}),
}


@pytest.mark.parametrize("mutation", MUTATIONS.values(),
                         ids=MUTATIONS.keys())
def test_unpack_raises_transport_error(package, mutation):
    damaged = copy.deepcopy(package)
    mutation(damaged["cmif-package"])
    with pytest.raises(TransportError):
        unpack(json.dumps(damaged))


def test_unpack_rejects_top_level_array():
    with pytest.raises(TransportError):
        unpack("[1, 2]")


def test_cli_unpack_of_package_without_document_exits_2(package, tmp_path,
                                                        capsys):
    damaged = copy.deepcopy(package)
    del damaged["cmif-package"]["document"]
    path = tmp_path / "damaged.cmifpkg"
    path.write_text(json.dumps(damaged), encoding="utf-8")
    assert main(["unpack", str(path), "-o", str(tmp_path / "out.cmif")]) \
        == 2
    assert "error:" in capsys.readouterr().err


def _nested(depth, inner):
    return "(seq " * depth + inner + ")" * depth


def test_parse_document_reads_a_deeply_nested_tree():
    depth = 5000
    text = ("(cmif (version 1) "
            + _nested(depth, '(imm (attributes (name leaf)) "x")') + ")")
    node = parse_document(text).root
    levels = 0
    while node.children:
        (node,) = node.children
        levels += 1
    assert levels == depth
    assert node.name == "leaf"


def test_attribute_value_nested_past_the_recursion_limit_is_a_format_error():
    depth = 5000
    value = "(a " * depth + "1" + ")" * depth
    text = f"(cmif (version 1) (seq (attributes (name d) (deep {value}))))"
    with pytest.raises(FormatError, match="nested too deeply"):
        parse_document(text)


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_unpack_of_deeply_nested_json_raises_transport_error():
    with pytest.raises(TransportError, match="corrupt package"):
        unpack(DEEP_JSON)


def test_cli_unpack_of_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.cmifpkg"
    path.write_text(DEEP_JSON, encoding="utf-8")
    assert main(["unpack", str(path), "-o", str(tmp_path / "out.cmif")]) \
        == 2
    assert "error: corrupt package" in capsys.readouterr().err


def test_unpack_of_a_deeply_nested_descriptor_attribute_raises_transport_error(
        package):
    damaged = copy.deepcopy(package)
    deep = 1
    for _ in range(800):
        deep = {"group": deep}
    _descriptor(damaged["cmif-package"])["attributes"]["deep"] = deep
    with pytest.raises(TransportError, match="malformed package"):
        unpack(json.dumps(damaged))


# -- live-edit specs, JSON documents and fault plans ----------------------

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Any JSON value (floats include NaN and the infinities, which
#: Python's json module reads and writes).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8)

OPS = ("retime", "add_arc", "remove_arc", "reorder", "splice",
       "duplicate", "remove")
SPEC_FIELDS = ("path", "owner", "parent", "child", "name", "duration_ms",
               "index", "offset_ms", "min_delay_ms", "max_delay_ms",
               "source", "destination", "src_anchor", "dst_anchor",
               "strictness", "condition", "at_step", "document")


def _edit_document():
    return make_media_document(3, events=12, links=1)


#: Node paths of ``_edit_document()``, so fuzzed specs often name a
#: real node.
EDIT_PATHS = tuple(sorted(
    {event.node_path for event in _edit_document().compile().events}))

SPEC_VALUES = (JSON_VALUES | st.sampled_from(EDIT_PATHS + ("/",))
               | st.sampled_from(("begin", "end", "may", "must"))
               | st.floats(-100.0, 5000.0) | st.integers(-3, 40))
SPECS = (JSON_VALUES
         | st.dictionaries(st.sampled_from(("op",) + SPEC_FIELDS),
                           SPEC_VALUES | st.sampled_from(OPS), max_size=8)
         | st.builds(lambda op, rest: {**rest, "op": op},
                     st.sampled_from(OPS),
                     st.dictionaries(st.sampled_from(SPEC_FIELDS),
                                     SPEC_VALUES, max_size=8)))


@FUZZ
@given(specs=st.lists(SPECS, min_size=1, max_size=3))
def test_edit_specs_raise_only_cmif_errors(specs):
    editor = LiveEditor(_edit_document())
    for spec in specs:
        try:
            editor.apply(spec)
        except CmifError:
            pass


@pytest.mark.parametrize("op", OPS)
def test_edit_spec_missing_a_field_is_a_typed_error(op):
    with pytest.raises(ValueError_, match=f"edit {op} needs"):
        LiveEditor(_edit_document()).apply({"op": op})


@pytest.mark.parametrize("spec", [
    {"op": "retime", "path": EDIT_PATHS[0], "duration_ms": "long"},
    {"op": "retime", "path": EDIT_PATHS[0], "duration_ms": float("nan")},
    {"op": "remove_arc", "owner": "/", "index": "last"},
    {"op": "reorder", "parent": "/", "child": "x", "index": [1]},
    {"op": "add_arc", "owner": "/", "source": EDIT_PATHS[0],
     "destination": EDIT_PATHS[1], "offset_ms": "soon"},
    {"op": "retime", "path": 7, "duration_ms": 10.0},
    {"op": "splice", "path": EDIT_PATHS[0], "parent": "/", "index": -1},
], ids=["duration-text", "duration-nan", "index-text", "index-list",
        "offset-text", "path-number", "index-negative"])
def test_edit_spec_with_a_mistyped_field_is_a_typed_error(spec):
    document = _edit_document()
    revision = document.revision
    with pytest.raises(ValueError_):
        LiveEditor(document).apply(spec)
    assert document.revision == revision


@pytest.mark.parametrize("spec", [[], "retime", None, 3],
                         ids=["list", "string", "null", "number"])
def test_edit_spec_that_is_not_an_object_is_a_typed_error(spec):
    with pytest.raises(ValueError_):
        LiveEditor(_edit_document()).apply(spec)


def _json_paths(value, path=()):
    """Every position inside a decoded JSON value."""
    yield path
    if isinstance(value, dict):
        for key, nested in value.items():
            yield from _json_paths(nested, path + (key,))
    elif isinstance(value, list):
        for index, nested in enumerate(value):
            yield from _json_paths(nested, path + (index,))


def _replaced(value, path, replacement):
    if not path:
        return replacement
    copied = copy.copy(value)
    copied[path[0]] = _replaced(value[path[0]], path[1:], replacement)
    return copied


JSON_DOCUMENT = json.loads(document_to_json(make_media_document(
    4, events=6, links=1)))
JSON_POSITIONS = tuple(_json_paths(JSON_DOCUMENT))


@FUZZ
@given(position=st.sampled_from(JSON_POSITIONS), replacement=JSON_VALUES)
def test_json_documents_raise_only_cmif_errors(position, replacement):
    text = json.dumps(_replaced(JSON_DOCUMENT, position, replacement))
    try:
        document_from_json(text)
    except CmifError:
        pass


@pytest.mark.parametrize("text", ["[]", "null", "3", '"cmif"'])
def test_json_document_that_is_not_an_object_is_a_format_error(text):
    with pytest.raises(FormatError, match="is an object"):
        document_from_json(text)


def test_deeply_nested_json_document_is_a_format_error():
    with pytest.raises(FormatError, match="invalid JSON"):
        document_from_json(DEEP_JSON)


RATES = tuple(field.name for field in fields(FaultPlan)
              if field.name.endswith("_rate"))
CSV_KEYS = ("seed", "down", "flap", "period", "latency", "latency-ms",
            "blocks", "corrupt", "summaries", "packages", "ingest",
            "replay", "solve", "crash")


def _use(plan) -> None:
    """Ask a parsed plan every question the fleet asks one."""
    for rate in RATES:
        plan.fires(getattr(plan, rate), "kind", "key")
    plan.site_down("site-1", 3)
    plan.crashes_worker(0)
    assert plan.describe()


FAULT_SPECS = (
    st.dictionaries(st.sampled_from([field.name
                                     for field in fields(FaultPlan)]),
                    JSON_VALUES | st.floats(-1.0, 2.0), max_size=4)
    | st.lists(st.tuples(st.sampled_from(CSV_KEYS),
                         st.text(max_size=5)
                         | st.floats().map(repr)), max_size=4)
    .map(lambda pairs: ",".join(f"{key}={value}"
                                for key, value in pairs)))


@FUZZ
@given(spec=FAULT_SPECS)
def test_fault_plans_raise_only_cmif_errors(spec):
    try:
        plan = parse_fault_plan(spec)
    except CmifError:
        return
    if plan is not None:
        _use(plan)
        for rate in RATES:
            assert 0.0 <= getattr(plan, rate) <= 1.0


@pytest.mark.parametrize("spec", [
    {"replay_failure_rate": "x"}, {"solve_failure_rate": None},
    "replay=2.0", "replay=-1", "blocks=nan", {"block_failure_rate": 1.5},
    json.dumps({"ingest_failure_rate": -0.5}),
], ids=["json-text", "json-null", "csv-above-one", "csv-negative",
        "csv-nan", "obj-above-one", "inline-json-negative"])
def test_fault_plan_rate_outside_the_unit_interval_is_refused(spec):
    with pytest.raises(CmifError, match="probability in"):
        parse_fault_plan(spec)


def test_fault_plan_rates_at_the_bounds_still_parse():
    plan = parse_fault_plan("replay=0,solve=1")
    assert plan.replay_failure_rate == 0.0
    assert plan.solve_failure_rate == 1.0
    assert plan.fires(plan.solve_failure_rate, "solve", 1)
    assert not math.isnan(plan.replay_failure_rate)


@pytest.mark.parametrize("spec", [
    {"down_sites": 3}, {"crash_shards": ["x"]}, {"seed": "x"},
    {"flap_period": "often"},
], ids=["sites-number", "shards-text", "seed-text", "period-text"])
def test_fault_plan_json_field_of_the_wrong_type_is_refused(spec):
    with pytest.raises(CmifError, match="bad fault plan value"):
        parse_fault_plan(spec)


# -- the CLI answers each with exit code 2 and one error line -------------

SRC = Path(repro.__file__).resolve().parents[1]


def _cli(*argv, cwd):
    """Run ``cmif`` in a fresh interpreter, as a shell would."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_FAULTS", None)
    return subprocess.run([sys.executable, "-m", "repro.cli", *argv],
                          capture_output=True, text=True, cwd=cwd,
                          env=env, timeout=120)


@pytest.fixture(scope="module")
def edit_package(tmp_path_factory):
    path = tmp_path_factory.mktemp("edit") / "doc.cmifpkg"
    path.write_text(pack(_edit_document(), embed_data=False,
                         strict=False), encoding="utf-8")
    return path


def _assert_one_error_line(result):
    assert result.returncode == 2, result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("script", [
    [{"op": "retime"}],
    [{"op": "retime", "path": EDIT_PATHS[0], "duration_ms": 900.0},
     {"op": "add_arc"}],
    [{"op": "retime", "path": EDIT_PATHS[0], "duration_ms": "x"}],
    [["retime"]],
    {"op": "retime"},
], ids=["missing-path", "second-edit-bad", "duration-text",
        "spec-not-object", "script-not-list"])
def test_cli_edit_with_a_bad_script_exits_2_before_any_edit(
        edit_package, tmp_path, script):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script), encoding="utf-8")
    result = _cli("edit", str(edit_package), "--script", str(path),
                  cwd=tmp_path)
    _assert_one_error_line(result)
    assert result.stdout == ""  # nothing was applied or reported


def test_cli_edit_with_a_script_that_is_not_json_exits_2(edit_package,
                                                         tmp_path):
    path = tmp_path / "script.json"
    path.write_text("[{\"op\": ", encoding="utf-8")
    result = _cli("edit", str(edit_package), "--script", str(path),
                  cwd=tmp_path)
    _assert_one_error_line(result)
    assert "is not JSON" in result.stderr


def test_serve_edit_naming_a_missing_document_is_a_typed_error():
    from repro.serving import SessionEngine
    document = _edit_document()
    script = [{"op": "retime", "path": EDIT_PATHS[0], "duration_ms": 5.0,
               "document": 1}]
    with pytest.raises(ValueError_, match="names document 1 of 1"):
        SessionEngine(seed=3).serve([document], PROFILES[:1], replays=1,
                                    edit_script=script)
    assert document.revision == _edit_document().revision


def test_cli_serve_with_a_bad_edit_script_exits_2(edit_package, tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps([{"op": "retime", "path": EDIT_PATHS[0],
                                 "duration_ms": 5.0, "at_step": "soon"}]),
                    encoding="utf-8")
    result = _cli("serve", str(edit_package.parent), "--pattern",
                  "*.cmifpkg", "--edit-script", str(path), cwd=tmp_path)
    _assert_one_error_line(result)


def test_cli_serve_with_a_bad_fault_plan_exits_2(edit_package, tmp_path):
    result = _cli("serve", str(edit_package.parent), "--pattern",
                  "*.cmifpkg", "--faults", "seed=3,replay=2", cwd=tmp_path)
    _assert_one_error_line(result)
    assert "replay_failure_rate" in result.stderr


# -- numeric CLI flags: a typed error, never a crash, a hang or a NaN --------

HOSTILE_NUMBERS = ("nan", "inf", "-inf", "-1", "0", "1e-9", "1e308")
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@pytest.fixture(scope="module")
def media_package(tmp_path_factory):
    path = tmp_path_factory.mktemp("flags") / "media.cmifpkg"
    document = make_media_document(3, events=30, links=2, rich=True)
    path.write_text(pack(document), encoding="utf-8")
    return path


def _expire(signum, frame):
    raise TimeoutError("the CLI run did not finish in time")


def _run_cli(argv, capsys, seconds=30):
    """``main(argv)`` in this process, cut off after ``seconds``; returns
    the exit code, stdout and stderr."""
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(seconds)
    try:
        code = main([str(part) for part in argv])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("command,flags", [
    ("schedule", ["--slot-ms", "0"]),
    ("schedule", ["--slot-ms", "nan"]),
    ("schedule", ["--slot-ms", "1e-9"]),
    ("schedule", ["--slot-ms=-5"]),
    ("schedule", ["--slot-ms", "inf"]),
    ("play", ["--rate", "nan"]),
    ("play", ["--sweep", "--rates", "1,nan"]),
    ("play", ["--sweep", "--rates", "1,inf"]),
    ("play", ["--prefetch", "nan"]),
    ("play", ["--seek", "nan"]),
], ids=["slot-0", "slot-nan", "slot-1e-9", "slot-negative", "slot-inf",
        "rate-nan", "rates-nan", "rates-inf", "prefetch-nan", "seek-nan"])
def test_cli_refuses_a_hostile_number(media_package, capsys, command,
                                      flags):
    code, out, err = _run_cli([command, media_package, *flags], capsys)
    assert code == 2, (out, err)
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not NON_FINITE.search(err)


@pytest.fixture(scope="module")
def flat_document(tmp_path_factory):
    path = tmp_path_factory.mktemp("flags") / "flat.cmif"
    path.write_text(write_document(make_flat_document(10)), encoding="utf-8")
    return path


@pytest.mark.parametrize("fixture", ["media_package", "flat_document"])
def test_cli_refuses_a_rate_that_overflows_the_timeline(request, capsys,
                                                        fixture):
    """A finite rate whose product with the last end is not finite is
    refused by name, with or without arcs to audit; 1e300 still plays."""
    path = request.getfixturevalue(fixture)
    code, out, err = _run_cli(["play", path, "--rate", "1e308"], capsys)
    assert code == 2, (out, err)
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "rate" in lines[0] and "1e" not in lines[0]
    code, out, err = _run_cli(["play", path, "--rate", "1e300"], capsys)
    assert code in (0, 1) and err == "", err
    assert out.startswith("playback on workstation:")


def test_both_players_refuse_an_overflowing_rate_alike():
    schedule = schedule_document(make_flat_document(10).compile())
    with pytest.raises(PlaybackError) as compiled:
        BatchPlayer(schedule, WORKSTATION).run_one(rate=1e308)
    with pytest.raises(PlaybackError) as reference:
        Player(WORKSTATION).play_reference(schedule, rate=1e308)
    assert str(compiled.value) == str(reference.value)
    assert "rate" in str(compiled.value)


@pytest.mark.parametrize("controls", [
    {"freeze_at_ms": 0.0, "freeze_duration_ms": math.inf},
    {"freeze_at_ms": 0.0, "freeze_duration_ms": math.nan},
    {"freeze_at_ms": 0.0, "freeze_duration_ms": -5.0},
    {"freeze_at_ms": -10.0, "freeze_duration_ms": 500.0},
    {"freeze_at_ms": math.nan, "freeze_duration_ms": 500.0},
    {"freeze_at_ms": math.inf, "freeze_duration_ms": 500.0},
], ids=["hold-inf", "hold-nan", "hold-negative", "point-negative",
        "point-nan", "point-inf"])
def test_both_players_refuse_a_bad_freeze_alike(controls):
    schedule = schedule_document(
        make_media_document(1, events=20).compile())
    with pytest.raises(PlaybackError) as compiled:
        BatchPlayer(schedule, WORKSTATION).run_one(**controls)
    with pytest.raises(PlaybackError) as reference:
        Player(WORKSTATION).play_reference(schedule, **controls)
    message = str(compiled.value)
    assert message == str(reference.value)
    assert "freeze" in message
    assert not re.search(r"\b(inf|nan)\b|-5|-10", message)


#: Each float-typed flag's command line, the flags it takes last.
FLOAT_FLAG_COMMANDS = (
    (("schedule", "{package}"), ("--slot-ms",)),
    (("play", "{package}"), ("--rate", "--seek", "--prefetch")),
    (("play", "{package}", "--sweep"), ("--rates", "--seeks", "--prefetch")),
    (("serve", "{directory}", "--generate", "3", "--events", "8",
      "--sites", "2", "--placement-sessions", "12"),
     ("--zipf", "--locality")),
    (("query", "{package}", "--explain"),
     ("--min-duration", "--max-duration")),
)


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_float_flags_exit_0_or_2_and_print_no_nan(media_package, tmp_path,
                                                  capsys, data):
    base, flags = data.draw(st.sampled_from(FLOAT_FLAG_COMMANDS))
    argv = [part.format(package=media_package,
                        directory=tmp_path / "serve") for part in base]
    for flag in flags:
        if flag in ("--rates", "--seeks"):
            values = data.draw(st.lists(st.sampled_from(HOSTILE_NUMBERS),
                                        min_size=1, max_size=3))
        else:
            values = data.draw(st.lists(st.sampled_from(HOSTILE_NUMBERS),
                                        max_size=1))
        if values:
            argv.append(f"{flag}={','.join(values)}")
    code, out, err = _run_cli(argv, capsys)
    assert code in (0, 2), (argv, out, err)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not NON_FINITE.search(out + err), (argv, out, err)
