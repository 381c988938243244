"""Hostile input fails with typed errors, never a builtin exception.

Malformed CMIF text must raise :class:`FormatError` from
``parse_document``; a package whose JSON lacks the package's shape must
raise :class:`TransportError` from ``unpack``, which the CLI reports
with exit code 2.
"""

import copy
import json

import pytest

from repro.cli import main
from repro.core.errors import FormatError, TransportError
from repro.corpus.news import make_paintings_fragment
from repro.format.parser import parse_document
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
