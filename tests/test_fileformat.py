import json

import pytest

from conftest import CORPUS_FILES
from seanode.fileformat import (
    FORMAT_VERSION, DuplicateId, ParseError, UnknownKind, dumps, load, loads,
)
from seanode.interproc import run
from seanode.ir import LoadFieldNode, ReturnNode, Signature, SubNode
from seanode.runtime import IntVal


def minimal_doc(nodes=None):
    return {
        "version": FORMAT_VERSION,
        "methods": [{
            "signature": {"class": "T", "name": "m", "params": []},
            "nodes": nodes if nodes is not None else [
                {"id": 0, "kind": "StartNode", "fields": {"next": 1}},
                {"id": 1, "kind": "ReturnNode", "fields": {}},
            ],
        }],
    }


def test_load_factorial_corpus(corpus_dir):
    program = load(corpus_dir / "factorial.json")
    assert len(program.methods) == 1
    (g,) = program.methods.values()
    assert len(g) == 22


def test_round_trip_is_byte_identity_on_corpus(corpus_dir):
    files = sorted(corpus_dir.glob("*.json"))
    assert len(files) >= 15
    for path in files:
        text = path.read_text()
        assert dumps(load(path)) == text, path.name


def test_dumps_loads_is_program_identity():
    for path in CORPUS_FILES:
        program = load(path)
        again = loads(dumps(program))
        assert again.methods == program.methods, path.name


def test_duplicate_node_id_rejected():
    doc = minimal_doc([
        {"id": 0, "kind": "StartNode", "fields": {"next": 7}},
        {"id": 7, "kind": "ReturnNode", "fields": {}},
        {"id": 7, "kind": "EndNode", "fields": {}},
    ])
    with pytest.raises(DuplicateId):
        loads(json.dumps(doc))


def test_unknown_kind_rejected():
    doc = minimal_doc([{"id": 0, "kind": "FrobNode", "fields": {}}])
    with pytest.raises(UnknownKind):
        loads(json.dumps(doc))


def test_nonode_is_not_loadable():
    doc = minimal_doc([{"id": 0, "kind": "NoNode", "fields": {}}])
    with pytest.raises(UnknownKind):
        loads(json.dumps(doc))


def test_missing_required_field_rejected():
    doc = minimal_doc([
        {"id": 0, "kind": "StartNode", "fields": {}},
        {"id": 1, "kind": "ReturnNode", "fields": {}},
    ])
    with pytest.raises(ParseError, match="missing required field"):
        loads(json.dumps(doc))


def test_unknown_field_rejected():
    doc = minimal_doc([
        {"id": 0, "kind": "StartNode", "fields": {"next": 1, "bogus": 3}},
        {"id": 1, "kind": "ReturnNode", "fields": {}},
    ])
    with pytest.raises(ParseError, match="unknown fields"):
        loads(json.dumps(doc))


def test_version_checked():
    doc = minimal_doc()
    doc["version"] = "seanode/2"
    with pytest.raises(ParseError, match="version"):
        loads(json.dumps(doc))


def test_constant_width_checked():
    doc = minimal_doc([
        {"id": 0, "kind": "StartNode", "fields": {"next": 1}},
        {"id": 1, "kind": "ReturnNode", "fields": {"resultOpt": 2}},
        {"id": 2, "kind": "ConstantNode", "fields": {"const": {"int": 2 ** 31}}},
    ])
    with pytest.raises(ParseError, match="32-bit"):
        loads(json.dumps(doc))


def test_start_node_at_zero_required():
    doc = minimal_doc([
        {"id": 0, "kind": "EndNode", "fields": {}},
        {"id": 1, "kind": "MergeNode", "fields": {"ends": [0], "next": 2}},
        {"id": 2, "kind": "ReturnNode", "fields": {}},
    ])
    with pytest.raises(ParseError, match="StartNode"):
        loads(json.dumps(doc))


def test_optional_edges_absent_or_present():
    doc = minimal_doc([
        {"id": 0, "kind": "StartNode", "fields": {"next": 1}},
        {"id": 1, "kind": "LoadFieldNode",
         "fields": {"selfId": 1, "field": "c", "next": 2}},
        {"id": 2, "kind": "ReturnNode", "fields": {"resultOpt": 1}},
    ])
    program = loads(json.dumps(doc))
    (g,) = program.methods.values()
    assert g.kind(1) == LoadFieldNode(selfId=1, field="c", objectOpt=None, next=2)
    assert g.kind(2) == ReturnNode(resultOpt=1)
    assert loads(dumps(program)).methods == program.methods


def test_negative_edge_rejected():
    doc = minimal_doc([
        {"id": 0, "kind": "StartNode", "fields": {"next": -1}},
        {"id": 1, "kind": "ReturnNode", "fields": {}},
    ])
    with pytest.raises(ParseError):
        loads(json.dumps(doc))


@pytest.mark.parametrize("kind, fields, message", [
    ("NegateNode", {"value": -1}, "field value must be a node id"),
    ("BeginNode", {"next": True}, "field next must be a node id"),
    ("ReturnNode", {"resultOpt": "2"}, "field resultOpt must be a node id"),
    ("MergeNode", {"ends": [2, -1], "next": 2}, "field ends must be an array of node ids"),
    ("ParameterNode", {"index": -1}, "field index must be a non-negative integer"),
    ("LoadFieldNode", {"selfId": 1, "field": 7, "next": 2}, "field field must be a string"),
    ("ConstantNode", {"const": {"int": 2 ** 31}},
     'field const must be {"int": <signed 32-bit decimal>}'),
    ("MethodCallTargetNode", {"targetMethod": {"class": "T"}, "arguments": []},
     "signature needs exactly class/name/params"),
])
def test_malformed_field_error_text_by_field_class(kind, fields, message):
    doc = minimal_doc([
        {"id": 0, "kind": "StartNode", "fields": {"next": 2}},
        {"id": 1, "kind": kind, "fields": fields},
        {"id": 2, "kind": "ReturnNode", "fields": {}},
    ])
    with pytest.raises(ParseError) as exc:
        loads(json.dumps(doc))
    assert str(exc.value) == f"method T.m(), node 1: {message}"


def test_json_syntax_error_carries_line():
    with pytest.raises(ParseError) as exc:
        loads('{\n  "version": }')
    assert exc.value.line == 2


def test_duplicate_signature_rejected():
    doc = minimal_doc()
    doc["methods"].append(doc["methods"][0])
    with pytest.raises(ParseError, match="duplicate method"):
        loads(json.dumps(doc))


def test_method_call_target_round_trips():
    sig = Signature("T", "callee", ("int", "ref"))
    doc = minimal_doc([
        {"id": 0, "kind": "StartNode", "fields": {"next": 2}},
        {"id": 1, "kind": "MethodCallTargetNode",
         "fields": {"targetMethod": {"class": "T", "name": "callee",
                                     "params": ["int", "ref"]},
                    "arguments": []}},
        {"id": 2, "kind": "InvokeNode", "fields": {"selfId": 2, "callTarget": 1, "next": 3}},
        {"id": 3, "kind": "ReturnNode", "fields": {}},
    ])
    program = loads(json.dumps(doc))
    (g,) = program.methods.values()
    assert g.kind(1).targetMethod == sig
    assert loads(dumps(program)).methods == program.methods


def test_sub_node_round_trips_and_runs():
    doc = minimal_doc([
        {"id": 0, "kind": "StartNode", "fields": {"next": 4}},
        {"id": 1, "kind": "ParameterNode", "fields": {"index": 0}},
        {"id": 2, "kind": "ParameterNode", "fields": {"index": 1}},
        {"id": 3, "kind": "SubNode", "fields": {"x": 1, "y": 2}},
        {"id": 4, "kind": "ReturnNode", "fields": {"resultOpt": 3}},
    ])
    doc["methods"][0]["signature"]["params"] = ["int", "int"]
    text = json.dumps(doc, indent=2) + "\n"
    program = loads(text)
    (sig, g), = program.methods.items()
    assert g.kind(3) == SubNode(x=1, y=2)
    assert dumps(program) == text
    assert run(program, sig, [IntVal(3), IntVal(10)]).value == IntVal(-7)


def test_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        loads("[" * 200_000)


def test_undecodable_bytes_are_a_parse_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(ParseError, match="not UTF-8"):
        load(path)

