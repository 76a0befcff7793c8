import hashlib
import json
import random

import pytest

from conftest import CORPUS_FILES, REPO
from seanode.fileformat import (
    FORMAT_VERSION, DuplicateId, FormatError, ParseError, UnknownKind, dumps, load, loads,
)
from seanode.interproc import run
from seanode.ir import LoadFieldNode, Program, ReturnNode, Signature, SubNode
from seanode.optimize import apply_pass
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


def _encoded(value):
    if isinstance(value, IntVal):
        return {"int": value.value}
    if isinstance(value, Signature):
        return {"class": value.className, "name": value.methodName,
                "params": list(value.parameterTypes)}
    return list(value) if isinstance(value, tuple) else value


def document(program: Program) -> dict:
    """The seanode/1 document of a program, built field by field; only
    optional edges are ever None, and an absent one is left out."""
    return {"version": FORMAT_VERSION, "methods": [
        {"signature": _encoded(sig),
         "nodes": [{"id": nid, "kind": node.kind_name(),
                    "fields": {name: _encoded(getattr(node, name)) for name in node.FIELDS
                               if getattr(node, name) is not None}}
                   for nid, node in sorted(g.items())]}
        for sig, g in program.methods.items()]}


def test_dumps_writes_what_json_dumps_with_indent_writes(monkeypatch, fixtures_dir):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import gen
    programs = [load(path) for path in CORPUS_FILES + sorted(fixtures_dir.glob("*.json"))]
    for workload in ("exec-loops", "exec-calls-heap", "validate-opt"):
        for case in gen.generate(workload, 1):
            programs.append(loads(case.text))
            if workload == "validate-opt":  # and the optimizer's rewrite of it
                (sig, g), = programs[-1].methods.items()
                programs.append(Program({sig: apply_pass(g, "all")[0]}))
    assert len(programs) > 60
    for program in programs + [Program({})]:
        assert dumps(program) == json.dumps(document(program), indent=2) + "\n"


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


# Seeded mutations of corpus node records: loads' outcome on each, the
# FormatError's class and text or the saved program, pinned by one digest.
_BAD_VALUES = (None, -1, True, 1.5, "x", [], [-1], {"int": 2 ** 31})


def _mutated(record: dict, kinds: list, rng) -> dict:
    record = dict(record, fields=dict(record["fields"]))
    fields = record["fields"]
    how = rng.choice(("drop", "add", "set", "kind", "id"))
    if how == "drop" and fields:
        del fields[rng.choice(sorted(fields))]
    elif how in ("drop", "add"):
        fields["bogus"] = rng.choice((0, "x"))
    elif how == "set":
        fields[rng.choice(sorted(fields) or ["next"])] = rng.choice(_BAD_VALUES)
    elif how == "kind":
        record["kind"] = rng.choice(kinds)
    else:
        record["id"] = rng.choice((True, False))
    return record


def _loads_outcomes(count: int, seed: int = 0) -> list[str]:
    docs = [json.loads(path.read_text()) for path in CORPUS_FILES]
    kinds = sorted({node["kind"] for doc in docs for m in doc["methods"] for node in m["nodes"]})
    kinds.append("FrobNode")
    rng = random.Random(seed)
    outcomes = []
    for _ in range(count):
        doc = rng.choice(docs)
        k = rng.randrange(len(doc["methods"]))
        method = doc["methods"][k]
        nodes = list(method["nodes"])
        i = rng.randrange(len(nodes))
        nodes[i] = _mutated(nodes[i], kinds, rng)
        methods = list(doc["methods"])
        methods[k] = dict(method, nodes=nodes)
        try:
            outcomes.append(dumps(loads(json.dumps(dict(doc, methods=methods)))))
        except FormatError as e:
            outcomes.append(f"{type(e).__name__}: {e}")
    return outcomes


LOADS_SHA256 = "3f59be6407b46b75287411bf5908225ec321d04139189e186240944c2ed710f1"


def test_loads_outcomes_on_mutated_records_are_pinned():
    outcomes = _loads_outcomes(2000)
    assert len(outcomes) == 2000
    digest = hashlib.sha256("\n\0".join(outcomes).encode()).hexdigest()
    assert digest == LOADS_SHA256


# apply_pass on validate-opt at seeds 1, 2, 3 and 7: per case in order, the
# log lines joined by newlines, then the sweep count, then the saved result.
VALIDATE_OPT_PASS_SHA256 = "32de503ea8f043006860ed4d7169dfd77a83334cf0d5d3523f4ae6b3816f35d2"


def test_apply_pass_on_validate_opt_is_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import gen
    h = hashlib.sha256()
    for seed in (1, 2, 3, 7):
        for case in gen.generate("validate-opt", seed):
            sig = Signature(*case.program.main)
            g, report = apply_pass(loads(case.text).graph(sig), "all")
            for part in ("\n".join(report.log_lines()), str(report.iterations),
                         dumps(Program({sig: g}))):
                h.update(part.encode())
    assert h.hexdigest() == VALIDATE_OPT_PASS_SHA256
