"""The seanode/1 on-disk program format.

A program file is JSON: a version string and a list of methods, each a
signature plus node records. Node records name their kind and carry a
field map matching the kind's declared fields: edges are integers, edge
lists are arrays, optional edges are present-or-absent, constants are
{"int": <signed 32-bit decimal>}. Loading validates structure strictly;
nothing is silently defaulted. Saving is canonical (sorted node ids,
declared field order), so load followed by save is byte-identity on
canonical files.
"""

import json
from dataclasses import fields as dc_fields
from pathlib import Path

from . import ir
from .ir import Graph, IRNode, Program, Signature
from .runtime import INT_MAX, INT_MIN, IntVal, Value

FORMAT_VERSION = "seanode/1"


class FormatError(Exception):
    pass


class ParseError(FormatError):
    def __init__(self, reason: str, line: int | None = None):
        at = f" (line {line})" if line is not None else ""
        super().__init__(f"{reason}{at}")
        self.reason = reason
        self.line = line


class DuplicateId(FormatError):
    def __init__(self, nid: int, method: str):
        super().__init__(f"duplicate node id {nid} in method {method}")
        self.nid = nid


class UnknownKind(FormatError):
    def __init__(self, kind: str, method: str):
        super().__init__(f"unknown node kind {kind!r} in method {method}")
        self.kind = kind


def _node_record(nid: int, node: IRNode) -> dict:
    out: dict = {}
    for name, _, encode, optional in _CODECS[node.kind_name()][1]:
        value = getattr(node, name)
        if not (optional and value is None):
            out[name] = encode(value)
    return {"id": nid, "kind": node.kind_name(), "fields": out}


def _signature_record(sig: Signature) -> dict:
    return {
        "class": sig.className,
        "name": sig.methodName,
        "params": list(sig.parameterTypes),
    }


def dumps(program: Program) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "methods": [
            {
                "signature": _signature_record(sig),
                "nodes": [_node_record(nid, node) for nid, node in sorted(g.items())],
            }
            for sig, g in program.methods.items()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def save(program: Program, path) -> None:
    Path(path).write_text(dumps(program), encoding="utf-8")


def _req(cond: bool, reason: str):
    if not cond:
        raise ParseError(reason)


def _is_id(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _parse_signature(raw, where: str) -> Signature:
    _req(isinstance(raw, dict), f"{where}: signature must be an object")
    _req(set(raw) == {"class", "name", "params"},
         f"{where}: signature needs exactly class/name/params")
    _req(isinstance(raw["class"], str) and isinstance(raw["name"], str),
         f"{where}: signature class/name must be strings")
    params = raw["params"]
    _req(isinstance(params, list) and all(isinstance(p, str) for p in params),
         f"{where}: signature params must be a list of type strings")
    return Signature(raw["class"], raw["name"], tuple(params))


def _same(value):
    return value


def _encode_int(value):
    if not isinstance(value, IntVal):
        raise ParseError(f"only integer constants are serializable, got {value}")
    return {"int": value.value}


def _is_id_list(raw) -> bool:
    return isinstance(raw, list) and all(map(_is_id, raw))


def _is_int_record(raw) -> bool:
    v = raw.get("int") if isinstance(raw, dict) and set(raw) == {"int"} else None
    return isinstance(v, int) and not isinstance(v, bool) and INT_MIN <= v <= INT_MAX


def _checked(name: str, ok, what: str, convert=_same):
    def parse(raw, where: str):
        if not ok(raw):
            raise ParseError(f"{where}: field {name} must be {what}")
        return convert(raw)
    return parse


def _field_codec(cls, f) -> tuple:
    """(name, parse, encode, optional) for one declared field of a kind,
    chosen from its edge arity or, for a plain attribute, its annotated
    type. parse(raw, where) validates and converts one JSON value."""
    name = f.name
    arity = dict(cls.INPUTS + tuple((s, ir.ONE) for s in cls.SUCCESSORS)).get(name)
    if arity == ir.MANY:
        return name, _checked(name, _is_id_list, "an array of node ids", tuple), list, False
    if arity is not None:
        return name, _checked(name, _is_id, "a node id"), _same, arity == ir.OPT
    if f.type is int:
        return name, _checked(name, _is_id, "a non-negative integer"), _same, False
    if f.type is str:
        return name, _checked(name, lambda raw: isinstance(raw, str), "a string"), _same, False
    if f.type is Value:
        parse = _checked(name, _is_int_record, '{"int": <signed 32-bit decimal>}',
                         lambda raw: IntVal(raw["int"]))
        return name, parse, _encode_int, False
    if f.type is Signature:
        return name, _parse_signature, _signature_record, False
    raise TypeError(f"no seanode/1 codec for {cls.__name__}.{name}: {f.type}")


# kind name -> (node class, one codec per declared field in declared order)
_CODECS = {
    kind: (cls, tuple(_field_codec(cls, f) for f in dc_fields(cls)))
    for kind, cls in ir.NODE_KINDS.items()
}


def _parse_node(raw, method: str) -> tuple[int, IRNode]:
    where = f"method {method}"
    _req(isinstance(raw, dict) and set(raw) == {"id", "kind", "fields"},
         f"{where}: node records need exactly id/kind/fields")
    nid = raw["id"]
    _req(_is_id(nid), f"{where}: node id must be a non-negative integer")
    where = f"method {method}, node {nid}"
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _CODECS:
        raise UnknownKind(str(kind), method)
    cls, codecs = _CODECS[kind]
    field_map = raw["fields"]
    _req(isinstance(field_map, dict), f"{where}: fields must be an object")

    kwargs = {}
    for name, parse, _, optional in codecs:
        if name in field_map:
            kwargs[name] = parse(field_map[name], where)
        elif optional:
            kwargs[name] = None
        else:
            raise ParseError(f"{where}: missing required field {name!r}")
    unknown = set(field_map) - set(kwargs)
    if unknown:
        raise ParseError(f"{where}: unknown fields {sorted(unknown)}")
    return nid, cls(**kwargs)


def loads(text: str) -> Program:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, line=e.lineno) from e
    except RecursionError as e:
        raise ParseError("JSON nested too deeply") from e
    _req(isinstance(doc, dict) and set(doc) == {"version", "methods"},
         "top level needs exactly version/methods")
    _req(doc["version"] == FORMAT_VERSION,
         f"unsupported format version {doc['version']!r}")
    _req(isinstance(doc["methods"], list), "methods must be an array")

    methods: dict[Signature, Graph] = {}
    for raw_method in doc["methods"]:
        _req(isinstance(raw_method, dict) and set(raw_method) == {"signature", "nodes"},
             "method entries need exactly signature/nodes")
        sig = _parse_signature(raw_method["signature"], "method")
        _req(sig not in methods, f"duplicate method signature {sig}")
        _req(isinstance(raw_method["nodes"], list),
             f"method {sig}: nodes must be an array")
        nodes: dict[int, IRNode] = {}
        for raw_node in raw_method["nodes"]:
            nid, node = _parse_node(raw_node, str(sig))
            if nid in nodes:
                raise DuplicateId(nid, str(sig))
            nodes[nid] = node
        _req(0 in nodes and isinstance(nodes[0], ir.StartNode),
             f"method {sig}: node 0 must be a StartNode")
        methods[sig] = Graph(nodes)
    return Program(methods)


def load(path) -> Program:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"not UTF-8: {e.reason} at byte {e.start}") from e
    return loads(text)
