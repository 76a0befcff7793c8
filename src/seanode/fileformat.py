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


def _signature_record(sig: Signature) -> dict:
    return {"class": sig.className, "name": sig.methodName, "params": list(sig.parameterTypes)}


# dumps gives the bytes json.dumps(document, indent=2) gives, without the
# pure-Python encoder that indent selects: it writes each value at the
# indentation it nests at.

def _block(lines: list, pad: str, brackets: str) -> str:
    """Indented lines in an array or object that closes at pad."""
    if not lines:
        return brackets
    return brackets[0] + "\n" + ",\n".join(lines) + "\n" + pad + brackets[1]


def _text(value, pad: str) -> str:
    """json.dumps(value, indent=2) for a value written at indentation pad;
    object keys are strings."""
    if type(value) is int:
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        return _block([inner + _text(v, inner) for v in value], pad, "[]")
    if isinstance(value, dict):
        return _block([f"{inner}{json.dumps(k)}: {_text(v, inner)}" for k, v in value.items()],
                      pad, "{}")
    return json.dumps(value)


# The indentation of a node record's fields object, of a field, and of a
# list field's items: a node record is an item of its method's nodes.
_FIELDS_PAD, _FIELD_PAD, _ITEM_PAD = " " * 10, " " * 12, " " * 14


def _field_text(value) -> str:
    return _text(value, _FIELD_PAD)


def _id_text(value) -> str:
    # A wrong-shape edge (None or a tuple where an id goes) as JSON writes it.
    return int.__repr__(value) if type(value) is int else _field_text(value)


def _ids_text(value: tuple) -> str:
    if not all(type(v) is int for v in value):
        return _field_text(value)
    return _block([_ITEM_PAD + int.__repr__(v) for v in value], _FIELD_PAD, "[]")


def _const_text(value) -> str:
    """{"int": <value>}; only integer constants are serializable."""
    if not isinstance(value, IntVal):
        raise ParseError(f"only integer constants are serializable, got {value}")
    return f'{{\n{_ITEM_PAD}"int": {_text(value.value, _ITEM_PAD)}\n{_FIELD_PAD}}}'


def _node_text(nid: int, node: IRNode) -> str:
    """A node record; JSON writes a kind or field name as it is, in quotes."""
    kind = node.kind_name()
    lines = []
    for name, _, write, optional, _ in _CODECS[kind][1]:
        value = getattr(node, name)
        if not (optional and value is None):
            lines.append(f'{_FIELD_PAD}"{name}": {write(value)}')
    return (f'        {{\n          "id": {_text(nid, "")},\n          "kind": "{kind}",'
            f'\n          "fields": {_block(lines, _FIELDS_PAD, "{}")}\n        }}')


def dumps(program: Program) -> str:
    methods = []
    for sig, g in program.methods.items():
        nodes = [_node_text(nid, node) for nid, node in sorted(g.items())]
        methods.append(f'    {{\n      "signature": {_text(_signature_record(sig), " " * 6)},\n'
                       f'      "nodes": {_block(nodes, " " * 6, "[]")}\n    }}')
    return (f'{{\n  "version": {json.dumps(FORMAT_VERSION)},\n'
            f'  "methods": {_block(methods, "  ", "[]")}\n}}\n')


def save(program: Program, path) -> None:
    Path(path).write_text(dumps(program), encoding="utf-8")


def _req(cond: bool, reason: str):
    if not cond:
        raise ParseError(reason)


def _is_id(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _parse_signature(raw) -> Signature:
    _req(isinstance(raw, dict), "signature must be an object")
    _req(set(raw) == {"class", "name", "params"}, "signature needs exactly class/name/params")
    _req(isinstance(raw["class"], str) and isinstance(raw["name"], str),
         "signature class/name must be strings")
    params = raw["params"]
    _req(isinstance(params, list) and all(isinstance(p, str) for p in params),
         "signature params must be a list of type strings")
    return Signature(raw["class"], raw["name"], tuple(params))


def _is_id_list(raw) -> bool:
    return isinstance(raw, list) and all(map(_is_id, raw))


def _is_int_record(raw) -> bool:
    v = raw.get("int") if isinstance(raw, dict) and set(raw) == {"int"} else None
    return isinstance(v, int) and not isinstance(v, bool) and INT_MIN <= v <= INT_MAX


def _checked(name: str, ok, what: str, convert=None):
    def parse(raw):
        if not ok(raw):
            raise ParseError(f"field {name} must be {what}")
        return raw if convert is None else convert(raw)
    return parse


def _signature_text(sig: Signature) -> str:
    return _field_text(_signature_record(sig))


def _field_codec(cls, name: str, type_) -> tuple:
    """(name, parse, write, optional, plain) for one declared field of a
    kind, chosen from its annotated type; an int is a node id if the kind
    names it as an edge. parse(raw) validates and converts one JSON value,
    write(value) gives its text in a node record. A plain field holds a
    node id or a natural number, which loads takes as it is."""
    if name in cls.LIST_EDGES:
        parse = _checked(name, _is_id_list, "an array of node ids", tuple)
        return name, parse, _ids_text, False, False
    if name in cls.OPTIONAL_EDGES:
        return name, _checked(name, _is_id, "a node id"), _id_text, True, True
    if type_ is int:
        what = "a node id" if name in cls.INPUTS + cls.SUCCESSORS else "a non-negative integer"
        return name, _checked(name, _is_id, what), _id_text, False, True
    if type_ is str:
        parse = _checked(name, lambda raw: isinstance(raw, str), "a string")
        return name, parse, _field_text, False, False
    if type_ is Value:
        parse = _checked(name, _is_int_record, '{"int": <signed 32-bit decimal>}',
                         lambda raw: IntVal(raw["int"]))
        return name, parse, _const_text, False, False
    if type_ is Signature:
        return name, _parse_signature, _signature_text, False, False
    raise TypeError(f"no seanode/1 codec for {cls.__name__}.{name}: {type_}")


# kind name -> (node class, one codec per declared field in declared order)
_CODECS = {
    kind: (cls, tuple(_field_codec(cls, *f) for f in cls.FIELDS.items()))
    for kind, cls in ir.NODE_KINDS.items()
}

_RECORD_KEYS = frozenset(("id", "kind", "fields"))
_ABSENT = object()


def _parse_node(raw, method: str) -> tuple[int, IRNode]:
    """A node record's id and its node, built from the record's fields in
    declared order: a plain field's value is checked inline, any other goes
    through its codec."""
    if not (isinstance(raw, dict) and raw.keys() == _RECORD_KEYS):
        raise ParseError(f"method {method}: node records need exactly id/kind/fields")
    nid = raw["id"]
    if not (type(nid) is int and nid >= 0):
        raise ParseError(f"method {method}: node id must be a non-negative integer")
    kind = raw["kind"]
    if not isinstance(kind, str) or kind not in _CODECS:
        raise UnknownKind(str(kind), method)
    cls, codecs = _CODECS[kind]
    field_map = raw["fields"]
    args = []
    try:  # where the record is goes into a message only once one is raised
        _req(isinstance(field_map, dict), "fields must be an object")
        get = field_map.get
        read = 0
        for name, parse, _, optional, plain in codecs:
            value = get(name, _ABSENT)
            if value is _ABSENT:
                if not optional:
                    raise ParseError(f"missing required field {name!r}")
                args.append(None)
            else:
                read += 1
                args.append(value if plain and type(value) is int and value >= 0
                            else parse(value))
        if read != len(field_map):
            unknown = field_map.keys() - {codec[0] for codec in codecs}
            raise ParseError(f"unknown fields {sorted(unknown)}")
    except ParseError as e:
        raise ParseError(f"method {method}, node {nid}: {e.reason}") from None
    return nid, cls(*args)


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
        try:
            sig = _parse_signature(raw_method["signature"])
        except ParseError as e:
            raise ParseError(f"method: {e.reason}") from None
        _req(sig not in methods, f"duplicate method signature {sig}")
        method = str(sig)
        _req(isinstance(raw_method["nodes"], list), f"method {method}: nodes must be an array")
        nodes: dict[int, IRNode] = {}
        for raw_node in raw_method["nodes"]:
            nid, node = _parse_node(raw_node, method)
            if nid in nodes:
                raise DuplicateId(nid, method)
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
