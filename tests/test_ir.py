import dataclasses
import random
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import CORPUS_FILES, corpus
from genutil import OPERATIONS, build, damage_bases, damaged_graph
from seanode import ir, optimize
from seanode.controlflow import plan
from seanode.dot import graph_to_dot
from seanode.fileformat import load
from seanode.interproc import run
from seanode.ir import (
    AbstractMergeNode, AddNode, BeginNode, ConstantNode, EndNode, Graph, IfNode, InvalidEdit,
    InvokeWithExceptionNode, MergeNode, NoNode, ParameterNode, RefNode, Signature, StartNode,
    ValuePhiNode,
)
from seanode.runtime import IntVal
from seanode.wellformed import check

FIXTURES = Path(__file__).parent / "fixtures"


def test_kind_unmapped_is_nonode():
    assert Graph({}).kind(0) == NoNode()


def test_kind_unmapped_shares_one_nonode():
    assert Graph({}).kind(0) is Graph({5: EndNode()}).kind(1)


def test_kind_direct_lookup():
    g = Graph({5: EndNode()})
    assert g.kind(5) == EndNode()


def test_kind_factorial_node_11(fact_graph):
    assert isinstance(fact_graph.kind(11), ir.IntegerLessThanNode)


def test_inputs_of_add():
    assert ir.edges_of(AddNode(x=3, y=4))[0] == (3, 4)


def test_inputs_of_end():
    assert ir.edges_of(EndNode())[0] == ()


def test_inputs_of_phi_merge_first():
    phi = ValuePhiNode(7, values=(1, 20), merge=6)
    assert ir.edges_of(phi)[0] == (6, 1, 20)


def test_successors_of_if():
    assert ir.edges_of(IfNode(condition=11, trueSuccessor=13, falseSuccessor=16))[1] == (13, 16)


def test_successors_of_constant():
    assert ir.edges_of(ConstantNode(IntVal(1)))[1] == ()


def test_successors_of_invoke_with_exception():
    node = InvokeWithExceptionNode(selfId=9, callTarget=8, next=12, exceptionEdge=30)
    assert ir.edges_of(node)[1] == (12, 30)


def test_usages_factorial_merge(fact_graph):
    assert fact_graph.usages(6) >= {7, 8}


def test_predecessors_single_edge():
    g = Graph({0: StartNode(next=5), 5: EndNode()})
    assert {m for m, node in g.items() if 5 in ir.edges_of(node)[1]} == {0}


def test_inputs_of_unmapped_id_empty():
    assert ir.edges_of(Graph({}).kind(42))[0] == ()


def test_is_sequential():
    assert ir.is_sequential(BeginNode(next=4))
    assert not ir.is_sequential(IfNode(condition=1, trueSuccessor=2, falseSuccessor=3))


def test_is_data():
    assert ir.is_data(ValuePhiNode(0, values=(), merge=1))
    assert ir.is_data(AddNode(x=1, y=2))
    assert not ir.is_data(StartNode(next=1))


def test_replace_read_back(fact_graph):
    g2 = fact_graph.replace_node(12, RefNode(next=13))
    assert g2.kind(12) == RefNode(next=13)


def test_insert_occupied_rejected():
    g = Graph({0: StartNode(next=0)})
    with pytest.raises(InvalidEdit):
        g.insert_node(0, EndNode())


def test_replace_unmapped_rejected():
    with pytest.raises(InvalidEdit):
        Graph({}).replace_node(3, EndNode())


def test_insert_negative_id_rejected():
    with pytest.raises(InvalidEdit):
        Graph({0: StartNode(next=0)}).insert_node(-1, EndNode())


def test_a_negative_parameter_index_is_rejected_when_built():
    # The index is a natural number; -1 would read the last argument.
    with pytest.raises(ValueError, match="negative parameter index: -1"):
        ParameterNode(-1)
    assert ParameterNode(0).index == 0


def test_store_nonode_rejected():
    with pytest.raises(InvalidEdit):
        Graph({0: NoNode()})
    g = Graph({0: StartNode(next=0)})
    with pytest.raises(InvalidEdit):
        g.replace_node(0, NoNode())
    with pytest.raises(InvalidEdit):
        g.insert_node(1, NoNode())


def test_edits_are_persistent(fact_graph):
    before = fact_graph.kind(12)
    g2 = fact_graph.replace_node(12, RefNode(next=13))
    assert fact_graph.kind(12) == before
    fresh = max(nid for nid, _ in g2.items()) + 1
    g3 = g2.insert_node(fresh, EndNode())
    assert fresh not in g2
    assert len(g3) == len(g2) + 1


def test_input_and_successor_fields_disjoint():
    for cls in ir.NODE_KINDS.values():
        assert not set(cls.INPUTS) & set(cls.SUCCESSORS), cls


def test_signature_structural_equality():
    a = Signature("C", "m", ("int",))
    b = Signature("C", "m", ["int"])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Signature("C", "m", ())


def test_a_signature_refuses_a_string_of_parameter_types():
    # tuple("int") would give the parameter types ('i', 'n', 't').
    with pytest.raises(TypeError, match="parameterTypes must be type names, not 'int'"):
        Signature("T", "f", "int")
    assert str(Signature("T", "f", ["int"])) == "T.f(int)"


def test_no_node_kind_is_built_by_dataclasses():
    # A kind declared with @dataclass would get a dataclass __init__ of its
    # own annotations only, none for a kind that inherits its fields.
    for cls in (*ir.NODE_KINDS.values(), ir.IRNode, ir.BinaryNode, ir.AbstractEndNode,
                ir.AbstractMergeNode, NoNode):
        assert not hasattr(cls, "__dataclass_params__"), cls


def _frozen_dataclass(kind):
    """The frozen dataclass of kind's FIELDS: its __post_init__ stores a
    list edge as a tuple, then runs the kind's own, if any."""
    def post_init(self):
        for name in kind.LIST_EDGES:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if hasattr(kind, "__post_init__"):
            kind.__post_init__(self)
    return dataclasses.make_dataclass(kind.__name__, kind.FIELDS.items(), frozen=True,
                                      namespace={"__post_init__": post_init})


_REFERENCES = {kind: _frozen_dataclass(kind) for kind in (*ir.NODE_KINDS.values(), NoNode)}

# A value for each field type the kinds declare, from small domains, so
# that equal values are often drawn twice; a list edge built from a list
# or a tuple, and negative ints, which a parameter index refuses.
_ids = st.integers(-2, 4)
_FIELD_VALUES = {
    int: _ids,
    int | None: st.none() | _ids,
    tuple[int, ...]: st.lists(_ids, max_size=2) | st.lists(_ids, max_size=2).map(tuple),
    ir.Value: st.builds(IntVal, st.integers(-1, 1)),
    str: st.sampled_from(("f", "g")),
    Signature: st.builds(Signature, st.sampled_from(("A", "B")), st.just("m"),
                         st.lists(st.just("int"), max_size=1)),
}


def _outcome(act, *args, **kwargs):
    """What act(*args, **kwargs) returns, or the type and text of what it
    raises."""
    try:
        return "returned", act(*args, **kwargs)
    except Exception as e:
        return "raised", type(e), str(e)


@given(st.sampled_from(tuple(_REFERENCES)), st.data())
def test_differential_node_methods_match_a_frozen_dataclass(kind, data):
    # Nodes of a kind and of a kind with the same FIELDS, built from the same
    # values as the frozen dataclasses of their FIELDS, construct, compare,
    # hash, print and refuse changes as those do.
    ref = _REFERENCES[kind]
    assert kind.__match_args__ == ref.__match_args__
    values = [data.draw(_FIELD_VALUES[t]) for t in kind.FIELDS.values()]
    got, want = _outcome(kind, *values), _outcome(ref, *values)
    assert got[0] == want[0] and (got[0] == "returned" or got == want)
    assert _outcome(kind, **dict(zip(kind.FIELDS, values))) == got
    if got[0] == "raised":
        return
    node, twin = got[1], ref(*values)
    assert repr(node) == repr(twin)
    assert hash(node) == hash(twin)
    for name in (*kind.FIELDS, "other"):
        for act in (lambda n: setattr(n, name, 0), lambda n: delattr(n, name)):
            assert _outcome(act, node) == _outcome(act, twin)
    kind2 = data.draw(st.sampled_from([k for k in _REFERENCES if k.FIELDS == kind.FIELDS]))
    values2 = [v if data.draw(st.booleans()) else data.draw(_FIELD_VALUES[t])
               for v, t in zip(values, kind.FIELDS.values())]
    other, other_twin = _outcome(kind2, *values2), _outcome(_REFERENCES[kind2], *values2)
    assert other[0] == other_twin[0]
    if other[0] == "returned":
        def compare(a, b):
            return a == b, b == a, a != b, b != a, a.__eq__(b), hash(b)
        assert compare(node, other[1]) == compare(twin, other_twin[1])
        assert (node == twin, node == tuple(values)) == (False, False)


# Random graphs: edges may dangle; accessor laws must hold regardless.
_nodes = st.one_of(
    st.builds(AddNode, x=st.integers(0, 9), y=st.integers(0, 9)),
    st.builds(BeginNode, next=st.integers(0, 9)),
    st.builds(IfNode, condition=st.integers(0, 9),
              trueSuccessor=st.integers(0, 9), falseSuccessor=st.integers(0, 9)),
    st.builds(EndNode),
    st.builds(lambda vs, m: ValuePhiNode(0, values=tuple(vs), merge=m),
              st.lists(st.integers(0, 9), max_size=3), st.integers(0, 9)),
)
_graphs = st.dictionaries(st.integers(0, 9), _nodes, max_size=8).map(Graph)


@given(_graphs)
def test_usages_predecessors_are_inverses(g):
    for a, node in g.items():
        for b, _ in g.items():
            assert (b in ir.edges_of(node)[0]) == (a in g.usages(b))
    # The control-flow predecessors are those of the reachable nodes.
    order, preds = optimize._cfg(g)
    for a in order:
        for b in order:
            assert (b in plan(g, a)[1]) == (a in preds[b])


def _users_by_definition(g, nid):
    return {m for m, node in g.items() if nid in ir.edges_of(node)[0]}


def _edge_fields(node, names) -> list:
    # The reference edge reader: the one ir had before each kind's readers
    # were derived from its field types.
    kind = type(node)
    out = []
    for name in names:
        v = getattr(node, name)
        if name in kind.LIST_EDGES:
            out.extend(v)
        elif v is not None or name not in kind.OPTIONAL_EDGES:
            out.append(v)
    return out


def _reference_row(node) -> tuple:
    kind = type(node)
    return tuple(tuple(_edge_fields(node, names))
                 for names in (kind.INPUTS, kind.SUCCESSORS, kind.VALUE_EDGES))


def test_edge_readers_match_the_reference_on_every_damaged_node():
    # Damaged graphs hold None, tuples and unmapped ids in edge fields of
    # every shape, beside the well-formed nodes they were made from.
    bases = damage_bases()
    nodes = [node for s in range(300)
             for _, node in damaged_graph(bases[s % len(bases)], random.Random(s)).items()]
    nodes += [node for path in CORPUS_FILES + sorted(FIXTURES.glob("*.json"))
              for g in load(path).methods.values() for _, node in g.items()]
    nodes += [RefNode(next=3), RefNode(next=None)]
    assert {type(node) for node in nodes} == set(ir.NODE_KINDS.values())
    for node in nodes:
        row = _reference_row(node)
        assert ir.edges_of(node) == row, node
        assert ir.value_inputs(node) == list(row[2]), node


def test_the_edge_table_decodes_each_node_once(monkeypatch):
    # Whatever reads a graph's edges, and however often, each node's edge
    # fields are decoded once: check (twice), the CFG walk, dot and run.
    p = corpus("factorial")
    sig = p.resolve("fact")
    g = p.graph(sig)
    decoded = []
    edges_of = ir.edges_of
    monkeypatch.setattr(ir, "edges_of", lambda node: decoded.append(node) or edges_of(node))
    assert check(g).ok and check(g).ok
    optimize.dominators(g)
    graph_to_dot(g)
    assert run(p, sig, [IntVal(4)]).value == IntVal(24)
    assert sorted(map(id, decoded)) == sorted(id(node) for _, node in g.items())


def test_nodes_without_edges_share_one_row():
    g = Graph({0: StartNode(next=1), 1: ConstantNode(IntVal(1)), 2: ConstantNode(IntVal(2))})
    table = g.edges()
    assert set(table) == {nid for nid, _ in g.items()}
    assert table[1] is table[2] is ir.NO_EDGES == ((), (), ())
    assert table[0] is not ir.NO_EDGES


@given(_graphs, st.lists(st.tuples(st.integers(0, 11), _nodes), max_size=4))
def test_usages_index_matches_its_definition_across_edits(g, edits):
    def check(g):
        # The edge table an edited graph reads is its own.
        assert g.edges() == {nid: _reference_row(node) for nid, node in g.items()}
        for n in range(-1, 13):
            assert g.usages(n) == _users_by_definition(g, n)

    check(g)
    for nid, node in edits:
        # Edit a graph whose index the check above built.
        g = g.replace_node(nid, node) if nid in g else g.insert_node(nid, node)
        check(g)


def test_usages_answer_cannot_be_changed_by_its_caller(fact_graph):
    g = fact_graph
    before = set(g.usages(6))
    g.usages(6).add(99)
    g.usages(6).clear()
    assert g.usages(6) == before
    g.usages(42).add(1)
    assert g.usages(42) == set()


_BASES = damage_bases()


def _entry(e: tuple) -> tuple:
    # An end's placeholder root is a new partial per entry: compare what it raises.
    return (*e[:2], tuple((r.func, r.args) if isinstance(r, partial) else r for r in e[2]),
            *e[3:])


def _draw_edit(data, g: Graph) -> dict:
    """One to three changes: a drawn operation, a RefNode, a moved or added
    phi, a merge with other ends, an operation at a new id, or a RefNode in
    place of a control node's input, which the node's step entry may read."""
    ids = sorted(nid for nid, _ in g.items())
    top = max(ids, default=0)
    some = st.sampled_from(ids + [top + 1, top + 2])
    merges = [nid for nid in ids if isinstance(g.kind(nid), AbstractMergeNode)] or [top + 1]
    changes = {}
    for _ in range(data.draw(st.integers(1, 3))):
        what = data.draw(st.sampled_from(("operation", "ref", "phi", "merge", "insert", "input")))
        nid = data.draw(st.sampled_from(ids)) if ids else 0
        if what == "input":
            inputs = {n for m in ids if not ir.is_data(g.kind(m)) for n in g.edges()[m][0]}
            nid = data.draw(st.sampled_from(sorted(inputs.intersection(ids)) or [nid]))
        if what == "operation":
            node = build(data.draw(st.sampled_from(OPERATIONS)), lambda _: data.draw(some))
        elif what in ("ref", "input"):
            node = RefNode(next=data.draw(some))
        elif what == "phi":
            phis = [n for n in ids if isinstance(g.kind(n), ValuePhiNode)]
            nid = data.draw(st.sampled_from(phis + [top + 3]))
            values = tuple(data.draw(st.lists(some, max_size=3)))
            node = ValuePhiNode(nid, values=values, merge=data.draw(st.sampled_from(merges)))
        elif what == "merge":
            nid = data.draw(st.sampled_from(merges + [top + 4]))
            node = MergeNode(ends=tuple(data.draw(st.lists(some, max_size=3))),
                             next=data.draw(some))
        else:
            nid = top + 5 + len(changes)
            node = build(data.draw(st.sampled_from(OPERATIONS)), lambda _: data.draw(some))
        changes[nid] = node
    return changes


@given(st.integers(0, 10 ** 6), st.booleans(), st.integers(1, 6), st.booleans(), st.data())
def test_differential_edited_graph_tables_match_a_fresh_graph(seed, damaged, edits, each, data):
    # Each edit's parent has built its edge table, the step entry of every
    # id and, if each, its def-use index; the edit inherits the table and the
    # entries, and what it then answers must be what a graph built afresh
    # from its nodes answers. Unless each, only the last edit is compared,
    # so a parent may hold step entries but no def-use index (only an end's
    # entry builds one), and the edit's drops must build it.
    base = _BASES[seed % len(_BASES)]
    g = damaged_graph(base, random.Random(seed)) if damaged else Graph(dict(base.items()))
    for i in range(edits):
        ids = {nid for nid, _ in g.items()}
        g.edges()
        for nid in ids:
            if each:
                g.users(nid)
            plan(g, nid)
        parent_steps = dict(g.steps)
        edited = g.edit(_draw_edit(data, g))
        assert g.steps == parent_steps
        if each or i == edits - 1:
            fresh = Graph(dict(edited.items()))
            assert edited.edges() == fresh.edges()
            named = {n for ins, _, _ in fresh.edges().values() for n in ins}
            for n in ids | named | {nid for nid, _ in fresh.items()}:
                assert edited.users(n) == fresh.users(n), n
                assert _entry(plan(edited, n)) == _entry(plan(fresh, n)), n
        g = edited
