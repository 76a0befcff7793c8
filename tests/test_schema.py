"""The node-kind schema: every role table, value edge and field codec is
derived from one declaration per kind in `ir`.

The oracles below are the hand-written tables the modules kept before the
schema existed, written out literally, plus SubNode where it belongs.
"""

import dataclasses

import pytest

from seanode import controlflow, dataflow, ir
from seanode.fileformat import dumps, loads
from seanode.optimize import apply_pass
from seanode.ir import (
    AddNode, BeginNode, ConditionalNode, ConstantNode, EndNode, Graph, IfNode,
    IntegerLessThanNode, InvokeNode, InvokeWithExceptionNode, LoadFieldNode,
    LoopBeginNode, LoopEndNode, LoopExitNode, MergeNode, MethodCallTargetNode,
    MulNode, NegateNode, NewInstanceNode, NoNode, ParameterNode, Program,
    RefNode, ReturnNode, Signature, StartNode, StoreFieldNode, SubNode,
    UnwindNode, ValuePhiNode, ValueProxyNode,
)
from seanode.runtime import IntVal

SAMPLES = (
    ConstantNode(IntVal(-7)),
    ParameterNode(2),
    ValuePhiNode(1, values=(3, 4), merge=5),
    NegateNode(value=3),
    AddNode(x=3, y=4),
    SubNode(x=4, y=3),
    MulNode(x=3, y=3),
    IntegerLessThanNode(x=3, y=4),
    ConditionalNode(condition=3, trueValue=4, falseValue=5),
    ValueProxyNode(value=3, loopExit=4),
    StartNode(next=1),
    BeginNode(next=2),
    RefNode(next=2),
    IfNode(condition=3, trueSuccessor=4, falseSuccessor=5),
    EndNode(),
    MergeNode(ends=(3, 4), next=5),
    LoopBeginNode(ends=(3,), next=5),
    LoopEndNode(loopBegin=3),
    LoopExitNode(loopBegin=3, next=4),
    NewInstanceNode(selfId=1, instanceClass="Point", next=2),
    LoadFieldNode(selfId=1, field="x", objectOpt=None, next=2),
    StoreFieldNode(selfId=1, field="x", value=3, objectOpt=4, next=2),
    ReturnNode(resultOpt=None),
    InvokeNode(selfId=1, callTarget=3, next=2),
    InvokeWithExceptionNode(selfId=1, callTarget=3, next=2, exceptionEdge=4),
    MethodCallTargetNode(targetMethod=Signature("T", "m", ("int",)), arguments=(3, 4)),
    UnwindNode(exception=3),
)

SEQUENTIAL = {StartNode, BeginNode, RefNode, LoopExitNode, MergeNode, LoopBeginNode}
DATA = {
    ConstantNode, ParameterNode, ValuePhiNode, NegateNode, AddNode, MulNode,
    IntegerLessThanNode, ConditionalNode, ValueProxyNode, SubNode,
}
STATE_LEAF = {
    ValuePhiNode, InvokeNode, InvokeWithExceptionNode, NewInstanceNode, LoadFieldNode,
}
DUPLICABLE = {
    ConstantNode, ParameterNode, NegateNode, AddNode, MulNode,
    IntegerLessThanNode, ConditionalNode, ValueProxyNode, SubNode,
}
WALK_EDGES = {
    NegateNode: ("value",),
    AddNode: ("x", "y"),
    SubNode: ("x", "y"),
    MulNode: ("x", "y"),
    IntegerLessThanNode: ("x", "y"),
    ConditionalNode: ("condition", "trueValue", "falseValue"),
    ValueProxyNode: ("value",),
}
ARITHMETIC = {AddNode, SubNode, MulNode, IntegerLessThanNode, NegateNode}


def kinds_where(predicate):
    return {type(node) for node in SAMPLES if predicate(node)}


def test_samples_cover_every_registered_kind():
    assert sorted(type(n).__name__ for n in SAMPLES) == sorted(ir.NODE_KINDS)
    assert all(ir.NODE_KINDS[type(n).__name__] is type(n) for n in SAMPLES)


def test_nonode_is_not_registered():
    assert "NoNode" not in ir.NODE_KINDS
    assert NoNode.ROLE is None
    assert not any(pred(NoNode()) for pred in (
        ir.is_data, ir.is_state_leaf, ir.is_pure, ir.is_sequential))


def test_derived_role_sets_equal_the_literal_tables():
    assert kinds_where(ir.is_sequential) == SEQUENTIAL
    assert kinds_where(ir.is_data) == DATA
    assert kinds_where(ir.is_state_leaf) == STATE_LEAF
    assert kinds_where(ir.is_pure) == DUPLICABLE


def test_derived_value_edges_equal_the_walk_table():
    derived = {cls: cls.VALUE_EDGES for cls in ir.NODE_KINDS.values() if cls.VALUE_EDGES}
    assert derived == WALK_EDGES


def test_each_edge_is_a_field_whose_type_gives_its_shape():
    only_edges = (int | None, tuple[int, ...])
    for cls in ir.NODE_KINDS.values():
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        edges = cls.INPUTS + cls.SUCCESSORS
        assert all(types.get(name) in (int, *only_edges) for name in edges), cls
        assert {n for n, t in types.items() if t in only_edges} <= set(edges), cls
        assert cls.LIST_EDGES == {n for n, t in types.items() if t == tuple[int, ...]}, cls
        assert cls.OPTIONAL_EDGES == {n for n, t in types.items() if t == int | None}, cls


def test_edge_lists_given_as_lists_are_stored_as_tuples():
    # Stored as tuples, nodes stay hashable and equal however they were built.
    for node in SAMPLES:
        fields = {f.name: getattr(node, f.name) for f in dataclasses.fields(node)}
        lists = {n: list(v) for n, v in fields.items() if isinstance(v, tuple)}
        built = type(node)(**{**fields, **lists})
        assert all(type(getattr(built, n)) is tuple for n in lists), built
        assert built == node


def test_arithmetic_kinds_declare_their_operation():
    assert {cls for cls in ir.NODE_KINDS.values() if cls.OP is not None} == ARITHMETIC
    assert AddNode.OP(2, 3) == 5
    assert SubNode.OP(2, 3) == -1


def test_evaluation_has_a_rule_for_exactly_the_readable_kinds():
    assert set(dataflow._RULES) == DATA | STATE_LEAF


def test_stepping_has_a_rule_for_exactly_the_control_kinds():
    control = {ir.Role.SEQUENTIAL, ir.Role.CONTROL, ir.Role.STATE_CONTROL}
    assert set(controlflow._STEPS) == {k for k in ir.NODE_KINDS.values() if k.ROLE in control}
    assert set(controlflow._STEPS) == SEQUENTIAL | {
        IfNode, EndNode, LoopEndNode, NewInstanceNode, LoadFieldNode, StoreFieldNode,
        InvokeNode, InvokeWithExceptionNode, ReturnNode, UnwindNode}


def test_an_edit_returns_a_graph_without_step_entries(fact_graph):
    nodes = dict(fact_graph.items())
    for nid in nodes:
        controlflow.plan(fact_graph, nid)
    assert fact_graph.steps
    assert not fact_graph.replace_node(16, ReturnNode(resultOpt=None)).steps
    assert not fact_graph.insert_node(max(nodes) + 1, ConstantNode(IntVal(0))).steps
    g = Graph({0: StartNode(next=1), 1: ReturnNode(resultOpt=4), 2: ConstantNode(IntVal(2)),
               3: ConstantNode(IntVal(3)), 4: AddNode(x=2, y=3)})
    controlflow.plan(g, 1)
    g2, report = apply_pass(g, "canonicalize")
    assert report.rewrites and g2 is not g and not g2.steps


@pytest.mark.parametrize("node", SAMPLES, ids=lambda n: type(n).__name__)
def test_sample_round_trips_through_the_file_format(node):
    nid = 0 if isinstance(node, StartNode) else 1
    nodes = {nid: node} if nid == 0 else {0: StartNode(next=1), 1: node}
    program = Program({Signature("T", "m", ()): Graph(nodes)})
    text = dumps(program)
    assert loads(text).methods == program.methods
    assert dumps(loads(text)) == text


def test_merge_and_end_bases_are_not_kinds():
    for base in (ir.AbstractMergeNode, ir.AbstractEndNode):
        assert base.__name__ not in ir.NODE_KINDS
        assert base.ROLE is None
    assert {k for k in ir.NODE_KINDS.values() if issubclass(k, ir.AbstractMergeNode)} == {
        ir.MergeNode, ir.LoopBeginNode}
    assert {k for k in ir.NODE_KINDS.values() if issubclass(k, ir.AbstractEndNode)} == {
        ir.EndNode, ir.LoopEndNode}
