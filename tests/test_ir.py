import pytest
from hypothesis import given, strategies as st

from seanode import ir, optimize
from seanode.ir import (
    AddNode, BeginNode, ConstantNode, EndNode, Graph, IfNode, InvalidEdit,
    InvokeWithExceptionNode, NoNode, RefNode, Signature, StartNode,
    ValuePhiNode,
)
from seanode.runtime import IntVal


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
    assert ir.inputs_of(AddNode(x=3, y=4)) == [3, 4]


def test_inputs_of_end():
    assert ir.inputs_of(EndNode()) == []


def test_inputs_of_phi_merge_first():
    phi = ValuePhiNode(7, values=(1, 20), merge=6)
    assert ir.inputs_of(phi) == [6, 1, 20]


def test_successors_of_if():
    assert ir.successors_of(IfNode(condition=11, trueSuccessor=13, falseSuccessor=16)) == [13, 16]


def test_successors_of_constant():
    assert ir.successors_of(ConstantNode(IntVal(1))) == []


def test_successors_of_invoke_with_exception():
    node = InvokeWithExceptionNode(selfId=9, callTarget=8, next=12, exceptionEdge=30)
    assert ir.successors_of(node) == [12, 30]


def test_usages_factorial_merge(fact_graph):
    assert fact_graph.usages(6) >= {7, 8}


def test_predecessors_single_edge():
    g = Graph({0: StartNode(next=5), 5: EndNode()})
    assert {m for m, node in g.items() if 5 in ir.successors_of(node)} == {0}


def test_inputs_of_unmapped_id_empty():
    assert ir.inputs_of(Graph({}).kind(42)) == []


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
    fresh = max(g2.ids()) + 1
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
    for a in g.ids():
        for b in g.ids():
            assert (b in ir.inputs_of(g.kind(a))) == (a in g.usages(b))
    # The control-flow predecessors are those of the reachable nodes.
    order, preds = optimize._cfg(g)
    for a in order:
        for b in order:
            assert (b in optimize.cfg_successors(g, a)) == (a in preds[b])


def _users_by_definition(g, nid):
    return {m for m, node in g.items() if nid in ir.inputs_of(node)}


@given(_graphs, st.lists(st.tuples(st.integers(0, 11), _nodes), max_size=4))
def test_usages_index_matches_its_definition_across_edits(g, edits):
    def check(g):
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
