import random
import time
from functools import partial

import pytest
from hypothesis import given, strategies as st

from conftest import CORPUS_FILES, corpus
from genutil import OPERATIONS, build, damage_bases, damaged_graph, negate_chain, violated_rules
from reference import first_cycle
from seanode import dataflow
from seanode.equivalence import _inputs
from seanode.fileformat import load
from seanode.interproc import run
from seanode.ir import (
    AddNode, BeginNode, ConstantNode, EndNode, Graph, IfNode, MergeNode, NegateNode,
    NO_EDGES, ParameterNode, Program, ReturnNode, Signature, StartNode, StoreFieldNode,
    SubNode, ValuePhiNode, ValueProxyNode,
)
from seanode.runtime import IntVal
from seanode.wellformed import check

SIG = Signature("C", "m")


def test_wf_start_empty_graph():
    assert "wf_start" in violated_rules(Graph({}))


def test_wf_start_ok():
    assert "wf_start" not in violated_rules(Graph({0: StartNode(next=1), 1: EndNode()}))


def test_wf_start_wrong_kind():
    assert "wf_start" in violated_rules(Graph({0: EndNode()}))


def test_wf_closed_dangling():
    assert "wf_closed" in violated_rules(Graph({0: StartNode(next=99)}))


@pytest.mark.parametrize("nodes, report", [
    ({0: StartNode(next=None)}, "wf_closed @0: edge to unmapped id None"),
    ({0: StartNode(next=1), 1: ReturnNode(resultOpt=2), 2: AddNode(x=None, y=1)},
     "wf_closed @2: edge to unmapped id None"),
    ({0: StartNode(next=(1,)), 1: ReturnNode(resultOpt=None)},
     "wf_closed @0: edge to unmapped id (1,)"),
    ({0: StartNode(next=1), 1: IfNode(condition=None, trueSuccessor=9, falseSuccessor=2),
      2: ReturnNode(resultOpt=None)},
     "wf_closed @1: edge to unmapped id None\nwf_closed @1: edge to unmapped id 9"),
], ids=["start-next-none", "add-x-none", "start-next-tuple", "in-edge-order"])
def test_wf_closed_value_of_the_wrong_shape_in_an_int_edge(nodes, report):
    # An int field holds one edge whatever its value; only an int | None
    # field may hold None for "no edge".
    assert str(check(Graph(nodes))) == report


@pytest.mark.parametrize("nodes, stuck", [
    ({0: StartNode(next=None)}, 0),
    ({0: StartNode(next=(1,)), 1: ReturnNode(resultOpt=None)}, 0),
    # The condition holds, yet the false successor is no node: stuck either way.
    ({0: StartNode(next=1), 1: IfNode(condition=2, trueSuccessor=3, falseSuccessor=None),
      2: ConstantNode(IntVal(1)), 3: ReturnNode(resultOpt=None)}, 1),
], ids=["none", "tuple", "if"])
def test_run_is_stuck_at_a_node_whose_successor_edge_is_no_node(nodes, stuck):
    result = run(Program({SIG: Graph(nodes)}), SIG, [])
    assert str(result) == f"Stuck: @{stuck}: successor edge to no node"


def test_wf_closed_factorial(fact_graph):
    assert "wf_closed" not in violated_rules(fact_graph)


def test_wf_closed_empty_vacuous():
    rules = violated_rules(Graph({}))
    assert "wf_closed" not in rules
    assert "wf_start" in rules


def test_wf_ends_used_end():
    g = Graph({
        0: StartNode(next=5),
        5: EndNode(),
        6: MergeNode(ends=(5,), next=7),
        7: ReturnNode(resultOpt=None),
    })
    assert "wf_ends" not in violated_rules(g)


def test_wf_ends_orphan_end():
    assert "wf_ends" in violated_rules(Graph({0: StartNode(next=5), 5: EndNode()}))


def test_wf_ends_factorial_loop_ends(fact_graph):
    g = fact_graph
    assert "wf_ends" not in violated_rules(g)
    assert g.usages(5) == {6} and g.usages(21) == {6}


def test_wf_phis_factorial(fact_graph):
    assert "wf_phis" not in violated_rules(fact_graph)


def test_wf_phis_count_mismatch(fact_graph):
    g = fact_graph.replace_node(
        7, ValuePhiNode(7, values=(1,), merge=6)
    )
    assert "wf_phis" in violated_rules(g)


def test_wf_phis_vacuous_without_phis():
    assert "wf_phis" not in violated_rules(Graph({0: StartNode(next=1), 1: EndNode()}))


def test_wf_phis_merge_edge_must_be_merge():
    g = Graph({
        0: StartNode(next=1),
        1: BeginNode(next=2),
        2: ReturnNode(resultOpt=None),
        3: ValuePhiNode(3, values=(0,), merge=1),
    })
    assert "wf_phis" in violated_rules(g)


def test_check_factorial_ok(fact_graph):
    report = check(fact_graph)
    assert report.ok and report.violations == ()


def test_check_self_loop_through_input():
    g = Graph({
        0: StartNode(next=2),
        1: AddNode(x=1, y=1),
        2: ReturnNode(resultOpt=1),
    })
    report = check(g)
    assert any(v.rule == "wf_acyclic" for v in report.violations)


def test_check_sub_cycle():
    g = Graph({
        0: StartNode(next=3),
        1: SubNode(x=2, y=4),
        2: SubNode(x=4, y=1),
        3: ReturnNode(resultOpt=1),
        4: ParameterNode(0),
    })
    report = check(g)
    assert [v.rule for v in report.violations] == ["wf_acyclic"]
    assert report.violations[0].nid == 1


def test_cycle_through_an_anchor_edge_is_not_a_data_cycle():
    # Evaluation does not follow ValueProxyNode.loopExit, so this terminates.
    g = Graph({
        0: StartNode(next=3),
        1: NegateNode(value=2),
        2: ValueProxyNode(value=4, loopExit=1),
        3: ReturnNode(resultOpt=1),
        4: ParameterNode(0),
    })
    assert not any(v.rule == "wf_acyclic" for v in check(g).violations)


def test_check_deep_chain_is_iterative():
    g = negate_chain(3000)
    start = time.perf_counter()
    report = check(g)
    assert time.perf_counter() - start < 5
    assert report.ok


def test_check_aggregates_multiple_rules():
    # Wrong start kind and an orphan end: two distinct rules must report.
    g = Graph({0: EndNode()})
    report = check(g)
    assert {v.rule for v in report.violations} >= {"wf_start", "wf_ends"}
    assert len(report.violations) >= 2


def test_check_selfid_mismatch(fact_graph):
    g = fact_graph.replace_node(
        7, ValuePhiNode(8, values=(1, 20), merge=6)
    )
    assert any(v.rule == "wf_selfid" for v in check(g).violations)


# Subclasses declared with no role are not in ir.NODE_KINDS; check tests
# their nodes as it tests their base kind's.
class _End(EndNode):
    pass


class _Phi(ValuePhiNode):
    pass


class _Store(StoreFieldNode):
    pass


@pytest.mark.parametrize("make, base, sub", [
    (lambda k: {0: StartNode(next=5), 5: k()}, EndNode, _End),
    (lambda k: {0: StartNode(next=1), 1: BeginNode(next=2), 2: ReturnNode(resultOpt=None),
                3: k(4, values=(0,), merge=1)}, ValuePhiNode, _Phi),
    (lambda k: {0: StartNode(next=1), 1: k(5, field="f", value=2, objectOpt=None, next=3),
                2: ConstantNode(IntVal(1)), 3: ReturnNode(resultOpt=None)}, StoreFieldNode, _Store),
])
def test_a_subclass_with_no_role_gets_its_base_kinds_violations(make, base, sub):
    want = check(Graph(make(base)))
    assert {v.rule for v in want.violations} & {"wf_ends", "wf_phis", "wf_selfid"}
    assert str(check(Graph(make(sub)))) == str(want).replace(base.__name__, sub.__name__)


def test_check_ok_implies_predicates():
    for path in CORPUS_FILES:
        for g in load(path).methods.values():
            assert violated_rules(g) == set(), path.name


# check walks the value edges only if one climbs, from a node to an id at
# or above its own: without such an edge, ids fall along every path, so no
# path returns to its start.

def _acyclic_report(g):
    return [(v.nid, v.message) for v in check(g).violations if v.rule == "wf_acyclic"]


def _walked(g):
    """The wf_acyclic violations of a check that always walks."""
    found = first_cycle(g, sorted(nid for nid, _ in g.items()), set(), arms=True)
    return [] if found is None else [(found, "cycle through data input edges")]


@st.composite
def _permuted_data_graphs(draw):
    """Data nodes made in order, the first a leaf, each reading earlier ones
    and now and then itself or a later one (a cycle if that reads back,
    through any operand or arm) or no node (None or a tuple). Their ids are
    the order or a random permutation of it, so value edges climb and fall."""
    n = draw(st.integers(1, 8))
    ids = draw(st.permutations(range(n))) if draw(st.booleans()) else list(range(n))
    nodes = {}
    for i, nid in enumerate(ids):
        def ref():
            roll = draw(st.integers(0, 29))
            if roll == 0:
                return None
            if roll == 1:
                return (draw(st.sampled_from(ids)),)
            if roll < 8:  # itself or a later node: a cycle if that reads back
                return ids[draw(st.integers(i, n - 1))]
            return ids[draw(st.integers(0, i - 1))]
        kind = draw(st.sampled_from(["const", "phi"] if i == 0 else
                                    ["const", "phi", *OPERATIONS]))
        if kind == "const":
            nodes[nid] = ConstantNode(IntVal(1))
        elif kind == "phi":
            nodes[nid] = ValuePhiNode(nid, values=(), merge=0)
        else:
            nodes[nid] = build(kind, lambda _: ref())
    return Graph(nodes)


@given(_permuted_data_graphs())
def test_differential_check_acyclicity_against_the_walk(g):
    assert _acyclic_report(g) == _walked(g)


# Differential property: dataflow.post_order, the walk that check's
# acyclicity, data_equiv's records and the lanes' keys loop over, against a
# short recursive walk for the order and reference.first_cycle for where a
# cycle is met.

_DAMAGE_BASES = damage_bases()


@st.composite
def _walked_graphs(draw):
    """A graph of _permuted_data_graphs or a damaged graph, and roots: every
    id in order, as check walks them, or ids drawn with repeats."""
    if draw(st.booleans()):
        g = draw(_permuted_data_graphs())
    else:
        seed = draw(st.integers(0, 10 ** 6))
        g = damaged_graph(_DAMAGE_BASES[seed % len(_DAMAGE_BASES)], random.Random(seed))
    ids = sorted(nid for nid, _ in g.items())
    if not ids or draw(st.booleans()):
        return g, ids
    return g, draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6))


def _finished(roots, inputs) -> list:
    """The nodes below roots, in the order a recursive walk, inputs left to
    right, finishes them; the graph below roots is acyclic."""
    order = {}

    def visit(n):
        if n not in order:
            for t in inputs(n):
                visit(t)
            order[n] = None

    for root in roots:
        visit(root)
    return list(order)


@given(_walked_graphs())
def test_differential_post_order_against_a_recursive_walk(case):
    g, roots = case
    table = g.edges()
    # (entry, its inputs, its node): the edge table's value edges as
    # walk_values reads them, and the schedule entries' inputs as data_equiv
    # reads them, which drop what the edge table keeps of a node whose value
    # input is no node id.
    walks = [(lambda n: n, lambda n: table.get(n, NO_EDGES)[2], lambda n: n)]
    if all(type(t) is int for _, _, values in table.values() for t in values):
        walks.append((partial(dataflow._entry, g), _inputs, lambda e: e[1]))
    cycle = first_cycle(g, roots, set(), arms=True)
    for entry, inputs, node_of in walks:
        def inputs_of(n):
            return inputs(entry(n))

        done, order = set(), []
        try:
            for e in dataflow.post_order(roots, entry, inputs, done):
                n = node_of(e)
                assert n not in done and set(inputs_of(n)) <= done, (n, order)
                done.add(n)
                order.append(n)
        except dataflow.CyclicExpression as e:
            assert e.nid == cycle
        else:
            assert cycle is None
            assert order == _finished(roots, inputs_of)


def test_a_climbing_acyclic_method_is_ok():
    p = corpus("loop-sum")
    g = p.graph(p.resolve("sumTo"))
    assert g.edges()[10][2] == (4, 15)  # 10 reads 15: a climbing edge
    assert check(g).ok


def test_a_self_loop_negate_is_reported_at_itself():
    g = Graph({0: StartNode(next=2), 1: NegateNode(value=1), 2: ReturnNode(resultOpt=1)})
    assert str(check(g)) == "wf_acyclic @1: cycle through data input edges"


def test_a_cycle_climbing_only_through_a_y_operand_is_reported_as_the_walk_does():
    # 3 reads 4 through y, the one climbing edge; 4 reads 3 back.
    g = Graph({
        0: StartNode(next=2),
        1: ParameterNode(0),
        2: ReturnNode(resultOpt=3),
        3: SubNode(x=1, y=4),
        4: NegateNode(value=3),
    })
    assert _acyclic_report(g) == _walked(g) == [(3, "cycle through data input edges")]


@pytest.mark.parametrize("name,rule", [
    ("broken-phi.json", "wf_phis"),
    ("dangling-edge.json", "wf_closed"),
    ("orphan-end.json", "wf_ends"),
    ("data-cycle.json", "wf_acyclic"),
    ("bad-selfid.json", "wf_selfid"),
])
def test_broken_fixture_caught(fixtures_dir, name, rule):
    program = load(fixtures_dir / name)
    (g,) = program.methods.values()
    report = check(g)
    assert not report.ok
    assert any(v.rule == rule for v in report.violations)
