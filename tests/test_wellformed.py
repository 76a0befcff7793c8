import time

import pytest

from conftest import CORPUS_FILES
from genutil import negate_chain, violated_rules
from seanode.fileformat import load
from seanode.interproc import run
from seanode.ir import (
    AddNode, BeginNode, EndNode, Graph, IfNode, MergeNode, NegateNode,
    ParameterNode, Program, ReturnNode, Signature, StartNode, SubNode, ValuePhiNode,
    ValueProxyNode,
)
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


def test_run_steps_into_a_none_successor_and_is_stuck():
    g = Graph({0: StartNode(next=None)})
    assert str(run(Program({SIG: g}), SIG, [])) == "Stuck: no local rule for NoNode"


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


def test_check_ok_implies_predicates():
    for path in CORPUS_FILES:
        for g in load(path).methods.values():
            assert violated_rules(g) == set(), path.name


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
