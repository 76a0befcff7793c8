import random

import pytest

from genutil import gen_merge_fixture
from seanode.controlflow import (
    LocalConfig, StepStuck, merge_of_end, phis_of, step,
)
from seanode.dataflow import EvalContext, evaluate
from seanode.ir import (
    BeginNode, ConstantNode, EndNode, Graph, IfNode, MergeNode, NewInstanceNode,
    ReturnNode, StartNode, StoreFieldNode, ValuePhiNode,
)
from seanode.runtime import DynamicHeap, IntVal, MethodState, ObjRef, wrap32



def fresh(nid=0):
    return LocalConfig(nid, MethodState(), DynamicHeap())


def test_sequential_step():
    g = Graph({1: BeginNode(next=4), 4: ReturnNode(resultOpt=None)})
    c2 = step(g, (), fresh(1))
    assert (c2.nid, c2.state, c2.heap) == (4, MethodState(), DynamicHeap())


def test_if_false_branch_forced():
    g = Graph({
        1: ConstantNode(IntVal(0)),
        2: IfNode(condition=1, trueSuccessor=3, falseSuccessor=4),
        3: BeginNode(next=2),
        4: BeginNode(next=2),
    })
    c2 = step(g, (), fresh(2))
    assert c2.nid == 4
    assert c2.state == MethodState()


def test_if_on_an_object_reference_is_stuck_at_the_condition():
    g = Graph({
        1: NewInstanceNode(1, "A", next=2),
        2: IfNode(condition=1, trueSuccessor=3, falseSuccessor=3),
        3: ReturnNode(resultOpt=None),
    })
    c = LocalConfig(2, MethodState().set(1, ObjRef(0)), DynamicHeap())
    with pytest.raises(StepStuck) as e:
        step(g, (), c)
    assert (e.value.nid, e.value.reason) == (1, "expected an integer condition, got ObjRef 0")


def test_phis_of_factorial_merge(fact_graph):
    assert phis_of(fact_graph, 6) == [7, 8]


def test_phis_of_merge_without_phis():
    g = Graph({
        0: StartNode(next=1),
        1: EndNode(),
        2: MergeNode(ends=(1,), next=3),
        3: ReturnNode(resultOpt=None),
    })
    assert phis_of(g, 2) == []


def test_phis_of_excludes_other_merges(fact_graph):
    # A phi whose merge edge points elsewhere is not collected even if it
    # happens to use the merge id as a value input.
    g = fact_graph.insert_node(30, MergeNode(ends=(), next=16))
    g = g.insert_node(31, ValuePhiNode(31, values=(6,), merge=30))
    assert phis_of(g, 6) == [7, 8]


def test_first_end_step_latches_phi_initials(fact_graph):
    c2 = step(fact_graph, (IntVal(5),), fresh(5))
    assert c2.nid == 6
    assert c2.state[7] == IntVal(5)
    assert c2.state[8] == IntVal(1)


def test_loop_end_step_uses_original_state(fact_graph):
    m = MethodState().set(7, IntVal(5)).set(8, IntVal(1))
    c2 = step(fact_graph, (IntVal(5),), LocalConfig(21, m, DynamicHeap()))
    # Hand-evaluated under the original m: n' = n + (-1), result' = result * n.
    assert c2.nid == 6
    assert c2.state[7] == IntVal(wrap32(5 + (-1)))
    assert c2.state[8] == IntVal(wrap32(1 * 5))


def test_store_step_writes_heap_and_advances():
    g = Graph({
        1: ConstantNode(IntVal(9)),
        2: StoreFieldNode(selfId=2, field="x", value=1, objectOpt=3, next=4),
        3: ConstantNode(IntVal(0)),  # placeholder; replaced per test below
        4: ReturnNode(resultOpt=None),
    })
    # Object operand must evaluate to a reference: route through the state.
    g = g.replace_node(3, ValuePhiNode(3, values=(), merge=0))
    m = MethodState().set(3, ObjRef(0))
    c2 = step(g, (), LocalConfig(2, m, DynamicHeap(free=1)))
    assert c2.nid == 4
    assert c2.heap.load_field("x", ObjRef(0)) == IntVal(9)
    assert c2.state == m


def test_step_stuck_on_return():
    g = Graph({1: ReturnNode(resultOpt=None)})
    with pytest.raises(StepStuck):
        step(g, (), fresh(1))


def test_end_without_merge_is_stuck():
    g = Graph({1: EndNode()})
    with pytest.raises(StepStuck):
        step(g, (), fresh(1))


def test_end_with_ambiguous_merges_is_stuck():
    g = Graph({
        1: EndNode(),
        2: MergeNode(ends=(1,), next=4),
        3: MergeNode(ends=(1,), next=4),
        4: ReturnNode(resultOpt=None),
    })
    with pytest.raises(StepStuck):
        step(g, (), fresh(1))


def test_merge_of_end_positions(fact_graph):
    assert merge_of_end(fact_graph, 5) == (6, 0)
    assert merge_of_end(fact_graph, 21) == (6, 1)


def test_heap_untouched_by_seq_if_end(fact_graph):
    heap = DynamicHeap().store_field("x", None, IntVal(1))
    for nid in (0, 5, 12, 6):
        m = MethodState().set(7, IntVal(2)).set(8, IntVal(1))
        c2 = step(fact_graph, (IntVal(2),), LocalConfig(nid, m, heap))
        assert c2.heap == heap


def test_phi_update_simultaneity_randomized():
    # The protocol: every selected input is evaluated under the pre-step
    # state; any processing order gives the same post-state.
    rng = random.Random(2024)
    sensitive = 0
    for _ in range(120):
        g, merge, end_ids, phi_ids, n_params = gen_merge_fixture(rng)
        params = tuple(IntVal(rng.randint(-4, 4)) for _ in range(n_params))
        m = MethodState().set_many(
            (p, IntVal(rng.randint(-4, 4))) for p in phi_ids
        )
        end = rng.choice(end_ids)
        stepped = step(g, params, LocalConfig(end, m, DynamicHeap()))
        assert stepped.nid == merge

        _, index = merge_of_end(g, end)
        order = list(phi_ids)
        rng.shuffle(order)
        reference = m
        ctx_original = EvalContext(g, m, params)
        for phi in order:
            v = evaluate(ctx_original, g.kind(phi).values[index])
            reference = reference.set(phi, v)
        assert reference == stepped.state

        # A naive sequential update (evaluating under the evolving state)
        # must disagree on at least some fixtures, or the test has no power.
        naive = m
        for phi in sorted(phi_ids):
            v = evaluate(EvalContext(g, naive, params), g.kind(phi).values[index])
            naive = naive.set(phi, v)
        if naive != stepped.state:
            sensitive += 1
    assert sensitive > 0


def test_phi_updates_all_under_original_state(fact_graph):
    m = MethodState().set(7, IntVal(3)).set(8, IntVal(2))
    c2 = step(fact_graph, (IntVal(3),), LocalConfig(21, m, DynamicHeap()))
    assert (c2.nid, c2.state) == (6, MethodState().set(7, IntVal(2)).set(8, IntVal(6)))
