import time

import pytest
from hypothesis import given, strategies as st

from genutil import DOUBLING_SIG, doubling_dag
from seanode.dataflow import (
    EvalContext, EvalStuck, ParamOutOfRange, condition_holds, evaluate, evaluate_all,
)
from seanode.ir import (
    AddNode, ConditionalNode, ConstantNode, Graph, IntegerLessThanNode,
    LoadFieldNode, MulNode, NegateNode, NewInstanceNode, ParameterNode, StartNode,
    SubNode, ValuePhiNode, ValueProxyNode,
)
from seanode.interproc import ExecOutcome, run
from seanode.runtime import (
    INT_MAX, INT_MIN, UNDEF, IntVal, MethodState, ObjRef, new_map_state, wrap32,
)


def ctx(nodes, m=None, p=()):
    return EvalContext(Graph(nodes), m or new_map_state(), tuple(p))


def test_constant():
    c = ctx({1: ConstantNode(IntVal(7))})
    assert evaluate(c, 1) == IntVal(7)


def test_parameter():
    c = ctx({1: ParameterNode(0)}, p=[IntVal(5)])
    assert evaluate(c, 1) == IntVal(5)


def test_parameter_out_of_range():
    c = ctx({1: ParameterNode(1)}, p=[IntVal(5)])
    with pytest.raises(ParamOutOfRange):
        evaluate(c, 1)


def test_sub_wraps_below_int_min():
    c = ctx({1: ConstantNode(IntVal(INT_MIN)), 2: ConstantNode(IntVal(1)),
             3: SubNode(x=1, y=2), 4: SubNode(x=2, y=1)})
    assert evaluate(c, 3) == IntVal(INT_MAX)
    assert evaluate(c, 4) == IntVal(INT_MIN + 1)


def test_phi_reads_method_state():
    m = new_map_state().set(7, IntVal(42))
    c = ctx({7: ValuePhiNode(7, values=(), merge=0)}, m=m)
    assert evaluate(c, 7) == IntVal(42)


def test_state_leaf_defaults_to_undef():
    c = ctx({7: ValuePhiNode(7, values=(), merge=0)})
    assert evaluate(c, 7) == UNDEF


def test_load_field_leaf_reads_state():
    m = new_map_state().set(4, IntVal(9))
    c = ctx({4: LoadFieldNode(selfId=4, field="x", objectOpt=None, next=5)}, m=m)
    assert evaluate(c, 4) == IntVal(9)


def test_add_wraps():
    c = ctx({
        1: ConstantNode(IntVal(2147483647)),
        2: ConstantNode(IntVal(1)),
        3: AddNode(x=1, y=2),
    })
    assert evaluate(c, 3) == IntVal(-2147483648)


def test_less_than():
    c = ctx({
        1: ConstantNode(IntVal(1)),
        2: ConstantNode(IntVal(2)),
        3: IntegerLessThanNode(x=1, y=2),
        4: IntegerLessThanNode(x=2, y=1),
    })
    assert evaluate(c, 3) == IntVal(1)
    assert evaluate(c, 4) == IntVal(0)


def test_negate():
    c = ctx({1: ConstantNode(IntVal(3)), 2: NegateNode(value=1)})
    assert evaluate(c, 2) == IntVal(-3)


def test_conditional_selects_branch():
    nodes = {
        1: ConstantNode(IntVal(10)),
        2: ConstantNode(IntVal(20)),
        3: ConstantNode(IntVal(1)),
        4: ConstantNode(IntVal(0)),
        5: ConditionalNode(condition=3, trueValue=1, falseValue=2),
        6: ConditionalNode(condition=4, trueValue=1, falseValue=2),
    }
    c = ctx(nodes)
    assert evaluate(c, 5) == IntVal(10)
    assert evaluate(c, 6) == IntVal(20)


def test_value_proxy_is_transparent():
    m = new_map_state().set(8, IntVal(120))
    c = ctx({
        8: ValuePhiNode(8, values=(), merge=0),
        15: ValueProxyNode(value=8, loopExit=14),
    }, m=m)
    assert evaluate(c, 15) == IntVal(120)


def test_stuck_on_rule_free_kind():
    c = ctx({0: StartNode(next=0)})
    with pytest.raises(EvalStuck):
        evaluate(c, 0)


def test_stuck_on_non_integer_operand():
    # Undefined phi feeding an add: integer required.
    c = ctx({
        1: ValuePhiNode(1, values=(), merge=0),
        2: ConstantNode(IntVal(1)),
        3: AddNode(x=1, y=2),
    })
    with pytest.raises(EvalStuck):
        evaluate(c, 3)


def test_conditional_on_an_object_reference_is_stuck_at_the_condition():
    c = ctx({
        1: NewInstanceNode(1, "A", next=4),
        2: ConstantNode(IntVal(7)),
        3: ConditionalNode(condition=1, trueValue=2, falseValue=2),
    }, new_map_state().set(1, ObjRef(0)))
    with pytest.raises(EvalStuck) as e:
        evaluate(c, 3)
    assert (e.value.nid, e.value.reason) == (1, "expected an integer condition, got ObjRef 0")


def test_condition_holds_on_integers_only():
    def holds(value):
        return condition_holds(ctx({1: ConstantNode(value)}), 1)
    assert holds(IntVal(1)) is True
    assert holds(IntVal(0)) is False
    for value in (UNDEF, ObjRef(0)):
        with pytest.raises(EvalStuck) as e:
            holds(value)
        assert (e.value.nid, e.value.reason) == (1, f"expected an integer condition, got {value}")


def test_shared_dag_is_evaluated_once_per_context():
    # 60 levels of AddNode(prev, prev): 2**61 - 1 paths, 61 distinct nodes.
    start = time.perf_counter()
    result = run(doubling_dag(60), DOUBLING_SIG, [IntVal(3)])
    assert time.perf_counter() - start < 2
    assert result.outcome is ExecOutcome.RETURNED
    assert result.value == IntVal(wrap32(3 << 60))
    assert run(doubling_dag(5), DOUBLING_SIG, [IntVal(3)]).value == IntVal(3 << 5)


def test_same_node_under_two_states_gives_two_values():
    g = Graph({3: ValuePhiNode(3, values=(), merge=0), 4: AddNode(x=3, y=3),
               5: MulNode(x=4, y=3)})
    first = EvalContext(g, new_map_state().set(3, IntVal(1)), ())
    second = EvalContext(g, new_map_state().set(3, IntVal(5)), ())
    assert evaluate(first, 5) == IntVal(2)
    assert evaluate(second, 5) == IntVal(50)
    assert evaluate(first, 5) == IntVal(2)


def test_unchosen_arm_is_not_evaluated_when_its_inputs_are_memoized():
    c = ctx({
        1: ParameterNode(0),
        2: ParameterNode(5),  # out of range: stuck if evaluated
        3: AddNode(x=1, y=1),
        4: AddNode(x=3, y=2),  # the unchosen arm
        5: ConstantNode(IntVal(1)),
        6: ConditionalNode(condition=5, trueValue=3, falseValue=4),
    }, p=[IntVal(4)])
    assert evaluate(c, 3) == IntVal(8)
    assert evaluate(c, 6) == IntVal(8)
    assert 4 not in c.memo


def test_stuck_evaluation_is_not_memoized():
    c = ctx({1: ParameterNode(0), 2: ParameterNode(5), 3: AddNode(x=1, y=1),
             4: AddNode(x=3, y=2)}, p=[IntVal(4)])
    for _ in range(2):
        with pytest.raises(ParamOutOfRange):
            evaluate(c, 4)
    assert set(c.memo) == {3}


@pytest.mark.parametrize("nodes", [
    {1: AddNode(x=2, y=2), 2: NegateNode(value=1)},
    # Through a chosen arm, which is a schedule of its own.
    {1: ConstantNode(IntVal(1)), 2: ConditionalNode(condition=1, trueValue=3, falseValue=1),
     3: AddNode(x=2, y=1)},
], ids=["value-edges", "conditional-arm"])
def test_cyclic_expression_is_stuck(nodes):
    with pytest.raises(EvalStuck, match="cycle"):
        evaluate(ctx(nodes), 2)


def test_evaluate_all_empty():
    assert evaluate_all(ctx({}), []) == []


def test_evaluate_all_order():
    c = ctx({1: ConstantNode(IntVal(1)), 2: ConstantNode(IntVal(2))})
    assert evaluate_all(c, [1, 2]) == [IntVal(1), IntVal(2)]


def test_evaluate_all_factorial_first_phi_inputs(fact_graph):
    c = EvalContext(fact_graph, new_map_state(), (IntVal(5),))
    assert evaluate_all(c, [1, 3]) == [IntVal(5), IntVal(1)]


def test_evaluate_all_propagates_stuck():
    c = ctx({1: ConstantNode(IntVal(1)), 2: StartNode(next=2)})
    with pytest.raises(EvalStuck):
        evaluate_all(c, [1, 2])


# Random expression DAGs: evaluation is deterministic and leaves state alone.

@st.composite
def _expr_graphs(draw):
    nodes = {
        1: ParameterNode(0),
        2: ConstantNode(IntVal(draw(st.integers(-5, 5)))),
        3: ValuePhiNode(3, values=(), merge=0),
    }
    next_id = 4
    roots = [1, 2, 3]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["add", "mul", "neg", "lt", "cond"]))
        pick = lambda: draw(st.sampled_from(roots))
        if kind == "add":
            nodes[next_id] = AddNode(x=pick(), y=pick())
        elif kind == "mul":
            nodes[next_id] = MulNode(x=pick(), y=pick())
        elif kind == "neg":
            nodes[next_id] = NegateNode(value=pick())
        elif kind == "lt":
            nodes[next_id] = IntegerLessThanNode(x=pick(), y=pick())
        else:
            nodes[next_id] = ConditionalNode(condition=pick(), trueValue=pick(), falseValue=pick())
        roots.append(next_id)
        next_id += 1
    return Graph(nodes), roots[-1]


@given(_expr_graphs(), st.integers(-3, 3), st.integers(-3, 3))
def test_evaluation_is_deterministic_and_pure(gr, p0, phi_val):
    g, root = gr
    m = new_map_state().set(3, IntVal(phi_val))
    c = EvalContext(g, m, (IntVal(p0),))
    assert evaluate(c, root) == evaluate(c, root)
    assert m == new_map_state().set(3, IntVal(phi_val))
