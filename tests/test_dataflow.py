import time
from functools import partial

import pytest
from hypothesis import given, strategies as st

import reference
from conftest import corpus
from genutil import DOUBLING_SIG, OPERATIONS, build, doubling_dag
from seanode import dataflow
from seanode.dataflow import (
    CyclicExpression, EvalContext, EvalStuck, ParamOutOfRange, condition_holds, evaluate,
    evaluate_roots, schedule,
)
from seanode.ir import (
    AddNode, ConditionalNode, ConstantNode, Graph, IntegerLessThanNode, InvokeNode,
    LoadFieldNode, MethodCallTargetNode, MulNode, NegateNode, NewInstanceNode, ParameterNode,
    Program, ReturnNode, Signature, StartNode, SubNode, ValuePhiNode, ValueProxyNode,
)
from seanode.equivalence import Equivalence, data_equiv
from seanode.interproc import ExecOutcome, run
from seanode.runtime import (
    INT_MAX, INT_MIN, UNDEF, IntVal, MethodState, ObjRef, wrap32,
)


def ctx(nodes, m=None, p=()):
    return EvalContext(Graph(nodes), m or MethodState(), tuple(p))


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
    m = MethodState().set(7, IntVal(42))
    c = ctx({7: ValuePhiNode(7, values=(), merge=0)}, m=m)
    assert evaluate(c, 7) == IntVal(42)


def test_state_leaf_defaults_to_undef():
    c = ctx({7: ValuePhiNode(7, values=(), merge=0)})
    assert evaluate(c, 7) == UNDEF


def test_load_field_leaf_reads_state():
    m = MethodState().set(4, IntVal(9))
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
    m = MethodState().set(8, IntVal(120))
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


# AddNode 3 of x = 1 and y = 2, with the given nodes for x and y; 4 and 5
# are spare ids for their inputs.
def _add_of(x, y, spare=None):
    return Graph({1: x, 2: y, 3: AddNode(x=1, y=2), **(spare or {})})


_SEVEN = ConstantNode(IntVal(7))
_OUT_OF_RANGE = ParameterNode(5)  # raises ParamOutOfRange under fewer than 6 parameters

# The CHECK entries of AddNode 3 as each case gives them: (nid, x) where x
# is checked before y's entries, [] where the AddNode's own check of x is
# first to fire.
_CHECK_CASES = {
    "x an IntVal constant": (_add_of(_SEVEN, _OUT_OF_RANGE), []),
    "y a constant": (_add_of(ParameterNode(0), _SEVEN), []),
    "y a state read": (_add_of(ParameterNode(0), ValuePhiNode(2, values=(), merge=0)), []),
    "x arithmetic": (_add_of(NegateNode(value=4), _OUT_OF_RANGE, {4: ParameterNode(0)}),
                     []),
    "x a non-int constant, y a constant": (_add_of(ConstantNode(ObjRef(0)), _SEVEN), []),
    "y a parameter": (_add_of(ParameterNode(0), _OUT_OF_RANGE), [(3, 1)]),
    "y arithmetic": (_add_of(ParameterNode(0), NegateNode(value=4), {4: _SEVEN}), [(3, 1)]),
    "y a conditional": (_add_of(ParameterNode(0), ConditionalNode(
        condition=4, trueValue=4, falseValue=5), {4: _SEVEN, 5: _OUT_OF_RANGE}), [(3, 1)]),
    "y a proxy": (_add_of(ParameterNode(0), ValueProxyNode(value=4, loopExit=0), {4: _SEVEN}),
                  [(3, 1)]),
    "x a non-int constant, y a parameter": (_add_of(ConstantNode(ObjRef(0)), _OUT_OF_RANGE),
                                            [(3, 1)]),
}


def test_a_first_operand_is_checked_before_the_second_only_where_it_can_fire_first():
    # A CHECK entry runs x's check before y's entries only where x may be a
    # non-int and an entry y adds may raise first (any but a CONST or STATE
    # read); elsewhere the AddNode's own check of x is the first to fire.
    state = MethodState().set(2, ObjRef(1))
    for name, (g, checks) in _CHECK_CASES.items():
        assert [(e[1], e[3]) for e in schedule(g, (3,)) if e[0] == dataflow.CHECK] == checks, name
        for params in ((IntVal(2),), (ObjRef(0),), (UNDEF,), ()):
            expected = _outcome(lambda: reference.evaluate(g, state, params, (3,)))
            assert _outcome(lambda: evaluate_roots(g, state, params, (3,))) == expected, name
    # The CHECK is what makes a non-int x stuck before an out-of-range y.
    g, _ = _CHECK_CASES["y a parameter"]
    with pytest.raises(EvalStuck) as stuck:
        evaluate_roots(g, MethodState(), (ObjRef(0),), (3,))
    assert (stuck.value.nid, stuck.value.reason) == (1, "expected an integer, got ObjRef 0")


def test_conditional_on_an_object_reference_is_stuck_at_the_condition():
    c = ctx({
        1: NewInstanceNode(1, "A", next=4),
        2: ConstantNode(IntVal(7)),
        3: ConditionalNode(condition=1, trueValue=2, falseValue=2),
    }, MethodState().set(1, ObjRef(0)))
    with pytest.raises(EvalStuck) as e:
        evaluate(c, 3)
    assert (e.value.nid, e.value.reason) == (1, "expected an integer condition, got ObjRef 0")


def test_condition_holds_on_integers_only():
    def holds(value):
        return condition_holds(Graph({1: ConstantNode(value)}), MethodState(), (), 1)
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
    first = EvalContext(g, MethodState().set(3, IntVal(1)), ())
    second = EvalContext(g, MethodState().set(3, IntVal(5)), ())
    assert evaluate(first, 5) == IntVal(2)
    assert evaluate(second, 5) == IntVal(50)
    assert evaluate(first, 5) == IntVal(2)


def test_unchosen_arm_is_not_evaluated_when_its_inputs_were_evaluated_first():
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
    assert evaluate_roots(c.graph, c.state, c.params, (3, 6)) == [IntVal(8), IntVal(8)]
    with pytest.raises(ParamOutOfRange):
        evaluate(c, 4)


def test_stuck_evaluation_is_not_memoized():
    c = ctx({1: ParameterNode(0), 2: ParameterNode(5), 3: AddNode(x=1, y=1),
             4: AddNode(x=3, y=2)}, p=[IntVal(4)])
    raised = []
    for _ in range(2):
        with pytest.raises(ParamOutOfRange) as e:
            evaluate(c, 4)
        raised.append((e.value.nid, str(e.value)))
    assert raised == [(2, "@2: parameter index 5 with 1 parameters")] * 2
    assert evaluate(c, 3) == IntVal(8)


@pytest.mark.parametrize("nodes", [
    {1: AddNode(x=2, y=2), 2: NegateNode(value=1)},
    # Through a chosen arm, which is a schedule of its own.
    {1: ConstantNode(IntVal(1)), 2: ConditionalNode(condition=1, trueValue=3, falseValue=1),
     3: AddNode(x=2, y=1)},
], ids=["value-edges", "conditional-arm"])
def test_cyclic_expression_is_stuck(nodes):
    with pytest.raises(EvalStuck, match="cycle"):
        evaluate(ctx(nodes), 2)


# A list of expressions is evaluated pointwise, in order, under one state:
# the arguments of an invoke. The callee computes p0 - p1, so swapped
# arguments would show.

_SUB_SIG = Signature("T", "sub", ("int", "int"))
_CALLER_SIG = Signature("T", "caller", ("int",))


def _call_sub(second):
    callee = Graph({0: StartNode(next=3), 1: ParameterNode(0), 2: ParameterNode(1),
                    3: ReturnNode(resultOpt=4), 4: SubNode(x=1, y=2)})
    caller = Graph({
        0: StartNode(next=5),
        1: ParameterNode(0),
        3: second,
        4: MethodCallTargetNode(targetMethod=_SUB_SIG, arguments=(1, 3)),
        5: InvokeNode(selfId=5, callTarget=4, next=6),
        6: ReturnNode(resultOpt=5),
    })
    return Program({_CALLER_SIG: caller, _SUB_SIG: callee})


def test_evaluate_all_order():
    result = run(_call_sub(ConstantNode(IntVal(3))), _CALLER_SIG, [IntVal(10)])
    assert str(result) == "Returned IntVal 7"


def test_evaluate_all_propagates_stuck():
    # A stuck argument makes the call stuck, at the argument.
    result = run(_call_sub(ParameterNode(1)), _CALLER_SIG, [IntVal(10)])
    assert str(result) == "Stuck: @3: parameter index 1 with 1 parameters"


# A step's roots are evaluated left to right, and the first stuck root wins,
# whether it gets stuck as it runs, by a cycle or by a missing input.

_ORDER_GRAPH = {
    1: ParameterNode(3),  # out of range: stuck
    2: NegateNode(value=2),  # a cycle through a value edge
    3: ConstantNode(IntVal(1)),
    4: ConditionalNode(condition=3, trueValue=5, falseValue=3),
    5: NegateNode(value=4),  # 4's chosen arm needs 4: a cycle through an arm
    6: AddNode(x=3, y=3),
}


@pytest.mark.parametrize("roots, nid, cls", [
    ((6, 1, 2), 1, ParamOutOfRange),
    ((6, 2, 1), 2, CyclicExpression),
    ((6, partial(EvalStuck, 9, "no input"), 2), 9, EvalStuck),
    ((6, 2, partial(EvalStuck, 9, "no input")), 2, CyclicExpression),
    ((1, 4), 1, ParamOutOfRange),
    ((4, 1), 4, CyclicExpression),
], ids=["stuck-then-cycle", "cycle-then-stuck", "missing-then-cycle", "cycle-then-missing",
        "stuck-then-arm-cycle", "arm-cycle-then-stuck"])
def test_the_first_stuck_root_wins(roots, nid, cls):
    g = Graph(_ORDER_GRAPH)
    for _ in range(2):  # building the roots' schedule, then reading it back
        with pytest.raises(EvalStuck) as e:
            evaluate_roots(g, MethodState(), (), roots)
        assert (type(e.value), e.value.nid) == (cls, nid)


# A schedule is total: building it never raises, and a root that cannot be
# scheduled ends it with the entry that raises where that root starts.

_TOTAL_GRAPH = {
    2: NegateNode(value=2),  # a cycle through a value edge
    3: ConstantNode(IntVal(1)),
    6: AddNode(x=3, y=3),
    7: StartNode(next=0),  # no evaluation rule
    8: NegateNode(value=9),  # 8 and 9: a cycle met below a node done before
    9: AddNode(x=3, y=8),
}
_CYCLE_TEXT = "expression has a cycle through its value edges"


@pytest.mark.parametrize("roots, before, code, cls, nid, text", [
    ((6, 2), [3, 6], dataflow.CYCLE, CyclicExpression, 2, f"@2: {_CYCLE_TEXT}"),
    ((2,), [], dataflow.CYCLE, CyclicExpression, 2, f"@2: {_CYCLE_TEXT}"),
    ((6, 8, 3), [3, 6], dataflow.CYCLE, CyclicExpression, 8, f"@8: {_CYCLE_TEXT}"),
    ((6, partial(EvalStuck, 9, "no input"), 2), [3, 6], dataflow.STUCK, EvalStuck, 9,
     "@9: no input"),
    ((6, 7), [3, 6], dataflow.STUCK, EvalStuck, 7, "@7: no evaluation rule for StartNode"),
], ids=["cycle", "cycle-alone", "cycle-below-a-done-node", "missing-input", "no-rule"])
def test_a_schedule_is_total_and_ends_at_the_first_root_that_cannot_run(
        roots, before, code, cls, nid, text):
    g = Graph(_TOTAL_GRAPH)
    s = schedule(g, roots)
    assert s[-1][0] == code
    assert [e[1] for e in s[:-1] if e[0] != dataflow.CHECK] == before
    assert g.schedules == {roots: s}
    with pytest.raises(EvalStuck) as e:
        evaluate_roots(g, MethodState(), (), roots)
    assert (type(e.value), e.value.nid, str(e.value)) == (cls, nid, text)


def test_a_schedule_is_kept_once_under_its_roots_tuple():
    p = corpus("factorial")
    sig = p.resolve("fact")
    g = p.graph(sig)
    assert run(p, sig, [IntVal(5)]).value == IntVal(120)
    assert data_equiv(g, g, 11).status is Equivalence.EQUIVALENT
    # The ends' phi inputs, the if's condition (data_equiv's root too) and
    # the return value: no int keys, and no root of a step has a key of its own.
    assert set(g.schedules) == {(1, 3), (20, 18), (11,), (15,)}


def _outcome(evaluate_all):
    try:
        return evaluate_all()
    except EvalStuck as e:
        return type(e), e.nid, str(e)


_LEAF_VALUES = st.sampled_from([IntVal(0), IntVal(1), IntVal(-2), IntVal(INT_MAX), ObjRef(0),
                                UNDEF])


@st.composite
def _dags_and_roots(draw):
    """A random expression graph on ids 1..n, a state, parameters and roots.
    An input names an earlier node, or now and then any node, which can
    close a cycle through value edges or through a conditional's arms."""
    n = draw(st.integers(1, 10))
    nodes = {}
    for nid in range(1, n + 1):
        def ref():
            if draw(st.integers(0, 9)) < 9:
                return draw(st.integers(1, nid - 1))
            return draw(st.integers(1, n))
        kind = draw(st.sampled_from(
            ["const", "param", "phi"] if nid == 1 else
            ["const", "const", "param", "phi", "phi", "start", "back", *OPERATIONS]))
        if kind == "const":
            nodes[nid] = ConstantNode(draw(_LEAF_VALUES))
        elif kind == "param":
            nodes[nid] = ParameterNode(draw(st.integers(0, 2)))  # may be out of range
        elif kind == "phi":
            nodes[nid] = ValuePhiNode(nid, values=(), merge=0)
        elif kind == "back":  # itself or a later node: often a cycle
            nodes[nid] = NegateNode(value=draw(st.integers(nid, n)))
        elif kind == "start":
            nodes[nid] = StartNode(next=0)  # no evaluation rule
        else:
            nodes[nid] = build(kind, lambda _: ref())
    state = MethodState().set_many(
        (nid, draw(_LEAF_VALUES)) for nid, node in nodes.items()
        if isinstance(node, ValuePhiNode))
    params = tuple(draw(st.lists(_LEAF_VALUES, max_size=2)))
    # A root is a node, or now and then a missing input, stuck where it is met.
    roots = []
    for _ in range(draw(st.integers(1, 4))):
        nid = n + 1 - draw(st.integers(1, n))  # the later nodes first
        roots.append(nid if draw(st.integers(0, 9)) < 9 else partial(EvalStuck, nid, "no input"))
    return Graph(nodes), state, params, tuple(roots)


# Differential property: evaluate_roots, one schedule for every root of a
# step, against the reference semantics, which reads no schedule.

@given(_dags_and_roots())
def test_differential_evaluate_roots_against_the_reference(case):
    g, state, params, roots = case
    before = MethodState(dict(state.items()))
    expected = _outcome(lambda: reference.evaluate(g, state, params, roots))
    assert _outcome(lambda: evaluate_roots(g, state, params, roots)) == expected
    # Again, from the schedule kept on the graph; the state is left alone.
    assert _outcome(lambda: evaluate_roots(g, state, params, roots)) == expected
    assert state == before


# Differential property: schedule(g, roots) against the roots' own
# schedules, each shared node kept at its first place and nothing kept
# after the first root that cannot be scheduled.

@given(_dags_and_roots())
def test_differential_a_roots_schedule_against_each_roots_own(case):
    g, _, _, roots = case
    expected, done = [], set()
    for root in roots:
        if type(root) is not int:
            expected.append((dataflow.STUCK, root))
            break
        own = schedule(g, (root,))
        if own[-1][0] == dataflow.CYCLE:
            assert len(own) == 1
            expected.append(own[0][:2])
            break
        expected += [e[:2] for e in own if e[1] not in done and e[0] != dataflow.CHECK]
        done.update(e[1] for e in own)
    assert [e[:2] for e in schedule(g, roots) if e[0] != dataflow.CHECK] == expected
