"""Every way a control step gets stuck, pinned: one small malformed graph
per raise site of the local and global step, with the exact result string
`run` gives and the exception class the stepping function raises. Where
two reasons could apply, the table pins which one wins.
"""

import pytest

from seanode.controlflow import LocalConfig, StepStuck, merge_of_end, phis_of, step
from seanode.dataflow import EvalStuck, ParamOutOfRange
from seanode.interproc import (
    Frame, GlobalConfig, GlobalStuck, MalformedCall, UncaughtTopLevel, UnknownMethod,
    UnwindWithoutHandler, initial_config, run, step_top,
)
from seanode.ir import (
    BeginNode, ConstantNode, EndNode, Graph, InvokeNode, InvokeWithExceptionNode,
    LoadFieldNode, LoopBeginNode, LoopEndNode, MergeNode, MethodCallTargetNode,
    NewInstanceNode, ParameterNode, Program, ReturnNode, Signature, StartNode,
    StoreFieldNode, UnwindNode, ValuePhiNode,
)
from seanode.runtime import DynamicHeap, IntVal, MethodState, ObjRef

MAIN = Signature("T", "main", ())
CALLEE = Signature("T", "callee", ())
GHOST = Signature("T", "ghost", ())


def calling(callee: Graph, invoke=InvokeNode) -> Program:
    """main invokes callee, which is the given graph, and returns its value."""
    edges = {"exceptionEdge": 4} if invoke is InvokeWithExceptionNode else {}
    return Program({
        MAIN: Graph({
            0: StartNode(next=2),
            1: MethodCallTargetNode(targetMethod=CALLEE, arguments=()),
            2: invoke(selfId=2, callTarget=1, next=3, **edges),
            3: ReturnNode(resultOpt=2),
            4: ReturnNode(resultOpt=None),
        }),
        CALLEE: callee,
    })


def end_into(merge_nodes: dict) -> Program:
    """main goes through end 1 into the given merge nodes."""
    return Program({MAIN: Graph({0: StartNode(next=1), 1: EndNode(), **merge_nodes})})


def invoking(target: int, extra: dict) -> Program:
    return Program({MAIN: Graph({
        0: StartNode(next=2),
        2: InvokeNode(selfId=2, callTarget=target, next=9),
        9: ReturnNode(resultOpt=None),
        **extra,
    })})


# name: (program, result of run, class raised by stepping the stuck configuration)
CASES = {
    "loop-end-into-a-plain-merge": (
        Program({MAIN: Graph({
            0: StartNode(next=1),
            1: LoopEndNode(loopBegin=2),
            2: MergeNode(ends=(1,), next=3),
            3: ReturnNode(resultOpt=None),
        })}),
        "Stuck: @1: loopBegin edge 2 is not a LoopBeginNode", EvalStuck),
    "end-without-merge": (
        end_into({}),
        "Stuck: @1: end node has no merge usage", EvalStuck),
    "end-with-two-merges": (
        end_into({
            2: MergeNode(ends=(1,), next=4),
            3: MergeNode(ends=(1,), next=4),
            4: ReturnNode(resultOpt=None),
        }),
        "Stuck: @1: end node has ambiguous merge usages [2, 3]", EvalStuck),
    "loop-end-not-listed": (
        Program({MAIN: Graph({
            0: StartNode(next=1),
            1: LoopEndNode(loopBegin=2),
            2: LoopBeginNode(ends=(), next=3),
            3: ReturnNode(resultOpt=None),
        })}),
        "Stuck: @1: end not listed in ends of merge 2", EvalStuck),
    "phi-without-input-for-the-end": (
        end_into({
            2: MergeNode(ends=(1,), next=4),
            3: ValuePhiNode(3, values=(), merge=2),
            4: ReturnNode(resultOpt=3),
        }),
        "Stuck: @3: phi has no value input for end position 0", EvalStuck),
    "stuck-phi-before-a-phi-without-input": (
        end_into({
            2: MergeNode(ends=(1,), next=5),
            3: ValuePhiNode(3, values=(6,), merge=2),
            4: ValuePhiNode(4, values=(), merge=2),
            5: ReturnNode(resultOpt=3),
            6: ParameterNode(3),
        }),
        "Stuck: @6: parameter index 3 with 0 parameters", ParamOutOfRange),
    "phi-without-input-before-a-stuck-phi": (
        end_into({
            2: MergeNode(ends=(1,), next=5),
            3: ValuePhiNode(3, values=(), merge=2),
            4: ValuePhiNode(4, values=(6,), merge=2),
            5: ReturnNode(resultOpt=3),
            6: ParameterNode(3),
        }),
        "Stuck: @3: phi has no value input for end position 0", EvalStuck),
    "load-from-an-integer": (
        Program({MAIN: Graph({
            0: StartNode(next=2),
            1: ConstantNode(IntVal(0)),
            2: LoadFieldNode(selfId=2, field="x", objectOpt=1, next=3),
            3: ReturnNode(resultOpt=2),
        })}),
        "Stuck: @1: expected an object reference, got IntVal 0", EvalStuck),
    "store-into-an-integer": (
        Program({MAIN: Graph({
            0: StartNode(next=2),
            1: ConstantNode(IntVal(0)),
            2: StoreFieldNode(selfId=2, field="x", value=1, objectOpt=1, next=3),
            3: ReturnNode(resultOpt=None),
        })}),
        "Stuck: @1: expected an object reference, got IntVal 0", EvalStuck),
    "stuck-stored-value-before-its-object": (
        Program({MAIN: Graph({
            0: StartNode(next=2),
            1: ConstantNode(IntVal(0)),
            2: StoreFieldNode(selfId=2, field="x", value=4, objectOpt=1, next=3),
            3: ReturnNode(resultOpt=None),
            4: ParameterNode(0),
        })}),
        "Stuck: @4: parameter index 0 with 0 parameters", ParamOutOfRange),
    "control-edge-to-a-data-node": (
        Program({MAIN: Graph({0: StartNode(next=1), 1: ConstantNode(IntVal(0))})}),
        "Stuck: @1: no local rule for ConstantNode", EvalStuck),
    "control-edge-to-no-node": (
        Program({MAIN: Graph({0: StartNode(next=7)})}),
        "Stuck: @7: no local rule for NoNode", EvalStuck),
    "call-target-not-a-call-target": (
        invoking(1, {1: ConstantNode(IntVal(0))}),
        "Stuck: callTarget of invoke 2 is ConstantNode", MalformedCall),
    "malformed-call-before-its-stuck-target": (
        invoking(1, {1: ParameterNode(0)}),
        "Stuck: callTarget of invoke 2 is ParameterNode", MalformedCall),
    "unknown-method": (
        invoking(1, {1: MethodCallTargetNode(targetMethod=GHOST, arguments=())}),
        "Stuck: no graph for method T.ghost()", UnknownMethod),
    "stuck-argument-before-an-unknown-method": (
        invoking(1, {
            1: MethodCallTargetNode(targetMethod=GHOST, arguments=(3, 4)),
            3: ConstantNode(IntVal(1)),
            4: ParameterNode(0),
        }),
        "Stuck: @4: parameter index 0 with 0 parameters", ParamOutOfRange),
    "unwinding-an-integer": (
        calling(Graph({0: StartNode(next=1), 1: UnwindNode(exception=2),
                       2: ConstantNode(IntVal(0))}), InvokeWithExceptionNode),
        "Stuck: unwound value is not an object reference: IntVal 0", GlobalStuck),
    "unwinding-an-integer-at-the-top": (
        Program({MAIN: Graph({0: StartNode(next=1), 1: UnwindNode(exception=2),
                              2: ConstantNode(IntVal(0))})}),
        "Stuck: unwound value is not an object reference: IntVal 0", UncaughtTopLevel),
    "unwind-without-handler": (
        calling(Graph({0: StartNode(next=2), 1: UnwindNode(exception=2),
                       2: NewInstanceNode(selfId=2, instanceClass="E", next=1)})),
        "Stuck: invoke 2 has no exception edge", UnwindWithoutHandler),
    "stuck-unwound-value-before-a-missing-handler": (
        calling(Graph({0: StartNode(next=1), 1: UnwindNode(exception=2),
                       2: ParameterNode(0)})),
        "Stuck: @2: parameter index 0 with 0 parameters", ParamOutOfRange),
    "stuck-result-in-the-callee": (
        calling(Graph({0: StartNode(next=1), 1: ReturnNode(resultOpt=2),
                       2: ParameterNode(0)})),
        "Stuck: @2: parameter index 0 with 0 parameters", ParamOutOfRange),
}


def stepped_to_stuck(program: Program, sig: Signature) -> EvalStuck:
    """The exception step_top raises first from sig's initial configuration;
    a top-level exit raises UncaughtTopLevel there, which run handles."""
    c = initial_config(program, sig, [])
    for _ in range(100):
        try:
            c = step_top(program, c)
        except EvalStuck as e:
            return e
    raise AssertionError("not stuck within 100 steps")


@pytest.mark.parametrize("name", sorted(CASES))
def test_stuck_reason_and_class(name):
    program, expected, cls = CASES[name]
    result = run(program, MAIN, [], fuel=100)
    assert str(result) == expected
    e = stepped_to_stuck(program, MAIN)
    assert type(e) is cls
    if cls is not UncaughtTopLevel:
        assert f"Stuck: {e}" == expected


@pytest.mark.parametrize("kind, expected", [
    (ReturnNode, "return with no calling frame"),
    (UnwindNode, "unwind with no calling frame"),
])
def test_top_level_exit_raises_in_step_top(kind, expected):
    exit_node = ReturnNode(resultOpt=2) if kind is ReturnNode else UnwindNode(exception=2)
    program = Program({MAIN: Graph({
        0: StartNode(next=1), 1: exit_node, 2: NewInstanceNode(2, "E", next=1)})})
    e = stepped_to_stuck(program, MAIN)
    assert (type(e), str(e), e.nid) == (UncaughtTopLevel, expected, None)


@pytest.mark.parametrize("kind, expected", [
    (ReturnNode, "return into non-invoke caller node 1"),
    (UnwindNode, "unwind into non-invoke caller node 1"),
])
def test_exit_into_a_caller_that_is_not_an_invoke(kind, expected):
    # No run reaches this: only an invoke pushes a frame. Built by hand.
    exit_node = ReturnNode(resultOpt=None) if kind is ReturnNode else UnwindNode(exception=2)
    callee = Graph({0: StartNode(next=2), 1: exit_node, 2: NewInstanceNode(2, "E", next=1)})
    caller = Graph({0: StartNode(next=1), 1: BeginNode(next=2), 2: ReturnNode(resultOpt=None)})
    state = MethodState({2: ObjRef(0)})
    bottom = Frame(caller, 1, MethodState(), ())
    top = Frame(callee, 1, state, (), bottom, 2)
    c = GlobalConfig(top, DynamicHeap(free=1))
    program = Program({MAIN: caller, CALLEE: callee})
    with pytest.raises(GlobalStuck) as e:
        step_top(program, c)
    assert (type(e.value), str(e.value)) == (GlobalStuck, expected)


@pytest.mark.parametrize("kind", [ReturnNode, UnwindNode, InvokeNode])
def test_no_local_rule_for_the_global_kinds(kind):
    node = {
        ReturnNode: ReturnNode(resultOpt=None),
        UnwindNode: UnwindNode(exception=2),
        InvokeNode: InvokeNode(selfId=1, callTarget=2, next=1),
    }[kind]
    g = Graph({1: node, 2: MethodCallTargetNode(targetMethod=MAIN, arguments=())})
    with pytest.raises(StepStuck) as e:
        step(g, (), LocalConfig(1, MethodState(), DynamicHeap()))
    assert (type(e.value), str(e.value)) == (EvalStuck, f"@1: no local rule for {kind.__name__}")


def test_phis_of_a_node_that_is_not_a_merge():
    g = Graph({0: StartNode(next=1), 1: BeginNode(next=0)})
    with pytest.raises(StepStuck) as e:
        phis_of(g, 1)
    assert (type(e.value), str(e.value)) == (EvalStuck, "@1: BeginNode is not a merge")


def test_merge_of_end_of_a_node_that_is_not_an_end():
    g = Graph({0: StartNode(next=1), 1: BeginNode(next=0)})
    with pytest.raises(StepStuck) as e:
        merge_of_end(g, 1)
    assert (type(e.value), str(e.value)) == (EvalStuck, "@1: not an end node")


def test_stuck_steps_raise_a_fresh_exception_each_time():
    # A stuck end is decoded once; stepping it again must not re-raise one
    # exception object, whose traceback would grow with every raise.
    program, expected, _ = CASES["end-without-merge"]
    g = program.graph(MAIN)
    raised = []
    for _ in range(3):
        with pytest.raises(StepStuck) as e:
            step(g, (), LocalConfig(1, MethodState(), DynamicHeap()))
        raised.append(e.value)
    assert len({id(e) for e in raised}) == 3
    assert all(f"Stuck: {e}" == expected for e in raised)
