import time

import pytest

from conftest import corpus
from genutil import STORE_LOOP_SIG, STUCK_PHI_SIG, store_loop, stuck_phi_program
from seanode import ir
from seanode.controlflow import StepStuck
from seanode.dataflow import EvalStuck, ParamOutOfRange
from seanode.interproc import (
    ExecOutcome, Frame, GlobalConfig, GlobalStuck, MalformedCall, UncaughtTopLevel,
    UnknownMethod, UnwindWithoutHandler, initial_config, run, step_top,
)
from seanode.wellformed import check
from seanode.ir import (
    AddNode, BeginNode, ConstantNode, EndNode, Graph, IfNode, IntegerLessThanNode, InvokeNode,
    MethodCallTargetNode, NewInstanceNode, ParameterNode, Program, ReturnNode, Signature,
    StartNode, StoreFieldNode, SubNode, UnwindNode,
)
from seanode.runtime import UNDEF, DynamicHeap, IntVal, MethodState, ObjRef


def drive_to_invoke(program, sig, args):
    c = initial_config(program, sig, args)
    while not isinstance(
        c.stack[0].graph.kind(c.stack[0].nid), (InvokeNode,)
    ):
        c = step_top(program, c)
    return c


def test_invoke_pushes_fresh_frame():
    p = corpus("call-chain")
    c = drive_to_invoke(p, p.resolve("main"), [IntVal(5)])
    assert len(c.stack) == 1
    c2 = step_top(p, c)
    assert len(c2.stack) == 2
    callee = c2.stack[0]
    assert callee.nid == 0
    assert callee.state == MethodState()
    assert callee.params == (IntVal(5),)
    assert callee.graph is p.graph(p.resolve("add3"))
    # The caller's state is not extended by the call itself.
    assert c2.stack[1].state == c.stack[0].state


def test_return_stores_value_under_invoke_id():
    callee = Graph({0: StartNode(next=2), 1: ConstantNode(IntVal(99)), 2: ReturnNode(resultOpt=1)})
    callee_sig = Signature("T", "callee", ())
    caller = Graph({
        0: StartNode(next=3),
        2: MethodCallTargetNode(targetMethod=callee_sig, arguments=()),
        3: InvokeNode(selfId=3, callTarget=2, next=4),
        4: ReturnNode(resultOpt=3),
    })
    caller_sig = Signature("T", "caller", ())
    p = Program({caller_sig: caller, callee_sig: callee})

    c = drive_to_invoke(p, caller_sig, [])
    c = step_top(p, c)            # invoke
    c = step_top(p, c)            # callee StartNode
    c = step_top(p, c)            # callee return, pops back to caller
    assert len(c.stack) == 1
    assert c.stack[0].nid == 4
    assert c.stack[0].state[3] == IntVal(99)

    result = run(p, caller_sig, [])
    assert result.outcome is ExecOutcome.RETURNED and result.value == IntVal(99)


def test_unwind_routes_to_exception_edge():
    p = corpus("catch-exception")
    sig = p.resolve("catchIt")
    result = run(p, sig, [])
    assert result.outcome is ExecOutcome.RETURNED
    assert result.value == IntVal(99)

    records = []
    run(p, sig, [], on_step=lambda r: records.append(r))
    unwind_steps = [r for r in records if r.kind_name == "UnwindNode"]
    assert len(unwind_steps) == 1
    rec = unwind_steps[0]
    assert rec.nid_after == 5  # the invoke's exceptionEdge successor
    assert rec.m_delta == ((2, ObjRef(0)),)


def test_normal_return_through_invoke_with_exception():
    # A callee that returns normally through an InvokeWithExceptionNode
    # resumes the caller at the next successor, not the exception edge.
    from seanode.ir import InvokeWithExceptionNode
    callee_sig = Signature("T", "fine", ())
    callee = Graph({0: StartNode(next=2), 1: ConstantNode(IntVal(5)), 2: ReturnNode(resultOpt=1)})
    caller_sig = Signature("T", "caller", ())
    caller = Graph({
        0: StartNode(next=2),
        1: MethodCallTargetNode(targetMethod=callee_sig, arguments=()),
        2: InvokeWithExceptionNode(selfId=2, callTarget=1, next=3, exceptionEdge=5),
        3: ReturnNode(resultOpt=2),
        5: ReturnNode(resultOpt=None),
    })
    p = Program({caller_sig: caller, callee_sig: callee})
    result = run(p, caller_sig, [])
    assert result.outcome is ExecOutcome.RETURNED
    assert result.value == IntVal(5)


def test_uncaught_exception_outcome():
    p = corpus("uncaught")
    result = run(p, p.resolve("explode"), [])
    assert result.outcome is ExecOutcome.UNCAUGHT_EXCEPTION
    assert result.value == ObjRef(0)


def test_call_chain_value_and_depths():
    p = corpus("call-chain")
    records = []
    result = run(p, p.resolve("main"), [IntVal(5)], on_step=lambda r: records.append(r))
    assert result.outcome is ExecOutcome.RETURNED
    assert result.value == IntVal(13)  # (5 * 2) + 3
    depths = [1] + [r.depth for r in records]
    collapsed = [depths[0]] + [d for i, d in enumerate(depths[1:], 1) if d != depths[i - 1]]
    assert collapsed == [1, 2, 3, 2, 1]
    assert result.steps == len(records)


def test_stack_discipline_per_rule():
    p = corpus("call-chain")
    c = initial_config(p, p.resolve("main"), [IntVal(1)])
    depths = [len(c.stack)]
    while True:
        top = c.stack[0]
        node = top.graph.kind(top.nid)
        if isinstance(node, ReturnNode) and len(c.stack) == 1:
            break
        c2 = step_top(p, c)
        assert abs(len(c2.stack) - len(c.stack)) <= 1
        depths.append(len(c2.stack))
        c = c2
    assert max(depths) == 3


def test_heap_is_global_across_frames():
    p = corpus("cross-frame")
    result = run(p, p.resolve("crossFrame"), [])
    assert result.outcome is ExecOutcome.RETURNED
    assert result.value == IntVal(42)


def test_void_return_stores_undef():
    p = corpus("cross-frame")
    records = []
    run(p, p.resolve("crossFrame"), [], on_step=lambda r: records.append(r))
    returns = [r for r in records if r.kind_name == "ReturnNode"]
    assert len(returns) == 1
    assert returns[0].m_delta == ()  # undef never materializes in the state


def test_arguments_evaluated_in_caller_context():
    callee_sig = Signature("T", "id", ("int",))
    callee = Graph({0: StartNode(next=2), 1: ParameterNode(0), 2: ReturnNode(resultOpt=1)})
    caller_sig = Signature("T", "caller", ("int",))
    caller = Graph({
        0: StartNode(next=5),
        1: ParameterNode(0),
        2: ConstantNode(IntVal(10)),
        3: AddNode(x=1, y=2),
        4: MethodCallTargetNode(targetMethod=callee_sig, arguments=(3,)),
        5: InvokeNode(selfId=5, callTarget=4, next=6),
        6: ReturnNode(resultOpt=5),
    })
    p = Program({caller_sig: caller, callee_sig: callee})
    result = run(p, caller_sig, [IntVal(7)])
    assert result.value == IntVal(17)


def test_unknown_method_is_stuck():
    sig = Signature("T", "main", ())
    g = Graph({
        0: StartNode(next=2),
        1: MethodCallTargetNode(targetMethod=Signature("T", "ghost", ()), arguments=()),
        2: InvokeNode(selfId=2, callTarget=1, next=3),
        3: ReturnNode(resultOpt=None),
    })
    result = run(Program({sig: g}), sig, [])
    assert result.outcome is ExecOutcome.STUCK
    assert "ghost" in result.reason


def test_malformed_call_target():
    sig = Signature("T", "main", ())
    g = Graph({
        0: StartNode(next=2),
        1: ConstantNode(IntVal(0)),
        2: InvokeNode(selfId=2, callTarget=1, next=3),
        3: ReturnNode(resultOpt=None),
    })
    c = initial_config(Program({sig: g}), sig, [])
    c = step_top(Program({sig: g}), c)
    with pytest.raises(MalformedCall):
        step_top(Program({sig: g}), c)


def test_unwind_without_handler():
    boom_sig = Signature("T", "boom", ())
    boom = Graph({
        0: StartNode(next=1),
        1: UnwindNode(exception=2),
        2: ConstantNode(IntVal(0)),
    })
    main_sig = Signature("T", "main", ())
    main = Graph({
        0: StartNode(next=2),
        1: MethodCallTargetNode(targetMethod=boom_sig, arguments=()),
        2: InvokeNode(selfId=2, callTarget=1, next=3),
        3: ReturnNode(resultOpt=None),
    })
    p = Program({main_sig: main, boom_sig: boom})
    result = run(p, main_sig, [])
    assert result.outcome is ExecOutcome.STUCK


def test_top_level_return_and_unwind_raise_in_step_top():
    sig = Signature("T", "main", ())
    g = Graph({0: StartNode(next=1), 1: ReturnNode(resultOpt=None)})
    p = Program({sig: g})
    c = step_top(p, initial_config(p, sig, []))
    with pytest.raises(UncaughtTopLevel):
        step_top(p, c)


def test_factorial_through_global_driver():
    p = corpus("factorial")
    fact = p.resolve("fact")
    assert run(p, fact, [IntVal(5)]).value == IntVal(120)
    assert run(p, fact, [IntVal(13)]).value == IntVal(1932053504)


def test_run_factorial_skips_loop():
    steps = []
    p = corpus("factorial")
    result = run(p, p.resolve("fact"), [IntVal(1)], on_step=steps.append)
    assert result.outcome is ExecOutcome.RETURNED
    assert result.value == IntVal(1)
    assert steps[-1].nid_after == 16  # the ReturnNode
    visited = {s.nid for s in steps}
    assert 21 not in visited and 13 not in visited  # back edge and loop body
    loop_entry = next(s for s in steps if s.nid == 5)
    assert (8, IntVal(1)) in loop_entry.m_delta


def test_run_immediate_return():
    sig = Signature("T", "main", ())
    g = Graph({0: StartNode(next=1), 1: ReturnNode(resultOpt=None)})
    result = run(Program({sig: g}), sig, [])
    assert result.outcome is ExecOutcome.RETURNED
    assert result.value == UNDEF
    assert result.steps == 1


def test_run_end_without_merge_is_stuck():
    sig = Signature("T", "main", ())
    g = Graph({0: StartNode(next=1), 1: EndNode()})
    result = run(Program({sig: g}), sig, [], fuel=10)
    assert result.outcome is ExecOutcome.STUCK
    assert result.steps == 1
    assert "no merge usage" in result.reason


def test_out_of_fuel_at_exact_budget():
    p = corpus("spin")
    result = run(p, p.resolve("spin"), [], fuel=777)
    assert result.outcome is ExecOutcome.OUT_OF_FUEL
    assert result.steps == 777


def test_run_spin_fuel_exhaustion_inside_loop():
    steps = []
    p = corpus("spin")
    result = run(p, p.resolve("spin"), [], fuel=1000, on_step=steps.append)
    assert result.outcome is ExecOutcome.OUT_OF_FUEL
    assert result.steps == len(steps) == 1000
    # Still inside the loop: the exit path was never taken.
    assert {s.nid for s in steps}.isdisjoint({8, 9})
    assert all(s.depth == 1 for s in steps)


def test_missing_main_raises():
    with pytest.raises(UnknownMethod):
        run(Program({}), Signature("T", "main", ()), [])


def test_allocations_and_statics_observable_in_result_heap():
    p = corpus("heap-pair")
    result = run(p, p.resolve("pairSum"), [])
    assert result.value == IntVal(14)
    assert result.heap.free == 2

    p = corpus("static-counter")
    result = run(p, p.resolve("statics"), [])
    assert result.value == IntVal(3)


def test_trace_records_match_steps_and_rerun_identically():
    p = corpus("factorial")
    fact = p.resolve("fact")
    first, second = [], []
    r1 = run(p, fact, [IntVal(6)], on_step=lambda r: first.append(r.line()))
    r2 = run(p, fact, [IntVal(6)], on_step=lambda r: second.append(r.line()))
    assert first == second
    assert len(first) == r1.steps == r2.steps


def test_trace_cost_does_not_grow_with_the_heap():
    # 3,000 trips, each storing into a fresh cell: a heap delta built by
    # scanning the heap on every traced step takes about 20 s here.
    program = store_loop(3000)
    deltas = []
    start = time.perf_counter()
    result = run(program, STORE_LOOP_SIG, [], on_step=lambda r: deltas.extend(r.h_delta))
    assert time.perf_counter() - start < 2
    assert result.value == IntVal(3000)
    assert deltas == [(k, "trip", IntVal(k)) for k in range(3000)]


def test_one_stuck_exception_for_every_layer():
    assert StepStuck is EvalStuck
    for cls in (ParamOutOfRange, GlobalStuck, UnknownMethod, MalformedCall,
                UnwindWithoutHandler, UncaughtTopLevel):
        assert issubclass(cls, EvalStuck)
    e = GlobalStuck("empty frame stack")
    assert e.nid is None
    assert str(e) == e.reason == "empty frame stack"
    e = EvalStuck(5, "no evaluation rule for EndNode")
    assert (e.nid, str(e)) == (5, "@5: no evaluation rule for EndNode")


def test_run_classifies_a_stuck_phi_update():
    program = stuck_phi_program()
    assert check(program.graph(STUCK_PHI_SIG)).ok
    result = run(program, STUCK_PHI_SIG, [])
    assert result.outcome is ExecOutcome.STUCK
    assert result.steps == 1
    assert result.reason == "@5: parameter index 3 with 0 parameters"


def test_stuck_argument_evaluation_keeps_its_node():
    callee = Signature("T", "callee", ("int",))
    main = Signature("T", "main", ())
    program = Program({
        main: Graph({
            0: StartNode(next=1),
            1: InvokeNode(1, callTarget=2, next=4),
            2: MethodCallTargetNode(callee, arguments=(3,)),
            3: ParameterNode(0),
            4: ReturnNode(resultOpt=None),
        }),
        callee: Graph({0: StartNode(next=1), 1: ReturnNode(resultOpt=None)}),
    })
    result = run(program, main, [])
    assert result.outcome is ExecOutcome.STUCK
    assert result.reason == "@3: parameter index 0 with 0 parameters"


def test_step_cost_does_not_grow_with_unreferenced_nodes(monkeypatch):
    p = corpus("loop-sum")
    sig = p.resolve("sumTo")
    nodes = dict(p.graph(sig).items())
    base = max(nodes) + 1
    g = Graph({**nodes, **{base + i: ConstantNode(IntVal(i)) for i in range(10_000)}})
    calls = 0
    inputs_of = ir.inputs_of

    def counting(node):
        nonlocal calls
        calls += 1
        return inputs_of(node)

    monkeypatch.setattr(ir, "inputs_of", counting)
    result = run(Program({sig: g}), sig, [IntVal(300)])
    assert result.value == IntVal(300 * 301 // 2)
    # Reading every node once (the def-use index) plus a few per step; a
    # whole-graph scan per loop iteration would be 300 x 10,018.
    assert calls <= len(g) + 2 * result.steps


def test_a_rerun_calls_what_the_first_run_called(monkeypatch):
    # Step entries are decoded once per graph, on the first run; decoding
    # calls none of the functions below, so a rerun of the same graphs
    # calls each of them as often as the first run did.
    from seanode import controlflow, interproc
    calls = []
    for owner, name in ((ir.Graph, "usages"), (controlflow, "merge_of_end"),
                        (controlflow, "phis_of"), (interproc, "step")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    p = corpus("factorial")
    runs = []
    for _ in range(2):
        calls.clear()
        assert run(p, p.resolve("fact"), [IntVal(4)]).value == IntVal(24)
        runs.append(sorted(calls))
    assert runs[0] == runs[1] and "step" in runs[0]


REC_SIG = Signature("T", "rec", ("int",))


def recursive_alloc_store() -> Program:
    """rec(n): if n < 1 return n; allocate a cell, store n into it, return
    rec(n - 1). Each level pushes a frame and grows the heap by one cell."""
    return Program({REC_SIG: Graph({
        0: StartNode(next=3),
        1: ParameterNode(0),
        2: ConstantNode(IntVal(1)),
        3: IfNode(condition=4, trueSuccessor=5, falseSuccessor=6),
        4: IntegerLessThanNode(x=1, y=2),
        5: BeginNode(next=7),
        6: BeginNode(next=8),
        7: ReturnNode(resultOpt=1),
        8: NewInstanceNode(selfId=8, instanceClass="Cell", next=9),
        9: StoreFieldNode(selfId=9, field="v", value=1, objectOpt=8, next=10),
        10: InvokeNode(selfId=10, callTarget=11, next=13),
        11: MethodCallTargetNode(targetMethod=REC_SIG, arguments=(12,)),
        12: SubNode(x=1, y=2),
        13: ReturnNode(resultOpt=10),
    })})


def test_old_configurations_read_back_unchanged_after_later_steps():
    p = recursive_alloc_store()

    def snapshot(c):
        frames = [(f.graph, f.nid, f.state, f.params) for f in c.stack]
        return frames, len(c.stack), dict(c.heap.fields), c.heap.free

    c = initial_config(p, REC_SIG, [IntVal(4)])
    seen = [(c, snapshot(c))]
    while not (c.top.caller is None and isinstance(c.top.graph.kind(c.top.nid), ReturnNode)):
        c = step_top(p, c)
        seen.append((c, snapshot(c)))
    assert max(depth for _, (_, depth, _, _) in seen) == 5
    assert seen[-1][1][2] == {(k, "v"): IntVal(4 - k) for k in range(4)}
    for old, snap in seen:
        assert snapshot(old) == snap
    # A step from an old configuration branches; the later ones still read back.
    old, _ = seen[len(seen) // 2]
    assert step_top(p, old) == seen[len(seen) // 2 + 1][0]
    step_top(p, step_top(p, old))
    for old, snap in seen:
        assert snapshot(old) == snap
    assert seen[2][0] != seen[3][0]


def test_step_rate_does_not_fall_with_recursion_depth():
    # Each step once copied the frame stack and each store the heap, so the
    # rate at depth 6,400 was several times lower than at depth 400.
    # A timing at depth 400 runs 4 times, so a slow spell of the machine is
    # less likely to hit one depth's timings only.
    p = recursive_alloc_store()
    best = {}
    for _ in range(3):
        for depth, times in ((400, 4), (6400, 1)):
            start = time.perf_counter()
            steps = 0
            for _ in range(times):
                result = run(p, REC_SIG, [IntVal(depth)])
                assert result.value == IntVal(0) and result.heap.free == depth
                steps += result.steps
            rate = steps / (time.perf_counter() - start)
            best[depth] = max(best.get(depth, 0.0), rate)
    assert best[400] <= 1.5 * best[6400], best
