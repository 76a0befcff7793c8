import hashlib
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import reference
from conftest import CORPUS_FILES, corpus
from genutil import (
    CHAIN_SIG, STORE_LOOP_SIG, STUCK_PHI_SIG, damage_bases, damaged_graph, store_loop,
    stuck_phi_program,
)
from seanode import interproc, ir, runtime
from seanode.controlflow import RETURN, UNWIND, StepStuck, plan
from seanode.dataflow import EvalStuck, ParamOutOfRange
from seanode.equivalence import Equivalence, _outcome, data_equiv
from seanode.fileformat import load
from seanode.optimize import PASS_NAMES, IterationCapExceeded, apply_pass
from seanode.interproc import (
    ExecOutcome, ExecResult, Frame, GlobalConfig, GlobalStuck, MalformedCall, UncaughtTopLevel,
    UnknownMethod, UnwindWithoutHandler, initial_config, run, step_top,
)
from seanode.wellformed import check
from seanode.ir import (
    AddNode, BeginNode, ConditionalNode, ConstantNode, EndNode, Graph, IfNode, IntegerLessThanNode, InvokeNode,
    InvokeWithExceptionNode, MethodCallTargetNode, NegateNode, NewInstanceNode, ParameterNode,
    Program, ReturnNode, Signature, StartNode, StoreFieldNode, SubNode, UnwindNode,
    ValueProxyNode,
)
from seanode.runtime import (
    FIELD_DEFAULT, STATIC_REF, UNDEF, DynamicHeap, IntVal, MethodState, ObjRef,
)
from test_stuck_reasons import CASES as STUCK_CASES


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
    edges_of = ir.edges_of

    def counting(node):
        nonlocal calls
        calls += 1
        return edges_of(node)

    monkeypatch.setattr(ir, "edges_of", counting)
    result = run(Program({sig: g}), sig, [IntVal(300)])
    assert result.value == IntVal(300 * 301 // 2)
    # Decoding every node's edges once (the edge table, which the def-use
    # index reads) plus a few per step; a whole-graph decode per loop
    # iteration would be 300 x 10,018.
    assert calls <= len(g) + 2 * result.steps


def test_a_rerun_calls_what_the_first_run_called(monkeypatch):
    # Step entries are decoded once per graph, on the first run; decoding
    # calls none of the functions below, so a rerun of the same graphs
    # calls each of them as often as the first run did.
    from seanode import controlflow, interproc
    calls = []
    for owner, name in ((ir.Graph, "usages"), (controlflow, "merge_of_end"),
                        (controlflow, "phis_of"), (interproc, "local_step")):
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
    assert runs[0] == runs[1] and "local_step" in runs[0]


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
    # The machine's speed drifts in spells, and a spell only ever slows a
    # timing, so the best per-step time of five rounds at each depth is
    # compared; each round times both depths over the same number of frames
    # (16 runs at depth 400, one at 6,400), in alternating order.
    p = recursive_alloc_store()

    def step_time(depth: int, times: int) -> float:
        start = time.perf_counter()
        steps = 0
        for _ in range(times):
            result = run(p, REC_SIG, [IntVal(depth)])
            assert result.value == IntVal(0) and result.heap.free == depth
            steps += result.steps
        return (time.perf_counter() - start) / steps

    best = {400: float("inf"), 6400: float("inf")}
    for r in range(5):
        order = ((400, 16), (6400, 1)) if r % 2 == 0 else ((6400, 1), (400, 16))
        for depth, times in order:
            best[depth] = min(best[depth], step_time(depth, times))
    assert best[6400] <= 1.5 * best[400], best


class _CopyingHeap(DynamicHeap):
    """A heap whose every store copies all its cells, as stores once did.
    No store leaves a diff, so each version holds its own dict."""

    @staticmethod
    def _at(version, free):
        heap = object.__new__(_CopyingHeap)
        heap._version, heap.free = version, free
        return heap

    def store_field(self, fname, obj, v):
        cells = dict(self._version[0])
        cells[(obj.ref if obj is not None else STATIC_REF, fname)] = v
        return _CopyingHeap._at([cells], self.free)

    def new_instance(self):
        return ObjRef(self.free), _CopyingHeap._at(self._version, self.free + 1)


def test_step_rate_test_fails_with_a_heap_that_copies_on_store(monkeypatch):
    monkeypatch.setattr(interproc, "DynamicHeap", _CopyingHeap)
    with pytest.raises(AssertionError, match=r"^\{400: "):  # the rate bound, not a result
        test_step_rate_does_not_fall_with_recursion_depth()


def test_every_store_at_any_recursion_depth_writes_the_one_heap_dict(monkeypatch):
    # The step-rate test's property by structure, so no machine speed
    # enters: at depths 400 and 6,400 every heap version a store makes
    # shares its run's one dict, so no store copies cells, and run's loads
    # and stores reroot no older version, so no diff is applied.
    p = recursive_alloc_store()
    heap, reroot = interproc.DynamicHeap, runtime._reroot
    store, dicts, rerooted = heap.store_field, [], []

    def recording_store(self, fname, obj, v):
        result = store(self, fname, obj, v)
        dicts.append(id(result._version[0]))
        return result

    def recording_reroot(version):
        rerooted.append(version)
        return reroot(version)

    monkeypatch.setattr(heap, "store_field", recording_store)
    monkeypatch.setattr(runtime, "_reroot", recording_reroot)
    for depth in (400, 6400):
        dicts.clear()
        result = run(p, REC_SIG, [IntVal(depth)])
        assert result.value == IntVal(0) and result.heap.free == depth
        assert len(dicts) == depth and len(set(dicts)) == 1, depth
    assert rerooted == []


def test_one_heap_dict_test_fails_with_a_heap_that_copies_on_store(monkeypatch):
    monkeypatch.setattr(interproc, "DynamicHeap", _CopyingHeap)
    with pytest.raises(AssertionError, match=r"^400\n"):  # the shared dict, not a result
        test_every_store_at_any_recursion_depth_writes_the_one_heap_dict(monkeypatch)


LINE_SIG = Signature("T", "line", ())


def straight_line_allocs(n: int) -> Program:
    """line(): n allocations in a row, then return 0. Each allocation
    writes one more live slot of the method state."""
    nodes = {0: StartNode(next=1), n + 1: ReturnNode(resultOpt=n + 2),
             n + 2: ConstantNode(IntVal(0))}
    nodes.update({i: NewInstanceNode(i, "Cell", next=i + 1) for i in range(1, n + 1)})
    return Program({LINE_SIG: Graph(nodes)})


class _CopyingState(MethodState):
    """A state whose every write copies all its slots, as writes once did.
    No write leaves a diff, so each version holds its own dict."""

    def set(self, nid, v):
        state = _CopyingState()
        state._version = [{**self._version[0], nid: v}]
        return state


def test_every_write_of_a_long_method_writes_the_one_state_dict(monkeypatch):
    # A method with n live slots runs in time linear in n, pinned by
    # structure, so no machine speed enters: at 1,000 and 16,000 slots every
    # state version a write makes shares its run's one dict, so no write
    # copies slots, and no older version is rerooted to.
    state, reroot = interproc.MethodState, runtime._reroot
    write, dicts, rerooted = state.set, [], []

    def recording_set(self, nid, v):
        result = write(self, nid, v)
        dicts.append(id(result._version[0]))
        return result

    def recording_reroot(version):
        rerooted.append(version)
        return reroot(version)

    monkeypatch.setattr(state, "set", recording_set)
    monkeypatch.setattr(runtime, "_reroot", recording_reroot)
    for n in (1000, 16000):
        dicts.clear()
        result = run(straight_line_allocs(n), LINE_SIG, [], fuel=10 ** 6)
        assert result.value == IntVal(0) and result.heap.free == n
        assert len(dicts) == n and len(set(dicts)) == 1, n
    assert rerooted == []


def test_one_state_dict_test_fails_with_a_state_that_copies_on_write(monkeypatch):
    monkeypatch.setattr(interproc, "MethodState", _CopyingState)
    with pytest.raises(AssertionError, match=r"^1000\n"):  # the shared dict, not a result
        test_every_write_of_a_long_method_writes_the_one_state_dict(monkeypatch)


# The reference for run: the same rules applied one GlobalConfig at a time
# by step_top.

def run_by_step_top(program, main, args, fuel, on_store):
    c = initial_config(program, main, args)
    steps = 0
    while True:
        top = c.top
        e = plan(top.graph, top.nid)
        try:
            if top.caller is None and e[0] in (RETURN, UNWIND):
                outcome = ExecOutcome.RETURNED if e[0] == RETURN else ExecOutcome.UNCAUGHT_EXCEPTION
                value = interproc._exit_value(top.graph, top.state, top.params, e)
                return ExecResult(outcome, value, steps, c.heap)
            if steps == fuel:
                return ExecResult(ExecOutcome.OUT_OF_FUEL, None, steps, c.heap)
            c = step_top(program, c, on_store=on_store)
        except EvalStuck as err:
            return ExecResult(ExecOutcome.STUCK, None, steps, c.heap, str(err))
        steps += 1


def assert_run_matches_step_top(program, main, args, fuel):
    observed = []
    for driver in (run, run_by_step_top):
        stores = []
        result = driver(program, main, args, fuel, on_store=lambda *w: stores.append(w))
        cells = {k: v for k, v in result.heap.fields.items() if v != FIELD_DEFAULT}
        observed.append((result.outcome, result.value, result.steps, cells, str(result), stores))
    assert observed[0] == observed[1]


FIXTURE_FILES = sorted((Path(__file__).parent / "fixtures").glob("*.json"))


@pytest.mark.parametrize("path", CORPUS_FILES + FIXTURE_FILES, ids=lambda path: path.stem)
def test_run_matches_step_top_on_every_shipped_method(path):
    program = load(path)
    for sig in program.methods:
        for v in (-1, 0, 3):
            args = [IntVal(v)] * len(sig.parameterTypes)
            for fuel in (1, 7, 1000):
                assert_run_matches_step_top(program, sig, args, fuel)


@pytest.mark.parametrize("name", sorted(STUCK_CASES))
def test_run_matches_step_top_on_every_stuck_case(name):
    program, _, _ = STUCK_CASES[name]
    assert_run_matches_step_top(program, Signature("T", "main", ()), [], 100)


def test_run_matches_step_top_on_a_stuck_phi_update_and_a_store_loop():
    assert_run_matches_step_top(stuck_phi_program(), STUCK_PHI_SIG, [], 100)
    assert_run_matches_step_top(store_loop(5), STORE_LOOP_SIG, [], 30)


THROW_SIG = Signature("T", "recThrow", ("int",))


def recursive_throw(throw: bool, catch: bool) -> Program:
    """recThrow(n): at n < 1 return n, or throw a new object; else allocate
    a cell, store n into it and return recThrow(n - 1). With catch, a throw
    out of the call stores the thrown object into a static field and
    returns n; without, the call has no exception edge and is stuck."""
    call = (InvokeWithExceptionNode(10, callTarget=11, next=13, exceptionEdge=14) if catch
            else InvokeNode(10, callTarget=11, next=13))
    return Program({THROW_SIG: Graph({
        0: StartNode(next=3),
        1: ParameterNode(0),
        2: ConstantNode(IntVal(1)),
        3: IfNode(condition=4, trueSuccessor=5, falseSuccessor=6),
        4: IntegerLessThanNode(x=1, y=2),
        5: BeginNode(next=15 if throw else 7),
        6: BeginNode(next=8),
        7: ReturnNode(resultOpt=1),
        8: NewInstanceNode(8, "Cell", next=9),
        9: StoreFieldNode(9, field="v", value=1, objectOpt=8, next=10),
        10: call,
        11: MethodCallTargetNode(targetMethod=THROW_SIG, arguments=(12,)),
        12: SubNode(x=1, y=2),
        13: ReturnNode(resultOpt=10),
        14: StoreFieldNode(14, field="caught", value=10, objectOpt=None, next=17),
        15: NewInstanceNode(15, "Boom", next=16),
        16: UnwindNode(exception=15),
        17: ReturnNode(resultOpt=1),
    })})


@given(st.integers(0, 40), st.integers(1, 400), st.booleans(), st.booleans())
def test_differential_run_matches_step_top_over_depth_and_fuel(depth, fuel, throw, catch):
    assert_run_matches_step_top(recursive_throw(throw, catch), THROW_SIG, [IntVal(depth)], fuel)


@pytest.mark.parametrize("program, sig, depth, value", [
    (recursive_alloc_store(), REC_SIG, 30, IntVal(0)),
    (recursive_throw(throw=True, catch=True), THROW_SIG, 30, IntVal(1)),
])
def test_run_builds_a_frame_only_for_the_caller_an_invoke_pushes(monkeypatch, program, sig,
                                                                  depth, value):
    # depth invokes, then as many returns, or an unwind into a handler and
    # the returns after it; initial_config builds the bottom frame.
    built = []
    frame = interproc.Frame
    monkeypatch.setattr(interproc, "Frame", lambda *fields: built.append(fields) or frame(*fields))
    result = run(program, sig, [IntVal(depth)])
    assert (result.outcome, result.value) == (ExecOutcome.RETURNED, value)
    assert result.steps > 5 * depth and len(built) == 1 + depth


def _two_callers():
    """A graph, and two bottom frames of it with other nodes and states."""
    g = Graph({0: StartNode(next=1), 1: ReturnNode(resultOpt=None)})
    return g, (Frame(g, 0, MethodState(), ()), Frame(g, 1, MethodState({1: IntVal(7)}), ()))


def test_frames_that_differ_only_in_their_callers_are_equal_and_print_alike():
    g, (below, elsewhere) = _two_callers()
    top = Frame(g, 1, MethodState({0: IntVal(3)}), (IntVal(1),), below, 2)
    other = Frame(g, 1, MethodState({0: IntVal(3)}), (IntVal(1),), elsewhere, 2)
    assert top == other and not top != other
    for name, value in (("graph", Graph({})), ("nid", 0), ("state", MethodState()),
                        ("params", ()), ("depth", 3)):
        assert top != top._replace(**{name: value}), name
    assert repr(top) == repr(other)
    assert "caller" not in repr(top) and "IntVal 7" not in repr(other)
    with pytest.raises(TypeError):
        hash(top)


def test_a_frame_is_read_only_and_not_equal_to_the_tuple_of_its_fields():
    g, (frame, _) = _two_callers()
    with pytest.raises(AttributeError):
        frame.nid = 1
    fields = tuple(frame)
    assert fields == (g, 0, MethodState(), (), None, 1)
    assert frame != fields and fields != frame and not frame == fields


def test_configurations_compare_every_frame_of_the_stack():
    g, (below, elsewhere) = _two_callers()
    heap = DynamicHeap()

    def config(caller):
        return GlobalConfig(Frame(g, 1, MethodState(), (), caller, 2), heap)

    assert config(below) == config(Frame(*below))
    assert config(below) != config(elsewhere)  # their tops are equal frames


def _damaged_outcome(g) -> str:
    """run's result on g, then each pass's log lines or its cap message."""
    result = run(Program({CHAIN_SIG: g}), CHAIN_SIG, [IntVal(3)], 500)
    assert isinstance(result, ExecResult)
    lines = [str(result)]
    for which in PASS_NAMES:
        try:
            lines += [which, *apply_pass(g, which)[1].log_lines()]
        except IterationCapExceeded as cap:
            lines += [which, str(cap)]
    return "\n".join(lines)


# The sha256 of the 1,500 outcomes below, joined by blank lines.
DAMAGED_SHA256 = "9b5ac6ca7a39d0470ff6172315b76c7e5c413654f46548909584af7639752eb4"


def test_damaged_graphs_get_classified_results_from_run_and_apply_pass():
    # Among them are wrong-shape edges (None or a tuple where an edge is one
    # id): an operand, a condition, a root, a successor or a forwarded input
    # to no node. The digest pins each result and each pass's rewrites, not
    # only their types.
    bases = damage_bases()
    texts = [_damaged_outcome(damaged_graph(bases[seed % len(bases)], random.Random(seed)))
             for seed in range(1500)]
    assert hashlib.sha256("\n\n".join(texts).encode()).hexdigest() == DAMAGED_SHA256


# A value input that is no node id is stuck at its node, and a conditional's
# chosen arm that is no node id at the conditional.
NO_INPUT = "value input edge to no node"


def test_damaged_seed_1480_is_stuck_at_its_conditional():
    # Conditional 3 has a None true arm, chosen on a nonzero argument; 2
    # reads 3 in its own true arm.
    g = damaged_graph(damage_bases()[1480 % 9], random.Random(1480))
    assert g.kind(3) == ConditionalNode(condition=5, trueValue=None, falseValue=7)
    assert str(run(Program({CHAIN_SIG: g}), CHAIN_SIG, [IntVal(3)], 500)) == f"Stuck: @3: {NO_INPUT}"
    assert str(run(Program({CHAIN_SIG: g}), CHAIN_SIG, [IntVal(0)], 500)) == "Returned IntVal 0"
    assert [_outcome(g, MethodState(), (IntVal(p),), 2) for p in (0, 3)] == [
        IntVal(0), "stuck:EvalStuck"]
    assert data_equiv(g, g, 2).status is Equivalence.EQUIVALENT


@pytest.mark.parametrize("arm", [None, (9,)], ids=["none", "tuple"])
def test_a_chosen_arm_to_no_node_is_stuck_at_its_conditional(arm):
    def method(true_arm):
        return Graph({
            0: StartNode(next=1),
            1: ReturnNode(resultOpt=4),
            2: ParameterNode(0),
            3: ConstantNode(IntVal(7)),
            4: ConditionalNode(condition=2, trueValue=true_arm, falseValue=3),
        })
    g = method(arm)
    p = Program({CHAIN_SIG: g})
    assert str(run(p, CHAIN_SIG, [IntVal(1)])) == f"Stuck: @4: {NO_INPUT}"
    assert str(run(p, CHAIN_SIG, [IntVal(0)])) == "Returned IntVal 7"
    assert reference.evaluate(g, MethodState(), (IntVal(0),), (4,)) == [IntVal(7)]
    with pytest.raises(EvalStuck, match=f"^@4: {NO_INPUT}$"):
        reference.evaluate(g, MethodState(), (IntVal(1),), (4,))
    assert [_outcome(g, MethodState(), (IntVal(p),), 4) for p in (1, 0)] == [
        "stuck:EvalStuck", IntVal(7)]
    assert data_equiv(g, g, 4).status is Equivalence.EQUIVALENT
    verdict = data_equiv(g, method(3), 4)
    assert str(verdict) == ("NotEquivalent (1 assignments tried) "
                            "witness m={} p=[IntVal -2]: left=stuck:EvalStuck, right=IntVal 7")


@pytest.mark.parametrize("make", [
    lambda v: NegateNode(value=v),
    lambda v: AddNode(x=2, y=v),
    lambda v: ConditionalNode(condition=v, trueValue=2, falseValue=3),
    lambda v: ValueProxyNode(value=v, loopExit=1),
], ids=["unary", "binary-y", "condition", "proxy"])
@pytest.mark.parametrize("edge", [None, (2,)], ids=["none", "tuple"])
def test_a_value_input_to_no_node_is_stuck_at_its_node(make, edge):
    def method(value):
        return Graph({
            0: StartNode(next=1),
            1: ReturnNode(resultOpt=4),
            2: ParameterNode(0),
            3: ConstantNode(IntVal(7)),
            4: make(value),
        })
    g = method(edge)
    assert str(run(Program({CHAIN_SIG: g}), CHAIN_SIG, [IntVal(1)])) == f"Stuck: @4: {NO_INPUT}"
    with pytest.raises(EvalStuck, match=f"^@4: {NO_INPUT}$"):
        reference.evaluate(g, MethodState(), (IntVal(1),), (4,))
    assert data_equiv(g, g, 4).status is Equivalence.EQUIVALENT
    verdict = data_equiv(g, method(2), 4)
    assert verdict.status is Equivalence.NOT_EQUIVALENT
    assert "left=stuck:EvalStuck" in str(verdict)
