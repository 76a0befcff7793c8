"""Interprocedural small-step semantics over a frame stack, plus the
whole-program driver with a fuel bound and step tracing.

step_top applies one global rule to a GlobalConfig: a local step of the top
frame, or the invoke, return and unwind rules of _frame_step, which take
and give the top frame's fields. run applies the same rules, picked by the
same step entry code, but reads each step entry with one dict lookup,
planning only the first time, and holds the top frame's fields in locals:
a local step goes straight to local_step, a Frame is built only for the
caller an invoke pushes, and a GlobalConfig only for on_step. The return
and unwind rules read the caller's invoke entry the same way."""

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .controlflow import INVOKE, RETURN, UNWIND, local_step, plan
from .controlflow import step  # noqa: F401  kept for bench/tests/test_bench.py
from .dataflow import EvalStuck, evaluate_roots
from .ir import Graph, MethodCallTargetNode, Program, Signature
from .runtime import UNDEF, DynamicHeap, MethodState, ObjRef, Value


class GlobalStuck(EvalStuck):
    """No global rule applies to the configuration."""

    def __init__(self, reason: str):
        super().__init__(None, reason)


class UnknownMethod(GlobalStuck):
    def __init__(self, sig: Signature):
        super().__init__(f"no graph for method {sig}")


class MalformedCall(GlobalStuck):
    pass


class UnwindWithoutHandler(GlobalStuck):
    pass


class UncaughtTopLevel(GlobalStuck):
    pass


class Frame(NamedTuple):
    """One activation, a tuple of its fields. The frame stack is linked
    through `caller` (None at the bottom); `depth` counts the frames from
    the bottom up to this one. Frames compare and print without their
    callers, and a Frame is never equal to a plain tuple."""

    graph: Graph
    nid: int
    state: MethodState
    params: tuple[Value, ...]
    caller: "Frame | None" = None
    depth: int = 1

    def __eq__(self, other):
        return (type(other) is Frame and self[:4] == other[:4]
                and self.depth == other.depth)

    def __ne__(self, other):
        return not self == other

    __hash__ = None  # a tuple hash would count the caller, which __eq__ leaves out

    def __repr__(self):
        return (f"Frame(graph={self.graph!r}, nid={self.nid!r}, state={self.state!r}, "
                f"params={self.params!r}, depth={self.depth!r})")


@dataclass(frozen=True, eq=False)
class GlobalConfig:
    """The top frame, which links to the frames below it, and the shared
    heap. Configurations compare by every frame of the stack and the heap."""

    top: Frame
    heap: DynamicHeap

    @property
    def stack(self) -> tuple[Frame, ...]:
        """The frames from the top down (index 0 is the top), built per
        call: O(depth)."""
        frames, frame = [], self.top
        while frame is not None:
            frames.append(frame)
            frame = frame.caller
        return tuple(frames)

    def __eq__(self, other):
        return (isinstance(other, GlobalConfig) and self.heap == other.heap
                and self.stack == other.stack)


class ExecOutcome(enum.Enum):
    RETURNED = "Returned"
    UNCAUGHT_EXCEPTION = "UncaughtException"
    OUT_OF_FUEL = "OutOfFuel"
    STUCK = "Stuck"


# Process exit-status mapping used by the CLI run/trace subcommands.
EXIT_CODES = {
    ExecOutcome.RETURNED: 0,
    ExecOutcome.UNCAUGHT_EXCEPTION: 3,
    ExecOutcome.OUT_OF_FUEL: 4,
    ExecOutcome.STUCK: 5,
}


@dataclass(frozen=True)
class ExecResult:
    outcome: ExecOutcome
    value: Value | None
    steps: int
    heap: DynamicHeap
    reason: str | None = None

    def __str__(self):
        if self.outcome is ExecOutcome.OUT_OF_FUEL:
            return f"OutOfFuel after {self.steps} steps"
        if self.outcome is ExecOutcome.STUCK:
            return f"Stuck: {self.reason}"
        return f"{self.outcome.value} {self.value}"  # Returned or UncaughtException


@dataclass(frozen=True)
class TraceStep:
    index: int
    nid: int
    kind_name: str
    nid_after: int
    depth: int
    m_delta: tuple = ()
    h_delta: tuple = ()

    def line(self) -> str:
        parts = [f"step {self.index}: {self.nid} {self.kind_name} -> {self.nid_after}"]
        parts += [f"[m: {nid}<-{v}]" for nid, v in self.m_delta]
        parts += [f"[h: ({'static' if a < 0 else a},{f})<-{v}]"
                  for a, f, v in self.h_delta]
        return " ".join(parts)


def step_top(program: Program, c: GlobalConfig, on_store=None) -> GlobalConfig:
    """Apply the one matching global rule: lift a local step, invoke,
    return, or unwind, as the top node's step entry says."""
    g, nid, state, params, caller, depth = c.top
    e = plan(g, nid)
    if INVOKE <= e[0] <= UNWIND:
        return GlobalConfig(Frame(*_frame_step(program, e, *c.top)), c.heap)
    # Everything else is a local transition promoted to the top frame.
    nid, state, heap = local_step(g, params, nid, e, state, c.heap, on_store)
    return GlobalConfig(Frame(g, nid, state, params, caller, depth), heap)


def _frame_step(program: Program, e: tuple, g: Graph, nid: int, state: MethodState,
                params: tuple, caller: Frame | None, depth: int) -> tuple:
    """The top frame's fields (graph, nid, state, params, caller, depth)
    after the INVOKE, RETURN or UNWIND step entry e, given the top frame's
    fields before it: a callee pushed on a Frame of the top, or the caller
    resumed."""
    code = e[0]
    if code == INVOKE:
        target = e[3]
        if not isinstance(target, MethodCallTargetNode):
            raise MalformedCall(f"callTarget of invoke {nid} is {target.kind_name()}")
        args = tuple(evaluate_roots(g, state, params, e[2]))
        callee = program.graph(target.targetMethod)
        if callee is None:
            raise UnknownMethod(target.targetMethod)
        return (callee, 0, MethodState(), args, Frame(g, nid, state, params, caller, depth),
                depth + 1)

    exit_kind = "unwind" if code == UNWIND else "return"
    if caller is None:
        raise UncaughtTopLevel(f"{exit_kind} with no calling frame")
    v = _exit_value(g, state, params, e)
    g, nid, state, params, caller, depth = caller
    e = g.steps.get(nid)  # the invoke's entry, kept when it was stepped
    if e is None:
        e = plan(g, nid)
    if e[0] != INVOKE:
        raise GlobalStuck(f"{exit_kind} into non-invoke caller node {nid}")
    succ = e[1]
    if code == UNWIND and len(succ) == 1:
        raise UnwindWithoutHandler(f"invoke {nid} has no exception edge")
    return g, succ[1] if code == UNWIND else succ[0], state.set(nid, v), params, caller, depth


def _exit_value(g: Graph, state: MethodState, params: tuple, e: tuple) -> Value:
    """The value a RETURN or UNWIND step entry hands to its caller."""
    code, _, roots = e
    if not roots:
        return UNDEF
    v, = evaluate_roots(g, state, params, roots)
    if code == UNWIND and not isinstance(v, ObjRef):
        raise GlobalStuck(f"unwound value is not an object reference: {v}")
    return v


def initial_config(program: Program, main: Signature, args) -> GlobalConfig:
    g = program.graph(main)
    if g is None:
        raise UnknownMethod(main)
    return GlobalConfig(Frame(g, 0, MethodState(), tuple(args)), DynamicHeap())


def run(program: Program, main: Signature, args, fuel: int = 1_000_000,
        on_step=None, on_store=None) -> ExecResult:
    """Drive the global semantics from main's start node to quiescence.

    All failure modes are classified in the result; nothing escapes as an
    exception except a missing main method. A stuck configuration at any
    layer raises EvalStuck, and the one handler below classifies it.
    """
    if fuel <= 0:
        raise ValueError("fuel must be positive")
    c = initial_config(program, main, args)
    (g, nid, state, params, caller, depth), heap = c.top, c.heap
    steps = 0
    stores = []  # the current step's heap writes, for its trace record
    store_hook = on_store
    if on_step is not None:
        def store_hook(addr, fname, v):
            stores.append((addr, fname, v))
            if on_store is not None:
                on_store(addr, fname, v)
    kept = g.steps  # the step entries of the top frame's graph
    while True:
        e = kept.get(nid)
        if e is None:
            e = plan(g, nid)
        code = e[0]
        try:
            if caller is None and (code == RETURN or code == UNWIND):
                outcome = (ExecOutcome.RETURNED if code == RETURN
                           else ExecOutcome.UNCAUGHT_EXCEPTION)
                return ExecResult(outcome, _exit_value(g, state, params, e), steps, heap)
            if steps == fuel:
                return ExecResult(ExecOutcome.OUT_OF_FUEL, None, steps, heap)
            if on_step is not None:
                before = GlobalConfig(Frame(g, nid, state, params, caller, depth), heap)
            if INVOKE <= code <= UNWIND:
                g, nid, state, params, caller, depth = _frame_step(
                    program, e, g, nid, state, params, caller, depth)
                kept = g.steps
            else:
                nid, state, heap = local_step(g, params, nid, e, state, heap, store_hook)
        except EvalStuck as err:
            return ExecResult(ExecOutcome.STUCK, None, steps, heap, str(err))
        steps += 1
        if on_step is not None:
            after = GlobalConfig(Frame(g, nid, state, params, caller, depth), heap)
            on_step(_trace_step(steps, before, after, stores))
            stores.clear()


def _trace_step(index: int, before: GlobalConfig, after: GlobalConfig,
                stores) -> TraceStep:
    top_b, top_a = before.top, after.top
    # A return diffs against its caller's state; a callee starts empty.
    prior = top_b.caller.state if top_a.depth < top_b.depth else top_b.state
    # The cells the step's stores changed, by address and field name.
    written = {(addr, fname): v for addr, fname, v in stores}
    cells = before.heap.fields
    return TraceStep(
        index=index,
        nid=top_b.nid,
        kind_name=top_b.graph.kind(top_b.nid).kind_name(),
        nid_after=top_a.nid,
        depth=top_a.depth,
        m_delta=tuple((nid, v) for nid, v in sorted(top_a.state.items()) if prior[nid] != v),
        h_delta=tuple((addr, fname, v) for (addr, fname), v in sorted(written.items())
                      if cells.get((addr, fname)) != v),
    )
