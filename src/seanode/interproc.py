"""Interprocedural small-step semantics over a frame stack, plus the
whole-program driver with a fuel bound and step tracing."""

import enum
import itertools
from dataclasses import dataclass, field

from .controlflow import INVOKE, RETURN, UNWIND, LocalConfig, plan, step
from .dataflow import EvalContext, EvalStuck, evaluate
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


@dataclass(frozen=True)
class Frame:
    """One activation. The frame stack is linked through `caller` (None at
    the bottom); `depth` counts the frames from the bottom up to this one.
    Frames compare and print without their callers."""

    graph: Graph
    nid: int
    state: MethodState
    params: tuple[Value, ...]
    caller: "Frame | None" = field(default=None, repr=False, compare=False)
    depth: int = 1


class FrameStack:
    """The frames from a top frame down (index 0 is the top), read-only:
    len and [0] cost O(1), [i] walks i callers."""

    __slots__ = ("_top",)

    def __init__(self, top: Frame):
        self._top = top

    def __len__(self):
        return self._top.depth

    def __getitem__(self, i: int) -> Frame:
        if not 0 <= i < self._top.depth:
            raise IndexError(i)
        return next(itertools.islice(self, i, None))

    def __iter__(self):
        frame = self._top
        while frame is not None:
            yield frame
            frame = frame.caller


@dataclass(frozen=True, eq=False)
class GlobalConfig:
    """The top frame, which links to the frames below it, and the shared
    heap. Configurations compare by every frame of the stack and the heap."""

    top: Frame
    heap: DynamicHeap

    @property
    def stack(self) -> FrameStack:
        return FrameStack(self.top)

    def __eq__(self, other):
        return (isinstance(other, GlobalConfig) and self.heap == other.heap
                and list(self.stack) == list(other.stack))


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
    top = c.top
    e = plan(top.graph, top.nid)
    code = e[0]

    if code == INVOKE:
        target = e[1]
        if not isinstance(target, MethodCallTargetNode):
            raise MalformedCall(f"callTarget of invoke {top.nid} is {target.kind_name()}")
        ctx = EvalContext(top.graph, top.state, top.params)
        args = tuple([evaluate(ctx, root) for root in target.arguments])
        callee_graph = program.graph(target.targetMethod)
        if callee_graph is None:
            raise UnknownMethod(target.targetMethod)
        callee = Frame(callee_graph, 0, MethodState(), args, top, top.depth + 1)
        return GlobalConfig(callee, c.heap)

    if code == RETURN or code == UNWIND:
        raised = code == UNWIND
        if top.caller is None:
            raise UncaughtTopLevel(f"{'unwind' if raised else 'return'} with no calling frame")
        v = _exit_value(top, e)
        return GlobalConfig(_resume_caller(top.caller, v, after_exception=raised), c.heap)

    # Everything else is a local transition promoted to the top frame.
    local = step(top.graph, top.params, LocalConfig(top.nid, top.state, c.heap),
                 on_store=on_store)
    new_top = Frame(top.graph, local.nid, local.state, top.params, top.caller, top.depth)
    return GlobalConfig(new_top, local.heap)


def _exit_value(top: Frame, e: tuple) -> Value:
    """The value a RETURN or UNWIND step entry hands to its caller."""
    code, root = e
    if root is None:
        return UNDEF
    v = evaluate(EvalContext(top.graph, top.state, top.params), root)
    if code == UNWIND and not isinstance(v, ObjRef):
        raise GlobalStuck(f"unwound value is not an object reference: {v}")
    return v


def _resume_caller(caller: Frame, v: Value, after_exception: bool) -> Frame:
    e = plan(caller.graph, caller.nid)
    if e[0] != INVOKE:
        exit_kind = "unwind" if after_exception else "return"
        raise GlobalStuck(f"{exit_kind} into non-invoke caller node {caller.nid}")
    resume = e[3] if after_exception else e[2]
    if resume is None:
        raise UnwindWithoutHandler(f"invoke {caller.nid} has no exception edge")
    return Frame(caller.graph, resume, caller.state.set(caller.nid, v), caller.params,
                 caller.caller, caller.depth)


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
    steps = 0
    stores = []  # the current step's heap writes, for its trace record
    store_hook = on_store
    if on_step is not None:
        def store_hook(addr, fname, v):
            stores.append((addr, fname, v))
            if on_store is not None:
                on_store(addr, fname, v)
    while True:
        top = c.top
        e = plan(top.graph, top.nid)
        try:
            if top.caller is None and (e[0] == RETURN or e[0] == UNWIND):
                outcome = (ExecOutcome.RETURNED if e[0] == RETURN
                           else ExecOutcome.UNCAUGHT_EXCEPTION)
                return ExecResult(outcome, _exit_value(top, e), steps, c.heap)
            if steps == fuel:
                return ExecResult(ExecOutcome.OUT_OF_FUEL, None, steps, c.heap)
            c2 = step_top(program, c, on_store=store_hook)
        except EvalStuck as e:
            return ExecResult(ExecOutcome.STUCK, None, steps, c.heap, str(e))
        steps += 1
        if on_step is not None:
            on_step(_trace_step(steps, c, c2, stores))
            stores.clear()
        c = c2


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
