"""Small-step control flow within one method: (nid, m, h) -> (nid', m', h').

Each control kind has one step rule in _STEPS. plan(g, nid) decodes a node
by its kind's rule, the first time it is stepped, into a step entry kept on
the graph; step and interproc.step_top read the entry, not the node.

The step function owns the phi-update protocol: when an end node is
reached, the value inputs selected by that end's position are all
evaluated under the state *before* the step, then written simultaneously.
"""

from dataclasses import dataclass

from . import ir, runtime
from .dataflow import EvalContext, EvalStuck, condition_holds, evaluate
from .ir import Graph
from .runtime import DynamicHeap, MethodState, ObjRef

# No local rule applies: the same exception as a stuck evaluation.
StepStuck = EvalStuck


@dataclass(frozen=True)
class LocalConfig:
    nid: int
    state: MethodState
    heap: DynamicHeap


def phis_of(g: Graph, merge: int) -> list[int]:
    """Phi nodes attached to a merge, in ascending id order."""
    node = g.kind(merge)
    if not isinstance(node, ir.AbstractMergeNode):
        raise StepStuck(merge, f"{node.kind_name()} is not a merge")
    return _phis(g, merge)


def merge_of_end(g: Graph, end: int) -> tuple[int, int]:
    """Resolve an EndNode or LoopEndNode to (merge id, its position in merge.ends)."""
    e = plan(g, end)
    if e[0] != END:
        raise StepStuck(end, e[2] if e[0] == STUCK else "not an end node")
    return e[1], e[2]


# The end rules read the def-use index through Graph.users and call neither
# usages nor the two functions above: what a run calls stays the same whether
# or not its graph has been decoded before.
def _phis(g: Graph, merge: int) -> list[int]:
    return sorted({u for u in g.users(merge)
                   if isinstance(g.kind(u), ir.ValuePhiNode) and g.kind(u).merge == merge})


def _end(g: Graph, nid: int, node) -> tuple:
    merges = sorted({u for u in g.users(nid) if isinstance(g.kind(u), ir.AbstractMergeNode)})
    if not merges:
        raise StepStuck(nid, "end node has no merge usage")
    if len(merges) > 1:
        raise StepStuck(nid, f"end node has ambiguous merge usages {merges}")
    return _end_entry(g, nid, merges[0])


def _loop_end(g: Graph, nid: int, node) -> tuple:
    if not isinstance(g.kind(node.loopBegin), ir.LoopBeginNode):
        raise StepStuck(nid, f"loopBegin edge {node.loopBegin} is not a LoopBeginNode")
    return _end_entry(g, nid, node.loopBegin)


def _end_entry(g: Graph, end: int, merge: int) -> tuple:
    # A phi with no input for the end's position gets None: stuck when reached.
    ends = g.kind(merge).ends
    if end not in ends:
        raise StepStuck(end, f"end not listed in ends of merge {merge}")
    index = ends.index(end)
    phis = [(phi, g.kind(phi).values) for phi in _phis(g, merge)]
    return (END, merge, index,
            tuple((phi, vs[index] if index < len(vs) else None) for phi, vs in phis))


def _no_rule(g: Graph, nid: int, node):
    raise StepStuck(nid, f"no local rule for {node.kind_name()}")


# One rule per control kind: the step entry of a node of that kind, a rule
# code and the node's resolved operands. interproc.step_top applies INVOKE
# (whose entry holds the call target node), RETURN and UNWIND; a STUCK entry
# keeps a node id and a reason, raised afresh by every step that reaches it.
NEXT, IF, END, NEW, LOAD, STORE, INVOKE, RETURN, UNWIND, STUCK = range(10)
_STEPS = {
    ir.IfNode: lambda g, nid, node: (IF, node.condition, node.trueSuccessor, node.falseSuccessor),
    ir.EndNode: _end,
    ir.LoopEndNode: _loop_end,
    ir.NewInstanceNode: lambda g, nid, node: (NEW, node.next),
    ir.LoadFieldNode: lambda g, nid, node: (LOAD, node.field, node.objectOpt, node.next),
    ir.StoreFieldNode: lambda g, nid, node: (
        STORE, node.field, node.value, node.objectOpt, node.next),
    ir.InvokeNode: lambda g, nid, node: (INVOKE, g.kind(node.callTarget), node.next, None),
    ir.InvokeWithExceptionNode: lambda g, nid, node: (
        INVOKE, g.kind(node.callTarget), node.next, node.exceptionEdge),
    ir.ReturnNode: lambda g, nid, node: (RETURN, node.resultOpt),
    ir.UnwindNode: lambda g, nid, node: (UNWIND, node.exception),
}
_STEPS.update({k: lambda g, nid, node: (NEXT, ir.successors_of(node)[0])
               for k in ir.NODE_KINDS.values() if ir.is_sequential(k)})


def plan(g: Graph, nid: int) -> tuple:
    """The step entry of the node at nid; built on first use and kept in
    g.steps. A node no rule applies to gets a STUCK entry."""
    e = g.steps.get(nid)
    if e is None:
        node = g.kind(nid)
        try:
            e = _STEPS.get(type(node), _no_rule)(g, nid, node)
        except StepStuck as stuck:
            e = (STUCK, stuck.nid, stuck.reason)
        g.steps[nid] = e
    return e


def _resolve_object(ctx: EvalContext, root: int | None) -> ObjRef | None:
    # None addresses the static-field region.
    if root is None:
        return None
    v = evaluate(ctx, root)
    if not isinstance(v, ObjRef):
        raise StepStuck(root, f"expected an object reference, got {v}")
    return v


def step(g: Graph, params, c: LocalConfig, on_store=None) -> LocalConfig:
    """Apply the local rule of the current node's step entry.

    on_store, when given, is called with (address, field, value) for every
    heap write, in program order; used by the equivalence harness.
    """
    e = plan(g, c.nid)
    code = e[0]
    if code == NEXT:
        return LocalConfig(e[1], c.state, c.heap)

    if code == NEW:
        ref, heap = c.heap.new_instance()
        return LocalConfig(e[1], c.state.set(c.nid, ref), heap)

    ctx = EvalContext(g, c.state, tuple(params))
    if code == IF:
        target = e[2] if condition_holds(ctx, e[1]) else e[3]
        return LocalConfig(target, c.state, c.heap)

    if code == END:
        _, merge, index, phis = e
        updates = []
        for phi, root in phis:
            if root is None:
                raise StepStuck(phi, f"phi has no value input for end position {index}")
            updates.append((phi, evaluate(ctx, root)))
        return LocalConfig(merge, c.state.set_many(updates), c.heap)

    if code == LOAD:
        v = c.heap.load_field(e[1], _resolve_object(ctx, e[2]))
        return LocalConfig(e[3], c.state.set(c.nid, v), c.heap)

    if code == STORE:
        _, field, value, obj, succ = e
        val = evaluate(ctx, value)
        ref = _resolve_object(ctx, obj)
        heap = c.heap.store_field(field, ref, val)
        if on_store is not None:
            on_store(ref.ref if ref is not None else runtime.STATIC_REF, field, val)
        return LocalConfig(succ, c.state, heap)

    if code == STUCK:
        raise StepStuck(e[1], e[2])
    _no_rule(g, c.nid, g.kind(c.nid))
