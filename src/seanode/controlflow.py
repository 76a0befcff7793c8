"""Small-step control flow within one method: (nid, m, h) -> (nid', m', h').

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
    return sorted(
        nid for nid in g.usages(merge)
        if isinstance(g.kind(nid), ir.ValuePhiNode) and g.kind(nid).merge == merge
    )


def merge_of_end(g: Graph, end: int) -> tuple[int, int]:
    """Resolve an end node to (merge id, position of this end in merge.ends)."""
    node = g.kind(end)
    if isinstance(node, ir.LoopEndNode):
        merge = node.loopBegin
        if not isinstance(g.kind(merge), ir.LoopBeginNode):
            raise StepStuck(end, f"loopBegin edge {merge} is not a LoopBeginNode")
    elif isinstance(node, ir.EndNode):
        merges = [
            u for u in g.usages(end)
            if isinstance(g.kind(u), ir.AbstractMergeNode)
        ]
        if not merges:
            raise StepStuck(end, "end node has no merge usage")
        if len(merges) > 1:
            raise StepStuck(end, f"end node has ambiguous merge usages {sorted(merges)}")
        merge = merges[0]
    else:
        raise StepStuck(end, f"{node.kind_name()} is not an end node")
    ends = g.kind(merge).ends
    if end not in ends:
        raise StepStuck(end, f"end not listed in ends of merge {merge}")
    return merge, ends.index(end)


def phi_updates(ctx: EvalContext, merge: int, index: int):
    """Evaluate the index-th value input of every phi of the merge, all under
    the context's (pre-step) state."""
    updates = []
    for phi_nid in phis_of(ctx.graph, merge):
        phi = ctx.graph.kind(phi_nid)
        if index >= len(phi.values):
            raise StepStuck(phi_nid, f"phi has no value input for end position {index}")
        updates.append((phi_nid, evaluate(ctx, phi.values[index])))
    return updates


def _resolve_object(ctx: EvalContext, node) -> ObjRef | None:
    # None addresses the static-field region.
    if node.objectOpt is None:
        return None
    v = evaluate(ctx, node.objectOpt)
    if not isinstance(v, ObjRef):
        raise StepStuck(node.objectOpt, f"expected an object reference, got {v}")
    return v


def step(g: Graph, params, c: LocalConfig, on_store=None) -> LocalConfig:
    """Apply the one local rule that matches the current node.

    on_store, when given, is called with (address, field, value) for every
    heap write, in program order; used by the equivalence harness.
    """
    node = g.kind(c.nid)

    if ir.is_sequential(node):
        return LocalConfig(ir.successors_of(node)[0], c.state, c.heap)

    ctx = EvalContext(g, c.state, tuple(params))
    if isinstance(node, ir.IfNode):
        took_true = condition_holds(ctx, node.condition)
        target = node.trueSuccessor if took_true else node.falseSuccessor
        return LocalConfig(target, c.state, c.heap)

    if isinstance(node, ir.AbstractEndNode):
        merge, index = merge_of_end(g, c.nid)
        updates = phi_updates(ctx, merge, index)
        return LocalConfig(merge, c.state.set_many(updates), c.heap)

    if isinstance(node, ir.NewInstanceNode):
        ref, heap = c.heap.new_instance()
        return LocalConfig(node.next, c.state.set(c.nid, ref), heap)

    if isinstance(node, ir.LoadFieldNode):
        obj = _resolve_object(ctx, node)
        v = c.heap.load_field(node.field, obj)
        return LocalConfig(node.next, c.state.set(c.nid, v), c.heap)

    if isinstance(node, ir.StoreFieldNode):
        val = evaluate(ctx, node.value)
        obj = _resolve_object(ctx, node)
        heap = c.heap.store_field(node.field, obj, val)
        if on_store is not None:
            addr = obj.ref if obj is not None else runtime.STATIC_REF
            on_store(addr, node.field, val)
        return LocalConfig(node.next, c.state, heap)

    raise StepStuck(c.nid, f"no local rule for {node.kind_name()}")
