"""Small-step control flow within one method: (nid, m, h) -> (nid', m', h').

Each control kind has one step rule in _STEPS. plan(g, nid) decodes a node
by its kind's rule, from its row of the edge table, the first time it is
stepped, into a step entry kept on the graph; local_step, interproc,
optimize's control-flow graph and conditional elimination (an if's
condition and successors) read the entry, not the node.
local_step takes the entry and the configuration as plain values and gives
the configuration back as plain values, so interproc.run, which reads each
step entry with one lookup of g.steps and holds the top frame in locals,
builds no record for a local step; step plans and applies local_step on a
LocalConfig. A load or store tests its object for an ObjRef inline.

A step evaluates its entry's roots in one run of dataflow's evaluation
core (evaluate_roots, or condition_holds for an if), as interproc does for
an invoke, a return and an unwind. plan builds no schedule, since optimize
plans every control node: a step's schedule is built at its first run.

The local step owns the phi-update protocol: when an end node is
reached, the value inputs selected by that end's position are all
evaluated under the state *before* the step, then written simultaneously.
"""

from dataclasses import dataclass
from functools import partial

from . import ir, runtime
from .dataflow import NO_INPUT, EvalStuck, condition_holds, evaluate_roots
from .dataflow import evaluate  # noqa: F401  kept for bench/tests/test_bench.py
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
    """Resolve an EndNode or LoopEndNode to (merge id, its position in the merge's ends)."""
    e = plan(g, end)
    if e[0] != END:
        raise StepStuck(end, e[4] if e[0] == STUCK else "not an end node")
    return e[1][0], e[4]


# The end rules read the def-use index through Graph.users and call neither
# usages nor the two functions above: what a run calls stays the same whether
# or not its graph has been decoded before. They read the edge table: a
# phi's inputs are (merge, *values), and a merge's are its ends.
def _phis(g: Graph, merge: int) -> list[int]:
    table = g.edges()
    return sorted({u for u in g.users(merge)
                   if isinstance(g.kind(u), ir.ValuePhiNode) and table[u][0][0] == merge})


def _end(g: Graph, nid: int, *_) -> tuple:
    merges = sorted({u for u in g.users(nid) if isinstance(g.kind(u), ir.AbstractMergeNode)})
    if not merges:
        raise StepStuck(nid, "end node has no merge usage")
    if len(merges) > 1:
        raise StepStuck(nid, f"end node has ambiguous merge usages {merges}")
    return _end_entry(g, nid, merges[0])


def _loop_end(g: Graph, nid: int, node, ins: tuple, outs: tuple) -> tuple:
    if not isinstance(g.kind(ins[0]), ir.LoopBeginNode):
        raise StepStuck(nid, f"loopBegin edge {ins[0]} is not a LoopBeginNode")
    return _end_entry(g, nid, ins[0])


def _end_entry(g: Graph, end: int, merge: int) -> tuple:
    # The phis and their value inputs for the end's position. A phi with no
    # such input gets the stuck step in its place: raised when reached.
    table = g.edges()
    ends = table[merge][0]
    if end not in ends:
        raise StepStuck(end, f"end not listed in ends of merge {merge}")
    index = ends.index(end)
    phis = [(phi, table[phi][0][1:]) for phi in _phis(g, merge)]
    missing = f"phi has no value input for end position {index}"
    return (END, (merge,),
            tuple(vs[index] if index < len(vs) else partial(StepStuck, phi, missing)
                  for phi, vs in phis),
            tuple(phi for phi, _ in phis), index)


def _invoke(g: Graph, nid: int, node, ins: tuple, outs: tuple) -> tuple:
    target = g.kind(ins[0])
    args = g.edges()[ins[0]][0] if isinstance(target, ir.MethodCallTargetNode) else ()
    return (INVOKE, outs, args, target)


def _no_rule(g: Graph, nid: int, node, *_):
    raise StepStuck(nid, f"no local rule for {node.kind_name()}")


# A step entry is (code, successors, roots, *operands): the successors the
# step goes to one of (an end's merge), the roots it evaluates, in order,
# and what else its rule needs. A kind given only its code goes to its
# successor edges and evaluates its input edges. interproc applies the codes
# from INVOKE to UNWIND; a STUCK entry's operands, a node id and a reason,
# are raised afresh by every step that reaches it.
NEXT, IF, END, NEW, LOAD, STORE, INVOKE, RETURN, UNWIND, STUCK = range(10)
_STEPS = {
    ir.IfNode: IF,
    ir.EndNode: _end,
    ir.LoopEndNode: _loop_end,
    ir.NewInstanceNode: NEW,
    ir.LoadFieldNode: lambda g, nid, node, ins, outs: (LOAD, outs, ins, node.field),
    ir.StoreFieldNode: lambda g, nid, node, ins, outs: (STORE, outs, ins, node.field),
    ir.InvokeNode: _invoke,
    ir.InvokeWithExceptionNode: _invoke,
    ir.ReturnNode: RETURN,
    ir.UnwindNode: UNWIND,
}
# A sequential node evaluates nothing: a merge's inputs are its ends.
_STEPS.update({k: lambda g, nid, node, ins, outs: (NEXT, outs, ())
               for k in ir.NODE_KINDS.values() if ir.is_sequential(k)})


def plan(g: Graph, nid: int) -> tuple:
    """The step entry of the node at nid, built from its row of the edge
    table on first use and kept in g.steps. A node no rule applies to, or
    with a successor edge or root that is no node id (None or a tuple; a
    callable root is a placeholder), gets a STUCK entry, with its successors."""
    e = g.steps.get(nid)
    if e is None:
        node = g.kind(nid)
        ins, outs, _ = g.edges().get(nid, ir.NO_EDGES)
        rule = _STEPS.get(type(node), _no_rule)
        try:
            if not all(type(s) is int for s in outs):
                raise StepStuck(nid, "successor edge to no node")
            e = (rule, outs, ins) if type(rule) is int else rule(g, nid, node, ins, outs)
            if not all(type(r) is int or callable(r) for r in e[2]):
                raise StepStuck(nid, NO_INPUT)
        except StepStuck as stuck:
            e = (STUCK, outs, (), stuck.nid, stuck.reason)
        g.steps[nid] = e
    return e


def _resolve_object(roots: tuple, vals: list) -> ObjRef:
    # The object is the last of roots, evaluated to vals; a load or store
    # without an object root addresses the static-field region. The steps
    # test an ObjRef inline and call this only for any other value.
    if not isinstance(vals[-1], ObjRef):
        raise StepStuck(roots[-1], f"expected an object reference, got {vals[-1]}")
    return vals[-1]


def step(g: Graph, params, c: LocalConfig, on_store=None) -> LocalConfig:
    """local_step on a LocalConfig, with the step entry at its node."""
    return LocalConfig(*local_step(g, params, c.nid, plan(g, c.nid), c.state, c.heap, on_store))


def local_step(g: Graph, params, nid: int, e: tuple, state: MethodState, heap: DynamicHeap,
               on_store=None) -> tuple[int, MethodState, DynamicHeap]:
    """Apply the local rule of e, the step entry at nid: (nid', m', h').

    on_store, when given, is called with (address, field, value) for every
    heap write, in program order; used by the equivalence harness.
    """
    code = e[0]
    if code == NEXT:
        return e[1][0], state, heap

    if code == STORE:
        _, succ, roots, field = e
        vals = evaluate_roots(g, state, params, roots)
        val, ref = vals[0], None
        if len(roots) > 1:
            ref = vals[-1]
            if type(ref) is not ObjRef:
                ref = _resolve_object(roots, vals)
        heap = heap.store_field(field, ref, val)
        if on_store is not None:
            on_store(ref.ref if ref is not None else runtime.STATIC_REF, field, val)
        return succ[0], state, heap

    if code == NEW:
        ref, heap = heap.new_instance()
        return e[1][0], state.set(nid, ref), heap

    if code == IF:
        return e[1][0 if condition_holds(g, state, params, e[2][0]) else 1], state, heap

    if code == END:
        return e[1][0], state.set_many(zip(e[3], evaluate_roots(g, state, params, e[2]))), heap

    if code == LOAD:
        _, succ, roots, field = e
        ref = None
        if roots:
            vals = evaluate_roots(g, state, params, roots)
            ref = vals[-1]
            if type(ref) is not ObjRef:
                ref = _resolve_object(roots, vals)
        return succ[0], state.set(nid, heap.load_field(field, ref)), heap

    if code == STUCK:
        raise StepStuck(e[3], e[4])
    _no_rule(g, nid, g.kind(nid))
