"""Small-step control flow within one method: (nid, m, h) -> (nid', m', h').

Each control kind has one step rule in _STEPS. plan(g, nid) decodes a node
by its kind's rule, the first time it is stepped, into a step entry kept on
the graph; local_step and interproc read the entry, not the node.
local_step takes the entry and the configuration as plain values and gives
the configuration back as plain values, so interproc.run, which plans each
step once and holds the top frame in locals, builds no record for a local
step; step plans and applies local_step on a LocalConfig.

A step that reads data evaluates every root it reads in one run of
dataflow's evaluation core, in the order the rule reads them: an end's phi
inputs, a store's value then its object, a load's object (evaluate_roots),
an if's condition (condition_holds); interproc does the same for an
invoke's arguments and a return or unwind value. plan names the roots but
builds no schedule, since optimize.cfg_successors plans every control
node: a step's schedule is built when the step first evaluates.

The local step owns the phi-update protocol: when an end node is
reached, the value inputs selected by that end's position are all
evaluated under the state *before* the step, then written simultaneously.
"""

from dataclasses import dataclass
from functools import partial

from . import ir, runtime
from .dataflow import EvalStuck, condition_holds, evaluate_roots
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
    # The phis and their value inputs for the end's position. A phi with no
    # such input gets the stuck step in its place: raised when reached.
    ends = g.kind(merge).ends
    if end not in ends:
        raise StepStuck(end, f"end not listed in ends of merge {merge}")
    index = ends.index(end)
    phis = [(phi, g.kind(phi).values) for phi in _phis(g, merge)]
    missing = f"phi has no value input for end position {index}"
    return (END, merge, index, tuple(phi for phi, _ in phis),
            tuple(vs[index] if index < len(vs) else partial(StepStuck, phi, missing)
                  for phi, vs in phis))


def _no_rule(g: Graph, nid: int, node):
    raise StepStuck(nid, f"no local rule for {node.kind_name()}")


# One rule per control kind: the step entry of a node of that kind, a rule
# code and the node's resolved operands. interproc applies the codes from
# INVOKE (whose entry holds the call target node) to UNWIND; a STUCK entry
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
_STEPS.update({k: lambda g, nid, node: (NEXT, g.edges()[nid][1][0])
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


def _resolve_object(root: int | None, v) -> ObjRef | None:
    # The object root evaluated to v; root None addresses the static-field region.
    if root is None:
        return None
    if not isinstance(v, ObjRef):
        raise StepStuck(root, f"expected an object reference, got {v}")
    return v


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
        return e[1], state, heap

    if code == NEW:
        ref, heap = heap.new_instance()
        return e[1], state.set(nid, ref), heap

    if code == IF:
        return (e[2] if condition_holds(g, state, params, e[1]) else e[3]), state, heap

    if code == END:
        _, merge, _, phis, roots = e
        return merge, state.set_many(zip(phis, evaluate_roots(g, state, params, roots))), heap

    if code == LOAD:
        _, field, obj, succ = e
        ref = None if obj is None else _resolve_object(
            obj, evaluate_roots(g, state, params, (obj,))[0])
        return succ, state.set(nid, heap.load_field(field, ref)), heap

    if code == STORE:
        _, field, value, obj, succ = e
        vals = evaluate_roots(g, state, params, (value,) if obj is None else (value, obj))
        val, ref = vals[0], _resolve_object(obj, vals[-1])
        heap = heap.store_field(field, ref, val)
        if on_store is not None:
            on_store(ref.ref if ref is not None else runtime.STATIC_REF, field, val)
        return succ, state, heap

    if code == STUCK:
        raise StepStuck(e[1], e[2])
    _no_rule(g, nid, g.kind(nid))
