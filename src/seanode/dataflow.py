"""Big-step evaluation of side-effect-free expression subgraphs.

Expressions form a DAG whose leaves are constants, parameters, and
control-flow nodes whose last value is latched in the method state.
Evaluation is pure and deterministic; integer arithmetic wraps at 32 bits.
"""

from . import ir, runtime
from .ir import Graph
from .runtime import IntVal, MethodState, TypeMismatch, Value


class EvalStuck(Exception):
    """No rule applies: the one failure of evaluation, of the local step
    (controlflow.StepStuck) and of the global step (interproc.GlobalStuck).
    nid is the node the configuration is stuck at, or None when the reason
    concerns the frame stack rather than one node."""

    def __init__(self, nid: int | None, reason: str):
        super().__init__(reason if nid is None else f"@{nid}: {reason}")
        self.nid = nid
        self.reason = reason


class ParamOutOfRange(EvalStuck):
    def __init__(self, nid: int, index: int, count: int):
        super().__init__(nid, f"parameter index {index} with {count} parameters")
        self.index = index


class EvalContext:
    """One graph, one method state and one parameter tuple: all an
    expression's value depends on. memo holds the values of the nodes with
    value edges evaluated so far under this context."""

    __slots__ = ("graph", "state", "params", "memo")

    def __init__(self, graph: Graph, state: MethodState, params: tuple[Value, ...]):
        self.graph = graph
        self.state = state
        self.params = params
        self.memo: dict[int, Value] = {}


def _as_int(ctx: EvalContext, nid: int) -> IntVal:
    v = evaluate(ctx, nid)
    if not isinstance(v, IntVal):
        raise EvalStuck(nid, f"expected an integer, got {v}")
    return v


def evaluate(ctx: EvalContext, nid: int) -> Value:
    """Evaluate the expression rooted at nid to a run-time value.

    A node with value edges is evaluated once per context and its value
    memoized, so a step costs the distinct nodes of its expressions; leaves
    are cheaper to evaluate again than to store. A stuck evaluation raises
    before anything is stored."""
    v = ctx.memo.get(nid)
    if v is not None:
        return v
    node = ctx.graph.kind(nid)
    rule = _RULES.get(type(node))
    if rule is None:
        raise EvalStuck(nid, f"no evaluation rule for {node.kind_name()}")
    v = rule(ctx, nid, node)
    if node.VALUE_EDGES:
        ctx.memo[nid] = v
    return v


def _parameter(ctx: EvalContext, nid: int, node: ir.ParameterNode) -> Value:
    if node.index >= len(ctx.params):
        raise ParamOutOfRange(nid, node.index, len(ctx.params))
    return ctx.params[node.index]


def condition_holds(ctx: EvalContext, cond: int) -> bool:
    """Whether the branch condition at cond holds: an integer holds when it
    is nonzero, and any other value is stuck at cond."""
    v = evaluate(ctx, cond)
    try:
        return runtime.val_to_bool(v)
    except TypeMismatch as e:
        raise EvalStuck(cond, str(e)) from e


def _conditional(ctx: EvalContext, nid: int, node: ir.ConditionalNode) -> Value:
    took_true = condition_holds(ctx, node.condition)
    return evaluate(ctx, node.trueValue if took_true else node.falseValue)


def _arithmetic(op, value_edges):
    names = [name for name, _ in value_edges]
    if len(names) == 1:
        return lambda ctx, nid, node: op(_as_int(ctx, getattr(node, names[0])))
    a, b = names
    return lambda ctx, nid, node: op(_as_int(ctx, getattr(node, a)),
                                     _as_int(ctx, getattr(node, b)))


# One rule per evaluable kind, called as rule(ctx, nid, node). Recursion goes
# through the module-level name evaluate, so wrapping it sees every visit.
_RULES = {
    ir.ConstantNode: lambda ctx, nid, node: node.const,
    ir.ParameterNode: _parameter,
    ir.ConditionalNode: _conditional,
    ir.ValueProxyNode: lambda ctx, nid, node: evaluate(ctx, node.value),
}
_RULES.update({k: lambda ctx, nid, node: ctx.state[nid]
               for k in ir.NODE_KINDS.values() if ir.is_state_leaf(k)})
_RULES.update({k: _arithmetic(k.OP, k.VALUE_EDGES) for k in ir.NODE_KINDS.values() if k.OP})


def evaluate_all(ctx: EvalContext, nids) -> list[Value]:
    """Pointwise evaluation of a list of expressions under one state."""
    return [evaluate(ctx, nid) for nid in nids]
