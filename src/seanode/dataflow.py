"""Big-step evaluation of side-effect-free expression subgraphs.

Expressions form a DAG whose leaves are constants, parameters, and
control-flow nodes whose last value is latched in the method state.
Evaluation is pure and deterministic; integer arithmetic wraps at 32 bits.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True)
class EvalContext:
    graph: Graph
    state: MethodState
    params: tuple[Value, ...]


def _as_int(ctx: EvalContext, nid: int) -> IntVal:
    v = evaluate(ctx, nid)
    if not isinstance(v, IntVal):
        raise EvalStuck(nid, f"expected an integer, got {v}")
    return v


def evaluate(ctx: EvalContext, nid: int) -> Value:
    """Evaluate the expression rooted at nid to a run-time value."""
    node = ctx.graph.kind(nid)
    rule = _RULES.get(type(node))
    if rule is None:
        raise EvalStuck(nid, f"no evaluation rule for {node.kind_name()}")
    return rule(ctx, nid, node)


def _parameter(ctx: EvalContext, nid: int, node: ir.ParameterNode) -> Value:
    if node.index >= len(ctx.params):
        raise ParamOutOfRange(nid, node.index, len(ctx.params))
    return ctx.params[node.index]


def _conditional(ctx: EvalContext, nid: int, node: ir.ConditionalNode) -> Value:
    try:
        took_true = runtime.val_to_bool(evaluate(ctx, node.condition))
    except TypeMismatch as e:
        raise EvalStuck(node.condition, str(e)) from e
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
