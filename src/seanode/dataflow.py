"""Big-step evaluation of side-effect-free expression subgraphs.

Expressions form a DAG whose leaves are constants, parameters, and
control-flow nodes whose last value is latched in the method state.
Evaluation is pure and deterministic; integer arithmetic wraps at 32 bits.

The big-step relation fixes values, not an order; a schedule fixes the
order. schedule(g, root) is the post-order of the value edges below root:
the order in which evaluating inputs left to right first meets each node.
It is computed once per graph and root and kept on the graph. A
ConditionalNode's arms are not part of its schedule: each arm is a schedule
of its own, run only for the arm the condition chooses, so evaluation stays
lazy. evaluate runs schedules from an explicit work stack, so neither the
depth of an expression nor the nesting of conditionals is bounded by the
recursion limit. equivalence.data_equiv runs the same schedules over many
assignments at once.
"""

from . import ir
from .ir import Graph
from .runtime import IntVal, MethodState, Value


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


# A schedule is a tuple of entries (code, nid, arg, x, y): x and y are the
# inputs evaluated before nid (None where there are fewer), arg is below.
CONST = 0  # arg: the constant
PARAM = 1  # arg: the parameter index
STATE = 2  # a state leaf: reads the method state at nid
UNARY = 3  # arg: the operation on ints (runtime.int_*)
BINARY = 4  # arg: the operation on ints
PROXY = 5  # forwards x
COND = 6  # arg: (true arm, false arm); x: the condition
CHECK = 7  # x, the first operand of the BINARY node nid, must be an integer;
# placed where evaluating inputs left to right checks it, before y's entries
NO_RULE = 8  # arg: the kind name; evaluation is stuck at nid


def _arithmetic(op):
    def rule(nid, node):
        operands = ir.value_inputs(node)
        if len(operands) == 1:
            return (UNARY, nid, op, operands[0], None)
        return (BINARY, nid, op, *operands)
    return rule


# One rule per evaluable kind: the schedule entry of a node of that kind.
# The entries of a schedule run in order, so nothing recurses through
# evaluate: wrapping it sees each expression evaluated, not each node.
_RULES = {
    ir.ConstantNode: lambda nid, node: (CONST, nid, node.const, None, None),
    ir.ParameterNode: lambda nid, node: (PARAM, nid, node.index, None, None),
    ir.ConditionalNode: lambda nid, node: (
        COND, nid, (node.trueValue, node.falseValue), node.condition, None),
    ir.ValueProxyNode: lambda nid, node: (PROXY, nid, None, node.value, None),
}
_RULES.update({k: lambda nid, node: (STATE, nid, None, None, None)
               for k in ir.NODE_KINDS.values() if ir.is_state_leaf(k)})
_RULES.update({k: _arithmetic(k.OP) for k in ir.NODE_KINDS.values() if k.OP})


def _entry(g: Graph, nid: int) -> tuple:
    node = g.kind(nid)
    rule = _RULES.get(type(node))
    if rule is None:
        return (NO_RULE, nid, node.kind_name(), None, None)
    return rule(nid, node)


def _cycle(nid: int) -> EvalStuck:
    return EvalStuck(nid, "expression has a cycle through its value edges")


def schedule(g: Graph, root: int) -> tuple:
    """The entries evaluating root runs, in order; built on first use and
    kept in g.schedules."""
    s = g.schedules.get(root)
    if s is None:
        s = g.schedules[root] = _build_schedule(g, root)
    return s


def _build_schedule(g: Graph, root: int) -> tuple:
    order = []
    done = set()
    path = {root}
    stack = [[_entry(g, root), 3]]  # an entry and the index of its next input
    while stack:
        top = stack[-1]
        e, i = top
        if i < 5 and e[i] is not None:
            top[1] = i + 1
            t = e[i]
            if t in done:
                continue
            if t in path:
                raise _cycle(t)
            if i == 4 and e[0] == BINARY:
                order.append((CHECK, e[1], None, e[3], None))
            path.add(t)
            stack.append([_entry(g, t), 3])
        else:
            stack.pop()
            path.discard(e[1])
            done.add(e[1])
            order.append(e)
    return tuple(order)


def _not_an_integer(nid: int, v: Value) -> EvalStuck:
    return EvalStuck(nid, f"expected an integer, got {v}")


def _truth(v: Value, cond: int) -> bool:
    if not isinstance(v, IntVal):
        raise EvalStuck(cond, f"expected an integer condition, got {v}")
    return v.value != 0


def evaluate(ctx: EvalContext, nid: int) -> Value:
    """Evaluate the expression rooted at nid to a run-time value.

    Runs nid's schedule, and the schedule of each arm a conditional chooses.
    The value of each node with value edges is memoized per context, so a
    step costs the distinct nodes of its expressions; leaves are cheaper to
    evaluate again than to store. A stuck evaluation raises where evaluating
    inputs left to right first gets stuck; nothing is stored for the nodes
    it did not finish."""
    memo = ctx.memo
    v = memo.get(nid)
    if v is not None:
        return v
    graph, state, params = ctx.graph, ctx.state, ctx.params
    vals = {}  # every value this call computed or read, leaves included
    waiting = {}  # conditional -> (its entries, chosen arm) while the arm runs
    entries = iter(graph.schedules.get(nid) or schedule(graph, nid))
    while True:
        for code, n, arg, x, y in entries:
            if code == BINARY or code == UNARY:
                v = memo.get(n)
                if v is None:
                    a = vals[x]
                    if not isinstance(a, IntVal):
                        raise _not_an_integer(x, a)
                    if code == UNARY:
                        v = IntVal(arg(a.value))
                    else:
                        b = vals[y]
                        if not isinstance(b, IntVal):
                            raise _not_an_integer(y, b)
                        v = IntVal(arg(a.value, b.value))
                    memo[n] = v
                vals[n] = v
            elif code == CONST:
                vals[n] = arg
            elif code == STATE:
                vals[n] = state[n]
            elif code == PARAM:
                if arg >= len(params):
                    raise ParamOutOfRange(n, arg, len(params))
                vals[n] = params[arg]
            elif code == CHECK:
                if not isinstance(vals[x], IntVal):
                    raise _not_an_integer(x, vals[x])
            elif code == PROXY:
                v = memo.get(n)
                if v is None:
                    v = memo[n] = vals[x]
                vals[n] = v
            elif code == COND:
                v = memo.get(n)
                if v is None:
                    arm = arg[0] if _truth(vals[x], x) else arg[1]
                    v = vals.get(arm)
                    if v is None:
                        v = memo.get(arm)
                    if v is None:
                        if n in waiting:
                            raise _cycle(n)
                        waiting[n] = (entries, arm)
                        entries = iter(schedule(graph, arm))
                        break
                    memo[n] = v
                vals[n] = v
            else:
                raise EvalStuck(n, f"no evaluation rule for {arg}")
        else:
            if not waiting:
                return vals[nid]
            n, (entries, arm) = waiting.popitem()
            vals[n] = memo[n] = vals[arm]


def condition_holds(ctx: EvalContext, cond: int) -> bool:
    """Whether the branch condition at cond holds: an integer holds when it
    is nonzero, and any other value is stuck at cond."""
    return _truth(evaluate(ctx, cond), cond)
