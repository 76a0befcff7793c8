"""Big-step evaluation of side-effect-free expression subgraphs.

Expressions form a DAG whose leaves are constants, parameters, and
control-flow nodes whose last value is latched in the method state.
Evaluation is pure and deterministic; integer arithmetic wraps at 32 bits.

The big-step relation fixes values, not an order; a schedule fixes the
order. schedule(g, roots) is the post-order of the value edges below each
root in turn: the order in which evaluating the roots left to right, inputs
left to right, first meets each node, each shared node kept once, so one
run does the sharing a memo would. It is built on first use and kept on
the graph under the roots tuple. Building never raises: a root that cannot
be scheduled (a cycle, or a missing input) becomes an entry that raises
where that root starts, so the first stuck root still wins. A
ConditionalNode's arms are not part of its schedule: each arm is a schedule
of its own, run only for the arm the condition chooses, so evaluation stays
lazy.

A control step reads one or more roots at once: an end's phi inputs, a
store's value and object, an invoke's arguments. evaluate_roots runs
their one schedule, read from the graph with one dict lookup (schedule
is called only on a miss), as is each chosen arm's; it is the one
evaluator, which equivalence.data_equiv samples through too. Arithmetic
results inside a run are plain ints, and leaves keep the Value they
read, whose int an operation reads in place; only a root's arithmetic
result is boxed, by runtime.box, without IntVal's range check, since
every operation wraps. A binary operation checks its operands itself; a
CHECK entry checks its first operand before the second's entries only
where that can fire first: where the first may not be an int (it is no
IntVal constant and no arithmetic result) and an entry of the second may
raise (it is no constant or state read). Runs use an explicit work
stack, so neither the depth of an expression nor the nesting of
conditionals is bounded by the recursion limit. post_order walks a value
cone depth first: walk_values (every value edge, arms included, for
wellformed.check) and equivalence's records and leaf keys are loops over
it. Every cycle found is a CyclicExpression.
"""

from functools import partial

from . import ir
from .ir import Graph
from .runtime import UNDEF, IntVal, MethodState, Value, box


class EvalStuck(Exception):
    """No rule applies: the one failure of evaluation, of the local step
    (controlflow.StepStuck) and of the global step (interproc.GlobalStuck).
    nid is the node the configuration is stuck at, or None when the reason
    concerns the frame stack rather than one node."""

    def __init__(self, nid: int | None, reason: str):
        super().__init__(reason if nid is None else f"@{nid}: {reason}")
        self.nid = nid
        self.reason = reason


class CyclicExpression(EvalStuck):
    def __init__(self, nid: int):
        super().__init__(nid, "expression has a cycle through its value edges")


class ParamOutOfRange(EvalStuck):
    def __init__(self, nid: int, index: int, count: int):
        super().__init__(nid, f"parameter index {index} with {count} parameters")


class EvalContext:
    """One graph, one method state and one parameter tuple: all an
    expression's value depends on."""

    __slots__ = ("graph", "state", "params")

    def __init__(self, graph: Graph, state: MethodState, params: tuple[Value, ...]):
        self.graph = graph
        self.state = state
        self.params = params


# A schedule is a tuple of entries (code, nid, arg, x, y): x and y are the
# inputs evaluated before nid (None where there are fewer), arg is below.
CONST = 0  # arg: the constant
PARAM = 1  # arg: the parameter index
STATE = 2  # a state leaf: reads the method state at nid
UNARY = 3  # arg: the operation on ints (runtime.int_*)
BINARY = 4  # arg: the operation on ints
PROXY = 5  # forwards x
COND = 6  # arg: (true arm, false arm), each a root; x: the condition
CHECK = 7  # x, the first operand of the BINARY node nid, must be an integer;
# placed where evaluating inputs left to right checks it, before y's entries,
# and only where it can fire before the BINARY entry's own check of x: where
# x's entry may give a non-int (it is no IntVal constant and no arithmetic
# entry) and some entry y adds may raise (it is no CONST or STATE read)
STUCK = 8  # arg: makes the EvalStuck evaluation raises here, afresh each time
CYCLE = 9  # a cycle through nid's value edges; arg makes its CyclicExpression


def _stuck(nid: int, reason: str) -> tuple:
    return (STUCK, nid, partial(EvalStuck, nid, reason), None, None)


# A value input that is no node id (None or a tuple, a wrong-shape edge) is
# stuck at its node; an arm is a root of its own, so such an arm is a
# placeholder root, stuck at its conditional only when chosen.
NO_INPUT = "value input edge to no node"


def _arithmetic(op):
    def rule(nid, node):
        operands = ir.value_inputs(node)
        for o in operands:
            if type(o) is not int:
                return _stuck(nid, NO_INPUT)
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
        _stuck(nid, NO_INPUT) if type(node.condition) is not int
        else (COND, nid, tuple(a if type(a) is int else partial(EvalStuck, nid, NO_INPUT)
                               for a in (node.trueValue, node.falseValue)), node.condition, None)),
    ir.ValueProxyNode: lambda nid, node: (
        _stuck(nid, NO_INPUT) if type(node.value) is not int
        else (PROXY, nid, None, node.value, None)),
}
_RULES.update({k: lambda nid, node: (STATE, nid, None, None, None)
               for k in ir.NODE_KINDS.values() if ir.is_state_leaf(k)})
_RULES.update({k: _arithmetic(k.OP) for k in ir.NODE_KINDS.values() if k.OP})


def _entry(g: Graph, nid: int) -> tuple:
    node = g.kind(nid)
    rule = _RULES.get(type(node))
    if rule is None:
        return _stuck(nid, f"no evaluation rule for {node.kind_name()}")
    return rule(nid, node)


def post_order(roots, entry, inputs, done):
    """A depth-first walk of a value cone: yield entry(n) for each node n
    below each of roots in turn that is not in done, after the entries of
    the nodes inputs(entry(n)) names, left to right. The caller puts each
    node yielded into done. Iterative, so depth is not bounded by the
    recursion limit. Raises CyclicExpression at the first node met again
    on its own path."""
    path = {}  # the nodes being walked, in order: the last is the newest frame's
    stack = []  # per node being walked, its entry and what is left of its parent's inputs
    todo = iter(roots)  # what is left of the newest frame's inputs; roots are no node's
    while True:
        for t in todo:
            if t not in done:
                if t in path:
                    raise CyclicExpression(t)
                e = entry(t)
                ins = inputs(e)
                if ins:
                    path[t] = None
                    stack.append((e, todo))
                    todo = iter(ins)
                    break
                yield e  # a node with no inputs is on no path
        else:
            if not stack:
                return
            e, todo = stack.pop()
            path.popitem()
            yield e


def walk_values(g: Graph, roots) -> None:
    """One walk of the nodes evaluating each of roots, in turn, reaches over
    the value edges of g's edge table, both arms of every conditional
    included. Raises CyclicExpression at the first node met again on its
    own path."""
    table = g.edges()
    done = set()
    for n in post_order(roots, lambda n: n, lambda n: table.get(n, ir.NO_EDGES)[2], done):
        done.add(n)


def schedule(g: Graph, roots: tuple) -> tuple:
    """The entries that evaluating roots left to right runs, in order: the
    post-order of the value edges below each root in turn, each node at its
    first place. A callable root (a missing input, making the EvalStuck to
    raise) is a STUCK entry keyed by that root, and a root on a cycle a
    CYCLE entry, at the place where that root starts; nothing of that root
    and nothing after it runs, so none of it is kept. Any other root that is
    not a node id evaluates as an unmapped id. Building never raises. Built
    on first use and kept in g.schedules under roots."""
    s = g.schedules.get(roots)
    if s is None:
        s = g.schedules[roots] = _build_schedule(g, roots)
    return s


def _build_schedule(g: Graph, roots: tuple) -> tuple:
    order, done = [], {}  # done: each node in order, to its entry
    raising = 0  # the entries of order that may raise: all but CONST and STATE
    for root in roots:
        if callable(root):
            order.append((STUCK, root, root, None, None))
            break
        if root in done:
            continue
        start = len(order)
        path = {root}
        # An entry, the index of its next input and, for a BINARY entry once
        # its y is reached, (where y's entries start, raising there).
        stack = [[_entry(g, root), 3, None]]
        while stack:
            top = stack[-1]
            e, i, mark = top
            if i < 5 and e[i] is not None:
                top[1] = i + 1
                t = e[i]
                if i == 4 and e[0] == BINARY:
                    top[2] = (len(order), raising)
                if t in done:
                    continue
                if t in path:
                    del order[start:]
                    order.append((CYCLE, t, partial(CyclicExpression, t), None, None))
                    return tuple(order)
                path.add(t)
                stack.append([_entry(g, t), 3, None])
            else:
                stack.pop()
                path.discard(e[1])
                if mark is not None and raising > mark[1] and not _gives_int(done[e[3]]):
                    order.insert(mark[0], (CHECK, e[1], None, e[3], None))
                    raising += 1
                done[e[1]] = e
                order.append(e)
                if e[0] != CONST and e[0] != STATE:
                    raising += 1
    return tuple(order)


def _gives_int(e: tuple) -> bool:
    """Whether the value of entry e is an int whenever it runs without
    raising: an IntVal constant's, or an arithmetic result."""
    return e[0] == UNARY or e[0] == BINARY or (e[0] == CONST and type(e[2]) is IntVal)


def _integer(v, nid: int) -> int:
    """The int v stands for: itself, or an IntVal's; any other value is
    stuck at nid."""
    if type(v) is IntVal:
        return v.value
    if type(v) is not int:
        raise EvalStuck(nid, f"expected an integer, got {v}")
    return v


def _truth(v, cond: int) -> bool:
    if type(v) is IntVal:
        return v.value != 0
    if type(v) is not int:
        raise EvalStuck(cond, f"expected an integer condition, got {v}")
    return v != 0


def _run(g: Graph, state: MethodState, params: tuple, roots: tuple) -> dict:
    """The evaluation core: the value of every node the roots' schedule
    runs, and of each chosen arm's. An arithmetic result is a plain int;
    a leaf's value is kept as read (a state leaf's from state.entries(),
    rerooted once per run), so a root that is a leaf is not boxed again.
    Each arm runs where its conditional is met; a stuck evaluation raises
    where evaluating the roots left to right, inputs left to right, first
    gets stuck."""
    vals = {}
    waiting = None  # conditional -> (its entries, chosen arm) while the arm runs
    read = state.entries().get  # a state leaf's value: read(n, UNDEF) is state[n]
    kept = g.schedules
    s = kept.get(roots)
    entries = iter(schedule(g, roots) if s is None else s)
    while True:
        for code, n, arg, x, y in entries:  # the codes by how often they run
            if code == BINARY:
                a, b = vals[x], vals[y]
                if type(a) is not int:
                    a = a.value if type(a) is IntVal else _integer(a, x)
                if type(b) is not int:
                    b = b.value if type(b) is IntVal else _integer(b, y)
                vals[n] = arg(a, b)
            elif code == PARAM:
                if arg >= len(params):
                    raise ParamOutOfRange(n, arg, len(params))
                vals[n] = params[arg]
            elif code == CHECK:
                if type(vals[x]) is not IntVal:
                    _integer(vals[x], x)
            elif code == STATE:
                vals[n] = read(n, UNDEF)
            elif code == CONST:
                vals[n] = arg
            elif code == UNARY:
                a = vals[x]
                if type(a) is not int:
                    a = a.value if type(a) is IntVal else _integer(a, x)
                vals[n] = arg(a)
            elif code == PROXY:
                vals[n] = vals[x]
            elif code == COND:
                arm = arg[0] if _truth(vals[x], x) else arg[1]
                if arm in vals:
                    vals[n] = vals[arm]
                    continue
                if waiting is None:
                    waiting = {}
                elif n in waiting:
                    raise CyclicExpression(n)
                waiting[n] = (entries, arm)
                s = kept.get((arm,))
                entries = iter(schedule(g, (arm,)) if s is None else s)
                break
            else:
                raise arg()
        else:
            if not waiting:
                return vals
            n, (entries, arm) = waiting.popitem()
            vals[n] = vals[arm]


def evaluate_roots(g: Graph, state: MethodState, params: tuple, roots: tuple) -> list[Value]:
    """The values of the expressions at roots, evaluated left to right under
    one state and parameter tuple, as the control steps read them, by one
    run of schedule(g, roots). A root may instead be a callable making the
    EvalStuck to raise at its place; a root on a cycle raises its
    CyclicExpression at its place."""
    vals = _run(g, state, params, roots)
    out = []  # a loop, not a comprehension: this runs once per control step
    for root in roots:
        v = vals[root]
        out.append(box(v) if type(v) is int else v)  # an arithmetic result: in range
    return out


def evaluate(ctx: EvalContext, nid: int) -> Value:
    """Evaluate the expression rooted at nid to a run-time value."""
    return evaluate_roots(ctx.graph, ctx.state, ctx.params, (nid,))[0]


def condition_holds(g: Graph, state: MethodState, params: tuple, cond: int) -> bool:
    """Whether the branch condition at cond holds: an integer holds when it
    is nonzero, and any other value is stuck at cond."""
    return _truth(_run(g, state, params, (cond,))[cond], cond)
