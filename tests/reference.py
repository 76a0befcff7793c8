"""The data semantics, stated rule by rule from each node's fields by name:
the reference the differential properties hold dataflow, check's
acyclicity and the leaves data_equiv assigns to. It shares no code with
dataflow's schedules, runs or walk, or with equivalence's, so a fault in
them shows on one side only. Evaluation recurses, as the properties draw
graphs of a few nodes. It keeps dataflow's promises: a root or chosen
arm on a cycle (arms excluded) raises before any of it runs, and a
conditional met again in its own arm raises there; a first operand is
checked before the second is evaluated; an input that is no node id is
stuck at its node, an arm only when chosen."""

from seanode.dataflow import CyclicExpression, EvalStuck, ParamOutOfRange
from seanode.ir import ConditionalNode, ConstantNode, ParameterNode, ValueProxyNode, is_state_leaf
from seanode.runtime import IntVal

NO_INPUT = "value input edge to no node"


def _followed(node, arms: bool) -> list:
    # With arms, every value input that is a node id. Without, a conditional's
    # condition only, and nothing of a node whose input is no node id.
    names = ("condition",) if type(node) is ConditionalNode and not arms else node.VALUE_EDGES
    targets = [getattr(node, name) for name in names]
    ids = [t for t in targets if type(t) is int]
    return ids if arms or len(ids) == len(targets) else []


def first_cycle(g, roots, done: set, arms: bool = False):
    """The first node that a walk of the value inputs below each of roots in
    turn, left to right, meets again on its own path; None if there is
    none. done holds nodes on no such cycle, and gains each node walked."""
    path = set()

    def walk(n):
        if n in path:
            return n
        if n not in done:
            path.add(n)
            for found in map(walk, _followed(g.kind(n), arms)):
                if found is not None:
                    return found
            path.discard(n)
            done.add(n)
        return None

    return next((found for found in map(walk, roots) if found is not None), None)


def evaluate(g, state, params: tuple, roots) -> list:
    """The values at roots, left to right, under one state and parameter
    tuple; a callable root makes the EvalStuck to raise at its place."""
    vals, done, started = {}, set(), set()  # started: conditionals in their arm

    def run(n):  # a root or a chosen arm
        if callable(n):
            raise n()
        found = first_cycle(g, (n,), done)
        if found is not None:
            raise CyclicExpression(found)
        return value(n)

    def value(n):
        if n not in vals:
            vals[n] = rule(n, g.kind(n))
        return vals[n]

    def integer(n, what="an integer"):
        v = value(n)
        if type(v) is not IntVal:
            raise EvalStuck(n, f"expected {what}, got {v}")
        return v.value

    def rule(n, node):
        kind = type(node)
        if kind is ConstantNode:
            return node.const
        if kind is ParameterNode:
            if node.index >= len(params):
                raise ParamOutOfRange(n, node.index, len(params))
            return params[node.index]
        if is_state_leaf(kind):
            return state[n]
        if not (kind.OP or kind in (ConditionalNode, ValueProxyNode)):
            raise EvalStuck(n, f"no evaluation rule for {node.kind_name()}")
        names = ("condition",) if kind is ConditionalNode else kind.VALUE_EDGES
        operands = [getattr(node, name) for name in names]
        if any(type(o) is not int for o in operands):
            raise EvalStuck(n, NO_INPUT)
        if kind is not ConditionalNode:
            return IntVal(kind.OP(*map(integer, operands))) if kind.OP else value(node.value)
        arm = node.trueValue if integer(node.condition, "an integer condition") else node.falseValue
        if type(arm) is not int:
            raise EvalStuck(n, NO_INPUT)
        if arm not in vals:
            if n in started:
                raise CyclicExpression(n)
            started.add(n)
            run(arm)
        return vals[arm]

    return [run(root) for root in roots]


def leaves(g, nid) -> tuple[set, set]:
    """(parameter indices, state-leaf ids) the expression at nid may read,
    both arms of each conditional included. A parameter's index and a
    state leaf's id are leaves. Below any other node are the nodes its
    value inputs name, if each is a node id, else nothing, as the node is
    stuck there; an arm is stuck only when chosen, so an arm that is no
    node id drops only itself. A work list, not recursion: the chains
    asked about are deep."""
    params, slots, seen, todo = set(), set(), set(), [nid]
    while todo:
        n = todo.pop()
        if n in seen:
            continue
        seen.add(n)
        node = g.kind(n)
        if type(node) is ParameterNode:
            params.add(node.index)
        elif is_state_leaf(node):
            slots.add(n)
        else:
            inputs = [getattr(node, name) for name in node.VALUE_EDGES]
            if type(node) is ConditionalNode:
                inputs = inputs[:1] + [a for a in inputs[1:] if type(a) is int]
            if all(type(t) is int for t in inputs):
                todo += inputs
    return params, slots
