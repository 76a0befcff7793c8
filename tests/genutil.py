"""Seeded random builders for property-style tests: the operations random
expressions draw, every pure kind with value inputs as declared in
ir.NODE_KINDS, and one builder for them; merge/phi fixtures for the
simultaneity property; instances of each data rule of optimize.RULES,
drawn over random operands until the rule applies; and damaged graphs for
the well-formedness gate."""

import random

from seanode.ir import (
    NODE_KINDS, AbstractMergeNode, AddNode, BeginNode, ConditionalNode, ConstantNode, EndNode,
    Graph, IfNode, IntegerLessThanNode, InvokeWithExceptionNode, LoopBeginNode, LoopEndNode,
    LoopExitNode, MergeNode, MethodCallTargetNode, MulNode, NegateNode, NewInstanceNode,
    ParameterNode, Program, ReturnNode, Signature, StartNode, StoreFieldNode, UnwindNode,
    ValuePhiNode, ValueProxyNode, is_data, is_pure,
)
from seanode.optimize import RULES, canonicalize_data
from seanode.runtime import INT_MAX, INT_MIN, IntVal
from seanode.wellformed import check


def gen_merge_fixture(rng: random.Random):
    """A merge with several phis whose value inputs may read parameters,
    constants, and *other phis of the same merge* (the case where update
    order would show if the protocol were wrong).

    Returns (graph, merge id, end ids, phi ids, param count).
    """
    n_phis = rng.randint(2, 4)
    n_ends = rng.randint(2, 3)
    n_params = rng.randint(1, 3)

    nodes = {}
    nid = 0

    def alloc(node):
        nonlocal nid
        this = nid
        nodes[this] = node
        nid += 1
        return this

    alloc(StartNode(next=1))
    end_ids = [alloc(EndNode()) for _ in range(n_ends)]
    merge = alloc(MergeNode(ends=tuple(end_ids), next=0))  # next patched below
    param_ids = [alloc(ParameterNode(i)) for i in range(n_params)]
    const_ids = [alloc(ConstantNode(IntVal(rng.randint(-3, 3)))) for _ in range(2)]
    phi_ids = [nid + i for i in range(n_phis)]
    nid += n_phis

    def leaf():
        return rng.choice(param_ids + const_ids + phi_ids)

    def expr():
        if rng.random() < 0.4:
            return leaf()
        cls = rng.choice((AddNode, MulNode))
        return alloc(cls(x=leaf(), y=leaf()))

    values = {p: tuple(expr() for _ in range(n_ends)) for p in phi_ids}
    for p in phi_ids:
        nodes[p] = ValuePhiNode(p, values=values[p], merge=merge)
    ret = alloc(ReturnNode(resultOpt=phi_ids[0]))
    nodes[merge] = MergeNode(ends=tuple(end_ids), next=ret)
    return Graph(nodes), merge, end_ids, phi_ids, n_params


_INTERESTING = (-2, -1, 0, 1, 2, 7, INT_MIN, INT_MAX)

# The operations a random expression draws: every pure kind with value
# inputs, as declared, so a new one reaches every generator below.
OPERATIONS = tuple(k for k in NODE_KINDS.values() if is_pure(k) and k.VALUE_EDGES)


def replace(node, **changes):
    """A copy of node with the fields named in changes set to the given values."""
    return type(node)(**{**{name: getattr(node, name) for name in node.FIELDS}, **changes})


def build(kind, ref):
    """A node of kind with ref(name) at each of its input edges, anchors
    included."""
    return kind(**{name: ref(name) for name in kind.INPUTS})


class RuleCase:
    def __init__(self, graph, nid, rule):
        self.graph = graph
        self.nid = nid
        self.rule = rule


_RULE_KINDS = {rule.name: rule.kind for rule in RULES}

# Every rule optimize declares for a data kind.
DATA_RULES = tuple(name for name, kind in _RULE_KINDS.items() if is_data(kind))


def gen_rule_case(rule: str, rng: random.Random) -> RuleCase:
    """A method returning a node of rule's kind that canonicalize_data
    rewrites by rule: the first of up to 1,000 nodes of that kind, each over
    random operands. An operand is a parameter, a constant, an operation
    over operands, or an earlier parameter or operation again, so equal
    arms occur; a constant is drawn afresh each time."""
    kind = _RULE_KINDS[rule]
    for _ in range(1000):
        nodes = {0: StartNode(next=1), 2: ParameterNode(0), 3: ParameterNode(1),
                 4: ParameterNode(2)}
        made = [2, 3, 4]

        def alloc(node):
            nid = max(nodes) + 1
            nodes[nid] = node
            return nid

        def operand(name, depth=0):
            roll = rng.random()
            if roll < 0.4:
                return rng.choice(made)
            if roll < 0.7 or depth == 2:
                return alloc(ConstantNode(IntVal(rng.choice(_INTERESTING))))
            made.append(alloc(build(rng.choice(OPERATIONS),
                                    lambda name: operand(name, depth + 1))))
            return made[-1]

        target = alloc(build(kind, operand))
        nodes[1] = ReturnNode(resultOpt=target)
        g = Graph(nodes)
        rw = canonicalize_data(g, target)
        if rw is not None and rw.rule == rule:
            return RuleCase(g, target, rule)
    raise AssertionError(f"no node of {kind.kind_name()} rewritten by {rule} in 1,000 draws")


def negate_chain(depth: int) -> Graph:
    """A well-formed method returning -(-(...(p0))) nested depth times.

    Node ids descend toward the parameter: the returned root is node 2 and
    the parameter is node depth + 2, so a walk from the lowest id meets
    the whole chain at once.
    """
    nodes = {0: StartNode(next=1), 1: ReturnNode(resultOpt=2)}
    for i in range(depth):
        nodes[2 + i] = NegateNode(value=3 + i)
    nodes[2 + depth] = ParameterNode(0)
    return Graph(nodes)


CHAIN_SIG = Signature("Chain", "deep", ("int",))


def conditional_chain(depth: int) -> Graph:
    """A well-formed method of depth ConditionalNodes nested through their
    true arms: node 2 + i is p0 ? (node 3 + i) : i, and the innermost true
    arm is p0. It returns p0 when p0 is nonzero and 0 otherwise, after
    choosing depth true arms, each inside the one before."""
    param = 2 + depth
    nodes = {0: StartNode(next=1), 1: ReturnNode(resultOpt=2), param: ParameterNode(0)}
    for i in range(depth):
        nodes[param + 1 + i] = ConstantNode(IntVal(i))
        nodes[2 + i] = ConditionalNode(condition=param, trueValue=3 + i,
                                       falseValue=param + 1 + i)
    return Graph(nodes)


STORE_LOOP_SIG = Signature("Heap", "storeLoop", ())


def store_loop(trips: int) -> Program:
    """A well-formed method whose loop allocates one object and stores the
    trip count into it, trips times; it returns trips."""
    return Program({STORE_LOOP_SIG: Graph({
        0: StartNode(next=2),
        1: ConstantNode(IntVal(trips)),
        2: EndNode(),
        3: LoopBeginNode(ends=(2, 12), next=6),
        4: ValuePhiNode(4, values=(13, 10), merge=3),
        6: BeginNode(next=8),
        7: IntegerLessThanNode(x=4, y=1),
        8: IfNode(condition=7, trueSuccessor=9, falseSuccessor=14),
        9: NewInstanceNode(9, "Cell", next=11),
        10: AddNode(x=4, y=15),
        11: StoreFieldNode(11, field="trip", value=4, objectOpt=9, next=12),
        12: LoopEndNode(loopBegin=3),
        13: ConstantNode(IntVal(0)),
        14: LoopExitNode(loopBegin=3, next=17),
        15: ConstantNode(IntVal(1)),
        16: ValueProxyNode(value=4, loopExit=14),
        17: ReturnNode(resultOpt=16),
    })})


DOUBLING_SIG = Signature("Dag", "doubling", ("int",))


def doubling_dag(levels: int) -> Program:
    """A well-formed method returning p0 * 2**levels (wrapped): node 3 is
    p0 and each of the next levels nodes is AddNode(prev, prev), so the
    expression has levels + 1 distinct nodes but 2**(levels + 1) - 1 paths."""
    nodes = {0: StartNode(next=1), 1: ReturnNode(resultOpt=3 + levels), 3: ParameterNode(0)}
    for nid in range(4, 4 + levels):
        nodes[nid] = AddNode(x=nid - 1, y=nid - 1)
    return Program({DOUBLING_SIG: Graph(nodes)})


STUCK_PHI_SIG = Signature("Stuck", "phiUpdate", ())


def stuck_phi_program() -> Program:
    """A well-formed method whose only phi update is stuck: the phi's input
    reads parameter 3 of a method that has none."""
    return Program({STUCK_PHI_SIG: Graph({
        0: StartNode(next=1),
        1: EndNode(),
        2: MergeNode(ends=(1,), next=4),
        3: ValuePhiNode(3, values=(5,), merge=2),
        4: ReturnNode(resultOpt=3),
        5: ParameterNode(3),
    })})


def violated_rules(g: Graph) -> set[str]:
    """Names of the well-formedness rules that check reports g breaking."""
    return {v.rule for v in check(g).violations}


# -- damaged graphs, for the well-formedness gate -------------------------

def _edge_slots(nodes: dict) -> list[tuple[int, str, int | None]]:
    """Every edge slot of the graph: (node id, field, list position or
    None for a one-edge field), in id, then field order."""
    slots = []
    for nid in sorted(nodes):
        node = nodes[nid]
        kind = type(node)
        for name in kind.INPUTS + kind.SUCCESSORS:
            if name in kind.LIST_EDGES:
                slots += [(nid, name, i) for i in range(len(getattr(node, name)))]
            else:
                slots.append((nid, name, None))
    return slots


def _set_edge(nodes: dict, slot, target) -> None:
    nid, name, i = slot
    node = nodes[nid]
    if i is not None:
        old = getattr(node, name)
        target = old[:i] + (target,) + old[i + 1:]
    nodes[nid] = replace(node, **{name: target})


def _data_ids(nodes: dict) -> list[int]:
    return [nid for nid in sorted(nodes) if is_data(nodes[nid])] or sorted(nodes)


def _dangle(nodes, rng):
    slots = _edge_slots(nodes)
    if slots:
        _set_edge(nodes, rng.choice(slots), max(nodes) + rng.randint(1, 3))


def _wrong_shape(nodes, rng):
    # None or a tuple where an edge is one id: a target that is no node.
    slots = [s for s in _edge_slots(nodes) if s[2] is None]
    if slots:
        slot = rng.choice(slots)
        _set_edge(nodes, slot, rng.choice((None, (slot[0],), (1, 2))))


def _orphan_end(nodes, rng):
    merges = [n for n in sorted(nodes) if isinstance(nodes[n], AbstractMergeNode)]
    if merges and rng.random() < 0.5:
        m = rng.choice(merges)
        nodes[m] = replace(nodes[m], ends=nodes[m].ends[1:])
    else:
        nodes[max(nodes) + 1] = EndNode()


def _break_phi(nodes, rng):
    phis = [n for n in sorted(nodes) if isinstance(nodes[n], ValuePhiNode)]
    if not phis:
        return
    p = rng.choice(phis)
    phi = nodes[p]
    roll = rng.random()
    if roll < 0.4:
        nodes[p] = replace(phi, values=phi.values[:-1])
    elif roll < 0.7:
        nodes[p] = replace(phi, values=phi.values + (rng.choice(sorted(nodes)),))
    else:
        nodes[p] = replace(phi, merge=rng.choice(sorted(nodes) + [max(nodes) + 1]))


def _bad_self_id(nodes, rng):
    owners = [n for n in sorted(nodes) if hasattr(nodes[n], "selfId")]
    if owners:
        n = rng.choice(owners)
        nodes[n] = replace(nodes[n], selfId=n + rng.randint(1, 4))


def _arm_cycle(nodes, rng):
    # A conditional whose arm reads the conditional back.
    data = _data_ids(nodes)
    c, a = max(nodes) + 1, max(nodes) + 2
    nodes[a] = AddNode(x=c, y=rng.choice(data))
    arms = (a, rng.choice(data))
    if rng.random() < 0.5:
        arms = arms[::-1]
    nodes[c] = ConditionalNode(condition=rng.choice(data), trueValue=arms[0], falseValue=arms[1])


def _proxy_anchor(nodes, rng):
    # A loop through a ValueProxyNode's anchor edge, which evaluation does
    # not follow: not a cycle.
    data = _data_ids(nodes)
    p, a = max(nodes) + 1, max(nodes) + 2
    nodes[p] = ValueProxyNode(value=rng.choice(data), loopExit=a)
    nodes[a] = NegateNode(value=p)


def _unmapped_value(nodes, rng):
    nodes[max(nodes) + 1] = rng.choice((
        AddNode(x=rng.choice(_data_ids(nodes)), y=max(nodes) + 7),
        NegateNode(value=max(nodes) + 5),
    ))


def _value_cycle(nodes, rng):
    # A value edge to the node itself, or to a new node that reads it.
    slots = [s for s in _edge_slots(nodes)
             if s[1] in type(nodes[s[0]]).VALUE_EDGES and s[2] is None]
    if slots:
        slot = rng.choice(slots)
        target = slot[0]
        if rng.random() < 0.5:
            target = max(nodes) + 1
            nodes[target] = AddNode(x=rng.choice(_data_ids(nodes)), y=slot[0])
        _set_edge(nodes, slot, target)


def _drop_node(nodes, rng):
    if len(nodes) > 1:
        del nodes[rng.choice(sorted(nodes))]


DAMAGES = (_dangle, _wrong_shape, _orphan_end, _break_phi, _bad_self_id,
           _arm_cycle, _proxy_anchor, _unmapped_value, _value_cycle, _drop_node)


def damaged_graph(base: Graph, rng: random.Random) -> Graph:
    """base with one to three damages from DAMAGES, chosen by rng."""
    nodes = dict(base.items())
    for damage in rng.sample(DAMAGES, rng.randint(1, 3)):
        if nodes:
            damage(nodes, rng)
    return Graph(nodes)


def damage_bases() -> list[Graph]:
    """Well-formed graphs of every shape damaged_graph has a damage for:
    merges with phis, a loop with a store and a proxy, conditionals, a
    call with an exception edge and deep chains."""
    rng = random.Random(0)
    call = Graph({
        0: StartNode(next=1),
        1: InvokeWithExceptionNode(1, callTarget=2, next=4, exceptionEdge=5),
        2: MethodCallTargetNode(CHAIN_SIG, arguments=(3, 3)),
        3: ParameterNode(0),
        4: ReturnNode(resultOpt=1),
        5: UnwindNode(exception=1),
    })
    return [
        *(gen_merge_fixture(rng)[0] for _ in range(3)),
        store_loop(3).graph(STORE_LOOP_SIG),
        conditional_chain(3),
        negate_chain(4),
        doubling_dag(3).graph(DOUBLING_SIG),
        stuck_phi_program().graph(STUCK_PHI_SIG),
        call,
    ]
