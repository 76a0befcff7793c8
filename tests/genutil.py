"""Seeded random builders for property-style tests: merge/phi fixtures for
the simultaneity property and instance generators for each declared
canonicalization rule of a data kind."""

import random

from seanode.ir import (
    AddNode, BeginNode, ConditionalNode, ConstantNode, EndNode, Graph, IfNode,
    IntegerLessThanNode, LoopBeginNode, LoopEndNode, LoopExitNode, MergeNode, MulNode,
    NegateNode, NewInstanceNode, ParameterNode, Program, ReturnNode, Signature,
    StartNode, StoreFieldNode, ValuePhiNode, ValueProxyNode, is_data,
)
from seanode.optimize import RULES
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


class RuleCase:
    def __init__(self, graph, nid, rule):
        self.graph = graph
        self.nid = nid
        self.rule = rule


def _base(rng: random.Random):
    """Graph stub with parameters at 1..3 and a scratch allocator."""
    nodes = {
        0: StartNode(next=4),
        1: ParameterNode(0),
        2: ParameterNode(1),
        3: ParameterNode(2),
    }
    state = {"next": 5}

    def alloc(node):
        this = state["next"]
        nodes[this] = node
        state["next"] += 1
        return this

    def const(v=None):
        return alloc(ConstantNode(IntVal(v if v is not None else rng.choice(_INTERESTING))))

    def operand(allow_const=True):
        # Duplicable data expressions; identity rules forward to these and
        # must avoid constants so constant folding does not fire first.
        roll = rng.random()
        if allow_const and roll < 0.2:
            return const()
        if roll < 0.6:
            return rng.choice((1, 2, 3))
        if roll < 0.8:
            return alloc(AddNode(x=rng.choice((1, 2)), y=rng.choice((2, 3))))
        return alloc(NegateNode(value=rng.choice((1, 2, 3))))

    return nodes, alloc, const, operand


def gen_rule_case(rule: str, rng: random.Random) -> RuleCase:
    nodes, alloc, const, operand = _base(rng)
    if rule.startswith("fold-"):
        # Every arithmetic kind's fold: its value inputs all constants.
        kind = _RULE_KINDS[rule]
        target = alloc(kind(*(const() for _ in kind.VALUE_EDGES)))
    elif rule == "add-zero":
        x = operand(allow_const=False)
        if rng.random() < 0.5:
            target = alloc(AddNode(x=x, y=const(0)))
        else:
            target = alloc(AddNode(x=const(0), y=x))
    elif rule == "mul-one":
        x = operand(allow_const=False)
        if rng.random() < 0.5:
            target = alloc(MulNode(x=x, y=const(1)))
        else:
            target = alloc(MulNode(x=const(1), y=x))
    elif rule == "mul-zero":
        x = operand(allow_const=False)
        if rng.random() < 0.5:
            target = alloc(MulNode(x=x, y=const(0)))
        else:
            target = alloc(MulNode(x=const(0), y=x))
    elif rule == "negate-negate":
        target = alloc(NegateNode(value=alloc(NegateNode(value=operand(allow_const=False)))))
    elif rule == "conditional-constant":
        target = alloc(ConditionalNode(
            condition=const(rng.choice((0, 1, -5, 3))),
            trueValue=operand(), falseValue=operand(),
        ))
    elif rule == "conditional-equal-branches":
        v = operand()
        cond = alloc(IntegerLessThanNode(x=rng.choice((1, 2)), y=rng.choice((2, 3))))
        target = alloc(ConditionalNode(condition=cond, trueValue=v, falseValue=v))
    else:
        raise ValueError(f"no generator for rule {rule!r}")
    nodes[4] = ReturnNode(resultOpt=target)
    return RuleCase(Graph(nodes), target, rule)


_RULE_KINDS = {rule.name: rule.kind for rule in RULES}

# Every rule optimize declares for a data kind, so a new one without a
# generator above fails the soundness tests.
DATA_RULES = tuple(name for name, kind in _RULE_KINDS.items() if is_data(kind))


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
