import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS_FILES, corpus
from genutil import DATA_RULES, gen_rule_case
from seanode.dataflow import EvalContext, evaluate
from seanode.equivalence import Domain, Equivalence, behavior_diff, with_boundary_values
from seanode.fileformat import load
from seanode.ir import (
    NODE_KINDS, AddNode, BeginNode, ConditionalNode, ConstantNode, EndNode, Graph, IfNode,
    IntegerLessThanNode, LoopBeginNode, LoopEndNode, MergeNode, MulNode,
    NegateNode, NewInstanceNode, ParameterNode, Program, RefNode, ReturnNode, StartNode,
    SubNode, ValuePhiNode, is_pure,
)
from seanode.optimize import (
    PASS_NAMES, RULES, IterationCapExceeded, apply_pass, canonicalize_data,
    cfg_successors, conditional_elimination, dominators,
)
from seanode.runtime import INT_MAX, INT_MIN, IntVal, MethodState, ObjRef
from seanode.wellformed import check
import seanode.optimize as optimize_mod


def eval_at(g, nid, p=()):
    return evaluate(EvalContext(g, MethodState(), tuple(p)), nid)


def test_fold_add_constants():
    g = Graph({
        1: ConstantNode(IntVal(2)), 2: ConstantNode(IntVal(3)), 3: AddNode(x=1, y=2),
    })
    rw = canonicalize_data(g, 3)
    assert rw.rule == "fold-add"
    assert rw.after == ConstantNode(IntVal(5))


def test_fold_add_wraps():
    g = Graph({
        1: ConstantNode(IntVal(INT_MAX)), 2: ConstantNode(IntVal(1)), 3: AddNode(x=1, y=2),
    })
    assert canonicalize_data(g, 3).after == ConstantNode(IntVal(-2147483648))


def test_conditional_equal_branches_value_preserved():
    g = Graph({
        1: ParameterNode(0),
        2: ParameterNode(1),
        3: IntegerLessThanNode(x=1, y=2),
        4: ConditionalNode(condition=3, trueValue=2, falseValue=2),
    })
    rw = canonicalize_data(g, 4)
    assert rw.rule == "conditional-equal-branches"
    g2 = g.replace_node(rw.target, rw.after)
    for a, b in itertools.product(range(-2, 3), repeat=2):
        p = (IntVal(a), IntVal(b))
        assert eval_at(g, 4, p) == eval_at(g2, 4, p)


def test_mul_one_identity_over_domain():
    g = Graph({
        1: ParameterNode(0), 2: ConstantNode(IntVal(1)), 3: MulNode(x=1, y=2),
    })
    rw = canonicalize_data(g, 3)
    assert rw.rule == "mul-one"
    g2 = g.replace_node(rw.target, rw.after)
    for x in range(-2, 3):
        assert eval_at(g2, 3, (IntVal(x),)) == eval_at(g, 3, (IntVal(x),)) == IntVal(x)


def test_mul_zero_to_constant():
    g = Graph({1: ParameterNode(0), 2: ConstantNode(IntVal(0)), 3: MulNode(x=2, y=1)})
    rw = canonicalize_data(g, 3)
    assert rw.rule == "mul-zero"
    assert rw.after == ConstantNode(IntVal(0))


def test_negate_negate_forwards():
    g = Graph({1: ParameterNode(0), 2: NegateNode(value=1), 3: NegateNode(value=2)})
    rw = canonicalize_data(g, 3)
    assert rw.rule == "negate-negate"
    assert rw.after == ParameterNode(0)


def test_forwarding_to_state_leaf_is_skipped():
    # A phi cannot be duplicated at another id: its value lives in the
    # method state under its own id. The identity must not fire.
    g = Graph({
        1: ValuePhiNode(1, values=(), merge=0),
        2: ConstantNode(IntVal(1)),
        3: MulNode(x=1, y=2),
    })
    assert canonicalize_data(g, 3) is None


def test_conditional_constant_picks_branch():
    g = Graph({
        1: ConstantNode(IntVal(1)),
        2: ParameterNode(0),
        3: ParameterNode(1),
        4: ConditionalNode(condition=1, trueValue=2, falseValue=3),
    })
    rw = canonicalize_data(g, 4)
    assert rw.rule == "conditional-constant"
    assert rw.after == ParameterNode(0)


def test_every_data_rule_is_generable_and_sound():
    rng = random.Random(11)
    from seanode.equivalence import data_equiv, with_boundary_values
    for rule in DATA_RULES:
        for _ in range(5):
            case = gen_rule_case(rule, rng)
            rw = canonicalize_data(case.graph, case.nid)
            assert rw is not None and rw.rule == rule, (rule, rw)
            g2 = case.graph.replace_node(rw.target, rw.after)
            verdict = data_equiv(case.graph, g2, case.nid, with_boundary_values(Domain()))
            assert verdict.status is Equivalence.EQUIVALENT, (rule, verdict)


def test_if_constant_true_to_ref():
    g = Graph({
        1: ConstantNode(IntVal(1)),
        2: IfNode(condition=1, trueSuccessor=3, falseSuccessor=4),
        3: BeginNode(next=2), 4: BeginNode(next=2),
    })
    rw = canonicalize_data(g, 2)
    assert rw.rule == "if-constant-condition"
    assert rw.after == RefNode(next=3)


def test_if_constant_false_to_ref():
    g = Graph({
        1: ConstantNode(IntVal(0)),
        2: IfNode(condition=1, trueSuccessor=3, falseSuccessor=4),
        3: BeginNode(next=2), 4: BeginNode(next=2),
    })
    assert canonicalize_data(g, 2).after == RefNode(next=4)


def test_if_equal_branches_to_ref():
    g = Graph({
        1: ParameterNode(0),
        2: IfNode(condition=1, trueSuccessor=3, falseSuccessor=3),
        3: BeginNode(next=2),
    })
    rw = canonicalize_data(g, 2)
    assert rw.rule == "if-equal-branches"
    assert rw.after == RefNode(next=3)


def test_if_rewrite_bypasses_condition_evaluation():
    # Branch rewrites skip the condition entirely. Conditions are
    # side-effect-free data, so skipping them never loses an observable
    # effect; it can only widen definedness (here: the original step is
    # stuck on an unevaluatable condition, the rewritten one proceeds).
    from seanode.controlflow import LocalConfig, StepStuck, step
    from seanode.runtime import DynamicHeap, MethodState
    g = Graph({
        0: StartNode(next=2),
        1: ValuePhiNode(1, values=(), merge=0),  # never latched: undefined
        2: IfNode(condition=1, trueSuccessor=3, falseSuccessor=3),
        3: BeginNode(next=4),
        4: ReturnNode(resultOpt=None),
    })
    cfg = LocalConfig(2, MethodState(), DynamicHeap())
    with pytest.raises(StepStuck):
        step(g, (), cfg)
    rw = canonicalize_data(g, 2)
    g2 = g.replace_node(rw.target, rw.after)
    assert step(g2, (), cfg).nid == 3


def test_dominators_on_diamond():
    g = Graph({
        0: StartNode(next=1),
        1: IfNode(condition=8, trueSuccessor=2, falseSuccessor=3),
        2: BeginNode(next=4),
        3: BeginNode(next=5),
        4: EndNode(),
        5: EndNode(),
        6: MergeNode(ends=(4, 5), next=7),
        7: ReturnNode(resultOpt=None),
        8: ParameterNode(0),
    })
    assert dominators(g) == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 3, 6: 1, 7: 6}


def test_dominators_on_a_loop_with_two_entries():
    # The cycle 4 -> 1 -> 3 -> 4 is entered at 4 and at 3, so the branch at 5
    # dominates all three; one pass in reverse postorder does not find that.
    g = Graph({
        0: StartNode(next=5),
        1: LoopBeginNode(ends=(2,), next=3),
        2: LoopEndNode(loopBegin=1),
        3: IfNode(condition=6, trueSuccessor=4, falseSuccessor=2),
        4: BeginNode(next=1),
        5: IfNode(condition=6, trueSuccessor=4, falseSuccessor=3),
        6: ParameterNode(0),
    })
    assert dominators(g) == {0: 0, 5: 0, 4: 5, 1: 5, 3: 5, 2: 3}


def _dominator_sets(g):
    """Oracle: the set-intersection fixpoint. Each node reachable from node 0
    maps to the set of nodes that dominate it."""
    seen, work, nodes = set(), [0], []
    while work:
        nid = work.pop()
        if nid in seen or nid not in g:
            continue
        seen.add(nid)
        nodes.append(nid)
        work.extend(reversed(cfg_successors(g, nid)))
    preds = {n: {m for m in nodes if n in cfg_successors(g, m)} for n in nodes}
    dom = {n: ({n} if n == 0 else set(nodes)) for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == 0:
                continue
            new = {n} | set.intersection(*(dom[p] for p in preds[n]))
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


# IfNode three times over, so that more of the graphs reach a join.
_CFG_KINDS = (IfNode, IfNode, IfNode, BeginNode, MergeNode, LoopBeginNode, EndNode,
              LoopEndNode, ReturnNode)


@st.composite
def _cfgs(draw):
    """Control flow over ids 0..n-1, node 0 a StartNode. A successor edge
    goes to the next id or to any id, so it may point back to node 0 or to
    the unmapped ids n and n + 1, and leave nodes unreachable; merges list
    end nodes (an end listed by two merges has none) and loop ends name loop
    begins (not always one that lists them)."""
    kinds = [StartNode] + draw(st.lists(st.sampled_from(_CFG_KINDS), min_size=3, max_size=15))
    mapped, anywhere = st.integers(0, len(kinds) - 1), st.integers(0, len(kinds) + 1)

    def pick(*ks):
        pool = [i for i, k in enumerate(kinds) if k in ks]
        return st.sampled_from(pool) if pool else anywhere

    nodes = {}
    for nid, kind in enumerate(kinds):
        target = st.one_of(st.just(nid + 1), mapped, anywhere)
        if kind in (StartNode, BeginNode):
            nodes[nid] = kind(next=draw(target))
        elif kind is IfNode:
            nodes[nid] = IfNode(condition=nid, trueSuccessor=draw(target),
                                falseSuccessor=draw(target))
        elif kind is ReturnNode:
            nodes[nid] = ReturnNode(resultOpt=None)
        elif kind is EndNode:
            nodes[nid] = EndNode()
        elif kind is LoopEndNode:
            nodes[nid] = LoopEndNode(loopBegin=draw(pick(LoopBeginNode)))
        else:
            ends = draw(st.lists(pick(EndNode, LoopEndNode), max_size=3, unique=True))
            nodes[nid] = kind(ends=ends, next=draw(target))
    return Graph(nodes)


@settings(max_examples=300, deadline=None)
@given(_cfgs())
def test_idom_chains_match_the_dominator_set_oracle(g):
    idom = dominators(g)
    oracle = _dominator_sets(g)
    assert idom.keys() == oracle.keys()
    for n in idom:
        chain = [n]
        while idom[chain[-1]] != chain[-1] and len(chain) <= len(idom):
            chain.append(idom[chain[-1]])
        assert set(chain) == oracle[n] and len(chain) == len(oracle[n])


def test_condelim_nested_duplicate():
    p = corpus("nested-duplicate-test")
    sig = p.resolve("nestedDup")
    g = p.graph(sig)
    g2, report = conditional_elimination(g)
    assert [rw.log_line() for rw in report.rewrites] == [
        "condelim-implied-branch @8: IfNode -> RefNode"
    ]
    assert g2.kind(8) == RefNode(next=10)
    verdict = behavior_diff(p, Program({sig: g2}), sig, Domain())
    assert verdict.status is Equivalence.EQUIVALENT


def test_condelim_walks_the_control_flow_once(monkeypatch):
    walks = []
    cfg = optimize_mod._cfg
    monkeypatch.setattr(optimize_mod, "_cfg", lambda g: walks.append(g) or cfg(g))
    (g,) = corpus("nested-duplicate-test").methods.values()
    conditional_elimination(g)
    assert len(walks) == 1


def test_condelim_keyed_by_node_id_too():
    # Shared condition node (same id) between both ifs.
    g = Graph({
        0: StartNode(next=4),
        1: ParameterNode(0),
        2: ParameterNode(1),
        3: IntegerLessThanNode(x=1, y=2),
        4: IfNode(condition=3, trueSuccessor=5, falseSuccessor=6),
        5: BeginNode(next=7),
        6: BeginNode(next=8),
        7: IfNode(condition=3, trueSuccessor=9, falseSuccessor=10),
        8: ReturnNode(resultOpt=1),
        9: BeginNode(next=11),
        10: BeginNode(next=12),
        11: ReturnNode(resultOpt=1),
        12: ReturnNode(resultOpt=2),
    })
    g2, report = conditional_elimination(g)
    assert g2.kind(7) == RefNode(next=9)
    assert len(report.rewrites) == 1


def test_condelim_false_branch_fact():
    g = Graph({
        0: StartNode(next=4),
        1: ParameterNode(0),
        2: ParameterNode(1),
        3: IntegerLessThanNode(x=1, y=2),
        4: IfNode(condition=3, trueSuccessor=5, falseSuccessor=6),
        5: ReturnNode(resultOpt=1),
        6: BeginNode(next=7),
        7: IfNode(condition=3, trueSuccessor=8, falseSuccessor=9),
        8: BeginNode(next=10),
        9: BeginNode(next=11),
        10: ReturnNode(resultOpt=1),
        11: ReturnNode(resultOpt=2),
    })
    g2, _ = conditional_elimination(g)
    assert g2.kind(7) == RefNode(next=9)  # fact says condition is false


def test_condelim_independent_conditions_untouched():
    (g,) = corpus("independent-conditions").methods.values()
    g2, report = conditional_elimination(g)
    assert report.rewrites == [] and report.fixpoint
    assert g2 == g


def test_condelim_straight_line_zero_rewrites():
    g = Graph({0: StartNode(next=1), 1: ReturnNode(resultOpt=None)})
    g2, report = conditional_elimination(g)
    assert report.rewrites == [] and report.fixpoint and g2 == g


def test_condelim_long_if_chain_is_iterative():
    # Straight-line tests of one parameter; every test after the first is
    # dominated by the true branch of the one before.
    passes = (conditional_elimination, lambda g: apply_pass(g, "all"))
    for length in (600, 5000):
        nodes = {0: StartNode(next=2), 1: ParameterNode(0)}
        ifs = []
        for i in range(length):
            nid = 2 + 3 * i
            nodes[nid] = IfNode(condition=1, trueSuccessor=nid + 1, falseSuccessor=nid + 2)
            nodes[nid + 1] = BeginNode(next=nid + 3)
            nodes[nid + 2] = ReturnNode(resultOpt=None)
            ifs.append(nid)
        nodes[2 + 3 * length] = ReturnNode(resultOpt=None)
        g = Graph(nodes)
        assert check(g).ok
        for run_pass in passes:
            start = time.perf_counter()
            g2, report = run_pass(g)
            assert time.perf_counter() - start < 2
            assert [rw.target for rw in report.rewrites] == ifs[1:]
            assert all(g2.kind(n) == RefNode(n + 1) for n in ifs[1:])


def test_apply_pass_factorial_already_canonical(fact_graph):
    g = fact_graph
    g2, report = apply_pass(g, "all")
    assert report.rewrites == [] and report.fixpoint
    assert g2 == g


def test_apply_pass_fold_chain():
    (g,) = corpus("canon-chain").methods.values()
    g2, report = apply_pass(g, "canonicalize")
    assert [rw.rule for rw in report.rewrites] == ["fold-add", "fold-mul"]
    assert report.fixpoint
    assert g2.kind(5) == ConstantNode(IntVal(5))
    assert check(g2).ok


def test_apply_pass_identity_chain_to_parameter():
    (g,) = corpus("identity-chain").methods.values()
    g2, report = apply_pass(g, "canonicalize")
    assert g2.kind(5) == ParameterNode(0)
    assert report.fixpoint


def test_apply_pass_requires_multiple_sweeps():
    # Mul at a lower id than the Add feeding it: the first sweep turns the
    # Mul into a copy of the Add, later sweeps fold both copies.
    g = Graph({
        0: StartNode(next=2),
        1: ConstantNode(IntVal(1)),
        2: ReturnNode(resultOpt=3),
        3: MulNode(x=5, y=1),
        4: ConstantNode(IntVal(2)),
        5: AddNode(x=4, y=6),
        6: ConstantNode(IntVal(3)),
    })
    g2, report = apply_pass(g, "canonicalize")
    assert report.iterations >= 3
    assert g2.kind(3) == ConstantNode(IntVal(5))
    assert g2.kind(5) == ConstantNode(IntVal(5))


def test_apply_pass_iteration_cap(monkeypatch):
    monkeypatch.setattr(optimize_mod, "_SWEEP_CAP", 1)
    g = Graph({
        0: StartNode(next=2),
        1: ConstantNode(IntVal(1)),
        2: ReturnNode(resultOpt=3),
        3: MulNode(x=5, y=1),
        4: ConstantNode(IntVal(2)),
        5: AddNode(x=4, y=6),
        6: ConstantNode(IntVal(3)),
    })
    with pytest.raises(IterationCapExceeded) as exc:
        apply_pass(g, "canonicalize")
    assert exc.value.report.rewrites  # partial report is attached


def test_apply_pass_unknown_name():
    with pytest.raises(ValueError):
        apply_pass(Graph({0: StartNode(next=0)}), "frobnicate")


def test_rewrites_never_delete_nodes():
    for path in CORPUS_FILES:
        for g in load(path).methods.values():
            for which in ("canonicalize", "condelim", "all"):
                g2, _ = apply_pass(g, which)
                assert g.ids() <= g2.ids(), (path.name, which)


def test_apply_pass_idempotent_at_fixpoint():
    for name in ("canon-chain", "identity-chain", "nested-duplicate-test"):
        (g,) = corpus(name).methods.values()
        g1, _ = apply_pass(g, "all")
        g2, report = apply_pass(g1, "all")
        assert report.rewrites == [] and g2 == g1


def test_pass_report_log_format():
    (g,) = corpus("canon-chain").methods.values()
    _, report = apply_pass(g, "canonicalize")
    assert report.log_lines()[0] == "fold-add @3: AddNode -> ConstantNode"


def _chain_rewrite(g, nid):
    """Oracle: the isinstance chain the rule declarations replaced, plus
    fold-sub. A forward that fails the purity guard ends the search at the
    node. Gives (rule, replacement) or None."""
    node = g.kind(nid)

    def c(i):
        n = g.kind(i)
        ok = isinstance(n, ConstantNode) and isinstance(n.const, IntVal)
        return n.const.value if ok else None

    def forward(i, rule):
        return (rule, g.kind(i)) if is_pure(g.kind(i)) else None

    def fold(rule, *ids):
        if any(c(i) is None for i in ids):
            return None
        return rule, ConstantNode(IntVal(type(node).OP(*(c(i) for i in ids))))

    if isinstance(node, NegateNode):
        if c(node.value) is not None:
            return fold("fold-negate", node.value)
        if isinstance(g.kind(node.value), NegateNode):
            return forward(g.kind(node.value).value, "negate-negate")
    elif isinstance(node, (AddNode, SubNode, MulNode, IntegerLessThanNode)):
        name = {AddNode: "add", SubNode: "sub", MulNode: "mul",
                IntegerLessThanNode: "less-than"}[type(node)]
        a, b = c(node.x), c(node.y)
        if a is not None and b is not None:
            return fold("fold-" + name, node.x, node.y)
        if isinstance(node, AddNode):
            if b == 0:
                return forward(node.x, "add-zero")
            if a == 0:
                return forward(node.y, "add-zero")
        if isinstance(node, MulNode):
            if 0 in (a, b):
                return "mul-zero", ConstantNode(IntVal(0))
            if b == 1:
                return forward(node.x, "mul-one")
            if a == 1:
                return forward(node.y, "mul-one")
    elif isinstance(node, ConditionalNode):
        k = c(node.condition)
        if k is not None:
            return forward(node.trueValue if k else node.falseValue, "conditional-constant")
        if node.trueValue == node.falseValue:
            return forward(node.trueValue, "conditional-equal-branches")
    elif isinstance(node, IfNode):
        k = c(node.condition)
        if k is not None:
            target = node.trueSuccessor if k else node.falseSuccessor
            return "if-constant-condition", RefNode(target)
        if node.trueSuccessor == node.falseSuccessor:
            return "if-equal-branches", RefNode(node.trueSuccessor)
    return None


# Inputs for the oracle comparison: constants 0, 1 and 3, an ObjRef constant,
# a parameter, a phi and an allocation (state leaves, not pure), negations of
# the parameter and of the phi, and the unmapped id 99.
_OPERANDS = {
    1: ConstantNode(IntVal(0)), 2: ConstantNode(IntVal(1)), 3: ConstantNode(IntVal(3)),
    4: ConstantNode(ObjRef(0)), 5: ParameterNode(0), 6: ValuePhiNode(6, values=(), merge=0),
    7: NewInstanceNode(7, "C", next=0), 8: NegateNode(value=5), 9: NegateNode(value=6),
}


def test_first_match_over_declarations_equals_the_chain_it_replaced():
    ids = (*_OPERANDS, 99)
    cases = 0
    for kind in (NegateNode, AddNode, SubNode, MulNode, IntegerLessThanNode,
                 ConditionalNode, IfNode):
        if kind is IfNode:
            shapes = [IfNode(condition=c, trueSuccessor=t, falseSuccessor=f)
                      for c in ids for t in (30, 31) for f in (30, 31)]
        else:
            shapes = [kind(*args) for args in itertools.product(ids, repeat=len(kind.INPUTS))]
        for node in shapes:
            g = Graph({**_OPERANDS, 20: node})
            rw = canonicalize_data(g, 20)
            assert (rw and (rw.rule, rw.after)) == _chain_rewrite(g, 20), node
            cases += 1
    # Forwards that fail the guard were reached, and fell through to None.
    assert canonicalize_data(Graph({**_OPERANDS, 20: AddNode(x=6, y=1)}), 20) is None
    assert canonicalize_data(Graph({**_OPERANDS, 20: NegateNode(value=9)}), 20) is None
    assert cases > 1000


def test_each_arithmetic_kind_has_one_fold_named_after_its_operation():
    folds = {r.name: r.kind for r in RULES if r.name.startswith("fold-")}
    assert folds == {"fold-negate": NegateNode, "fold-add": AddNode, "fold-sub": SubNode,
                     "fold-mul": MulNode, "fold-less-than": IntegerLessThanNode}
    assert {k for k in NODE_KINDS.values() if k.OP} == set(folds.values())
    assert len({r.name for r in RULES}) == len(RULES)


def test_fold_equals_evaluation_over_the_boundary_domain():
    values = with_boundary_values(Domain()).int_values
    for kind in (k for k in NODE_KINDS.values() if k.OP):
        for args in itertools.product(values, repeat=len(kind.INPUTS)):
            nodes = {i + 1: ConstantNode(IntVal(v)) for i, v in enumerate(args)}
            g = Graph({**nodes, 10: kind(*nodes)})
            rw = canonicalize_data(g, 10)
            assert rw.rule.startswith("fold-") and isinstance(rw.after, ConstantNode)
            assert rw.after.const == eval_at(g, 10), (kind, args)
    g = Graph({1: ConstantNode(IntVal(INT_MIN)), 2: ConstantNode(IntVal(1)), 3: SubNode(x=1, y=2)})
    rw = canonicalize_data(g, 3)
    assert (rw.rule, rw.after) == ("fold-sub", ConstantNode(IntVal(INT_MAX)))


def test_canonicalize_sweep_is_linear_on_a_fold_chain():
    # Node 3 + i is AddNode(prev, 1); each fold makes the next one foldable,
    # so one sweep folds the whole chain and a second finds nothing.
    n = 32_000
    nodes = {0: StartNode(next=1), 1: ReturnNode(resultOpt=n - 1), 2: ConstantNode(IntVal(1))}
    for nid in range(3, n):
        nodes[nid] = AddNode(x=nid - 1, y=2)
    g = Graph(nodes)
    start = time.perf_counter()
    g2, report = apply_pass(g, "canonicalize")
    assert time.perf_counter() - start < 2
    assert report.iterations == 2 and len(report.rewrites) == n - 3
    assert g2.kind(n - 1) == ConstantNode(IntVal(n - 2))


def test_a_sweep_without_rewrites_returns_the_same_graph(fact_graph):
    g = fact_graph
    users = g.usages(1)
    for which in PASS_NAMES:
        g2, report = apply_pass(g, which)
        assert g2 is g and report.rewrites == []
    assert g.usages(1) == users
