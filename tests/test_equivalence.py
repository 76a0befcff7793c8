import random
import time

import pytest

from genutil import (
    DATA_RULES, DOUBLING_SIG, STUCK_PHI_SIG, doubling_dag, gen_rule_case, negate_chain,
    stuck_phi_program,
)
from seanode.corpus import (
    IFTRUE_SIG, SPIN_SIG, FACT_SIG, factorial, if_const_true, spin,
)
from seanode.dataflow import EvalContext, evaluate
from seanode.equivalence import (
    CyclicExpression, Domain, Equivalence, behavior_diff, data_equiv,
    free_leaves, with_boundary_values,
)
from seanode.ir import (
    AddNode, ConstantNode, Graph, IfNode, MulNode, ParameterNode, Program,
    RefNode, ReturnNode, StartNode, StoreFieldNode, SubNode, ValuePhiNode,
)
from seanode.optimize import apply_pass, apply_rewrite, canonicalize_data
from seanode.runtime import INT_MAX, INT_MIN, IntVal, MethodState


def test_domain_defaults():
    dom = Domain()
    assert dom.int_values == (-2, -1, 0, 1, 2)
    assert with_boundary_values(dom).int_values == (-2, -1, 0, 1, 2, INT_MIN, INT_MAX)


def test_free_leaves_union_of_params_and_slots():
    g = Graph({
        1: ParameterNode(0),
        2: ValuePhiNode(2, values=(), merge=0),
        3: AddNode(x=1, y=2),
        4: ConstantNode(IntVal(3)),
        5: MulNode(x=3, y=4),
    })
    assert free_leaves(g, 5) == ({0}, {2})


def test_cyclic_expression_detected():
    g = Graph({1: AddNode(x=2, y=2), 2: AddNode(x=1, y=1)})
    with pytest.raises(CyclicExpression):
        free_leaves(g, 1)
    with pytest.raises(CyclicExpression):
        data_equiv(g, g, 1)


def test_free_leaves_deep_chain_is_iterative():
    start = time.perf_counter()
    leaves = free_leaves(negate_chain(3000), 2)
    assert time.perf_counter() - start < 5
    assert leaves == ({0}, set())


def test_shared_dag_gets_a_verdict_in_bounded_time():
    # p0 * 2**60 wraps to 0: 60 levels of AddNode(prev, prev) equal the constant 0.
    dag = doubling_dag(60)
    g = dag.graph(DOUBLING_SIG)
    root = g.kind(1).resultOpt
    zero = g.replace_node(root, ConstantNode(IntVal(0)))
    one = g.replace_node(root, ConstantNode(IntVal(1)))
    dom = with_boundary_values(Domain())
    start = time.perf_counter()
    assert data_equiv(g, zero, root, dom).status is Equivalence.EQUIVALENT
    assert data_equiv(g, one, root, dom).status is Equivalence.NOT_EQUIVALENT
    assert behavior_diff(dag, Program({DOUBLING_SIG: zero}), DOUBLING_SIG,
                         dom).status is Equivalence.EQUIVALENT
    assert time.perf_counter() - start < 2


def test_sub_refuted_against_add():
    g1 = Graph({1: ParameterNode(0), 2: ParameterNode(1), 3: SubNode(x=1, y=2)})
    g2 = Graph({1: ParameterNode(0), 2: ParameterNode(1), 3: AddNode(x=1, y=2)})
    verdict = data_equiv(g1, g2, 3)
    assert verdict.status is Equivalence.NOT_EQUIVALENT
    p0, p1 = verdict.witness.param_assignment
    assert verdict.witness.left == IntVal(p0.value - p1.value)
    assert verdict.witness.right == IntVal(p0.value + p1.value)


def test_add_zero_equivalent_to_forwarded_parameter():
    g1 = Graph({1: ParameterNode(0), 2: ConstantNode(IntVal(0)), 3: AddNode(x=1, y=2)})
    g2 = g1.replace_node(3, ParameterNode(0))
    verdict = data_equiv(g1, g2, 3)
    assert verdict.status is Equivalence.EQUIVALENT
    assert verdict.samples_tried == 5  # exhaustive over one leaf


def test_distinct_constants_not_equivalent_with_replayable_witness():
    g1 = Graph({3: ConstantNode(IntVal(1))})
    g2 = Graph({3: ConstantNode(IntVal(2))})
    verdict = data_equiv(g1, g2, 3)
    assert verdict.status is Equivalence.NOT_EQUIVALENT
    w = verdict.witness
    assert w is not None
    state = MethodState(dict(w.state_assignment))
    left = evaluate(EvalContext(g1, state, w.param_assignment), 3)
    right = evaluate(EvalContext(g2, state, w.param_assignment), 3)
    assert (left, right) == (w.left, w.right)
    assert left != right


def test_reflexivity():
    g = Graph({1: ParameterNode(0), 2: ConstantNode(IntVal(0)), 3: AddNode(x=1, y=2)})
    verdict = data_equiv(g, g, 3)
    assert verdict.status is Equivalence.EQUIVALENT


def test_both_stuck_identically_counts_as_equal():
    g1 = Graph({3: StartNode(next=3)})
    g2 = Graph({3: StartNode(next=3)})
    assert data_equiv(g1, g2, 3).status is Equivalence.EQUIVALENT


def test_stuck_versus_value_is_not_equivalent():
    g1 = Graph({3: StartNode(next=3)})
    g2 = Graph({3: ConstantNode(IntVal(0))})
    verdict = data_equiv(g1, g2, 3)
    assert verdict.status is Equivalence.NOT_EQUIVALENT
    assert str(verdict.witness.left).startswith("stuck:")


def test_symmetry_over_generated_rewrites():
    rng = random.Random(5)
    for rule in DATA_RULES:
        case = gen_rule_case(rule, rng)
        rw = canonicalize_data(case.graph, case.nid)
        g2 = apply_rewrite(case.graph, rw)
        a = data_equiv(case.graph, g2, case.nid)
        b = data_equiv(g2, case.graph, case.nid)
        assert a.status == b.status == Equivalence.EQUIVALENT


def test_determinism_of_verdicts():
    g1 = Graph({1: ParameterNode(0), 2: ConstantNode(IntVal(0)), 3: AddNode(x=1, y=2)})
    g2 = g1.replace_node(3, ParameterNode(0))
    dom = Domain()
    v1, v2 = data_equiv(g1, g2, 3, dom), data_equiv(g1, g2, 3, dom)
    assert (v1.status, v1.samples_tried) == (v2.status, v2.samples_tried)


def test_large_leaf_count_uses_reduced_product_plus_samples(monkeypatch):
    # Seven leaves over ten values would exceed the exhaustive cap; the
    # checker falls back to a reduced exhaustive product plus seeded random
    # draws. The cap is lowered here to keep the test fast.
    import seanode.equivalence as eq_mod
    monkeypatch.setattr(eq_mod, "_EXHAUSTIVE_CAP", 1000)
    monkeypatch.setattr(eq_mod, "_RANDOM_SAMPLES", 64)
    nodes = {i: ParameterNode(i - 1) for i in range(1, 8)}
    acc = 1
    nid = 8
    for i in range(2, 8):
        nodes[nid] = AddNode(x=acc, y=i)
        acc = nid
        nid += 1
    g1 = Graph(nodes)
    g2 = Graph({**nodes, acc: AddNode(x=nodes[acc].x, y=nodes[acc].y)})
    dom = Domain(int_values=tuple(range(-5, 5)))
    verdict = data_equiv(g1, g2, acc, dom)
    assert verdict.status is Equivalence.EQUIVALENT
    # reduced width is floor(1000 ** (1/7)) = 2, so 2^7 plus 64 samples
    assert verdict.samples_tried == 2 ** 7 + 64
    again = data_equiv(g1, g2, acc, dom)
    assert again.samples_tried == verdict.samples_tried


def test_behavior_diff_program_vs_itself():
    p = factorial()
    verdict = behavior_diff(p, p, FACT_SIG, Domain(int_values=tuple(range(0, 6))))
    assert verdict.status is Equivalence.EQUIVALENT
    assert verdict.samples_tried == 6


def test_behavior_diff_optimized_factorial():
    p = factorial()
    g2, _ = apply_pass(p.graph(FACT_SIG), "all")
    verdict = behavior_diff(p, Program({FACT_SIG: g2}), FACT_SIG,
                            Domain(int_values=tuple(range(0, 7))))
    assert verdict.status is Equivalence.EQUIVALENT


def test_behavior_diff_broken_if_rewrite():
    p = if_const_true()
    g = p.graph(IFTRUE_SIG)
    node = g.kind(3)
    broken = Program({IFTRUE_SIG: g.replace_node(3, RefNode(next=node.falseSuccessor))})
    verdict = behavior_diff(p, broken, IFTRUE_SIG, Domain())
    assert verdict.status is Equivalence.NOT_EQUIVALENT
    assert verdict.witness is not None


def test_behavior_diff_out_of_fuel_is_inconclusive():
    p = spin()
    verdict = behavior_diff(p, p, SPIN_SIG, Domain(), fuel=500)
    assert verdict.status is Equivalence.INCONCLUSIVE


def _store_program(order):
    from seanode.ir import Signature
    first, second = order
    nodes = {
        0: StartNode(next=2),
        1: ConstantNode(IntVal(7)),
        2: StoreFieldNode(selfId=2, field=first, value=1, objectOpt=None, next=3),
        3: StoreFieldNode(selfId=3, field=second, value=1, objectOpt=None, next=4),
        4: ReturnNode(resultOpt=None),
    }
    sig = Signature("T", "stores", ())
    return Program({sig: Graph(nodes)}), sig


def test_behavior_diff_sensitive_to_store_order():
    p1, sig = _store_program(("a", "b"))
    p2, _ = _store_program(("b", "a"))
    verdict = behavior_diff(p1, p2, sig, Domain())
    assert verdict.status is Equivalence.NOT_EQUIVALENT


def test_behavior_diff_missing_method():
    p = factorial()
    with pytest.raises(KeyError):
        behavior_diff(p, p, SPIN_SIG, Domain())


def test_behavior_diff_on_a_stuck_phi_update_gives_a_verdict():
    program = stuck_phi_program()
    verdict = behavior_diff(program, program, STUCK_PHI_SIG)
    assert verdict.status is Equivalence.EQUIVALENT
