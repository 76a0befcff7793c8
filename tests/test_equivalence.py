import contextlib
import hashlib
import itertools
import random
import signal
import time
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import reference
import seanode.equivalence as eq_mod
from conftest import REPO, corpus
from genutil import (
    CHAIN_SIG, DATA_RULES, DOUBLING_SIG, OPERATIONS, STUCK_PHI_SIG, build, conditional_chain,
    damage_bases, damaged_graph, doubling_dag, gen_rule_case, negate_chain, replace,
    stuck_phi_program,
)
from seanode.dataflow import (
    PARAM, CyclicExpression, EvalContext, EvalStuck, evaluate, evaluate_lanes,
)
from seanode.equivalence import (
    Domain, Equivalence, EquivVerdict, Witness, behavior_diff, data_equiv,
    with_boundary_values,
)
from seanode.fileformat import loads
from seanode.interproc import run
from seanode.ir import (
    NODE_KINDS, AddNode, ConditionalNode, ConstantNode, Graph, IntegerLessThanNode, MulNode,
    NegateNode, ParameterNode, Program, RefNode, ReturnNode, Signature, StartNode,
    StoreFieldNode, SubNode, ValuePhiNode, ValueProxyNode, is_data,
)
from seanode.optimize import apply_pass, canonicalize_data
from seanode.runtime import INT_MAX, INT_MIN, UNDEF, IntVal, MethodState, ObjRef, wrap32
from seanode.wellformed import check


def test_domain_defaults():
    dom = Domain()
    assert dom.int_values == (-2, -1, 0, 1, 2)
    assert with_boundary_values(dom).int_values == (-2, -1, 0, 1, 2, INT_MIN, INT_MAX)


@pytest.mark.parametrize("values", [(1, True), (0, 1.0), ("2",)])
def test_domain_rejects_values_that_are_not_ints(values):
    with pytest.raises(ValueError, match="not a 32-bit integer"):
        Domain(values)


@pytest.mark.parametrize("values", [(2 ** 40,), (0, INT_MAX + 1), (INT_MIN - 1,)])
def test_domain_rejects_values_outside_32_bits(values):
    with pytest.raises(ValueError, match="not a 32-bit integer"):
        Domain(values)


def test_domain_rejects_repeated_values():
    with pytest.raises(ValueError, match="repeat"):
        Domain((1, 1, 1))
    assert with_boundary_values(Domain((INT_MIN, -1))).int_values == (INT_MIN, -1, INT_MAX)


def test_a_witness_assigns_every_param_and_slot_below_the_target():
    g = Graph({
        1: ParameterNode(0),
        2: ValuePhiNode(2, values=(), merge=0),
        3: AddNode(x=1, y=2),
        4: ConstantNode(IntVal(3)),
        5: MulNode(x=3, y=4),
        # Both arms count; the proxy's anchor edge to parameter 2 does not.
        6: ParameterNode(1),
        7: ValuePhiNode(7, values=(), merge=0),
        8: ConditionalNode(4, 6, 7),
        9: ParameterNode(2),
        10: ValueProxyNode(value=8, loopExit=9),
        11: AddNode(x=5, y=10),
    })
    # Refuted on the first assignment, all -2: a parameter not assigned would
    # read 0, and a slot not assigned would be missing.
    two = IntVal(-2)
    for nid, params, slots in ((5, (two,), ((2, two),)), (11, (two, two), ((2, two), (7, two)))):
        verdict = data_equiv(g, g.replace_node(nid, ConstantNode(IntVal(0))), nid)
        assert (verdict.status, verdict.samples_tried) == (Equivalence.NOT_EQUIVALENT, 1)
        assert (verdict.witness.param_assignment, verdict.witness.state_assignment) == (
            params, slots)


@contextlib.contextmanager
def _interrupted_after(seconds: float):
    """Raise TimeoutError in the body after seconds, so a run that never
    returns fails the test instead of holding it."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_cyclic_expression_detected():
    g = Graph({1: AddNode(x=2, y=2), 2: AddNode(x=1, y=1)})
    with pytest.raises(CyclicExpression):
        data_equiv(g, g, 1)
    # A cycle through an arm is in no schedule: only running the arm meets it.
    arm = Graph({1: ParameterNode(0), 2: ConditionalNode(1, 3, 1), 3: NegateNode(2)})
    ctx = EvalContext(arm, MethodState(), (IntVal(1),))
    runs = (lambda: evaluate(ctx, 2), lambda: data_equiv(arm, arm, 2),
            lambda: evaluate_lanes(arm, 2, 2, {0: [0, 1]}, {}))
    for attempt in runs:
        with pytest.raises(CyclicExpression, match="^@2: expression has a cycle through its "
                           "value edges$"), _interrupted_after(1.0):
            attempt()
    assert ("wf_acyclic", 2) in {(v.rule, v.nid) for v in check(arm).violations}


def test_a_value_edge_cycle_is_raised_at_the_node_met_again():
    # 1 -> 2 -> 1: the walk from 1 meets 1 again on its own path.
    g = Graph({1: AddNode(x=2, y=2), 2: AddNode(x=1, y=1)})
    with pytest.raises(CyclicExpression) as e:
        data_equiv(g, g, 1)
    assert e.value.nid == 1


def test_a_cycle_in_the_second_graph_only_raises():
    g = Graph({1: _P0, 2: NegateNode(value=1), 3: AddNode(x=2, y=1)})
    cyclic = g.replace_node(2, NegateNode(value=3))
    assert data_equiv(g, g, 3).proved
    for _ in range(2):  # and the records of a walk that raised do not hide it
        with pytest.raises(CyclicExpression) as e:
            data_equiv(g, cyclic, 3)
        assert e.value.nid == 3


def test_a_cycle_only_in_an_arm_a_constant_condition_never_chooses_raises():
    # The false arm, never chosen, reads the conditional: 4 -> 3 -> 4.
    g = Graph({1: _c(1), 2: _P0, 3: NegateNode(value=4), 4: ConditionalNode(1, 2, 3)})
    same = g.replace_node(4, _P0)
    with pytest.raises(CyclicExpression) as e:
        data_equiv(g, same, 4)
    assert e.value.nid == 4
    assert evaluate_lanes(g, 4, 1, {0: [5]}, {}) == [5]  # evaluation never meets it


def test_a_deep_chain_is_refuted_in_bounded_time():
    g = negate_chain(3000)  # p0 negated 3,000 times
    start = time.perf_counter()
    verdict = data_equiv(g, g.replace_node(2, ConstantNode(IntVal(0))), 2)
    assert time.perf_counter() - start < 5
    assert (verdict.status, verdict.samples_tried) == (Equivalence.NOT_EQUIVALENT, 1)
    assert (verdict.witness.param_assignment, verdict.witness.state_assignment) == (
        (IntVal(-2),), ())


# The sha256 of the outcomes below, joined by newlines.
DAMAGED_SHA256 = "50374c3a10a6066ceaacdffb289bc34e558c6ea5b60b7d42a0f37fcd94c62871"


def test_damaged_graphs_get_a_verdict_or_a_cycle_from_data_equiv():
    # Every data node of each damaged graph, against the graph itself (whose
    # records earlier calls keep), a fresh copy and the node replaced by 0.
    # Where every value input is a node id, the cycle raised is the first
    # one the reference walk meets, arms included.
    bases = damage_bases()
    texts = []
    for seed in range(1500):
        g = damaged_graph(bases[seed % len(bases)], random.Random(seed))
        ids = all(type(getattr(node, name)) is int
                  for _, node in g.items() for name in node.VALUE_EDGES)
        for nid in sorted(nid for nid, node in g.items() if is_data(node)):
            for right in (g, Graph(dict(g.items())), g.replace_node(nid, _c(0))):
                try:
                    verdict = data_equiv(g, right, nid)
                except CyclicExpression as e:
                    texts.append(str(e))
                    if ids:
                        assert e.nid == reference.first_cycle(g, (nid,), set(), arms=True)
                else:
                    assert type(verdict) is EquivVerdict
                    texts.append(str(verdict))
    assert len(texts) == 37_842
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == DAMAGED_SHA256


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
        g2 = case.graph.replace_node(rw.target, rw.after)
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
    p = corpus("factorial")
    verdict = behavior_diff(p, p, p.resolve("fact"), Domain(int_values=tuple(range(0, 6))))
    assert verdict.status is Equivalence.EQUIVALENT
    assert verdict.samples_tried == 6


def test_behavior_diff_optimized_factorial():
    p = corpus("factorial")
    sig = p.resolve("fact")
    g2, _ = apply_pass(p.graph(sig), "all")
    verdict = behavior_diff(p, Program({sig: g2}), sig,
                            Domain(int_values=tuple(range(0, 7))))
    assert verdict.status is Equivalence.EQUIVALENT


def test_behavior_diff_broken_if_rewrite():
    p = corpus("if-const-true")
    sig = p.resolve("constTrue")
    g = p.graph(sig)
    node = g.kind(3)
    broken = Program({sig: g.replace_node(3, RefNode(next=node.falseSuccessor))})
    verdict = behavior_diff(p, broken, sig, Domain())
    assert verdict.status is Equivalence.NOT_EQUIVALENT
    assert verdict.witness is not None


def test_behavior_diff_out_of_fuel_is_inconclusive():
    p = corpus("spin")
    verdict = behavior_diff(p, p, p.resolve("spin"), Domain(), fuel=500)
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
    p = corpus("factorial")
    with pytest.raises(KeyError):
        behavior_diff(p, p, corpus("spin").resolve("spin"), Domain())


@pytest.mark.parametrize("side", ("left", "right"))
def test_behavior_diff_missing_method_on_either_side(side):
    # fact is in factorial only; loop-sum has another method.
    fact = corpus("factorial")
    p1, p2 = (corpus("loop-sum"), fact) if side == "left" else (fact, corpus("loop-sum"))
    with pytest.raises(KeyError, match=f"not present in the {side} program"):
        behavior_diff(p1, p2, fact.resolve("fact"), Domain())


def test_behavior_diff_on_a_stuck_phi_update_gives_a_verdict():
    program = stuck_phi_program()
    verdict = behavior_diff(program, program, STUCK_PHI_SIG)
    assert verdict.status is Equivalence.EQUIVALENT


def _timed(f, *args):
    start = time.perf_counter()
    result = f(*args)
    assert time.perf_counter() - start < 2
    return result


@pytest.mark.parametrize("chain", [negate_chain, conditional_chain])
def test_deep_chains_get_classified_results_in_bounded_time(chain):
    # 10,000 negations, or conditionals nested through their true arms:
    # either way node 2 computes p0, as the parameter itself does.
    g = chain(10_000)
    same = g.replace_node(2, ParameterNode(0))
    assert _timed(run, Program({CHAIN_SIG: g}), CHAIN_SIG, [IntVal(-7)]).value == IntVal(-7)
    verdict = _timed(data_equiv, g, same, 2)
    assert (verdict.status, verdict.samples_tried) == (Equivalence.EQUIVALENT, 5)
    verdict = _timed(behavior_diff, Program({CHAIN_SIG: g}), Program({CHAIN_SIG: same}), CHAIN_SIG)
    assert verdict.status is Equivalence.EQUIVALENT


def test_an_arm_no_lane_chooses_never_runs():
    # A constant condition over a 20,000-node dead arm that reads four
    # parameters: 7 ** 4 lanes, every one choosing the live arm p0 + p1.
    nodes = {1 + i: ParameterNode(i) for i in range(4)}
    nodes[5] = ConstantNode(IntVal(1))
    nodes[6] = AddNode(x=1, y=2)
    nodes[7] = AddNode(x=3, y=4)
    dead = 7 + 20_000 - 1
    for nid in range(8, dead + 1):
        nodes[nid] = AddNode(x=nid - 1, y=1 + nid % 4)
    root = dead + 1
    g = Graph({**nodes, root: ConditionalNode(condition=5, trueValue=6, falseValue=dead)})
    folded = g.replace_node(root, AddNode(x=1, y=2))
    verdict = _timed(data_equiv, g, folded, root, with_boundary_values(Domain()))
    assert (verdict.status, verdict.samples_tried) == (Equivalence.EQUIVALENT, 7 ** 4)

    # The dead arm alone reads p2 and p3: their columns are never read.
    class Watched(dict):
        def __getitem__(self, index):
            read.add(index)
            return super().__getitem__(index)

    read = set()
    params = Watched({i: [i, -i] for i in range(4)})
    assert evaluate_lanes(g, root, 2, params, {}) == [1, -1]
    assert read == {0, 1}


# Differential property: the column-wise data_equiv against data_equiv
# written one assignment at a time over the reference semantics, kept here
# as the oracle.

def _outcome(g, state, params, nid):
    try:
        return reference.evaluate(g, state, params, (nid,))[0]
    except EvalStuck as e:
        return f"stuck:{type(e).__name__}"


def _data_equiv_one_by_one(g1, g2, nid, dom):
    p1, s1 = reference.leaves(g1, nid)
    p2, s2 = reference.leaves(g2, nid)
    param_keys = sorted(p1 | p2)
    slot_keys = sorted(s1 | s2)
    arity = max(param_keys) + 1 if param_keys else 0
    tried = 0
    _, stream = eq_mod._assignments(dom, len(param_keys) + len(slot_keys))
    for raw in stream:
        tried += 1
        vals = [IntVal(v) for v in raw]
        params = [IntVal(0)] * arity
        for index, v in zip(param_keys, vals):
            params[index] = v
        slots = tuple(zip(slot_keys, vals[len(param_keys):]))
        state = MethodState(dict(slots))
        left = _outcome(g1, state, tuple(params), nid)
        right = _outcome(g2, state, tuple(params), nid)
        if left != right:
            witness = Witness(slots, tuple(params), left, right)
            return EquivVerdict(Equivalence.NOT_EQUIVALENT, witness, tried)
    return EquivVerdict(Equivalence.EQUIVALENT, None, tried)


def _is_guard(node):
    return isinstance(node, ConditionalNode) and 6 in (node.trueValue, node.falseValue)


@st.composite
def _expression(draw, inputs, nodes):
    # Favouring the latest nodes makes deeper expressions. A guard tests a
    # comparison or a parameter or slot, which vary across lanes (the domain
    # holds 0), and a condition reads an earlier guard when there is one:
    # a condition that is an int on some lanes and stuck on the others.
    pick = st.one_of(st.sampled_from(inputs[-3:]), st.sampled_from(inputs))
    guards = [n for n in inputs if _is_guard(nodes[n])]
    cond = st.sampled_from(guards) if guards else pick
    lts = [n for n in inputs if isinstance(nodes[n], IntegerLessThanNode)]
    guard_cond = st.sampled_from(lts + [1, 2, 3, 4])
    kind = draw(st.sampled_from(["guard", "guard", *OPERATIONS]))
    if kind == "guard":  # one arm stuck wherever it is chosen
        arms = draw(st.permutations([draw(pick), 6]))
        return ConditionalNode(condition=draw(guard_cond), trueValue=arms[0], falseValue=arms[1])
    return build(kind, lambda name: draw(cond if name == "condition" else pick))


@st.composite
def _graph_pairs(draw):
    """Two expression graphs over the same ids, and the root they share:
    the second is the first canonicalized, or with some of its nodes drawn
    again."""
    # The leaves: two parameters, two state slots, a constant that may not
    # be an integer, and a node with no evaluation rule (stuck wherever it
    # is evaluated).
    nodes = {
        1: ParameterNode(0),
        2: ParameterNode(1),
        3: ValuePhiNode(3, values=(), merge=0),
        4: ValuePhiNode(4, values=(), merge=0),
        5: ConstantNode(draw(st.sampled_from(
            [IntVal(0), IntVal(1), IntVal(-3), IntVal(INT_MAX), ObjRef(0), UNDEF]))),
        6: StartNode(next=6),
    }
    count = draw(st.integers(2, 8))
    for nid in range(7, 7 + count):
        nodes[nid] = draw(_expression(list(nodes), nodes))
    g = Graph(nodes)
    if draw(st.booleans()):
        return g, apply_pass(g, "canonicalize")[0], 6 + count
    for nid in sorted(draw(st.sets(st.integers(7, 6 + count), max_size=2))):
        nodes[nid] = draw(_expression(list(range(1, nid)), nodes))
    return g, Graph(nodes), 6 + count


def _unstuck(g):
    """g with p0 in place of every arm that is stuck wherever it is chosen:
    equal to g on the assignments that choose none."""
    def arm(a):
        return 1 if a == 6 else a
    return Graph({nid: ConditionalNode(node.condition, arm(node.trueValue), arm(node.falseValue))
                  if isinstance(node, ConditionalNode) else node for nid, node in g.items()})


@given(_graph_pairs(),
       st.lists(st.sampled_from([-2, -1, 0, 1, 2, INT_MIN, INT_MAX]),
                min_size=1, max_size=4, unique=True),
       st.integers(1, 70), st.booleans())
def test_differential_column_wise_data_equiv_matches_one_by_one(pair, values, chunk, sampled):
    g1, g2, root = pair
    dom = Domain(tuple(values) if 0 in values else (0, *values))
    patches = {"_CHUNK": chunk}
    if sampled:  # past the cap: a reduced product, then seeded draws
        patches.update(_EXHAUSTIVE_CAP=4, _RANDOM_SAMPLES=6)
    with mock.patch.multiple(eq_mod, **patches):
        # Against a root stuck on every lane, the first lane where g1 is not
        # stuck is the witness, so each lane's stuck-or-value is checked too.
        stuck = g1.replace_node(root, g1.kind(6))
        for left, right in ((g1, g2), (g2, g1), (g1, _unstuck(g1)), (g1, stuck)):
            assert data_equiv(left, right, root, dom) == _data_equiv_one_by_one(
                left, right, root, dom)


# Differential property: data_equiv on graphs that keep the records of
# earlier calls, made with other targets and other partners, against
# data_equiv on fresh copies of the same graphs.

@given(_graph_pairs(), st.data())
def test_differential_cached_forms_do_not_change_verdicts(pair, data):
    g1, g2, root = pair
    graphs = [g1, g2, _unstuck(g1), g1.replace_node(root, g1.kind(6))]
    values = data.draw(st.lists(st.sampled_from([-2, -1, 0, 1, 2, INT_MIN, INT_MAX]),
                                min_size=1, max_size=4, unique=True))
    dom = Domain(tuple(values))
    # Both sides drawn from the four graphs, so a graph meets partners whose
    # records were numbered from another table; and now and then past the
    # cap, where the leaf bound is another.
    side = st.sampled_from(range(len(graphs)))
    calls = st.lists(st.tuples(side, side, st.integers(1, root), st.booleans()),
                     min_size=1, max_size=12)
    for left, right, nid, sampled in data.draw(calls):
        warm = graphs[left], graphs[right]
        fresh = [Graph(dict(g.items())) for g in warm]
        with (mock.patch.multiple(eq_mod, _EXHAUSTIVE_CAP=4, _RANDOM_SAMPLES=6) if sampled
              else contextlib.nullcontext()):
            got, want = data_equiv(*warm, nid, dom), data_equiv(*fresh, nid, dom)
        assert (got.status, got.witness, got.samples_tried, got.proved) == (
            want.status, want.witness, want.samples_tried, want.proved), (left, right, nid)


# -- proofs by normal form -------------------------------------------------

def _c(v):
    return ConstantNode(v if not isinstance(v, int) else IntVal(v))


_P0, _P1 = ParameterNode(0), ParameterNode(1)


@pytest.mark.parametrize("values, k, cap, samples", [
    ((-1, 0, 1), 0, 10 ** 6, 256),
    ((-1, 0, 1), 4, 10 ** 6, 256),
    (tuple(range(-5, 5)), 7, 1000, 64),  # past the cap: 2 ** 7 plus the draws
    (tuple(range(-5, 5)), 3, 999, 5),
])
def test_the_assignment_stream_is_as_long_as_it_says(monkeypatch, values, k, cap, samples):
    monkeypatch.setattr(eq_mod, "_EXHAUSTIVE_CAP", cap)
    monkeypatch.setattr(eq_mod, "_RANDOM_SAMPLES", samples)
    count, stream = eq_mod._assignments(Domain(values), k)
    tuples = list(stream)
    assert len(tuples) == count and tuples == list(eq_mod._assignments(Domain(values), k)[1])
    assert all(len(t) == k and set(t) <= set(values) for t in tuples)


def test_a_proof_covers_the_assignments_sampling_would_try():
    g1 = Graph({1: _P0, 2: _P1, 3: NegateNode(value=2), 4: SubNode(x=1, y=2),
                5: AddNode(x=1, y=3)})
    g2 = g1.replace_node(5, SubNode(x=1, y=2))
    verdict = data_equiv(g1, g2, 5)
    assert (verdict.status, verdict.witness, verdict.samples_tried, verdict.proved) == (
        Equivalence.EQUIVALENT, None, 25, True)
    # proved does not take part in comparing verdicts.
    assert verdict == EquivVerdict(Equivalence.EQUIVALENT, None, 25)


def test_a_proved_verdict_prints_as_a_proof():
    g1 = Graph({1: _P0, 2: _P1, 3: NegateNode(value=2), 5: AddNode(x=1, y=3)})
    verdict = data_equiv(g1, g1.replace_node(5, SubNode(x=1, y=2)), 5)
    assert str(verdict) == "Equivalent (proved; covers 25 assignments)"
    # A verdict from trying assignments prints as it always has.
    assert str(EquivVerdict(Equivalence.EQUIVALENT, None, 25)) == (
        "Equivalent (25 assignments tried)")
    refuted = data_equiv(g1, g1.replace_node(5, AddNode(x=1, y=2)), 5)
    assert str(refuted) == ("NotEquivalent (1 assignments tried) witness "
                            "m={} p=[IntVal -2, IntVal -2]: left=IntVal 0, right=IntVal -4")


def test_an_unchosen_arm_with_no_form_counts_its_leaves_and_does_not_block_the_proof():
    nodes = {1: _c(1), 2: _P0, 3: _P1}
    high = _square(nodes, 3, 10)  # p1 ** 1024: past the degree cap
    root = high + 1
    g = Graph({**nodes, root: ConditionalNode(1, 2, high)})
    verdict = data_equiv(g, g.replace_node(root, _P0), root)
    assert (verdict.proved, verdict.samples_tried) == (True, 25)  # p0 and p1
    assert g.forms.forms[high] is None
    assert g.replace_node(high, _P1).forms is None  # an edit keeps no records


def _square(nodes, nid, times):
    for _ in range(times):
        nodes[nid + 1] = MulNode(x=nid, y=nid)
        nid += 1
    return nid


def _no_proof_cases():
    """Graphs and roots where evaluation may be stuck at some node, or the
    normal form passes the term cap, so sampling decides."""
    sums = {1: _P0, 2: _P1, 3: ParameterNode(2), 4: ParameterNode(3),
            5: AddNode(x=1, y=2), 6: AddNode(x=5, y=3), 7: AddNode(x=6, y=4)}
    top = _square(sums, 7, 4)  # (p0 + p1 + p2 + p3) ** 16: 969 terms
    powers = {1: _P0}
    high = _square(powers, 1, 10)  # p0 ** 1024
    return {
        "object constant": (Graph({1: _c(ObjRef(0)), 2: _P0, 3: AddNode(x=2, y=1)}), 3),
        "undefined constant": (Graph({1: _c(UNDEF), 2: _P0, 3: MulNode(x=1, y=2)}), 3),
        "no evaluation rule": (Graph({1: StartNode(next=1), 2: _P0, 3: AddNode(x=2, y=1)}), 3),
        "missing input": (Graph({1: _P0, 2: AddNode(x=1, y=9)}), 2),
        "placeholder arm": (Graph({1: _P0, 2: ConditionalNode(1, None, 1)}), 2),
        "term cap": (Graph(sums), top),
        "degree cap": (Graph(powers), high),
    }


def _form(g, root):
    """The normal form data_equiv derives for the expression at root and
    keeps on g, its variables numbered in g.forms.names."""
    data_equiv(g, g, root)
    return g.forms.forms[root]


@pytest.mark.parametrize("case", sorted(_no_proof_cases()))
def test_no_proof_where_evaluation_may_be_stuck_or_the_form_is_too_large(case):
    g, root = _no_proof_cases()[case]
    assert _form(g, root) is None
    verdict = data_equiv(g, g, root)
    assert verdict.status is Equivalence.EQUIVALENT and not verdict.proved


def test_a_constant_condition_proves_through_its_chosen_arm_only():
    # The unchosen arm is a placeholder, stuck only where it is chosen.
    g = Graph({1: _c(7), 2: _P0, 3: ConditionalNode(1, 2, None), 4: NegateNode(value=2),
               5: IntegerLessThanNode(x=2, y=1), 6: ConditionalNode(5, 4, 4)})
    verdict = data_equiv(g, g.replace_node(3, _P0), 3)
    assert verdict.proved and verdict.samples_tried == 5
    # Equal arms: the conditional is its arm, whatever the condition.
    assert data_equiv(g, g.replace_node(6, NegateNode(value=2)), 6).proved


def _polynomial_value(form, names, leaves):
    """The value of a normal form with each named leaf variable set as in
    leaves, a dict from the leaf's key to a 32-bit int."""
    value = {v: leaves[key] for key, v in names.items()}
    total = 0
    for monomial, coefficient in form.items():
        term = coefficient
        for v in monomial:
            term *= value[v]
        total += term
    return total & 0xFFFFFFFF


def test_the_ring_operations_are_their_kinds_op_on_random_ints():
    rng = random.Random(3)
    kinds = [k for k in NODE_KINDS.values() if k.OP in eq_mod._RING]
    assert {k.OP for k in kinds} == set(eq_mod._RING)
    for kind in kinds:
        for operands in ((1, 2), (1, 1), (3, 2)):  # 3 is p0 * p1 + p0
            nodes = {1: _P0, 2: _P1, 4: MulNode(x=1, y=2), 3: AddNode(x=4, y=1)}
            g = Graph({**nodes, 10: kind(*operands[:len(kind.VALUE_EDGES)])})
            form, names = _form(g, 10), g.forms.names
            for _ in range(200):
                a, b = rng.randint(INT_MIN, INT_MAX), rng.randint(INT_MIN, INT_MAX)
                want = evaluate(EvalContext(g, MethodState(), (IntVal(a), IntVal(b))), 10)
                got = _polynomial_value(form, names, {(PARAM, 0): a, (PARAM, 1): b})
                assert got == want.value & 0xFFFFFFFF, (kind, operands, a, b)


def test_every_other_operation_is_an_atom_folded_through_its_declaration():
    values = with_boundary_values(Domain()).int_values
    others = [k for k in NODE_KINDS.values() if k.OP and k.OP not in eq_mod._RING]
    assert others
    for kind in others:
        arity = len(kind.VALUE_EDGES)
        # Over leaves: one variable of its own, the same for the same operands.
        g = Graph({1: _P0, 2: _P1, 10: kind(*(1, 2)[:arity]), 11: kind(*(1, 2)[:arity]),
                   12: kind(*(2, 1)[:arity])})
        form, names = _form(g, 10), g.forms.names
        leaves = {names[key] for key in names if key[0] == PARAM}
        [(monomial, coefficient)] = form.items()
        assert coefficient == 1 and len(monomial) == 1 and monomial[0] not in leaves
        assert _form(g, 11) == form
        if arity == 2:
            assert _form(g, 12) != form
        # Over constants: the constant its declaration gives.
        for args in itertools.product(values, repeat=arity):
            consts = {i + 1: _c(v) for i, v in enumerate(args)}
            g = Graph({**consts, 10: kind(*consts)})
            assert _form(g, 10) == _form(Graph({10: _c(kind.OP(*args))}), 10), (kind, args)


def test_every_data_rule_is_proved_on_its_drawn_instances():
    rng = random.Random(25)
    dom = with_boundary_values(Domain())
    for rule in DATA_RULES:
        for _ in range(20):
            case = gen_rule_case(rule, rng)
            rw = canonicalize_data(case.graph, case.nid)
            g2 = case.graph.replace_node(rw.target, rw.after)
            verdict = data_equiv(case.graph, g2, case.nid, dom)
            assert verdict.proved and verdict.status is Equivalence.EQUIVALENT, (rule, verdict)


# Rules written wrong, each at node 10 of a small graph: the wrong
# replacement must be refuted, and never proved.
_RULE_MUTANTS = {
    "add-zero to the zero": ({1: _P0, 2: _c(0), 10: AddNode(x=1, y=2)}, _c(0)),
    "mul-one to the one": ({1: _P0, 2: _c(1), 10: MulNode(x=1, y=2)}, _c(1)),
    "mul-zero to the operand": ({1: _P0, 2: _c(0), 10: MulNode(x=2, y=1)}, _P0),
    "negate-negate to one negate": ({1: _P0, 2: NegateNode(value=1), 10: NegateNode(value=2)},
                                    NegateNode(value=1)),
    "fold-negate as the identity": ({1: _c(3), 10: NegateNode(value=1)}, _c(3)),
    "fold-sub reversed": ({1: _c(5), 2: _c(3), 10: SubNode(x=1, y=2)}, _c(-2)),
    "fold-less-than negated": ({1: _c(1), 2: _c(2), 10: IntegerLessThanNode(x=1, y=2)}, _c(0)),
    "less-than to sub": ({1: _P0, 2: _P1, 10: IntegerLessThanNode(x=1, y=2)}, SubNode(x=1, y=2)),
    "less-than operands swapped": ({1: _P0, 2: _P1, 10: IntegerLessThanNode(x=1, y=2)},
                                   IntegerLessThanNode(x=2, y=1)),
    "conditional-constant to the false arm": (
        {1: _c(1), 2: _P0, 3: _P1, 10: ConditionalNode(1, 2, 3)}, _P1),
    "conditional-equal-branches on unequal arms": (
        {1: _P0, 2: _P1, 3: IntegerLessThanNode(x=1, y=2), 10: ConditionalNode(3, 1, 2)}, _P0),
    "mul-zero on an object (gap B)": ({1: _c(ObjRef(0)), 2: _c(0), 10: MulNode(x=1, y=2)}, _c(0)),
}


@pytest.mark.parametrize("mutant", sorted(_RULE_MUTANTS))
def test_a_rule_written_wrong_is_refuted_and_never_proved(mutant):
    nodes, wrong = _RULE_MUTANTS[mutant]
    g = Graph(nodes)
    verdict = data_equiv(g, g.replace_node(10, wrong), 10, with_boundary_values(Domain()))
    assert verdict.status is Equivalence.NOT_EQUIVALENT and not verdict.proved, verdict


# Differential property: whenever data_equiv proves a pair, the lanes agree
# on the domain and on random 32-bit assignments. The pairs are near
# misses: the second graph is the first with one node changed.

_BINARY_KINDS = [k for k in OPERATIONS if k.OP and len(k.VALUE_EDGES) == 2]


@st.composite
def _near_miss_pairs(draw):
    nodes = {
        1: _P0, 2: _P1, 3: ValuePhiNode(3, values=(), merge=0),
        4: _c(draw(st.sampled_from([0, 1, -1, 2, INT_MIN, INT_MAX]))),
        5: _c(draw(st.sampled_from([0, 1, 3, ObjRef(0), UNDEF]))),
        6: StartNode(next=6),  # stuck wherever it is evaluated
    }
    for nid in range(7, 7 + draw(st.integers(1, 7))):
        ids = list(nodes)
        pick = st.one_of(st.sampled_from(ids[-3:]), st.sampled_from(ids[:5]),
                         st.sampled_from(ids))
        nodes[nid] = build(draw(st.sampled_from(OPERATIONS)), lambda name: draw(pick))
    root = max(nodes)
    changed = dict(nodes)
    cone, todo = set(), [root]  # the nodes the root's value reads, arms included
    while todo:
        nid = todo.pop()
        if nid not in cone and type(nid) is int:
            cone.add(nid)
            todo += [getattr(nodes[nid], name) for name in type(nodes[nid]).VALUE_EDGES]
    n = draw(st.sampled_from([nid for nid in sorted(cone) if nid not in (1, 2, 3, 6)]))
    node = nodes[n]
    kind = type(node)
    negated = [name for name in kind.VALUE_EDGES
               if isinstance(nodes.get(getattr(node, name)), NegateNode)]
    changes = ["canonical form", *["negate an input"] * bool(kind.VALUE_EDGES),
               *["drop a negate"] * bool(negated),
               *["another operation", "swap"] * (kind in _BINARY_KINDS),
               *["swap"] * (kind is ConditionalNode), *["constant"] * (kind is ConstantNode)]
    how = draw(st.sampled_from(changes))
    if how == "negate an input":
        name = draw(st.sampled_from(kind.VALUE_EDGES))
        changed[root + 1] = NegateNode(value=getattr(node, name))
        changed[n] = replace(node, **{name: root + 1})
    elif how == "drop a negate":
        name = draw(st.sampled_from(negated))
        changed[n] = replace(node, **{name: nodes[getattr(node, name)].value})
    elif how == "another operation":
        changed[n] = draw(st.sampled_from(_BINARY_KINDS))(x=node.x, y=node.y)
    elif how == "swap" and kind is ConditionalNode:
        changed[n] = ConditionalNode(node.condition, node.falseValue, node.trueValue)
    elif how == "swap":
        changed[n] = kind(x=node.y, y=node.x)
    elif how == "constant":
        v = node.const
        changed[n] = _c(IntVal(0) if not isinstance(v, IntVal) else
                        IntVal(wrap32(v.value + draw(st.sampled_from([1, -1])))))
    else:  # a pair proofs should find: the graph and its canonical form
        changed = dict(apply_pass(Graph(nodes), "canonicalize")[0].items())
    pair = (Graph(nodes), Graph(changed))
    return (pair if draw(st.booleans()) else pair[::-1]), root


_INT32 = st.integers(INT_MIN, INT_MAX)


@given(_near_miss_pairs(), st.lists(st.tuples(_INT32, _INT32, _INT32), min_size=1, max_size=8))
def test_differential_a_proof_never_disagrees_with_the_lanes(pair, draws):
    (g1, g2), root = pair
    dom = with_boundary_values(Domain())
    verdict = data_equiv(g1, g2, root, dom)
    if not verdict.proved:
        return
    lanes = list(itertools.product(dom.int_values, repeat=3)) + draws
    p0, p1, slot = (list(column) for column in zip(*lanes))
    params, slots = {0: p0, 1: p1}, {3: slot}
    assert evaluate_lanes(g1, root, len(lanes), params, slots) == evaluate_lanes(
        g2, root, len(lanes), params, slots)


# -- what data_equiv costs ---------------------------------------------------

def _recording_lanes(monkeypatch):
    """The width of every evaluate_lanes call data_equiv makes, in order."""
    widths = []

    def recording(g, root, width, params, slots):
        widths.append(width)
        return evaluate_lanes(g, root, width, params, slots)
    monkeypatch.setattr(eq_mod, "evaluate_lanes", recording)
    return widths


def test_a_refutation_on_the_first_assignment_evaluates_only_the_first_chunk(monkeypatch):
    widths = _recording_lanes(monkeypatch)
    g = Graph({1: _P0, 2: _P1, 3: AddNode(x=1, y=2)})
    verdict = data_equiv(g, g.replace_node(3, SubNode(x=1, y=2)), 3, with_boundary_values(Domain()))
    assert verdict.samples_tried == 1
    assert widths == [eq_mod._FIRST_CHUNK] * 2  # one pass on each side


@pytest.mark.parametrize("chunk", [1, 3, 16, 1024])
def test_chunks_grow_to_chunk_and_never_past_it(monkeypatch, chunk):
    # Equal, but with no proof: an object constant reaches the root. 7 ** 3
    # assignments to three parameters.
    monkeypatch.setattr(eq_mod, "_CHUNK", chunk)
    widths = _recording_lanes(monkeypatch)
    g = Graph({1: _P0, 2: _P1, 3: ParameterNode(2), 4: _c(ObjRef(0)), 5: AddNode(x=1, y=2),
               6: AddNode(x=5, y=3), 7: AddNode(x=6, y=4)})
    verdict = data_equiv(g, g, 7, with_boundary_values(Domain()))
    assert (verdict.status, verdict.samples_tried, verdict.proved) == (
        Equivalence.EQUIVALENT, 7 ** 3, False)
    first = min(eq_mod._FIRST_CHUNK, chunk)
    per_side = widths[::2]
    assert widths[1::2] == per_side and sum(per_side) == 7 ** 3
    assert per_side[0] == first and max(per_side) <= chunk
    assert all(w == chunk for w in per_side[1:-1])


@pytest.mark.parametrize("cap", [1, 4, 999, 1000, 10 ** 6, 2 ** 50 - 1])
def test_from_the_leaf_bound_on_the_count_of_assignments_does_not_change(monkeypatch, cap):
    monkeypatch.setattr(eq_mod, "_EXHAUSTIVE_CAP", cap)
    bound = eq_mod._leaf_bound(cap)
    for values in ((0,), (0, 1), (-2, -1, 0, 1, 2), tuple(range(-5, 5))):
        counts = {eq_mod._assignments(Domain(values), k)[0] for k in range(bound, bound + 40)}
        assert len(counts) == 1, (values, counts)
    if bound > 1:  # and not from one leaf fewer
        two = Domain((0, 1))
        assert eq_mod._assignments(two, bound - 1)[0] != eq_mod._assignments(two, bound)[0]


def test_records_cut_under_another_cap_are_not_read(monkeypatch):
    # Four leaves: under a cap of 4 the leaf bound is 3, and the records
    # kept from that call count all four under the default cap.
    slot3, slot4 = ValuePhiNode(3, values=(), merge=0), ValuePhiNode(4, values=(), merge=0)
    g = Graph({1: _P0, 2: _P1, 3: slot3, 4: slot4, 5: AddNode(x=1, y=2), 6: AddNode(x=5, y=3),
               7: AddNode(x=6, y=4)})
    same = g.replace_node(7, AddNode(x=4, y=6))
    with monkeypatch.context() as patched:
        patched.setattr(eq_mod, "_EXHAUSTIVE_CAP", 4)
        assert eq_mod._leaf_bound(4) == 3
        assert data_equiv(g, same, 7).samples_tried == 1 + eq_mod._RANDOM_SAMPLES
    verdict = data_equiv(g, same, 7)
    assert (verdict.proved, verdict.samples_tried) == (True, 5 ** 4)


def test_leaf_records_stay_bounded_on_a_deep_chain_of_distinct_leaves():
    # 10,000 leaves, parameters and state slots in turn, each compared with
    # the chain so far: the root reads every one of them.
    n = 10_000
    nodes = {i: ParameterNode(i) if i % 2 else ValuePhiNode(i, values=(), merge=0)
             for i in range(1, n + 1)}
    prev = 1
    for i in range(2, n + 1):
        nodes[n + i] = IntegerLessThanNode(x=prev, y=i)
        prev = n + i
    g = Graph(nodes)
    same = g.replace_node(prev, nodes[prev])
    params, slots = reference.leaves(g, prev)
    assert len(params) + len(slots) == n
    verdict = data_equiv(g, same, prev)
    assert (verdict.status, verdict.witness, verdict.samples_tried, verdict.proved) == (
        Equivalence.EQUIVALENT, None, eq_mod._assignments(Domain(), n)[0], True)
    for side in (g, same):
        assert max(map(len, side.forms.leaves.values())) == eq_mod._LEAF_BOUND


def test_every_validate_opt_target_is_proved_without_lanes(monkeypatch):
    # The benchmark's validate-opt workload at seed 1: every rewritten data
    # node is proved by normal form, so neither the lanes' leaf keys nor a
    # lane are worked out.
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    import gen

    def unexpected(*args):
        raise AssertionError("no proof: the lanes path ran")
    monkeypatch.setattr(eq_mod, "_leaf_keys", unexpected)
    monkeypatch.setattr(eq_mod, "evaluate_lanes", unexpected)
    dom = with_boundary_values(Domain())
    proved = 0
    for case in gen.generate("validate-opt", 1):
        g = loads(case.text).graph(Signature(*case.program.main))
        optimized, passes = apply_pass(g, "all")
        for nid in sorted({rw.target for rw in passes.rewrites if is_data(g.kind(rw.target))}):
            verdict = data_equiv(g, optimized, nid, dom)
            assert verdict.proved and verdict.status is Equivalence.EQUIVALENT, (nid, verdict)
            proved += 1
    assert proved == 2_001
