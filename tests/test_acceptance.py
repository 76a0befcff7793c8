"""Acceptance suite: one test per criterion, each printing a PASS line
(pytest's own FAILED line is the failure signal). Run with `pytest -v
tests/test_acceptance.py` or `-s` to see the lines.
"""

import random
import time

import reference
from conftest import CORPUS_FILES, corpus
from genutil import DATA_RULES, gen_merge_fixture, gen_rule_case, violated_rules
from seanode.cli import main
from seanode.controlflow import LocalConfig, merge_of_end, step
from seanode.dataflow import EvalContext, evaluate
from seanode.equivalence import (
    BOUNDARY_VALUES, Domain, Equivalence, behavior_diff, data_equiv, with_boundary_values,
)
from seanode.fileformat import dumps, load
from seanode.interproc import ExecOutcome, run
from seanode.ir import EndNode, Graph, Program, RefNode
from seanode.optimize import apply_pass, canonicalize_data
from seanode.runtime import (
    STATIC_REF, DynamicHeap, IntVal, MethodState, ObjRef, wrap32,
)
from seanode.wellformed import check


def _announce(n, text):
    print(f"criterion {n}: PASS - {text}")


def wrapping_factorial(n: int) -> int:
    # Independent oracle: 32-bit wrapping loop, no interpreter involved.
    result = 1
    while n > 1:
        result = wrap32(result * n)
        n = n - 1
    return result


def test_criterion_01_factorial_end_to_end():
    started = time.monotonic()
    p = corpus("factorial")
    fact = p.resolve("fact")
    for n in range(0, 16):
        got = run(p, fact, [IntVal(n)])
        assert got.outcome is ExecOutcome.RETURNED
        assert got.value == IntVal(wrapping_factorial(n)), n
    assert run(p, fact, [IntVal(5)]).value == IntVal(120)
    assert run(p, fact, [IntVal(13)]).value == IntVal(1932053504)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"factorial suite took {elapsed:.2f}s"
    _announce(1, f"fact(0..15) matches the wrapping oracle in {elapsed:.2f}s")


def test_criterion_02_phi_update_protocol():
    p = corpus("factorial")
    g = p.graph(p.resolve("fact"))
    after = step(g, (IntVal(5),), LocalConfig(5, MethodState(), DynamicHeap()))
    assert after.nid == 6
    assert after.state[7] == IntVal(5)   # phi for n latches p[0]
    assert after.state[8] == IntVal(1)   # phi for result latches 1

    rng = random.Random(123)
    fixtures = 0
    for _ in range(110):
        graph, merge, end_ids, phi_ids, n_params = gen_merge_fixture(rng)
        params = tuple(IntVal(rng.randint(-4, 4)) for _ in range(n_params))
        m = MethodState().set_many((p, IntVal(rng.randint(-4, 4))) for p in phi_ids)
        end = rng.choice(end_ids)
        stepped = step(graph, params, LocalConfig(end, m, DynamicHeap()))
        _, index = merge_of_end(graph, end)
        for _ in range(3):
            order = list(phi_ids)
            rng.shuffle(order)
            permuted = m
            ctx = EvalContext(graph, m, params)
            for phi in order:
                v = evaluate(ctx, graph.kind(phi).values[index])
                permuted = permuted.set(phi, v)
            assert permuted == stepped.state
        fixtures += 1
    assert fixtures >= 100
    _announce(2, f"factorial walkthrough values match; {fixtures} randomized "
                 "merge fixtures are order-insensitive")


def test_criterion_03_canonicalization_soundness():
    started = time.monotonic()
    rng = random.Random(42)
    dom = with_boundary_values(Domain())
    for v in BOUNDARY_VALUES:
        assert v in dom.int_values
    checked = 0
    for rule in DATA_RULES:
        for _ in range(20):
            case = gen_rule_case(rule, rng)
            rw = canonicalize_data(case.graph, case.nid)
            assert rw is not None and rw.rule == rule, (rule, rw)
            g2 = case.graph.replace_node(rw.target, rw.after)
            p1, s1 = reference.leaves(case.graph, case.nid)
            p2, s2 = reference.leaves(g2, case.nid)
            k = len(p1 | p2) + len(s1 | s2)
            verdict = data_equiv(case.graph, g2, case.nid, dom)
            assert verdict.status is Equivalence.EQUIVALENT, (rule, verdict)
            assert verdict.samples_tried >= 5 ** k
            checked += 1

    # Deliberate bug: a constant-true IfNode rewritten to its *false* branch.
    p = corpus("if-const-true")
    sig = p.resolve("constTrue")
    g = p.graph(sig)
    broken = Program({sig: g.replace_node(3, RefNode(next=g.kind(3).falseSuccessor))})
    verdict = behavior_diff(p, broken, sig, Domain())
    assert verdict.status is Equivalence.NOT_EQUIVALENT
    args = list(verdict.witness.param_assignment)
    replay_good = run(p, sig, args)
    replay_bad = run(broken, sig, args)
    assert replay_good.value != replay_bad.value

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"rule soundness took {elapsed:.2f}s"
    _announce(3, f"{checked} rule instances equivalent (boundaries included) "
                 f"in {elapsed:.1f}s; deliberate bug refuted with replayable witness")


def test_criterion_04_if_node_rules():
    cases = [
        ("if-const-true", "constTrue", 3, "trueSuccessor"),
        ("if-const-false", "constFalse", 3, "falseSuccessor"),
        ("if-equal-branches", "sameTarget", 4, "trueSuccessor"),
    ]
    for name, method, if_nid, attr in cases:
        program = corpus(name)
        sig = program.resolve(method)
        g = program.graph(sig)
        expected = getattr(g.kind(if_nid), attr)
        rw = canonicalize_data(g, if_nid)
        assert rw is not None and rw.after == RefNode(next=expected)
        g2, _ = apply_pass(g, "canonicalize")
        assert g2.kind(if_nid) == RefNode(next=expected)
        verdict = behavior_diff(program, Program({sig: g2}), sig, Domain())
        assert verdict.status is Equivalence.EQUIVALENT, (sig, verdict)
    _announce(4, "constant-true/false and equal-branch IfNodes rewrite to the "
                 "right RefNode and behave identically over {-2..2}")


def test_criterion_05_conditional_elimination():
    p = corpus("nested-duplicate-test")
    sig = p.resolve("nestedDup")
    g = p.graph(sig)
    g2, report = apply_pass(g, "condelim")
    assert [rw.target for rw in report.rewrites] == [8]
    assert g2.kind(8) == RefNode(next=10)
    verdict = behavior_diff(p, Program({sig: g2}), sig, Domain())
    assert verdict.status is Equivalence.EQUIVALENT
    assert verdict.samples_tried == 25  # {-2..2}^2

    indep = corpus("independent-conditions")
    g = indep.graph(indep.resolve("independent"))
    g3, report3 = apply_pass(g, "condelim")
    assert report3.rewrites == [] and g3 == g
    _announce(5, "dominated duplicate test eliminated (equivalent over "
                 "{-2..2}^2); independent conditions untouched")


def test_criterion_06_well_formedness(fixtures_dir):
    programs = {path.stem: load(path) for path in CORPUS_FILES}
    assert len(programs) >= 15
    for name, program in programs.items():
        for sig, g in program.methods.items():
            assert check(g).ok, (name, sig)

    def fixture_rules(name):
        return violated_rules(load(fixtures_dir / name).methods.popitem()[1])

    assert "wf_start" in violated_rules(Graph({0: EndNode()}))
    assert "wf_closed" in fixture_rules("dangling-edge.json")
    assert "wf_ends" in fixture_rules("orphan-end.json")
    assert "wf_phis" in fixture_rules("broken-phi.json")

    revalidated = 0
    for name, program in programs.items():
        for sig, g in program.methods.items():
            for which in ("canonicalize", "condelim", "all"):
                g2, _ = apply_pass(g, which)
                assert check(g2).ok, (name, sig, which)
                revalidated += 1
    _announce(6, f"{len(programs)} corpus programs well-formed; all four "
                 f"structural predicates have caught fixtures; {revalidated} "
                 "optimizer outputs re-validate")


def test_criterion_07_interprocedural(corpus_dir, capsys):
    records = []
    calls = corpus("call-chain")
    result = run(calls, calls.resolve("main"), [IntVal(5)], on_step=records.append)
    assert result.value == IntVal(13)
    depths = [1] + [r.depth for r in records]
    collapsed = [depths[0]] + [d for i, d in enumerate(depths[1:], 1) if d != depths[i - 1]]
    assert collapsed == [1, 2, 3, 2, 1]

    records = []
    catch = corpus("catch-exception")
    result = run(catch, catch.resolve("catchIt"), [], on_step=records.append)
    assert result.outcome is ExecOutcome.RETURNED and result.value == IntVal(99)
    unwind = [r for r in records if r.kind_name == "UnwindNode"]
    assert unwind and unwind[0].nid_after == 5
    assert unwind[0].m_delta == ((2, ObjRef(0)),)  # caller observes the ref

    code = main(["run", str(corpus_dir / "uncaught.json"), "--method", "explode"])
    capsys.readouterr()
    assert code == 3
    _announce(7, "call chain returns 13 with depths 1-2-3-2-1; exception edge "
                 "delivers ObjRef 0 to the caller; uncaught variant exits 3")


def test_criterion_08_heap_semantics():
    records = []
    pair = corpus("heap-pair")
    result = run(pair, pair.resolve("pairSum"), [], on_step=records.append)
    assert result.value == IntVal(14)
    latched = [d for r in records for d in r.m_delta if isinstance(d[1], ObjRef)]
    assert latched == [(1, ObjRef(0)), (2, ObjRef(1))]

    cross = corpus("cross-frame")
    assert run(cross, cross.resolve("crossFrame"), []).value == IntVal(42)

    rng = random.Random(99)
    refs = [STATIC_REF, 0, 1, 2, 3]
    fields = ["a", "b", "c", "d"]
    sequences = 0
    for _ in range(1000):
        heap = DynamicHeap(free=4)
        for _ in range(rng.randint(1, 5)):
            before = dict(heap.fields)
            addr, fname = rng.choice(refs), rng.choice(fields)
            v = IntVal(rng.randint(-100, 100))
            obj = None if addr == STATIC_REF else ObjRef(addr)
            heap = heap.store_field(fname, obj, v)
            assert heap.fields[(addr, fname)] == v
            for cell, old in before.items():
                if cell != (addr, fname):
                    assert heap.fields[cell] == old, cell
        sequences += 1
    assert sequences == 1000
    _announce(8, "allocations get refs 0 and 1; callee stores visible to the "
                 "caller; 1000 random store sequences leave unrelated cells alone")


def test_criterion_09_determinism_and_fuel(corpus_dir, capsys):
    args = ["trace", str(corpus_dir / "factorial.json"), "--method", "fact",
            "--args", "7", "--fuel", "1000000"]
    assert main(args) == 0
    first = capsys.readouterr().out.encode()
    assert main(args) == 0
    second = capsys.readouterr().out.encode()
    assert first == second and first

    spin = corpus("spin")
    result = run(spin, spin.resolve("spin"), [], fuel=321)
    assert result.outcome is ExecOutcome.OUT_OF_FUEL and result.steps == 321
    code = main(["run", str(corpus_dir / "spin.json"), "--method", "spin",
                 "--fuel", "321"])
    out = capsys.readouterr().out
    assert code == 4 and "OutOfFuel after 321 steps" in out
    _announce(9, "traces byte-identical across runs; fuel expires at exactly "
                 "the configured budget with exit code 4")


def test_criterion_10_format_round_trip(corpus_dir):
    files = sorted(corpus_dir.glob("*.json"))
    assert len(files) >= 15
    for path in files:
        assert dumps(load(path)) == path.read_text(), path.name
    _announce(10, f"save(load(f)) is byte-identical for all {len(files)} corpus files")
