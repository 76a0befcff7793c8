"""Tests of the benchmark itself: generators, oracle, checks and tracer.

They run the workloads' shapes at small sizes; the full sizes are checked by
every benchmark run.
"""

import pytest

import gen
import run
import tracer
from model import Oracle
from workloads import WORKLOADS, import_seanode, observed_outcome

SMALL = {
    "exec-loops": [(120, 3, 2, 2, 2), (150, 4, 3, 1, 3)],
    "exec-calls-heap": [(2, 5), (1, 9)],
    "validate-opt": [(4, 2, 1, 1), (6, 3, 2, 1)],
}


@pytest.fixture(scope="module")
def sn():
    return import_seanode()


def _setup(sn, name, seed):
    cases = gen.generate(name, seed, SMALL[name])
    workload = WORKLOADS[name]
    check = workload.checker(sn, cases, workload.expected(cases))
    return workload, cases, workload.setup(sn, cases), check


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_every_generated_program_is_well_formed(sn, name):
    for case in gen.generate(name, 1):
        program = sn.fileformat.loads(case.text)
        for graph in program.methods.values():
            assert sn.wellformed.check(graph).ok, case.name


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_oracle_agrees_with_interpreter(sn, name):
    for case in gen.generate(name, 3, SMALL[name]):
        program = sn.fileformat.loads(case.text)
        for args in case.args:
            got = sn.interproc.run(program, sn.ir.Signature(*case.program.main),
                                   [sn.runtime.IntVal(a) for a in args])
            assert observed_outcome(got) == Oracle(case.program).run(args), case.name


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_second_seed_gives_other_programs_that_pass(sn, name):
    first = [c.text for c in gen.generate(name, 1, SMALL[name])]
    assert [c.text for c in gen.generate(name, 1, SMALL[name])] == first
    workload, cases, state, check = _setup(sn, name, 2)
    assert [c.text for c in cases] != first
    records = run.run_ops(workload, sn, state, cases, check, 0, count=2 * len(cases),
                          calibrate=True)
    assert run.failures_of(records, check) == {}
    assert all(r.speed > 0 for r in records)


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_checks_catch_a_wrong_output(sn, name):
    workload, cases, state, _ = _setup(sn, name, 1)
    expected = workload.expected(cases)[::-1]
    check = workload.checker(sn, cases, expected)
    records = run.run_ops(workload, sn, state, cases, check, 0, count=len(cases))
    assert sorted(run.failures_of(records, check)) == list(range(len(cases)))


def _traced(sn, name, seed):
    workload, cases, state, check = _setup(sn, name, seed)
    t = tracer.Tracer()
    patches = tracer.install(t)
    try:
        records = run.run_ops(workload, sn, state, cases, check, 0, tracer=t,
                              count=len(cases))
    finally:
        tracer.uninstall(patches)
    assert run.failures_of(records, check) == {}
    return t


def test_tracer_patches_every_binding_and_removes_them(sn):
    t = tracer.Tracer()
    patches = tracer.install(t)
    try:
        wrapped = set(tracer.installed_wrappers())
        for binding in ("seanode.controlflow.evaluate", "seanode.interproc.step",
                        "seanode.equivalence.run", "seanode.optimize.merge_of_end",
                        "seanode.run", "seanode.ir.Graph.usages"):
            assert binding in wrapped
    finally:
        tracer.uninstall(patches)
    assert tracer.installed_wrappers() == []


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_self_times_add_up_to_traced_wall_time(sn, name):
    t = _traced(sn, name, 1)
    for op in t.ops:
        assert op["unattributed"] >= 0
        assert sum(op["self"].values()) + op["unattributed"] == pytest.approx(op["wall"])
        # Nearly all of an operation runs inside seanode's wrapped calls.
        assert op["unattributed"] < 0.2 * op["wall"]


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_deterministic_counts_repeat_with_the_same_seed(sn, name):
    def counts():
        t = _traced(sn, name, 5)
        return [(dict(op["calls"]), dict(op["counts"])) for op in t.ops]

    first = counts()
    assert first == counts()
    key = {"exec-loops": "interproc.steps", "exec-calls-heap": "interproc.steps",
           "validate-opt": "optimize.rewrites"}[name]
    assert all(c[key] > 0 for _, c in first)
