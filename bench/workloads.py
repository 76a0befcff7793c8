"""The benchmark's workloads: set-up, one operation, and the output checks.

`exec-loops` and `exec-calls-heap` do what `seanode run` does: check every
method, then run main. `validate-opt` validates the optimizer's rewrites of
one program: load, check, apply every pass, decide each rewritten data node
with `data_equiv`, compare whole-program behaviour with `behavior_diff`,
save. Outputs are compared with `model.Oracle`, never with seanode itself.
"""

import importlib
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

from gen import OPT_DOMAIN
from model import Oracle, Outcome, Ref

LAYER_MODULES = ("ir", "runtime", "fileformat", "wellformed", "dataflow",
                 "controlflow", "interproc", "optimize", "equivalence")


def import_seanode() -> SimpleNamespace:
    """Import seanode afresh (dropping any earlier import) and return its
    layer modules."""
    for name in [n for n in sys.modules if n == "seanode" or n.startswith("seanode.")]:
        del sys.modules[name]
    importlib.import_module("seanode")
    return SimpleNamespace(**{m: importlib.import_module(f"seanode.{m}")
                              for m in LAYER_MODULES})


@dataclass
class Observation:
    """What one operation produced. exec_s is the time spent executing
    programs (interproc.run, or behavior_diff on validate-opt); steps is
    the interpreter's step count where the benchmark sees it."""

    output: object
    exec_s: float
    steps: int = 0


def _plain(v):
    """A seanode run-time value as the oracle writes it. Matched by class
    name, since each set-up imports seanode afresh."""
    name = type(v).__name__
    if name == "IntVal":
        return v.value
    if name == "ObjRef":
        return Ref(v.ref)
    return None


def observed_outcome(result) -> Outcome:
    heap = tuple(sorted(
        (addr, fname, _plain(v))
        for (addr, fname), v in result.heap.fields.items()
        if _plain(v) != 0
    ))
    value = _plain(result.value) if result.value is not None else None
    return Outcome(result.outcome.value, value, heap)


class ExecWorkload:
    """check every method, then run main on the case's arguments."""

    def __init__(self, name: str):
        self.name = name

    def setup(self, sn, cases) -> list:
        return [sn.fileformat.loads(c.text) for c in cases]

    def expected(self, cases) -> list:
        return [Oracle(c.program).run(c.args[0]) for c in cases]

    def op(self, sn, program, case) -> Observation:
        for sig, graph in program.methods.items():
            report = sn.wellformed.check(graph)
            if not report.ok:
                return Observation(f"{sig} is not well formed: {report}", 0.0)
        args = [sn.runtime.IntVal(a) for a in case.args[0]]
        start = time.perf_counter()
        result = sn.interproc.run(program, sn.ir.Signature(*case.program.main), args)
        exec_s = time.perf_counter() - start
        return Observation(observed_outcome(result), exec_s, result.steps)

    def checker(self, sn, cases, expected) -> "ExecCheck":
        return ExecCheck(expected)


class ExecCheck:
    def __init__(self, expected):
        self.expected = expected

    def op(self, k: int, obs: Observation) -> str | None:
        """Why operation on case k failed, or None."""
        if obs.output != self.expected[k]:
            return f"got {obs.output}, expected {self.expected[k]}"
        return None

    def programs(self) -> dict:
        """Why each failing case failed, checked once per run."""
        return {}


class ValidateWorkload:
    """The rewrite-validation pipeline over one program text."""

    name = "validate-opt"

    def setup(self, sn, cases) -> list:
        return [None] * len(cases)

    def expected(self, cases) -> list:
        return [[Oracle(c.program).run(args) for args in c.args] for c in cases]

    def op(self, sn, _, case) -> Observation:
        eq = sn.equivalence
        program = sn.fileformat.loads(case.text)
        sig = sn.ir.Signature(*case.program.main)
        graph = program.graph(sig)
        report = sn.wellformed.check(graph)
        if not report.ok:
            return Observation(f"not well formed: {report}", 0.0)
        optimized, passes = sn.optimize.apply_pass(graph, "all")
        targets = sorted({rw.target for rw in passes.rewrites
                          if sn.ir.is_data(graph.kind(rw.target))})
        domain = eq.with_boundary_values(eq.Domain())
        refuted = [(nid, str(v)) for nid in targets
                   if (v := eq.data_equiv(graph, optimized, nid, domain)).status
                   is not eq.Equivalence.EQUIVALENT]
        after = sn.ir.Program({sig: optimized})
        start = time.perf_counter()
        verdict = eq.behavior_diff(program, after, sig, eq.Domain(int_values=OPT_DOMAIN))
        exec_s = time.perf_counter() - start
        text = sn.fileformat.dumps(after)
        return Observation((passes.fixpoint, refuted, verdict.status.value, text), exec_s)

    def checker(self, sn, cases, expected) -> "ValidateCheck":
        return ValidateCheck(sn, cases, expected)


class ValidateCheck:
    def __init__(self, sn, cases, expected):
        self.sn, self.cases, self.expected = sn, cases, expected
        self.optimized = {}  # case -> optimized text of its first operation

    def op(self, k: int, obs: Observation) -> str | None:
        if isinstance(obs.output, str):
            return obs.output
        fixpoint, refuted, behavior, text = obs.output
        if not fixpoint:
            return "apply_pass reached no fixpoint"
        if refuted:
            return f"data_equiv verdicts not Equivalent: {refuted[:3]}"
        if behavior != "Equivalent":
            return f"behavior_diff verdict {behavior}"
        if self.optimized.setdefault(k, text) != text:
            return "optimized text differs between operations"
        return None

    def programs(self) -> dict:
        """The original and the optimized program must both match the
        oracle on every argument tuple."""
        sn, failures = self.sn, {}
        for k, text in self.optimized.items():
            case = self.cases[k]
            sig = sn.ir.Signature(*case.program.main)
            for label, program in (("original", sn.fileformat.loads(case.text)),
                                   ("optimized", sn.fileformat.loads(text))):
                for args, want in zip(case.args, self.expected[k]):
                    got = observed_outcome(sn.interproc.run(
                        program, sig, [sn.runtime.IntVal(a) for a in args]))
                    if got != want:
                        failures.setdefault(
                            k, f"{label} program on {args}: got {got}, expected {want}")
        return failures


WORKLOADS = {
    "exec-loops": ExecWorkload("exec-loops"),
    "exec-calls-heap": ExecWorkload("exec-calls-heap"),
    "validate-opt": ValidateWorkload(),
}
