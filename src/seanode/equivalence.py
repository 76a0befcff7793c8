"""Semantic-equivalence checking for rewrites.

Data rewrites are checked by evaluating the expression at the rewritten id
in both graphs over every assignment of a finite value domain to the free
leaves (parameters and method-state slots). Control rewrites are checked by
differential whole-program execution. Equivalent is therefore a bounded
claim; verdicts carry the number of assignments tried.
"""

import enum
import itertools
import random
from dataclasses import dataclass

from . import ir
from .dataflow import EvalContext, EvalStuck, evaluate
from .interproc import ExecOutcome, run
from .ir import CyclicExpression  # noqa: F401  raised by free_leaves and data_equiv
from .ir import Graph, Program, Signature
from .runtime import FIELD_DEFAULT, INT_MAX, INT_MIN, IntVal, MethodState, Value


@dataclass(frozen=True)
class Domain:
    """Finite assignment domain."""

    int_values: tuple[int, ...] = (-2, -1, 0, 1, 2)

    def __post_init__(self):
        if not self.int_values:
            raise ValueError("domain must contain at least one value")
        object.__setattr__(self, "int_values", tuple(self.int_values))


BOUNDARY_VALUES = (INT_MIN, INT_MAX, -1)


def with_boundary_values(dom: Domain) -> Domain:
    """Extend a domain with the wrap-sensitive integers; arithmetic bugs
    live at the edges of the 32-bit range."""
    extra = tuple(v for v in BOUNDARY_VALUES if v not in dom.int_values)
    return Domain(dom.int_values + extra)


class Equivalence(enum.Enum):
    EQUIVALENT = "Equivalent"
    NOT_EQUIVALENT = "NotEquivalent"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Witness:
    state_assignment: tuple
    param_assignment: tuple
    left: object
    right: object

    def __str__(self):
        m = ", ".join(f"{nid}<-{v}" for nid, v in self.state_assignment)
        p = ", ".join(str(v) for v in self.param_assignment)
        return f"m={{{m}}} p=[{p}]: left={self.left}, right={self.right}"


@dataclass
class EquivVerdict:
    status: Equivalence
    witness: Witness | None
    samples_tried: int

    def __str__(self):
        base = f"{self.status.value} ({self.samples_tried} assignments tried)"
        if self.witness is not None:
            base += f" witness {self.witness}"
        return base


def free_leaves(g: Graph, nid: int) -> tuple[set[int], set[int]]:
    """(parameter indices, state-slot ids) the expression at nid can read.

    The walk follows exactly the edges evaluation follows; a cycle on the
    walk means evaluation would not terminate (CyclicExpression).
    """
    params: set[int] = set()
    slots: set[int] = set()
    for n in ir.walk_values(g, nid, set()):
        node = g.kind(n)
        if isinstance(node, ir.ParameterNode):
            params.add(node.index)
        elif ir.is_state_leaf(node):
            slots.add(n)
    return params, slots


_EXHAUSTIVE_CAP = 10 ** 6
# Past the cap, a reduced product plus this many draws from a fixed seed,
# so verdicts are deterministic.
_RANDOM_SAMPLES = 256
_SAMPLE_SEED = 0


def _assignments(dom: Domain, k: int):
    """Deterministic stream of value tuples for k leaves."""
    values = dom.int_values
    if k == 0:
        yield ()
        return
    if len(values) ** k <= _EXHAUSTIVE_CAP:
        yield from itertools.product(values, repeat=k)
        return
    reduced = values[: max(1, int(_EXHAUSTIVE_CAP ** (1.0 / k)))]
    yield from itertools.product(reduced, repeat=k)
    rng = random.Random(_SAMPLE_SEED)
    for _ in range(_RANDOM_SAMPLES):
        yield tuple(rng.choice(values) for _ in range(k))


def _try_eval(g: Graph, state: MethodState, params, nid: int):
    try:
        return evaluate(EvalContext(g, state, params), nid)
    except EvalStuck as e:
        return f"stuck:{type(e).__name__}"


def data_equiv(g1: Graph, g2: Graph, nid: int, dom: Domain = Domain()) -> EquivVerdict:
    """Decide whether the expressions at nid agree on every tried assignment
    of the union of both graphs' free leaves."""
    p1, s1 = free_leaves(g1, nid)
    p2, s2 = free_leaves(g2, nid)
    param_keys = sorted(p1 | p2)
    slot_keys = sorted(s1 | s2)
    keys = len(param_keys) + len(slot_keys)
    arity = max(param_keys) + 1 if param_keys else 0

    tried = 0
    for raw in _assignments(dom, keys):
        tried += 1
        vals = [IntVal(v) for v in raw]
        params: list[Value] = [IntVal(0)] * arity
        for index, v in zip(param_keys, vals):
            params[index] = v
        state = MethodState(dict(zip(slot_keys, vals[len(param_keys):])))
        left = _try_eval(g1, state, tuple(params), nid)
        right = _try_eval(g2, state, tuple(params), nid)
        if left != right:
            witness = Witness(
                tuple(zip(slot_keys, vals[len(param_keys):])),
                tuple(params), left, right,
            )
            return EquivVerdict(Equivalence.NOT_EQUIVALENT, witness, tried)
    return EquivVerdict(Equivalence.EQUIVALENT, None, tried)


def _observe(program: Program, main: Signature, args, fuel: int):
    stores = []
    res = run(program, main, args, fuel,
              on_store=lambda addr, fname, v: stores.append((addr, fname, v)))
    heap = tuple(sorted(
        (addr, fname, v)
        for (addr, fname), v in res.heap.fields.items()
        if v != FIELD_DEFAULT
    ))
    return res, (res.outcome, res.value, tuple(stores), heap)


def behavior_diff(p1: Program, p2: Program, main: Signature,
                  param_domain: Domain = Domain(),
                  fuel: int = 100_000) -> EquivVerdict:
    """Differential execution over a finite parameter domain: outcomes,
    returned values, store order, and final heaps must all agree.

    Inputs on which either side runs out of fuel are inconclusive, not
    counterexamples.
    """
    if p1.graph(main) is None:
        raise KeyError(f"method {main} not present in the left program")
    arity = len(main.parameterTypes)
    tried = 0
    inconclusive = 0
    for raw in itertools.product(param_domain.int_values, repeat=arity):
        tried += 1
        args = [IntVal(v) for v in raw]
        res1, obs1 = _observe(p1, main, args, fuel)
        res2, obs2 = _observe(p2, main, args, fuel)
        if ExecOutcome.OUT_OF_FUEL in (res1.outcome, res2.outcome):
            inconclusive += 1
            continue
        if obs1 != obs2:
            witness = Witness((), tuple(args), str(res1), str(res2))
            return EquivVerdict(Equivalence.NOT_EQUIVALENT, witness, tried)
    if inconclusive:
        return EquivVerdict(Equivalence.INCONCLUSIVE, None, tried)
    return EquivVerdict(Equivalence.EQUIVALENT, None, tried)
