"""Semantic-equivalence checking for rewrites.

Data rewrites are checked by evaluating the expression at the rewritten id
in both graphs over every assignment of a finite value domain to the free
leaves (parameters and method-state slots), a chunk of assignments at a
time, with dataflow.evaluate_lanes. Control rewrites are checked by
differential whole-program execution. Equivalent is therefore a bounded
claim; verdicts carry the number of assignments tried.
"""

import enum
import itertools
import random
from dataclasses import dataclass

from .dataflow import evaluate_lanes, free_leaves
from .interproc import ExecOutcome, run
from .ir import Graph, Program, Signature
from .runtime import FIELD_DEFAULT, INT_MAX, INT_MIN, IntVal, Value


@dataclass(frozen=True)
class Domain:
    """Finite assignment domain: distinct 32-bit integers, tried in order."""

    int_values: tuple[int, ...] = (-2, -1, 0, 1, 2)

    def __post_init__(self):
        values = tuple(self.int_values)
        if not values:
            raise ValueError("domain must contain at least one value")
        for v in values:
            if type(v) is not int or not INT_MIN <= v <= INT_MAX:
                raise ValueError(f"domain value {v!r} is not a 32-bit integer")
        if len(set(values)) < len(values):
            raise ValueError(f"domain values repeat: {values}")
        object.__setattr__(self, "int_values", values)


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


# Assignments decided per pass over a schedule. A refutation is found only
# after its whole chunk is evaluated; this keeps that waste small while the
# per-pass cost is spread over many assignments.
_CHUNK = 1024


def _boxed(v):
    return IntVal(v) if type(v) is int else v


def data_equiv(g1: Graph, g2: Graph, nid: int, dom: Domain = Domain()) -> EquivVerdict:
    """Decide whether the expressions at nid agree on every tried assignment
    of the union of both graphs' free leaves. Assignments are tried in
    chunks, all lanes of a chunk at once, so a chunk costs at most the nodes
    of both cones times its lanes; the verdict is the one trying them one by
    one, in order, gives. free_leaves raises on a cycle in either cone."""
    p1, s1 = free_leaves(g1, nid)
    p2, s2 = free_leaves(g2, nid)
    param_keys = sorted(p1 | p2)
    slot_keys = sorted(s1 | s2)
    arity = max(param_keys) + 1 if param_keys else 0

    stream = _assignments(dom, len(param_keys) + len(slot_keys))
    tried = 0
    while chunk := list(itertools.islice(stream, _CHUNK)):
        columns = [list(c) for c in zip(*chunk)]
        params = dict(zip(param_keys, columns))
        slots = dict(zip(slot_keys, columns[len(param_keys):]))
        left = evaluate_lanes(g1, nid, len(chunk), params, slots)
        right = evaluate_lanes(g2, nid, len(chunk), params, slots)
        if left != right:
            j = next(j for j, (a, b) in enumerate(zip(left, right)) if a != b)
            vals = [IntVal(v) for v in chunk[j]]
            param_vals: list[Value] = [IntVal(0)] * arity
            for index, v in zip(param_keys, vals):
                param_vals[index] = v
            witness = Witness(tuple(zip(slot_keys, vals[len(param_keys):])),
                              tuple(param_vals), _boxed(left[j]), _boxed(right[j]))
            return EquivVerdict(Equivalence.NOT_EQUIVALENT, witness, tried + j + 1)
        tried += len(chunk)
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
    for side, p in (("left", p1), ("right", p2)):
        if p.graph(main) is None:
            raise KeyError(f"method {main} not present in the {side} program")
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
