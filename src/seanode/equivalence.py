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
from .dataflow import BINARY, CHECK, COND, CONST, PARAM, PROXY, STATE, UNARY, EvalStuck, schedule
from .interproc import ExecOutcome, run
from .ir import CyclicExpression  # noqa: F401  raised by free_leaves and data_equiv
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


# Assignments decided per pass over a schedule. A refutation is found only
# after its whole chunk is evaluated; this keeps that waste small while the
# per-pass cost is spread over many assignments.
_CHUNK = 1024

# The outcome of a stuck lane. With every free leaf assigned an integer,
# evaluation can only get stuck as a plain EvalStuck.
_STUCK = f"stuck:{EvalStuck.__name__}"


def _apply(op, cols: list[list], odd: bool) -> list:
    """A derived lane rule: op, declared on ints, on every lane; a lane with
    a non-int operand is stuck."""
    if not odd:
        return list(map(op, *cols))
    return [op(*vs) if all(type(v) is int for v in vs) else _STUCK for vs in zip(*cols)]


def _select(cond: list, odd: bool, t: list | None, f: list | None) -> list:
    """A conditional's column: each lane takes the value of the arm its
    condition chose (t or f, None for an arm no lane chose); a lane whose
    condition is not an int is stuck."""
    if t is None or f is None:
        t = f = t or f or [_STUCK] * len(cond)
    if not odd:
        return t if t is f else [a if c else b for c, a, b in zip(cond, t, f)]
    return [(a if c else b) if type(c) is int else _STUCK for c, a, b in zip(cond, t, f)]


def _column(g: Graph, root: int, width: int, params: dict, slots: dict) -> list:
    """The value of the expression at root on each of width lanes, given the
    column of every parameter index and state-slot id. Runs the schedule
    evaluate runs, on all lanes at once, keeping one column per node: an int
    for an IntVal, any other Value as it is, _STUCK for a stuck lane. A
    conditional runs each arm some lane chooses on every lane, then selects
    per lane; arms are pure, so the values an unchosen arm gives a lane are
    dropped unobserved, and an arm no lane chooses never runs."""
    cols: dict[int, list] = {}
    odd: set[int] = set()  # nodes whose column may hold a non-int
    stack = [iter(schedule(g, root))]  # the schedules being run, innermost last
    while stack:
        for entry in stack[-1]:
            code, n, arg, x, y = entry
            if n in cols or code == CHECK:  # lanes check operands where used
                continue
            if code == BINARY or code == UNARY:
                ins = (x,) if code == UNARY else (x, y)
                is_odd = not odd.isdisjoint(ins)
                cols[n] = _apply(arg, [cols[i] for i in ins], is_odd)
            elif code == CONST:
                is_odd = not isinstance(arg, IntVal)
                cols[n] = [arg if is_odd else arg.value] * width
            elif code == PARAM:
                cols[n], is_odd = params[arg], False
            elif code == STATE:
                cols[n], is_odd = slots[n], False
            elif code == PROXY:
                cols[n], is_odd = cols[x], x in odd
            elif code == COND:
                cond = cols[x]
                ints = [c for c in cond if type(c) is int] if x in odd else cond
                arms = [a for a, chosen in zip(arg, (any(ints), not all(ints))) if chosen]
                todo = [schedule(g, a) for a in arms if a not in cols]
                if todo:  # run the chosen arms, then come back to this entry
                    stack.append(itertools.chain(*todo, (entry,)))
                    break
                t, f = (cols[a] if a in arms else None for a in arg)
                cols[n] = _select(cond, x in odd, t, f)
                is_odd = x in odd or not odd.isdisjoint(arms)
            else:
                cols[n], is_odd = [_STUCK] * width, True
            if is_odd:
                odd.add(n)
        else:
            stack.pop()
    return cols[root]


def _boxed(v):
    return IntVal(v) if type(v) is int else v


def data_equiv(g1: Graph, g2: Graph, nid: int, dom: Domain = Domain()) -> EquivVerdict:
    """Decide whether the expressions at nid agree on every tried assignment
    of the union of both graphs' free leaves. Assignments are tried in
    chunks, all lanes of a chunk at once, so a chunk costs at most the nodes
    of both cones times its lanes; the verdict is the one trying them one by
    one, in order, gives."""
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
        left = _column(g1, nid, len(chunk), params, slots)
        right = _column(g2, nid, len(chunk), params, slots)
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
