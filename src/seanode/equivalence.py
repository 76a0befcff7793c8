"""Semantic-equivalence checking for rewrites.

A data rewrite is checked at the rewritten id in both graphs. First each
expression is normalized to a polynomial over Z/2^32, the ring the 32-bit
operations wrap in: parameters and method-state slots are its variables,
add, sub, mul and negate its operations, and any other operation, or a
conditional whose condition is not constant, an opaque atom over its
normalized operands. Equal normal forms prove that the two expressions
agree on every assignment of 32-bit ints to the free leaves; a proof says
nothing about a leaf that holds another value. Where there is no proof,
the expressions are evaluated over every assignment of a finite value
domain to the free leaves, a chunk of assignments at a time, with
dataflow.evaluate_lanes. Either way the verdict is the one trying those
assignments gives, and samples_tried counts the assignments it covers.
Control rewrites are checked by differential whole-program execution.
"""

import enum
import itertools
import random
from dataclasses import dataclass, field

from . import runtime
from .dataflow import (
    BINARY, CHECK, COND, CONST, PARAM, PROXY, STATE, UNARY, evaluate_lanes, free_leaves,
    schedule,
)
from .interproc import ExecOutcome, run
from .ir import Graph, Program, Signature
from .runtime import FIELD_DEFAULT, INT_MAX, INT_MIN, IntVal, Value, wrap32


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
    # Equivalent by equal normal forms: on every int assignment, not only
    # on the samples_tried assignments of the domain it counts.
    proved: bool = field(default=False, compare=False)

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


@dataclass(frozen=True)
class _Assignments:
    """A deterministic stream of value tuples for k leaves, and its length:
    every tuple over values, then draws seeded tuples over the whole domain."""

    values: tuple
    k: int
    draws: int
    domain: tuple

    def __len__(self):
        return len(self.values) ** self.k + self.draws

    def __iter__(self):
        product = itertools.product(self.values, repeat=self.k)
        if not self.draws:
            return product
        rng = random.Random(_SAMPLE_SEED)
        leaves = [self.domain] * self.k
        return itertools.chain(product, [tuple(map(rng.choice, leaves))
                                         for _ in range(self.draws)])


def _assignments(dom: Domain, k: int) -> _Assignments:
    """The stream of value tuples data_equiv tries for k leaves: the whole
    product up to the cap, else a reduced product plus seeded draws."""
    values = dom.int_values
    if len(values) ** k <= _EXHAUSTIVE_CAP:
        return _Assignments(values, k, 0, values)
    return _Assignments(values[: max(1, int(_EXHAUSTIVE_CAP ** (1.0 / k)))], k,
                        _RANDOM_SAMPLES, values)


# -- normal forms over Z/2^32 --------------------------------------------
# A polynomial is a dict from monomials to nonzero coefficients in
# [0, 2^32); a monomial is the sorted tuple of its variables, repeated by
# power, and () the constant monomial. A variable is a small int naming a
# parameter, a state slot or an atom, numbered in one table for both graphs.
_MASK = 0xFFFFFFFF
_TERM_CAP = 512  # terms of a polynomial and degree of a monomial


def _add(p: dict, q: dict) -> dict:
    r = dict(p)
    for m, c in q.items():
        c = (r.get(m, 0) + c) & _MASK
        if c:
            r[m] = c
        else:
            del r[m]
    return r


def _negate(p: dict) -> dict:
    return {m: -c & _MASK for m, c in p.items()}


def _mul(p: dict, q: dict) -> dict | None:
    if p and q and max(map(len, p)) + max(map(len, q)) > _TERM_CAP:
        return None
    r = {}
    for m, c in p.items():
        for n, d in q.items():
            mn = tuple(sorted(m + n)) if m and n else m or n
            r[mn] = (r.get(mn, 0) + c * d) & _MASK
    return {m: c for m, c in r.items() if c}


# The operations the normal form interprets, by their runtime declaration;
# every other OP is an atom, folded through its declaration on constants.
_RING = {
    runtime.int_add: _add,
    runtime.int_sub: lambda p, q: _add(p, _negate(q)),
    runtime.int_mul: _mul,
    runtime.int_negate: _negate,
}


def _constant(p: dict) -> int | None:
    """The signed int a constant polynomial stands for, else None."""
    if not p:
        return 0
    if len(p) == 1 and () in p:
        return wrap32(p[()])
    return None


def _constant_form(v: int) -> dict:
    v &= _MASK
    return {(): v} if v else {}


def _atom(names: dict, tag, operands) -> dict:
    """The variable numbered for tag over the operands' forms, as a
    polynomial."""
    key = (tag, *(frozenset(p.items()) for p in operands))
    return {(names.setdefault(key, len(names)),): 1}


def _opaque(names: dict, op, ins: tuple) -> dict:
    """An operation outside the ring: folded through its declaration on
    constants, else an atom."""
    consts = [_constant(p) for p in ins]
    if None in consts:
        return _atom(names, op, ins)
    return _constant_form(op(*consts))


def _normal_form(g: Graph, root: int, names: dict) -> dict | None:
    """The polynomial of the expression at root, over the variables numbered
    in names, or None where it has none: a constant that is not an IntVal,
    a STUCK or CYCLE entry, a placeholder arm or a conditional met in its
    own arm (where evaluation may be stuck), or more than _TERM_CAP terms
    or degrees.
    Reads the schedules evaluation runs, arms included only where chosen
    or where the condition is not constant."""
    forms: dict[int, dict] = {}
    waiting: set[int] = set()  # conditionals whose arms were started
    stack = [iter(schedule(g, (root,)))]
    while stack:
        for entry in stack[-1]:
            code, n, arg, x, y = entry
            if n in forms:
                continue
            if code == BINARY or code == UNARY:
                ins = (forms[x], forms[y]) if code == BINARY else (forms[x],)
                ring = _RING.get(arg)
                f = ring(*ins) if ring else _opaque(names, arg, ins)
                if f is None or len(f) > _TERM_CAP:
                    return None
            elif code == CONST:
                if type(arg) is not IntVal:
                    return None
                f = _constant_form(arg.value)
            elif code == CHECK:
                continue
            elif code == PARAM or code == STATE:
                f = {(names.setdefault((code, arg if code == PARAM else n), len(names)),): 1}
            elif code == PROXY:
                f = forms[x]
            elif code == COND:
                c = _constant(forms[x])
                arms = arg if c is None else (arg[0] if c else arg[1],)
                todo = [a for a in arms if a not in forms]
                if todo:
                    if n in waiting or any(callable(a) for a in todo):
                        return None
                    waiting.add(n)
                    stack.append(itertools.chain(*[schedule(g, (a,)) for a in todo], (entry,)))
                    break
                t, e = forms[arms[0]], forms[arms[-1]]
                f = t if t == e else _atom(names, COND, (forms[x], t, e))
            else:  # STUCK, CYCLE, or a code with no normal form
                return None
            forms[n] = f
        else:
            stack.pop()
    return forms[root]


# Assignments decided per pass over a schedule. A refutation is found only
# after its whole chunk is evaluated; this keeps that waste small while the
# per-pass cost is spread over many assignments.
_CHUNK = 1024


def _boxed(v):
    return IntVal(v) if type(v) is int else v


def data_equiv(g1: Graph, g2: Graph, nid: int, dom: Domain = Domain()) -> EquivVerdict:
    """Decide whether the expressions at nid agree on every tried assignment
    of the union of both graphs' free leaves. Equal normal forms prove it
    without trying any (proved, with samples_tried the assignments the
    proof covers). Otherwise assignments are tried in chunks, all lanes of
    a chunk at once, so a chunk costs at most the nodes of both cones times
    its lanes. Either way the verdict is the one trying them one by one, in
    order, gives. free_leaves raises on a cycle in either cone."""
    p1, s1 = free_leaves(g1, nid)
    p2, s2 = free_leaves(g2, nid)
    param_keys = sorted(p1 | p2)
    slot_keys = sorted(s1 | s2)
    arity = max(param_keys) + 1 if param_keys else 0
    assignments = _assignments(dom, len(param_keys) + len(slot_keys))

    names: dict = {}
    form = _normal_form(g1, nid, names)
    if form is not None and form == _normal_form(g2, nid, names):
        return EquivVerdict(Equivalence.EQUIVALENT, None, len(assignments), proved=True)

    stream = iter(assignments)
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
