"""Semantic-equivalence checking for rewrites.

A data rewrite is checked at the rewritten id in both graphs. First each
expression is normalized to a polynomial over Z/2^32, the ring the 32-bit
operations wrap in: parameters and method-state slots are its variables,
add, sub, mul and negate its operations, and any other operation, or a
conditional whose condition is not constant, an opaque atom over its
normalized operands. Equal normal forms prove that the two expressions
agree on every assignment of 32-bit ints to the free leaves; a proof says
nothing about a leaf that holds another value. Each node's form and
leaves are derived once per graph, in dataflow.post_order over each
cone, which raises CyclicExpression on a cycle, and kept on the graph
(Graph.forms), numbered from one table both graphs of a pair share, so a
proof is two lookups and a compare. Where there is no proof, the leaves
to assign are read by another post_order over both cones, and the
expressions are evaluated over every assignment of a finite value domain
to them, a chunk of assignments at a time, with dataflow.evaluate_lanes.
Either way the verdict is the one trying those assignments gives, and
samples_tried counts the assignments it covers. Control rewrites are
checked by differential whole-program execution.
"""

import enum
import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial

from . import runtime
from .dataflow import (
    BINARY, COND, CONST, PARAM, PROXY, STATE, UNARY, _entry, evaluate_lanes, post_order,
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
        n = self.samples_tried
        count = f"proved; covers {n} assignments" if self.proved else f"{n} assignments tried"
        base = f"{self.status.value} ({count})"
        if self.witness is not None:
            base += f" witness {self.witness}"
        return base


_EXHAUSTIVE_CAP = 10 ** 6
# Past the cap, a reduced product plus this many draws from a fixed seed,
# so verdicts are deterministic.
_RANDOM_SAMPLES = 256
_SAMPLE_SEED = 0


def _assignments(dom: Domain, k: int) -> tuple[int, Iterator[tuple]]:
    """How many value tuples data_equiv tries for k leaves, and their
    stream: the whole product up to the cap, else a reduced product plus
    seeded draws over the whole domain."""
    values = dom.int_values
    count = len(values) ** k
    if count <= _EXHAUSTIVE_CAP:
        return count, itertools.product(values, repeat=k)
    reduced = values[: max(1, int(_EXHAUSTIVE_CAP ** (1.0 / k)))]
    return len(reduced) ** k + _RANDOM_SAMPLES, itertools.chain(
        itertools.product(reduced, repeat=k), _draws(values, k, _RANDOM_SAMPLES))


def _draws(values: tuple, k: int, n: int) -> Iterator[tuple]:
    rng = random.Random(_SAMPLE_SEED)  # made on the first draw, not before
    for _ in range(n):
        yield tuple(map(rng.choice, itertools.repeat(values, k)))


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


class _Forms:
    """What data_equiv keeps on a graph, in Graph.forms: the normal form
    (or None) and the leaves of each node walked, as variables numbered in
    names, the table the graph shares with its partners. A leaf set is cut
    at _LEAF_BOUND elements, past which the count of assignments no longer
    changes."""

    __slots__ = ("names", "forms", "leaves")

    def __init__(self, names: dict):
        self.names = names
        self.forms: dict[int, dict | None] = {}
        self.leaves: dict[int, frozenset] = {}


def _leaf_bound(cap: int) -> int:
    """The least k from which on the count of _assignments(dom, k) under cap
    is the same for every domain: from there every product of two or more
    values passes the cap, and the reduced product is one tuple."""
    k = max(1, cap.bit_length())  # 2 ** k > cap
    while int(cap ** (1.0 / k)) > 1:
        k += 1
    return k


# Derived once: a smaller cap has a bound no larger, so from this one on
# its count of assignments is constant too.
_LEAF_BOUND = _leaf_bound(_EXHAUSTIVE_CAP)


def _shared_forms(g1: Graph, g2: Graph) -> tuple[_Forms, _Forms]:
    """Both graphs' records, numbered from one table: g2 takes g1's table,
    dropping its own records where it had another."""
    r1 = g1.forms
    if r1 is None:
        r1 = g1.forms = _Forms({})
    r2 = g2.forms
    if r2 is None or r2.names is not r1.names:
        r2 = g2.forms = _Forms(r1.names)
    return r1, r2


def _variable(e: tuple, names: dict) -> int:
    """The variable of a parameter entry (by its index) or of a state-slot
    entry (by its node)."""
    key = (PARAM, e[2]) if e[0] == PARAM else (STATE, e[1])
    return names.setdefault(key, len(names))


def _inputs(e: tuple) -> tuple:
    """The nodes e's node reads, left to right: x, then y, or a
    conditional's condition, then each arm that is a node id."""
    code, _, arg, x, y = e
    if code == COND:
        return (x, *[a for a in arg if type(a) is int])
    if y is not None:
        return (x, y)
    return () if x is None else (x,)


_NO_LEAVES = frozenset()


def _leaves(e: tuple, r: _Forms) -> frozenset:
    """The leaves of e's node: its own variable for a parameter or a state
    slot, else the union of its inputs' and both arms', cut at _LEAF_BOUND."""
    if e[0] == PARAM or e[0] == STATE:
        return frozenset((_variable(e, r.names),))
    s = _NO_LEAVES
    for t in _inputs(e):
        if len(s) >= _LEAF_BOUND:  # s counts as all of them
            break
        u = r.leaves[t]
        if not u <= s:
            s = u if s <= u else s | u
    return s if len(s) <= _LEAF_BOUND else frozenset(itertools.islice(s, _LEAF_BOUND))


def _chosen(e: tuple, forms: dict) -> tuple:
    """The arms of the conditional entry e whose forms its form reads: the
    arm a constant condition chooses, both where the condition is not
    constant, none where it has no form."""
    fx = forms[e[3]]
    if fx is None:
        return ()
    c = _constant(fx)
    return e[2] if c is None else (e[2][0] if c else e[2][1],)


def _form(e: tuple, r: _Forms) -> dict | None:
    """The polynomial of e's node over its inputs' forms, or None where it
    has none: a constant that is not an IntVal, a stuck node, an input or
    a chosen arm with no form, a placeholder arm chosen, or more than
    _TERM_CAP terms or degrees."""
    code, _, arg, x, y = e
    forms = r.forms
    if code == BINARY or code == UNARY:
        ins = (forms[x],) if code == UNARY else (forms[x], forms[y])
        if ins[0] is None or ins[-1] is None:
            return None
        ring = _RING.get(arg)
        f = ring(*ins) if ring else _opaque(r.names, arg, ins)
        return None if f is None or len(f) > _TERM_CAP else f
    if code == CONST:
        return _constant_form(arg.value) if type(arg) is IntVal else None
    if code == PARAM or code == STATE:
        return {(_variable(e, r.names),): 1}
    if code == PROXY:
        return forms[x]
    if code == COND:
        arms = _chosen(e, forms)
        if not arms or any(callable(a) or forms[a] is None for a in arms):
            return None
        t, f = forms[arms[0]], forms[arms[-1]]
        return t if t == f else _atom(r.names, COND, (forms[x], t, f))
    return None  # STUCK


def _walk(g: Graph, r: _Forms, root: int) -> None:
    """Derive into r the form and leaves of root and of every node below
    it, both arms of each conditional included, in dataflow.post_order
    over dataflow._entry, not walking a node already derived again. Raises
    CyclicExpression at the first node met again on its own path."""
    forms, leaves = r.forms, r.leaves
    for e in post_order((root,), partial(_entry, g), _inputs, forms):
        n = e[1]
        leaves[n] = _leaves(e, r)
        forms[n] = _form(e, r)


# Assignments decided per pass over a schedule. A refutation is found only
# after its whole chunk is evaluated, so the first chunk is a few lanes,
# and every later one _CHUNK, over which the per-pass cost is spread.
_FIRST_CHUNK = 4
_CHUNK = 1024


def _boxed(v):
    return IntVal(v) if type(v) is int else v


def _leaf_keys(graphs: tuple, nid: int) -> tuple[list[int], list[int]]:
    """The sorted parameter indices and state-slot ids below nid in any of
    graphs, both arms included, which the lanes assign: the PARAM and STATE
    entries of a post_order over each cone. Each cone has been walked, so
    it has no cycle."""
    params, slots = set(), set()
    for g in graphs:
        seen = set()
        for code, n, arg, _, _ in post_order((nid,), partial(_entry, g), _inputs, seen):
            seen.add(n)
            if code == PARAM:
                params.add(arg)
            elif code == STATE:
                slots.add(n)
    return sorted(params), sorted(slots)


def data_equiv(g1: Graph, g2: Graph, nid: int, dom: Domain = Domain()) -> EquivVerdict:
    """Decide whether the expressions at nid agree on every tried assignment
    of the union of both graphs' free leaves. Equal normal forms prove it
    without trying any (proved, with samples_tried the assignments the
    proof covers); forms and leaves are derived once per node and kept on
    each graph. Otherwise assignments are tried in chunks, all lanes of a
    chunk at once, so a chunk costs at most the nodes of both cones times
    its lanes. Either way the verdict is the one trying them one by one, in
    order, gives. Raises CyclicExpression on a cycle in either cone, g1's
    first."""
    r1, r2 = _shared_forms(g1, g2)
    _walk(g1, r1, nid)
    _walk(g2, r2, nid)
    form = r1.forms[nid]
    if form is not None and form == r2.forms[nid]:
        count, _ = _assignments(dom, len(r1.leaves[nid] | r2.leaves[nid]))
        return EquivVerdict(Equivalence.EQUIVALENT, None, count, proved=True)

    param_keys, slot_keys = _leaf_keys((g1, g2), nid)
    arity = max(param_keys) + 1 if param_keys else 0
    _, stream = _assignments(dom, len(param_keys) + len(slot_keys))
    tried = 0
    width = min(_FIRST_CHUNK, _CHUNK)
    while chunk := list(itertools.islice(stream, width)):
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
        width = _CHUNK
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
