"""Semantic-equivalence checking for rewrites.

A data rewrite is checked at the rewritten id in both graphs. First each
expression is normalized to a polynomial over Z/2^32, the ring the 32-bit
operations wrap in: parameters and method-state slots are its variables,
add, sub, mul and negate its operations, and any other operation, or a
conditional whose condition is not constant, an opaque atom over its
normalized operands. Equal normal forms prove that the two expressions
agree on every assignment of 32-bit ints to the free leaves; a proof says
nothing about a leaf that holds another value. Each node's form and
leaves are derived once per graph and kept on it (Graph.forms), numbered
from one table both graphs of a pair share, so a proof is two lookups and
a compare. Where there is no proof, the expressions are evaluated over
every assignment of a finite value domain to the free leaves, a chunk of
assignments at a time, with dataflow.evaluate_lanes. Either way the
verdict is the one trying those assignments gives, and samples_tried
counts the assignments it covers. Control rewrites are checked by
differential whole-program execution.
"""

import enum
import itertools
import random
from dataclasses import dataclass, field

from . import runtime
from .dataflow import (
    BINARY, COND, CONST, PARAM, PROXY, STATE, UNARY, _entry, evaluate_lanes, free_leaves,
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


class _Forms:
    """What data_equiv keeps on a graph, in Graph.forms: the normal form
    (or None) of each node whose form was needed, and the leaves of each
    node walked, as variables numbered in names, the table the graph
    shares with its partners. A leaf set is cut at bound elements: past
    _leaf_bound leaves, the count of assignments no longer changes."""

    __slots__ = ("names", "bound", "forms", "leaves")

    def __init__(self, names: dict, bound: int):
        self.names, self.bound = names, bound
        self.forms: dict[int, dict | None] = {}
        self.leaves: dict[int, frozenset] = {}


def _leaf_bound() -> int:
    """The least k from which on len(_assignments(dom, k)) is the same for
    every domain: from there every product of two or more values passes
    the cap, and the reduced product is one tuple. Read at each call, as
    the cap may change."""
    k = max(1, _EXHAUSTIVE_CAP.bit_length())  # 2 ** k > _EXHAUSTIVE_CAP
    while int(_EXHAUSTIVE_CAP ** (1.0 / k)) > 1:
        k += 1
    return k


def _shared_forms(g1: Graph, g2: Graph) -> tuple[_Forms, _Forms]:
    """Both graphs' records, numbered from one table: g2 takes g1's table,
    dropping its own records where it had another. Records cut at another
    bound are dropped too."""
    bound = _leaf_bound()
    r1 = g1.forms
    if r1 is None or r1.bound != bound:
        r1 = g1.forms = _Forms({} if r1 is None else r1.names, bound)
    r2 = g2.forms
    if r2 is None or r2.names is not r1.names or r2.bound != bound:
        r2 = g2.forms = _Forms(r1.names, bound)
    return r1, r2


def _variable(e: tuple, names: dict) -> int:
    """The variable of a parameter entry (by its index) or of a state-slot
    entry (by its node)."""
    key = (PARAM, e[2]) if e[0] == PARAM else (STATE, e[1])
    return names.setdefault(key, len(names))


_NO_LEAVES = frozenset()


def _leaves(e: tuple, r: _Forms) -> frozenset:
    """The leaves of e's node: its own variable for a parameter or a state
    slot, else the union of its inputs' and both arms', cut at r.bound."""
    code, _, arg, x, y = e
    if code == PARAM or code == STATE:
        return frozenset((_variable(e, r.names),))
    s = _NO_LEAVES
    for t in (x, y, *arg) if code == COND else (x, y):
        if type(t) is int and len(s) < r.bound:  # else s counts as all of them
            u = r.leaves[t]
            if not u <= s:
                s = u if s <= u else s | u
    return s if len(s) <= r.bound else frozenset(itertools.islice(s, r.bound))


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


_ARMS = (None, False)  # in a walk's to-do list: a conditional's arms


def _walk(g: Graph, r: _Forms, root: int) -> bool:
    """Derive into r the leaves of root and of every node below it, both
    arms of each conditional included, and the forms of root and of every
    node its form reads: an arm's only where its conditional may choose
    it. One iterative post-order over dataflow._entry; a node already
    derived is not walked again. False where the walk meets a cycle,
    which is left to free_leaves to raise."""
    forms, leaves = r.forms, r.leaves
    if root in forms:
        return True
    path = set()
    stack = []
    todo = [(root, True)]  # (node, whether its form is wanted), last first
    e, want = None, True
    while True:
        while todo:
            t, w = todo.pop()
            if t is None:  # the condition is done: its form picks the arms
                chosen = _chosen(e, forms) if want else ()
                todo += [(a, a in chosen) for a in e[2] if type(a) is int]
                continue
            if t in forms or not w and t in leaves:
                continue
            if t in path:
                return False
            te = _entry(g, t)
            code, _, _, x, y = te
            if code == COND:
                inputs = [_ARMS, (x, w)]
            elif y is not None:
                inputs = [(y, w), (x, w)]
            elif x is not None:
                inputs = [(x, w)]
            else:  # no inputs: done at once
                if t not in leaves:
                    leaves[t] = _leaves(te, r)
                if w:
                    forms[t] = _form(te, r)
                continue
            path.add(t)
            stack.append((e, want, todo))
            e, want, todo = te, w, inputs
        if not stack:
            return True
        n = e[1]
        path.discard(n)
        if n not in leaves:
            leaves[n] = _leaves(e, r)
        if want:
            forms[n] = _form(e, r)
        e, want, todo = stack.pop()


# Assignments decided per pass over a schedule. A refutation is found only
# after its whole chunk is evaluated, so the first chunk is a few lanes,
# and every later one _CHUNK, over which the per-pass cost is spread.
_FIRST_CHUNK = 4
_CHUNK = 1024


def _boxed(v):
    return IntVal(v) if type(v) is int else v


def data_equiv(g1: Graph, g2: Graph, nid: int, dom: Domain = Domain()) -> EquivVerdict:
    """Decide whether the expressions at nid agree on every tried assignment
    of the union of both graphs' free leaves. Equal normal forms prove it
    without trying any (proved, with samples_tried the assignments the
    proof covers); forms and leaves are derived once per node and kept on
    each graph. Otherwise assignments are tried in chunks, all lanes of a
    chunk at once, so a chunk costs at most the nodes of both cones times
    its lanes. Either way the verdict is the one trying them one by one, in
    order, gives. free_leaves raises on a cycle in either cone."""
    r1, r2 = _shared_forms(g1, g2)
    if (_walk(g1, r1, nid) and (form := r1.forms[nid]) is not None
            and _walk(g2, r2, nid) and form == r2.forms[nid]):
        k = len(r1.leaves[nid] | r2.leaves[nid])
        return EquivVerdict(Equivalence.EQUIVALENT, None, len(_assignments(dom, k)), proved=True)

    p1, s1 = free_leaves(g1, nid)
    p2, s2 = free_leaves(g2, nid)
    param_keys = sorted(p1 | p2)
    slot_keys = sorted(s1 | s2)
    arity = max(param_keys) + 1 if param_keys else 0
    stream = iter(_assignments(dom, len(param_keys) + len(slot_keys)))
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
