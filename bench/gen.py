"""Seeded generators for the three benchmark workloads.

Each workload is a fixed list of slots. A slot fixes the structural
parameters that set an operation's cost (graph size, DAG depth, trip counts,
recursion depth, branch count), so that runs with different seeds do the
same amount of work. The seed picks everything else: operators, constants,
wiring, which subexpressions are shared and which branches are taken.
"""

import random
from dataclasses import dataclass

from model import (
    Call, Cond, Const, If, Load, Loop, Method, Neg, New, Param, Proxy, Return,
    Store, StructuredProgram, Throw, Var, add, lt, mul, node_count, to_text,
)


@dataclass(eq=False)
class Case:
    """One generated program: its seanode/1 text, the structured program the
    oracle runs, the argument lists to run main with, and the slot's
    parameters."""

    name: str
    program: StructuredProgram
    text: str
    args: list  # list of argument tuples
    params: dict


C0, C1 = Const(0), Const(1)


def tree(rng: random.Random, leaves, size: int):
    """A fresh expression tree (no shared interior nodes) with `size`
    operators over the given leaves and small constants."""
    if size == 0:
        return rng.choice(leaves) if rng.random() < 0.8 else Const(rng.randint(-9, 9))
    if rng.random() < 0.15:
        return Neg(tree(rng, leaves, size - 1))
    left = rng.randint(0, size - 1)
    op = add if rng.random() < 0.7 else mul
    return op(tree(rng, leaves, left), tree(rng, leaves, size - 1 - left))


def gvn_dag(rng: random.Random, leaves, depth: int, width: int = 3):
    """Shared-subexpression DAG: each level holds `width` nodes, each built
    from two nodes of the level below. A root at depth d is a DAG of
    `width * d` nodes whose naive evaluation visits 2**(d+1) - 1 of them."""
    level = list(leaves)
    for _ in range(depth):
        level = [(add if rng.random() < 0.7 else mul)(*rng.sample(level, 2))
                 for _ in range(width)]
    return level


def _odd(rng):
    return Const(rng.randrange(3, 99, 2))


# -- exec-loops --------------------------------------------------------------

LOOPS_MAIN = ("Bench", "loops", ("int", "int"))

# (total nodes, DAG depth, outer trips, inner trips, cold diamonds). Bigger
# graphs get fewer trips, so that every slot costs about the same.
LOOPS_SLOTS = (
    (300, 7, 5, 6, 2), (1700, 6, 3, 2, 8), (700, 8, 4, 4, 4),
    (2000, 7, 2, 2, 10), (500, 6, 5, 5, 3), (1200, 8, 3, 2, 6),
    (400, 8, 4, 5, 2), (1500, 7, 2, 4, 7), (900, 6, 4, 4, 5),
    (1000, 7, 3, 4, 5), (600, 7, 5, 4, 3), (1400, 6, 3, 3, 7),
)


def _cold_region(rng, leaves, diamonds: int):
    """Branch-heavy code placed behind a test that never passes."""
    body, value = [], tree(rng, leaves, 3)
    for _ in range(diamonds):
        v = Var("cold")
        body.append(If(lt(tree(rng, leaves + [value], 4), tree(rng, leaves, 3)), [], [],
                       [(v, tree(rng, leaves + [value], 6), tree(rng, leaves + [value], 6))]))
        value = v
    return body, value


def loops_case(rng: random.Random, index: int, params) -> Case:
    total, depth, outer, inner, cold = params
    n_outer, n_inner = Param(0), Param(1)
    i, j = Var("i"), Var("j")
    a = [Var(f"a{k}") for k in range(3)]
    b = [Var(f"b{k}") for k in range(2)]

    d1 = gvn_dag(rng, [i, *a, _odd(rng)], depth)
    d2 = gvn_dag(rng, [j, *b, a[0], _odd(rng)], depth)
    c, w = Var("c"), Var("w")
    cold_body, cold_value = _cold_region(rng, [j, *b], cold // 2)
    inner_loop = Loop(
        phis=[(j, C0, add(j, C1)), (b[0], d1[1], add(b[0], w)),
              (b[1], _odd(rng), add(mul(b[1], Const(3)), d2[2]))],
        cond=lt(j, n_inner),
        body=[
            If(lt(d2[0], d2[1]), [], [],
               [(c, add(d2[2], _odd(rng)), mul(d2[0], _odd(rng)))]),
            If(lt(j, Const(-1)), cold_body, [], [(w, cold_value, add(c, C1))]),
        ],
    )
    pb0, pb1 = Proxy(b[0], inner_loop), Proxy(b[1], inner_loop)
    z, u = Var("z"), Var("u")
    cold_body2, cold_value2 = _cold_region(rng, [i, *a], cold - cold // 2)
    outer_loop = Loop(
        phis=[(i, C0, add(i, C1)), (a[0], _odd(rng), add(a[0], u)),
              (a[1], _odd(rng), add(mul(a[1], Const(5)), d1[0])),
              (a[2], _odd(rng), add(a[2], pb1))],
        cond=lt(i, n_outer),
        body=[
            inner_loop,
            If(lt(pb0, d1[1]), [], [], [(z, add(pb1, a[0]), add(d1[2], pb0))]),
            If(lt(i, Const(-1)), cold_body2, [], [(u, cold_value2, add(z, C1))]),
            Store("last", u),
        ],
    )
    last = Var("last")
    pa = [Proxy(v, outer_loop) for v in a]
    method = Method(LOOPS_MAIN, [
        outer_loop,
        Load(last, "last"),
        Return(add(add(pa[0], pa[1]), mul(pa[2], add(last, C1)))),
    ])
    # Residue of rewrites: unreferenced nodes, some reading live values.
    pool = [n_outer, n_inner, i, j, *a, *b]
    for _ in range(total - node_count(method)):
        if rng.random() < 0.3:
            e = Const(rng.randint(-100, 100))
        elif rng.random() < 0.2:
            e = Neg(rng.choice(pool))
        else:
            e = (add if rng.random() < 0.6 else mul)(rng.choice(pool), rng.choice(pool))
        method.dead.append(e)
        pool.append(e)
    program = StructuredProgram([method], LOOPS_MAIN)
    return Case(f"loops{index}", program, to_text(program),
                [(outer, inner)], {"nodes": total, "dag_depth": depth,
                                   "outer_trips": outer, "inner_trips": inner,
                                   "cold_diamonds": cold})


# -- exec-calls-heap ---------------------------------------------------------

HEAP_MAIN = ("Bench", "heapMain", ("int",))
WALK = ("Bench", "walk", ("int", "int", "ref", "int"))
CHECK = ("Bench", "check", ("int", "int"))
THROW_EVERY = 4  # one call to check in four unwinds
CELL_FIELDS = 6  # fields written per cell, besides its parent and child links

# (descents from main, recursion depth of each descent): 400 to 520 levels,
# chosen so that every slot costs about the same
HEAP_SLOTS = (
    (17, 30), (10, 48), (8, 60), (6, 80), (5, 96), (4, 120),
    (3, 160), (2, 260), (12, 40), (20, 24), (1, 400), (26, 20),
)


def heap_case(rng: random.Random, index: int, params) -> Case:
    descents, depth = params

    t, y = Param(0), Param(1)
    e = Var("e")
    check = Method(CHECK, [
        If(lt(t, C1), [New(e, "Error"), Store("code", tree(rng, [y, t], 3), e), Throw(e)], []),
        Return(tree(rng, [y, t], 4)),
    ])

    d, x, p, t = Param(0), Param(1), Param(2), Param(3)
    n, loaded, got, code, s, s2 = (Var(v) for v in ("n", "l", "c", "code", "s", "s2"))
    next_t = Cond(lt(t, Const(THROW_EVERY - 1)), add(t, C1), C0)
    # The handler path recurses on its own, so no merge (and no phi update)
    # joins the two paths: the walk's work is frames and heap writes.
    walk = Method(WALK, [
        If(lt(d, C1), [Return(tree(rng, [x, d], 4))], []),
        New(n, "Cell"),
        *(Store(f"f{k}", tree(rng, [x, d, t], 2), n) for k in range(CELL_FIELDS)),
        Store("parent", p, n),
        Store("child", n, p),
        Load(loaded, "f0", p),
        Call(got, CHECK, [t, tree(rng, [x, loaded], 2)], handler=[
            Load(code, "code", got),
            Call(s2, WALK, [add(d, Const(-1)), tree(rng, [x, code], 2), n, next_t]),
            Return(tree(rng, [s2, code, loaded], 3)),
        ]),
        Call(s, WALK, [add(d, Const(-1)), tree(rng, [x, got], 2), n, next_t]),
        Return(tree(rng, [s, got, loaded], 3)),
    ])

    x = Param(0)
    root, k, acc, res = Var("root"), Var("k"), Var("acc"), Var("res")
    loop = Loop(phis=[(k, C0, add(k, C1)), (acc, x, add(acc, res))],
                cond=lt(k, Const(descents)),
                body=[Call(res, WALK, [Const(depth), add(x, k), root, C0])])
    main = Method(HEAP_MAIN, [
        New(root, "Root"),
        loop,
        Store("total", Proxy(acc, loop)),
        Return(Proxy(acc, loop)),
    ])
    program = StructuredProgram([main, walk, check], HEAP_MAIN)
    return Case(f"heap{index}", program, to_text(program),
                [(rng.randint(-50, 50),)],
                {"descents": descents, "depth": depth, "throw_every": THROW_EVERY,
                 "cell_fields": CELL_FIELDS})


# -- validate-opt ------------------------------------------------------------

OPT_MAIN = ("Bench", "validate", ("int", "int"))
OPT_LOOP_TRIPS = 3

# (guards, dominated duplicate guards, diamonds, loops). The mixes differ
# but each costs about the same to validate, so the median and the tail fall
# inside one cluster of operation times rather than between slots.
OPT_SLOTS = (
    (40, 20, 2, 2), (30, 16, 4, 2), (26, 26, 3, 2), (30, 12, 2, 3),
    (30, 20, 5, 1), (34, 17, 3, 2), (44, 8, 2, 2), (26, 26, 2, 3),
)


def _noise(rng, e, steps: int, same_value: bool = False):
    """Wrap e in foldable and identity operations the canonicalizer removes;
    with same_value, only in those that keep its value."""
    base = e
    for _ in range(steps):
        roll = rng.randrange(6 if same_value else 8)
        if roll == 0:
            e = add(e, C0) if rng.random() < 0.5 else add(C0, e)
        elif roll == 1:
            e = mul(e, C1) if rng.random() < 0.5 else mul(C1, e)
        elif roll == 2:
            e = Neg(Neg(e))
        elif roll == 3:
            e = Cond(Const(rng.randint(1, 5)), e, Const(rng.randint(-9, 9)))
        elif roll == 4:
            e = Cond(C0, Const(rng.randint(-9, 9)), e)
        elif roll == 5:
            # Testing base rather than e keeps evaluation linear in the chain.
            e = Cond(lt(base, Const(rng.randint(-9, 9))), e, e)
        elif roll == 6:
            e = add(e, add(Const(rng.randint(-9, 9)), Const(rng.randint(-9, 9))))
        else:
            e = mul(e, Neg(Const(rng.randrange(1, 9, 2))))
    return e


def opt_case(rng: random.Random, index: int, params) -> Case:
    guards, dups, diamonds, loops = params
    x, y = Param(0), Param(1)
    kinds = ["guard"] * guards + ["dup"] * dups + ["diamond"] * (diamonds - 1) + ["loop"] * loops
    rng.shuffle(kinds)
    # Opening with a diamond makes the carried value a phi from the start, so
    # the number of free leaves (and data_equiv's work) does not hang on where
    # the shuffle puts the first phi.
    kinds.insert(0, "diamond")
    body, v, tested = [], x, []
    for kind in kinds:
        if kind == "dup" and tested:
            # Every earlier guard dominates this test: its fall-through arm is
            # the only way here. Copies alternate between the same condition
            # node and a structurally equal one.
            prior = rng.choice(tested)
            test = prior if rng.random() < 0.5 else lt(prior.x, prior.y)
            body.append(If(test, [], [Return(_noise(rng, add(v, x), 2))]))
        elif kind in ("guard", "dup"):
            # Passes unless the left side is INT_MIN, so runs go deep.
            cond = lt(_noise(rng, Const(-2 ** 31), 1, same_value=True), _noise(rng, add(v, x), 2))
            body.append(If(cond, [], [Return(_noise(rng, add(v, y), 2))]))
            tested.append(cond)
        elif kind == "diamond":
            out = Var("diamond")
            cond = lt(_noise(rng, add(v, x), 2), _noise(rng, add(y, _odd(rng)), 2))
            body.append(If(cond, [], [], [(out, _noise(rng, add(v, x), 3),
                                           _noise(rng, mul(v, _odd(rng)), 3))]))
            v = out
        else:
            i, acc = Var("i"), Var("acc")
            loop = Loop(phis=[(i, C0, add(i, C1)),
                              (acc, v, _noise(rng, add(acc, i), 3))],
                        cond=lt(i, Const(OPT_LOOP_TRIPS)), body=[])
            body.append(loop)
            v = Proxy(acc, loop)
    body.append(Return(_noise(rng, add(v, y), 3)))
    method = Method(OPT_MAIN, body)
    program = StructuredProgram([method], OPT_MAIN)
    return Case(f"opt{index}", program, to_text(program),
                [(a, b) for a in OPT_DOMAIN for b in OPT_DOMAIN],
                {"nodes": node_count(method), "guards": guards, "duplicate_guards": dups,
                 "diamonds": diamonds, "loops": loops, "loop_trips": OPT_LOOP_TRIPS})


# Argument values behavior_diff tries for each parameter of validate-opt.
OPT_DOMAIN = (-1, 2)


GENERATORS = {
    "exec-loops": (loops_case, LOOPS_SLOTS),
    "exec-calls-heap": (heap_case, HEAP_SLOTS),
    "validate-opt": (opt_case, OPT_SLOTS),
}


def generate(workload: str, seed: int, slots=None) -> list[Case]:
    """One case per slot (by default the workload's own), from one seed."""
    make, default = GENERATORS[workload]
    rng = random.Random(f"{workload}:{seed}")
    return [make(rng, i, params) for i, params in enumerate(slots or default)]
