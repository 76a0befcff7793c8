"""Canonicalization rewrites and a dominating-branch conditional-elimination
pass.

Each canonicalization rule is declared once in RULES: its name, its node
kind, and the replacement it gives, a new node or the input it forwards to.
Every kind with an arithmetic `OP` gets a constant fold first, named after
the operation (`fold-add` for `runtime.int_add`). `canonicalize_data` tries
a node's rules in declaration order; the first replacement wins.

Rewrites replace the node stored at an id; nodes that become unreferenced
stay in the graph (other ids may still use them, and ids must remain
stable). A rewrite that forwards to an existing node duplicates that node
at the rewritten id instead of rewiring usages, so it only fires when the
forwarded node is a pure data node that may legally appear twice.
"""

from collections.abc import Callable
from dataclasses import dataclass, field

from . import ir
from .controlflow import IF, plan
from .controlflow import merge_of_end  # noqa: F401  kept for bench/tests/test_bench.py
from .ir import Graph, IRNode
from .runtime import IntVal


class IterationCapExceeded(Exception):
    def __init__(self, graph: Graph, report: "PassReport"):
        super().__init__(f"no fixpoint after {report.iterations} sweeps")
        self.graph = graph
        self.report = report


@dataclass(frozen=True)
class Rewrite:
    target: int
    before: IRNode
    after: IRNode
    rule: str = ""

    def log_line(self) -> str:
        return (
            f"{self.rule} @{self.target}: "
            f"{self.before.kind_name()} -> {self.after.kind_name()}"
        )


@dataclass
class PassReport:
    rewrites: list = field(default_factory=list)
    iterations: int = 0
    fixpoint: bool = False

    def log_lines(self) -> list[str]:
        return [rw.log_line() for rw in self.rewrites]


@dataclass(frozen=True)
class Rule:
    """A canonicalization rule for nodes of one kind. replace(node, at) reads
    inputs through at (id -> node, as Graph.kind) and gives a new node, the
    id of the input to forward to, or None where the rule does not match."""

    name: str
    kind: type
    replace: Callable


def _int(at, nid: int) -> int | None:
    node = at(nid)
    if isinstance(node, ir.ConstantNode) and isinstance(node.const, IntVal):
        return node.const.value
    return None


def _fold(node, at):
    args = [_int(at, x) for x in ir.value_inputs(node)]
    return None if None in args else ir.ConstantNode(IntVal(type(node).OP(*args)))


def _identity(unit: int):
    """x op unit and unit op x forward to x."""
    return lambda n, at: (n.x if _int(at, n.y) == unit
                          else n.y if _int(at, n.x) == unit else None)


def _choose(at, cond: int, if_true: int, if_false: int) -> int | None:
    c = _int(at, cond)
    return None if c is None else if_true if c != 0 else if_false


def _ref(successor: int | None) -> ir.RefNode | None:
    return None if successor is None else ir.RefNode(successor)


# The IfNode rules leave a RefNode to the surviving successor. They bypass
# the condition's evaluation, which is sound because data conditions are
# side-effect free.
RULES = (
    *(Rule("fold-" + k.OP.__name__.removeprefix("int_").replace("_", "-"), k, _fold)
      for k in ir.NODE_KINDS.values() if k.OP),
    Rule("add-zero", ir.AddNode, _identity(0)),
    Rule("mul-zero", ir.MulNode, lambda n, at: (
        ir.ConstantNode(IntVal(0)) if 0 in (_int(at, n.x), _int(at, n.y)) else None)),
    Rule("mul-one", ir.MulNode, _identity(1)),
    Rule("negate-negate", ir.NegateNode, lambda n, at: (
        at(n.value).value if isinstance(at(n.value), ir.NegateNode) else None)),
    Rule("conditional-constant", ir.ConditionalNode, lambda n, at: (
        _choose(at, n.condition, n.trueValue, n.falseValue))),
    Rule("conditional-equal-branches", ir.ConditionalNode, lambda n, at: (
        n.trueValue if n.trueValue == n.falseValue else None)),
    Rule("if-constant-condition", ir.IfNode, lambda n, at: (
        _ref(_choose(at, n.condition, n.trueSuccessor, n.falseSuccessor)))),
    Rule("if-equal-branches", ir.IfNode, lambda n, at: (
        ir.RefNode(n.trueSuccessor) if n.trueSuccessor == n.falseSuccessor else None)),
)

_RULES_OF = {k: [r for r in RULES if r.kind is k] for k in {r.kind for r in RULES}}


def canonicalize_data(g: Graph, nid: int) -> Rewrite | None:
    """The rewrite at nid of the first rule declared for its kind that
    gives a replacement, or None. g is a Graph or a sweep's working map."""
    at = g.kind
    node = at(nid)
    for rule in _RULES_OF.get(type(node), ()):
        after = rule.replace(node, at)
        if isinstance(after, int):
            # State-leaf nodes (phis, invokes, loads, allocations) read the
            # method state under their own id and must not be duplicated.
            after = at(after)
            if not ir.is_pure(after):
                continue
        if isinstance(after, IRNode):  # else no match, or a forward to no node
            return Rewrite(nid, node, after, rule.name)
    return None


# -- control-flow graph and dominators ------------------------------------

def _cfg(g: Graph) -> tuple[list[int], dict[int, set[int]]]:
    """One iterative depth-first walk of the step-entry successors reachable
    from node 0: those nodes in reverse postorder, and each one's
    predecessors among them. Edges to unmapped ids are dropped."""
    if 0 not in g:
        return [], {}
    preds: dict[int, set[int]] = {0: set()}
    postorder = []
    stack = [(0, iter(plan(g, 0)[1]))]
    while stack:
        n, succs = stack[-1]
        for s in succs:
            if s in preds:
                preds[s].add(n)
            elif s in g:
                preds[s] = {n}
                stack.append((s, iter(plan(g, s)[1])))
                break
        else:
            stack.pop()
            postorder.append(n)
    postorder.reverse()
    return postorder, preds


def dominators(g: Graph) -> dict[int, int]:
    """Immediate dominator of each control node reachable from node 0, which
    maps to itself."""
    return _idoms(*_cfg(g))


def _idoms(order: list[int], preds: dict[int, set[int]]) -> dict[int, int]:
    """dominators from one _cfg walk. The iteration is Cooper, Harvey and
    Kennedy's, "A Simple, Fast Dominance Algorithm" (2001): in reverse
    postorder, meet the processed predecessors by walking up the idoms until
    they agree."""
    rank = {n: i for i, n in enumerate(order)}
    idom = {0: 0} if order else {}

    def meet(a: int, b: int) -> int:
        while a != b:
            while rank[a] > rank[b]:
                a = idom[a]
            while rank[b] > rank[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for n in order[1:]:
            # A node's depth-first parent precedes it, so new is never None.
            new = None
            for p in preds[n]:
                if p in idom:
                    new = p if new is None else meet(p, new)
            if idom.get(n) != new:
                idom[n] = new
                changed = True
    return idom


def _fact_keys(g: Graph, cond: int) -> list:
    # Facts match by condition node id and by structural node equality, so a
    # re-materialized copy of the same test is still recognized.
    return [("id", cond), ("node", g.kind(cond))]


def conditional_elimination(g: Graph) -> tuple[Graph, PassReport]:
    """Walk the dominator tree carrying branch facts; any dominated IfNode
    whose condition is already decided becomes a RefNode to the implied
    branch. Facts are scoped to the dominator subtree that established them.
    """
    order, preds = _cfg(g)
    idom = _idoms(order, preds)
    children: dict[int, list[int]] = {n: [] for n in idom}
    # Ascending ids, so each child list is sorted; the root 0 comes first.
    for n in sorted(idom)[1:]:
        children[idom[n]].append(n)

    rewrites: list[Rewrite] = []
    facts: dict = {}

    def enter_facts(n: int) -> list:
        # Node 0 is entered from the caller too, not only from its one
        # predecessor, if it has one.
        if n == 0 or len(preds[n]) != 1:
            return []
        (p,) = preds[n]
        code, succs, roots = plan(g, p)[:3]
        if code != IF or succs[0] == succs[1]:
            return []
        # The branch is n's one predecessor, so n is one of its successors.
        value = n == succs[0]
        added = []
        for key in _fact_keys(g, roots[0]):
            if key not in facts:
                facts[key] = value
                added.append(key)
        return added

    # Preorder walk with an explicit stack, so depth is not bounded by the
    # recursion limit: a node id enters a subtree, and the list of fact keys
    # its root added is popped after the subtree to drop those facts again.
    stack: list = [0] if idom else []
    while stack:
        n = stack.pop()
        if isinstance(n, list):
            for key in n:
                del facts[key]
            continue
        added = enter_facts(n)
        code, succs, roots = plan(g, n)[:3]
        if code == IF:
            known = next((facts[k] for k in _fact_keys(g, roots[0]) if k in facts), None)
            if known is not None:
                rewrites.append(Rewrite(n, g.kind(n), ir.RefNode(succs[0 if known else 1]),
                                        "condelim-implied-branch"))
        stack.append(added)
        stack.extend(reversed(children[n]))

    if rewrites:
        # Every rewrite was decided on g, so they all go into one edit.
        g = g.edit({rw.target: rw.after for rw in rewrites})
    return g, PassReport(rewrites=rewrites, iterations=1, fixpoint=not rewrites)


class _Working(dict):
    """A sweep's node map as its rewrites change it, read like a Graph."""

    def kind(self, nid: int) -> IRNode:
        return self.get(nid, ir.NO_NODE)


def _sweep_canonicalize(g: Graph) -> tuple[Graph, list[Rewrite]]:
    """One rewrite attempt per id in ascending order. Each rewrite goes into
    one working map, so later ones see it; they all go into one edit of g at
    the end, and a sweep without rewrites returns g itself, caches and all."""
    work = _Working(g.items())
    applied = []
    for nid in sorted(work):
        rw = canonicalize_data(work, nid)
        if rw is not None:
            work[nid] = rw.after
            applied.append(rw)
    return (g.edit({rw.target: rw.after for rw in applied}) if applied else g), applied


PASS_NAMES = ("canonicalize", "condelim", "all")
_SWEEP_CAP = 100


def apply_pass(g: Graph, which: str = "all") -> tuple[Graph, PassReport]:
    """Sweep the chosen rewrites to a fixpoint (bounded by an iteration cap)."""
    if which not in PASS_NAMES:
        raise ValueError(f"unknown pass {which!r}, expected one of {PASS_NAMES}")
    report = PassReport()
    for _ in range(_SWEEP_CAP):
        report.iterations += 1
        sweep: list[Rewrite] = []
        if which in ("canonicalize", "all"):
            g, applied = _sweep_canonicalize(g)
            sweep.extend(applied)
        if which in ("condelim", "all"):
            g, sub = conditional_elimination(g)
            sweep.extend(sub.rewrites)
        report.rewrites.extend(sweep)
        if not sweep:
            report.fixpoint = True
            return g, report
    raise IterationCapExceeded(g, report)
