"""Canonicalization rewrites and a dominating-branch conditional-elimination
pass.

Rewrites replace the node stored at an id; nodes that become unreferenced
stay in the graph (other ids may still use them, and ids must remain
stable). A rewrite that forwards to an existing node duplicates that node
at the rewritten id instead of rewiring usages, so it only fires when the
forwarded node is a pure data node that may legally appear twice.
"""

from dataclasses import dataclass, field

from . import ir
from .controlflow import StepStuck, merge_of_end
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


def apply_rewrite(g: Graph, rw: Rewrite) -> Graph:
    return g.replace_node(rw.target, rw.after)


def _const_of(g: Graph, nid: int) -> IntVal | None:
    node = g.kind(nid)
    if isinstance(node, ir.ConstantNode) and isinstance(node.const, IntVal):
        return node.const
    return None


def _folded(node: IRNode, *args: IntVal) -> ir.ConstantNode:
    """The constant an arithmetic node computes from constant inputs."""
    return ir.ConstantNode(IntVal(type(node).OP(*(a.value for a in args))))


def _forward_to(g: Graph, nid: int, node: IRNode, x: int, rule: str) -> Rewrite | None:
    # State-leaf nodes (phis, invokes, loads, allocations) read the method
    # state under their own id and must not be duplicated.
    copy = g.kind(x)
    if not ir.is_pure(copy):
        return None
    return Rewrite(nid, node, copy, rule)


def canonicalize_data(g: Graph, nid: int) -> Rewrite | None:
    """First matching data rewrite at nid: constant folds, then arithmetic
    identities, then conditional-expression simplifications."""
    node = g.kind(nid)

    if isinstance(node, ir.AddNode):
        a, b = _const_of(g, node.x), _const_of(g, node.y)
        if a is not None and b is not None:
            return Rewrite(nid, node, _folded(node, a, b), "fold-add")
        if b is not None and b.value == 0:
            return _forward_to(g, nid, node, node.x, "add-zero")
        if a is not None and a.value == 0:
            return _forward_to(g, nid, node, node.y, "add-zero")

    if isinstance(node, ir.MulNode):
        a, b = _const_of(g, node.x), _const_of(g, node.y)
        if a is not None and b is not None:
            return Rewrite(nid, node, _folded(node, a, b), "fold-mul")
        if (a is not None and a.value == 0) or (b is not None and b.value == 0):
            return Rewrite(nid, node, ir.ConstantNode(IntVal(0)), "mul-zero")
        if b is not None and b.value == 1:
            return _forward_to(g, nid, node, node.x, "mul-one")
        if a is not None and a.value == 1:
            return _forward_to(g, nid, node, node.y, "mul-one")

    if isinstance(node, ir.NegateNode):
        a = _const_of(g, node.value)
        if a is not None:
            return Rewrite(nid, node, _folded(node, a), "fold-negate")
        inner = g.kind(node.value)
        if isinstance(inner, ir.NegateNode):
            return _forward_to(g, nid, node, inner.value, "negate-negate")

    if isinstance(node, ir.IntegerLessThanNode):
        a, b = _const_of(g, node.x), _const_of(g, node.y)
        if a is not None and b is not None:
            return Rewrite(nid, node, _folded(node, a, b), "fold-less-than")

    if isinstance(node, ir.ConditionalNode):
        c = _const_of(g, node.condition)
        if c is not None:
            chosen = node.trueValue if c.value != 0 else node.falseValue
            return _forward_to(g, nid, node, chosen, "conditional-constant")
        if node.trueValue == node.falseValue:
            return _forward_to(g, nid, node, node.trueValue, "conditional-equal-branches")

    return None


def canonicalize_if(g: Graph, nid: int) -> Rewrite | None:
    """IfNode rewrites: a constant condition or equal branches leave a
    RefNode to the surviving successor (condition evaluation is bypassed,
    which is sound because data conditions are side-effect free)."""
    node = g.kind(nid)
    if not isinstance(node, ir.IfNode):
        return None
    c = _const_of(g, node.condition)
    if c is not None:
        target = node.trueSuccessor if c.value != 0 else node.falseSuccessor
        return Rewrite(nid, node, ir.RefNode(target), "if-constant-condition")
    if node.trueSuccessor == node.falseSuccessor:
        return Rewrite(nid, node, ir.RefNode(node.trueSuccessor), "if-equal-branches")
    return None


# -- control-flow graph and dominators ------------------------------------

def cfg_successors(g: Graph, nid: int) -> list[int]:
    """Successor edges plus the end-to-merge pseudo-successor."""
    node = g.kind(nid)
    succ = ir.successors_of(node)
    if isinstance(node, ir.AbstractEndNode):
        try:
            merge, _ = merge_of_end(g, nid)
        except StepStuck:
            return succ
        succ = succ + [merge]
    return succ


def _cfg(g: Graph) -> tuple[list[int], dict[int, set[int]]]:
    """One iterative depth-first walk of the control flow reachable from
    node 0: those nodes in reverse postorder, and each one's predecessors
    among them. Edges to unmapped ids are dropped."""
    if 0 not in g:
        return [], {}
    preds: dict[int, set[int]] = {0: set()}
    postorder = []
    stack = [(0, iter(cfg_successors(g, 0)))]
    while stack:
        n, succs = stack[-1]
        for s in succs:
            if s in preds:
                preds[s].add(n)
            elif s in g:
                preds[s] = {n}
                stack.append((s, iter(cfg_successors(g, s))))
                break
        else:
            stack.pop()
            postorder.append(n)
    postorder.reverse()
    return postorder, preds


def dominators(g: Graph) -> dict[int, int]:
    """Immediate dominator of each control node reachable from node 0, which
    maps to itself. The iteration is Cooper, Harvey and Kennedy's, "A Simple,
    Fast Dominance Algorithm" (2001): in reverse postorder, meet the
    processed predecessors by walking up the idoms until they agree."""
    order, preds = _cfg(g)
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
    idom = dominators(g)
    _, preds = _cfg(g)
    children: dict[int, list[int]] = {n: [] for n in idom}
    # Ascending ids, so each child list is sorted; the root 0 comes first.
    for n in sorted(idom)[1:]:
        children[idom[n]].append(n)

    rewrites: list[Rewrite] = []
    facts: dict = {}

    def enter_facts(n: int) -> list:
        if len(preds[n]) != 1:
            return []
        (p,) = preds[n]
        branch = g.kind(p)
        if not isinstance(branch, ir.IfNode):
            return []
        if branch.trueSuccessor == branch.falseSuccessor:
            return []
        # The branch is n's one predecessor, so n is one of its successors.
        value = n == branch.trueSuccessor
        added = []
        for key in _fact_keys(g, branch.condition):
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
        node = g.kind(n)
        if isinstance(node, ir.IfNode):
            known = None
            for key in _fact_keys(g, node.condition):
                if key in facts:
                    known = facts[key]
                    break
            if known is not None:
                target = node.trueSuccessor if known else node.falseSuccessor
                rewrites.append(
                    Rewrite(n, node, ir.RefNode(target), "condelim-implied-branch")
                )
        stack.append(added)
        stack.extend(reversed(children[n]))

    if rewrites:
        # Every rewrite was decided on g, so they all go into one build.
        nodes = dict(g.items())
        nodes.update((rw.target, rw.after) for rw in rewrites)
        g = Graph(nodes)
    return g, PassReport(rewrites=rewrites, iterations=1, fixpoint=not rewrites)


def _sweep_canonicalize(g: Graph) -> tuple[Graph, list[Rewrite]]:
    applied = []
    for nid in sorted(g.ids()):
        node = g.kind(nid)
        if isinstance(node, ir.IfNode):
            rw = canonicalize_if(g, nid)
        elif ir.is_data(node):
            rw = canonicalize_data(g, nid)
        else:
            rw = None
        if rw is not None:
            g = apply_rewrite(g, rw)
            applied.append(rw)
    return g, applied


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
