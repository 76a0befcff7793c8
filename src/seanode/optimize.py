"""Canonicalization rewrites and a dominating-branch conditional-elimination
pass.

Rewrites replace the node stored at an id; nodes that become unreferenced
stay in the graph (other ids may still use them, and ids must remain
stable). A rewrite that forwards to an existing node duplicates that node
at the rewritten id instead of rewiring usages, so it only fires when the
forwarded node is a pure data node that may legally appear twice.
"""

from dataclasses import dataclass, field

from . import ir, runtime
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
            return Rewrite(nid, node, ir.ConstantNode(runtime.int_add(a, b)), "fold-add")
        if b is not None and b.value == 0:
            return _forward_to(g, nid, node, node.x, "add-zero")
        if a is not None and a.value == 0:
            return _forward_to(g, nid, node, node.y, "add-zero")

    if isinstance(node, ir.MulNode):
        a, b = _const_of(g, node.x), _const_of(g, node.y)
        if a is not None and b is not None:
            return Rewrite(nid, node, ir.ConstantNode(runtime.int_mul(a, b)), "fold-mul")
        if (a is not None and a.value == 0) or (b is not None and b.value == 0):
            return Rewrite(nid, node, ir.ConstantNode(IntVal(0)), "mul-zero")
        if b is not None and b.value == 1:
            return _forward_to(g, nid, node, node.x, "mul-one")
        if a is not None and a.value == 1:
            return _forward_to(g, nid, node, node.y, "mul-one")

    if isinstance(node, ir.NegateNode):
        a = _const_of(g, node.value)
        if a is not None:
            return Rewrite(nid, node, ir.ConstantNode(runtime.int_neg(a)), "fold-negate")
        inner = g.kind(node.value)
        if isinstance(inner, ir.NegateNode):
            return _forward_to(g, nid, node, inner.value, "negate-negate")

    if isinstance(node, ir.IntegerLessThanNode):
        a, b = _const_of(g, node.x), _const_of(g, node.y)
        if a is not None and b is not None:
            return Rewrite(
                nid, node,
                ir.ConstantNode(runtime.int_less_than(a, b)), "fold-less-than",
            )

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


def _reachable(g: Graph) -> list[int]:
    seen, work = set(), [0]
    order = []
    while work:
        nid = work.pop()
        if nid in seen or nid not in g:
            continue
        seen.add(nid)
        order.append(nid)
        work.extend(reversed(cfg_successors(g, nid)))
    return order


def _cfg_predecessors(g: Graph, nodes) -> dict[int, set[int]]:
    preds = {n: set() for n in nodes}
    for n in nodes:
        for s in cfg_successors(g, n):
            if s in preds:
                preds[s].add(n)
    return preds


def dominators(g: Graph) -> dict[int, set[int]]:
    """Per-node dominator sets over control flow reachable from node 0."""
    nodes = _reachable(g)
    if not nodes:
        return {}
    preds = _cfg_predecessors(g, nodes)
    full = set(nodes)
    dom = {n: ({n} if n == 0 else set(full)) for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == 0:
                continue
            meet = set.intersection(*(dom[p] for p in preds[n])) if preds[n] else set()
            new = {n} | meet
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def dominator_tree(g: Graph) -> dict[int, list[int]]:
    """Children map of the immediate-dominator tree rooted at node 0."""
    dom = dominators(g)
    children = {n: [] for n in dom}
    for n, ds in dom.items():
        if n == 0:
            continue
        # The immediate dominator is the strict dominator closest to n.
        strict = ds - {n}
        idom = max(strict, key=lambda d: len(dom[d])) if strict else 0
        children[idom].append(n)
    for kids in children.values():
        kids.sort()
    return children


def _fact_keys(g: Graph, cond: int) -> list:
    # Facts match by condition node id and by structural node equality, so a
    # re-materialized copy of the same test is still recognized.
    return [("id", cond), ("node", g.kind(cond))]


def conditional_elimination(g: Graph) -> tuple[Graph, PassReport]:
    """Walk the dominator tree carrying branch facts; any dominated IfNode
    whose condition is already decided becomes a RefNode to the implied
    branch. Facts are scoped to the dominator subtree that established them.
    """
    children = dominator_tree(g)
    preds = _cfg_predecessors(g, children)

    rewrites: list[Rewrite] = []
    facts: dict = {}

    def enter_facts(n: int) -> list:
        if len(preds.get(n, ())) != 1:
            return []
        (p,) = preds[n]
        branch = g.kind(p)
        if not isinstance(branch, ir.IfNode):
            return []
        if branch.trueSuccessor == branch.falseSuccessor:
            return []
        if n == branch.trueSuccessor:
            value = True
        elif n == branch.falseSuccessor:
            value = False
        else:
            return []
        added = []
        for key in _fact_keys(g, branch.condition):
            if key not in facts:
                facts[key] = value
                added.append(key)
        return added

    # Preorder walk with an explicit stack, so depth is not bounded by the
    # recursion limit: a node id enters a subtree, and the list of fact keys
    # its root added is popped after the subtree to drop those facts again.
    stack: list = [0] if 0 in children else []
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
        stack.extend(reversed(children.get(n, ())))

    out = g
    for rw in rewrites:
        out = apply_rewrite(out, rw)
    return out, PassReport(rewrites=rewrites, iterations=1, fixpoint=not rewrites)


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
