"""Graph well-formedness rules; the gate for interpreter and optimizer entry.

check sorts the nodes once and runs every rule in _RULES on the graph and
that list; each rule yields violations tagged with its name, in node order.
Violations are data, never exceptions. The acyclicity rule is
dataflow.walk_values, the walk over every value edge, arms included.
"""

from dataclasses import dataclass

from . import dataflow, ir
from .ir import Graph


@dataclass(frozen=True)
class Violation:
    rule: str
    nid: int
    message: str


@dataclass(frozen=True)
class WfReport:
    ok: bool
    violations: tuple[Violation, ...]

    def __str__(self):
        if self.ok:
            return "ok"
        return "\n".join(f"{v.rule} @{v.nid}: {v.message}" for v in self.violations)


def _check_start(g: Graph, nodes):
    node = g.kind(0)
    if isinstance(node, ir.NoNode):
        yield Violation("wf_start", 0, "node id 0 is unmapped")
    elif not isinstance(node, ir.StartNode):
        yield Violation("wf_start", 0, f"node 0 is {node.kind_name()}, expected StartNode")


def _check_closed(g: Graph, nodes):
    for nid, node in nodes:
        for target in ir.inputs_of(node) + ir.successors_of(node):
            if target not in g:
                yield Violation("wf_closed", nid, f"edge to unmapped id {target}")


def _check_ends(g: Graph, nodes):
    for nid, node in nodes:
        if isinstance(node, ir.AbstractEndNode) and not g.users(nid):
            yield Violation("wf_ends", nid, f"{node.kind_name()} has no usage")


def _check_phis(g: Graph, nodes):
    for nid, node in nodes:
        if not isinstance(node, ir.ValuePhiNode):
            continue
        merge = g.kind(node.merge)
        if not isinstance(merge, ir.AbstractMergeNode):
            yield Violation(
                "wf_phis", nid,
                f"merge edge {node.merge} is {merge.kind_name()}, expected a merge",
            )
        elif len(node.values) != len(merge.ends):
            yield Violation(
                "wf_phis", nid,
                f"{len(node.values)} value inputs for {len(merge.ends)} merge ends",
            )


def _check_self_ids(g: Graph, nodes):
    # Records carry their own id, as the paper's nodes do, and check keeps
    # it equal to the storage key. Nothing reads selfId: the state uses nid.
    for nid, node in nodes:
        self_id = getattr(node, "selfId", None)
        if self_id is not None and self_id != nid:
            yield Violation("wf_selfid", nid, f"selfId field is {self_id}")


def _check_data_acyclic(g: Graph, nodes):
    # Expression evaluation terminates only if the data subgraph is a DAG.
    # Phis are leaves (they read the method state), which is what legalizes
    # loop back-edges.
    done: set[int] = set()
    try:
        for nid, _ in nodes:
            dataflow.walk_values(g, nid, done)
    except dataflow.CyclicExpression as e:
        yield Violation("wf_acyclic", e.nid, "cycle through data input edges")


_RULES = (_check_start, _check_closed, _check_ends, _check_phis, _check_self_ids,
          _check_data_acyclic)


def check(g: Graph) -> WfReport:
    """Run every rule and collect every violation."""
    nodes = sorted(g.items())  # (id, node) pairs, by id
    violations = []
    for rule in _RULES:
        violations.extend(rule(g, nodes))
    return WfReport(ok=not violations, violations=tuple(violations))

