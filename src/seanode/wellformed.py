"""Graph well-formedness rules; the gate for interpreter and optimizer entry.

check runs every rule in one pass over the nodes in id order, reading
edges from the graph's edge table, and reports violations by rule, in
the order of RULES, then by id. Violations are data, never exceptions.
The acyclicity rule is dataflow.walk_values: dataflow.post_order over
every value edge of the edge table, arms included. The pass notes whether
some value edge climbs, to an id at or above its node's or to no node id,
and the walk runs only then: ids fall along every path of the other
edges, so none returns to its start.
"""

from dataclasses import dataclass

from . import dataflow, ir
from .ir import Graph

RULES = ("wf_start", "wf_closed", "wf_ends", "wf_phis", "wf_selfid", "wf_acyclic")

# What the rules test of a node's class: (is an end, is a phi, has a
# selfId), derived from its bases the first time check meets the class, so
# a declared kind and a subclass with no role take the same path, and each
# node after the first of its class costs one lookup.
_FACTS: dict[type, tuple[bool, bool, bool]] = {}


def _facts(cls: type) -> tuple[bool, bool, bool]:
    f = _FACTS[cls] = (issubclass(cls, ir.AbstractEndNode), issubclass(cls, ir.ValuePhiNode),
                       "selfId" in cls.FIELDS)
    return f


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


def check(g: Graph) -> WfReport:
    """Run every rule and collect every violation."""
    found = []
    start = g.kind(0)
    if isinstance(start, ir.NoNode):
        found.append(Violation("wf_start", 0, "node id 0 is unmapped"))
    elif not isinstance(start, ir.StartNode):
        found.append(Violation("wf_start", 0, f"node 0 is {start.kind_name()}, expected StartNode"))
    table = g.edges()  # has a row for each mapped id, and only for those
    nodes = sorted(g.items())
    climbs = False  # whether some value edge goes from a node to an id >= its own
    for nid, node in nodes:
        inputs, successors, values = table[nid]
        if values and not climbs:
            try:
                climbs = max(values) >= nid
            except TypeError:  # a None or tuple edge has no order: walk
                climbs = True
        for target in inputs + successors:
            if target not in table:
                found.append(Violation("wf_closed", nid, f"edge to unmapped id {target}"))
        cls = type(node)
        end, phi, has_self_id = _FACTS.get(cls) or _facts(cls)
        self_id = node.selfId if has_self_id else None
        if end and not g.users(nid):
            found.append(Violation("wf_ends", nid, f"{node.kind_name()} has no usage"))
        if phi:
            # A phi's inputs are (merge, *values), and a merge's are its ends.
            merge, kind = inputs[0], g.kind(inputs[0])
            if not isinstance(kind, ir.AbstractMergeNode):
                found.append(Violation(
                    "wf_phis", nid, f"merge edge {merge} is {kind.kind_name()}, expected a merge"))
            elif len(inputs) - 1 != len(table[merge][0]):
                found.append(Violation(
                    "wf_phis", nid,
                    f"{len(inputs) - 1} value inputs for {len(table[merge][0])} merge ends"))
        # Records carry their own id, as the paper's nodes do, and check keeps
        # it equal to the storage key. Nothing reads selfId: the state uses nid.
        if self_id is not None and self_id != nid:
            found.append(Violation("wf_selfid", nid, f"selfId field is {self_id}"))
    # Expression evaluation terminates only if the data subgraph is a DAG.
    # Phis are leaves (they read the method state), which is what legalizes
    # loop back-edges.
    if climbs:
        try:
            dataflow.walk_values(g, (nid for nid, _ in nodes))
        except dataflow.CyclicExpression as e:
            found.append(Violation("wf_acyclic", e.nid, "cycle through data input edges"))
    found.sort(key=lambda v: RULES.index(v.rule))  # stable: node order stays
    return WfReport(ok=not found, violations=tuple(found))
