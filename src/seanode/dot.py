"""DOT export: one digraph per method, data edges dashed (drawn from the
input node to its user), successor edges solid."""

from . import ir
from .ir import Graph


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph, name: str = "method") -> str:
    lines = [f"digraph {_quote(name)} {{", "  node [shape=box];"]
    for nid, node in sorted(g.items()):
        lines.append(f"  n{nid} [label={_quote(f'{nid}: {node.kind_name()}')}];")
    for nid, node in sorted(g.items()):
        for target in ir.inputs_of(node):
            lines.append(f"  n{target} -> n{nid} [style=dashed];")
        for target in ir.successors_of(node):
            lines.append(f"  n{nid} -> n{target} [style=solid];")
    lines.append("}")
    return "\n".join(lines) + "\n"
