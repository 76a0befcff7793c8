"""DOT export: one digraph per method, data edges dashed (drawn from the
input node to its user), successor edges solid."""

from .ir import Graph


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def graph_to_dot(g: Graph, name: str = "method") -> str:
    lines = [f"digraph {_quote(name)} {{", "  node [shape=box];"]
    for nid, node in sorted(g.items()):
        lines.append(f"  n{nid} [label={_quote(f'{nid}: {node.kind_name()}')}];")
    for nid, (inputs, successors, _) in sorted(g.edges().items()):
        for target in inputs:
            lines.append(f"  n{target} -> n{nid} [style=dashed];")
        for target in successors:
            lines.append(f"  n{nid} -> n{target} [style=solid];")
    lines.append("}")
    return "\n".join(lines) + "\n"
