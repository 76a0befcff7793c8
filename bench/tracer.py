"""Tracing for the benchmark's per-layer metrics.

`install` wraps public functions of each seanode layer from outside: it
replaces every binding of the function in every seanode module, including
the copies callers took with `from .x import f`, and returns what it
replaced so `uninstall` can put the originals back. A wrapper times its
call, charges the time to its name, and subtracts it from the self time of
the wrapped call it ran inside, so self times of one operation add up to the
time spent inside wrapped calls. Coarse calls also leave one span each;
calls made once per step or per visit are only aggregated.
"""

import sys
import time
from collections import defaultdict

WRAPPED = "__benchmark_wrapper__"

# (module, attribute, metric name, record a span per call)
TARGETS = (
    ("fileformat", "loads", "fileformat.loads", True),
    ("fileformat", "dumps", "fileformat.dumps", True),
    ("wellformed", "check", "wellformed.check", True),
    ("ir", "Graph.usages", "ir.Graph.usages", False),
    ("ir", "Graph.insert_node", "ir.Graph.edit", False),
    ("ir", "Graph.replace_node", "ir.Graph.edit", False),
    ("runtime", "MethodState.set", "runtime.MethodState.set", False),
    ("runtime", "DynamicHeap.store_field", "runtime.DynamicHeap.store_field", False),
    ("runtime", "DynamicHeap.new_instance", "runtime.DynamicHeap.new_instance", False),
    ("dataflow", "evaluate", "dataflow.evaluate", False),
    ("controlflow", "step", "controlflow.step", False),
    ("controlflow", "merge_of_end", "controlflow.merge_of_end", False),
    ("controlflow", "phis_of", "controlflow.phis_of", False),
    ("interproc", "run", "interproc.run", True),
    ("interproc", "step_top", "interproc.step_top", False),
    ("optimize", "apply_pass", "optimize.apply_pass", True),
    ("optimize", "canonicalize_data", "optimize.canonicalize_data", False),
    ("optimize", "conditional_elimination", "optimize.conditional_elimination", True),
    ("optimize", "dominators", "optimize.dominators", True),
    ("equivalence", "data_equiv", "equivalence.data_equiv", True),
    ("equivalence", "behavior_diff", "equivalence.behavior_diff", True),
)

LAYERS = ("fileformat", "wellformed", "ir", "runtime", "dataflow", "controlflow",
          "interproc", "optimize", "equivalence")


def _seanode_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "seanode" or name.startswith("seanode."))]


# -- counters read from arguments and results ---------------------------------
# Each probe gets (counts, args, result) after the call returns.

def _nodes_loaded(counts, args, program):
    counts["fileformat.loads.nodes"] += sum(len(g) for g in program.methods.values())


def _nodes_checked(counts, args, report):
    counts["wellformed.check.nodes"] += len(args[0])


def _nodes_scanned(counts, args, result):
    counts["ir.Graph.usages.nodes_scanned"] += len(args[0])


def _nodes_copied(counts, args, result):
    counts["ir.Graph.edit.nodes_copied"] += len(args[0])


def _heap_write(counts, args, result):
    counts["runtime.heap.cells_copied"] += len(args[0].fields)


def _steps(counts, args, result):
    counts["interproc.steps"] += result.steps


def _frames(counts, args, result):
    before, after = len(args[1].stack), len(result.stack)
    if before > counts["interproc.max_depth"]:
        counts["interproc.max_depth"] = before
    if after > before:
        counts["interproc.invokes"] += 1
    elif after < before:
        top = args[1].stack[0]
        if type(top.graph.kind(top.nid)).__name__ == "UnwindNode":
            counts["interproc.unwinds"] += 1


def _pass_report(counts, args, result):
    counts["optimize.sweeps"] += result[1].iterations
    counts["optimize.rewrites"] += len(result[1].rewrites)


def _canon_hit(counts, args, result):
    if result is not None:
        counts["optimize.canonicalize_data.hits"] += 1


def _data_verdict(counts, args, verdict):
    counts["equivalence.data_equiv.assignments"] += verdict.samples_tried


def _behavior_verdict(counts, args, verdict):
    counts["equivalence.behavior_diff.assignments"] += verdict.samples_tried
    if verdict.status.name == "INCONCLUSIVE":
        counts["equivalence.behavior_diff.inconclusive"] += 1


PROBES = {
    "fileformat.loads": _nodes_loaded,
    "wellformed.check": _nodes_checked,
    "ir.Graph.usages": _nodes_scanned,
    "ir.Graph.edit": _nodes_copied,
    "runtime.DynamicHeap.store_field": _heap_write,
    "runtime.DynamicHeap.new_instance": _heap_write,
    "interproc.run": _steps,
    "interproc.step_top": _frames,
    "optimize.apply_pass": _pass_report,
    "optimize.canonicalize_data": _canon_hit,
    "equivalence.data_equiv": _data_verdict,
    "equivalence.behavior_diff": _behavior_verdict,
}


class Tracer:
    """Per-operation aggregates and spans, kept in memory."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []  # [time in wrapped callees, span id] per active wrapped call
        self.spans = []  # (op, span id, parent span id, name, start, end)
        self.op = None
        self.ops = []  # one dict per operation, see begin_op
        self._span_ids = 0
        self._eval_depth = 0
        self._eval_seen = set()

    def begin_op(self, op_id):
        self.op = {"op": op_id, "calls": defaultdict(int), "self": defaultdict(float),
                   "counts": defaultdict(int)}
        self.ops.append(self.op)

    def end_op(self, wall: float) -> dict:
        op = self.op
        op["wall"] = wall
        op["unattributed"] = wall - sum(op["self"].values())
        self.op = None
        return op

    def wrap(self, name: str, fn, span: bool):
        stack, clock = self.stack, self.clock
        probe = PROBES.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            parent = stack[-1][1] if stack else None
            if span:
                tracer._span_ids += 1
                sid = tracer._span_ids
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                op["calls"][name] += 1
                op["self"][name] += dur - frame[0]
                if span:
                    tracer.spans.append((op["op"], sid, parent, name, start, end))
            if probe is not None:
                probe(op["counts"], args, result)
            return result

        if name == "dataflow.evaluate":
            timed = wrapper

            def wrapper(ctx, nid):
                # Distinct node ids per top-level evaluation, for distinct_ratio.
                if tracer.op is None:
                    return fn(ctx, nid)
                top = tracer._eval_depth == 0
                if top:
                    tracer._eval_seen = set()
                tracer._eval_seen.add(nid)
                tracer._eval_depth += 1
                try:
                    return timed(ctx, nid)
                finally:
                    tracer._eval_depth -= 1
                    if top:
                        tracer.op["counts"]["dataflow.evaluate.distinct"] += len(tracer._eval_seen)

        setattr(wrapper, WRAPPED, name)
        return wrapper


def install(tracer: Tracer) -> list:
    """Wrap every target in every seanode module; returns the patches."""
    modules = _seanode_modules()
    patches = []
    for module, attr, name, span in TARGETS:
        owner = sys.modules[f"seanode.{module}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            patches.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, span))
            continue
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, span)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    patches.append((m, key, original))
                    setattr(m, key, wrapper)
    return patches


def uninstall(patches: list):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Bindings in seanode modules and their classes that hold a wrapper."""
    found = []
    for m in _seanode_modules():
        for key, value in vars(m).items():
            if getattr(value, WRAPPED, None):
                found.append(f"{m.__name__}.{key}")
            if isinstance(value, type) and value.__module__ == m.__name__:
                found += [f"{m.__name__}.{key}.{k}" for k, v in vars(value).items()
                          if getattr(v, WRAPPED, None)]
    return found
