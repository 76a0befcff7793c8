"""seanode benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload exec-loops --seed 1 --seconds 30 --trace 0

Generates the workload's programs from the seed, imports seanode from the
checkout's src/, runs operations back to back in this one thread (a closed
loop: each starts when the previous one ends) for --seconds, checks every
output against the oracle and prints, as its last line, one JSON object with
the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
The line before it is a JSON report with details: the tail percentile and
sample count, failed_ratio, the reason for each failed operation, and the
metrics under their per-workload names.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import tracer as tr
from workloads import WORKLOADS, import_seanode

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # the tail percentile leaves this many samples above it
MAX_REPORTED_FAILURES = 20


# The machine this runs on is shared, and its speed drifts: the same
# operation has taken anywhere from 1x to 2x its best time, in spells that
# last from seconds to minutes. Timed runs therefore run a fixed reference
# computation, which shares no code with seanode, before and after every
# operation, and scale the operation's time by REFERENCE_S / (the mean of
# those two reference times). Times are thus given at the machine speed at
# which the reference takes REFERENCE_S: its fastest time on the 2.1 GHz Xeon
# the benchmark was built on.
REFERENCE_S = 0.0025


_TABLE = {(i, "f"): i for i in range(4096)}


def reference() -> float:
    """Seconds one fixed burst of dict, tuple and integer work takes now:
    small dicts and tuples built and dropped, as in interpretation, and
    4,096-entry dicts copied, as a copy-on-write heap does."""
    start = time.perf_counter()
    d, acc = {}, 0
    for i in range(6000):
        t = (i, i & 7, acc)
        d = dict(d) if len(d) < 24 else {}
        d[i & 31] = t
        acc = (acc * 31 + i) & 0xFFFFFFFF
        if isinstance(t, tuple):
            acc ^= len(d)
    for _ in range(8):
        acc ^= len(dict(_TABLE))
    return time.perf_counter() - start


@dataclass
class Record:
    case: int
    wall: float
    error: str | None  # why the operation failed, if it did
    exec_s: float  # time spent executing programs, see workloads.Observation
    steps: int
    speed: float = 1.0  # REFERENCE_S / reference time around the operation

    @property
    def scaled(self) -> float:
        return self.wall * self.speed


def run_ops(workload, sn, state, cases, check, seconds, tracer=None, count=None,
            calibrate=False) -> list:
    """Operations back to back over the cases in order, each checked after
    it ends. Stops after `count` operations, or else at the end of the first
    whole pass over the cases that ends after `seconds`, so that every case
    is timed equally often. With calibrate, each record carries the machine
    speed around it."""
    records = []
    deadline = time.perf_counter() + seconds
    before = reference() if calibrate else None
    while True:
        k = len(records) % len(cases)
        if tracer is not None:
            tracer.begin_op(len(records))
        start = time.perf_counter()
        try:
            obs, error = workload.op(sn, state[k], cases[k]), None
        except Exception as e:  # a failed operation is counted, never fatal
            obs, error = None, f"{type(e).__name__}: {e}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.end_op(end - start)
        if error is None:
            error = check.op(k, obs)
        record = Record(k, end - start, error, obs.exec_s if obs else 0.0,
                        obs.steps if obs else 0)
        if calibrate:
            after = reference()
            record.speed = 2 * REFERENCE_S / (before + after)
            before = after
        records.append(record)
        if count is not None:
            if len(records) >= count:
                return records
        elif end >= deadline and len(records) % len(cases) == 0:
            return records


def set_up(workload, cases):
    """Import seanode and load the workload's inputs, SETUP_REPEATS times;
    returns the median time and the last set-up's modules and state."""
    times = []
    before = reference()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        sn = import_seanode()
        state = workload.setup(sn, cases)
        wall = time.perf_counter() - start
        after = reference()
        times.append(wall * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(times), sn, state


def failures_of(records, check) -> dict:
    """Why each failed operation failed, by its index."""
    bad_cases = check.programs()
    failures = {}
    for i, r in enumerate(records):
        reason = r.error or bad_cases.get(r.case)
        if reason:
            failures[i] = reason
    return failures


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it, or of the maximum if there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def untraced(workload, sn, state, cases, check, seconds, setup_s):
    wrapped = tr.installed_wrappers()
    start = time.perf_counter()
    records = run_ops(workload, sn, state, cases, check, seconds, calibrate=True)
    elapsed = time.perf_counter() - start
    wrapped += tr.installed_wrappers()
    failures = failures_of(records, check)
    if wrapped:
        failures[-1] = f"tracing wrappers installed during the untraced run: {wrapped}"
    latencies = [r.scaled for r in records]
    tail_s, tail_pct = tail(latencies)
    family = "validate" if workload.name == "validate-opt" else "exec"
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(records) / sum(latencies), "1/s"),
        "op_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "op_ms_tail": (1000 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = [r.wall for r in records]
    report = {
        "samples": len(records),
        "tail_percentile": round(tail_pct, 2),
        f"{family}_per_s": metrics["ops_per_s"][0],
        f"{family}_ms_p50": metrics["op_ms_p50"][0],
        f"{family}_ms_tail": metrics["op_ms_tail"][0],
        "machine_speed_median": statistics.median(r.speed for r in records),
        "unscaled": {"ops_per_s_wall": len(records) / elapsed,
                     "op_ms_p50": 1000 * statistics.median(raw),
                     "op_ms_tail": 1000 * tail(raw)[0]},
    }
    return records, failures, metrics, report


def traced(workload, sn, state, cases, check, seconds, trace_path):
    t = tr.Tracer()
    patches = tr.install(t)
    try:
        traced_ops = run_ops(workload, sn, state, cases, check, seconds, tracer=t)
    finally:
        tr.uninstall(patches)
    leftover = tr.installed_wrappers()
    # The same operations untraced, for the overhead ratio and steps/s.
    replay = run_ops(workload, sn, state, cases, check, 0, count=len(traced_ops))
    records = traced_ops + replay
    failures = failures_of(records, check)
    if leftover:
        failures[-1] = f"tracing wrappers left installed: {leftover}"
    ops = t.ops
    first = {}
    for i, op in enumerate(ops):
        counted = (dict(op["calls"]), dict(op["counts"]))
        if first.setdefault(records[i].case, counted) != counted:
            failures.setdefault(i, "deterministic counts differ between passes")
    metrics, report = layer_metrics(ops, t.spans, replay)
    trace_path.parent.mkdir(exist_ok=True)
    with open(trace_path, "w") as f:
        for span in t.spans:
            f.write(json.dumps(dict(zip(("op", "id", "parent", "name", "start", "end"),
                                        span))) + "\n")
        for op in ops:
            f.write(json.dumps({"op": op["op"], "case": records[op["op"]].case,
                                "wall": op["wall"], "unattributed": op["unattributed"],
                                "self": op["self"], "calls": op["calls"],
                                "counts": op["counts"]}) + "\n")
    report["trace_file"] = str(trace_path.relative_to(ROOT))
    return records, failures, metrics, report


# Per-layer metrics: (metric, source, name in the trace, unit). Values are
# means per operation unless the source says otherwise.
PER_OP = (
    ("fileformat.loads.self_s", "self", "fileformat.loads", "s"),
    ("fileformat.loads.nodes", "counts", "fileformat.loads.nodes", "count"),
    ("fileformat.dumps.self_s", "self", "fileformat.dumps", "s"),
    ("wellformed.check.self_s", "self", "wellformed.check", "s"),
    ("wellformed.check.nodes", "counts", "wellformed.check.nodes", "count"),
    ("ir.Graph.usages.calls", "calls", "ir.Graph.usages", "count"),
    ("ir.Graph.usages.self_s", "self", "ir.Graph.usages", "s"),
    ("ir.Graph.usages.nodes_scanned", "counts", "ir.Graph.usages.nodes_scanned", "count"),
    ("ir.Graph.edit.calls", "calls", "ir.Graph.edit", "count"),
    ("ir.Graph.edit.self_s", "self", "ir.Graph.edit", "s"),
    ("ir.Graph.edit.nodes_copied", "counts", "ir.Graph.edit.nodes_copied", "count"),
    ("runtime.MethodState.set.calls", "calls", "runtime.MethodState.set", "count"),
    ("runtime.MethodState.set.self_s", "self", "runtime.MethodState.set", "s"),
    ("runtime.DynamicHeap.store_field.calls", "calls", "runtime.DynamicHeap.store_field", "count"),
    ("runtime.DynamicHeap.store_field.self_s", "self", "runtime.DynamicHeap.store_field", "s"),
    ("runtime.DynamicHeap.new_instance.self_s", "self", "runtime.DynamicHeap.new_instance", "s"),
    ("runtime.heap.cells_copied", "counts", "runtime.heap.cells_copied", "count"),
    ("dataflow.evaluate.visits", "calls", "dataflow.evaluate", "count"),
    ("dataflow.evaluate.self_s", "self", "dataflow.evaluate", "s"),
    ("controlflow.step.calls", "calls", "controlflow.step", "count"),
    ("controlflow.step.self_s", "self", "controlflow.step", "s"),
    ("controlflow.merge_of_end.self_s", "self", "controlflow.merge_of_end", "s"),
    ("controlflow.phis_of.self_s", "self", "controlflow.phis_of", "s"),
    ("interproc.run.self_s", "self", "interproc.run", "s"),
    ("interproc.steps", "counts", "interproc.steps", "count"),
    ("interproc.step_top.self_s", "self", "interproc.step_top", "s"),
    ("interproc.invokes", "counts", "interproc.invokes", "count"),
    ("interproc.unwinds", "counts", "interproc.unwinds", "count"),
    ("optimize.apply_pass.self_s", "self", "optimize.apply_pass", "s"),
    ("optimize.sweeps", "counts", "optimize.sweeps", "count"),
    ("optimize.rewrites", "counts", "optimize.rewrites", "count"),
    ("optimize.conditional_elimination.self_s", "self", "optimize.conditional_elimination", "s"),
    ("optimize.dominators.self_s", "self", "optimize.dominators", "s"),
    ("equivalence.data_equiv.self_s", "self", "equivalence.data_equiv", "s"),
    ("equivalence.data_equiv.assignments", "counts", "equivalence.data_equiv.assignments", "count"),
    ("equivalence.behavior_diff.self_s", "self", "equivalence.behavior_diff", "s"),
    ("equivalence.behavior_diff.assignments", "counts", "equivalence.behavior_diff.assignments", "count"),
    ("equivalence.behavior_diff.inconclusive", "counts", "equivalence.behavior_diff.inconclusive", "count"),
)


ENTRY_POINTS = ("fileformat.loads", "wellformed.check", "interproc.run", "optimize.apply_pass",
                "equivalence.data_equiv", "equivalence.behavior_diff", "fileformat.dumps")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(ops, spans, replay):
    n = len(ops)

    def total(source, name):
        return sum(op[source].get(name, 0) for op in ops)

    metrics = {m: (total(src, name) / n, unit) for m, src, name, unit in PER_OP}
    wall = sum(op["wall"] for op in ops)
    untraced_wall = sum(r.wall for r in replay)
    # exec-* see ExecResult.steps directly; validate-opt runs programs inside
    # behavior_diff, whose steps the traced pass counted.
    steps = sum(r.steps for r in replay) or total("counts", "interproc.steps")
    exec_s = sum(r.exec_s for r in replay)
    metrics.update({
        "dataflow.evaluate.distinct_ratio": (
            _ratio(total("counts", "dataflow.evaluate.distinct"),
                   total("calls", "dataflow.evaluate")), "ratio"),
        "interproc.steps_per_s": (_ratio(steps, exec_s), "1/s"),
        "interproc.max_depth": (max(op["counts"].get("interproc.max_depth", 0) for op in ops),
                                "count"),
        "optimize.canonicalize_data.hit_ratio": (
            _ratio(total("counts", "optimize.canonicalize_data.hits"),
                   total("calls", "optimize.canonicalize_data")), "ratio"),
        "trace.overhead_ratio": (_ratio(wall, untraced_wall), "ratio"),
        "trace.unattributed_share": (_ratio(sum(op["unattributed"] for op in ops), wall),
                                     "ratio"),
    })
    for layer in tr.LAYERS:
        self_s = sum(s for op in ops for name, s in op["self"].items()
                     if name.split(".", 1)[0] == layer)
        metrics[f"layer.{layer}.share"] = (_ratio(self_s, wall), "ratio")
    # Inclusive time of the calls the benchmark itself makes into seanode.
    for name in ENTRY_POINTS:
        inside = sum(end - start for _, _, parent, span, start, end in spans
                     if parent is None and span == name)
        metrics[f"entry.{name}.share"] = (_ratio(inside, wall), "ratio")
    report = {"samples": n, "traced_wall_s": wall, "untraced_wall_s": untraced_wall}
    return metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "seanode" / "__init__.py").is_file():
        print(f"seanode sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cases = gen.generate(args.workload, args.seed)
    setup_s, sn, state = set_up(workload, cases)
    check = workload.checker(sn, cases, workload.expected(cases))

    if args.trace:
        trace_path = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl"
        records, failures, metrics, report = traced(
            workload, sn, state, cases, check, args.seconds, trace_path)
    else:
        records, failures, metrics, report = untraced(
            workload, sn, state, cases, check, args.seconds, setup_s)
    failed = len([i for i in failures if i >= 0])
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **report, "failed_ratio": failed / len(records),
              "failures": [{"op": i, "case": cases[records[i].case].name if i >= 0 else None,
                            "reason": failures[i]}
                           for i in sorted(failures)[:MAX_REPORTED_FAILURES]],
              "cases": {c.name: c.params for c in cases}}
    print(json.dumps(report))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
