"""One workload run in a fresh, single-threaded process; started by run.py.

The loop is closed: one client runs the next op when the last one ends.
Set-up (import and input generation) ends at the first timed op; its
length is measured from the moment run.py spawned this process.

Untraced (--trace 0): whole passes over the workload's ops (a few seconds
each) repeat until --seconds are up. Each op is timed on its own, with the
verdict checked after the clock stops. Its cost is its time divided by the
time of reference_work(), a fixed loop timed between ops at least every
REFERENCE_EVERY_S, and its figure is the median of its passes. The metrics
are taken over those per-op costs: ops_per_kref is ops per thousand
reference units, op_p50_ref their median and op_tail_ref the one with ten
ops beyond it. Costs are used, not times, because on a shared 2-vCPU KVM
guest the interpreter ran up to twice as fast or as slow for tens of
seconds at a time, often for a whole run; the reference loop slows with
the ops, so their ratio stays put. The same figures in wall-clock time go
to the info line.

Traced (--trace 1): a fixed pass over the first trace_ops ops runs (a) once with counters on and
nothing timed, (b) in pairs of traced (spans on) and untraced passes until
--seconds are up, (c) once more with counters on, which must repeat (a)
exactly. Per-layer times are medians over the traced passes.

Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import families  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# per-layer time metric -> the span names whose self times it sums
SECONDS = {
    "engines.brute_em_s": ("engines.brute_em",),
    "engines.brute_tkpm_s": ("engines.brute_tkpm",),
    "engines.brute_cpm_s": ("engines.brute_cpm",),
    "engines.has_pm_s": ("engines.has_pm",),
    "reduction.gadgetize_s": ("reduction.gadgetize",),
    "reduction.decide_self_s": ("reduction.decide",),
    "graphs.adjacency_s": ("graphs.adjacency",),
    "polynomials.determinant_s": ("polynomials.determinant",),
    "algebraic.self_s": ("algebraic.em_decide", "algebraic.cpm_via_em",
                         "algebraic.bcpm_via_em", "algebraic.find_bipartition"),
    "formats.parse_s": ("formats.parse",),
    "formats.format_s": ("formats.format",),
    "cli.self_s": ("cli.main",),
    "generator.gen_s": ("generator.gen_instance",),
    "campaign.self_s": ("campaign.randomized", "campaign.merge"),
}
COUNTS = (
    "engines.calls", "engines.pm_visited",
    "reduction.gadget_vertices", "reduction.gadget_edges",
    "graphs.adjacency_calls",
    "polynomials.determinant_calls", "polynomials.matrix_order", "polynomials.coeff_bits",
    "algebraic.trials_run", "algebraic.em_queries",
    "formats.parse_bytes", "formats.format_bytes",
    "generator.calls", "campaign.statistical_events",
)
TAIL_BEYOND = 10         # op_tail_ref leaves this many ops beyond it
REFERENCE_EVERY_S = 0.01     # least time between two timings of the reference
ENGINE_SPANS = ("engines.brute_em_s", "engines.brute_tkpm_s", "engines.brute_cpm_s",
                "engines.has_pm_s")


def reference_work() -> int:
    """The unit of the untraced costs: fixed interpreter work (dict updates,
    small- and big-integer arithmetic, a sort) that uses no code of the
    program. Any change to it changes every cost the benchmark reports."""
    total = 0
    table: dict[int, int] = {}
    for i in range(1200):
        key = (i * 7919) % 97
        table[key] = table.get(key, 0) + i
        total += (i * i) >> 3
    big = 1
    for i in range(1, 300):
        big = big * (2 * i + 1) + i
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    return total + ordered[-1][1] + (big & 0xFFFF)


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def run_op(workload, item):
    """Run one op; returns (seconds, result, error message or None)."""
    start = time.perf_counter()
    try:
        result = workload.run(item)
    except Exception as exc:          # an op that raises is a failed op
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return elapsed, result, workload.check(item, result)
    except Exception as exc:          # unreadable output is a failed op too
        return elapsed, result, f"check: {type(exc).__name__}: {exc}"


def untraced(workload, seconds):
    """Whole passes over workload.items until --seconds are up. An op's
    cost is its time over the median of the last five reference timings;
    its figure, in cost and in time, is the median over the passes."""
    costs, times, errors, refs = [], [], [], []
    last_ref = float("-inf")
    deadline = time.perf_counter() + seconds
    while not costs or time.perf_counter() < deadline:
        pass_costs, pass_times = [], []
        for item in workload.copy(workload.items):
            if time.perf_counter() - last_ref >= REFERENCE_EVERY_S:
                refs.append(time_reference())
                last_ref = time.perf_counter()
            elapsed, _, error = run_op(workload, item)
            pass_costs.append(elapsed / statistics.median(refs[-5:]))
            pass_times.append(elapsed)
            if error:
                errors.append(error)
        costs.append(pass_costs)
        times.append(pass_times)
    cost = sorted(statistics.median(samples) for samples in zip(*costs))
    wall = sorted(statistics.median(samples) for samples in zip(*times))
    tail = max(0, len(cost) - 1 - TAIL_BEYOND)
    return {
        "attempted": len(cost) * len(costs),
        "errors": errors,
        "problems": [],
        "info": {"passes": len(costs), "ops_per_pass": len(cost),
                 "tail_pct": 100 * (tail + 1) / len(cost), "ops_beyond_tail": len(cost) - 1 - tail,
                 "reference_ms": statistics.median(refs) * 1e3,
                 "wall": {"ops_per_s": len(wall) / sum(wall),
                          "op_p50_ms": statistics.median(wall) * 1e3,
                          "op_tail_ms": wall[tail] * 1e3}},
        "metrics": {
            "ops_per_kref": (1e3 * len(cost) / sum(cost), "1/kref"),
            "op_p50_ref": (statistics.median(cost), "ref"),
            "op_tail_ref": (cost[tail], "ref"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        },
    }


def traced(workload, seconds, seed, stream_s, spans_path):
    tracer = tracing.Tracer()
    ops = workload.items[:workload.trace_ops]
    errors = []

    def one_pass(mode):
        items = workload.copy(ops)
        tracer.counts = Counter()
        wall = 0.0
        with tracer.installed(mode):
            for op_id, item in enumerate(items):
                tracer.op_id = op_id
                elapsed, result, error = run_op(workload, item)
                wall += elapsed
                if error:
                    errors.append(error)
                elif mode == "counts":
                    workload.count(item, result, tracer.counts)
        return wall

    deadline = time.perf_counter() + seconds
    one_pass("counts")
    counts = tracer.counts
    traced_walls, plain_walls, self_times = [], [], []
    while True:
        tracer.spans = []
        traced_walls.append(one_pass("spans"))
        self_times.append(tracer.self_times())
        if len(traced_walls) == 1:
            write_spans(tracer.spans, spans_path)
        plain_walls.append(one_pass("none"))
        if time.perf_counter() >= deadline:
            break
    one_pass("counts")
    repeat = tracer.counts == counts
    problems = [] if repeat else [
        f"counts differ between two passes: {dict(counts)} vs {dict(tracer.counts)}"]

    metrics = {}
    for metric, names in SECONDS.items():
        value = sum(statistics.median(t.get(name, 0.0) for t in self_times) for name in names)
        metrics[metric] = (value, "s")
    for metric in COUNTS:
        metrics[metric] = (counts[metric], "count")
    engine_s = sum(metrics[m][0] for m in ENGINE_SPANS)
    metrics["engines.pm_per_s"] = (counts["engines.pm_visited"] / engine_s if engine_s else 0.0, "1/s")
    metrics["engines.recursion_errors"] = (
        workloads.recursion_probe(seed) if isinstance(workload, workloads.DeepSparse) else 0, "count")
    trials = counts["algebraic.yes_trials"]
    metrics["algebraic.detect_rate"] = (counts["algebraic.yes_hits"] / trials if trials else 0.0, "ratio")
    metrics["campaign.stream_s"] = (stream_s, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    return {
        "attempted": len(ops) * (2 + len(traced_walls) + len(plain_walls)),
        "errors": errors,
        "problems": problems,
        "info": {"trace_ops": len(ops), "traced_passes": len(traced_walls),
                 "counts_repeat": repeat, "spans_file": str(spans_path.relative_to(ROOT))},
        "metrics": metrics,
    }


def write_spans(spans, path):
    path.parent.mkdir(exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as f:
        for name, start, end, parent, op_id in spans:
            f.write(json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                "parent": parent, "op": op_id}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        stream_s = time.perf_counter() - start if isinstance(workload, workloads.Sweep6) else 0.0
        setup_s = time.time() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            out = traced(workload, args.seconds, args.seed, stream_s, spans_path)
        else:
            out = untraced(workload, args.seconds)
    finally:
        shutil.rmtree(workdir)
    out["setup_s"] = setup_s
    problems = families.self_check(args.seed)
    out["problems"] += [f"self-check: {p}" for p in problems]
    out["info"]["recursion_limit"] = sys.getrecursionlimit()
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
