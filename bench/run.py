"""Benchmark of the exactmatch toolkit.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout: the package is imported from
src/, nothing is installed. Each run starts fresh worker processes
(bench/worker.py), one at a time:
- with --trace 0, SETUP_RUNS processes that only set up, then one that
  sets up and runs ops for --seconds. setup_s is the median set-up time
  over all of them; every other metric comes from the last one;
- with --trace 1, one process that reports the per-layer metrics
  (BENCHMARK.json lists them) and writes the spans of one traced pass to
  .bench_out/.

Every verdict is checked against a truth known without the engine under
test. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it gives the
untraced figures in wall-clock time too, which tail percentile was used
over how many ops, and on what Python, CPU count, recursion limit and git
revision the run was made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("sweep6", "algebraic-bipartite", "random-verify", "deep-sparse")
SETUP_RUNS = 4
DEADLINE_S = 170          # the whole run, set-up processes included


def git_revision() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def spawn(args, started: float, setup_only: bool) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--spawned-at", repr(time.time())]
    if setup_only:
        argv.append("--setup-only")
    remaining = DEADLINE_S - (time.perf_counter() - started)
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the exactmatch toolkit.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "exactmatch" / "__init__.py").is_file():
        print(f"error: no exactmatch sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    setups = [] if args.trace else [
        spawn(args, started, setup_only=True)["setup_s"] for _ in range(SETUP_RUNS)]
    out = spawn(args, started, setup_only=False)
    setups.append(out["setup_s"])
    metrics = out["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}

    info = dict(out["info"], python=platform.python_version(), nproc=os.cpu_count(),
                git=git_revision(), setup_samples=len(setups))
    print("# " + json.dumps(info))
    for message in (out["errors"] + out["problems"])[:20]:
        print("# failed: " + message)
    print(json.dumps({
        "correct": not out["errors"] and not out["problems"],
        "attempted": out["attempted"],
        "failed": len(out["errors"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
