"""Command-line surface for the exactmatch toolkit.

Subcommands: gen (instance generation), reduce (exact matching to top-k
matching gadget), solve (em / tkpm / cpm / bcpm with selectable engines),
verify (exhaustive or randomized differential campaigns).

solve looks its (problem, engine) pair up in campaign.SOLVERS, the engine
table that verify's campaigns read too, and prints the fields of the
campaign.Answer its row returns: "yes" and the witness when the engine
gives one ("value" and the witness for tkpm), or "no", followed by
"error-bound" when the "no" carries a bound.

reduce and solve run with the cyclic garbage collector paused, and restore
its previous state on the way out. On a large instance they build hundreds
of thousands of edge and adjacency tuples, frozen dataclasses and an
explicit search stack, none of which forms a reference cycle, so
refcounting frees all of it, while the collector's passes over those young
objects took about 13% of the time of the deep-sparse benchmark's reduce and
solve calls. gen, verify and the library leave the collector alone.

Exit codes: 0 yes/ok, 1 no, 2 usage or input error, 3 disagreement found.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import sys
from pathlib import Path

from .algebraic import DEFAULT_TRIALS
from .campaign import (
    ENGINES,
    SOLVERS,
    exhaustive_sweep,
    merge_reports,
    randomized_campaign,
    report_to_json,
)
from .formats import (
    format_em_instance,
    format_matching,
    format_tkpm_instance,
    parse_em_instance,
    parse_tkpm_instance,
)
from .generator import GenSpec, gen_instance
from .graphs import validate_instance
from .reduction import format_gadget_map, gadgetize

# brute_em and decide_em_via_tkpm stay importable from here, where
# bench/tracing.py wraps them; solve reaches them through campaign.SOLVERS
from .engines import brute_em  # noqa: F401
from .reduction import decide_em_via_tkpm  # noqa: F401

# n -> default extra edge count for the mixed-size randomized verify
_VERIFY_SIZES = ((2, 0), (4, 2), (6, 5), (8, 9))
# every `solve --engine` name, in SOLVERS order
_ENGINE_NAMES = tuple(dict.fromkeys(engine for _, engine in SOLVERS))


@contextlib.contextmanager
def _collector_paused():
    """Disable the cyclic garbage collector for the body, then restore the
    state it found; as a decorator, for each call."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_instance(path: str, parse):
    """Parse an instance file and validate it; a ValueError carries the
    first violated invariant to main, which exits 2."""
    instance = parse(Path(path).read_text())
    problem = validate_instance(instance)
    if problem is not None:
        raise ValueError(problem)
    return instance


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(n=args.n, extra_edges=args.extra, red_prob=args.red_prob,
                   seed=args.seed, bipartite=args.bipartite)
    text = format_em_instance(gen_instance(spec))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


@_collector_paused()
def _cmd_reduce(args: argparse.Namespace) -> int:
    instance = _read_instance(args.infile, parse_em_instance)
    tkpm, gadget_map = gadgetize(instance)
    Path(args.out).write_text(format_tkpm_instance(tkpm))
    Path(args.map).write_text(format_gadget_map(gadget_map))
    print(f"gadget: {tkpm.graph.n} vertices, {len(tkpm.graph.edges)} edges, "
          f"k'={tkpm.k}, threshold={gadget_map.threshold}")
    return 0


@_collector_paused()
def _cmd_solve(args: argparse.Namespace) -> int:
    engine = args.engine or "brute"
    row = SOLVERS.get((args.problem, engine))
    if row is None:
        choices = [e for e in _ENGINE_NAMES if (args.problem, e) in SOLVERS]
        print(f"error: engine {engine!r} is not available for "
              f"{args.problem} (choose from {', '.join(choices)})", file=sys.stderr)
        return 2
    parse = parse_tkpm_instance if args.problem == "tkpm" else parse_em_instance
    answer = row[1](_read_instance(args.infile, parse), args.seed, args.trials, None)
    if not answer.yes:
        print("no")
        if answer.error_bound is not None:
            print(f"error-bound {answer.error_bound:.3g}")
        return 1
    print("yes" if answer.value is None else f"value {answer.value}")
    if answer.witness is not None:
        print(format_matching(answer.witness))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.exhaustive:
        if args.max_n is None:
            print("error: --exhaustive requires --max-n", file=sys.stderr)
            return 2
        report = exhaustive_sweep(args.max_n, seed=args.seed)
    else:
        if args.count is None or args.count < 1:
            print("error: --random requires a --count of at least 1", file=sys.stderr)
            return 2
        shares = [args.count // len(_VERIFY_SIZES)] * len(_VERIFY_SIZES)
        shares[-1] += args.count - sum(shares)
        reports = []
        offset = 0
        for (n, extra), share in zip(_VERIFY_SIZES, shares):
            template = GenSpec(n=n, extra_edges=extra, red_prob=0.5,
                               seed=args.seed + offset)
            reports.append(randomized_campaign(share, template, engines=tuple(ENGINES)))
            offset += share
        report = merge_reports(reports, args.seed)
    if args.json:
        Path(args.json).write_text(report_to_json(report))
    print(f"instances {report.instances_run} agreements {report.agreements} "
          f"disagreements {len(report.disagreements)} "
          f"statistical {len(report.statistical_events)} skipped {report.skipped}")
    for note in report.budget_notes:
        print(note)
    for event in report.disagreements + report.statistical_events:
        print(f"{event.kind}: {event.engine_a}={event.verdict_a} "
              f"{event.engine_b}={event.verdict_b} on instance {event.instance_id}")
        print(event.instance_text, end="")
    return 3 if report.disagreements else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps
    no state between calls, so main reuses it."""
    parser = argparse.ArgumentParser(
        prog="exactmatch",
        description="Exact matching toolkit: generate, reduce, solve, verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random exact matching instance")
    gen.add_argument("--n", type=int, required=True, help="vertex count (even)")
    gen.add_argument("--extra", type=int, default=0,
                     help="edges beyond the planted perfect matching")
    gen.add_argument("--red-prob", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--bipartite", action="store_true",
                     help="generate a bipartite instance")
    gen.add_argument("--out", help="output file (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    red = sub.add_parser("reduce", help="reduce exact matching to top-k matching")
    red.add_argument("--in", dest="infile", required=True, help="input instance")
    red.add_argument("--out", required=True, help="gadget instance output file")
    red.add_argument("--map", required=True, help="gadget map output file")
    red.set_defaults(func=_cmd_reduce)

    solve = sub.add_parser("solve", help="solve an instance")
    solve.add_argument("problem", choices=("em", "tkpm", "cpm", "bcpm"))
    solve.add_argument("--in", dest="infile", required=True, help="input instance")
    solve.add_argument("--engine",
                       choices=_ENGINE_NAMES,
                       help="solver engine (default brute)")
    solve.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                       help="trial count for the algebraic engine")
    solve.add_argument("--seed", type=int, default=None,
                       help="seed for the algebraic engine")
    solve.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="run a differential-testing campaign")
    mode = ver.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", action="store_true")
    ver.add_argument("--max-n", type=int, help="size bound for --exhaustive")
    ver.add_argument("--count", type=int, help="instance count for --random")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--json", help="write the full report to this file")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:   # InstanceFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
