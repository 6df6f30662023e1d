"""The benchmark's workloads.

A workload builds its inputs from the seed (set-up), then runs one op at a
time on them. Every call into the program goes through a module attribute
(engines.brute_em, cli.main, ...), so the tracer can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from exactmatch import algebraic, campaign, cli, engines, formats, reduction
from exactmatch.generator import GenSpec
from exactmatch.graphs import ColoredGraph, EmInstance, is_perfect_matching, red_count

import families


def _fresh(graph: ColoredGraph) -> ColoredGraph:
    return ColoredGraph(graph.n, graph.edges)


class Workload:
    """What the worker needs from a workload.

    items: the op inputs of one pass, in the order they run; a run repeats
      whole passes, so a pass lasts a few seconds;
    trace_ops: ops in one traced pass, the first ones of items.
    """

    trace_ops: int
    items: list

    def copy(self, items: list) -> list:
        """The same inputs as new objects, for a later pass, so that no
        cached property (adjacency lists) carries over between passes."""
        return items

    def run(self, item):
        """The op; the only part that is timed."""
        raise NotImplementedError

    def check(self, item, result) -> Optional[str]:
        """None when the result matches the truth known for the item, else
        a message."""
        raise NotImplementedError

    def count(self, item, result, counts: Counter) -> None:
        """Add counts that need the truth; called in the untimed counting
        pass only."""


class Sweep6(Workload):
    """exhaustive_instances(6), built whole at set-up as verify does; a pass
    is a seeded sample of PASS_OPS of its instances, and each op decides one
    instance with brute_em and with decide_em_via_tkpm. A fixed pass keeps
    the memory held by cached adjacency lists the same on a faster or a
    slower machine."""

    trace_ops = 3000
    PASS_OPS = 6000

    def __init__(self, seed: int, workdir: Path) -> None:
        items = list(campaign.exhaustive_instances(6, seed=seed))
        random.Random(seed).shuffle(items)
        self.items = items[:self.PASS_OPS]

    def copy(self, items):
        graphs: dict[int, ColoredGraph] = {}
        out = []
        for inst in items:
            graph = graphs.get(id(inst.graph))
            if graph is None:
                graph = graphs[id(inst.graph)] = _fresh(inst.graph)
            out.append(EmInstance(graph, inst.k))
        return out

    def run(self, inst):
        return engines.brute_em(inst), reduction.decide_em_via_tkpm(inst)

    def check(self, inst, result) -> Optional[str]:
        witness, via_yes = result
        if (witness is not None) != via_yes:
            return f"brute-em and via-tkpm disagree on k={inst.k}"
        if witness is not None and not (is_perfect_matching(inst.graph, witness)
                                        and red_count(inst.graph, witness) == inst.k):
            return "brute-em witness is not a perfect matching with k red edges"
        return None



# One round of the algebraic workload: (problem, family, vertices, |S|, k).
# A sure EM "no" runs all 40 trials, so those sit at n = 16, where 40
# determinants take a few hundredths of a second. |S| and k are fixed,
# because the red share sets the degree of the determinant's polynomial and
# so its cost; the seed only draws the graphs and the weights. CPM and BCPM
# fixing |S| and k fixes how many EM queries they make: CPM asks k' = 0 (a
# sure no) then 2 (yes); BCPM asks k' = 0 and 2, both sure noes, as every
# matching has 4 red edges. The mix places the median op among the sure
# noes and the tail op among the BCPM ops, groups whose cost the seed
# barely moves; a planted yes stops at its first hit, after a number of
# trials the seed decides.
ALGEBRAIC_ROUND = (
    ("em", "red_set", 16, 4, 5),
    ("bcpm", "red_set", 16, 4, 2),
    ("em", "planted_yes", 16, None, None),
    ("em", "red_set", 16, 4, 3),
    ("bcpm", "red_set", 16, 4, 2),
    ("em", "planted_yes", 24, None, None),
    ("cpm", "red_set", 16, 2, 4),
    ("em", "planted_yes", 32, None, None),
    ("em", "planted_yes", 16, None, None),
    ("em", "red_set", 16, 4, 6),
    ("bcpm", "red_set", 16, 4, 2),
    ("em", "planted_yes", 24, None, None),
)
ALGEBRAIC_TRIALS = 40


@dataclass(frozen=True)
class AlgebraicItem:
    problem: str
    case: families.Bipartite
    seed: int


class AlgebraicBipartite(Workload):
    """Bipartite instances with truth by construction through the
    randomized algebraic decider, for EM and for CPM and BCPM via EM."""

    trace_ops = len(ALGEBRAIC_ROUND)
    ROUNDS = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        self.items = []
        for _ in range(self.ROUNDS):
            for problem, family, n, s, k in ALGEBRAIC_ROUND:
                case = (families.planted_yes(n, rng) if family == "planted_yes"
                        else families.red_set(n, rng, s, k))
                self.items.append(AlgebraicItem(problem, case, rng.getrandbits(32)))

    def copy(self, items):
        out = []
        for item in items:
            inst = item.case.instance
            case = families.Bipartite(EmInstance(_fresh(inst.graph), inst.k),
                                      item.case.em, item.case.cpm, item.case.bcpm)
            out.append(AlgebraicItem(item.problem, case, item.seed))
        return out

    def run(self, item: AlgebraicItem):
        def decider(inst):
            return algebraic.algebraic_em_decide(inst, trials=ALGEBRAIC_TRIALS, seed=item.seed)
        inst = item.case.instance
        if item.problem == "em":
            return decider(inst)
        via = algebraic.cpm_via_em if item.problem == "cpm" else algebraic.bcpm_via_em
        return via(inst, decider)

    def check(self, item: AlgebraicItem, result) -> Optional[str]:
        truth = getattr(item.case, item.problem)
        if result.answer != truth:
            return f"{item.problem} answered {result.answer}, truth is {truth}"
        return None

    def count(self, item: AlgebraicItem, result, counts: Counter) -> None:
        if item.problem == "em" and item.case.em:
            counts["algebraic.yes_hits"] += result.answer
            counts["algebraic.yes_trials"] += result.trials_run


VERIFY_BATCH = 100
VERIFY_ENGINES = tuple(campaign.ENGINES)


class RandomVerify(Workload):
    """What `verify --random` does, in batches of VERIFY_BATCH instances
    split over the CLI's size mix, with all five engines and one trial."""

    trace_ops = 10
    BATCHES = 80

    def __init__(self, seed: int, workdir: Path) -> None:
        base = seed * 10_000_000
        self.items = [base + i * VERIFY_BATCH for i in range(self.BATCHES)]

    def run(self, first_seed: int):
        sizes = cli._VERIFY_SIZES
        shares = [VERIFY_BATCH // len(sizes)] * len(sizes)
        shares[-1] += VERIFY_BATCH - sum(shares)
        reports = []
        offset = 0
        for (n, extra), share in zip(sizes, shares):
            template = GenSpec(n=n, extra_edges=extra, red_prob=0.5, seed=first_seed + offset)
            reports.append(campaign.randomized_campaign(
                share, template, engines=VERIFY_ENGINES, trials=1))
            offset += share
        return campaign.merge_reports(reports, first_seed)

    def check(self, item, report) -> Optional[str]:
        if report.instances_run != VERIFY_BATCH:
            return f"batch ran {report.instances_run} instances, not {VERIFY_BATCH}"
        if report.disagreements:
            d = report.disagreements[0]
            return f"hard disagreement {d.engine_a}={d.verdict_a} {d.engine_b}={d.verdict_b}"
        return None

    def count(self, item, report, counts: Counter) -> None:
        counts["campaign.statistical_events"] += len(report.statistical_events)
        for _, detected, yes_total in report.detection:
            counts["algebraic.yes_hits"] += detected
            counts["algebraic.yes_trials"] += yes_total     # one trial per instance


@dataclass(frozen=True)
class DeepItem:
    kind: str                        # "brute", "via-tkpm", "reduce" or "ladder"
    graph: ColoredGraph
    k: int = 0
    truth: bool = True
    path: str = ""


class DeepSparse(Workload):
    """Large sparse inputs with few perfect matchings: `solve em` with both
    exact engines and `reduce` through cli.main on instance files, and
    library has_perfect_matching on ladders."""

    trace_ops = 8
    # (kind, vertices, squares), one round. Sizes are fixed, so the seed
    # only draws the graphs, and stay where the recursive enumerators fit
    # in the default recursion limit; recursion_probe() shows what happens
    # past it.
    SHAPES = (
        ("brute", 1000, 6), ("via-tkpm", 800, 4), ("reduce", 2000, 6), ("ladder", 600, 0),
        ("brute", 2000, 8), ("via-tkpm", 1400, 6), ("reduce", 4000, 8), ("ladder", 1200, 0),
    )
    PROBE_LADDER_VERTICES = (2400, 3000)
    ROUNDS = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(seed)
        items = []
        for r in range(self.ROUNDS):
            for kind, vertices, squares in self.SHAPES:
                if kind == "ladder":
                    items.append(DeepItem(kind, families.ladder(vertices // 2, rng)))
                    continue
                ch = families.chain(vertices, squares, rng)
                # alternately a sure yes and a sure no just outside the red-count range
                if r % 2 == 0:
                    k = rng.randint(ch.base, ch.base + squares)
                else:
                    k = rng.choice([x for x in (ch.base - 1, ch.base + squares + 1)
                                    if 0 <= x <= ch.graph.n // 2])
                path = workdir / f"{r}-{kind}-{vertices}.em"
                path.write_text(formats.format_em_instance(EmInstance(ch.graph, k)))
                items.append(DeepItem(kind, ch.graph, k, ch.em_truth(k), str(path)))
        self.items = items

    def copy(self, items):
        return [DeepItem(item.kind, _fresh(item.graph), item.k, item.truth, item.path)
                for item in items]

    def run(self, item: DeepItem):
        if item.kind == "ladder":
            return engines.has_perfect_matching(item.graph)
        if item.kind == "reduce":
            argv = ["reduce", "--in", item.path, "--out", item.path + ".tkpm",
                    "--map", item.path + ".map"]
        else:
            argv = ["solve", "em", "--in", item.path, "--engine", item.kind]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, item: DeepItem, result) -> Optional[str]:
        if item.kind == "ladder":
            return None if result is True else "ladder reported without a perfect matching"
        code, out, err = result
        if item.kind == "reduce":
            g = item.graph
            m, reds = len(g.edges), g.num_red
            want = (f"gadget: {g.n + 4 * m + 2 * item.k} vertices, {5 * m + item.k} edges, "
                    f"k'={2 * reds}, threshold={4 * reds + item.k}\n")
            if code != 0 or out != want:
                return f"reduce printed {out!r} {err!r} with exit {code}"
            with open(item.path + ".tkpm") as f:
                lines = sum(1 for _ in f)
            return None if lines == 5 * m + item.k + 1 else "gadget file has the wrong size"
        if code != (0 if item.truth else 1):
            return f"{item.kind} exit {code} {err.strip()!r}, truth {item.truth}"
        if item.kind == "brute" and item.truth:
            witness = formats.parse_matching(out.splitlines()[1])
            if not (is_perfect_matching(item.graph, witness)
                    and red_count(item.graph, witness) == item.k):
                return "brute witness is not a perfect matching with k red edges"
        return None



WORKLOADS = {
    "sweep6": Sweep6,
    "algebraic-bipartite": AlgebraicBipartite,
    "random-verify": RandomVerify,
    "deep-sparse": DeepSparse,
}


def recursion_probe(seed: int) -> int:
    """has_perfect_matching on ladders past the default recursion limit's
    reach; returns how many raised RecursionError. Run untimed."""
    rng = random.Random(seed)
    errors = 0
    for vertices in DeepSparse.PROBE_LADDER_VERTICES:
        try:
            engines.has_perfect_matching(families.ladder(vertices // 2, rng))
        except RecursionError:
            errors += 1
    return errors
