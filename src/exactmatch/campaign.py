"""Differential-testing campaigns over the matching solvers.

Two drivers live here. exhaustive_sweep covers every graph that can matter
at desk scale (all isomorphism classes on up to 6 vertices that contain a
perfect matching, seeded samples at n = 8), crossed with edge colorings and
every feasible k, and compares the brute-force exact-matching oracle against
the gadget-reduction decider. randomized_campaign compares any subset of the
solver engines on generated instances.

SOLVERS is the one engine table: `exactmatch solve` looks engines up in it,
and ENGINES, the named engines the campaigns run, is derived from it.

Comparison convention: engines are exact unless they report a nonzero error
bound. A "probably no" from a randomized engine against a brute-force "yes"
is a statistical event, recorded separately; an impossible answer (a "yes"
against a brute-force "no", or two exact answers differing) is a hard
disagreement. Every reported event embeds the serialized instance so it can
be replayed on its own.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterator, Optional

from .algebraic import (
    algebraic_em_decide,
    bcpm_via_em,
    cpm_via_em,
    find_bipartition,
    yes_and_error,
)
from .engines import (
    BudgetExhausted,
    EnumerationBudget,
    brute_bcpm,
    brute_cpm,
    brute_em,
    brute_tkpm,
    enumerate_perfect_matchings,
)
from .formats import format_em_instance
from .generator import GenSpec, gen_instance
from .graphs import BLUE, RED, ColoredGraph, EmInstance, top_k_weight
from .reduction import decide_em_via_tkpm, gadgetize

SWEEP_COLORINGS_CAP = 128   # colorings sampled per graph when 2^m is too many
SWEEP_N8_GRAPHS = 60        # sampled graph structures at n = 8


@dataclass(frozen=True)
class Disagreement:
    """One engine-pair conflict on one instance, with everything needed to
    replay it: the serialized instance, and the seed for randomized engines."""

    instance_id: int
    engine_a: str
    engine_b: str
    verdict_a: str
    verdict_b: str
    kind: str                    # "hard" or "statistical"
    instance_text: str
    seed: Optional[int] = None


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of one campaign. At most one hard record and one statistical
    record are emitted per instance, so agreements + hard disagreements
    add up to the instances actually compared."""

    instances_run: int
    agreements: int
    disagreements: tuple[Disagreement, ...]
    statistical_events: tuple[Disagreement, ...]
    engine_seconds: tuple[tuple[str, float], ...]
    detection: tuple[tuple[str, int, int], ...]   # (engine, detected, yes_total)
    seed: int
    skipped: int = 0
    budget_notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.agreements + len(self.disagreements) != self.instances_run:
            raise ValueError("agreements + disagreements must equal instances run")

    @property
    def ok(self) -> bool:
        return not self.disagreements


def report_to_json(report: CampaignReport) -> str:
    """Serialize a report with a stable field order so runs can be diffed."""
    def event(d: Disagreement) -> dict:
        doc = {
            "instance_id": d.instance_id,
            "engine_a": d.engine_a,
            "engine_b": d.engine_b,
            "verdict_a": d.verdict_a,
            "verdict_b": d.verdict_b,
            "kind": d.kind,
            "instance_text": d.instance_text,
        }
        if d.seed is not None:
            doc["seed"] = d.seed
        return doc

    doc = {
        "instances_run": report.instances_run,
        "agreements": report.agreements,
        "disagreements": [event(d) for d in
                          sorted(report.disagreements, key=lambda d: d.instance_id)],
        "statistical_events": [event(d) for d in
                               sorted(report.statistical_events, key=lambda d: d.instance_id)],
        "engine_seconds": {name: round(sec, 6)
                           for name, sec in sorted(report.engine_seconds)},
        "detection": [{"engine": name, "detected": det, "yes_total": tot}
                      for name, det, tot in report.detection],
        "seed": report.seed,
        "skipped": report.skipped,
        "budget_notes": list(report.budget_notes),
    }
    return json.dumps(doc, indent=2)


def merge_reports(reports, seed: int) -> CampaignReport:
    """Combine campaign reports into one, shifting instance ids by each
    report's size so they stay unique; timings and counts accumulate."""
    disagreements: list[Disagreement] = []
    statistical: list[Disagreement] = []
    seconds: dict[str, float] = {}
    detected: dict[str, int] = {}
    yes_total: dict[str, int] = {}
    notes: list[str] = []
    run = agreements = skipped = offset = 0
    for report in reports:
        disagreements += [replace(d, instance_id=d.instance_id + offset)
                          for d in report.disagreements]
        statistical += [replace(d, instance_id=d.instance_id + offset)
                        for d in report.statistical_events]
        for name, sec in report.engine_seconds:
            seconds[name] = seconds.get(name, 0.0) + sec
        for name, det, tot in report.detection:
            detected[name] = detected.get(name, 0) + det
            yes_total[name] = yes_total.get(name, 0) + tot
        notes += list(report.budget_notes)
        run += report.instances_run
        agreements += report.agreements
        skipped += report.skipped
        offset += report.instances_run + report.skipped
    return CampaignReport(
        instances_run=run,
        agreements=agreements,
        disagreements=tuple(disagreements),
        statistical_events=tuple(statistical),
        engine_seconds=tuple(sorted(seconds.items())),
        detection=tuple((name, detected[name], yes_total[name])
                        for name in sorted(yes_total)),
        seed=seed,
        skipped=skipped,
        budget_notes=tuple(notes))


@lru_cache(maxsize=None)
def graph_classes_with_pm(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Every isomorphism class of simple graphs on n vertices containing a
    perfect matching, one representative edge tuple per class.

    Any graph with a perfect matching can be relabeled so the matching is
    {(0,1), (2,3), ...}, so scanning all supergraphs of that fixed matching
    and deduplicating by canonical form (the minimum adjacency bitmask over
    all vertex relabelings) covers every class exactly once.
    """
    if n % 2 or not 2 <= n <= 6:
        raise ValueError("isomorphism-exact enumeration supports even n in 2..6 only")
    pairs = tuple(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    nbits = len(pairs)
    lo_bits = min(8, nbits)
    lo_mask = (1 << lo_bits) - 1

    # Per-relabeling bitmask remap, split into two table lookups for speed.
    def build_table(bit_to: list[int], start: int, width: int) -> list[int]:
        table = [0] * (1 << width)
        for x in range(1 << width):
            acc = 0
            y = x
            i = start
            while y:
                if y & 1:
                    acc |= 1 << bit_to[i]
                y >>= 1
                i += 1
            table[x] = acc
        return table

    tables = []
    for perm in itertools.permutations(range(n)):
        bit_to = [index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        tables.append((build_table(bit_to, 0, lo_bits),
                       build_table(bit_to, lo_bits, nbits - lo_bits)))

    base = 0
    for v in range(0, n, 2):
        base |= 1 << index[(v, v + 1)]
    free = [i for i in range(nbits) if not (base >> i) & 1]

    canonical = set()
    for bits in range(1 << len(free)):
        mask = base
        b = bits
        for i in free:
            if b & 1:
                mask |= 1 << i
            b >>= 1
        best = mask
        for lo, hi in tables:
            new = lo[mask & lo_mask] | hi[mask >> lo_bits]
            if new < best:
                best = new
        canonical.add(best)

    classes = []
    for mask in sorted(canonical, key=lambda m: (bin(m).count("1"), m)):
        classes.append(tuple(pairs[i] for i in range(nbits) if (mask >> i) & 1))
    return tuple(classes)


def _sampled_pm_graphs(n: int, count: int, rng: random.Random):
    """Seeded sample of distinct graph structures on n vertices, each
    containing the planted perfect matching {(0,1), (2,3), ...}."""
    matching = [(v, v + 1) for v in range(0, n, 2)]
    candidates = [p for p in itertools.combinations(range(n), 2) if p not in set(matching)]
    seen = set()
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 20:
        attempts += 1
        extra = rng.randint(0, len(candidates))
        picked = frozenset(rng.sample(candidates, extra))
        if picked in seen:
            continue
        seen.add(picked)
        out.append(tuple(sorted(matching + list(picked))))
    return out


def _colorings(m: int, cap: int, rng: random.Random) -> Iterator[int]:
    """All 2^m red/blue colorings as bitmasks when m <= 10, else a seeded
    sample of cap distinct ones."""
    if m <= 10:
        yield from range(1 << m)
        return
    seen: set[int] = set()
    while len(seen) < cap:
        seen.add(rng.getrandbits(m))
    yield from sorted(seen)


def exhaustive_instances(
        max_n: int,
        colorings_cap: int = SWEEP_COLORINGS_CAP,
        seed: int = 0,
        ) -> Iterator[EmInstance]:
    """The covering instance stream behind exhaustive_sweep: for each even
    n <= max_n, every graph class that can have a perfect matching (all
    isomorphism classes for n <= 6, seeded samples at n = 8), crossed with
    edge colorings and every k in 0..n/2."""
    if max_n > 8:
        raise ValueError("max_n must be at most 8 (cost guard)")
    rng = random.Random(seed)
    for n in range(2, max_n + 1, 2):
        if n <= 6:
            structures = graph_classes_with_pm(n)
        else:
            structures = _sampled_pm_graphs(n, SWEEP_N8_GRAPHS, rng)
        for edges in structures:
            m = len(edges)
            for bits in _colorings(m, colorings_cap, rng):
                colored = tuple(
                    (u, v, RED if (bits >> i) & 1 else BLUE)
                    for i, (u, v) in enumerate(edges))
                graph = ColoredGraph(n, colored)
                for k in range(n // 2 + 1):
                    yield EmInstance(graph, k)


def _em_answer_budgeted(instance: EmInstance, budget: EnumerationBudget) -> bool:
    colors = instance.graph.colors
    k = instance.k
    for matching in enumerate_perfect_matchings(instance.graph, budget):
        if sum(1 for eid in matching if colors[eid] == RED) == k:
            return True
    return False


def _tkpm_decide_budgeted(instance: EmInstance, budget: EnumerationBudget) -> bool:
    """decide_em_via_tkpm under a budget: like tkpm_reaches, stop at the
    first gadget matching that reaches the threshold."""
    tkpm, gadget_map = gadgetize(instance)
    weights, k, threshold = tkpm.graph.weights, tkpm.k, gadget_map.threshold
    return any(top_k_weight(weights, matching, k) >= threshold
               for matching in enumerate_perfect_matchings(tkpm.graph, budget))


def exhaustive_sweep(
        max_n: int,
        colorings_cap: int = SWEEP_COLORINGS_CAP,
        seed: int = 0,
        budget: Optional[EnumerationBudget] = None,
        ) -> CampaignReport:
    """Compare brute_em against decide_em_via_tkpm over the covering stream.

    With a budget, an instance on which either engine exhausts it is skipped
    and recorded in budget_notes (it does not count as run); the default is
    unbudgeted, which always terminates at these sizes.
    """
    disagreements: list[Disagreement] = []
    notes: list[str] = []
    seconds = {"brute-em": 0.0, "via-tkpm": 0.0}
    run = 0
    skipped = 0
    for iid, instance in enumerate(exhaustive_instances(max_n, colorings_cap, seed)):
        try:
            t0 = time.perf_counter()
            if budget is None:
                brute_yes = brute_em(instance) is not None
            else:
                brute_yes = _em_answer_budgeted(instance, budget)
            t1 = time.perf_counter()
            if budget is None:
                gadget_yes = decide_em_via_tkpm(instance)
            else:
                gadget_yes = _tkpm_decide_budgeted(instance, budget)
            t2 = time.perf_counter()
        except BudgetExhausted as exc:
            skipped += 1
            notes.append(
                f"instance {iid}: skipped, {exc}\n{format_em_instance(instance)}")
            continue
        seconds["brute-em"] += t1 - t0
        seconds["via-tkpm"] += t2 - t1
        run += 1
        if brute_yes != gadget_yes:
            disagreements.append(Disagreement(
                instance_id=iid,
                engine_a="brute-em",
                engine_b="via-tkpm",
                verdict_a="yes" if brute_yes else "no",
                verdict_b="yes" if gadget_yes else "no",
                kind="hard",
                instance_text=format_em_instance(instance)))
    return CampaignReport(
        instances_run=run,
        agreements=run - len(disagreements),
        disagreements=tuple(disagreements),
        statistical_events=(),
        engine_seconds=tuple(sorted(seconds.items())),
        detection=(),
        seed=seed,
        skipped=skipped,
        budget_notes=tuple(notes))


# (problem, `solve --engine` name) -> (campaign engine name or None,
# bipartite-only, solve(instance, seed, trials)): the one place to add an
# engine. The callables look their engine up in this module at call time.
SOLVERS: dict[tuple[str, str], tuple[Optional[str], bool, Callable]] = {
    ("em", "brute"): ("brute-em", False, lambda inst, seed, trials: brute_em(inst)),
    ("em", "via-tkpm"): ("via-tkpm", False,
                         lambda inst, seed, trials: decide_em_via_tkpm(inst)),
    ("em", "algebraic"): ("algebraic", True, lambda inst, seed, trials:
                          algebraic_em_decide(inst, trials=trials, seed=seed)),
    ("tkpm", "brute"): (None, False, lambda inst, seed, trials: brute_tkpm(inst)),
    ("cpm", "brute"): ("brute-cpm", False, lambda inst, seed, trials: brute_cpm(inst)),
    ("cpm", "via-em"): ("cpm-via-em", False, lambda inst, seed, trials: cpm_via_em(inst)),
    ("bcpm", "brute"): (None, False, lambda inst, seed, trials: brute_bcpm(inst)),
    ("bcpm", "via-em"): (None, False, lambda inst, seed, trials: bcpm_via_em(inst)),
}


def _verdict(solve: Callable) -> Callable[[EmInstance, int, int], tuple[str, bool]]:
    """A campaign runner: the solve result as (verdict, exact); a "no" is
    exact only when it carries no error bound."""
    def run(instance: EmInstance, seed: int, trials: int) -> tuple[str, bool]:
        yes, error = yes_and_error(solve(instance, seed, trials))
        if yes:
            return "yes", True
        return ("no", True) if error == 0.0 else ("probably-no", False)
    return run


# name -> (problem family, bipartite-only, verdict runner)
ENGINES: dict[str, tuple[str, bool, Callable[[EmInstance, int, int], tuple[str, bool]]]] = {
    name: (problem, bipartite, _verdict(solve))
    for (problem, _), (name, bipartite, solve) in SOLVERS.items() if name is not None}


def randomized_campaign(
        count: int,
        template: GenSpec,
        engines: tuple[str, ...] = ("brute-em", "via-tkpm"),
        trials: int = 1,
        ) -> CampaignReport:
    """Generate count instances from the template (seed advancing by one per
    instance) and cross-check the named engines pairwise within each problem
    family. Bipartite-only engines sit out non-bipartite instances.

    The detection field reports, for each randomized engine, how many
    brute-force-confirmed yes instances it answered yes on, which is the
    empirical single-run detection rate when trials=1.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    unknown = [name for name in engines if name not in ENGINES]
    if unknown:
        raise ValueError(f"unknown engine name: {unknown[0]}")

    disagreements: list[Disagreement] = []
    statistical: list[Disagreement] = []
    seconds = {name: 0.0 for name in engines}
    detected = {name: 0 for name in engines if ENGINES[name][1]}
    yes_total = {name: 0 for name in engines if ENGINES[name][1]}

    for i in range(count):
        spec = replace(template, seed=template.seed + i)
        instance = gen_instance(spec)
        bipartite = find_bipartition(instance.graph) is not None
        verdicts: list[tuple[str, str, str, bool]] = []   # (name, family, verdict, exact)
        for name in engines:
            family, needs_bipartite, runner = ENGINES[name]
            if needs_bipartite and not bipartite:
                continue
            t0 = time.perf_counter()
            verdict, exact = runner(instance, spec.seed, trials)
            seconds[name] += time.perf_counter() - t0
            verdicts.append((name, family, verdict, exact))

        hard: Optional[Disagreement] = None
        stat: Optional[Disagreement] = None
        negative = ("no", "probably-no")
        for (na, fa, va, ea), (nb, fb, vb, eb) in itertools.combinations(verdicts, 2):
            if fa != fb or va == vb:
                continue
            if va in negative and vb in negative:
                continue   # both lean no; the weaker one is not a conflict
            if "probably-no" in (va, vb):
                if stat is None:
                    stat = Disagreement(i, na, nb, va, vb, "statistical",
                                        format_em_instance(instance), spec.seed)
            elif hard is None:
                hard = Disagreement(i, na, nb, va, vb, "hard",
                                    format_em_instance(instance), spec.seed)
        if hard is not None:
            disagreements.append(hard)
        if stat is not None:
            statistical.append(stat)

        # Detection bookkeeping against exact ground truth, when present.
        truth = next((v == "yes" for n_, f_, v, exact in verdicts
                      if f_ == "em" and exact and n_ not in yes_total), None)
        if truth:
            for name, family, verdict, _ in verdicts:
                if name in yes_total and family == "em":
                    yes_total[name] += 1
                    if verdict == "yes":
                        detected[name] += 1

    return CampaignReport(
        instances_run=count,
        agreements=count - len(disagreements),
        disagreements=tuple(disagreements),
        statistical_events=tuple(statistical),
        engine_seconds=tuple(sorted(seconds.items())),
        detection=tuple((name, detected[name], yes_total[name])
                        for name in sorted(yes_total)),
        seed=template.seed)
