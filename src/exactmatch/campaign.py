"""Differential-testing campaigns over the matching solvers.

Two drivers live here, both thin: each builds a stream of instances and
hands it to _cross_check, the one loop that runs, times and compares the
engines. exhaustive_sweep covers every graph that can matter at desk scale
(all isomorphism classes on up to 6 vertices that contain a perfect
matching, seeded samples at n = 8), crossed with edge colorings and every
feasible k, and runs the ENGINES rows brute-em (the brute-force oracle)
and via-tkpm (the gadget-reduction decider) on it. randomized_campaign
compares any subset of ENGINES on generated instances.

SOLVERS is the one engine table, read by `exactmatch solve`; ENGINES, the
campaigns' named engines, holds each one's family and row callable, which
returns an Answer or raises NotBipartite to sit an instance out.

Comparison convention: an answer is exact unless it is a "no" with a
positive error bound, a "probably no". One from a randomized engine against
a brute-force "yes" is a statistical event, recorded separately; an
impossible answer (a "yes" against a brute-force "no", or two exact answers
differing) is a hard disagreement, and so is an engine that crashes, which
does not stop the campaign. Every reported event embeds the serialized
instance so it can be replayed on its own.

The exhaustive stream is cheap to hold whole: the graphs of one structure
share each edge's blue and red (u, v, colour) triple, the instance types
are slotted, and the class enumeration gathers each orbit's images in
bulk with C-level map and zip calls.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional

from .algebraic import NotBipartite, algebraic_em_decide, bcpm_via_em, cpm_via_em
# kept for bench/tracing.py, which wraps it here; algebraic_em_decide calls its own
from .algebraic import find_bipartition  # noqa: F401
from .engines import (
    BudgetExhausted,
    EnumerationBudget,
    brute_bcpm,
    brute_cpm,
    brute_em,
    brute_tkpm,
)
from .formats import format_em_instance
from .generator import GenSpec, gen_instance
from .graphs import BLUE, RED, ColoredGraph, EmInstance, Matching
from .reduction import decide_em_via_tkpm

SWEEP_COLORINGS_CAP = 128   # colorings sampled per graph of more than 10 edges
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
    # the reason for every skipped instance, with its text: budget trips and
    # bipartite sit-outs that left no problem family two verdicts to compare
    budget_notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.agreements + len(self.disagreements) != self.instances_run:
            raise ValueError("agreements + disagreements must equal instances run")

    @property
    def ok(self) -> bool:
        """True when some instance was compared and none disagreed; a
        report that compared nothing has shown nothing."""
        return self.instances_run > 0 and not self.disagreements


def report_to_json(report: CampaignReport) -> str:
    """Serialize a report with a stable field order so runs can be diffed:
    the dataclass fields in declaration order, events sorted by instance id
    without a None seed, engine seconds as a name-sorted dict rounded to 6
    places, and detection as records."""
    def events(records: tuple[Disagreement, ...]) -> list[dict]:
        docs = [asdict(d) for d in sorted(records, key=lambda d: d.instance_id)]
        for doc in docs:
            if doc["seed"] is None:
                del doc["seed"]
        return docs

    doc = {f.name: getattr(report, f.name) for f in fields(report)}
    doc.update(
        disagreements=events(report.disagreements),
        statistical_events=events(report.statistical_events),
        engine_seconds={name: round(sec, 6) for name, sec in sorted(report.engine_seconds)},
        detection=[{"engine": name, "detected": det, "yes_total": tot}
                   for name, det, tot in report.detection])
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
        for note in report.budget_notes:
            iid, rest = note.removeprefix("instance ").split(":", 1)
            notes.append(f"instance {int(iid) + offset}:{rest}")
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
    perfect matching, one representative edge tuple per class, ordered by
    edge count and then by adjacency bitmask.

    The representative is the class's canonical form, the minimum adjacency
    bitmask over all vertex relabelings. Scanning the masks in ascending
    order, the first one not yet seen is the minimum of its orbit; its whole
    orbit is then marked seen. The class has a perfect matching exactly when
    some image in the orbit contains the fixed matching {(0,1), (2,3), ...}.
    """
    if n % 2 or not 2 <= n <= 6:
        raise ValueError("isomorphism-exact enumeration supports even n in 2..6 only")
    pairs = tuple(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    # per edge bit, its image bit under each relabeling in turn
    image_bits = tuple(zip(*[[1 << index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
                             for perm in itertools.permutations(range(n))]))
    matching = sum(1 << index[(v, v + 1)] for v in range(0, n, 2))
    seen = bytearray(1 << len(pairs))
    classes = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        # the orbit: per relabeling, the sum of the image bits of the mask's
        # edges; zip yields nothing for the empty mask, whose orbit {0} the
        # scan has passed and which holds no perfect matching
        orbit = set(map(sum, zip(*map(image_bits.__getitem__, bits))))
        for image in orbit:
            seen[image] = 1
        if matching in map(matching.__and__, orbit):
            classes.append(tuple(pairs[i] for i in bits))
    return tuple(sorted(classes, key=len))


def _sampled_pm_graphs(n: int, count: int, rng: random.Random):
    """Seeded sample of distinct graph structures on n vertices, each
    containing the planted perfect matching {(0,1), (2,3), ...}."""
    matching = [(v, v + 1) for v in range(0, n, 2)]
    planted = set(matching)
    candidates = [p for p in itertools.combinations(range(n), 2) if p not in planted]
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


def _colorings(m: int, rng: random.Random) -> Iterator[int]:
    """All 2^m red/blue colorings as bitmasks when m <= 10, else a seeded
    sample of SWEEP_COLORINGS_CAP distinct ones."""
    if m <= 10:
        yield from range(1 << m)
        return
    seen: set[int] = set()
    while len(seen) < SWEEP_COLORINGS_CAP:
        seen.add(rng.getrandbits(m))
    yield from sorted(seen)


def exhaustive_instances(max_n: int, seed: int = 0) -> Iterator[EmInstance]:
    """The covering instance stream behind exhaustive_sweep: for each even
    n <= max_n, every graph class that can have a perfect matching (all
    isomorphism classes for n <= 6, seeded samples at n = 8), crossed with
    edge colorings and every k in 0..n/2. max_n is checked at the call."""
    if type(max_n) is not int:
        raise ValueError(f"max_n must be an int, got {max_n!r}")
    if max_n < 2:
        raise ValueError("max_n must be at least 2")
    if max_n > 8:
        raise ValueError("max_n must be at most 8 (cost guard)")

    def stream() -> Iterator[EmInstance]:
        rng = random.Random(seed)
        for n in range(2, max_n + 1, 2):
            if n <= 6:
                structures = graph_classes_with_pm(n)
            else:
                structures = _sampled_pm_graphs(n, SWEEP_N8_GRAPHS, rng)
            for edges in structures:
                # each edge's blue and red triple, shared by all the colorings
                triples = [((u, v, BLUE), (u, v, RED)) for u, v in edges]
                for bits in _colorings(len(edges), rng):
                    graph = ColoredGraph(
                        n, tuple([pair[bits >> i & 1] for i, pair in enumerate(triples)]))
                    for k in range(n // 2 + 1):
                        yield EmInstance(graph, k)
    return stream()


class Answer(NamedTuple):
    """What every SOLVERS row returns, built once from its engine's own
    result. A randomized engine gives an error bound on every answer."""

    yes: bool
    witness: Optional[Matching] = None      # when the engine gives one
    value: Optional[int] = None             # the tkpm optimum
    error_bound: Optional[float] = None     # on a "no"; None from an exact engine

    @property
    def verdict(self) -> str:
        """In words, for a Disagreement; a "no" with a positive bound is "probably-no"."""
        return "yes" if self.yes else "probably-no" if self.error_bound else "no"


# (problem, `solve --engine` name) -> (campaign engine name or None,
# solve(instance, seed, trials, budget) -> Answer): the one place to add an
# engine or to read its result. Each callable uses only the options its
# engine has and looks the engine up here at call time; the algebraic one
# raises NotBipartite. A via-em row gives a zero bound as None: it is exact.
SOLVERS: dict[tuple[str, str], tuple[Optional[str], Callable[..., Answer]]] = {
    ("em", "brute"): ("brute-em", lambda inst, seed, trials, budget:
                      Answer((w := brute_em(inst, budget)) is not None, w)),
    ("em", "via-tkpm"): ("via-tkpm", lambda inst, seed, trials, budget:
                         Answer(decide_em_via_tkpm(inst, budget))),
    ("em", "algebraic"): ("algebraic", lambda inst, seed, trials, budget: Answer(
        (d := algebraic_em_decide(inst, trials, seed)).answer, error_bound=d.error_bound)),
    ("tkpm", "brute"): (None, lambda inst, seed, trials, budget:
                        Answer(False) if (r := brute_tkpm(inst)) is None else Answer(True, *r)),
    ("cpm", "brute"): ("brute-cpm", lambda inst, seed, trials, budget:
                       Answer((w := brute_cpm(inst)) is not None, w)),
    ("cpm", "via-em"): ("cpm-via-em", lambda inst, seed, trials, budget:
                        Answer((d := cpm_via_em(inst)).answer, error_bound=d.error_bound or None)),
    ("bcpm", "brute"): (None, lambda inst, seed, trials, budget:
                        Answer((w := brute_bcpm(inst)) is not None, w)),
    ("bcpm", "via-em"): (None, lambda inst, seed, trials, budget:
                         Answer((d := bcpm_via_em(inst)).answer, error_bound=d.error_bound or None)),
}

# name -> (problem family, the SOLVERS row callable)
ENGINES: dict[str, tuple[str, Callable[..., Answer]]] = {
    name: (problem, solve) for (problem, _), (name, solve) in SOLVERS.items() if name is not None}


def _cross_check(cases, engines: dict, trials: int,
                 budget: Optional[EnumerationBudget], seed: int) -> CampaignReport:
    """The one cross-check loop behind both campaigns.

    cases yields (instance id, instance, seed or None); engines maps a name
    to an ENGINES entry, and each runner gets the case's seed, trials, budget.
    An engine that raises NotBipartite sits the instance out. Detection
    tallies bounded EM answers on instances the first unbounded one calls yes.
    Answers are compared pairwise within a problem family, keeping at most
    one hard and one statistical Disagreement per instance. An engine that
    raises any other exception than BudgetExhausted makes the instance's
    hard Disagreement: its verdict is "raised <exception type>", set against
    the first other engine of its family that answered (empty strings when
    none did), and the loop goes on. Otherwise an instance is skipped, noted
    in budget_notes and none of its seconds booked when an engine raises
    BudgetExhausted on it, or when the sit-outs leave no problem family with
    two verdicts, since then nothing was compared.
    """
    disagreements: list[Disagreement] = []
    statistical: list[Disagreement] = []
    notes: list[str] = []
    seconds = dict.fromkeys(engines, 0.0)
    detected: dict[str, int] = {}
    yes_total: dict[str, int] = {}
    run = skipped = 0

    for iid, instance, case_seed in cases:
        # (name, family, Answer, seconds) of each engine that answered, and
        # (name, family, "raised <exception type>", seconds) of each that raised
        answers: list[tuple[str, str, Answer, float]] = []
        crashes: list[tuple[str, str, str, float]] = []
        exhausted: Optional[BudgetExhausted] = None
        for name, (family, runner) in engines.items():
            t0 = time.perf_counter()
            try:
                answer = runner(instance, case_seed, trials, budget)
            except NotBipartite:
                continue
            except BudgetExhausted as exc:
                exhausted = exc
                break
            except Exception as exc:
                # a fault found on this instance: reported below with the
                # instance text, which replays it with its traceback, and
                # the campaign goes on
                crashes.append((name, family, f"raised {type(exc).__name__}",
                                time.perf_counter() - t0))
                continue
            answers.append((name, family, answer, time.perf_counter() - t0))
        if exhausted is not None and not crashes:
            skipped += 1
            notes.append(f"instance {iid}: skipped, {exhausted}\n{format_em_instance(instance)}")
            continue
        if len({family for _, family, _, _ in answers}) == len(answers) and not crashes:
            # every family that ran has one answer, so nothing was compared
            skipped += 1
            notes.append(f"instance {iid}: skipped, not bipartite, so no problem family "
                         f"had two engines to compare\n{format_em_instance(instance)}")
            continue
        run += 1
        for name, _, _, elapsed in answers + crashes:
            seconds[name] += elapsed

        found: dict[str, Disagreement] = {}   # kind -> first event of that kind
        if crashes:
            na, fa, va, _ = crashes[0]
            nb, vb = next(((n_, a_.verdict) for n_, f_, a_, _ in answers if f_ == fa), ("", ""))
            found["hard"] = Disagreement(iid, na, nb, va, vb, "hard",
                                         format_em_instance(instance), case_seed)
        for (na, fa, a, _), (nb, fb, b, _) in itertools.combinations(answers, 2):
            if fa != fb or a.yes == b.yes:
                continue   # the same answer: two noes agree, however weak either is
            kind = "statistical" if (b if a.yes else a).error_bound else "hard"
            if kind not in found:
                found[kind] = Disagreement(iid, na, nb, a.verdict, b.verdict, kind,
                                           format_em_instance(instance), case_seed)
        if "hard" in found:
            disagreements.append(found["hard"])
        if "statistical" in found:
            statistical.append(found["statistical"])

        # Detection bookkeeping against exact ground truth, when present.
        truth = next((a.yes for _, f_, a, _ in answers
                      if f_ == "em" and a.error_bound is None), None)
        if truth:
            for name, family, answer, _ in answers:
                if family == "em" and answer.error_bound is not None:
                    yes_total[name] = yes_total.get(name, 0) + 1
                    detected[name] = detected.get(name, 0) + answer.yes

    return CampaignReport(
        instances_run=run,
        agreements=run - len(disagreements),
        disagreements=tuple(disagreements),
        statistical_events=tuple(statistical),
        engine_seconds=tuple(sorted(seconds.items())),
        detection=tuple((name, detected[name], yes_total[name])
                        for name in sorted(yes_total)),
        seed=seed,
        skipped=skipped,
        budget_notes=tuple(notes))


def exhaustive_sweep(
        max_n: int,
        seed: int = 0,
        budget: Optional[EnumerationBudget] = None,
        ) -> CampaignReport:
    """Compare the ENGINES rows brute-em and via-tkpm, both given the
    budget, over the covering stream.

    With a budget, an instance on which either engine exhausts it is skipped
    and recorded in budget_notes (it does not count as run); the default is
    unbudgeted, which always terminates at these sizes.
    """
    cases = ((iid, instance, None) for iid, instance
             in enumerate(exhaustive_instances(max_n, seed)))
    engines = {name: ENGINES[name] for name in ("brute-em", "via-tkpm")}
    return _cross_check(cases, engines, 1, budget, seed)


def randomized_campaign(
        count: int,
        template: GenSpec,
        engines: tuple[str, ...] = ("brute-em", "via-tkpm"),
        trials: int = 1,
        ) -> CampaignReport:
    """Generate count instances from the template (seed advancing by one per
    instance) and cross-check the named engines pairwise within each problem
    family. An engine that raises NotBipartite sits an instance out, and
    one on which that leaves nothing to compare counts as skipped, not
    run. Raises ValueError for a count that is not a non-negative int,
    trials that are not an int of at least 1, an unknown or repeated engine
    name, and when no problem family has two of the named engines, since
    nothing would be compared.

    The detection field reports, for each randomized engine (its EM answers
    carry an error bound), how many yes instances, by the first exact EM
    answer, it answered yes on: the single-run detection rate at trials=1.
    """
    if type(count) is not int:
        raise ValueError(f"count must be an int, got {count!r}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if type(trials) is not int:
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    for i, name in enumerate(engines):
        if name not in ENGINES:
            raise ValueError(f"unknown engine name: {name}")
        if name in engines[:i]:
            raise ValueError(f"repeated engine name: {name}")
    families = [ENGINES[name][0] for name in engines]
    if all(families.count(family) < 2 for family in families):
        raise ValueError("no problem family has two of the named engines to compare")
    specs = (replace(template, seed=template.seed + i) for i in range(count))
    cases = ((i, gen_instance(spec), spec.seed) for i, spec in enumerate(specs))
    return _cross_check(cases, {name: ENGINES[name] for name in engines},
                        trials, None, template.seed)
