"""Differential campaign tests.

The isomorphism-class enumeration is checked against a from-scratch oracle
at n = 4 (all 64 labeled graphs, naive canonicalization over all 24 vertex
relabelings) and by exact pairwise-distinctness plus sampled completeness
at n = 6. The class scan and the instance stream are also checked against
the straightforward versions below, which they must equal exactly.
"""

import itertools
import json
import random
import tracemalloc
from dataclasses import replace

import pytest

import exactmatch.algebraic as algebraic
import exactmatch.campaign as campaign
from exactmatch.algebraic import find_bipartition
from exactmatch.campaign import (
    SWEEP_COLORINGS_CAP,
    SWEEP_N8_GRAPHS,
    Answer,
    CampaignReport,
    Disagreement,
    exhaustive_instances,
    exhaustive_sweep,
    graph_classes_with_pm,
    merge_reports,
    randomized_campaign,
    report_to_json,
)
from exactmatch.engines import EnumerationBudget, brute_em
from exactmatch.formats import format_em_instance, parse_em_instance
from exactmatch.generator import GenSpec, gen_instance
from exactmatch.graphs import (
    BLUE,
    RED,
    ColoredGraph,
    EmInstance,
    TkpmInstance,
    WeightedGraph,
    validate_instance,
)
from exactmatch.reduction import decide_em_via_tkpm


def pairs_of(n):
    return tuple(itertools.combinations(range(n), 2))


def mask_has_pm(n, mask, pairs):
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(pairs):
        if mask >> i & 1:
            adj[u].append(v)
            adj[v].append(u)
    full = (1 << n) - 1

    def extend(covered):
        if covered == full:
            return True
        v = 0
        while covered >> v & 1:
            v += 1
        return any(
            not covered >> w & 1 and extend(covered | 1 << v | 1 << w)
            for w in adj[v])

    return extend(0)


def naive_canon(n, mask, pairs, index):
    best = None
    for perm in itertools.permutations(range(n)):
        acc = 0
        for i, (u, v) in enumerate(pairs):
            if mask >> i & 1:
                acc |= 1 << index[tuple(sorted((perm[u], perm[v])))]
        if best is None or acc < best:
            best = acc
    return best


def edges_to_mask(edges, index):
    mask = 0
    for pair in edges:
        mask |= 1 << index[pair]
    return mask


def assert_canonical_and_ordered(n, reps, pairs, index):
    """Each representative is its class's canonical form (the sweep's
    instance ids depend on it), listed by (edge count, mask)."""
    masks = [edges_to_mask(r, index) for r in reps]
    assert masks == [naive_canon(n, mask, pairs, index) for mask in masks]
    assert masks == sorted(masks, key=lambda m: (bin(m).count("1"), m))
    assert all(r == tuple(sorted(r)) for r in reps)


def reference_graph_classes_with_pm(n):
    """graph_classes_with_pm's orbit scan with one generator sum per
    relabeling."""
    pairs = pairs_of(n)
    index = {p: i for i, p in enumerate(pairs)}
    relabel = [[1 << index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
               for perm in itertools.permutations(range(n))]
    matching = sum(1 << index[(v, v + 1)] for v in range(0, n, 2))
    seen = bytearray(1 << len(pairs))
    classes = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        bits = [i for i in range(len(pairs)) if mask >> i & 1]
        has_pm = False
        for bit_of in relabel:
            image = sum(bit_of[i] for i in bits)
            seen[image] = 1
            has_pm = has_pm or image & matching == matching
        if has_pm:
            classes.append(tuple(pairs[i] for i in bits))
    return tuple(sorted(classes, key=len))


def reference_sampled_pm_graphs(n, count, rng):
    matching = [(v, v + 1) for v in range(0, n, 2)]
    candidates = [p for p in pairs_of(n) if p not in set(matching)]
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


def reference_exhaustive_instances(max_n, seed=0):
    """exhaustive_instances with fresh (u, v, colour) triples per coloring."""
    rng = random.Random(seed)
    for n in range(2, max_n + 1, 2):
        if n <= 6:
            structures = reference_graph_classes_with_pm(n)
        else:
            structures = reference_sampled_pm_graphs(n, SWEEP_N8_GRAPHS, rng)
        for edges in structures:
            for bits in campaign._colorings(len(edges), rng):
                colored = tuple((u, v, RED if bits >> i & 1 else BLUE)
                                for i, (u, v) in enumerate(edges))
                graph = ColoredGraph(n, colored)
                for k in range(n // 2 + 1):
                    yield EmInstance(graph, k)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_classes_equal_the_generator_sum_reference(n):
    assert graph_classes_with_pm(n) == reference_graph_classes_with_pm(n)


@pytest.mark.parametrize("max_n, seed", [(6, 0), (8, 0), (8, 3)])
def test_exhaustive_instances_equal_the_per_edge_reference(max_n, seed):
    pairs = itertools.zip_longest(exhaustive_instances(max_n, seed),
                                  reference_exhaustive_instances(max_n, seed))
    for i, (got, want) in enumerate(pairs):
        assert got == want, f"instance {i}"


def test_exhaustive_instances_share_triples_and_stay_small():
    held = list(exhaustive_instances(6))
    # one structure's colorings pick from its edges' two shared triples
    assert len({id(e) for inst in held for e in inst.graph.edges}) == 2 * sum(
        len(edges) for n in (2, 4, 6) for edges in graph_classes_with_pm(n))
    del held
    tracemalloc.start()
    try:
        held = list(exhaustive_instances(6))
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(held) == 136_456
    assert size < 20 * 2**20, f"{size / 2**20:.1f} MiB"


def test_classes_n2():
    assert graph_classes_with_pm(2) == (((0, 1),),)


def test_classes_n4_match_independent_oracle():
    n = 4
    pairs = pairs_of(n)
    index = {p: i for i, p in enumerate(pairs)}
    oracle_canon = {
        naive_canon(n, mask, pairs, index)
        for mask in range(1 << len(pairs))
        if mask_has_pm(n, mask, pairs)}
    reps = graph_classes_with_pm(n)
    assert len(reps) == 6
    rep_canon = {naive_canon(n, edges_to_mask(r, index), pairs, index) for r in reps}
    assert rep_canon == oracle_canon
    assert_canonical_and_ordered(n, reps, pairs, index)


def test_classes_n6_distinct_and_complete():
    n = 6
    pairs = pairs_of(n)
    index = {p: i for i, p in enumerate(pairs)}
    reps = graph_classes_with_pm(n)
    assert len(reps) == 101
    # every representative actually has a perfect matching
    masks = [edges_to_mask(r, index) for r in reps]
    assert all(mask_has_pm(n, mask, pairs) for mask in masks)
    # pairwise distinct up to isomorphism, exactly
    canon = {naive_canon(n, mask, pairs, index) for mask in masks}
    assert len(canon) == len(reps)
    assert_canonical_and_ordered(n, reps, pairs, index)
    # sampled completeness: random PM-having graphs all land in some class
    rng = random.Random(8)
    found = 0
    while found < 150:
        mask = rng.getrandbits(len(pairs))
        if not mask_has_pm(n, mask, pairs):
            continue
        found += 1
        assert naive_canon(n, mask, pairs, index) in canon


def test_classes_sorted_by_edge_count():
    sizes = [len(r) for r in graph_classes_with_pm(6)]
    assert sizes == sorted(sizes)
    assert sizes[0] == 3      # the bare matching
    assert sizes[-1] == 15    # the complete graph


def test_classes_bad_n():
    with pytest.raises(ValueError):
        graph_classes_with_pm(8)
    with pytest.raises(ValueError):
        graph_classes_with_pm(3)
    with pytest.raises(ValueError):
        graph_classes_with_pm(0)


def test_exhaustive_instances_n2():
    got = list(exhaustive_instances(2))
    assert len(got) == 4
    assert all(validate_instance(inst) is None for inst in got)
    ks = sorted(inst.k for inst in got)
    assert ks == [0, 0, 1, 1]


def test_exhaustive_instances_n4_count_and_determinism():
    got = list(exhaustive_instances(4, seed=0))
    assert len(got) == 424
    again = list(exhaustive_instances(4, seed=0))
    assert got == again


def test_exhaustive_instances_cost_guard():
    with pytest.raises(ValueError, match="at most 8"):
        exhaustive_instances(10)


def test_exhaustive_instances_n6_count():
    assert sum(1 for _ in exhaustive_instances(6)) == 136_456


@pytest.mark.parametrize("max_n", [1, 0, -2])
def test_exhaustive_instances_rejects_empty_sweep(max_n):
    with pytest.raises(ValueError, match="at least 2"):
        exhaustive_instances(max_n)


def test_colorings_all_when_cap_covers_them():
    # up to m = 7 the cap of 128 covers all 2^m colorings, and up to m = 10
    # they are still enumerated whole, in order, without drawing from rng
    for m in range(11):
        rng = random.Random(0)
        state = rng.getstate()
        assert list(campaign._colorings(m, rng)) == list(range(1 << m))
        assert rng.getstate() == state
    assert 1 << 7 == SWEEP_COLORINGS_CAP


def test_colorings_samples_distinct_when_cap_is_below_2_to_the_m():
    for m in (11, 15, 40):
        got = list(campaign._colorings(m, random.Random(4)))
        assert len(got) == len(set(got)) == SWEEP_COLORINGS_CAP
        assert got == sorted(got) and all(0 <= bits < 1 << m for bits in got)
        assert got == list(campaign._colorings(m, random.Random(4)))


def test_exhaustive_instances_cap_above_2_to_the_m_yields_every_coloring():
    # the first 7-edge class at n = 6 has 2^7 colorings, as many as the cap,
    # so the stream yields all of them with every k in 0..3; the first
    # 11-edge class has 2^11, so it yields a sample of cap distinct ones
    for m, colorings in ((7, 1 << 7), (11, SWEEP_COLORINGS_CAP)):
        stream = exhaustive_instances(6)
        first = next(inst for inst in stream if len(inst.graph.edges) == m)
        rest = list(itertools.islice(stream, 4 * colorings - 1))
        structure = [(u, v) for u, v, _ in first.graph.edges]
        assert all([(u, v) for u, v, _ in inst.graph.edges] == structure for inst in rest)
        assert [inst.k for inst in [first] + rest] == [0, 1, 2, 3] * colorings
        assert len({inst.graph.edge_classes for inst in [first] + rest}) == colorings


def test_exhaustive_instances_n8_extends_n6_with_sampled_structures():
    n6, stream, again = exhaustive_instances(6), exhaustive_instances(8), exhaustive_instances(8)
    # zip stops when n6 runs out, before it draws from the other two
    assert all(a == b == c for a, b, c in zip(n6, stream, again))
    tail = list(stream)
    assert tail == list(again)
    assert len(tail) == 181_016 - 136_456
    assert {inst.graph.n for inst in tail} == {8}
    structures = {tuple((u, v) for u, v, _ in inst.graph.edges) for inst in tail}
    assert len(structures) == SWEEP_N8_GRAPHS == 60
    assert all({(0, 1), (2, 3), (4, 5), (6, 7)} <= set(edges) for edges in structures)
    for inst in tail[:2000]:
        assert (brute_em(inst) is not None) == decide_em_via_tkpm(inst), format_em_instance(inst)


def test_every_solver_family_agrees_on_out_of_range_k():
    graphs = [inst.graph for inst in exhaustive_instances(4) if inst.k == 0]
    graphs += [gen_instance(GenSpec(n=6, extra_edges=3, seed=s, bipartite=s % 2 == 0)).graph
               for s in range(20)]
    graphs.append(ColoredGraph(4, ((0, 1, RED), (0, 2, BLUE))))   # no perfect matching
    for graph in graphs:
        for k in (-2, -1, graph.n // 2 + 1, 10**6):
            instance = EmInstance(graph, k)
            for problem in ("em", "cpm", "bcpm"):
                # every row answers here, the algebraic one on any graph
                answers = {
                    engine: solve(instance, 0, 40, None).yes
                    for (family, engine), (_, solve) in campaign.SOLVERS.items()
                    if family == problem}
                assert len(answers) >= 2
                assert len(set(answers.values())) == 1, (
                    problem, answers, format_em_instance(instance))
                if problem == "em":   # no matching has k red edges
                    assert not any(answers.values())


@pytest.mark.parametrize("row", [key for key in campaign.SOLVERS if key[0] != "tkpm"],
                         ids="-".join)
def test_every_colored_solver_rejects_an_unknown_color(row):
    # the tkpm row reads a weighted graph, which has no colors; every other
    # row reads a colored one, and none may take "x" for blue
    instance = EmInstance(ColoredGraph(2, ((1, 0, "x"),)), 0)
    solve = campaign.SOLVERS[row][1]
    with pytest.raises(ValueError, match="unknown color 'x' at edge 0"):
        solve(instance, 0, 1, None)


def test_exhaustive_sweep_n2():
    report = exhaustive_sweep(2)
    assert report.instances_run == 4
    assert report.agreements == 4
    assert report.ok
    assert report.skipped == 0
    assert dict(report.engine_seconds).keys() == {"brute-em", "via-tkpm"}


def test_exhaustive_sweep_n4():
    report = exhaustive_sweep(4)
    assert report.instances_run == 424
    assert report.ok and not report.statistical_events


def test_exhaustive_sweep_budget_skips_are_recorded():
    report = exhaustive_sweep(2, budget=EnumerationBudget(max_nodes=2))
    assert report.instances_run == 0
    assert report.skipped == 4
    assert len(report.budget_notes) == 4
    for note in report.budget_notes:
        assert "skipped" in note
        assert "p em 2 1" in note   # the embedded instance text
    assert not report.disagreements and not report.ok   # nothing was compared


def test_exhaustive_sweep_roomy_budget_completes():
    roomy = EnumerationBudget(max_nodes=10 ** 6)
    report = exhaustive_sweep(2, budget=roomy)
    assert report.instances_run == 4 and report.skipped == 0


def test_exhaustive_sweep_roomy_budget_matches_unbudgeted():
    roomy = EnumerationBudget(max_nodes=10 ** 6)
    budgeted, plain = exhaustive_sweep(4, budget=roomy), exhaustive_sweep(4)
    assert replace(budgeted, engine_seconds=()) == replace(plain, engine_seconds=())


def test_budgeted_gadget_decision_stops_at_first_hit():
    # both perfect matchings of the all-blue C4 reach the threshold at
    # k = 0: the first hit places 10 gadget edges, the full gadget
    # enumeration 20, so a 10-edge cap suffices
    c4 = ColoredGraph(4, ((0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
    assert decide_em_via_tkpm(EmInstance(c4, 0), EnumerationBudget(max_nodes=10))


def test_exhaustive_sweep_reports_replayable_hard_disagreements(monkeypatch):
    monkeypatch.setattr(campaign, "decide_em_via_tkpm", lambda inst, budget=None: True)
    report = exhaustive_sweep(2)
    stream = list(exhaustive_instances(2))
    assert report.instances_run == len(stream) == 4
    assert report.disagreements and not report.statistical_events
    assert report.agreements == report.instances_run - len(report.disagreements)
    for d in report.disagreements:
        assert (d.kind, d.engine_a, d.engine_b) == ("hard", "brute-em", "via-tkpm")
        assert (d.verdict_a, d.verdict_b) == ("no", "yes")
        assert d.seed is None
        instance = parse_em_instance(d.instance_text)
        assert instance == stream[d.instance_id]
        assert brute_em(instance) is None


def test_report_invariant_enforced():
    with pytest.raises(ValueError, match="must equal instances run"):
        CampaignReport(
            instances_run=2, agreements=0, disagreements=(),
            statistical_events=(), engine_seconds=(), detection=(), seed=0)


def sample_disagreement(iid, kind="hard", seed=None):
    return Disagreement(
        instance_id=iid, engine_a="brute-em", engine_b="via-tkpm",
        verdict_a="yes", verdict_b="no", kind=kind,
        instance_text="p em 2 1 1\ne 0 1 r\n", seed=seed)


def test_report_to_json_stable_and_sorted():
    report = CampaignReport(
        instances_run=3, agreements=2,
        disagreements=(sample_disagreement(7, seed=3),),
        statistical_events=(sample_disagreement(2, kind="statistical"),),
        engine_seconds=(("via-tkpm", 0.1234567), ("brute-em", 0.5)),
        detection=(("algebraic", 4, 5),),
        seed=11)
    doc = json.loads(report_to_json(report))
    assert list(doc) == [
        "instances_run", "agreements", "disagreements", "statistical_events",
        "engine_seconds", "detection", "seed", "skipped", "budget_notes"]
    assert doc["engine_seconds"] == {"brute-em": 0.5, "via-tkpm": 0.123457}
    assert doc["disagreements"][0]["instance_id"] == 7
    assert doc["disagreements"][0]["seed"] == 3
    assert "seed" not in doc["statistical_events"][0]
    assert doc["detection"] == [{"engine": "algebraic", "detected": 4, "yes_total": 5}]
    assert report_to_json(report) == report_to_json(report)


def test_merge_reports_shifts_instance_ids():
    r1 = CampaignReport(
        instances_run=3, agreements=2, disagreements=(sample_disagreement(2),),
        statistical_events=(), engine_seconds=(("brute-em", 1.0),),
        detection=(("algebraic", 1, 2),), seed=0, skipped=1)
    r2 = CampaignReport(
        instances_run=2, agreements=1, disagreements=(sample_disagreement(0),),
        statistical_events=(), engine_seconds=(("brute-em", 0.5),),
        detection=(("algebraic", 2, 2),), seed=1)
    merged = merge_reports([r1, r2], seed=42)
    assert merged.instances_run == 5
    assert merged.agreements == 3
    assert merged.skipped == 1
    assert [d.instance_id for d in merged.disagreements] == [2, 4]
    assert dict(merged.engine_seconds) == {"brute-em": 1.5}
    assert merged.detection == (("algebraic", 3, 4),)
    assert merged.seed == 42


def test_merge_reports_shifts_the_ids_of_skip_notes():
    # every n=4 graph with five edges has a triangle, so algebraic sits each
    # instance out and brute-em has no engine to compare with: all six of
    # each campaign are skipped, with notes numbered 0..5
    reports = [randomized_campaign(6, GenSpec(n=4, extra_edges=3, seed=seed),
                                   engines=("brute-em", "algebraic"))
               for seed in (23, 29)]
    merged = merge_reports(reports, seed=0)
    assert merged.skipped == 12
    heads, tails = zip(*(note.split(":", 1) for note in merged.budget_notes))
    assert heads == tuple(f"instance {iid}" for iid in range(12))
    assert list(tails) == [note.split(":", 1)[1]
                           for report in reports for note in report.budget_notes]


def test_randomized_campaign_zero_instances():
    report = randomized_campaign(0, GenSpec(n=4))
    assert report.instances_run == 0 and not report.ok
    assert report.statistical_events == ()


def test_randomized_campaign_validates_inputs():
    with pytest.raises(ValueError, match="nonnegative"):
        randomized_campaign(-1, GenSpec(n=4))
    with pytest.raises(ValueError, match="unknown engine"):
        randomized_campaign(1, GenSpec(n=4), engines=("brute-em", "nope"))


def test_randomized_campaign_brute_vs_gadget():
    report = randomized_campaign(200, GenSpec(n=4, extra_edges=2, seed=9))
    assert report.instances_run == 200
    assert report.ok
    assert not report.statistical_events
    assert dict(report.engine_seconds).keys() == {"brute-em", "via-tkpm"}


def test_randomized_campaign_three_engines_bipartite():
    template = GenSpec(n=6, extra_edges=3, seed=17, bipartite=True)
    report = randomized_campaign(
        120, template, engines=("brute-em", "via-tkpm", "algebraic"), trials=1)
    assert report.instances_run == 120
    assert not report.disagreements          # hard conflicts are impossible
    for event in report.statistical_events:  # one-sided misses may occur
        assert event.kind == "statistical"
        assert "probably-no" in (event.verdict_a, event.verdict_b)
    detection = dict((name, (det, tot)) for name, det, tot in report.detection)
    assert "algebraic" in detection
    det, tot = detection["algebraic"]
    assert 0 < tot and 0 <= det <= tot


def test_randomized_campaign_skips_algebraic_on_non_bipartite():
    template = GenSpec(n=4, extra_edges=3, seed=23)
    report = randomized_campaign(
        80, template, engines=("brute-em", "algebraic"), trials=2)
    # an instance the algebraic engine sits out leaves brute-em alone, so
    # nothing is compared on it and it counts as skipped, not run
    assert report.instances_run + report.skipped == 80
    assert report.skipped > 0
    assert len(report.budget_notes) == report.skipped
    assert not report.disagreements
    assert report.ok == (report.instances_run > 0)


def test_randomized_campaign_cpm_family():
    template = GenSpec(n=6, extra_edges=4, seed=29)
    report = randomized_campaign(
        100, template, engines=("brute-cpm", "cpm-via-em"))
    assert report.ok and not report.statistical_events


def test_randomized_campaign_families_do_not_cross():
    template = GenSpec(n=4, extra_edges=2, seed=31)
    report = randomized_campaign(
        60, template, engines=("brute-em", "via-tkpm", "brute-cpm"))
    assert report.ok   # em and cpm verdicts differ but are never compared


@pytest.mark.parametrize("engines", [
    (), ("brute-em",), ("brute-em", "brute-cpm"), ("brute-em", "brute-em"),
    ("brute-em", "via-tkpm", "brute-em")])
def test_randomized_campaign_rejects_engine_sets_that_compare_nothing(engines):
    with pytest.raises(ValueError, match="repeated engine name|no problem family"):
        randomized_campaign(5, GenSpec(n=4), engines=engines)


def test_randomized_campaign_reports_rigged_hard_disagreements(monkeypatch):
    monkeypatch.setitem(
        campaign.ENGINES, "always-yes",
        ("em", lambda inst, seed, trials, budget: Answer(True)))
    template = GenSpec(n=4, extra_edges=2, seed=37)
    report = randomized_campaign(60, template, engines=("brute-em", "always-yes"))
    assert report.disagreements
    assert report.agreements + len(report.disagreements) == 60
    for d in report.disagreements:
        assert d.kind == "hard"
        assert (d.verdict_a, d.verdict_b) == ("no", "yes")
        # replay from the embedded text reproduces the brute verdict
        replayed = parse_em_instance(d.instance_text)
        assert brute_em(replayed) is None
        assert d.seed == template.seed + d.instance_id


def test_randomized_campaign_reports_crashing_engines_and_goes_on(monkeypatch):
    brute = campaign.ENGINES["brute-em"][1]

    def crash_on_odd_k(inst, seed, trials, budget):
        if inst.k % 2:
            raise IndexError("planted fault")
        return brute(inst, seed, trials, budget)

    monkeypatch.setitem(campaign.ENGINES, "crasher", ("em", crash_on_odd_k))
    template = GenSpec(n=4, extra_edges=2, seed=37)
    report = randomized_campaign(60, template, engines=("crasher", "brute-em"))
    odd = {i for i in range(60) if gen_instance(replace(template, seed=template.seed + i)).k % 2}
    assert 0 < len(odd) < 60
    assert report.instances_run == 60 and report.skipped == 0
    assert report.agreements == 60 - len(odd)
    assert {d.instance_id for d in report.disagreements} == odd
    assert dict(report.engine_seconds).keys() == {"crasher", "brute-em"}
    for d in report.disagreements:
        assert (d.kind, d.engine_a, d.engine_b) == ("hard", "crasher", "brute-em")
        replayed = parse_em_instance(d.instance_text)
        assert replayed.k % 2
        assert d.verdict_a == "raised IndexError"
        assert d.verdict_b == ("yes" if brute_em(replayed) is not None else "no")
        assert d.seed == template.seed + d.instance_id


def test_exhaustive_sweep_reports_crashing_engines(monkeypatch):
    def crash(inst, budget=None):
        raise ZeroDivisionError

    monkeypatch.setattr(campaign, "decide_em_via_tkpm", crash)
    report = exhaustive_sweep(2)
    stream = list(exhaustive_instances(2))
    assert report.instances_run == len(report.disagreements) == 4
    for d in report.disagreements:
        assert (d.engine_a, d.verdict_a, d.engine_b) == (
            "via-tkpm", "raised ZeroDivisionError", "brute-em")
        assert parse_em_instance(d.instance_text) == stream[d.instance_id]
    # with no engine of the family left to answer, the other side is empty
    monkeypatch.setattr(campaign, "brute_em", crash)
    report = exhaustive_sweep(2)
    assert report.instances_run == len(report.disagreements) == 4
    assert {(d.engine_a, d.verdict_a, d.engine_b, d.verdict_b)
            for d in report.disagreements} == {("brute-em", "raised ZeroDivisionError", "", "")}


@pytest.mark.parametrize("trials", [0, -1])
def test_randomized_campaign_rejects_trials_below_one(trials):
    with pytest.raises(ValueError, match="trials must be positive"):
        randomized_campaign(5, GenSpec(n=4), trials=trials)


@pytest.mark.parametrize("count, trials, message", [
    (3, 1.5, "trials must be an int, got 1.5"),
    (3, True, "trials must be an int, got True"),
    (2.5, 1, "count must be an int, got 2.5"),
    (True, 1, "count must be an int, got True"),
])
def test_randomized_campaign_rejects_arguments_that_are_not_ints(count, trials, message):
    # trials=1.5 used to surface as a hard disagreement, "algebraic=raised
    # TypeError", and count=True ran one instance
    with pytest.raises(ValueError, match=message):
        randomized_campaign(count, GenSpec(n=4, extra_edges=1),
                            engines=("brute-em", "algebraic"), trials=trials)


@pytest.mark.parametrize("max_n", [4.0, True])
def test_exhaustive_instances_rejects_a_max_n_that_is_not_an_int(max_n):
    with pytest.raises(ValueError, match=f"max_n must be an int, got {max_n!r}"):
        exhaustive_instances(max_n)


def test_randomized_campaign_rigged_statistical_events(monkeypatch):
    monkeypatch.setitem(
        campaign.ENGINES, "hedger",
        ("em", lambda inst, seed, trials, budget: Answer(False, error_bound=0.5)))
    template = GenSpec(n=4, extra_edges=2, seed=41)
    report = randomized_campaign(60, template, engines=("brute-em", "hedger"))
    assert not report.disagreements
    assert report.statistical_events
    assert all(e.kind == "statistical" for e in report.statistical_events)
    # instances where brute also said no count as plain agreements
    assert len(report.statistical_events) < 60


def test_randomized_campaign_is_replayable():
    template = GenSpec(n=6, extra_edges=2, seed=43)
    a = randomized_campaign(50, template, engines=("brute-em", "via-tkpm"))
    b = randomized_campaign(50, template, engines=("brute-em", "via-tkpm"))
    assert a.instances_run == b.instances_run
    assert a.disagreements == b.disagreements
    assert a.detection == b.detection


def test_algebraic_no_after_many_trials_is_not_exact():
    k2_red = parse_em_instance("p em 2 1 0\ne 0 1 r\n")
    assert campaign.ENGINES["algebraic"][1](k2_red, 0, 1100, None).verdict == "probably-no"


def test_every_solver_row_bounds_every_answer_or_none():
    # the contract detection reads: an exact row never gives a bound, and a
    # randomized row gives one on every answer, 0.0 on a certified yes
    k2_red = ColoredGraph(2, ((0, 1, RED),))
    path = WeightedGraph(4, ((0, 1, 5), (1, 2, 1), (2, 3, 4)))
    star = WeightedGraph(4, ((0, 1, 5), (0, 2, 1)))     # no perfect matching
    for (problem, engine), (_, solve) in campaign.SOLVERS.items():
        if problem == "tkpm":
            yes, no = TkpmInstance(path, 1), TkpmInstance(star, 1)
        else:
            yes, no = EmInstance(k2_red, 1), EmInstance(k2_red, 0)
        a, b = solve(yes, 0, 40, None), solve(no, 0, 40, None)
        assert (a.yes, b.yes) == (True, False), (problem, engine)
        if engine == "algebraic":
            assert a.error_bound == 0.0 and b.error_bound == 2.0 ** -40
        else:
            assert a.error_bound is None and b.error_bound is None, (problem, engine)


def test_detection_counts_bounded_answers_against_the_first_unbounded_one(monkeypatch):
    brute = campaign.ENGINES["brute-em"][1]

    def bounded(inst, seed, trials, budget):
        # brute-em's verdicts, each carrying a bound as a randomized engine's do
        answer = brute(inst, seed, trials, budget)
        return answer._replace(error_bound=0.0 if answer.yes else 0.5)

    monkeypatch.setitem(campaign.ENGINES, "bounded", ("em", bounded))
    monkeypatch.setitem(campaign.ENGINES, "always-yes",
                        ("em", lambda inst, seed, trials, budget: Answer(True)))
    template = GenSpec(n=4, extra_edges=2, seed=37)
    yes = sum(brute_em(gen_instance(replace(template, seed=template.seed + i))) is not None
              for i in range(60))
    assert 0 < yes < 60
    report = randomized_campaign(60, template, engines=("brute-em", "bounded"))
    assert report.ok and not report.statistical_events
    assert report.detection == (("bounded", yes, yes),)
    # an unbounded stub is the truth, whatever it says: here every instance is a yes
    report = randomized_campaign(60, template, engines=("always-yes", "bounded"))
    assert report.ok and len(report.statistical_events) == 60 - yes
    assert report.detection == (("bounded", yes, 60),)
    # with no bounded engine there is nothing to detect
    report = randomized_campaign(60, template, engines=("always-yes", "brute-em"))
    assert report.detection == ()


def test_an_algebraic_row_that_drops_its_bound_turns_misses_hard(monkeypatch):
    # every draw zero: every trial misses, so each yes instance is a miss
    monkeypatch.setattr(algebraic, "_draw", lambda rng, m: (0,) * m)
    template = GenSpec(n=6, extra_edges=3, seed=17, bipartite=True)
    engines = ("brute-em", "algebraic")
    honest = randomized_campaign(40, template, engines=engines, trials=1)
    misses = {e.instance_id for e in honest.statistical_events}
    assert misses and not honest.disagreements
    assert honest.detection == (("algebraic", 0, len(misses)),)
    row = campaign.ENGINES["algebraic"][1]
    monkeypatch.setitem(campaign.ENGINES, "algebraic", (
        "em", lambda inst, seed, trials, budget:
        row(inst, seed, trials, budget)._replace(error_bound=None)))
    mutant = randomized_campaign(40, template, engines=engines, trials=1)
    assert not mutant.statistical_events
    assert {d.instance_id for d in mutant.disagreements} == misses
    assert all(d.kind == "hard" for d in mutant.disagreements)


def test_the_campaign_looks_for_each_bipartition_once(monkeypatch):
    graphs = []

    def counted(graph):
        graphs.append(graph)
        return find_bipartition(graph)

    monkeypatch.setattr(campaign, "find_bipartition", counted)
    monkeypatch.setattr(algebraic, "find_bipartition", counted)
    template = GenSpec(n=4, extra_edges=2, seed=3)
    report = randomized_campaign(60, template, engines=("brute-em", "algebraic"))
    bipartite = sum(find_bipartition(graph) is not None for graph in graphs)
    assert 0 < bipartite < 60   # a mixed stream
    assert len(graphs) == 60
    # the algebraic engine sits out the odd cycles, leaving nothing to compare
    assert (report.instances_run, report.skipped) == (bipartite, 60 - bipartite)
