"""Differential campaign tests.

The isomorphism-class enumeration is checked against a from-scratch oracle
at n = 4 (all 64 labeled graphs, naive canonicalization over all 24 vertex
relabelings) and by exact pairwise-distinctness plus sampled completeness
at n = 6.
"""

import itertools
import json
import random
from dataclasses import replace

import pytest

import exactmatch.campaign as campaign
from exactmatch.campaign import (
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
from exactmatch.formats import parse_em_instance
from exactmatch.generator import GenSpec
from exactmatch.graphs import BLUE, ColoredGraph, EmInstance, validate_instance
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
        list(exhaustive_instances(10))


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
    assert report.ok


def test_exhaustive_sweep_roomy_budget_completes():
    roomy = EnumerationBudget(max_matchings=10 ** 6, max_nodes=10 ** 6)
    report = exhaustive_sweep(2, budget=roomy)
    assert report.instances_run == 4 and report.skipped == 0


def test_exhaustive_sweep_roomy_budget_matches_unbudgeted():
    roomy = EnumerationBudget(max_matchings=10 ** 6, max_nodes=10 ** 6)
    budgeted, plain = exhaustive_sweep(4, budget=roomy), exhaustive_sweep(4)
    assert replace(budgeted, engine_seconds=()) == replace(plain, engine_seconds=())


def test_budgeted_gadget_decision_stops_at_first_hit():
    # both perfect matchings of the all-blue C4 reach the threshold at
    # k = 0, so a one-matching budget suffices
    c4 = ColoredGraph(4, ((0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
    assert decide_em_via_tkpm(EmInstance(c4, 0), EnumerationBudget(max_matchings=1))


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


def test_randomized_campaign_zero_instances():
    report = randomized_campaign(0, GenSpec(n=4))
    assert report.instances_run == 0 and report.ok
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
    assert report.instances_run == 80
    assert not report.disagreements


def test_randomized_campaign_cpm_family():
    template = GenSpec(n=6, extra_edges=4, seed=29)
    report = randomized_campaign(
        100, template, engines=("brute-cpm", "cpm-via-em"))
    assert report.ok and not report.statistical_events


def test_randomized_campaign_families_do_not_cross():
    template = GenSpec(n=4, extra_edges=2, seed=31)
    report = randomized_campaign(
        60, template, engines=("brute-em", "brute-cpm"))
    assert report.ok   # em and cpm verdicts differ but are never compared


def test_randomized_campaign_reports_rigged_hard_disagreements(monkeypatch):
    monkeypatch.setitem(
        campaign.ENGINES, "always-yes",
        ("em", False, lambda inst, seed, trials: ("yes", True)))
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


def test_randomized_campaign_rigged_statistical_events(monkeypatch):
    monkeypatch.setitem(
        campaign.ENGINES, "hedger",
        ("em", False, lambda inst, seed, trials: ("probably-no", False)))
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
    assert campaign.ENGINES["algebraic"][2](k2_red, 0, 1100) == ("probably-no", False)
