"""End-to-end acceptance checks.

Each test is one acceptance criterion, so `pytest -v` shows one pass/fail
line per criterion; each also prints a one-line summary with its metrics.
The exhaustive stream (every graph isomorphism class with a perfect
matching up to 6 vertices, crossed with edge colorings and every feasible
k) and the seeded random batches are shared across criteria by
reconstruction, never by trusting intermediate state.
"""

import time
from dataclasses import replace

from exactmatch.algebraic import (
    algebraic_em_decide,
    bcpm_via_em,
    cpm_via_em,
    find_bipartition,
    sample_isolation_weights,
    symbolic_determinant,
)
from exactmatch.campaign import (
    exhaustive_instances,
    exhaustive_sweep,
    randomized_campaign,
)
from exactmatch.engines import (
    brute_bcpm,
    brute_cpm,
    brute_em,
    enumerate_perfect_matchings,
)
from exactmatch.generator import GenSpec, gen_instance
from exactmatch.graphs import RED, ColoredGraph, EmInstance, red_count
from exactmatch.reduction import gadgetize, lift_matching, lifted_value, project_matching

from test_algebraic import enumeration_polynomial

# Seeded random batches used by criterion 1 and re-derived by criterion 4.
RANDOM_TEMPLATES = (
    GenSpec(n=2, extra_edges=0, seed=100),
    GenSpec(n=4, extra_edges=2, seed=200),
    GenSpec(n=6, extra_edges=6, seed=300),
    GenSpec(n=8, extra_edges=10, seed=400),
)
RANDOM_SHARE = 2500


def iter_random_em_instances():
    for template in RANDOM_TEMPLATES:
        for i in range(RANDOM_SHARE):
            yield gen_instance(replace(template, seed=template.seed + i))


def pms_per_instance(max_n):
    """Stream (instance, perfect matchings) pairs over the exhaustive set,
    enumerating each graph's matchings once across its k values."""
    cached_graph = None
    cached_pms = None
    for instance in exhaustive_instances(max_n):
        if instance.graph is not cached_graph:
            cached_graph = instance.graph
            cached_pms = list(enumerate_perfect_matchings(cached_graph))
        yield instance, cached_pms


def test_criterion_1_brute_vs_gadget_equivalence():
    t0 = time.perf_counter()
    sweep = exhaustive_sweep(6)
    assert sweep.skipped == 0
    random_reports = [randomized_campaign(RANDOM_SHARE, template)
                      for template in RANDOM_TEMPLATES]
    elapsed = time.perf_counter() - t0
    total_random = sum(r.instances_run for r in random_reports)
    assert sweep.instances_run >= 100_000
    assert total_random >= 10_000
    assert sweep.disagreements == ()
    for report in random_reports:
        assert report.disagreements == ()
    assert elapsed < 300.0
    print(f"criterion 1 PASS: {sweep.instances_run} exhaustive + "
          f"{total_random} random comparisons, 0 disagreements, {elapsed:.1f}s")


def test_criterion_2_lifted_values_match_closed_forms():
    instances = 0
    matchings = 0
    for instance, pms in pms_per_instance(6):
        instances += 1
        g = instance.graph
        reds = g.num_red
        k = instance.k
        _, gm = gadgetize(instance)
        for m in pms:
            matchings += 1
            r = red_count(g, m)
            value = lifted_value(gm, m)
            if r >= k:
                assert value == 4 * reds - r + 2 * k
            if r == k:
                assert value == gm.threshold
            else:
                assert value < gm.threshold
    assert instances >= 100_000
    print(f"criterion 2 PASS: {matchings} lifted values over {instances} "
          f"instances, all exact")


def test_criterion_3_matching_bijection_on_small_sources():
    instances = 0
    pairs = 0
    for instance, source_pms in pms_per_instance(4):
        instances += 1
        gadget, gm = gadgetize(instance)
        gadget_pms = list(enumerate_perfect_matchings(gadget.graph))
        assert len(gadget_pms) == len(source_pms)
        m = len(instance.graph.edges)
        ek = set(range(5 * m, 5 * m + instance.k))
        for m in source_pms:
            lifted = lift_matching(m, gm)
            assert project_matching(lifted, gm) == m
            pairs += 1
        for gpm in gadget_pms:
            assert ek <= set(gpm)
            assert lift_matching(project_matching(gpm, gm), gm) == gpm
            pairs += 1
    print(f"criterion 3 PASS: bijection verified on {instances} sources, "
          f"{pairs} matching round trips")


def test_criterion_4_gadget_shape_invariants():
    def check(instance):
        n, m = instance.graph.n, len(instance.graph.edges)
        reds = instance.graph.num_red
        gadget, gm = gadgetize(instance)
        assert gadget.graph.n == n + 4 * m + 2 * instance.k
        assert len(gadget.graph.edges) == 5 * m + instance.k
        assert gadget.k == 2 * reds
        assert gm.threshold == 4 * reds + instance.k
        assert set(gadget.graph.weights) <= {0, 2, 3}

    count = 0
    for instance in exhaustive_instances(6):
        check(instance)
        count += 1
    for instance in iter_random_em_instances():
        check(instance)
        count += 1
    print(f"criterion 4 PASS: shape formulas hold on {count} gadgets")


def test_criterion_5_algebraic_never_yes_on_no_instances():
    checked = 0
    violations = []
    for size_index, n in enumerate((2, 4, 6, 8)):
        cap = min(n + 2, GenSpec(n=n, bipartite=True).max_extra_edges())
        for i in range(2500):
            inst = gen_instance(GenSpec(n=n, extra_edges=cap, seed=7000 + i,
                                        bipartite=True, red_prob=0.5))
            checked += 1
            decision = algebraic_em_decide(inst, trials=1, seed=size_index * 2500 + i)
            if decision.answer and brute_em(inst) is None:
                violations.append(inst)
    assert checked >= 10_000
    assert violations == []
    print(f"criterion 5 PASS: {checked} bipartite instances, "
          f"0 unsound yes answers")


def test_criterion_6_detection_rates():
    yes_instances = []
    draw = 0
    for n in (4, 6, 8, 10):
        cap = min(n, GenSpec(n=n, bipartite=True).max_extra_edges())
        for i in range(750):
            inst = gen_instance(GenSpec(n=n, extra_edges=cap, seed=9000 + i,
                                        bipartite=True))
            draw += 1
            if brute_em(inst) is not None:
                yes_instances.append(inst)
    assert len(yes_instances) >= 1000
    single = sum(
        1 for idx, inst in enumerate(yes_instances)
        if algebraic_em_decide(inst, trials=1, seed=idx).answer)
    ten = sum(
        1 for idx, inst in enumerate(yes_instances)
        if algebraic_em_decide(inst, trials=10, seed=31 * idx + 7).answer)
    single_rate = single / len(yes_instances)
    ten_rate = ten / len(yes_instances)
    assert single_rate >= 0.45
    assert ten_rate >= 0.999
    print(f"criterion 6 PASS: {len(yes_instances)} yes instances, "
          f"single-trial detection {single_rate:.3f}, "
          f"10-trial detection {ten_rate:.4f}")


def thinned(graph, seed):
    """Drop one edge to mix graphs without perfect matchings into the
    criterion 7 sample."""
    drop = seed % len(graph.edges)
    return ColoredGraph(graph.n, tuple(
        e for i, e in enumerate(graph.edges) if i != drop))


def test_criterion_7_determinant_equals_enumeration_sum():
    checked = 0
    seed = 0
    while checked < 220:
        seed += 1
        n = (2, 4, 6, 8)[seed % 4]
        cap = min(n, GenSpec(n=n, bipartite=True).max_extra_edges())
        graph = gen_instance(GenSpec(n=n, extra_edges=cap, seed=seed,
                                     bipartite=True, red_prob=0.4)).graph
        if seed % 4 == 0:
            graph = thinned(graph, seed)
        sides = find_bipartition(graph)
        if sides is None or 2 * sum(sides) != graph.n or not graph.edges:
            continue
        weights = sample_isolation_weights(len(graph.edges), seed)
        assert symbolic_determinant(graph, sides, weights) == \
            enumeration_polynomial(graph, sides, weights)
        checked += 1
    print(f"criterion 7 PASS: determinant identity exact on {checked} "
          f"bipartite graphs")


def test_criterion_8_parity_solvers_agree():
    instances = 0
    for instance in exhaustive_instances(6):
        instances += 1
        brute_yes = brute_cpm(instance) is not None
        via_yes = cpm_via_em(instance).answer
        assert brute_yes == via_yes
    assert instances >= 100_000
    # bounded variant: parity alone would accept, the r <= k bound rejects
    three_red = ColoredGraph(6, ((0, 1, RED), (2, 3, RED), (4, 5, RED)))
    bounded = EmInstance(three_red, 1)
    assert brute_cpm(bounded) == (0, 1, 2)
    assert brute_bcpm(bounded) is None
    assert not bcpm_via_em(bounded).answer
    assert bcpm_via_em(EmInstance(three_red, 3)).answer
    print(f"criterion 8 PASS: parity solvers agree on {instances} instances, "
          f"bounded rejection exercised")
