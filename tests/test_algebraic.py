"""Randomized algebraic decider tests.

The determinant identity is checked against an enumeration-side oracle:
sum over perfect matchings of sign(M) * 2^w(M) * y^r(M), with the sign
computed from permutation inversions, independently of the elimination
code under test.
"""

import math
import random
from collections import Counter

import pytest

from exactmatch.algebraic import (
    DEFAULT_TRIALS,
    Bipartition,
    EmDecision,
    ParityDecision,
    algebraic_em_decide,
    bcpm_via_em,
    cpm_via_em,
    find_bipartition,
    sample_isolation_weights,
    symbolic_determinant,
    yes_and_error,
)
from exactmatch.engines import brute_em, enumerate_perfect_matchings
from exactmatch.generator import GenSpec, gen_instance
from exactmatch.graphs import BLUE, RED, ColoredGraph, EmInstance
from exactmatch.polynomials import Polynomial

C4 = ColoredGraph(4, ((0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
K2_RED = ColoredGraph(2, ((0, 1, RED),))
# perfect matchings {0, 2} with two red edges and {1, 3} with none
C4_RED_02 = ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, RED), (0, 3, BLUE)))
TRIANGLE = ColoredGraph(3, ((0, 1, BLUE), (0, 2, BLUE), (1, 2, BLUE)))


def perm_sign(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def enumeration_polynomial(graph, bipartition, weights):
    row = {v: i for i, v in enumerate(bipartition.left)}
    col = {v: j for j, v in enumerate(bipartition.right)}
    total = Polynomial.zero()
    for matching in enumerate_perfect_matchings(graph):
        perm = [0] * len(bipartition.left)
        wsum = 0
        reds = 0
        for eid in matching:
            u, v, color = graph.edges[eid]
            lu, rv = (u, v) if bipartition.sides[u] == 0 else (v, u)
            perm[row[lu]] = col[rv]
            wsum += weights[eid]
            reds += color == RED
        total = total + Polynomial.monomial(perm_sign(perm) * 2 ** wsum, reds)
    return total


def test_find_bipartition_c4():
    bp = find_bipartition(C4)
    assert bp is not None
    assert bp.sides == (0, 1, 0, 1)
    assert bp.left == (0, 2) and bp.right == (1, 3)
    assert bp.is_balanced


def test_find_bipartition_triangle():
    assert find_bipartition(TRIANGLE) is None


def test_find_bipartition_self_loop_is_odd_cycle():
    assert find_bipartition(ColoredGraph(2, ((0, 1, RED), (1, 1, BLUE)))) is None


def test_find_bipartition_two_components_and_isolated():
    g = ColoredGraph(5, ((0, 1, BLUE), (2, 3, BLUE)))
    bp = find_bipartition(g)
    assert bp is not None
    for u, v, _ in g.edges:
        assert bp.sides[u] != bp.sides[v]
    assert bp.sides[4] == 0  # isolated vertices go left


def test_find_bipartition_every_edge_crosses():
    rng = random.Random(41)
    for seed in range(30):
        inst = gen_instance(GenSpec(n=8, extra_edges=rng.randint(0, 8),
                                    seed=seed, bipartite=True))
        bp = find_bipartition(inst.graph)
        assert bp is not None
        for u, v, _ in inst.graph.edges:
            assert bp.sides[u] != bp.sides[v]


def test_weights_single_edge_range():
    seen = {sample_isolation_weights(1, seed)[0] for seed in range(40)}
    assert seen == {1, 2}


def test_weights_deterministic_per_seed():
    assert sample_isolation_weights(6, 123) == sample_isolation_weights(6, 123)
    assert sample_isolation_weights(6, 123) != sample_isolation_weights(6, 124)


def test_weights_distribution_m5():
    rng = random.Random(0)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        counts.update(sample_isolation_weights(5, rng))
    total = draws * 5
    for value in range(1, 11):
        assert abs(counts[value] / total - 0.1) < 0.02
    assert set(counts) == set(range(1, 11))


def test_weights_need_an_edge():
    with pytest.raises(ValueError):
        sample_isolation_weights(0)


def test_symbolic_determinant_single_red_edge():
    bp = find_bipartition(K2_RED)
    assert symbolic_determinant(K2_RED, bp, (1,)) == Polynomial([0, 2])


def test_symbolic_determinant_single_blue_edge():
    g = ColoredGraph(2, ((0, 1, BLUE),))
    bp = find_bipartition(g)
    assert symbolic_determinant(g, bp, (2,)) == Polynomial([4])


def test_symbolic_determinant_adds_parallel_edges():
    # both edges of the pair are perfect matchings of K2, one red, one blue
    g = ColoredGraph(2, ((0, 1, RED), (0, 1, BLUE)))
    bp = find_bipartition(g)
    assert symbolic_determinant(g, bp, (1, 2)) == Polynomial([4, 2])


def test_symbolic_determinant_no_pm_is_zero():
    g = ColoredGraph(4, ((0, 1, BLUE), (0, 3, BLUE)))
    bp = find_bipartition(g)
    assert bp.is_balanced
    assert symbolic_determinant(g, bp, (1, 1)) == Polynomial.zero()


def test_symbolic_determinant_unbalanced_rejected():
    g = ColoredGraph(3, ((0, 1, BLUE), (0, 2, BLUE)))
    bp = find_bipartition(g)
    with pytest.raises(ValueError, match="differ in size"):
        symbolic_determinant(g, bp, (1, 1))


def test_symbolic_determinant_weight_count_checked():
    bp = find_bipartition(K2_RED)
    with pytest.raises(ValueError, match="one weight per edge"):
        symbolic_determinant(K2_RED, bp, (1, 2))


def test_symbolic_determinant_matches_enumeration():
    rng = random.Random(42)
    for seed in range(60):
        n = rng.choice([2, 4, 6])
        cap = min(n, GenSpec(n=n, bipartite=True).max_extra_edges())
        inst = gen_instance(GenSpec(n=n, extra_edges=rng.randint(0, cap),
                                    seed=seed, bipartite=True))
        g = inst.graph
        bp = find_bipartition(g)
        weights = sample_isolation_weights(len(g.edges), rng)
        assert symbolic_determinant(g, bp, weights) == \
            enumeration_polynomial(g, bp, weights)


def test_symbolic_determinant_degree_bounds():
    rng = random.Random(43)
    for seed in range(40):
        inst = gen_instance(GenSpec(n=6, extra_edges=rng.randint(0, 6),
                                    seed=seed, bipartite=True, red_prob=0.7))
        g = inst.graph
        det = symbolic_determinant(g, find_bipartition(g),
                                   sample_isolation_weights(len(g.edges), rng))
        assert det.degree <= g.num_red
        assert det.degree <= g.n // 2


def test_cancellation_zero_determinant_with_matchings_present():
    # both perfect matchings of the all-blue C4 have weight sum 2 and
    # opposite sign, so this draw cancels to the zero polynomial
    bp = find_bipartition(C4)
    det = symbolic_determinant(C4, bp, (1, 1, 1, 1))
    assert det == Polynomial.zero()
    # only the sound direction holds: the graph does have perfect matchings
    assert len(list(enumerate_perfect_matchings(C4))) == 2


def test_algebraic_decide_yes_is_certified():
    decision = algebraic_em_decide(EmInstance(K2_RED, 1), trials=5, seed=0)
    assert decision.answer is True
    assert decision.error_bound == 0.0
    assert decision.trials_run == 1
    assert len(decision.transcript) == 1
    assert decision.transcript[0][1] is True
    assert bool(decision)


def test_algebraic_decide_no_reports_error_bound():
    decision = algebraic_em_decide(EmInstance(K2_RED, 0), trials=8, seed=0)
    assert decision.answer is False
    assert decision.error_bound == pytest.approx(2.0 ** -8)
    assert decision.trials_run == 8
    assert len(decision.transcript) == 8
    assert not any(hit for _, hit in decision.transcript)
    assert not bool(decision)


def test_algebraic_decide_unbalanced_sides_exact_no():
    star = ColoredGraph(4, ((0, 1, BLUE), (0, 2, BLUE), (0, 3, BLUE)))
    decision = algebraic_em_decide(EmInstance(star, 0), trials=3, seed=1)
    assert decision == EmDecision(answer=False, error_bound=0.0,
                                  trials_run=0, transcript=())


@pytest.mark.parametrize("k", [-1, 2, 5])
def test_algebraic_decide_red_count_out_of_range_exact_no(k):
    # no perfect matching of n vertices has fewer than 0 or more than n/2
    # red edges, so no trial is needed and the "no" is exact
    decision = algebraic_em_decide(EmInstance(K2_RED, k), trials=5, seed=0)
    assert decision == EmDecision(answer=False, error_bound=0.0,
                                  trials_run=0, transcript=())


@pytest.mark.parametrize("graph, k", [
    (ColoredGraph(2, ((0, 1, BLUE),)), 1),
    (ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE))), 2),
])
def test_algebraic_decide_k_above_red_edges_exact_no(graph, k):
    # a perfect matching has no more red edges than the graph has
    decision = algebraic_em_decide(EmInstance(graph, k), trials=5, seed=0)
    assert decision == EmDecision(answer=False, error_bound=0.0,
                                  trials_run=0, transcript=())


def test_algebraic_decide_rejects_non_bipartite():
    with pytest.raises(ValueError, match="not bipartite"):
        algebraic_em_decide(EmInstance(TRIANGLE, 0), trials=1, seed=0)


def test_algebraic_decide_rejects_bad_trials():
    with pytest.raises(ValueError, match="trials must be positive"):
        algebraic_em_decide(EmInstance(K2_RED, 1), trials=0)


def test_algebraic_decide_transcripts_reproducible():
    inst = gen_instance(GenSpec(n=6, extra_edges=4, seed=7, bipartite=True))
    a = algebraic_em_decide(inst, trials=6, seed=99)
    b = algebraic_em_decide(inst, trials=6, seed=99)
    assert a == b
    c = algebraic_em_decide(inst, trials=6, seed=100)
    assert c.transcript != a.transcript


def test_algebraic_decide_sound_against_brute():
    rng = random.Random(44)
    for seed in range(200):
        n = rng.choice([2, 4, 6])
        cap = min(n, GenSpec(n=n, bipartite=True).max_extra_edges())
        inst = gen_instance(GenSpec(n=n, extra_edges=rng.randint(0, cap),
                                    seed=seed, bipartite=True))
        decision = algebraic_em_decide(inst, trials=3, seed=seed)
        if decision.answer:
            assert brute_em(inst) is not None


def test_algebraic_decide_detects_planted_yes():
    detected = 0
    checked = 0
    for seed in range(120):
        inst = gen_instance(GenSpec(n=6, extra_edges=3, seed=seed, bipartite=True))
        if brute_em(inst) is None:
            continue
        checked += 1
        if algebraic_em_decide(inst, trials=20, seed=seed).answer:
            detected += 1
    assert checked >= 30
    assert detected == checked


def test_default_trials_error_bound():
    assert DEFAULT_TRIALS == 40
    decision = algebraic_em_decide(EmInstance(K2_RED, 0), seed=0)
    assert decision.error_bound == pytest.approx(2.0 ** -40)


def test_error_bound_never_underflows():
    # 2.0 ** -trials is 0.0 from 1075 trials on; a "no" must still carry a
    # positive bound, the smallest one a float can hold
    decision = algebraic_em_decide(EmInstance(K2_RED, 0), trials=1100, seed=0)
    assert decision.answer is False and decision.trials_run == 1100
    assert decision.error_bound == math.ldexp(1.0, -1074) > 0.0


def crosscheck_graph(family, seed):
    """A seeded bipartite graph on at most 10 vertices and 14 edges."""
    rng = random.Random(seed)
    n = rng.choice((2, 4, 6, 8, 10))
    extra = rng.randint(0, min(8, GenSpec(n=n, bipartite=True).max_extra_edges()))
    red_prob = {"all_blue": 0.0, "all_red": 1.0}.get(family, 0.4)
    edges = list(gen_instance(GenSpec(n=n, extra_edges=extra, seed=seed,
                                      bipartite=True, red_prob=red_prob)).graph.edges)
    if family == "thinned":       # often leaves no perfect matching
        del edges[rng.randrange(len(edges))]
    elif family == "parallel":    # a red and a blue edge on one vertex pair
        u, v, color = rng.choice(edges)
        edges.append((u, v, BLUE if color == RED else RED))
    return ColoredGraph(n, tuple(edges))


@pytest.mark.parametrize("family", ["mixed", "thinned", "parallel", "all_blue", "all_red"])
def test_field_support_matches_enumeration_and_symbolic_determinant(family):
    # With weight 2^e on edge e, each perfect matching M contributes
    # +-2^(sum of 2^e over M), a power of two no other matching shares, so
    # no coefficient of the symbolic determinant can cancel: its support is
    # exact. The decider, asked at every k with one trial and one seed,
    # inspects one GF(p) coefficient vector.
    graphs = [ColoredGraph(0, ())] + [crosscheck_graph(family, seed) for seed in range(210)]
    for seed, graph in enumerate(graphs):
        h = graph.n // 2
        field = {k for k in range(-1, h + 2)
                 if algebraic_em_decide(EmInstance(graph, k), trials=1, seed=seed).answer}
        enumerated = {sum(graph.edges[e][2] == RED for e in matching)
                      for matching in enumerate_perfect_matchings(graph)}
        bp = find_bipartition(graph)
        symbolic = set()
        if bp.is_balanced:
            det = symbolic_determinant(graph, bp, tuple(1 << e for e in range(len(graph.edges))))
            symbolic = {k for k in range(h + 1) if det.coeff(k) != 0}
        assert field == enumerated == symbolic, (family, seed, graph)
    empty = algebraic_em_decide(EmInstance(ColoredGraph(0, ()), 0), trials=3, seed=0)
    assert empty.answer is True and empty.trials_run == 1


@pytest.mark.parametrize("s", [1, 8, 15])
def test_algebraic_decide_red_set_graph_n32(s):
    # Red edges are exactly those at a set S of left vertices; a perfect
    # matching covers every left vertex once, so each has |S| red edges.
    rng = random.Random(s)
    n, h = 32, 16
    right = list(range(h, n))
    rng.shuffle(right)
    pairs = {(i, right[i]) for i in range(h)}
    while len(pairs) < round(3.5 * n):
        pairs.add((rng.randrange(h), rng.randrange(h, n)))
    red_left = set(rng.sample(range(h), s))
    graph = ColoredGraph(n, tuple((u, v, RED if u in red_left else BLUE)
                                  for u, v in sorted(pairs)))
    assert algebraic_em_decide(EmInstance(graph, s), trials=3, seed=s).answer
    for k in (s - 1, s + 1):
        decision = algebraic_em_decide(EmInstance(graph, k), trials=3, seed=s)
        assert not decision.answer and decision.trials_run == 3


def test_cpm_via_em_examples():
    yes = cpm_via_em(EmInstance(K2_RED, 1))
    assert yes.answer is True and yes.queries == (1,) and yes.error_bound == 0.0
    no = cpm_via_em(EmInstance(K2_RED, 0))
    assert no.answer is False and no.queries == (0,) and no.error_bound == 0.0
    c4_red0 = ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
    high_k = cpm_via_em(EmInstance(c4_red0, 3))
    assert high_k.answer is True and high_k.queries == (1,)


def test_cpm_via_em_query_plan():
    g = ColoredGraph(8, tuple((2 * i, 2 * i + 1, BLUE) for i in range(4)))
    decision = cpm_via_em(EmInstance(g, 1))
    assert decision.queries == (1, 3)
    assert decision.answer is False
    even = cpm_via_em(EmInstance(g, 6))
    assert even.queries == (0,) and even.answer is True


def test_cpm_via_em_accepts_plain_decider_styles():
    inst = EmInstance(K2_RED, 1)
    by_bool = cpm_via_em(inst, em_decider=lambda i: brute_em(i) is not None)
    by_witness = cpm_via_em(inst, em_decider=brute_em)
    assert by_bool.answer is by_witness.answer is True


def test_cpm_via_em_union_bound_error():
    inst = EmInstance(C4_RED_02, 1)  # both matchings have even red counts
    decider = lambda i: algebraic_em_decide(i, trials=4, seed=0)
    decision = cpm_via_em(inst, em_decider=decider)
    assert decision.answer is False
    assert decision.queries == (1,)
    assert decision.error_bound == pytest.approx(2.0 ** -4)


def test_bcpm_via_em_bounded_queries():
    three_red = ColoredGraph(6, ((0, 1, RED), (2, 3, RED), (4, 5, RED)))
    rejected = bcpm_via_em(EmInstance(three_red, 1))
    assert rejected.answer is False
    assert rejected.queries == (1,)
    accepted = bcpm_via_em(EmInstance(three_red, 3))
    assert accepted.answer is True
    assert accepted.queries == (1, 3)
    unbounded = cpm_via_em(EmInstance(three_red, 1))
    assert unbounded.answer is True


def test_parity_decisions_are_truthy_objects():
    assert isinstance(cpm_via_em(EmInstance(K2_RED, 1)), ParityDecision)
    assert bool(bcpm_via_em(EmInstance(K2_RED, 1)))


def test_bipartition_sides_accessors():
    bp = Bipartition((0, 1, 1))
    assert bp.left == (0,) and bp.right == (1, 2)
    assert not bp.is_balanced


def test_yes_and_error_reads_every_result_style():
    decision = algebraic_em_decide(EmInstance(K2_RED, 0), trials=3, seed=0)
    assert yes_and_error(decision) == (False, 2.0 ** -3)
    assert yes_and_error(cpm_via_em(EmInstance(K2_RED, 1))) == (True, 0.0)
    parity = cpm_via_em(EmInstance(C4_RED_02, 1),
                        em_decider=lambda i: algebraic_em_decide(i, trials=2, seed=0))
    assert yes_and_error(parity) == (False, 0.25)
    assert yes_and_error(True) == (True, 0.0)
    assert yes_and_error(False) == (False, 0.0)
    assert yes_and_error(()) == (True, 0.0)      # the empty witness on n = 0
    assert yes_and_error(None) == (False, 0.0)
