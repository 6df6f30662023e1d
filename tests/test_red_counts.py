"""The one red-count rule behind EM, CPM and BCPM.

engines.red_counts says which red counts answer each problem; the brute
solvers and the via-EM route both read it. These tests hold it to the
rules written out longhand (a predicate per problem for the brute
solvers, and the queried range with its top for the via-EM route), on
graphs with odd n, self-loops and parallel edges and on k outside 0..n/2,
and compare BCPM's two engines over the exhaustive stream. An empty range
is a "no" that no engine searches or builds a gadget for.
"""

import itertools
import random
import tracemalloc

import pytest

import exactmatch.engines as engines
import exactmatch.reduction as reduction
from exactmatch.algebraic import algebraic_em_decide, bcpm_via_em, cpm_via_em, yes_and_error
from exactmatch.campaign import exhaustive_instances
from exactmatch.engines import (
    brute_bcpm,
    brute_cpm,
    brute_em,
    enumerate_perfect_matchings,
    red_counts,
)
from exactmatch.graphs import BLUE, RED, ColoredGraph, EmInstance, red_count
from exactmatch.reduction import decide_em_via_tkpm

# the red counts that answer each problem, as a predicate of (r, k)
REFERENCE_ACCEPT = {
    "em": lambda r, k: r == k,
    "cpm": lambda r, k: r % 2 == k % 2,
    "bcpm": lambda r, k: r <= k and r % 2 == k % 2,
}
BRUTE = {"em": brute_em, "cpm": brute_cpm, "bcpm": brute_bcpm}
VIA_EM = {"cpm": cpm_via_em, "bcpm": bcpm_via_em}


def reference_top(problem, instance):
    """The highest red count the via-EM route asks about."""
    top = instance.graph.n // 2
    return min(instance.k, top) if problem == "bcpm" else top


def reference_first(problem, instance):
    """First perfect matching in canonical order whose red count passes the
    problem's predicate, or None."""
    accept = REFERENCE_ACCEPT[problem]
    return next((m for m in enumerate_perfect_matchings(instance.graph)
                 if accept(red_count(instance.graph, m), instance.k)), None)


def reference_via_em(problem, instance, decide):
    """(answer, queries) of one EM query per red count of k's parity from
    k % 2 up to the top, stopping at the first yes."""
    queries = []
    for kp in range(instance.k % 2, reference_top(problem, instance) + 1, 2):
        queries.append(kp)
        if yes_and_error(decide(EmInstance(instance.graph, kp)))[0]:
            return True, tuple(queries)
    return False, tuple(queries)


def messy_graph(rng):
    """A colored graph on 0..9 vertices, odd n included, with self-loops
    and parallel edges among its edges."""
    n = rng.randint(0, 9)
    pairs = list(itertools.combinations(range(n), 2))
    edges = [(u, v, rng.choice((RED, BLUE))) for u, v in pairs if rng.random() < 0.5]
    for _ in range(rng.randint(0, 3)):
        if edges:
            u, v, _ = rng.choice(edges)
            edges.append((u, v, rng.choice((RED, BLUE))))
        if n:
            v = rng.randrange(n)
            edges.append((v, v, rng.choice((RED, BLUE))))
    rng.shuffle(edges)
    return ColoredGraph(n, tuple(edges))


def bipartite_graph(rng):
    """A colored bipartite graph on 0..9 vertices under a random split,
    odd n and unequal sides included, with parallel edges."""
    n = rng.randint(0, 9)
    sides = [rng.randint(0, 1) for _ in range(n)]
    pairs = [(u, v) for u, v in itertools.combinations(range(n), 2) if sides[u] != sides[v]]
    edges = [(u, v, rng.choice((RED, BLUE))) for u, v in pairs if rng.random() < 0.6]
    edges += [(u, v, rng.choice((RED, BLUE))) for u, v, _ in edges if rng.random() < 0.2]
    rng.shuffle(edges)
    return ColoredGraph(n, tuple(edges))


def every_k(graph):
    return range(-2, graph.n // 2 + 3)


def test_red_counts_examples():
    six = EmInstance(ColoredGraph(6, ()), 1)
    assert red_counts("em", six) == range(1, 2)
    assert list(red_counts("cpm", six)) == [1, 3]
    assert list(red_counts("bcpm", six)) == [1]
    assert list(red_counts("cpm", EmInstance(six.graph, -2))) == [0, 2]
    assert list(red_counts("bcpm", EmInstance(six.graph, -2))) == []
    assert list(red_counts("bcpm", EmInstance(six.graph, 5))) == [1, 3]
    assert red_counts("em", EmInstance(six.graph, 3)) == range(3, 4)
    assert list(red_counts("em", EmInstance(six.graph, -1))) == []
    assert list(red_counts("em", EmInstance(six.graph, 4))) == []
    with pytest.raises(ValueError, match="no red-count rule for problem 'tkpm'"):
        red_counts("tkpm", six)


def test_red_counts_are_the_counts_the_reference_accepts():
    for n in range(10):
        graph = ColoredGraph(n, ())
        for k in every_k(graph):
            instance = EmInstance(graph, k)
            for problem, accept in REFERENCE_ACCEPT.items():
                # a perfect matching holds 0..n/2 red edges
                wanted = red_counts(problem, instance)
                assert [r for r in range(n // 2 + 1) if r in wanted] == \
                    [r for r in range(n // 2 + 1) if accept(r, k)]
                if problem in VIA_EM:
                    top = reference_top(problem, instance)
                    assert wanted == range(k % 2, top + 1, 2)


def test_brute_witnesses_equal_the_reference_first_match():
    rng = random.Random(2001)
    shapes = set()
    for _ in range(400):
        graph = messy_graph(rng)
        shapes.add("odd n" if graph.n % 2 else "even n")
        if any(u == v for u, v, _ in graph.edges):
            shapes.add("self-loop")
        if len({(u, v) for u, v, _ in graph.edges}) < len(graph.edges):
            shapes.add("parallel edge")
        for k in every_k(graph):
            instance = EmInstance(graph, k)
            for problem, brute in BRUTE.items():
                assert brute(instance) == reference_first(problem, instance), (problem, instance)
    assert shapes == {"odd n", "even n", "self-loop", "parallel edge"}


def test_via_em_answers_and_queries_equal_the_reference_with_brute_em():
    rng = random.Random(2002)
    for _ in range(300):
        graph = messy_graph(rng)
        for k in every_k(graph):
            instance = EmInstance(graph, k)
            for problem, via in VIA_EM.items():
                decision = via(instance)
                assert (decision.answer, decision.queries) == \
                    reference_via_em(problem, instance, brute_em), (problem, instance)


def test_via_em_answers_and_queries_equal_the_reference_with_the_algebraic_decider():
    rng = random.Random(2003)
    answers = set()
    for draw in range(300):
        graph = bipartite_graph(rng)

        def decide(instance, seed=draw):
            return algebraic_em_decide(instance, trials=3, seed=seed)

        for k in every_k(graph):
            instance = EmInstance(graph, k)
            for problem, via in VIA_EM.items():
                decision = via(instance, decide)
                answers.add(decision.answer)
                assert (decision.answer, decision.queries) == \
                    reference_via_em(problem, instance, decide), (problem, instance)
    assert answers == {True, False}


def assert_bcpm_engines_agree(instances):
    for instance in instances:
        witness = brute_bcpm(instance)
        assert (witness is not None) == bcpm_via_em(instance).answer, instance
        if witness is not None:
            r = red_count(instance.graph, witness)
            assert r <= instance.k and r % 2 == instance.k % 2, instance


def test_bcpm_engines_agree_on_every_exhaustive_instance_up_to_n4():
    instances = list(exhaustive_instances(4))
    assert len(instances) == 424
    assert_bcpm_engines_agree(instances)


def test_bcpm_engines_agree_on_a_sample_of_the_n6_stream():
    sample = random.Random(2004).sample(list(exhaustive_instances(6)), 3000)
    assert_bcpm_engines_agree(sample)


def squares(count):
    """count disjoint 4-cycles, alternately coloured: 2^count perfect
    matchings, each with count red edges."""
    edges = []
    for i in range(count):
        a = 4 * i
        edges += [(a, a + 1, RED), (a + 2, a + 3, BLUE), (a, a + 2, BLUE), (a + 1, a + 3, RED)]
    return ColoredGraph(4 * count, tuple(edges))


K2 = ColoredGraph(2, ((0, 1, RED),))
TRIANGLE_AND_PENDANT = ColoredGraph(4, ((0, 1, RED), (0, 2, BLUE), (1, 2, RED), (2, 3, RED)))


def empty_range_cases():
    """A pytest.param(name, engine, instance) for every engine of EM, CPM
    and BCPM and an instance whose red_counts range is empty."""
    cases = []
    for graph in (K2, squares(3), TRIANGLE_AND_PENDANT):
        for name, engine, ks in (("brute_em", brute_em, (-2, -1, graph.n // 2 + 1, 10**6)),
                                 ("decide_em_via_tkpm", decide_em_via_tkpm,
                                  (-2, -1, graph.n // 2 + 1, 10**6)),
                                 ("brute_bcpm", brute_bcpm, (-2, -1))):
            cases += [pytest.param(name, engine, EmInstance(graph, k), id=f"{name}-n{graph.n}-k{k}")
                      for k in ks]
    # cpm's range is empty only below two vertices, at an odd k
    cases += [pytest.param("brute_cpm", brute_cpm, EmInstance(ColoredGraph(n, ()), 1),
                           id=f"brute_cpm-n{n}-k1") for n in (0, 1)]
    return cases


@pytest.fixture
def calls(monkeypatch):
    """Count the calls to the search and to the gadget construction."""
    counted = {"_leaves": 0, "gadgetize": 0}

    def wrap(module, name):
        original = getattr(module, name)

        def counting(*args):
            counted[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, counting)

    wrap(engines, "_leaves")
    wrap(reduction, "gadgetize")
    return counted


@pytest.mark.parametrize("name, engine, instance", empty_range_cases())
def test_an_empty_range_is_a_no_without_a_search(calls, name, engine, instance):
    problem = name.split("_")[1]
    assert not red_counts(problem, instance)
    assert engine(instance) in (None, False)
    assert calls == {"_leaves": 0, "gadgetize": 0}


def test_the_counted_engines_do_search_on_a_nonempty_range(calls):
    instance = EmInstance(squares(3), 3)
    assert brute_em(instance) is not None
    assert decide_em_via_tkpm(instance) is True
    assert calls == {"_leaves": 2, "gadgetize": 1}


def test_exact_engines_answer_past_n_over_2_under_a_one_node_budget():
    # 2^18 perfect matchings, none with 37 red edges: a search would visit them all
    instance = EmInstance(squares(18), 37)
    assert brute_em(instance, max_nodes=1) is None
    assert decide_em_via_tkpm(instance, max_nodes=1) is False


def test_via_tkpm_builds_no_gadget_for_a_huge_k():
    # a gadget for k = 10^5 holds 10^5 forced edges, tens of MiB
    tracemalloc.start()
    try:
        answer = decide_em_via_tkpm(EmInstance(K2, 10**5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert answer is False
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("k", [-1, 3, 10**6])
def test_algebraic_decider_gives_an_exact_no_outside_the_range_on_any_graph(k):
    # an odd cycle: inside 0..n/2 the decider raises NotBipartite
    decision = algebraic_em_decide(EmInstance(TRIANGLE_AND_PENDANT, k), trials=5, seed=0)
    assert decision.answer is False
    assert decision.error_bound == 0.0 and decision.trials_run == 0
