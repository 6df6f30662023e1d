"""Instance generator tests: shape, determinism, and solvable-by-design."""

import random
import tracemalloc
from dataclasses import replace

import pytest

from exactmatch.campaign import randomized_campaign
from exactmatch.engines import has_perfect_matching
from exactmatch.generator import GenSpec, _check_spec, gen_instance
from exactmatch.graphs import BLUE, RED, ColoredGraph, EmInstance, validate, validate_instance


def reference_gen_instance(spec):
    """The list-based sampler gen_instance used to run: every candidate
    pair is listed, in ascending order, and the extras are sampled from
    the list. The same rng draws in the same order give the same instance."""
    _check_spec(spec)
    rng = random.Random(spec.seed)
    n, half = spec.n, spec.n // 2
    if spec.bipartite:
        partners = list(range(half, n))
        rng.shuffle(partners)
        planted = {(i, partners[i]) for i in range(half)}
        candidates = [(u, v) for u in range(half) for v in range(half, n)
                      if (u, v) not in planted]
    else:
        order = list(range(n))
        rng.shuffle(order)
        planted = set()
        for i in range(half):
            u, v = order[2 * i], order[2 * i + 1]
            planted.add((min(u, v), max(u, v)))
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if (u, v) not in planted]
    extras = rng.sample(candidates, spec.extra_edges)
    pairs = sorted(planted | set(extras))
    edges = tuple((u, v, RED if rng.random() < spec.red_prob else BLUE)
                  for u, v in pairs)
    k = rng.randint(0, half)
    return EmInstance(ColoredGraph(n, edges), k)


def test_minimal_spec_all_red():
    inst = gen_instance(GenSpec(n=2, extra_edges=0, red_prob=1.0, seed=5))
    assert inst.graph.edges == ((0, 1, RED),)
    assert inst.k in (0, 1)


def test_same_seed_same_instance():
    spec = GenSpec(n=8, extra_edges=10, red_prob=0.4, seed=77)
    assert gen_instance(spec) == gen_instance(spec)


def test_seeds_vary_instances():
    instances = {gen_instance(GenSpec(n=6, extra_edges=4, seed=s)) for s in range(10)}
    assert len(instances) > 1


def test_edge_count_and_simplicity():
    inst = gen_instance(GenSpec(n=8, extra_edges=10, seed=1))
    assert len(inst.graph.edges) == 14
    assert validate(inst.graph) is None


def test_generated_instances_are_sound():
    rng = random.Random(61)
    for seed in range(60):
        n = rng.choice([2, 4, 6, 8])
        cap = min(8, GenSpec(n=n).max_extra_edges())
        inst = gen_instance(GenSpec(n=n, extra_edges=rng.randint(0, cap), seed=seed))
        assert validate_instance(inst) is None
        assert has_perfect_matching(inst.graph)
        assert 0 <= inst.k <= n // 2


def test_bipartite_mode():
    for seed in range(25):
        inst = gen_instance(GenSpec(n=8, extra_edges=6, seed=seed, bipartite=True))
        half = inst.graph.n // 2
        for u, v, _ in inst.graph.edges:
            assert (u < half) != (v < half)
        assert has_perfect_matching(inst.graph)


def test_red_prob_extremes():
    all_blue = gen_instance(GenSpec(n=6, extra_edges=5, red_prob=0.0, seed=2))
    assert all_blue.graph.num_red == 0
    all_red = gen_instance(GenSpec(n=6, extra_edges=5, red_prob=1.0, seed=2))
    assert all_red.graph.num_red == len(all_red.graph.edges)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError, match="even"):
        gen_instance(GenSpec(n=3))
    with pytest.raises(ValueError, match="even"):
        gen_instance(GenSpec(n=0))
    with pytest.raises(ValueError, match="extra_edges"):
        gen_instance(GenSpec(n=2, extra_edges=1))
    with pytest.raises(ValueError, match="red_prob"):
        gen_instance(GenSpec(n=4, red_prob=1.5))
    # a float count used to fail deep in the draw as TypeError, and
    # extra_edges=True drew one edge
    with pytest.raises(ValueError, match="n must be an int, got 4.0"):
        gen_instance(GenSpec(n=4.0))
    with pytest.raises(ValueError, match="n must be an int, got True"):
        gen_instance(GenSpec(n=True))
    with pytest.raises(ValueError, match="extra_edges must be an int, got 2.0"):
        gen_instance(GenSpec(n=4, extra_edges=2.0))
    with pytest.raises(ValueError, match="extra_edges must be an int, got True"):
        gen_instance(GenSpec(n=4, extra_edges=True))


def test_max_extra_edges():
    assert GenSpec(n=2).max_extra_edges() == 0
    assert GenSpec(n=4).max_extra_edges() == 4
    assert GenSpec(n=4, bipartite=True).max_extra_edges() == 2
    full = gen_instance(GenSpec(n=4, extra_edges=4, seed=0))
    assert len(full.graph.edges) == 6   # the complete graph on 4 vertices


def test_bipartite_max_is_complete_bipartite():
    inst = gen_instance(GenSpec(n=6, extra_edges=GenSpec(n=6, bipartite=True).max_extra_edges(),
                                seed=0, bipartite=True))
    assert len(inst.graph.edges) == 9   # every left-right pair


def test_spec_is_frozen():
    spec = GenSpec(n=4)
    with pytest.raises(Exception):
        spec.n = 6


@pytest.mark.parametrize("bipartite", [False, True], ids=["general", "bipartite"])
def test_instances_equal_the_list_based_sampler_at_small_n(bipartite):
    for n in range(2, 21, 2):
        most = GenSpec(n=n, bipartite=bipartite).max_extra_edges()
        for extra in sorted({0, min(1, most), most // 2, most}):
            for seed in range(40):
                spec = GenSpec(n=n, extra_edges=extra, red_prob=0.3, seed=seed,
                               bipartite=bipartite)
                assert gen_instance(spec) == reference_gen_instance(spec), spec


@pytest.mark.parametrize("n, extra, bipartite", [
    (600, 20, False), (600, 5000, True), (1000, 1000, False), (1200, 50_000, True)])
def test_instances_equal_the_list_based_sampler_at_large_n(n, extra, bipartite):
    for seed in range(2):
        spec = GenSpec(n=n, extra_edges=extra, seed=seed, bipartite=bipartite)
        assert gen_instance(spec) == reference_gen_instance(spec), spec


def test_a_few_extras_on_many_vertices_take_little_memory():
    # a list of every candidate pair of 2,000 vertices would take 183 MiB
    tracemalloc.start()
    try:
        inst = gen_instance(GenSpec(n=2000, extra_edges=20, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.graph.edges) == 1020
    assert peak < 4 << 20, peak


@pytest.mark.parametrize("red_prob", ["0.5", True, None])
def test_red_prob_is_an_int_or_float(red_prob):
    # a string used to fail as TypeError in the range check, and True
    # was read as 1.0
    with pytest.raises(ValueError, match="red_prob must be an int or float"):
        gen_instance(GenSpec(n=4, red_prob=red_prob))


def test_red_prob_may_be_an_int():
    edges = gen_instance(GenSpec(n=4, extra_edges=2, red_prob=1)).graph.edges
    assert {c for _, _, c in edges} == {RED}


@pytest.mark.parametrize("field, value", [("bipartite", "no"), ("bipartite", 1), ("bipartite", None),
                                          ("seed", "x"), ("seed", 1.5), ("seed", True),
                                          ("seed", None)])
def test_seed_and_bipartite_are_checked_by_exact_type(field, value):
    # bipartite="no" drew a bipartite instance, seed=1.5 drew from the
    # float's hash, and a campaign failed on seed="x" as TypeError
    spec = replace(GenSpec(n=4, extra_edges=1), **{field: value})
    with pytest.raises(ValueError, match=f"{field} must be an? (int|bool), got {value!r}"):
        gen_instance(spec)
    with pytest.raises(ValueError, match=f"{field} must be"):
        randomized_campaign(2, spec)
