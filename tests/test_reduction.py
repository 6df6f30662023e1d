"""Gadget reduction tests: construction, the matching bijection, lifted
values against their closed forms, and threshold decisions."""

import dataclasses
import itertools
import random

import pytest

from exactmatch.engines import brute_tkpm, enumerate_perfect_matchings
from exactmatch.generator import GenSpec, gen_instance
from exactmatch.graphs import (
    BLUE,
    RED,
    ColoredGraph,
    EmInstance,
    is_perfect_matching,
    red_count,
    top_k_weight,
    validate,
)
from exactmatch.reduction import (
    decide_em_via_tkpm,
    format_gadget_map,
    gadgetize,
    lift_matching,
    lifted_value,
    project_matching,
)

K2_RED = ColoredGraph(2, ((0, 1, RED),))
K2_BLUE = ColoredGraph(2, ((0, 1, BLUE),))
C4_RED0 = ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))


def random_instances(count, seed, n_choices=(2, 4, 6)):
    rng = random.Random(seed)
    for i in range(count):
        n = rng.choice(n_choices)
        cap = min(n, GenSpec(n=n).max_extra_edges())
        spec = GenSpec(n=n, extra_edges=rng.randint(0, cap), seed=seed * 1000 + i,
                       red_prob=rng.choice([0.2, 0.5, 0.8]))
        yield gen_instance(spec)


def test_gadgetize_single_red_edge():
    gadget, gm = gadgetize(EmInstance(K2_RED, 1))
    g = gadget.graph
    assert g.n == 8
    assert len(g.edges) == 6
    assert g.weights[:5] == (0, 2, 3, 2, 0)
    assert g.weights[5] == 2
    assert gm.kprime == 2 and gadget.k == 2
    assert gm.threshold == 5
    assert gm.path_edges == ((0, 1, 2, 3, 4),)
    assert gm.ek_edges == (5,)


def test_gadgetize_single_blue_edge_k0():
    gadget, gm = gadgetize(EmInstance(K2_BLUE, 0))
    g = gadget.graph
    assert g.n == 6
    assert len(g.edges) == 5
    assert g.weights == (0, 0, 0, 0, 0)
    assert gm.ek_edges == ()
    assert gm.kprime == 0 and gm.threshold == 0


def test_gadgetize_c4_sizes():
    gadget, gm = gadgetize(EmInstance(C4_RED0, 1))
    assert gadget.graph.n == 22
    assert len(gadget.graph.edges) == 21
    assert gm.kprime == 2
    assert gm.threshold == 5


def test_gadget_size_formulas_and_weights():
    for inst in random_instances(40, seed=51):
        n, m = inst.graph.n, len(inst.graph.edges)
        reds = inst.graph.num_red
        gadget, gm = gadgetize(inst)
        assert gadget.graph.n == n + 4 * m + 2 * inst.k
        assert len(gadget.graph.edges) == 5 * m + inst.k
        assert gm.kprime == 2 * reds
        assert gm.threshold == 4 * reds + inst.k
        assert set(gadget.graph.weights) <= {0, 2, 3}
        assert validate(gadget.graph) is None


def test_path_layout_subdivides_each_source_edge():
    inst = EmInstance(C4_RED0, 1)
    gadget, gm = gadgetize(inst)
    for i, (u, v, _) in enumerate(inst.graph.edges):
        path = gm.path_edges[i]
        ends = [gadget.graph.edges[eid][:2] for eid in path]
        chain = [u] + list(gm.path_vertices[i]) + [v]
        for (a, b), s, t in zip(ends, chain, chain[1:]):
            assert {a, b} == {s, t}


def test_lift_matching_example():
    _, gm = gadgetize(EmInstance(K2_RED, 1))
    assert lift_matching((0,), gm) == (0, 2, 4, 5)


def test_lift_requires_source_pm():
    _, gm = gadgetize(EmInstance(C4_RED0, 1))
    with pytest.raises(ValueError, match="source graph"):
        lift_matching((0, 1), gm)


def test_project_requires_gadget_pm():
    _, gm = gadgetize(EmInstance(K2_RED, 1))
    with pytest.raises(ValueError, match="gadget graph"):
        project_matching((0, 2), gm)


def test_project_after_lift_is_identity():
    for inst in random_instances(30, seed=52):
        gadget, gm = gadgetize(inst)
        for m in enumerate_perfect_matchings(inst.graph):
            lifted = lift_matching(m, gm)
            assert is_perfect_matching(gadget.graph, lifted)
            assert project_matching(lifted, gm) == m
            assert project_matching(lifted, gm, strict=True) == m


def test_lift_after_project_covers_all_gadget_pms():
    for inst in random_instances(25, seed=53, n_choices=(2, 4)):
        gadget, gm = gadgetize(inst)
        source_pms = list(enumerate_perfect_matchings(inst.graph))
        gadget_pms = list(enumerate_perfect_matchings(gadget.graph))
        assert len(source_pms) == len(gadget_pms)
        ek = set(gm.ek_edges)
        for gpm in gadget_pms:
            assert ek <= set(gpm)
            back = project_matching(gpm, gm, strict=True)
            assert is_perfect_matching(inst.graph, back)
            assert lift_matching(back, gm) == gpm


def test_strict_projection_flags_corrupted_patterns():
    gadget, gm = gadgetize(EmInstance(K2_RED, 1))
    legal = lift_matching((0,), gm)
    # a map whose recorded path order disagrees with the matching looks
    # corrupted even though the matching itself is a fine gadget PM
    scrambled = dataclasses.replace(gm, path_edges=((1, 0, 3, 2, 4),))
    with pytest.raises(ValueError, match="corrupted path pattern at source edge 0"):
        project_matching(legal, scrambled, strict=True)
    swapped_head = dataclasses.replace(gm, path_edges=((1, 0, 2, 3, 4),))
    with pytest.raises(ValueError, match="corrupted path pattern"):
        project_matching(legal, swapped_head, strict=True)
    # non-strict projection does not police patterns
    assert project_matching(legal, scrambled) == ()


def test_strict_projection_flags_missing_forced_edge():
    gadget, gm = gadgetize(EmInstance(K2_RED, 1))
    legal = lift_matching((0,), gm)
    doctored = dataclasses.replace(gm, ek_edges=(3,))
    with pytest.raises(ValueError, match="forced edge missing"):
        project_matching(legal, doctored, strict=True)


def test_lifted_value_example():
    _, gm = gadgetize(EmInstance(K2_RED, 1))
    assert lifted_value(gm, (0,)) == 5


def test_lifted_value_closed_forms():
    for inst in random_instances(40, seed=54):
        g = inst.graph
        reds = g.num_red
        k = inst.k
        _, gm = gadgetize(inst)
        for m in enumerate_perfect_matchings(g):
            r = red_count(g, m)
            value = lifted_value(gm, m)
            if r >= k:
                assert value == 4 * reds - r + 2 * k
            else:
                assert value == 4 * reds + r
            if r == k:
                assert value == gm.threshold
            else:
                assert value < gm.threshold


def test_lift_nonzero_weight_edge_count():
    for inst in random_instances(25, seed=55):
        g = inst.graph
        reds = g.num_red
        gadget, gm = gadgetize(inst)
        weights = gadget.graph.weights
        for m in enumerate_perfect_matchings(g):
            r = red_count(g, m)
            lifted = lift_matching(m, gm)
            nonzero = sum(1 for eid in lifted if weights[eid] > 0)
            assert nonzero == 2 * reds + inst.k - r


def test_gadget_optimum_never_exceeds_threshold():
    for inst in random_instances(20, seed=56, n_choices=(2, 4)):
        gadget, gm = gadgetize(inst)
        result = brute_tkpm(gadget)
        if result is not None:
            assert result[1] <= gm.threshold


def test_decide_examples():
    assert decide_em_via_tkpm(EmInstance(K2_RED, 1))
    # k=0 on the red K2: threshold 4 but the only lift is worth 3
    _, gm = gadgetize(EmInstance(K2_RED, 0))
    assert gm.threshold == 4 and lifted_value(gm, (0,)) == 3
    assert not decide_em_via_tkpm(EmInstance(K2_RED, 0))
    assert decide_em_via_tkpm(EmInstance(C4_RED0, 1))
    assert decide_em_via_tkpm(EmInstance(C4_RED0, 0))
    assert not decide_em_via_tkpm(EmInstance(C4_RED0, 2))


def test_decide_no_red_edges_positive_k():
    assert not decide_em_via_tkpm(EmInstance(K2_BLUE, 1))
    c4_blue = ColoredGraph(4, ((0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
    assert not decide_em_via_tkpm(EmInstance(c4_blue, 1))
    assert decide_em_via_tkpm(EmInstance(c4_blue, 0))


def test_decide_no_pm_at_all():
    star = ColoredGraph(4, ((0, 1, RED), (0, 2, RED), (0, 3, RED)))
    for k in range(3):
        assert not decide_em_via_tkpm(EmInstance(star, k))


def test_decide_on_long_path_does_not_recurse_per_forced_edge():
    # the gadget of k = 1000 has 1,000 isolated forced edges; they are all
    # settled before the first branch, not one recursion level each
    path = ColoredGraph(2000, tuple((i, i + 1, RED) for i in range(1999)))
    assert len(gadgetize(EmInstance(path, 1000))[1].ek_edges) == 1000
    assert decide_em_via_tkpm(EmInstance(path, 1000))
    assert not decide_em_via_tkpm(EmInstance(path, 999))


def test_format_gadget_map_golden():
    _, gm = gadgetize(EmInstance(K2_RED, 1))
    assert format_gadget_map(gm) == (
        "p map 1 1 2 5\n"
        "g 0 0 1 2 3 4\n"
        "ek 1 5\n")


def test_gadget_k_equals_kprime():
    for inst in random_instances(10, seed=57):
        gadget, gm = gadgetize(inst)
        assert gadget.k == gm.kprime
        assert gm.source == inst


def test_top_k_weight_consistency_with_lifted_value():
    inst = gen_instance(GenSpec(n=6, extra_edges=5, seed=3, red_prob=0.6))
    gadget, gm = gadgetize(inst)
    for m in itertools.islice(enumerate_perfect_matchings(inst.graph), 5):
        lifted = lift_matching(m, gm)
        assert lifted_value(gm, m) == top_k_weight(
            gadget.graph.weights, lifted, gm.kprime)
