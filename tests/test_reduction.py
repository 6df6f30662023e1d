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
    TkpmInstance,
    WeightedGraph,
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
    # path 0 is edges 0..4 from u = 0 to v = 1, the forced edge is edge 5
    assert g.edges == ((0, 2, 0), (2, 3, 2), (3, 4, 3), (4, 5, 2), (1, 5, 0),
                       (6, 7, 2))
    assert gadget.k == 2
    assert gm.threshold == 5


def test_gadgetize_single_blue_edge_k0():
    gadget, gm = gadgetize(EmInstance(K2_BLUE, 0))
    g = gadget.graph
    assert g.n == 6
    assert len(g.edges) == 5
    assert g.weights == (0, 0, 0, 0, 0)
    assert gadget.k == 0 and gm.threshold == 0


def test_gadgetize_c4_sizes():
    gadget, gm = gadgetize(EmInstance(C4_RED0, 1))
    assert gadget.graph.n == 22
    assert len(gadget.graph.edges) == 21
    assert gadget.k == 2
    assert gm.threshold == 5


def test_gadget_size_formulas_and_weights():
    for inst in random_instances(40, seed=51):
        n, m = inst.graph.n, len(inst.graph.edges)
        reds = inst.graph.num_red
        gadget, gm = gadgetize(inst)
        assert gadget.graph.n == n + 4 * m + 2 * inst.k
        assert len(gadget.graph.edges) == 5 * m + inst.k
        assert gadget.k == 2 * reds
        assert gm.threshold == 4 * reds + inst.k
        assert set(gadget.graph.weights) <= {0, 2, 3}
        assert validate(gadget.graph) is None
        assert gm.source == inst and gm.gadget == gadget


def test_path_layout_subdivides_each_source_edge():
    # lift, project and the map sidecar read edge ids from this numbering:
    # path i is edges 5i..5i+4 through n+4i..n+4i+3, forced edge j is 5m+j
    instances = [EmInstance(C4_RED0, 1)]
    instances += [inst for inst in random_instances(40, seed=58) if inst.k > 0]
    assert len(instances) > 20
    for inst in instances:
        n, m, k = inst.graph.n, len(inst.graph.edges), inst.k
        g = gadgetize(inst)[0].graph
        assert len(g.edges) == 5 * m + k
        for i, (u, v, color) in enumerate(inst.graph.edges):
            a = n + 4 * i
            chain = [u, a, a + 1, a + 2, a + 3, v]
            for j in range(5):
                assert set(g.edges[5 * i + j][:2]) == {chain[j], chain[j + 1]}
            expected = (0, 2, 3, 2, 0) if color == RED else (0, 0, 0, 0, 0)
            assert g.weights[5 * i:5 * i + 5] == expected
        for j in range(k):
            x = n + 4 * m + 2 * j
            assert g.edges[5 * m + j] == (x, x + 1, 2)


def test_lift_matching_example():
    _, gm = gadgetize(EmInstance(K2_RED, 1))
    assert lift_matching((0,), gm) == (0, 2, 4, 5)


def test_lift_requires_source_pm():
    _, gm = gadgetize(EmInstance(C4_RED0, 1))
    with pytest.raises(ValueError, match="source graph"):
        lift_matching((0, 1), gm)


def test_lift_rejects_repeated_edge_id():
    _, gm = gadgetize(EmInstance(K2_RED, 1))
    with pytest.raises(ValueError, match="source graph"):
        lift_matching((0, 0), gm)


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


def test_lift_after_project_covers_all_gadget_pms():
    for inst in random_instances(25, seed=53, n_choices=(2, 4)):
        gadget, gm = gadgetize(inst)
        source_pms = list(enumerate_perfect_matchings(inst.graph))
        gadget_pms = list(enumerate_perfect_matchings(gadget.graph))
        assert len(source_pms) == len(gadget_pms)
        m = len(inst.graph.edges)
        ek = set(range(5 * m, 5 * m + inst.k))
        for gpm in gadget_pms:
            assert ek <= set(gpm)
            back = project_matching(gpm, gm)
            assert is_perfect_matching(inst.graph, back)
            assert lift_matching(back, gm) == gpm


def _doctor_gadget(gm, edges):
    gadget = TkpmInstance(WeightedGraph(gm.gadget.graph.n, edges), gm.gadget.k)
    return dataclasses.replace(gm, gadget=gadget)


def test_strict_projection_flags_corrupted_patterns():
    _, gm = gadgetize(EmInstance(K2_RED, 1))
    e = gm.gadget.graph.edges
    # a gadget whose path edges are out of construction order has perfect
    # matchings that show neither legal pattern at their ids: with p3 in,
    # (1, 2, 4, 5) misses p1; with p3 out, (0, 3, 4, 5) misses p2
    for swapped, matching in (((e[1], e[0]) + e[2:], (1, 2, 4, 5)),
                              (e[:2] + (e[3], e[2]) + e[4:], (0, 3, 4, 5))):
        doctored = _doctor_gadget(gm, swapped)
        assert is_perfect_matching(doctored.gadget.graph, matching)
        with pytest.raises(ValueError,
                           match="corrupted path pattern at source edge 0"):
            project_matching(matching, doctored)


def test_strict_projection_flags_missing_forced_edge():
    _, gm = gadgetize(EmInstance(K2_RED, 1))
    e = gm.gadget.graph.edges
    # a parallel copy of forced edge 5, as edge 6, can replace it in a
    # perfect matching of the doctored gadget
    doctored = _doctor_gadget(gm, e + (e[5],))
    assert is_perfect_matching(doctored.gadget.graph, (0, 2, 4, 6))
    with pytest.raises(ValueError, match="forced edge missing"):
        project_matching((0, 2, 4, 6), doctored)


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


def test_negative_k_has_no_gadget_and_decides_no():
    for k in (-1, -2):
        with pytest.raises(ValueError, match="non-negative"):
            gadgetize(EmInstance(C4_RED0, k))
        assert decide_em_via_tkpm(EmInstance(C4_RED0, k)) is False


def test_decide_on_long_path_does_not_recurse_per_forced_edge():
    # the gadget of k = 1000 has 1,000 isolated forced edges; they are all
    # settled before the first branch, not one recursion level each
    path = ColoredGraph(2000, tuple((i, i + 1, RED) for i in range(1999)))
    assert len(gadgetize(EmInstance(path, 1000))[0].graph.edges) == 5 * 1999 + 1000
    assert decide_em_via_tkpm(EmInstance(path, 1000))
    assert not decide_em_via_tkpm(EmInstance(path, 999))


def test_format_gadget_map_golden():
    _, gm = gadgetize(EmInstance(K2_RED, 1))
    assert format_gadget_map(gm) == (
        "p map 1 1 2 5\n"
        "g 0 0 1 2 3 4\n"
        "ek 1 5\n")


def test_top_k_weight_consistency_with_lifted_value():
    inst = gen_instance(GenSpec(n=6, extra_edges=5, seed=3, red_prob=0.6))
    gadget, gm = gadgetize(inst)
    for m in itertools.islice(enumerate_perfect_matchings(inst.graph), 5):
        lifted = lift_matching(m, gm)
        assert lifted_value(gm, m) == top_k_weight(
            gadget.graph.weights, lifted, gadget.k)
