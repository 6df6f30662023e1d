"""Data model tests: validation, matchings, red counts, top-k weights."""

import copy
import dataclasses
import itertools
import pickle
import random

import pytest

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
    validate_instance,
)

# C4 in cycle order: ids 0..3 around the cycle, opposite pairs {0,2} and {1,3}
C4_EDGES = ((0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE))


def c4_with_red(*red_ids):
    edges = tuple((u, v, RED if i in red_ids else BLUE)
                  for i, (u, v, _) in enumerate(C4_EDGES))
    return ColoredGraph(4, edges)


def test_validate_self_loop():
    g = ColoredGraph(3, ((2, 2, RED),))
    assert validate(g) == "self-loop at edge 0"


def test_validate_empty_graph_ok():
    assert validate(ColoredGraph(0, ())) is None


def test_validate_parallel_edge():
    g = ColoredGraph(2, ((0, 1, RED), (0, 1, BLUE)))
    report = validate(g)
    assert report is not None and "parallel edge" in report


def test_validate_out_of_order_endpoints():
    g = ColoredGraph(3, ((2, 1, RED),))
    report = validate(g)
    assert report is not None and "out of order" in report


def test_validate_vertex_out_of_range():
    g = ColoredGraph(2, ((0, 5, BLUE),))
    report = validate(g)
    assert report is not None and "out of range" in report


def test_validate_bad_color_and_bad_weight():
    assert "unknown color" in validate(ColoredGraph(2, ((0, 1, "purple"),)))
    assert "weight" in validate(WeightedGraph(2, ((0, 1, -3),)))


def test_validate_reports_first_violation():
    g = ColoredGraph(4, ((1, 1, RED), (0, 9, BLUE)))
    assert validate(g) == "self-loop at edge 0"


def test_validate_instance_k_range():
    g = ColoredGraph(4, C4_EDGES)
    assert validate_instance(EmInstance(g, 2)) is None
    assert "exceeds" in validate_instance(EmInstance(g, 3))
    assert "negative" in validate_instance(EmInstance(g, -1))
    # top-k instances allow k beyond the matching size
    wg = WeightedGraph(4, ((0, 1, 5), (2, 3, 1)))
    assert validate_instance(TkpmInstance(wg, 99)) is None


def test_is_perfect_matching_k2():
    g = ColoredGraph(2, ((0, 1, RED),))
    assert is_perfect_matching(g, (0,))


def test_is_perfect_matching_path3_uncovered():
    g = ColoredGraph(3, ((0, 1, BLUE), (1, 2, BLUE)))
    assert not is_perfect_matching(g, (0,))


def test_is_perfect_matching_c4_opposite_edges():
    g = ColoredGraph(4, C4_EDGES)
    assert is_perfect_matching(g, (0, 2))
    assert is_perfect_matching(g, (1, 3))
    assert not is_perfect_matching(g, (0, 1))   # share vertex 1
    assert not is_perfect_matching(g, (0,))     # leaves 2, 3 uncovered


def test_is_perfect_matching_rejects_repeated_edge_id():
    g = ColoredGraph(2, ((0, 1, RED),))
    assert not is_perfect_matching(g, (0, 0))
    assert not is_perfect_matching(ColoredGraph(4, C4_EDGES), (0, 2, 0))


def test_is_perfect_matching_bad_edge_id():
    g = ColoredGraph(2, ((0, 1, RED),))
    with pytest.raises(ValueError):
        is_perfect_matching(g, (7,))


def test_red_count():
    g_blue = ColoredGraph(4, C4_EDGES)
    assert red_count(g_blue, (0, 2)) == 0
    g_red = ColoredGraph(6, ((0, 1, RED), (2, 3, RED), (4, 5, RED)))
    assert red_count(g_red, (0, 1, 2)) == 3
    assert red_count(c4_with_red(0), (0, 2)) == 1


def test_red_count_additive_over_disjoint_parts():
    g = ColoredGraph(8, ((0, 1, RED), (2, 3, BLUE), (4, 5, RED), (6, 7, RED)))
    assert red_count(g, (0, 1)) + red_count(g, (2, 3)) == red_count(g, (0, 1, 2, 3))


def test_top_k_weight_examples():
    weights = (3, 2, 2, 0)
    all_ids = (0, 1, 2, 3)
    assert top_k_weight(weights, all_ids, 2) == 5
    assert top_k_weight(weights, all_ids, 0) == 0
    assert top_k_weight((3, 2), (0, 1), 5) == 5   # k past |F| sums everything


def test_top_k_weight_monotone_and_total():
    rng = random.Random(7)
    for _ in range(50):
        m = rng.randint(0, 8)
        weights = tuple(rng.randint(0, 9) for _ in range(m))
        ids = tuple(range(m))
        values = [top_k_weight(weights, ids, k) for k in range(m + 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert top_k_weight(weights, ids, m) == sum(weights)


def test_top_k_weight_rejects_negative_k():
    with pytest.raises(ValueError):
        top_k_weight((1,), (0,), -1)


def test_immutability():
    g = ColoredGraph(2, ((0, 1, RED),))
    with pytest.raises(Exception):
        g.n = 4


def test_adjacency_ascending_edge_ids():
    g = ColoredGraph(4, C4_EDGES)
    for v, incidences in enumerate(g.adjacency):
        ids = [eid for eid, _ in incidences]
        assert ids == sorted(ids)
        for eid, other in incidences:
            u, w, _ = g.edges[eid]
            assert {u, w} == {v, other}


def test_num_red_sums_edge_classes():
    g = c4_with_red(1, 3)
    assert g.num_red == sum(g.edge_classes) == 2


def test_edge_classes():
    g = c4_with_red(1, 3)
    assert g.num_classes == 2 and g.edge_classes == (0, 1, 0, 1)
    w = WeightedGraph(4, ((0, 1, 5), (1, 2, 0), (2, 3, 5), (0, 3, 2)))
    assert w.class_weights == (5, 2, 0)
    assert w.num_classes == 3 and w.edge_classes == (0, 2, 0, 1)
    assert WeightedGraph(0, ()).num_classes == 0


def test_edge_classes_reject_an_unknown_color():
    # construction accepts the graph and validate reports it; reading its
    # colors as classes raises, naming the edge
    g = ColoredGraph(3, ((0, 1, BLUE), (1, 2, "purple")))
    assert validate(g) == "unknown color 'purple' at edge 1"
    with pytest.raises(ValueError, match="unknown color 'purple' at edge 1"):
        g.edge_classes
    with pytest.raises(ValueError, match="unknown color"):
        g.num_red


def test_validate_accepts_all_complete_graphs():
    for n in range(7):
        edges = tuple((u, v, RED) for u, v in itertools.combinations(range(n), 2))
        assert validate(ColoredGraph(n, edges)) is None


@pytest.mark.parametrize("instance", [
    EmInstance(c4_with_red(0, 2), 1),
    TkpmInstance(WeightedGraph(4, ((0, 1, 5), (1, 2, 0), (2, 3, 2), (0, 3, 5))), 2)])
def test_instances_are_slotted_values(instance):
    assert not hasattr(instance, "__dict__")
    instance.graph.adjacency   # a filled cached property travels with the graph
    clones = [pickle.loads(pickle.dumps(instance)),
              pickle.loads(pickle.dumps(instance, pickle.HIGHEST_PROTOCOL)),
              copy.copy(instance), copy.deepcopy(instance), dataclasses.replace(instance)]
    for clone in clones:
        assert type(clone) is type(instance)
        assert clone == instance and hash(clone) == hash(instance)
    assert clones[2].graph is instance.graph
    other = dataclasses.replace(instance, k=instance.k + 1)
    assert other != instance and other.graph is instance.graph
    with pytest.raises(dataclasses.FrozenInstanceError):
        instance.k = 0
    assert len({instance, clones[0], other}) == 2


# (name, graph types it applies to, edge builder, message); the builder
# replaces edge i of a simple graph, edges holds the others
DEFECTS = [
    ("pair", (ColoredGraph, WeightedGraph), lambda e, i, n, edges: e[:2],
     "edge {i} is not a (u, v, {payload}) triple"),
    ("non-int endpoint", (ColoredGraph, WeightedGraph),
     lambda e, i, n, edges: (float(e[0]), e[1], e[2]), "non-integer endpoint at edge {i}"),
    ("self-loop", (ColoredGraph, WeightedGraph),
     lambda e, i, n, edges: (e[1], e[1], e[2]), "self-loop at edge {i}"),
    ("u > v", (ColoredGraph, WeightedGraph),
     lambda e, i, n, edges: (e[1], e[0], e[2]), "endpoints out of order at edge {i} (expected u < v)"),
    ("id out of range", (ColoredGraph, WeightedGraph),
     lambda e, i, n, edges: (e[0], n, e[2]), "vertex id out of range at edge {i}"),
    ("parallel edge", (ColoredGraph, WeightedGraph),
     lambda e, i, n, edges: edges[0][:2] + e[2:], "parallel edge at edge {i} (duplicate of edge 0)"),
    ("unknown colour", (ColoredGraph,),
     lambda e, i, n, edges: (e[0], e[1], "g"), "unknown color 'g' at edge {i}"),
    ("negative weight", (WeightedGraph,),
     lambda e, i, n, edges: (e[0], e[1], -1), "negative or non-integer weight at edge {i}"),
]


@pytest.mark.parametrize("graph_type, plant, message", [
    (graph_type, plant, message) for _, types, plant, message in DEFECTS for graph_type in types
], ids=[f"{t.__name__}: {name}" for name, types, _, _ in DEFECTS for t in types])
def test_validate_names_each_planted_defect(graph_type, plant, message):
    rng = random.Random(18)
    payload = "color" if graph_type is ColoredGraph else "weight"
    for _ in range(50):
        n = rng.randint(3, 12)
        pairs = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(2, n))
        edges = [(u, v, rng.choice((RED, BLUE)) if graph_type is ColoredGraph
                  else rng.randint(0, 9)) for u, v in pairs]
        clean = graph_type(n, tuple(edges))
        assert validate(clean) is None
        i = rng.randrange(1, len(edges))
        edges[i] = plant(edges[i], i, n, edges)
        broken = graph_type(n, tuple(edges))
        assert validate(broken) == message.format(i=i, payload=payload)


@pytest.mark.parametrize("graph, message", [
    (ColoredGraph(2, ((False, True, RED),)), "non-integer endpoint at edge 0"),
    (ColoredGraph(3, ((0, 1, RED), (1, True, BLUE))), "non-integer endpoint at edge 1"),
    (WeightedGraph(2, ((0, 1, True),)), "negative or non-integer weight at edge 0"),
    (WeightedGraph(3, ((0, 1, 2), (1, 2, False))), "negative or non-integer weight at edge 1"),
], ids=["colored endpoints", "colored second endpoint", "weight True", "weight False"])
def test_validate_rejects_a_bool_endpoint_or_weight(graph, message):
    # a bool is an int to isinstance, not by exact type
    assert validate(graph) == message


@pytest.mark.parametrize("n", [2.0, True, "2", None], ids=repr)
def test_validate_rejects_a_non_integer_vertex_count(n):
    assert validate(ColoredGraph(n, ((0, 1, RED),))) == "non-integer vertex count"
    assert validate(WeightedGraph(n, ())) == "non-integer vertex count"
    # checked before the sign
    assert validate_instance(EmInstance(ColoredGraph(n, ()), -1)) == "non-integer vertex count"


@pytest.mark.parametrize("k, message", [
    (1.5, "non-integer k (1.5)"),
    (True, "non-integer k (True)"),
    (-1.0, "non-integer k (-1.0)"),
    ("1", "non-integer k ('1')"),
], ids=["1.5", "True", "-1.0", "'1'"])
def test_validate_instance_rejects_a_non_integer_k(k, message):
    assert validate_instance(EmInstance(ColoredGraph(2, ((0, 1, RED),)), k)) == message
    assert validate_instance(TkpmInstance(WeightedGraph(2, ((0, 1, 3),)), k)) == message


@pytest.mark.parametrize("graph, message", [
    # the first bad edge wins, whatever the later edges hold
    (ColoredGraph(3, ((0, 1, "g"), (1, 1, RED))), "unknown color 'g' at edge 0"),
    # within one edge the checks run in a fixed order
    (ColoredGraph(3, ((5, 5, "g"),)), "self-loop at edge 0"),
    (ColoredGraph(3, ((9, 0, RED),)), "endpoints out of order at edge 0 (expected u < v)"),
    (ColoredGraph(3, ((-1, 0, RED),)), "vertex id out of range at edge 0"),
    (ColoredGraph(3, ((0, 1, RED), (0, 1, "g"))), "parallel edge at edge 1 (duplicate of edge 0)"),
    (WeightedGraph(3, ((0.0, 0, -1),)), "non-integer endpoint at edge 0"),
    (WeightedGraph(3, ((0, 1, 2), (0, 1))), "edge 1 is not a (u, v, weight) triple"),
], ids=["earlier edge", "self-loop first", "order before range", "negative id",
        "parallel before colour", "type before self-loop", "short edge"])
def test_validate_reports_the_first_of_several_defects(graph, message):
    assert validate(graph) == message


def reference_validate(graph):
    """The per-edge loop validate used to run after its bulk pre-check,
    with ints checked by exact type: the fuzz test's reference."""
    n = graph.n
    if type(n) is not int:
        return "non-integer vertex count"
    if n < 0:
        return "negative vertex count"
    is_colored = isinstance(graph, ColoredGraph)
    seen = {}
    for i, e in enumerate(graph.edges):
        if len(e) != 3:
            return f"edge {i} is not a (u, v, {'color' if is_colored else 'weight'}) triple"
        u, v, payload = e
        if type(u) is not int or type(v) is not int:
            return f"non-integer endpoint at edge {i}"
        if u == v:
            return f"self-loop at edge {i}"
        if u > v:
            return f"endpoints out of order at edge {i} (expected u < v)"
        if u < 0 or v >= n:
            return f"vertex id out of range at edge {i}"
        if (u, v) in seen:
            return f"parallel edge at edge {i} (duplicate of edge {seen[(u, v)]})"
        seen[(u, v)] = i
        if is_colored:
            if payload not in (RED, BLUE):
                return f"unknown color {payload!r} at edge {i}"
        else:
            if type(payload) is not int or payload < 0:
                return f"negative or non-integer weight at edge {i}"
    return None


# each replaces edge i (u, v, payload) of a simple graph on n vertices;
# edges holds the others
PLANTS = [
    lambda e, n, edges: e[:2],
    lambda e, n, edges: e + (0,),
    lambda e, n, edges: (float(e[0]),) + e[1:],
    lambda e, n, edges: (e[0], str(e[1])) + e[2:],
    lambda e, n, edges: (True,) + e[1:],
    lambda e, n, edges: (e[1], e[1]) + e[2:],
    lambda e, n, edges: (e[1], e[0]) + e[2:],
    lambda e, n, edges: (e[0], n) + e[2:],
    lambda e, n, edges: (-1,) + e[1:],
    lambda e, n, edges: edges[0][:2] + e[2:],
    lambda e, n, edges: e[:2] + ("g",),
    lambda e, n, edges: e[:2] + (True,),
    lambda e, n, edges: e[:2] + (-1,),
    lambda e, n, edges: e[:2] + (1.0,),
    lambda e, n, edges: e[:2] + ("3",),
]


@pytest.mark.parametrize("graph_type", [ColoredGraph, WeightedGraph], ids=lambda t: t.__name__)
def test_validate_matches_the_reference_loop_on_planted_defects(graph_type):
    rng = random.Random(19)
    payload_check = "unknown color" if graph_type is ColoredGraph else "weight at"
    checks = ("not a", "non-integer endpoint", "self-loop", "out of order", "out of range",
              "parallel", payload_check, "non-integer vertex count", "negative vertex count")
    reached = set()
    for _ in range(3000):
        n = rng.randint(3, 8)
        pairs = rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(1, n))
        edges = [(u, v, rng.choice((RED, BLUE)) if graph_type is ColoredGraph
                  else rng.randint(0, 9)) for u, v in pairs]
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(edges))
            edges[i] = rng.choice(PLANTS)(edges[i], n, edges)
        if rng.random() < 0.05:
            n = rng.choice((-1, float(n), True))
        graph = graph_type(n, tuple(edges))
        expected = reference_validate(graph)
        assert validate(graph) == expected, graph
        if expected is None:
            reached.add(None)
        else:
            reached.update(c for c in checks if c in expected)
    # clean graphs were seen, and every check was the one to report
    assert reached == set(checks) | {None}


@pytest.mark.parametrize("graph, attr, message", [
    (ColoredGraph(2, ((0, 1),)), "edge_classes", "edge 0 is not a (u, v, color) triple"),
    (ColoredGraph(4, ((0, 1, RED), (2, 3))), "num_red", "edge 1 is not a (u, v, color) triple"),
    (WeightedGraph(2, ((0, 1),)), "class_weights", "edge 0 is not a (u, v, weight) triple"),
    (WeightedGraph(4, ((0, 1, 2), (2, 3))), "edge_classes", "edge 1 is not a (u, v, weight) triple"),
], ids=["colored classes", "colored num_red", "weighted class_weights", "weighted classes"])
def test_reading_a_short_edge_names_it(graph, attr, message):
    assert validate(graph) == message
    with pytest.raises(ValueError) as caught:
        getattr(graph, attr)
    assert str(caught.value) == message
