"""The exact-matching to top-k perfect matching gadget reduction.

Construction: every source edge is subdivided four times, becoming a path
of five edges; on top of that, k fresh disjoint forced edges are added (2k
new vertices that can only be matched to each other, so every perfect
matching of the gadget contains all of them). Path weights are 0 on every
blue path; a red path carries (0, 2, 3, 2, 0) from end to end. Forced edges
weigh 2. With R red source edges the target asks for the top 2R weights,
and the decision threshold is 4R + k.

Perfect matchings correspond one-to-one across the reduction: a source edge
is matched exactly when the middle edge of its path is, matched paths
contribute their ends and middle (p1, p3, p5), unmatched paths their other
two edges (p2, p4). For a source matching with r red edges the top-2R
weight of its lift is 4R - r + 2k whenever r >= k, which hits the threshold
exactly at r = k and falls below it for r > k; for r < k the value is at
most 4R + r, also below the threshold. Hence the source instance is a yes
exactly when the gadget optimum reaches the threshold.

Vertex numbering is deterministic: source vertices keep ids 0..n-1, the
four subdivision vertices of edge i are n+4i..n+4i+3, forced-edge vertices
come last. Edge ids follow the same construction order: the path of source
edge i is gadget edges 5i..5i+4 (p1..p5, p3 is the middle) and the forced
edges are 5m..5m+k-1, which makes serialized gadgets byte-stable.

The tables the search reads off a gadget follow from the same order, so
decide_em_via_tkpm gives its gadget graph weights, class_weights,
edge_classes and adjacency in closed form (_gadget_tables) instead of
running WeightedGraph's generic builders. Subdivision vertex a+j of path i
(a = n+4i) lists its two path edges, (5i+j, its neighbour before) and
(5i+j+1, its neighbour after); a source vertex lists (5i, a) or
(5i+4, a+3) for each edge end, in edge order, a self-loop both; a forced
vertex lists its one edge. The class table is (3, 2, 0) with a red path,
otherwise (2, 0), (0,), (2,) or () as paths and forced edges exist. A
plain gadgetize leaves every table to the generic builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .engines import red_counts, tkpm_reaches
# brute_tkpm is imported here only because bench/tracing.TARGETS wraps
# reduction.brute_tkpm
from .engines import brute_tkpm  # noqa: F401
from .graphs import (
    EmInstance,
    Matching,
    TkpmInstance,
    WeightedGraph,
    is_perfect_matching,
    top_k_weight,
)

_RED_PATH_WEIGHTS = (0, 2, 3, 2, 0)
_BLUE_PATH_WEIGHTS = (0, 0, 0, 0, 0)
_FORCED_EDGE_WEIGHT = 2


@dataclass(frozen=True)
class GadgetMap:
    """Bookkeeping produced by gadgetize, enabling exact lift and project.

    The gadget's edge ids follow its construction order (see the module
    docstring), so the map stores none of them.
    """

    source: EmInstance
    gadget: TkpmInstance

    @property
    def threshold(self) -> int:
        return 2 * self.gadget.k + self.source.k    # 4R + k, as k' = 2R


def _edge_ids(gadget_map: GadgetMap) -> tuple[list[range], range]:
    """The gadget's edge ids in construction order (see the module
    docstring): the columns p1..p5 over all paths, and the forced edges."""
    m, k = len(gadget_map.source.graph.edges), gadget_map.source.k
    return [range(j, 5 * m, 5) for j in range(5)], range(5 * m, 5 * m + k)


def _gadget_tables(gadget_map: GadgetMap) -> dict:
    """The four tables the search reads off the gadget graph, keyed by
    their WeightedGraph names and equal to what its generic builders give,
    read off the construction order (see the module docstring) in one pass
    over the source edges."""
    graph, k = gadget_map.source.graph, gadget_map.source.k
    reds = graph.edge_classes
    # the distinct weights heaviest first, and in them the classes of a
    # blue path, of a red path (0, 2, 3, 2, 0) and of a forced edge
    if 1 in reds:
        class_weights, path_classes, forced_class = (3, 2, 0), ((2,) * 5, (2, 1, 0, 1, 2)), 1
    else:
        # every path is blue, weight 0: the lightest class, after 2 when k > 0
        class_weights = (_FORCED_EDGE_WEIGHT,) * (k > 0) + (0,) * (len(reds) > 0)
        path_classes, forced_class = ((len(class_weights) - 1,) * 5, None), 0
    path_weights = (_BLUE_PATH_WEIGHTS, _RED_PATH_WEIGHTS)
    # a source vertex gets (p1, a) or (p5, a + 3) per edge end, in edge
    # order, so its ids ascend; the other vertices have fixed entries
    ends: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    rest: list[tuple[tuple[int, int], ...]] = []
    a, p = graph.n, 0    # the path's first subdivision vertex and edge id
    for u, v, _ in graph.edges:
        b, c, d = a + 1, a + 2, a + 3
        q, r, s, t = p + 1, p + 2, p + 3, p + 4
        ends[u].append((p, a))
        ends[v].append((t, d))
        rest += (((p, u), (q, b)), ((q, a), (r, c)), ((r, b), (s, d)), ((s, c), (t, v)))
        a += 4
        p += 5
    for _ in range(k):
        # forced edge p joins a and a + 1
        rest += (((p, a + 1),), ((p, a),))
        a += 2
        p += 1
    return {
        "weights": (tuple(chain.from_iterable(map(path_weights.__getitem__, reds)))
                    + (_FORCED_EDGE_WEIGHT,) * k),
        "class_weights": class_weights,
        "edge_classes": (tuple(chain.from_iterable(map(path_classes.__getitem__, reds)))
                         + (forced_class,) * k),
        "adjacency": (*map(tuple, ends), *rest),
    }


def gadgetize(instance: EmInstance) -> tuple[TkpmInstance, GadgetMap]:
    """Build the weighted gadget instance and its lift/project map.

    The gadget has n + 4m + 2k vertices and 5m + k edges, all weights in
    {0, 2, 3}, asks for the top 2R weights, and decides against threshold
    4R + k, where R is the number of red source edges. Raises ValueError
    for a negative k, which has no gadget.
    """
    graph, k = instance.graph, instance.k
    if k < 0:
        raise ValueError("k must be non-negative")
    n, m = graph.n, len(graph.edges)
    num_red = graph.num_red

    edges: list[tuple[int, int, int]] = []
    for i, ((u, v, _), red) in enumerate(zip(graph.edges, graph.edge_classes)):
        a = n + 4 * i
        w = _RED_PATH_WEIGHTS if red else _BLUE_PATH_WEIGHTS
        edges.append((u, a, w[0]))
        edges.append((a, a + 1, w[1]))
        edges.append((a + 1, a + 2, w[2]))
        edges.append((a + 2, a + 3, w[3]))
        edges.append((v, a + 3, w[4]))

    first_forced_vertex = n + 4 * m
    for j in range(k):
        x = first_forced_vertex + 2 * j
        edges.append((x, x + 1, _FORCED_EDGE_WEIGHT))

    gadget = TkpmInstance(WeightedGraph(n + 4 * m + 2 * k, edges), 2 * num_red)
    return gadget, GadgetMap(instance, gadget)


def lift_matching(matching: Matching, gadget_map: GadgetMap) -> Matching:
    """Map a perfect matching of the source graph to the corresponding
    perfect matching of the gadget graph.

    Matched source edges contribute p1, p3, p5 of their path; unmatched
    ones p2, p4; all forced edges are included, and the ids come out in
    ascending order. Raises ValueError when the input is not a perfect
    matching of the source graph.
    """
    if not is_perfect_matching(gadget_map.source.graph, matching):
        raise ValueError("not a perfect matching of the source graph")
    in_matching = set(matching)
    columns, forced = _edge_ids(gadget_map)
    lifted: list[int] = []
    for i, (p1, p2, p3, p4, p5) in enumerate(zip(*columns)):
        if i in in_matching:
            lifted += (p1, p3, p5)
        else:
            lifted += (p2, p4)
    lifted += forced
    return tuple(lifted)


def project_matching(matching: Matching, gadget_map: GadgetMap) -> Matching:
    """Map a perfect matching of the gadget graph back to the source graph:
    source edge i is matched exactly when the middle edge of its path is.

    The projection always checks: every path must show one of the two
    legal patterns ({p1, p3, p5} or {p2, p4}) and all forced edges must be
    present. Every perfect matching of a gadget built by gadgetize passes,
    so only a doctored gadget fails; that, or an input that is not a perfect
    matching of the gadget graph, raises ValueError.
    """
    if not is_perfect_matching(gadget_map.gadget.graph, matching):
        raise ValueError("not a perfect matching of the gadget graph")
    in_matching = set(matching)
    columns, forced = _edge_ids(gadget_map)
    projected: list[int] = []
    for i, (p1, p2, p3, p4, p5) in enumerate(zip(*columns)):
        if p3 in in_matching:
            projected.append(i)
            legal = (p1 in in_matching and p5 in in_matching
                     and p2 not in in_matching and p4 not in in_matching)
        else:
            legal = (p2 in in_matching and p4 in in_matching
                     and p1 not in in_matching and p5 not in in_matching)
        if not legal:
            raise ValueError(f"corrupted path pattern at source edge {i}")
    if not in_matching.issuperset(forced):
        raise ValueError("forced edge missing from gadget matching")
    return tuple(projected)


def lifted_value(gadget_map: GadgetMap, matching: Matching) -> int:
    """Top-k' weight of the lift of a perfect source matching."""
    lifted = lift_matching(matching, gadget_map)
    return top_k_weight(gadget_map.gadget.graph.weights, lifted, gadget_map.gadget.k)


def decide_em_via_tkpm(instance: EmInstance,
                       max_nodes: Optional[int] = None) -> bool:
    """Decide exact matching through the gadget: build it and ask whether
    some perfect matching reaches the threshold 4R + k on its top-k' weight.

    This is gadgetize plus the threshold decision tkpm_reaches, which stops
    at the first gadget matching that reaches the threshold. The gadget's
    forced edges are settled in one initial forced-move pass, before any
    branching. Since no gadget matching exceeds the threshold, a first hit
    is also optimal. A gadget without any perfect matching decides no, and
    so do a k that red_counts rules out and a source graph with a vertex
    without an edge, with no gadget built. Budget exhaustion propagates.
    """
    graph = instance.graph
    if not red_counts("em", instance) or 2 * len(graph.edges) < graph.n:
        # the tables below hold a list per vertex: before any per-vertex work
        return False
    gadget, gadget_map = gadgetize(instance)
    # cached_property keeps each table in the graph's __dict__, so entries
    # stored there are what the search reads, in place of the generic
    # builders; the gadget is this call's own and is dropped with it
    vars(gadget.graph).update(_gadget_tables(gadget_map))
    return tkpm_reaches(gadget, gadget_map.threshold, max_nodes)


def format_gadget_map(gadget_map: GadgetMap) -> str:
    """Deterministic sidecar text for a reduction: one header, one line of
    path edge ids per source edge, one line of forced-edge ids."""
    columns, forced = _edge_ids(gadget_map)
    m, k = len(columns[0]), len(forced)
    # rows (i, p1, ..., p5), all written by one %-format
    rows = tuple(chain.from_iterable(zip(range(m), *columns)))
    return (f"p map {m} {k} {gadget_map.gadget.k} {gadget_map.threshold}\n"
            + "g %s %s %s %s %s %s\n" * m % rows
            + " ".join(map(str, ("ek", k, *forced))) + "\n")
