"""Graph, coloring, weighting, and matching data model.

Vertices are dense integer ids 0..n-1. Edges are stored as an ordered list
of tuples; the id of an edge is its position in that list and never
changes. The constructors keep each edge's endpoints as given: `formats`
normalizes them to u < v on parse and `validate` rejects u > v, but neither
the perfect-matching search nor `canonical_sort_key` relies on the order. A
matching is a sorted tuple of edge ids. Each graph type also sorts its edges into classes, numbered
0..num_classes-1, for the perfect-matching search's running per-class
counts. All types are immutable after construction and all functions here
are pure, so values can be shared freely between workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import lt
from typing import Iterable, Optional, Union

RED = "r"
BLUE = "b"

Matching = tuple[int, ...]


@dataclass(frozen=True)
class ColoredGraph:
    """Simple undirected graph with a red/blue label per edge.

    edges holds (u, v, color) triples with color one of RED or BLUE.
    """

    n: int
    edges: tuple[tuple[int, int, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))

    @property
    def num_red(self) -> int:
        return sum(self.edge_classes)

    # class 1 is red and class 0 blue, so counts[1] is the red count
    num_classes = 2

    @cached_property
    def edge_classes(self) -> tuple[int, ...]:
        """The one reading of the colors: RED is 1, BLUE is 0, and any
        other color raises ValueError naming its edge."""
        classes = []
        try:
            for i, e in enumerate(self.edges):
                c = e[2]
                if c == RED:
                    classes.append(1)
                elif c == BLUE:
                    classes.append(0)
                else:
                    raise ValueError(f"unknown color {c!r} at edge {i}")
        except IndexError:
            raise ValueError(f"edge {i} is not a (u, v, color) triple") from None
        return tuple(classes)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per vertex, the incident (edge id, other endpoint) pairs in
        ascending edge-id order."""
        return _build_adjacency(self.n, self.edges)


@dataclass(frozen=True)
class WeightedGraph:
    """Simple undirected graph with a non-negative integer weight per edge."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))

    @cached_property
    def weights(self) -> tuple[int, ...]:
        try:
            return tuple([e[2] for e in self.edges])
        except IndexError:
            i = next(i for i, e in enumerate(self.edges) if len(e) < 3)
            raise ValueError(f"edge {i} is not a (u, v, weight) triple") from None

    @cached_property
    def class_weights(self) -> tuple[int, ...]:
        """The distinct edge weights, heaviest first: the class of an edge
        is the position of its weight here."""
        return tuple(sorted(set(self.weights), reverse=True))

    @property
    def num_classes(self) -> int:
        return len(self.class_weights)

    @cached_property
    def edge_classes(self) -> tuple[int, ...]:
        rank = {w: c for c, w in enumerate(self.class_weights)}
        return tuple(map(rank.__getitem__, self.weights))

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return _build_adjacency(self.n, self.edges)


Graph = Union[ColoredGraph, WeightedGraph]


# The instance types are slotted: a sweep holds one per (coloring, k), and
# slots save about 40 bytes on each. The graphs keep their __dict__, which
# cached_property needs.
@dataclass(frozen=True, slots=True)
class EmInstance:
    """An exact-matching question: does some perfect matching of the colored
    graph contain exactly k red edges?"""

    graph: ColoredGraph
    k: int


@dataclass(frozen=True, slots=True)
class TkpmInstance:
    """A top-k perfect matching question: maximize the summed weight of the
    k heaviest edges over all perfect matchings."""

    graph: WeightedGraph
    k: int


def _build_adjacency(n, edges):
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        u, v = e[0], e[1]
        adj[u].append((i, v))
        adj[v].append((i, u))
    return tuple(map(tuple, adj))


def _well_formed(graph: Graph) -> bool:
    """validate's edge checks as whole-tuple passes over the columns: True
    only when the per-edge loop would find nothing. Exact types make it
    stricter than the loop (a bool endpoint fails here), never looser."""
    edges = graph.edges
    if not edges:
        return True
    if set(map(len, edges)) != {3}:
        return False
    us, vs, payloads = zip(*edges)
    if isinstance(graph, ColoredGraph):
        payloads_ok = set(map(type, payloads)) == {str} and set(payloads) <= {RED, BLUE}
    else:
        payloads_ok = set(map(type, payloads)) == {int} and min(payloads) >= 0
    return (payloads_ok and set(map(type, chain(us, vs))) == {int}
            and all(map(lt, us, vs)) and min(us) >= 0 and max(vs) < graph.n
            and len(set(zip(us, vs))) == len(edges))


def validate(graph: Graph) -> Optional[str]:
    """Check all structural invariants of a graph.

    Returns None when the graph is well formed, otherwise a message naming
    the first violated invariant and the offending edge. Callers decide
    whether a violation is fatal. A bulk check settles a well-formed graph;
    any other runs the per-edge loop, which alone words the message.
    """
    n = graph.n
    if n < 0:
        return "negative vertex count"
    if _well_formed(graph):
        return None
    is_colored = isinstance(graph, ColoredGraph)
    seen: dict[tuple[int, int], int] = {}
    for i, e in enumerate(graph.edges):
        if len(e) != 3:
            return f"edge {i} is not a (u, v, {'color' if is_colored else 'weight'}) triple"
        u, v, payload = e
        if not isinstance(u, int) or not isinstance(v, int):
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
            if not isinstance(payload, int) or payload < 0:
                return f"negative or non-integer weight at edge {i}"
    return None


def validate_instance(instance: Union[EmInstance, TkpmInstance]) -> Optional[str]:
    """Check instance invariants: the graph must be well formed and k must
    be in range (0 <= k <= n/2 for exact matching, 0 <= k for top-k)."""
    report = validate(instance.graph)
    if report is not None:
        return report
    if instance.k < 0:
        return f"negative k ({instance.k})"
    if isinstance(instance, EmInstance) and instance.k > instance.graph.n // 2:
        return f"k ({instance.k}) exceeds maximum matching size ({instance.graph.n // 2})"
    return None


def as_matching(edge_ids: Iterable[int]) -> Matching:
    """Normalize an iterable of edge ids to a sorted duplicate-free tuple."""
    return tuple(sorted(set(edge_ids)))


def _check_edge_ids(graph: Graph, matching: Iterable[int]) -> Matching:
    m = tuple(matching)
    num_edges = len(graph.edges)
    for eid in m:
        if not 0 <= eid < num_edges:
            raise ValueError(f"edge id {eid} out of range for graph with {num_edges} edges")
    return m


def is_perfect_matching(graph: Graph, matching: Iterable[int]) -> bool:
    """True iff the edges are pairwise vertex-disjoint and cover all vertices.
    A repeated edge id shares its endpoints with itself, so it is never a
    perfect matching.

    Raises ValueError when the matching refers to a nonexistent edge id.
    """
    covered: set[int] = set()
    for eid in _check_edge_ids(graph, matching):
        e = graph.edges[eid]
        u, v = e[0], e[1]
        if u in covered or v in covered:
            return False
        covered.add(u)
        covered.add(v)
    return len(covered) == graph.n


def red_count(graph: ColoredGraph, matching: Iterable[int]) -> int:
    """Number of red edges in a matching of a colored graph."""
    m = _check_edge_ids(graph, matching)
    classes = graph.edge_classes
    return sum(classes[eid] for eid in set(m))


def top_k_weight(weights, edge_ids: Iterable[int], k: int) -> int:
    """Sum of the k largest weights among the given edge ids.

    When k exceeds the number of edges, all weights are summed. Ties between
    equal weights cannot affect the value.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    chosen = sorted((weights[eid] for eid in edge_ids), reverse=True)
    return sum(chosen[:k])
