"""Exhaustive perfect-matching enumeration and brute-force oracles.

Everything here is desk scale: the enumerator visits every perfect matching
of a graph and reports them in a fixed canonical order (the order a
backtracking search produces when it always branches on the lowest-id
uncovered vertex and tries its incident edges in ascending edge-id order),
so witnesses and tie-breaks are reproducible across runs.

Two search engines sit underneath. The default one propagates forced moves
(any uncovered vertex left with a single available edge) and branches on a
most-constrained vertex, which keeps subdivision-heavy graphs cheap. Before
its first branch it settles every forced move in one pass seeded with all
degree-one vertices, so pendant paths and isolated edges cost no search
depth; it stops at once on odd n or a vertex without edges. Its results
are sorted into canonical order before being yielded. When a budget is
given, a plain canonical-order backtracking search runs instead so that
"matchings visited" has its literal streaming meaning; both engines yield
identical sequences on every graph they both complete.

The TkPM decision form, tkpm_reaches, walks the default engine lazily and
stops at the first perfect matching that reaches a threshold; brute_tkpm is
the optimisation oracle that ranks every matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .graphs import (
    RED,
    EmInstance,
    Graph,
    Matching,
    TkpmInstance,
    top_k_weight,
)


class BudgetExhausted(RuntimeError):
    """Enumeration hit a budget cap before finishing; whatever was yielded
    so far may be a strict subset of all perfect matchings."""

    def __init__(self, matchings_seen: int, nodes_seen: int):
        super().__init__(
            f"enumeration budget exhausted after {matchings_seen} matchings "
            f"and {nodes_seen} search nodes")
        self.matchings_seen = matchings_seen
        self.nodes_seen = nodes_seen


@dataclass(frozen=True)
class EnumerationBudget:
    """Caps on the enumeration effort. A cap of None means unlimited."""

    max_matchings: Optional[int] = None
    max_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_matchings is not None and self.max_matchings <= 0:
            raise ValueError("max_matchings must be positive")
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")


def canonical_sort_key(graph: Graph, matching: Matching) -> tuple[int, ...]:
    """Rank of a perfect matching in canonical enumeration order.

    The canonical search emits each edge at its lower endpoint and visits
    vertices in ascending order, so matchings compare by their edge ids
    sorted by lower endpoint, lexicographically.
    """
    edges = graph.edges
    return tuple(eid for _, eid in sorted((edges[eid][0], eid) for eid in matching))


def _iter_canonical(graph: Graph, budget: Optional[EnumerationBudget]) -> Iterator[Matching]:
    """Streaming canonical-order backtracking search with budget accounting."""
    n = graph.n
    adj = graph.adjacency
    max_matchings = budget.max_matchings if budget else None
    max_nodes = budget.max_nodes if budget else None
    covered = bytearray(n)
    chosen: list[int] = []
    yielded = 0
    nodes = 0

    def walk(start: int) -> Iterator[Matching]:
        nonlocal yielded, nodes
        v = start
        while v < n and covered[v]:
            v += 1
        if v == n:
            if max_matchings is not None and yielded == max_matchings:
                raise BudgetExhausted(yielded, nodes)
            yielded += 1
            yield tuple(sorted(chosen))
            return
        nodes += 1
        if max_nodes is not None and nodes > max_nodes:
            raise BudgetExhausted(yielded, nodes)
        covered[v] = 1
        for eid, other in adj[v]:
            if not covered[other]:
                covered[other] = 1
                chosen.append(eid)
                yield from walk(v + 1)
                chosen.pop()
                covered[other] = 0
        covered[v] = 0

    yield from walk(0)


def _iter_unordered(graph: Graph) -> Iterator[Matching]:
    """Fast search over all perfect matchings, in no particular order.

    Forced moves (vertices with exactly one available edge) are applied
    eagerly in cascades: once before the first branch, seeded with every
    vertex of degree one, and again after every branching edge. Branching
    happens on a most-constrained vertex. A self-loop is never matched: it
    keeps its vertex's count at two or more, so the vertex is never forced,
    and the branch skips it.
    """
    n = graph.n
    if n % 2:
        return
    adj = graph.adjacency
    avail = [len(a) for a in adj]
    if 0 in avail:
        return
    covered = bytearray(n)
    chosen: list[int] = []
    uncovered_count = n

    def cascade(next_edge: Optional[tuple[int, int, int]], queue: list[int]):
        """Apply next_edge (if any), then every forced move among the
        queued vertices and those the moves leave with one available edge.
        Returns the dead flag plus the undo log (moves made, vertices
        covered, availability decrements)."""
        nonlocal uncovered_count
        covers: list[int] = []
        decs: list[int] = []
        nmoves = 0
        while True:
            while next_edge is None and queue:
                w = queue.pop()
                if covered[w]:
                    continue
                # a queued vertex whose count hit zero ended the cascade
                # as dead, so w has exactly one edge left
                for e2, x in adj[w]:
                    if not covered[x]:
                        next_edge = (e2, w, x)
                        break
            if next_edge is None:
                return False, nmoves, covers, decs
            eid, a, b = next_edge
            next_edge = None
            covered[a] = 1
            covered[b] = 1
            covers += (a, b)
            uncovered_count -= 2
            chosen.append(eid)
            nmoves += 1
            for x in (a, b):
                for _, w in adj[x]:
                    if not covered[w]:
                        left = avail[w] - 1
                        avail[w] = left
                        decs.append(w)
                        if left == 0:
                            return True, nmoves, covers, decs
                        if left == 1:
                            queue.append(w)

    def walk() -> Iterator[Matching]:
        nonlocal uncovered_count
        if uncovered_count == 0:
            yield tuple(sorted(chosen))
            return
        branch_vertex = -1
        branch_avail = 1 << 30
        for v in range(n):
            if not covered[v]:
                a = avail[v]
                if a < branch_avail:
                    branch_avail = a
                    branch_vertex = v
                    if a <= 1:
                        break
        if branch_avail == 0:
            return
        for eid, other in adj[branch_vertex]:
            if covered[other] or other == branch_vertex:
                continue
            dead, nmoves, covers, decs = cascade((eid, branch_vertex, other), [])
            if not dead:
                yield from walk()
            for w in decs:
                avail[w] += 1
            for x in covers:
                covered[x] = 0
            uncovered_count += len(covers)
            del chosen[len(chosen) - nmoves:]

    dead = cascade(None, [v for v in range(n) if avail[v] == 1])[0]
    if not dead:
        yield from walk()


def enumerate_perfect_matchings(
        graph: Graph,
        budget: Optional[EnumerationBudget] = None,
        ) -> Iterator[Matching]:
    """Yield every perfect matching of the graph exactly once, as sorted
    edge-id tuples, in canonical order.

    Completing normally means the enumeration was exhaustive. When a budget
    cap is hit, BudgetExhausted is raised mid-iteration, so a consumer can
    always tell "complete" apart from "truncated".
    """
    if graph.n % 2:
        return
    if budget is not None:
        yield from _iter_canonical(graph, budget)
        return
    found = list(_iter_unordered(graph))
    found.sort(key=lambda m: canonical_sort_key(graph, m))
    yield from found


def has_perfect_matching(graph: Graph, budget: Optional[EnumerationBudget] = None) -> bool:
    """True iff the graph has at least one perfect matching (early exit on
    the first one found). Budget exhaustion propagates."""
    if graph.n % 2:
        return False
    if budget is not None:
        return next(_iter_canonical(graph, budget), None) is not None
    return next(_iter_unordered(graph), None) is not None


def brute_em(instance: EmInstance) -> Optional[Matching]:
    """First perfect matching in canonical order with exactly k red edges,
    or None when no such matching exists."""
    k = instance.k
    return _brute_first(instance, lambda r: r == k)


def brute_tkpm(instance: TkpmInstance) -> Optional[tuple[Matching, int]]:
    """Perfect matching maximizing the top-k weight, with the maximum value.

    Ties go to the first maximizer in canonical enumeration order. Returns
    None when the graph has no perfect matching.
    """
    graph, k = instance.graph, instance.k
    weights = graph.weights
    best: Optional[Matching] = None
    best_key: Optional[tuple[int, ...]] = None
    best_value = -1
    for matching in _iter_unordered(graph):
        value = top_k_weight(weights, matching, k)
        if value < best_value:
            continue
        key = canonical_sort_key(graph, matching)
        if value > best_value or best_key is None or key < best_key:
            best, best_key, best_value = matching, key, value
    if best is None:
        return None
    return best, best_value


def tkpm_reaches(instance: TkpmInstance, threshold: int) -> bool:
    """Decision form of TkPM: True iff some perfect matching has top-k
    weight at least threshold. Stops at the first such matching, in no
    particular order, so it ranks nothing and finds no optimum."""
    weights, k = instance.graph.weights, instance.k
    return any(top_k_weight(weights, matching, k) >= threshold
               for matching in _iter_unordered(instance.graph))


def _brute_first(instance: EmInstance, accept) -> Optional[Matching]:
    """First perfect matching in canonical order whose red count passes
    accept, or None."""
    graph = instance.graph
    colors = graph.colors
    best: Optional[Matching] = None
    best_key: Optional[tuple[int, ...]] = None
    for matching in _iter_unordered(graph):
        if accept(sum(1 for eid in matching if colors[eid] == RED)):
            key = canonical_sort_key(graph, matching)
            if best_key is None or key < best_key:
                best, best_key = matching, key
    return best


def brute_cpm(instance: EmInstance) -> Optional[Matching]:
    """First perfect matching whose red count has the same parity as k."""
    parity = instance.k % 2
    return _brute_first(instance, lambda r: r % 2 == parity)


def brute_bcpm(instance: EmInstance) -> Optional[Matching]:
    """First perfect matching whose red count has the same parity as k and
    does not exceed k."""
    k = instance.k
    return _brute_first(instance, lambda r: r <= k and r % 2 == k % 2)
