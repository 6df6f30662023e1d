"""Exhaustive perfect-matching enumeration and brute-force oracles.

Everything here is desk scale: the enumerator visits every perfect matching
of a graph and reports them in a fixed canonical order (the order a
backtracking search produces when it always branches on the lowest-id
uncovered vertex and tries its incident edges in ascending edge-id order),
so witnesses and tie-breaks are reproducible across runs.

One search yields that order directly. It also settles forced moves (any
uncovered vertex left with a single available edge) in cascades, once
before the first branch and again after every branching edge. A forced
edge lies in every completion of the current partial matching, and every
vertex below the branch vertex is already covered, so all completions
share their canonical-key prefix and the next key entry is the branch
edge: forcing never reorders the output. A forced vertex has exactly one
uncovered neighbour, so a forced move counts down the edges left around
that neighbour alone, where a branching edge counts down around both of
its endpoints. The search keeps its state on an explicit stack, so deep
graphs cost no recursion depth, and it checks its one cap, max_nodes, the
number of edges it places, itself.

A leaf costs constant work. Next to the chosen edges the search keeps a
running count per edge class (red and blue for a colored graph, one class
per distinct weight for a weighted one), raised as edges are placed and
lowered as they are taken back. It knows a leaf by the number of chosen
edges, without a scan, and yields its live state there. The brute solvers
read the red count and the TkPM engines the top-k weight from the counts,
and each sorts only the matching it keeps into a tuple;
enumerate_perfect_matchings sorts every one. Which red counts answer EM,
CPM and BCPM is one rule, red_counts, which every engine of the three
reads; when it leaves no red count, none of them searches.

The TkPM decision form, tkpm_reaches, stops at the first perfect matching
that reaches a threshold; brute_tkpm is the optimisation oracle that ranks
every matching.
"""

from __future__ import annotations

import sys
from typing import Iterator, Optional

from .graphs import EmInstance, Graph, Matching, TkpmInstance


class BudgetExhausted(RuntimeError):
    """Enumeration hit the node cap before finishing; whatever was yielded
    so far may be a strict subset of all perfect matchings."""

    def __init__(self, matchings_seen: int, nodes_seen: int):
        super().__init__(
            f"enumeration budget exhausted after {matchings_seen} matchings "
            f"and {nodes_seen} search nodes")
        self.matchings_seen = matchings_seen
        self.nodes_seen = nodes_seen


def canonical_sort_key(graph: Graph, matching: Matching) -> tuple[int, ...]:
    """Rank of a perfect matching in canonical enumeration order.

    The canonical search emits each edge at its lower endpoint and visits
    vertices in ascending order, so matchings compare by their edge ids
    sorted by lower endpoint, lexicographically. The lower endpoint is
    min(u, v), whichever of the two the edge stores first.
    """
    edges = graph.edges
    return tuple(eid for _, eid in sorted((min(edges[eid][0], edges[eid][1]), eid)
                                          for eid in matching))


def _iter_unordered(graph: Graph, max_nodes: int = sys.maxsize,
                    ) -> Iterator[tuple[list[int], list[int]]]:
    """The perfect-matching search, yielding its leaves in canonical order.

    The name predates the canonical order and stays because the
    benchmark's tracer wraps this function by name, calling it with the
    graph alone, to count the matchings visited.

    At each leaf it yields the live pair (chosen, counts): the placed edge
    ids in placement order, and per edge class of the graph
    (graph.edge_classes) the number of placed edges in it. Both lists
    change as the search goes on, so a consumer decides from counts and
    copies chosen only for a matching it keeps.

    max_nodes caps the edges placed, forced or branched, over the whole
    search (one placed again after backtracking counts again); the
    placement past it raises BudgetExhausted. The default, sys.maxsize, is
    no cap: a search places far fewer edges.

    Forced moves are applied in cascades: once before the first branch,
    seeded with every vertex of degree one, and again after every branching
    edge. A self-loop is never matched: it keeps its vertex's count at two
    or more, so the vertex is never forced, and the branch skips it.
    """
    n = graph.n
    if n % 2 or 2 * len(graph.edges) < n:
        # odd n, or a vertex without an edge (2m < n): before per-vertex work
        return
    adj = graph.adjacency
    edges = graph.edges
    classes = graph.edge_classes
    avail = list(map(len, adj))
    if 0 in avail:
        return
    covered = bytearray(n)
    chosen: list[int] = []
    choose = chosen.append
    counts = [0] * graph.num_classes
    yielded = 0
    nodes = 0

    def force(queue: list[int], decs: list[int]) -> bool:
        """Place every forced move among the queued vertices and those the
        moves leave with one available edge, logging each decremented
        vertex in decs. True when some vertex was left without edges.

        A vertex's count is the number of its adjacency entries whose
        other end is uncovered. So a vertex w, queued when its count fell
        to one and still uncovered when popped, has exactly one uncovered
        neighbour x: a count of zero ends the cascade as dead, a self-loop
        keeps the count at two or more and a parallel pair keeps it at
        two. Once w and x are covered, none of w's entries points to an
        uncovered vertex, so the move counts down around x alone."""
        nonlocal nodes
        dec = decs.append
        push = queue.append
        while queue:
            w = queue.pop()
            if covered[w]:
                continue
            # w's one uncovered neighbour
            for eid, x in adj[w]:
                if not covered[x]:
                    break
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExhausted(yielded, nodes)
            covered[w] = 1
            covered[x] = 1
            choose(eid)
            counts[classes[eid]] += 1
            for _, y in adj[x]:
                if not covered[y]:
                    left = avail[y] - 1
                    avail[y] = left
                    dec(y)
                    if left == 0:
                        return True
                    if left == 1:
                        push(y)
        return False

    def settle(eid: int, a: int, b: int):
        """Place the branching edge eid between a and b, counting down
        around both, then the forced moves it leaves (force). Returns the
        undo log (length of chosen before, vertices whose count was
        decremented) and whether some vertex was left without edges."""
        nonlocal nodes
        decs: list[int] = []
        log = (len(chosen), decs)
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExhausted(yielded, nodes)
        covered[a] = 1
        covered[b] = 1
        choose(eid)
        counts[classes[eid]] += 1
        queue: list[int] = []
        # a's neighbours, then b's: the order fixes the cascade
        for _, w in adj[a] + adj[b]:
            if not covered[w]:
                left = avail[w] - 1
                avail[w] = left
                decs.append(w)
                if left == 0:
                    return log, True
                if left == 1:
                    queue.append(w)
        return log, force(queue, decs)

    def undo(log) -> None:
        mark, decs = log
        for w in decs:
            avail[w] += 1
        for eid in chosen[mark:]:
            edge = edges[eid]
            covered[edge[0]] = 0
            covered[edge[1]] = 0
            counts[classes[eid]] -= 1
        del chosen[mark:]

    def advance(frame: list) -> bool:
        """Take back the frame's current branching edge and place the next
        one that leaves no vertex without edges; False when none is left."""
        b, i, log = frame
        if log is not None:
            undo(log)
        incident = adj[b]
        while i < len(incident):
            eid, other = incident[i]
            i += 1
            if other != b and not covered[other]:
                log, dead = settle(eid, b, other)
                if not dead:
                    frame[1] = i
                    frame[2] = log
                    return True
                undo(log)
        return False

    if force([v for v in range(n) if avail[v] == 1], []):
        return
    stack: list[list] = []   # frames [branch vertex, next adjacency index, undo log]
    v = 0
    while True:
        # every placed edge covers two vertices, so n/2 of them cover all
        if 2 * len(chosen) == n:
            yielded += 1
            yield chosen, counts
        else:
            # some vertex from v on is uncovered
            while covered[v]:
                v += 1
            stack.append([v, 0, None])
        while stack and not advance(stack[-1]):
            stack.pop()
        if not stack:
            return
        # every vertex up to the branch vertex is covered now
        v = stack[-1][0] + 1


def _check_max_nodes(max_nodes: int) -> None:
    # type, not isinstance: a bool is an int, but no cap
    if type(max_nodes) is not int or max_nodes <= 0:
        raise ValueError("max_nodes must be a positive integer")


def _leaves(graph: Graph, max_nodes: Optional[int]):
    """The search's leaves, the one place a cap enters the search, checked
    at the call. The benchmark's tracer wraps _iter_unordered as a
    function of the graph alone, so the cap is passed only when set."""
    if max_nodes is None:
        return _iter_unordered(graph)
    _check_max_nodes(max_nodes)
    return _iter_unordered(graph, max_nodes)


def _top_k(class_weights: tuple[int, ...], counts: list[int], k: int) -> int:
    """top_k_weight of a leaf, from its class counts: k edges taken from
    the heaviest class down; k is non-negative."""
    total = 0
    for weight, count in zip(class_weights, counts):
        if count >= k:
            return total + k * weight
        total += count * weight
        k -= count
    return total


def enumerate_perfect_matchings(
        graph: Graph,
        max_nodes: Optional[int] = None,
        ) -> Iterator[Matching]:
    """Yield every perfect matching of the graph exactly once, as sorted
    edge-id tuples, in canonical order.

    Completing normally means the enumeration was exhaustive. When the node
    cap is hit, BudgetExhausted is raised mid-iteration, so a consumer can
    always tell "complete" apart from "truncated". A cap that is not a
    positive int raises ValueError at the call, before any iteration.
    """
    return (tuple(sorted(chosen)) for chosen, _ in _leaves(graph, max_nodes))


def has_perfect_matching(graph: Graph, max_nodes: Optional[int] = None) -> bool:
    """True iff the graph has at least one perfect matching (early exit on
    the first one found). Budget exhaustion propagates."""
    return next(_leaves(graph, max_nodes), None) is not None


def brute_em(instance: EmInstance,
             max_nodes: Optional[int] = None) -> Optional[Matching]:
    """First perfect matching in canonical order with exactly k red edges,
    or None when no such matching exists. Budget exhaustion propagates."""
    return _brute_first(instance, red_counts("em", instance), max_nodes)


def brute_tkpm(instance: TkpmInstance) -> Optional[tuple[Matching, int]]:
    """Perfect matching maximizing the top-k weight, with the maximum value.

    Ties go to the first maximizer in canonical enumeration order. Returns
    None when the graph has no perfect matching. Raises ValueError for a
    negative k.
    """
    graph, k = instance.graph, instance.k
    if k < 0:
        raise ValueError("k must be non-negative")
    class_weights = graph.class_weights
    best: Optional[Matching] = None
    best_value = 0
    for chosen, counts in _leaves(graph, None):
        value = _top_k(class_weights, counts, k)
        if best is None or value > best_value:
            best, best_value = tuple(sorted(chosen)), value
    if best is None:
        return None
    return best, best_value


def tkpm_reaches(instance: TkpmInstance, threshold: int,
                 max_nodes: Optional[int] = None) -> bool:
    """Decision form of TkPM: True iff some perfect matching has top-k
    weight at least threshold. Stops at the first such matching, so it
    ranks nothing and finds no optimum. Raises ValueError for a negative k;
    budget exhaustion propagates."""
    graph, k = instance.graph, instance.k
    if k < 0:
        raise ValueError("k must be non-negative")
    class_weights = graph.class_weights
    return any(_top_k(class_weights, counts, k) >= threshold
               for _, counts in _leaves(graph, max_nodes))


def red_counts(problem: str, instance: EmInstance) -> range:
    """The red counts of the perfect matchings that answer the problem
    yes, for the SOLVERS problem names em, cpm and bcpm, all in 0..n/2 (a
    perfect matching has n/2 edges): k for em, or none for a k outside;
    for cpm every count of k's parity; for bcpm the same, none above k. The
    brute solvers test a leaf's red count against the range, and the via-EM
    route asks EM at each count in order. An empty range is a "no" that
    every engine gives without a search. Raises ValueError for other names
    and for a k that is not an int (a bool is not one)."""
    k = instance.k
    if type(k) is not int:
        raise ValueError(f"k must be an int, got {k!r}")
    most = instance.graph.n // 2
    if problem == "em":
        return range(k, k + 1 if 0 <= k <= most else k)
    if problem == "bcpm":
        most = min(k, most)
    elif problem != "cpm":
        raise ValueError(f"no red-count rule for problem {problem!r}")
    return range(k % 2, most + 1, 2)


def _brute_first(instance: EmInstance, wanted: range,
                 max_nodes: Optional[int] = None) -> Optional[Matching]:
    """First perfect matching in canonical order whose red count is in
    wanted, or None, which an empty wanted gives without a search."""
    for chosen, counts in _leaves(instance.graph, max_nodes) if wanted else ():
        if counts[1] in wanted:
            return tuple(sorted(chosen))
    return None


def brute_cpm(instance: EmInstance) -> Optional[Matching]:
    """First perfect matching whose red count has the same parity as k."""
    return _brute_first(instance, red_counts("cpm", instance))


def brute_bcpm(instance: EmInstance) -> Optional[Matching]:
    """First perfect matching whose red count has the same parity as k and
    does not exceed k."""
    return _brute_first(instance, red_counts("bcpm", instance))
