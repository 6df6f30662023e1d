"""Randomized algebraic decision of exact matching on bipartite graphs.

Per trial, every edge draws an independent uniform weight w in {1..2m} and
the left-by-right matrix with entry 2^w * y^(1 if the edge is red) is built;
its exact determinant in y is a signed sum over perfect matchings, grouped
by red count. A nonzero coefficient at y^k certifies a matching with k red
edges, so a "yes" is always sound. On a yes-instance, a uniquely isolated
minimum-weight matching makes the smallest power of two in the coefficient
uncancellable, which happens with probability at least 1/2 per trial; "no"
answers therefore carry one-sided error at most 2^-trials.

Cancellation is real: matchings of equal red count and opposite sign can
zero a coefficient for an unlucky weight draw, so a zero determinant never
proves the absence of a perfect matching.

Parity matching (red count congruent to k mod 2, optionally bounded by k)
is decided here as well, by one exact-matching query per feasible red count
of the right parity.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

from .engines import brute_em
from .graphs import RED, ColoredGraph, EmInstance, Matching
from .polynomials import Polynomial, determinant

DEFAULT_TRIALS = 40

WeightAssignment = tuple[int, ...]


@dataclass(frozen=True)
class Bipartition:
    """A two-sided vertex classification; side 0 is left, side 1 is right."""

    sides: tuple[int, ...]

    @cached_property
    def left(self) -> tuple[int, ...]:
        return tuple(v for v, s in enumerate(self.sides) if s == 0)

    @cached_property
    def right(self) -> tuple[int, ...]:
        return tuple(v for v, s in enumerate(self.sides) if s == 1)

    @property
    def is_balanced(self) -> bool:
        return len(self.left) == len(self.right)


@dataclass(frozen=True)
class EmDecision:
    """Outcome of the randomized decider.

    A True answer is certified. A False answer is "probably no" with the
    stated one-sided error bound, which stays positive however many trials
    ran; it is exact (bound 0.0, trials_run 0) only when the instance
    structurally admits no perfect matching. The transcript records, per
    trial, the sampled weights and whether the inspected coefficient was
    nonzero.
    """

    answer: bool
    error_bound: float
    trials_run: int
    transcript: tuple[tuple[WeightAssignment, bool], ...]

    def __bool__(self) -> bool:
        return self.answer


@dataclass(frozen=True)
class ParityDecision:
    """Outcome of a parity-matching decision built from exact-matching
    queries; queries lists the red counts asked, in order."""

    answer: bool
    error_bound: float
    queries: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.answer


def find_bipartition(graph: ColoredGraph) -> Optional[Bipartition]:
    """Two-color the graph by breadth-first search, or None when an odd
    cycle makes that impossible. Isolated vertices land on the left side."""
    sides = [-1] * graph.n
    adj = graph.adjacency
    for root in range(graph.n):
        if sides[root] != -1:
            continue
        sides[root] = 0
        queue = deque((root,))
        while queue:
            v = queue.popleft()
            for _, u in adj[v]:
                if sides[u] == -1:
                    sides[u] = 1 - sides[v]
                    queue.append(u)
                elif sides[u] == sides[v]:
                    return None
    return Bipartition(tuple(sides))


def sample_isolation_weights(m: int, rng: Union[int, random.Random, None] = None) -> WeightAssignment:
    """One independent uniform draw from {1..2m} per edge.

    The range is the smallest for which a unique minimum-weight perfect
    matching exists with probability at least 1/2 over the draw.
    """
    if m < 1:
        raise ValueError("need at least one edge to sample weights for")
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    return tuple(rng.randint(1, 2 * m) for _ in range(m))


def symbolic_determinant(
        graph: ColoredGraph,
        bipartition: Bipartition,
        weights: WeightAssignment,
        ) -> Polynomial:
    """Exact determinant of the weighted bipartite adjacency matrix, as a
    polynomial in the red-marker variable y.

    Rows are the left-side vertices in ascending id order, columns the
    right side; the entry for edge e is 2^w_e * y^(1 if e is red). The
    coefficient of y^j is the signed sum of 2^(total weight) over perfect
    matchings with exactly j red edges.
    """
    left, right = bipartition.left, bipartition.right
    if len(left) != len(right):
        raise ValueError("bipartition sides differ in size, determinant undefined")
    if len(weights) != len(graph.edges):
        raise ValueError("need exactly one weight per edge")
    row = {v: i for i, v in enumerate(left)}
    col = {v: j for j, v in enumerate(right)}
    sides = bipartition.sides
    size = len(left)
    zero = Polynomial.zero()
    matrix = [[zero] * size for _ in range(size)]
    for eid, (u, v, color) in enumerate(graph.edges):
        if sides[u] == sides[v]:
            raise ValueError(f"bipartition does not separate edge {eid}")
        lu, rv = (u, v) if sides[u] == 0 else (v, u)
        entry = Polynomial.monomial(2 ** weights[eid], 1 if color == RED else 0)
        r, c = row[lu], col[rv]
        # parallel edges share a matrix entry, so their monomials add up
        matrix[r][c] = entry if matrix[r][c] is zero else matrix[r][c] + entry
    return determinant(matrix)


def algebraic_em_decide(
        instance: EmInstance,
        trials: int = DEFAULT_TRIALS,
        seed=None,
        ) -> EmDecision:
    """One-sided Monte Carlo decision of exact matching on a bipartite graph.

    Raises ValueError on non-bipartite input; use brute_em for those graphs.
    Identical (instance, trials, seed) always reproduce the same transcript.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    graph, k = instance.graph, instance.k
    bipartition = find_bipartition(graph)
    if bipartition is None:
        raise ValueError("graph is not bipartite; use brute_em instead")
    if not bipartition.is_balanced:
        # Unequal sides cannot be perfectly matched, so "no" is exact here.
        return EmDecision(answer=False, error_bound=0.0, trials_run=0, transcript=())
    m = len(graph.edges)
    rng = random.Random(seed)
    transcript: list[tuple[WeightAssignment, bool]] = []
    for trial in range(trials):
        weights = sample_isolation_weights(m, rng) if m else ()
        det = symbolic_determinant(graph, bipartition, weights)
        hit = det.coeff(k) != 0
        transcript.append((weights, hit))
        if hit:
            return EmDecision(answer=True, error_bound=0.0,
                              trials_run=trial + 1, transcript=tuple(transcript))
    # 2^-trials, floored at the smallest positive float so that a long run
    # of misses never reads as an exact "no"
    return EmDecision(answer=False, error_bound=math.ldexp(1.0, -min(trials, 1074)),
                      trials_run=trials, transcript=tuple(transcript))


EmDecider = Callable[[EmInstance], Union[EmDecision, Optional[Matching], bool]]


def _yes_and_error(result) -> tuple[bool, float]:
    if isinstance(result, EmDecision):
        return result.answer, result.error_bound
    if isinstance(result, bool):
        return result, 0.0
    # Witness-or-None style decider; () is a genuine witness on n=0.
    return result is not None, 0.0


def cpm_via_em(instance: EmInstance, em_decider: Optional[EmDecider] = None) -> ParityDecision:
    """Decide whether some perfect matching has red count congruent to
    k mod 2, by one exact-matching query per feasible red count of that
    parity (at most n/2 + 1 queries).

    With a randomized decider the "no" side inherits a union-bound error,
    reported in the result; with brute_em the answer is exact.
    """
    if em_decider is None:
        em_decider = brute_em
    graph, k = instance.graph, instance.k
    queries: list[int] = []
    accumulated_error = 0.0
    for kp in range(k % 2, graph.n // 2 + 1, 2):
        queries.append(kp)
        yes, error = _yes_and_error(em_decider(EmInstance(graph, kp)))
        if yes:
            return ParityDecision(answer=True, error_bound=0.0, queries=tuple(queries))
        accumulated_error += error
    return ParityDecision(answer=False, error_bound=min(accumulated_error, 1.0),
                          queries=tuple(queries))


def bcpm_via_em(instance: EmInstance, em_decider: Optional[EmDecider] = None) -> ParityDecision:
    """Bounded variant: the red count must match k's parity and not exceed
    k, so only red counts up to k are queried."""
    if em_decider is None:
        em_decider = brute_em
    graph, k = instance.graph, instance.k
    queries: list[int] = []
    accumulated_error = 0.0
    for kp in range(k % 2, min(k, graph.n // 2) + 1, 2):
        queries.append(kp)
        yes, error = _yes_and_error(em_decider(EmInstance(graph, kp)))
        if yes:
            return ParityDecision(answer=True, error_bound=0.0, queries=tuple(queries))
        accumulated_error += error
    return ParityDecision(answer=False, error_bound=min(accumulated_error, 1.0),
                          queries=tuple(queries))
