"""Randomized algebraic decision of exact matching on bipartite graphs.

Per trial, every edge draws an independent uniform value x_e in GF(p), for
the prime p = 2^30 - 35, and two left-by-right matrices over GF(p) are
built: B from the blue edges and R from the red edges, with x_e in the
cell of edge e (Lovasz 1979). det(B + yR) is a signed sum over perfect
matchings, grouped by red count: its y^k coefficient, as a polynomial in
the x_e, has one distinct multilinear monomial per perfect matching with
k red edges, so it is nonzero exactly when such a matching exists. Each
trial evaluates the determinant by modular elimination at y = 0..d, where
d bounds its degree in y, and recovers the coefficients by Newton
interpolation. A nonzero y^k coefficient certifies a matching with k red
edges, so a "yes" is always sound. By the Schwartz-Zippel lemma a trial
misses a yes-instance with probability at most (n/2)/p; "no" answers
report the conservative one-sided error bound 2^-trials.

Cancellation is real: an unlucky draw can zero the coefficient of a
nonzero polynomial, so a zero value never proves the absence of a
perfect matching.

symbolic_determinant keeps the exact big-integer route, with isolation
weights 2^w in place of field values, as a reference that tests and
demos compare against.

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
PRIME = (1 << 30) - 35      # below 2^30, so every residue is one CPython digit

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
    structurally admits no perfect matching with k red edges (unequal
    sides, or k outside 0..n/2). The transcript records, per trial, the
    GF(p) values drawn for the edges and whether the inspected coefficient
    was nonzero.
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


def _cells(graph: ColoredGraph, bipartition: Bipartition) -> list[tuple[int, int, bool]]:
    """(row, column, is red) of each edge's matrix cell, in edge order.

    Rows are the left-side vertices in ascending id order, columns the
    right side.
    """
    left, right = bipartition.left, bipartition.right
    if len(left) != len(right):
        raise ValueError("bipartition sides differ in size, determinant undefined")
    row = {v: i for i, v in enumerate(left)}
    col = {v: j for j, v in enumerate(right)}
    sides = bipartition.sides
    cells = []
    for eid, (u, v, color) in enumerate(graph.edges):
        if sides[u] == sides[v]:
            raise ValueError(f"bipartition does not separate edge {eid}")
        lu, rv = (u, v) if sides[u] == 0 else (v, u)
        cells.append((row[lu], col[rv], color == RED))
    return cells


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
    cells = _cells(graph, bipartition)
    if len(weights) != len(graph.edges):
        raise ValueError("need exactly one weight per edge")
    size = len(bipartition.left)
    zero = Polynomial.zero()
    matrix = [[zero] * size for _ in range(size)]
    for (r, c, red), w in zip(cells, weights):
        entry = Polynomial.monomial(2 ** w, 1 if red else 0)
        # parallel edges share a matrix entry, so their monomials add up
        matrix[r][c] = entry if matrix[r][c] is zero else matrix[r][c] + entry
    return determinant(matrix)


def _determinant_mod(matrix: list[list[int]]) -> int:
    """Determinant over GF(PRIME) by Gaussian elimination that drops the
    pivot row and column after each step; consumes matrix."""
    p = PRIME
    det = 1
    while matrix:
        for i, pivot_row in enumerate(matrix):
            if pivot_row[0]:
                break
        else:
            return 0
        del matrix[i]
        if i % 2:
            det = -det      # row i moved to the top, past i rows
        pivot = pivot_row[0]
        det = det * pivot % p
        inverse = pow(pivot, -1, p)
        tail = pivot_row[1:]
        reduced = []
        for row in matrix:
            factor = -row.pop(0) * inverse % p
            reduced.append([(a + factor * b) % p for a, b in zip(row, tail)] if factor else row)
        matrix = reduced
    return det


def _interpolate(points: list[int]) -> list[int]:
    """Coefficients, lowest power first, of the polynomial of degree below
    len(points) that takes the value points[y] at y = 0, 1, ... over
    GF(PRIME), by Newton's divided differences."""
    top = len(points) - 1
    diffs = list(points)
    for j in range(1, top + 1):
        inverse = pow(j, -1, PRIME)
        for i in range(top, j - 1, -1):
            diffs[i] = (diffs[i] - diffs[i - 1]) * inverse % PRIME
    # Horner on the Newton form diffs[0] + y (diffs[1] + (y - 1) (diffs[2] + ...))
    coeffs: list[int] = []
    for i in range(top, -1, -1):
        shifted = [0] + coeffs
        for t, c in enumerate(coeffs):
            shifted[t] -= i * c
        shifted[0] += diffs[i]
        coeffs = [c % PRIME for c in shifted]
    return coeffs


def _field_coefficients(cells: list[tuple[int, int, bool]], values: WeightAssignment,
                        size: int, degree: int) -> list[int]:
    """Coefficients of det(B + yR) over GF(PRIME) up to y^degree, where
    the value of each blue edge adds into its cell of B and of each red
    edge into its cell of R; degree must bound the determinant's degree."""
    blue = [[0] * size for _ in range(size)]
    red = [[0] * size for _ in range(size)]
    for (r, c, is_red), x in zip(cells, values):
        matrix = red if is_red else blue
        matrix[r][c] = (matrix[r][c] + x) % PRIME
    return _interpolate([
        _determinant_mod([[(b + y * q) % PRIME for b, q in zip(blue_row, red_row)]
                          for blue_row, red_row in zip(blue, red)])
        for y in range(degree + 1)])


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
    exact_no = EmDecision(answer=False, error_bound=0.0, trials_run=0, transcript=())
    if not bipartition.is_balanced:
        # unequal sides cannot be perfectly matched
        return exact_no
    cells = _cells(graph, bipartition)
    size = len(bipartition.left)
    # a perfect matching has n/2 edges, so the determinant's degree in y is
    # at most min(n/2, red edges)
    degree = min(size, sum(red for _, _, red in cells))
    if not 0 <= k <= degree:
        # no perfect matching has fewer than 0 red edges, or more than n/2
        # or than the graph has
        return exact_no
    rng = random.Random(seed)
    transcript: list[tuple[WeightAssignment, bool]] = []
    for trial in range(trials):
        values = tuple(rng.randrange(PRIME) for _ in cells)
        hit = _field_coefficients(cells, values, size, degree)[k] != 0
        transcript.append((values, hit))
        if hit:
            return EmDecision(answer=True, error_bound=0.0,
                              trials_run=trial + 1, transcript=tuple(transcript))
    # 2^-trials bounds the true ((n/2)/p)^trials from above; it is floored at
    # the smallest positive float so that a long run of misses never reads
    # as an exact "no"
    return EmDecision(answer=False, error_bound=math.ldexp(1.0, -min(trials, 1074)),
                      trials_run=trials, transcript=tuple(transcript))


EmDecider = Callable[[EmInstance], Union[EmDecision, Optional[Matching], bool]]


def yes_and_error(result) -> tuple[bool, float]:
    """Read any engine's result as (yes, error bound on a "no"): an
    EmDecision or ParityDecision carries its own bound, while a bool or a
    witness-or-None answer is exact."""
    if isinstance(result, (EmDecision, ParityDecision)):
        return result.answer, result.error_bound
    if isinstance(result, bool):
        return result, 0.0
    # Witness-or-None style decider; () is a genuine witness on n=0.
    return result is not None, 0.0


def _parity_via_em(instance: EmInstance, em_decider: Optional[EmDecider],
                   top: int) -> ParityDecision:
    """Ask EM at every red count of k's parity from k % 2 up to top."""
    if em_decider is None:
        em_decider = brute_em
    graph, k = instance.graph, instance.k
    queries: list[int] = []
    accumulated_error = 0.0
    for kp in range(k % 2, top + 1, 2):
        queries.append(kp)
        yes, error = yes_and_error(em_decider(EmInstance(graph, kp)))
        if yes:
            return ParityDecision(answer=True, error_bound=0.0, queries=tuple(queries))
        accumulated_error += error
    return ParityDecision(answer=False, error_bound=min(accumulated_error, 1.0),
                          queries=tuple(queries))


def cpm_via_em(instance: EmInstance, em_decider: Optional[EmDecider] = None) -> ParityDecision:
    """Decide whether some perfect matching has red count congruent to
    k mod 2, by one exact-matching query per feasible red count of that
    parity (at most n/2 + 1 queries).

    With a randomized decider the "no" side inherits a union-bound error,
    reported in the result; with brute_em the answer is exact.
    """
    return _parity_via_em(instance, em_decider, instance.graph.n // 2)


def bcpm_via_em(instance: EmInstance, em_decider: Optional[EmDecider] = None) -> ParityDecision:
    """Bounded variant: the red count must match k's parity and not exceed
    k, so only red counts up to k are queried."""
    return _parity_via_em(instance, em_decider, min(instance.k, instance.graph.n // 2))
