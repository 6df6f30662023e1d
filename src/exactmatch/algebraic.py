"""Randomized algebraic decision of exact matching on bipartite graphs.

Per trial, every edge draws an independent uniform value x_e in GF(p), for
the prime p = 2^30 - 35, and two left-by-right matrices over GF(p) are
built: B from the blue edges and R from the red edges, with x_e in the
cell of edge e (Lovasz 1979). det(B + yR) is a signed sum over perfect
matchings, grouped by red count: its y^k coefficient, as a polynomial in
the x_e, has one distinct multilinear monomial per perfect matching with
k red edges, so it is nonzero exactly when such a matching exists. Each
trial gets all coefficients at once. y appears only in the r kept
columns, those that hold a red cell; one forward elimination of the
other, free columns leaves the kept columns' Schur complement, an r x r
pencil S_B + yS_R, with det(B + yR) a constant times det(S_B + yS_R).
For a shift c that makes A = S_B + cS_R nonsingular, one elimination of
[A | S_R] gives det(A) and M = A^-1 S_R, and det(A + zS_R) =
det(A) det(I + zM) is read off the characteristic polynomial of M, which
a Hessenberg reduction yields in O(r^3); z = y - c shifts it back. Which
columns are free or kept, whether to read the matrices transposed, and
where each edge's value goes depend on the graph alone, so a decision
works them out once for all its trials; each trial then draws its values
at getrandbits speed, exactly as rng.randrange(p) would.

A nonzero y^k coefficient certifies a matching with k red edges, so a
"yes" is always sound. By the Schwartz-Zippel lemma a trial misses a
yes-instance with probability at most (n/2)/p; "no" answers report the
conservative one-sided error bound 2^-trials.

Cancellation is real: an unlucky draw can zero the coefficient of a
nonzero polynomial, so a zero value never proves the absence of a
perfect matching.

symbolic_determinant keeps an exact big-integer route, with isolation
weights 2^w in place of field values, as a reference that tests and
demos compare against: one integer determinant at y = 2^s, read back as
a tuple of integer coefficients.

Parity matching (red count congruent to k mod 2, optionally bounded by k)
is decided here as well, by one exact-matching query per red count that
engines.red_counts lists for the problem. One coefficient vector answers
every red count, so while a parity decision runs, its queries share their
vectors: a trial that draws the same values on the same cells as an
earlier query of the same decision reuses that query's vector instead of
eliminating again.
"""

from __future__ import annotations

import math
import random
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

from .engines import brute_em, red_counts
from .graphs import ColoredGraph, EmInstance, Matching

DEFAULT_TRIALS = 40
PRIME = (1 << 30) - 35      # below 2^30, so every residue is one CPython digit
_BITS = PRIME.bit_length()

WeightAssignment = tuple[int, ...]

# Coefficient vectors computed during the current parity decision: one dict
# per (cells, size), from a trial's drawn values to its vector; None
# outside a parity decision.
_shared_vectors: ContextVar[Optional[dict]] = ContextVar("_shared_vectors", default=None)


@dataclass(frozen=True)
class EmDecision:
    """Outcome of the randomized decider.

    A True answer is certified. A False answer is "probably no" with the
    stated one-sided error bound, which stays positive however many trials
    ran; it is exact (bound 0.0, trials_run 0) only when the instance
    structurally admits no perfect matching with k red edges (fewer than
    n/2 edges, unequal sides, k outside 0..n/2, or k above the number of
    red edges). The transcript records, per trial, the GF(p) values
    drawn for the edges and whether the inspected coefficient was nonzero.
    """

    answer: bool
    error_bound: float
    transcript: tuple[tuple[WeightAssignment, bool], ...]

    @property
    def trials_run(self) -> int:
        return len(self.transcript)

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


class NotBipartite(ValueError):
    """The algebraic decider was given a graph with an odd cycle."""


def find_bipartition(graph: ColoredGraph) -> Optional[tuple[int, ...]]:
    """Two-color the graph by breadth-first search: each vertex's side, 0
    for left and 1 for right, or None when an odd cycle makes that
    impossible. Isolated vertices land on the left side."""
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
    return tuple(sides)


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


def _cells(graph: ColoredGraph, sides: tuple[int, ...]) -> tuple[tuple[int, int, bool], ...]:
    """(row, column, is red) of each edge's matrix cell, in edge order.

    Rows are the left-side (side 0) vertices in ascending id order,
    columns the right side (side 1).
    """
    if len(sides) != graph.n:
        raise ValueError(f"bipartition has {len(sides)} sides "
                         f"for a graph on {graph.n} vertices")
    for v, side in enumerate(sides):
        if side != 0 and side != 1:
            raise ValueError(f"bipartition puts vertex {v} on side {side!r}, not 0 or 1")
    left = [v for v, side in enumerate(sides) if side == 0]
    right = [v for v, side in enumerate(sides) if side == 1]
    if len(left) != len(right):
        raise ValueError("bipartition sides differ in size, determinant undefined")
    index = {v: i for part in (left, right) for i, v in enumerate(part)}
    cells = []
    for eid, ((u, v, _), red) in enumerate(zip(graph.edges, graph.edge_classes)):
        if sides[u] == sides[v]:
            raise ValueError(f"bipartition does not separate edge {eid}")
        lu, rv = (u, v) if sides[u] == 0 else (v, u)
        cells.append((index[lu], index[rv], bool(red)))
    return tuple(cells)


def determinant(rows: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (1 when empty), by
    Bareiss fraction-free elimination with row pivoting: every intermediate
    entry is a minor of the input, so each division is exact."""
    a = [list(row) for row in rows]
    n = len(a)
    sign = prev = 1
    for col in range(n - 1):
        pivot_row = next((r for r in range(col, n) if a[r][col]), None)
        if pivot_row is None:
            return 0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            sign = -sign
        row_p = a[col]
        pivot = row_p[col]
        for row_r in a[col + 1:]:
            arc = row_r[col]
            for c in range(col + 1, n):
                row_r[c] = (row_r[c] * pivot - arc * row_p[c]) // prev
        prev = pivot
    return sign * a[-1][-1] if a else 1


def symbolic_determinant(
        graph: ColoredGraph,
        sides: tuple[int, ...],
        weights: WeightAssignment,
        ) -> tuple[int, ...]:
    """Exact determinant of the weighted bipartite adjacency matrix, as a
    polynomial in the red-marker variable y: its integer coefficients,
    lowest power first, with no trailing zero, so () is the zero
    polynomial.

    sides holds each vertex's side, 0 for left and 1 for right, as
    find_bipartition returns it. Rows are the left-side vertices in
    ascending id order, columns the right side; the entry for edge e is
    2^w_e * y^(1 if e is red), and parallel edges add up. The coefficient
    of y^j is the signed sum of 2^(total weight) over perfect matchings
    with exactly j red edges.

    No coefficient exceeds, in absolute value, the permanent of B + R, and
    so the product of its row sums, bound. Kronecker substitution at
    y = 2^s, s = bound.bit_length() + 1, gives one integer det(B + 2^s R)
    whose balanced base-2^s digits are the coefficients.
    """
    cells = _cells(graph, sides)
    if len(weights) != len(graph.edges):
        raise ValueError("need exactly one weight per edge")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    size = graph.n // 2
    blue = [[0] * size for _ in range(size)]
    red = [[0] * size for _ in range(size)]
    for (r, c, is_red), w in zip(cells, weights):
        (red if is_red else blue)[r][c] += 1 << w
    bound = math.prod(sum(b) + sum(q) for b, q in zip(blue, red))
    shift = bound.bit_length() + 1
    value = determinant([[b + (q << shift) for b, q in zip(blue_row, red_row)]
                         for blue_row, red_row in zip(blue, red)])
    half = 1 << (shift - 1)
    coeffs = []
    while value:        # ends on a nonzero digit, so no trailing zero
        digit = (value + half) % (1 << shift) - half    # in [-half, half)
        coeffs.append(digit)
        value = (value - digit) >> shift
    return tuple(coeffs)


def _eliminate(rows: list[list[int]], count: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """Forward elimination over GF(PRIME) of the first count columns of
    rows, with row pivoting; consumes rows.

    Returns the signed product of the pivots, 0 when those columns are
    singular; the pivot rows, scaled to a unit pivot and cut past their
    pivot column; and the other rows cut past the count columns, which is
    their Schur complement.
    """
    p = PRIME
    det = 1
    upper = []
    for _ in range(count):
        for i, pivot_row in enumerate(rows):
            if pivot_row[0]:
                break
        else:
            return 0, upper, rows
        del rows[i]
        if i % 2:
            det = -det      # row i moved to the top, past i rows
        pivot = pivot_row[0]
        det = det * pivot % p
        inverse = pow(pivot, -1, p)
        tail = [x * inverse % p for x in pivot_row[1:]]
        upper.append(tail)
        rows = [[(x - row[0] * t) % p for x, t in zip(row[1:], tail)] if row[0] else row[1:]
                for row in rows]
    return det % p, upper, rows


def _solve(a: list[list[int]], rhs: list[list[int]]) -> tuple[int, Optional[list[list[int]]]]:
    """det(A) and A^-1 rhs over GF(PRIME), or (0, None) when A is singular,
    by one elimination of [A | rhs]: forward, then back substitution."""
    p = PRIME
    det, upper, _ = _eliminate([row + extra for row, extra in zip(a, rhs)], len(a))
    if not det:
        return 0, None
    solved: list[list[int]] = []    # rows of A^-1 rhs, the last one first
    for i, tail in enumerate(reversed(upper)):
        row = tail[i:]
        for factor, later in zip(tail[:i], reversed(solved)):
            if factor:
                row = [x - factor * y for x, y in zip(row, later)]
        solved.append([x % p for x in row])
    return det, solved[::-1]


def _charpoly(h: list[list[int]]) -> list[int]:
    """Coefficients, lowest power first, of det(tI - H) over GF(PRIME):
    H is reduced to upper Hessenberg form by similarity, whose leading
    blocks' characteristic polynomials follow from a recurrence (Cohen
    1993, Algorithm 2.2.9); consumes h."""
    p = PRIME
    n = len(h)
    for m in range(1, n - 1):
        for i in range(m, n):
            if h[i][m - 1]:
                break
        else:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        pivot_row = h[m]
        inverse = pow(pivot_row[m - 1], -1, p)
        factors = [h[r][m - 1] * inverse % p for r in range(m + 1, n)]
        # clear column m - 1 below the subdiagonal by row operations, then
        # apply their inverses to the columns, which all add into column m
        for r, factor in enumerate(factors, m + 1):
            if factor:
                h[r] = [(x - factor * y) % p for x, y in zip(h[r], pivot_row)]
        for row in h:
            row[m] = (row[m] + sum(f * x for f, x in zip(factors, row[m + 1:]))) % p
    # polys[m] is the characteristic polynomial of the leading m x m block
    polys = [[1]]
    for m in range(n):
        diagonal = h[m][m]
        poly = [0] + polys[m]
        for j, c in enumerate(polys[m]):
            poly[j] -= diagonal * c
        product = 1
        for i in range(m - 1, -1, -1):
            product = product * h[i + 1][i] % p
            if not product:
                break
            factor = h[i][m] * product % p
            for j, c in enumerate(polys[i]):
                poly[j] -= factor * c
        polys.append([c % p for c in poly])
    return polys[n]


class _Layout(NamedTuple):
    """Where each cell's value goes in the rows [B free | B kept | R kept]
    of a trial: the graph-only part of det(B + yR), the same in every
    trial of a decision.

    A kept column holds a red cell and a free column none, so y never
    reaches a free column. As det(X) = det(X^T), the matrices are read
    transposed when fewer rows than columns hold a red cell, which keeps
    fewer columns. Moving the free columns, in order, ahead of the kept
    ones multiplies the determinant by sign, (-1) to the number of pairs
    of a free column after a kept one.
    """

    slots: tuple[tuple[int, int], ...]      # (row, position in the row) per cell
    free: int
    kept: int
    sign: int

    @classmethod
    def of(cls, cells: tuple[tuple[int, int, bool], ...], size: int) -> _Layout:
        red_rows = {r for r, _, is_red in cells if is_red}
        red_cols = {c for _, c, is_red in cells if is_red}
        if len(red_rows) < len(red_cols):
            cells = [(c, r, is_red) for r, c, is_red in cells]
            red_cols = red_rows
        kept = sorted(red_cols)
        free = [j for j in range(size) if j not in red_cols]
        position = {j: i for i, j in enumerate(free + kept)}
        inversions = sum(f > j for f in free for j in kept)
        r = len(kept)
        return cls(slots=tuple([(row, position[c] + r if is_red else position[c])
                                for row, c, is_red in cells]),
                   free=len(free), kept=r, sign=-1 if inversions % 2 else 1)


def _field_coefficients(layout: _Layout, values: WeightAssignment, degree: int) -> list[int]:
    """Coefficients of det(B + yR) over GF(PRIME) up to y^degree, where
    the value of each blue edge adds into its cell of B and of each red
    edge into its cell of R, placed in the rows by layout, which is
    _Layout.of(cells, size); degree must bound the determinant's degree.

    Forward elimination of the free columns, where y never appears, with
    row operations that do not depend on y, leaves the r kept columns'
    Schur complement, an r x r pencil S_B + yS_R: det(B + yR) is the
    layout's sign times the free pivots' product times det(S_B + yS_R),
    and zero when the free columns are singular. For the first shift c in
    1..r + 1 with A = S_B + cS_R nonsingular, det(A + zS_R) =
    det(A) det(I + zM) with M = A^-1 S_R, and the z^j coefficient of
    det(I + zM) is (-1)^j times the t^(r - j) coefficient of det(tI - M);
    z = y - c then shifts it back. If every shift fails, the pencil's
    determinant, of degree at most r, vanishes at r + 1 points and is zero.
    c = 1 comes first: S_B + S_R is nonsingular exactly when B + R, the
    whole graph, is, which holds for almost every draw when the graph has
    a perfect matching, while B alone is singular whenever the blue edges
    have none.
    """
    p = PRIME
    zero = [0] * (degree + 1)
    kept = layout.kept
    size = layout.free + kept
    rows = [[0] * (size + kept) for _ in range(size)]
    for (r, slot), x in zip(layout.slots, values):
        row = rows[r]
        row[slot] = (row[slot] + x) % p
    scale, _, schur = _eliminate(rows, layout.free)
    if not scale:
        return zero
    pencil_red = [row[kept:] for row in schur]
    for shift in range(1, kept + 2):
        det, solved = _solve([[(b + shift * q) % p for b, q in zip(row[:kept], red)]
                              for row, red in zip(schur, pencil_red)], pencil_red)
        if det:
            break
    else:
        return zero
    det = det * scale * layout.sign
    coeffs = [det * (-c if j % 2 else c) % p for j, c in enumerate(reversed(_charpoly(solved)))]
    # Taylor shift: coefficients in y of the polynomial in z = y - shift
    for i in range(kept):
        for j in range(kept - 1, i - 1, -1):
            coeffs[j] = (coeffs[j] - shift * coeffs[j + 1]) % p
    return (coeffs + zero)[:degree + 1]


def _draw(rng: random.Random, m: int) -> WeightAssignment:
    """m values, each drawn exactly as rng.randrange(PRIME) draws it and
    in the same order: PRIME.bit_length() random bits, drawn again while
    they reach PRIME. It leaves rng in the same state as those m calls,
    without their per-call cost."""
    getrandbits = rng.getrandbits
    values = []
    for _ in range(m):
        x = getrandbits(_BITS)
        while x >= PRIME:
            x = getrandbits(_BITS)
        values.append(x)
    return tuple(values)


def algebraic_em_decide(
        instance: EmInstance,
        trials: int = DEFAULT_TRIALS,
        seed=None,
        ) -> EmDecision:
    """One-sided Monte Carlo decision of exact matching on a bipartite graph.

    Raises NotBipartite on a non-bipartite graph no exact "no" settles first
    (brute_em serves it), and ValueError for trials not an int of at least
    1 (a bool is not one). Same (instance, trials, seed), same transcript.
    """
    if type(trials) is not int:
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    graph, k = instance.graph, instance.k
    exact_no = EmDecision(answer=False, error_bound=0.0, transcript=())
    if 2 * len(graph.edges) < graph.n or not red_counts("em", instance):
        # some vertex has no edge, or red_counts rules k out: before any work
        return exact_no
    sides = find_bipartition(graph)
    if sides is None:
        raise NotBipartite("graph is not bipartite; use brute_em instead")
    if 2 * sum(sides) != graph.n:
        # unequal sides cannot be perfectly matched
        return exact_no
    cells = _cells(graph, sides)
    size = graph.n // 2
    # a perfect matching has n/2 edges, so the determinant's degree in y is
    # at most min(n/2, red edges)
    degree = min(size, sum(red for _, _, red in cells))
    if k > degree:
        # no perfect matching has more red edges than the graph has
        return exact_no
    layout = _Layout.of(cells, size)
    # outside a parity decision, the vectors are shared with no one
    shared = _shared_vectors.get()
    vectors = {} if shared is None else shared.setdefault((cells, size), {})
    rng = random.Random(seed)
    transcript: list[tuple[WeightAssignment, bool]] = []
    for _ in range(trials):
        values = _draw(rng, len(cells))
        coeffs = vectors.get(values)
        if coeffs is None:
            coeffs = vectors[values] = _field_coefficients(layout, values, degree)
        hit = coeffs[k] != 0
        transcript.append((values, hit))
        if hit:
            return EmDecision(answer=True, error_bound=0.0, transcript=tuple(transcript))
    # 2^-trials bounds the true ((n/2)/p)^trials from above; it is floored at
    # the smallest positive float so that a long run of misses never reads
    # as an exact "no"
    return EmDecision(answer=False, error_bound=math.ldexp(1.0, -min(trials, 1074)),
                      transcript=tuple(transcript))


EmDecider = Callable[[EmInstance], Union[EmDecision, Optional[Matching], bool]]


def yes_and_error(result) -> tuple[bool, float]:
    """Read what an EM decider returns as (yes, error bound on a "no"): an
    EmDecision carries its own bound, while a bool, or a witness tuple or
    None, is exact. Any other type raises TypeError, rather than read "yes"."""
    if isinstance(result, EmDecision):
        return result.answer, result.error_bound
    if isinstance(result, bool):
        return result, 0.0
    if result is None or type(result) is tuple:   # () is a genuine witness on n=0
        return result is not None, 0.0
    raise TypeError(f"unknown EM decider result type: {type(result).__name__}")


def _parity_via_em(problem: str, instance: EmInstance,
                   em_decider: Optional[EmDecider]) -> ParityDecision:
    """Ask EM at every red count that answers the problem, cpm or bcpm,
    in the order engines.red_counts lists them.

    The queries share the algebraic decider's coefficient vectors for the
    duration of this call only.
    """
    if em_decider is None:
        em_decider = brute_em
    graph = instance.graph
    queries: list[int] = []
    accumulated_error = 0.0
    scope = _shared_vectors.set({})
    try:
        for kp in red_counts(problem, instance):
            queries.append(kp)
            yes, error = yes_and_error(em_decider(EmInstance(graph, kp)))
            if yes:
                return ParityDecision(answer=True, error_bound=0.0, queries=tuple(queries))
            accumulated_error += error
    finally:
        _shared_vectors.reset(scope)
    return ParityDecision(answer=False, error_bound=min(accumulated_error, 1.0),
                          queries=tuple(queries))


def cpm_via_em(instance: EmInstance, em_decider: Optional[EmDecider] = None) -> ParityDecision:
    """Decide whether some perfect matching has red count congruent to
    k mod 2, by one exact-matching query per red count of that parity in
    0..n/2 (at most floor(n/4) + 1 queries).

    With a randomized decider the "no" side inherits a union-bound error,
    reported in the result; with brute_em the answer is exact.
    """
    return _parity_via_em("cpm", instance, em_decider)


def bcpm_via_em(instance: EmInstance, em_decider: Optional[EmDecider] = None) -> ParityDecision:
    """Bounded variant: the red count must match k's parity and not exceed
    k, so only red counts up to k are queried."""
    return _parity_via_em("bcpm", instance, em_decider)
