"""Seeded random instance generation with a planted perfect matching.

Uniform random graphs at small n rarely have perfect matchings, so every
generated graph starts from a random planted perfect matching and adds a
requested number of distinct extra edges on top. Instances are therefore
never trivially "no" for lack of any perfect matching, and every draw is
reproducible from the seed alone.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

from .graphs import BLUE, RED, ColoredGraph, EmInstance


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random instance draw.

    n must be an even int of at least 2. extra_edges, an int, counts edges
    beyond the planted matching; with bipartite=True the planted matching
    and all extras stay across the fixed split {0..n/2-1} | {n/2..n-1}.
    """

    n: int
    extra_edges: int = 0
    red_prob: float = 0.5
    seed: int = 0
    bipartite: bool = False

    def max_extra_edges(self) -> int:
        half = self.n // 2
        total = half * half if self.bipartite else self.n * (self.n - 1) // 2
        return total - half


def _check_spec(spec: GenSpec) -> None:
    # type, not isinstance: a bool is an int, but no count
    if type(spec.n) is not int:
        raise ValueError(f"n must be an int, got {spec.n!r}")
    if type(spec.extra_edges) is not int:
        raise ValueError(f"extra_edges must be an int, got {spec.extra_edges!r}")
    if spec.n < 2 or spec.n % 2:
        raise ValueError(f"n must be even and >= 2, got {spec.n}")
    if not 0.0 <= spec.red_prob <= 1.0:
        raise ValueError(f"red_prob must be in [0, 1], got {spec.red_prob}")
    if not 0 <= spec.extra_edges <= spec.max_extra_edges():
        raise ValueError(
            f"extra_edges must be in 0..{spec.max_extra_edges()}, got {spec.extra_edges}")


def gen_instance(spec: GenSpec) -> EmInstance:
    """Draw one instance: plant a random perfect matching, add extra_edges
    distinct non-edges, color each edge red with probability red_prob, and
    pick k uniformly from {0..n/2}. Deterministic per seed."""
    _check_spec(spec)
    rng = random.Random(spec.seed)
    n, half = spec.n, spec.n // 2

    if spec.bipartite:
        partners = list(range(half, n))
        rng.shuffle(partners)
        planted = {(i, partners[i]) for i in range(half)}
        lows = [half] * half
    else:
        order = list(range(n))
        rng.shuffle(order)
        planted = set()
        for i in range(half):
            u, v = order[2 * i], order[2 * i + 1]
            planted.add((min(u, v), max(u, v)))
        lows = range(1, n + 1)

    # The candidates, every unplanted pair (u, v) in ascending order, form
    # one row per u: v from lows[u] to n - 1, skipping u's planted mate.
    # Sampling their indices draws what sampling a list of them would, and
    # each index is decoded through the row starts.
    mate = dict(planted)   # lower end -> upper end of each planted pair
    starts = list(accumulate((n - lo - (u in mate) for u, lo in enumerate(lows)), initial=0))
    extras = set()
    for x in rng.sample(range(spec.max_extra_edges()), spec.extra_edges):
        u = bisect_right(starts, x) - 1
        v = lows[u] + x - starts[u]
        extras.add((u, v + (mate.get(u, n) <= v)))
    pairs = sorted(planted | extras)
    edges = tuple((u, v, RED if rng.random() < spec.red_prob else BLUE)
                  for u, v in pairs)
    k = rng.randint(0, half)
    return EmInstance(ColoredGraph(n, edges), k)
