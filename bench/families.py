"""Seeded instance families whose answers are known by construction.

Every generator takes a random.Random and returns the instance together
with its truth, so the benchmark can check a verdict without asking
another engine. self_check() compares each construction's truth with the
brute-force oracles at sizes where those are cheap.

Families:
- planted_yes: random bipartite graph with a planted perfect matching, k
  set to the planted matching's red count (EM is a sure yes).
- red_set: random bipartite graph with a planted perfect matching whose red
  edges are exactly the edges at a set S of left vertices. Every perfect
  matching covers each left vertex once, so every one has |S| red edges:
  EM is yes iff k == |S|, CPM iff k = |S| mod 2, BCPM iff also |S| <= k.
- chain: a path, then c squares, each followed by a path, joined in series
  and starting at a degree-one vertex. Forced moves fix every path, each
  square matches internally in two ways and no joining edge is ever
  matched, so there are exactly 2^c perfect matchings and their red counts
  are exactly base..base+c, where base counts the red path edges in the
  forced part.
- ladder: the 2 x L grid, which always has a perfect matching (the rungs);
  a search that branches on the lowest corner removes one rung per level,
  so its depth grows with L.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from exactmatch.graphs import BLUE, RED, ColoredGraph, EmInstance

EDGES_PER_VERTEX = 3.5         # m ~ 3.5 n for the bipartite families


@dataclass(frozen=True)
class Bipartite:
    """A bipartite instance with EM, CPM and BCPM truth at its k."""

    instance: EmInstance
    em: bool
    cpm: bool
    bcpm: bool


@dataclass(frozen=True)
class Chain:
    """A path-and-square chain: red counts of its perfect matchings are
    exactly base..base+squares."""

    graph: ColoredGraph
    base: int
    squares: int

    def em_truth(self, k: int) -> bool:
        return self.base <= k <= self.base + self.squares


def _relabel(n: int, edges, rng: random.Random) -> ColoredGraph:
    """Shuffle vertex ids and edge order so no engine sees the construction
    order; normalise each edge to u < v."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(min(perm[u], perm[v]), max(perm[u], perm[v]), c) for u, v, c in edges]
    rng.shuffle(out)
    return ColoredGraph(n, tuple(out))


def _bipartite_pairs(n: int, rng: random.Random) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Left side 0..h-1, right side h..n-1: a planted perfect matching and
    the whole edge set of about 3.5 n edges, in sorted order."""
    h = n // 2
    right = list(range(h, n))
    rng.shuffle(right)
    planted = [(i, right[i]) for i in range(h)]
    target = min(h * h, round(EDGES_PER_VERTEX * n))
    pairs = set(planted)
    while len(pairs) < target:
        pairs.add((rng.randrange(h), rng.randrange(h, n)))
    return planted, sorted(pairs)


def planted_yes(n: int, rng: random.Random) -> Bipartite:
    """Random colours; k is the planted matching's red count."""
    planted, pairs = _bipartite_pairs(n, rng)
    colour = {p: RED if rng.random() < 0.5 else BLUE for p in pairs}
    k = sum(1 for p in planted if colour[p] == RED)
    graph = _relabel(n, [(u, v, colour[(u, v)]) for u, v in pairs], rng)
    return Bipartite(EmInstance(graph, k), em=True, cpm=True, bcpm=True)


def red_set(n: int, rng: random.Random, s: Optional[int] = None,
            k: Optional[int] = None) -> Bipartite:
    """Red edges are those at a random set S of s left vertices. s defaults
    to a uniform size and k to a uniform value other than s, which makes
    EM a sure no."""
    h = n // 2
    _, pairs = _bipartite_pairs(n, rng)
    if s is None:
        s = rng.randint(0, h)
    red_left = set(rng.sample(range(h), s))
    if k is None:
        k = rng.choice([x for x in range(h + 1) if x != s])
    graph = _relabel(n, [(u, v, RED if u in red_left else BLUE) for u, v in pairs], rng)
    cpm = k % 2 == s % 2
    return Bipartite(EmInstance(graph, k), em=k == s, cpm=cpm, bcpm=cpm and s <= k)


def chain(n_target: int, squares: int, rng: random.Random) -> Chain:
    """About n_target vertices: squares + 1 paths of even length split the
    vertices left over after the squares, in random proportions."""
    path_vertices = n_target - 4 * squares
    if path_vertices < 2 * (squares + 1):
        raise ValueError("too few vertices for that many squares")
    pieces = squares + 1
    cuts = sorted(rng.sample(range(1, path_vertices // 2), pieces - 1))
    lengths = [2 * (b - a) for a, b in zip([0] + cuts, cuts + [path_vertices // 2])]
    edges: list[tuple[int, int, str]] = []
    base = 0
    nxt = 0
    prev: Optional[int] = None        # vertex the next piece attaches to
    for i, length in enumerate(lengths):
        first = nxt
        for j in range(length - 1):
            colour = RED if rng.random() < 0.5 else BLUE
            edges.append((first + j, first + j + 1, colour))
            if j % 2 == 0 and colour == RED:
                base += 1          # p1p2, p3p4, ... form the forced matching
        if prev is not None:
            edges.append((prev, first, BLUE))
        nxt = first + length
        prev = nxt - 1
        if i < squares:
            a, b, c, d = nxt, nxt + 1, nxt + 2, nxt + 3
            edges += [(a, b, RED), (b, c, BLUE), (c, d, BLUE), (d, a, BLUE),
                      (prev, a, BLUE)]
            nxt += 4
            prev = c               # leave through the corner opposite the entry
    return Chain(_relabel(nxt, edges, rng), base, squares)


def ladder(rungs: int, rng: random.Random) -> ColoredGraph:
    """The 2 x rungs grid with random colours, numbered rung by rung as a
    user would write it; rung i joins vertices 2i and 2i + 1."""
    edges = []
    for i in range(rungs):
        edges.append((2 * i, 2 * i + 1, RED if rng.random() < 0.5 else BLUE))
        if i + 1 < rungs:
            edges += [(2 * i, 2 * i + 2, RED if rng.random() < 0.5 else BLUE),
                      (2 * i + 1, 2 * i + 3, RED if rng.random() < 0.5 else BLUE)]
    return ColoredGraph(2 * rungs, tuple(edges))


def self_check(seed: int) -> list[str]:
    """Compare each family's truth with brute_em, brute_cpm and brute_bcpm
    at small sizes. Returns one message per mismatch."""
    from exactmatch.engines import (
        brute_bcpm, brute_cpm, brute_em, enumerate_perfect_matchings, has_perfect_matching)

    rng = random.Random(seed)
    problems = []

    def expect(name, got, want):
        if got != want:
            problems.append(f"{name}: construction says {want}, brute force says {got}")

    for n in (4, 6, 8, 10):
        for family in (planted_yes, red_set, red_set, red_set):
            for _ in range(3):
                b = family(n, rng)
                expect(f"{family.__name__} n={n} em", brute_em(b.instance) is not None, b.em)
                expect(f"{family.__name__} n={n} cpm", brute_cpm(b.instance) is not None, b.cpm)
                expect(f"{family.__name__} n={n} bcpm", brute_bcpm(b.instance) is not None, b.bcpm)
    for squares in (0, 1, 3):
        ch = chain(4 * squares + 2 * (squares + 1) + 6, squares, rng)
        expect(f"chain c={squares} matchings", sum(1 for _ in enumerate_perfect_matchings(ch.graph)),
               2 ** squares)
        for k in range(ch.graph.n // 2 + 1):
            expect(f"chain c={squares} k={k}", brute_em(EmInstance(ch.graph, k)) is not None,
                   ch.em_truth(k))
    for rungs in (1, 2, 5):
        expect(f"ladder {rungs}", has_perfect_matching(ladder(rungs, rng)), True)
    return problems
