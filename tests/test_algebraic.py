"""Randomized algebraic decider tests.

The determinant identity is checked against an enumeration-side oracle:
sum over perfect matchings of sign(M) * 2^w(M) * y^r(M), with the sign
computed from permutation inversions, independently of the elimination
code under test.
"""

import hashlib
import itertools
import math
import random
from collections import Counter

import pytest

import exactmatch.algebraic as algebraic
from exactmatch.algebraic import (
    DEFAULT_TRIALS,
    EmDecision,
    ParityDecision,
    algebraic_em_decide,
    bcpm_via_em,
    cpm_via_em,
    find_bipartition,
    sample_isolation_weights,
    symbolic_determinant,
    yes_and_error,
)
from exactmatch.campaign import Answer
from exactmatch.engines import brute_em, enumerate_perfect_matchings
from exactmatch.generator import GenSpec, gen_instance
from exactmatch.graphs import BLUE, RED, ColoredGraph, EmInstance

C4 = ColoredGraph(4, ((0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
K2_RED = ColoredGraph(2, ((0, 1, RED),))
# perfect matchings {0, 2} with two red edges and {1, 3} with none
C4_RED_02 = ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, RED), (0, 3, BLUE)))
TRIANGLE = ColoredGraph(3, ((0, 1, BLUE), (0, 2, BLUE), (1, 2, BLUE)))


def perm_sign(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return -1 if inv % 2 else 1


def enumeration_polynomial(graph, sides, weights):
    """Sum of sign(M) * 2^w(M) * y^r(M) over all perfect matchings, built
    straight from the enumeration engine rather than any determinant; sides
    gives each vertex's side, 0 for left and 1 for right."""
    left = [v for v, side in enumerate(sides) if side == 0]
    right = [v for v, side in enumerate(sides) if side == 1]
    row = {v: i for i, v in enumerate(left)}
    col = {v: j for j, v in enumerate(right)}
    coeffs = [0] * (len(left) + 1)
    for matching in enumerate_perfect_matchings(graph):
        perm = [0] * len(left)
        wsum = 0
        reds = 0
        for eid in matching:
            u, v, color = graph.edges[eid]
            lu, rv = (u, v) if sides[u] == 0 else (v, u)
            perm[row[lu]] = col[rv]
            wsum += weights[eid]
            reds += color == RED
        coeffs[reds] += perm_sign(perm) * 2 ** wsum
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def test_find_bipartition_c4():
    assert find_bipartition(C4) == (0, 1, 0, 1)


def test_find_bipartition_triangle():
    assert find_bipartition(TRIANGLE) is None


def test_find_bipartition_self_loop_is_odd_cycle():
    assert find_bipartition(ColoredGraph(2, ((0, 1, RED), (1, 1, BLUE)))) is None


def test_find_bipartition_two_components_and_isolated():
    g = ColoredGraph(5, ((0, 1, BLUE), (2, 3, BLUE)))
    sides = find_bipartition(g)
    assert sides is not None
    for u, v, _ in g.edges:
        assert sides[u] != sides[v]
    assert sides[4] == 0  # isolated vertices go left


def test_find_bipartition_every_edge_crosses():
    rng = random.Random(41)
    for seed in range(30):
        inst = gen_instance(GenSpec(n=8, extra_edges=rng.randint(0, 8),
                                    seed=seed, bipartite=True))
        sides = find_bipartition(inst.graph)
        assert sides is not None
        for u, v, _ in inst.graph.edges:
            assert sides[u] != sides[v]


def test_weights_single_edge_range():
    seen = {sample_isolation_weights(1, seed)[0] for seed in range(40)}
    assert seen == {1, 2}


def test_weights_deterministic_per_seed():
    assert sample_isolation_weights(6, 123) == sample_isolation_weights(6, 123)
    assert sample_isolation_weights(6, 123) != sample_isolation_weights(6, 124)


def test_weights_distribution_m5():
    rng = random.Random(0)
    counts = Counter()
    draws = 10_000
    for _ in range(draws):
        counts.update(sample_isolation_weights(5, rng))
    total = draws * 5
    for value in range(1, 11):
        assert abs(counts[value] / total - 0.1) < 0.02
    assert set(counts) == set(range(1, 11))


def test_weights_need_an_edge():
    with pytest.raises(ValueError):
        sample_isolation_weights(0)


def test_symbolic_determinant_single_red_edge():
    sides = find_bipartition(K2_RED)
    assert symbolic_determinant(K2_RED, sides, (1,)) == (0, 2)


def test_symbolic_determinant_single_blue_edge():
    g = ColoredGraph(2, ((0, 1, BLUE),))
    sides = find_bipartition(g)
    assert symbolic_determinant(g, sides, (2,)) == (4,)


def test_symbolic_determinant_adds_parallel_edges():
    # both edges of the pair are perfect matchings of K2, one red, one blue
    g = ColoredGraph(2, ((0, 1, RED), (0, 1, BLUE)))
    sides = find_bipartition(g)
    assert symbolic_determinant(g, sides, (1, 2)) == (4, 2)
    # a second blue edge on the pair adds into the same blue cell
    g = ColoredGraph(2, ((0, 1, RED), (0, 1, BLUE), (0, 1, BLUE)))
    assert symbolic_determinant(g, sides, (1, 2, 3)) == (12, 2)


def test_symbolic_determinant_no_pm_is_zero():
    g = ColoredGraph(4, ((0, 1, BLUE), (0, 3, BLUE)))
    sides = find_bipartition(g)
    assert sides == (0, 1, 0, 1)
    assert symbolic_determinant(g, sides, (1, 1)) == ()


def test_symbolic_determinant_unbalanced_rejected():
    g = ColoredGraph(3, ((0, 1, BLUE), (0, 2, BLUE)))
    sides = find_bipartition(g)
    with pytest.raises(ValueError, match="differ in size"):
        symbolic_determinant(g, sides, (1, 1))


def test_symbolic_determinant_rejects_a_bipartition_of_another_graph():
    # C4 has perfect matchings, so a 6-vertex classification must not read
    # as a zero determinant, nor a 2-vertex one fail with an IndexError
    for sides in ((0, 1, 0, 1, 0, 1), (0, 1)):
        with pytest.raises(ValueError, match=f"{len(sides)} sides for a graph on 4 vertices"):
            symbolic_determinant(C4, sides, (1, 2, 3, 4))


def test_symbolic_determinant_rejects_a_side_label_other_than_0_or_1():
    # the label 2 used to fail as KeyError: 2 while looking up the row
    path = ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, BLUE)))
    with pytest.raises(ValueError, match="vertex 2 on side 2, not 0 or 1"):
        symbolic_determinant(path, (0, 1, 2, 2), (1, 1, 1))


def test_symbolic_determinant_rejects_a_bipartition_that_does_not_separate_an_edge():
    # vertices 0 and 2 share side 0, and edge 1 joins them
    path = ColoredGraph(4, ((0, 1, RED), (0, 2, BLUE), (2, 3, BLUE)))
    with pytest.raises(ValueError, match="bipartition does not separate edge 1"):
        symbolic_determinant(path, (0, 1, 0, 1), (1, 1, 1))


def test_symbolic_determinant_weight_count_checked():
    sides = find_bipartition(K2_RED)
    with pytest.raises(ValueError, match="one weight per edge"):
        symbolic_determinant(K2_RED, sides, (1, 2))


def test_symbolic_determinant_rejects_negative_weights():
    # 2^-1 would put a float into the integer-exact reference
    sides = find_bipartition(K2_RED)
    with pytest.raises(ValueError, match="non-negative"):
        symbolic_determinant(K2_RED, sides, (-1,))


def test_symbolic_determinant_matches_enumeration():
    rng = random.Random(42)
    for seed in range(60):
        n = rng.choice([2, 4, 6])
        cap = min(n, GenSpec(n=n, bipartite=True).max_extra_edges())
        inst = gen_instance(GenSpec(n=n, extra_edges=rng.randint(0, cap),
                                    seed=seed, bipartite=True))
        g = inst.graph
        sides = find_bipartition(g)
        weights = sample_isolation_weights(len(g.edges), rng)
        assert symbolic_determinant(g, sides, weights) == \
            enumeration_polynomial(g, sides, weights)
    # A lone anti-diagonal matching: its one coefficient is -2^(3+5), exactly
    # minus the product of the row sums that bounds every coefficient, the
    # most negative value the digit decoding has to read back; a lone
    # diagonal matching gives the most positive one.
    for edges, sign in ((((0, 3, RED), (1, 2, BLUE)), -1), (((0, 2, RED), (1, 3, BLUE)), 1)):
        g = ColoredGraph(4, edges)
        sides = find_bipartition(g)
        assert sides == (0, 0, 1, 1)
        assert symbolic_determinant(g, sides, (3, 5)) == \
            enumeration_polynomial(g, sides, (3, 5)) == (0, sign * 2 ** 8)


def test_symbolic_determinant_degree_bounds():
    rng = random.Random(43)
    for seed in range(40):
        inst = gen_instance(GenSpec(n=6, extra_edges=rng.randint(0, 6),
                                    seed=seed, bipartite=True, red_prob=0.7))
        g = inst.graph
        det = symbolic_determinant(g, find_bipartition(g),
                                   sample_isolation_weights(len(g.edges), rng))
        assert len(det) - 1 <= g.num_red
        assert len(det) - 1 <= g.n // 2


def test_cancellation_zero_determinant_with_matchings_present():
    # both perfect matchings of the all-blue C4 have weight sum 2 and
    # opposite sign, so this draw cancels to the zero polynomial
    sides = find_bipartition(C4)
    det = symbolic_determinant(C4, sides, (1, 1, 1, 1))
    assert det == ()
    # only the sound direction holds: the graph does have perfect matchings
    assert len(list(enumerate_perfect_matchings(C4))) == 2


def test_algebraic_decide_yes_is_certified():
    decision = algebraic_em_decide(EmInstance(K2_RED, 1), trials=5, seed=0)
    assert decision.answer is True
    assert decision.error_bound == 0.0
    assert decision.trials_run == 1
    assert len(decision.transcript) == 1
    assert decision.transcript[0][1] is True
    assert bool(decision)


def test_algebraic_decide_no_reports_error_bound():
    decision = algebraic_em_decide(EmInstance(K2_RED, 0), trials=8, seed=0)
    assert decision.answer is False
    assert decision.error_bound == pytest.approx(2.0 ** -8)
    assert decision.trials_run == 8
    assert len(decision.transcript) == 8
    assert not any(hit for _, hit in decision.transcript)
    assert not bool(decision)


def test_algebraic_decide_unbalanced_sides_exact_no():
    star = ColoredGraph(4, ((0, 1, BLUE), (0, 2, BLUE), (0, 3, BLUE)))
    decision = algebraic_em_decide(EmInstance(star, 0), trials=3, seed=1)
    assert decision == EmDecision(answer=False, error_bound=0.0, transcript=())


@pytest.mark.parametrize("k", [-1, 2, 5])
def test_algebraic_decide_red_count_out_of_range_exact_no(k):
    # no perfect matching of n vertices has fewer than 0 or more than n/2
    # red edges, so no trial is needed and the "no" is exact
    decision = algebraic_em_decide(EmInstance(K2_RED, k), trials=5, seed=0)
    assert decision == EmDecision(answer=False, error_bound=0.0, transcript=())


@pytest.mark.parametrize("graph, k", [
    (ColoredGraph(2, ((0, 1, BLUE),)), 1),
    (ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE))), 2),
])
def test_algebraic_decide_k_above_red_edges_exact_no(graph, k):
    # a perfect matching has no more red edges than the graph has
    decision = algebraic_em_decide(EmInstance(graph, k), trials=5, seed=0)
    assert decision == EmDecision(answer=False, error_bound=0.0, transcript=())


def test_algebraic_decide_rejects_non_bipartite():
    with pytest.raises(ValueError, match="not bipartite"):
        algebraic_em_decide(EmInstance(TRIANGLE, 0), trials=1, seed=0)


def test_algebraic_decide_rejects_bad_trials():
    with pytest.raises(ValueError, match="trials must be positive"):
        algebraic_em_decide(EmInstance(K2_RED, 1), trials=0)
    # 1.5 used to fail inside range() as TypeError, and True ran one trial
    for trials in (1.5, True, "2"):
        with pytest.raises(ValueError, match=f"trials must be an int, got {trials!r}"):
            algebraic_em_decide(EmInstance(K2_RED, 1), trials=trials)


def test_algebraic_decide_transcripts_reproducible():
    inst = gen_instance(GenSpec(n=6, extra_edges=4, seed=7, bipartite=True))
    a = algebraic_em_decide(inst, trials=6, seed=99)
    b = algebraic_em_decide(inst, trials=6, seed=99)
    assert a == b
    c = algebraic_em_decide(inst, trials=6, seed=100)
    assert c.transcript != a.transcript


def test_algebraic_decide_sound_against_brute():
    rng = random.Random(44)
    for seed in range(200):
        n = rng.choice([2, 4, 6])
        cap = min(n, GenSpec(n=n, bipartite=True).max_extra_edges())
        inst = gen_instance(GenSpec(n=n, extra_edges=rng.randint(0, cap),
                                    seed=seed, bipartite=True))
        decision = algebraic_em_decide(inst, trials=3, seed=seed)
        if decision.answer:
            assert brute_em(inst) is not None


def test_algebraic_decide_detects_planted_yes():
    detected = 0
    checked = 0
    for seed in range(120):
        inst = gen_instance(GenSpec(n=6, extra_edges=3, seed=seed, bipartite=True))
        if brute_em(inst) is None:
            continue
        checked += 1
        if algebraic_em_decide(inst, trials=20, seed=seed).answer:
            detected += 1
    assert checked >= 30
    assert detected == checked


def test_default_trials_error_bound():
    assert DEFAULT_TRIALS == 40
    decision = algebraic_em_decide(EmInstance(K2_RED, 0), seed=0)
    assert decision.error_bound == pytest.approx(2.0 ** -40)


def test_error_bound_never_underflows():
    # 2.0 ** -trials is 0.0 from 1075 trials on; a "no" must still carry a
    # positive bound, the smallest one a float can hold
    decision = algebraic_em_decide(EmInstance(K2_RED, 0), trials=1100, seed=0)
    assert decision.answer is False and decision.trials_run == 1100
    assert decision.error_bound == math.ldexp(1.0, -1074) > 0.0


def crosscheck_graph(family, seed):
    """A seeded bipartite graph on at most 10 vertices and 14 edges."""
    rng = random.Random(seed)
    n = rng.choice((2, 4, 6, 8, 10))
    extra = rng.randint(0, min(8, GenSpec(n=n, bipartite=True).max_extra_edges()))
    red_prob = {"all_blue": 0.0, "all_red": 1.0}.get(family, 0.4)
    edges = list(gen_instance(GenSpec(n=n, extra_edges=extra, seed=seed,
                                      bipartite=True, red_prob=red_prob)).graph.edges)
    if family == "thinned":       # often leaves no perfect matching
        del edges[rng.randrange(len(edges))]
    elif family == "parallel":    # a red and a blue edge on one vertex pair
        u, v, color = rng.choice(edges)
        edges.append((u, v, BLUE if color == RED else RED))
    return ColoredGraph(n, tuple(edges))


@pytest.mark.parametrize("family", ["mixed", "thinned", "parallel", "all_blue", "all_red"])
def test_field_support_matches_enumeration_and_symbolic_determinant(family):
    # With weight 2^e on edge e, each perfect matching M contributes
    # +-2^(sum of 2^e over M), a power of two no other matching shares, so
    # no coefficient of the symbolic determinant can cancel: its support is
    # exact. The decider, asked at every k with one trial and one seed,
    # inspects one GF(p) coefficient vector.
    graphs = [ColoredGraph(0, ())] + [crosscheck_graph(family, seed) for seed in range(210)]
    for seed, graph in enumerate(graphs):
        h = graph.n // 2
        field = {k for k in range(-1, h + 2)
                 if algebraic_em_decide(EmInstance(graph, k), trials=1, seed=seed).answer}
        enumerated = {sum(graph.edges[e][2] == RED for e in matching)
                      for matching in enumerate_perfect_matchings(graph)}
        sides = find_bipartition(graph)
        symbolic = set()
        if 2 * sum(sides) == graph.n:
            det = symbolic_determinant(graph, sides, tuple(1 << e for e in range(len(graph.edges))))
            symbolic = {k for k, c in enumerate(det) if c}
        assert field == enumerated == symbolic, (family, seed, graph)
    empty = algebraic_em_decide(EmInstance(ColoredGraph(0, ()), 0), trials=3, seed=0)
    assert empty.answer is True and empty.trials_run == 1


def red_set_graph(n, s, seed):
    """A bipartite graph with a planted perfect matching and about 3.5n
    edges, red exactly at a set S of s left vertices; a perfect matching
    covers every left vertex once, so each has s red edges."""
    rng = random.Random(seed)
    h = n // 2
    right = list(range(h, n))
    rng.shuffle(right)
    pairs = {(i, right[i]) for i in range(h)}
    while len(pairs) < round(3.5 * n):
        pairs.add((rng.randrange(h), rng.randrange(h, n)))
    red_left = set(rng.sample(range(h), s))
    return ColoredGraph(n, tuple((u, v, RED if u in red_left else BLUE)
                                 for u, v in sorted(pairs)))


@pytest.mark.parametrize("s", [1, 8, 15])
def test_algebraic_decide_red_set_graph_n32(s):
    graph = red_set_graph(32, s, s)
    assert algebraic_em_decide(EmInstance(graph, s), trials=3, seed=s).answer
    for k in (s - 1, s + 1):
        decision = algebraic_em_decide(EmInstance(graph, k), trials=3, seed=s)
        assert not decision.answer and decision.trials_run == 3


def permutation_coefficients(cells, values, size):
    """det(B + yR) over GF(PRIME) from its definition: over permutations,
    the sign times the product of the chosen cells' blue + y * red sums."""
    blue = [[0] * size for _ in range(size)]
    red = [[0] * size for _ in range(size)]
    for (r, c, is_red), x in zip(cells, values):
        (red if is_red else blue)[r][c] += x
    coeffs = [0] * (size + 1)
    for perm in itertools.permutations(range(size)):
        poly = [perm_sign(perm)]
        for r, c in enumerate(perm):
            if not (blue[r][c] or red[r][c]):
                break
            poly = [blue[r][c] * low + red[r][c] * high
                    for low, high in zip(poly + [0], [0] + poly)]
        else:
            for j, c in enumerate(poly):
                coeffs[j] += c
    return [c % algebraic.PRIME for c in coeffs]


def has_full_column_rank(columns, size):
    """Whether the columns, each a list of size values, are independent
    over GF(PRIME): some choice of as many rows gives a nonzero minor,
    expanded over permutations."""
    width = len(columns)
    for rows in itertools.combinations(range(size), width):
        minor = sum(perm_sign(perm) * math.prod(columns[j][rows[i]] for j, i in enumerate(perm))
                    for perm in itertools.permutations(range(width)))
        if minor % algebraic.PRIME:
            return True
    return False


def layout_paths(cells, values, size):
    """The layout paths an input takes, read from the cells alone: the
    kept columns hold a red cell, after transposing when fewer rows than
    columns do, and the free columns of B are the rest."""
    red_rows = {r for r, _, is_red in cells if is_red}
    red_cols = {c for _, c, is_red in cells if is_red}
    transposed = len(red_rows) < len(red_cols)
    kept = red_rows if transposed else red_cols
    blue = [[0] * size for _ in range(size)]
    for (r, c, is_red), x in zip(cells, values):
        if not is_red:
            blue[c][r] += x         # blue[j] is column j of B
    if transposed:
        blue = [list(row) for row in zip(*blue)]
    free = [blue[j] for j in range(size) if j not in kept]
    paths = set()
    if size and len(kept) == size:
        paths.add("no free column")
    if size and not kept:
        paths.add("no kept column")
    if free and not has_full_column_rank(free, size):
        paths.add("free columns singular")
    if transposed:
        paths.add("transposed")
    return paths


def test_field_coefficients_match_permutation_expansion():
    # Each input takes one of the kernel's paths: B + R nonsingular, so the
    # first shift serves; B + R singular on a nonzero polynomial, so a later
    # shift does; the zero polynomial, where every shift fails; and side 0.
    # The layout adds paths of its own: every column kept, none kept, free
    # columns that are singular, so the zero vector comes before any shift,
    # and matrices read transposed.
    p = algebraic.PRIME
    rng = random.Random(2026)
    paths = Counter()
    for _ in range(500):
        size = rng.randint(0, 6)
        cells = tuple((r, c, rng.random() < 0.5)
                      for r in range(size) for c in range(size)
                      for _ in range(rng.choice((0, 0, 1, 1, 2))))
        values = tuple(rng.choice((0, 1, 2, p - 1, rng.randrange(p))) for _ in cells)
        degree = min(size, sum(is_red for _, _, is_red in cells))
        expected = permutation_coefficients(cells, values, size)
        assert expected[degree + 1:] == [0] * (size - degree)
        got = algebraic._field_coefficients(algebraic._Layout.of(cells, size), values, degree)
        assert got == expected[:degree + 1], (cells, values)
        if size == 0:
            paths["side 0"] += 1
        elif not any(expected):
            paths["zero polynomial"] += 1
        elif sum(expected) % p == 0:
            paths["later shift"] += 1
        else:
            paths["first shift"] += 1
        paths.update(layout_paths(cells, values, size))
    assert set(paths) == {"side 0", "zero polynomial", "later shift", "first shift",
                          "no free column", "no kept column", "free columns singular",
                          "transposed"}, paths


@pytest.mark.parametrize("seed", range(12))
def test_draw_matches_randrange(seed):
    for m in (0, 1, 2, 5, 56, 300):
        fast, slow = random.Random(seed * 1000 + m), random.Random(seed * 1000 + m)
        assert algebraic._draw(fast, m) == tuple(slow.randrange(algebraic.PRIME) for _ in range(m))
        assert fast.getstate() == slow.getstate()


class ScriptedBits(random.Random):
    """A generator whose getrandbits returns a fixed script, recording the
    widths asked for."""

    def __init__(self, script):
        super().__init__(0)
        self.script = list(script)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return self.script.pop(0)


def test_draw_redraws_where_randrange_does():
    # A real generator returns bits at or above PRIME about once in 3e7
    # draws, so only a script reaches the redraw
    p = algebraic.PRIME
    script = [5, p, p + 1, 7, (1 << 30) - 1, p - 1, 0, p, p, p + 2, 3, 11]
    fast, slow = ScriptedBits(script), ScriptedBits(script)
    drawn = algebraic._draw(fast, 5)
    assert drawn == tuple(slow.randrange(p) for _ in range(5)) == (5, 7, p - 1, 0, 3)
    assert fast.widths == slow.widths == [p.bit_length()] * 11
    assert fast.script == slow.script == [11]


def planted_yes_instance():
    """A 16-vertex bipartite graph whose k is the red count of one of its
    perfect matchings."""
    graph = gen_instance(GenSpec(n=16, extra_edges=24, seed=12, bipartite=True)).graph
    first = next(enumerate_perfect_matchings(graph))
    return EmInstance(graph, sum(graph.edges[e][2] == RED for e in first))


# sha256 of repr([(trials_run, transcript), ...]) over every decision of the
# run, and the number of coefficient vectors computed, recorded with a kernel
# that evaluated det(B + yR) at y = 0..d and interpolated: an independent
# route to the same vectors
PINNED_RUNS = {
    "planted-yes": ("63e54e82b314f51c2189427cee9b0fd2"
                    "a8e57bbf2284b768828e11d385a74b73", 1),
    "red-set-no": ("a3ead9f450a2341a73562510e5cae822"
                   "3b7fdaa21f314714aebc7bce01b4b9a1", 40),
    "cpm-via-em": ("1c6cda96bee51e76fd9f4e515b146814"
                   "049d424007c92a5c78cb776d6c656286", 40),
}


@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_decider_transcripts_pinned(monkeypatch, name):
    # Changing how a trial computes its coefficient vector must change no
    # draw, no hit and no memo lookup.
    decisions = []

    def decide(inst):
        decisions.append(algebraic_em_decide(inst, seed=2024))
        return decisions[-1]

    calls = count_field_coefficients(monkeypatch)
    if name == "planted-yes":
        assert decide(planted_yes_instance()).answer
    elif name == "red-set-no":
        assert not decide(EmInstance(red_set_graph(16, 4, 7), 5))
    else:
        assert not cpm_via_em(EmInstance(red_set_graph(16, 3, 8), 0), decide)
    text = repr([(d.trials_run, d.transcript) for d in decisions])
    assert (hashlib.sha256(text.encode()).hexdigest(), len(calls)) == PINNED_RUNS[name]


def test_cpm_via_em_examples():
    yes = cpm_via_em(EmInstance(K2_RED, 1))
    assert yes.answer is True and yes.queries == (1,) and yes.error_bound == 0.0
    no = cpm_via_em(EmInstance(K2_RED, 0))
    assert no.answer is False and no.queries == (0,) and no.error_bound == 0.0
    c4_red0 = ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
    high_k = cpm_via_em(EmInstance(c4_red0, 3))
    assert high_k.answer is True and high_k.queries == (1,)


def test_cpm_via_em_query_plan():
    g = ColoredGraph(8, tuple((2 * i, 2 * i + 1, BLUE) for i in range(4)))
    decision = cpm_via_em(EmInstance(g, 1))
    assert decision.queries == (1, 3)
    assert decision.answer is False
    even = cpm_via_em(EmInstance(g, 6))
    assert even.queries == (0,) and even.answer is True


def test_cpm_via_em_accepts_plain_decider_styles():
    inst = EmInstance(K2_RED, 1)
    by_bool = cpm_via_em(inst, em_decider=lambda i: brute_em(i) is not None)
    by_witness = cpm_via_em(inst, em_decider=brute_em)
    assert by_bool.answer is by_witness.answer is True


def test_cpm_via_em_union_bound_error():
    inst = EmInstance(C4_RED_02, 1)  # both matchings have even red counts
    decider = lambda i: algebraic_em_decide(i, trials=4, seed=0)
    decision = cpm_via_em(inst, em_decider=decider)
    assert decision.answer is False
    assert decision.queries == (1,)
    assert decision.error_bound == pytest.approx(2.0 ** -4)


def test_bcpm_via_em_bounded_queries():
    three_red = ColoredGraph(6, ((0, 1, RED), (2, 3, RED), (4, 5, RED)))
    rejected = bcpm_via_em(EmInstance(three_red, 1))
    assert rejected.answer is False
    assert rejected.queries == (1,)
    accepted = bcpm_via_em(EmInstance(three_red, 3))
    assert accepted.answer is True
    assert accepted.queries == (1, 3)
    unbounded = cpm_via_em(EmInstance(three_red, 1))
    assert unbounded.answer is True


def test_parity_decisions_are_truthy_objects():
    assert isinstance(cpm_via_em(EmInstance(K2_RED, 1)), ParityDecision)
    assert bool(bcpm_via_em(EmInstance(K2_RED, 1)))


def test_yes_and_error_reads_every_result_style():
    decision = algebraic_em_decide(EmInstance(K2_RED, 0), trials=3, seed=0)
    assert yes_and_error(decision) == (False, 2.0 ** -3)
    # no EM decider returns a ParityDecision, so yes_and_error does not read one
    with pytest.raises(TypeError, match="unknown EM decider result type: ParityDecision"):
        yes_and_error(cpm_via_em(EmInstance(K2_RED, 1)))
    assert yes_and_error(True) == (True, 0.0)
    assert yes_and_error(False) == (False, 0.0)
    assert yes_and_error(()) == (True, 0.0)      # the empty witness on n = 0
    assert yes_and_error(None) == (False, 0.0)


@pytest.mark.parametrize("result", [0, "no", Answer(False)], ids=["int", "str", "Answer"])
def test_parity_via_em_rejects_a_decider_result_of_another_type(result):
    # each of these once read as "yes": none is None or a bool, and an
    # Answer, a NamedTuple, is a tuple
    with pytest.raises(TypeError, match=f"unknown EM decider result type: {type(result).__name__}"):
        cpm_via_em(EmInstance(K2_RED, 0), em_decider=lambda i: result)


# every perfect matching has the three red edges, so BCPM at k = 2 asks
# k' = 0 and k' = 2 and both are sure noes that run every trial
THREE_RED_AND_C4 = ColoredGraph(10, (
    (0, 1, RED), (2, 3, RED), (4, 5, RED),
    (6, 7, BLUE), (7, 8, BLUE), (8, 9, BLUE), (6, 9, BLUE)))


def count_field_coefficients(monkeypatch):
    """Patch the per-trial coefficient computation with a call counter."""
    calls = []
    compute = algebraic._field_coefficients

    def counted(*args):
        calls.append(args)
        return compute(*args)

    monkeypatch.setattr(algebraic, "_field_coefficients", counted)
    return calls


def test_parity_queries_share_coefficient_vectors(monkeypatch):
    trials, seed = 6, 5
    decisions = []

    def decider(inst):
        decisions.append(algebraic_em_decide(inst, trials=trials, seed=seed))
        return decisions[-1]

    calls = count_field_coefficients(monkeypatch)
    parity = bcpm_via_em(EmInstance(THREE_RED_AND_C4, 2), decider)
    assert len(calls) == trials       # not one vector per trial per query
    assert parity == ParityDecision(answer=False, error_bound=2 * 2.0 ** -trials,
                                    queries=(0, 2))
    standalone = [algebraic_em_decide(EmInstance(THREE_RED_AND_C4, kp),
                                      trials=trials, seed=seed) for kp in (0, 2)]
    assert decisions == standalone
    assert len(calls) == 3 * trials   # outside the decision nothing is shared


def test_shared_vectors_end_with_their_parity_decision(monkeypatch):
    trials = 4
    inst = EmInstance(THREE_RED_AND_C4, 2)

    def decide(i):
        return algebraic_em_decide(i, trials=trials, seed=3)

    def failing(i):
        if i.k == 2:
            raise RuntimeError("decider failed")
        return decide(i)

    calls = count_field_coefficients(monkeypatch)
    with pytest.raises(RuntimeError, match="decider failed"):
        bcpm_via_em(inst, failing)
    assert len(calls) == trials
    for expected in (2 * trials, 3 * trials):
        decide(EmInstance(THREE_RED_AND_C4, 0))
        assert len(calls) == expected


def test_nested_parity_decision_keeps_its_own_vectors(monkeypatch):
    trials = 3
    inner_graph = ColoredGraph(4, ((0, 1, RED), (2, 3, RED), (1, 2, BLUE)))

    def decide(i):
        return algebraic_em_decide(i, trials=trials, seed=8)

    def outer(i):
        # every perfect matching of inner_graph has two red edges, so its
        # BCPM at k = 1 asks k' = 1 only, a sure no
        assert not bcpm_via_em(EmInstance(inner_graph, 1), decide)
        return decide(i)

    calls = count_field_coefficients(monkeypatch)
    parity = bcpm_via_em(EmInstance(THREE_RED_AND_C4, 2), outer)
    assert parity.answer is False and parity.queries == (0, 2)
    # each nested decision computes its own vectors and drops them on exit,
    # while the outer queries still share theirs
    assert len(calls) == 2 * trials + trials


def test_unseeded_decider_gives_no_false_yes(monkeypatch):
    trials = 5
    calls = count_field_coefficients(monkeypatch)
    parity = bcpm_via_em(EmInstance(THREE_RED_AND_C4, 2),
                         lambda i: algebraic_em_decide(i, trials=trials, seed=None))
    assert parity == ParityDecision(answer=False, error_bound=2 * 2.0 ** -trials,
                                    queries=(0, 2))
    assert len(calls) == 2 * trials   # fresh draws per query share nothing
