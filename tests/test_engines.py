"""Enumeration engine tests against an independent counting oracle."""

import itertools
import random
import tracemalloc
from functools import lru_cache

import pytest

from exactmatch import campaign, engines
from exactmatch.algebraic import EmDecision, algebraic_em_decide
from exactmatch.engines import (
    BudgetExhausted,
    brute_bcpm,
    brute_cpm,
    brute_em,
    brute_tkpm,
    canonical_sort_key,
    _iter_unordered,
    enumerate_perfect_matchings,
    has_perfect_matching,
    tkpm_reaches,
)
from exactmatch.generator import GenSpec, gen_instance
from exactmatch.graphs import (
    BLUE,
    RED,
    ColoredGraph,
    EmInstance,
    TkpmInstance,
    WeightedGraph,
    is_perfect_matching,
    red_count,
    top_k_weight,
    validate,
)
from exactmatch.reduction import decide_em_via_tkpm, gadgetize

C4 = ColoredGraph(4, ((0, 1, BLUE), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
K2_RED = ColoredGraph(2, ((0, 1, RED),))


def complete_graph(n, color=BLUE):
    edges = tuple((u, v, color) for u, v in itertools.combinations(range(n), 2))
    return ColoredGraph(n, edges)


def count_pms_oracle(graph):
    """Independent perfect-matching count: bitmask recursion over vertex
    subsets, structurally unrelated to the search engines under test."""
    n = graph.n
    if n % 2:
        return 0
    neighbors = [[] for _ in range(n)]
    for u, v, _ in graph.edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def count(mask):
        if mask == full:
            return 1
        v = 0
        while mask >> v & 1:
            v += 1
        total = 0
        for w in neighbors[v]:
            if not mask >> w & 1:
                total += count(mask | 1 << v | 1 << w)
        return total

    return count(0)


def perfect_matchings_oracle(graph):
    """Independent perfect-matching list: every perfect matching as a sorted
    edge-id tuple, by bitmask recursion over vertex subsets. A self-loop is
    never matched; parallel edges are matched each on its own."""
    n = graph.n
    if n % 2:
        return set()
    incident = [[] for _ in range(n)]
    for eid, (u, v, _) in enumerate(graph.edges):
        if u != v:
            incident[u].append((eid, v))
            incident[v].append((eid, u))
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def completions(mask):
        if mask == full:
            return ((),)
        v = 0
        while mask >> v & 1:
            v += 1
        return tuple((eid,) + rest
                     for eid, w in incident[v] if not mask >> w & 1
                     for rest in completions(mask | 1 << v | 1 << w))

    return {tuple(sorted(m)) for m in completions(0)}


def random_colored_graph(rng, n_max=8, allow_odd=True):
    n = rng.randint(0, n_max)
    if not allow_odd and n % 2:
        n += 1
    pairs = list(itertools.combinations(range(n), 2))
    m = rng.randint(0, len(pairs))
    chosen = rng.sample(pairs, m)
    chosen.sort()
    edges = tuple((u, v, RED if rng.random() < 0.5 else BLUE) for u, v in chosen)
    return ColoredGraph(n, edges)


def test_enumerate_examples():
    assert list(enumerate_perfect_matchings(ColoredGraph(2, ((0, 1, RED),)))) == [(0,)]
    assert list(enumerate_perfect_matchings(C4)) == [(0, 2), (1, 3)]
    assert list(enumerate_perfect_matchings(complete_graph(4))) == [(0, 5), (1, 4), (2, 3)]


def test_enumerate_empty_and_odd():
    assert list(enumerate_perfect_matchings(ColoredGraph(0, ()))) == [()]
    assert list(enumerate_perfect_matchings(ColoredGraph(3, ((0, 1, RED), (1, 2, RED))))) == []


def test_enumerate_counts_match_oracle():
    rng = random.Random(2024)
    for _ in range(300):
        g = random_colored_graph(rng)
        got = list(enumerate_perfect_matchings(g))
        assert len(got) == count_pms_oracle(g)
        assert len(set(got)) == len(got)
        for m in got:
            assert is_perfect_matching(g, m)


def test_enumerate_canonical_order():
    rng = random.Random(99)
    for _ in range(200):
        g = random_colored_graph(rng, n_max=7)
        got = list(enumerate_perfect_matchings(g))
        keys = [canonical_sort_key(g, m) for m in got]
        assert keys == sorted(keys)


def test_canonical_key_ranks_reversed_edges_by_lower_endpoint():
    # edges stored high endpoint first, as a library caller may build them
    pairs = ((4, 0), (5, 0), (5, 3), (3, 1), (4, 2), (2, 5), (2, 3), (3, 4),
             (4, 1), (2, 0), (5, 1))
    g = ColoredGraph(6, tuple((u, v, BLUE) for u, v in pairs))
    got = list(enumerate_perfect_matchings(g))
    assert got[:3] == [(0, 3, 5), (0, 6, 10), (1, 3, 4)]
    keys = [canonical_sort_key(g, m) for m in got]
    assert keys == sorted(keys)
    rng = random.Random(17)
    for _ in range(300):
        base = random_colored_graph(rng, n_max=6)
        g = ColoredGraph(base.n, tuple((v, u, c) if rng.random() < 0.5 else (u, v, c)
                                       for u, v, c in base.edges))
        keys = [canonical_sort_key(g, m) for m in enumerate_perfect_matchings(g)]
        assert keys == sorted(keys)


def test_budgeted_engine_yields_same_sequence():
    rng = random.Random(5)
    for _ in range(200):
        g = random_colored_graph(rng, n_max=8)
        assert list(enumerate_perfect_matchings(g, max_nodes=10 ** 9)) == \
            list(enumerate_perfect_matchings(g))


def test_budget_max_nodes_boundary():
    # a cap equal to the edges a full enumeration places completes, and
    # one less trips on the last placement
    for graph, placed, matchings in ((C4, 4, 2), (complete_graph(6), 35, 15)):
        full = list(enumerate_perfect_matchings(graph, max_nodes=placed))
        assert full == list(enumerate_perfect_matchings(graph))
        assert len(full) == matchings
        with pytest.raises(BudgetExhausted) as info:
            list(enumerate_perfect_matchings(graph, max_nodes=placed - 1))
        assert info.value.nodes_seen == placed


def test_budget_max_nodes():
    with pytest.raises(BudgetExhausted) as info:
        list(enumerate_perfect_matchings(complete_graph(6), max_nodes=2))
    assert info.value.nodes_seen == 3


def budget_outcome(graph, max_nodes):
    try:
        return "complete", len(list(enumerate_perfect_matchings(graph, max_nodes)))
    except BudgetExhausted as exc:
        return exc.matchings_seen, exc.nodes_seen


@pytest.mark.parametrize("which, expected", [
    (1, [(1, 8), (20, 61)]),
    (2, [(1, 8), (16, 61)]),
    (3, [(1, 8), (18, 61)]),
    ("gadget", [(0, 8), (2, 61)]),
], ids=["seed 1", "seed 2", "seed 3", "gadget"])
def test_budget_counts_are_pinned(which, expected):
    # the search's placement order fixes where a budget trips
    caps = (7, 60)
    if which == "gadget":
        graph = gadgetize(gen_instance(GenSpec(n=8, extra_edges=12, seed=4)))[0].graph
    else:
        graph = gen_instance(GenSpec(n=12, extra_edges=30, seed=which)).graph
    assert [budget_outcome(graph, cap) for cap in caps] == expected


@pytest.mark.parametrize("cap, expected", [
    (10, (0, 11)),
    (1000, (0, 1001)),
    (1018, (1, 1019)),
    (10000, (62, 10001)),
    (10027, ("complete", 64)),
])
def test_budget_counts_are_pinned_where_forced_moves_dominate(cap, expected):
    # the gadget of a chain of paths and squares: forced cascades run
    # along every five-edge path, 1,018 placements reach the first leaf
    # and 10,027 finish the 64 matchings
    chain = path_and_square_chain(6, 54, random.Random(96))
    source = ColoredGraph(chain.n, tuple((u, v, RED if w % 3 == 0 else BLUE)
                                         for u, v, w in chain.edges))
    graph = gadgetize(EmInstance(source, 3))[0].graph
    assert budget_outcome(graph, cap) == expected


# every entry that takes a node cap, each called on an instance it searches
CAPPED_ENTRIES = {
    "enumerate_perfect_matchings": lambda cap: enumerate_perfect_matchings(C4, cap),
    "has_perfect_matching": lambda cap: has_perfect_matching(C4, cap),
    "brute_em": lambda cap: brute_em(EmInstance(C4, 0), cap),
    "tkpm_reaches": lambda cap: tkpm_reaches(
        TkpmInstance(WeightedGraph(2, ((0, 1, 1),)), 1), 1, cap),
    "decide_em_via_tkpm": lambda cap: decide_em_via_tkpm(EmInstance(C4, 0), cap),
    "brute-em row": lambda cap: campaign.ENGINES["brute-em"][1](EmInstance(C4, 0), 0, 1, cap),
    "via-tkpm row": lambda cap: campaign.ENGINES["via-tkpm"][1](EmInstance(C4, 0), 0, 1, cap),
    "_cross_check": lambda cap: campaign._cross_check(iter(()), {}, 1, cap, 0),
    "exhaustive_sweep": lambda cap: campaign.exhaustive_sweep(2, max_nodes=cap),
}


@pytest.mark.parametrize("entry", CAPPED_ENTRIES)
@pytest.mark.parametrize("cap", [0, -1, True, False, 2.0, "3"])
def test_every_capped_entry_rejects_a_cap_that_is_not_a_positive_int(entry, cap):
    # the lazy enumerator raises at the call, before any iteration; a
    # campaign raises before its first instance
    with pytest.raises(ValueError, match="max_nodes must be a positive integer"):
        CAPPED_ENTRIES[entry](cap)


def test_has_perfect_matching_examples():
    assert not has_perfect_matching(ColoredGraph(3, ((0, 1, RED), (1, 2, RED))))
    assert has_perfect_matching(K2_RED)
    star = ColoredGraph(4, ((0, 1, BLUE), (0, 2, BLUE), (0, 3, BLUE)))
    assert not has_perfect_matching(star)


def test_brute_em_examples():
    assert brute_em(EmInstance(K2_RED, 1)) == (0,)
    assert brute_em(EmInstance(K2_RED, 0)) is None
    c4_red0 = ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
    witness = brute_em(EmInstance(c4_red0, 1))
    assert witness is not None and 0 in witness
    assert is_perfect_matching(c4_red0, witness)
    assert red_count(c4_red0, witness) == 1


def test_brute_em_returns_canonically_first_witness():
    g = complete_graph(6, RED)
    witness = brute_em(EmInstance(g, 3))
    matches = [m for m in enumerate_perfect_matchings(g) if red_count(g, m) == 3]
    assert witness == matches[0]


def test_brute_tkpm_examples():
    assert brute_tkpm(TkpmInstance(WeightedGraph(2, ((0, 1, 7),)), 1)) == ((0,), 7)
    path = WeightedGraph(3, ((0, 1, 1), (1, 2, 1)))
    assert brute_tkpm(TkpmInstance(path, 1)) is None
    c4w = WeightedGraph(4, ((0, 1, 3), (1, 2, 0), (2, 3, 2), (0, 3, 0)))
    assert brute_tkpm(TkpmInstance(c4w, 1)) == ((0, 2), 3)


def test_brute_tkpm_tie_break_is_canonical():
    c4w = WeightedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    assert brute_tkpm(TkpmInstance(c4w, 2)) == ((0, 2), 2)


def test_brute_tkpm_k_zero_still_requires_pm():
    path = WeightedGraph(3, ((0, 1, 5), (1, 2, 5)))
    assert brute_tkpm(TkpmInstance(path, 0)) is None
    assert brute_tkpm(TkpmInstance(WeightedGraph(2, ((0, 1, 9),)), 0)) == ((0,), 0)


def test_brute_tkpm_negative_weights_still_find_the_optimum():
    assert brute_tkpm(TkpmInstance(WeightedGraph(2, ((0, 1, -5),)), 1)) == ((0,), -5)
    # two perfect matchings of value -3 tie; the first in canonical order wins
    c4w = WeightedGraph(4, ((0, 1, -1), (1, 2, -2), (2, 3, -2), (0, 3, -1)))
    assert brute_tkpm(TkpmInstance(c4w, 2)) == ((0, 2), -3)


def random_sparse_weighted_graph(rng, n_max=8):
    """A weighted graph on at most n_max vertices, shuffled, built from
    isolated edges, pendant vertices, isolated vertices and a random core,
    so that forced moves run before, between and after branches.
    Returns the graph and the set of those features it has."""
    n = rng.randint(0, n_max)
    verts = list(range(n))
    rng.shuffle(verts)
    pairs = set()
    features = set()
    while len(verts) >= 2 and rng.random() < 0.3:
        pairs.add(tuple(sorted((verts.pop(), verts.pop()))))
        features.add("isolated edge")
    if verts and rng.random() < 0.2:
        verts.pop()
        features.add("isolated vertex")
    density = rng.random()
    for u, v in itertools.combinations(verts, 2):
        if rng.random() < density:
            pairs.add(tuple(sorted((u, v))))
    while len(verts) >= 2 and rng.random() < 0.4:
        pendant = verts.pop()
        pairs.add(tuple(sorted((pendant, rng.choice(verts)))))
        features.add("pendant vertex")
    if n % 2:
        features.add("odd n")
    if n == 0:
        features.add("n = 0")
    edges = tuple((u, v, rng.randint(0, 4)) for u, v in sorted(pairs))
    return WeightedGraph(n, edges), features


def test_tkpm_reaches_matches_brute_tkpm_at_every_threshold():
    rng = random.Random(91)
    seen = set()
    for _ in range(600):
        g, features = random_sparse_weighted_graph(rng)
        seen |= features
        assert validate(g) is None
        k = rng.randint(0, g.n // 2 + 1)
        best = brute_tkpm(TkpmInstance(g, k))
        for threshold in range(sum(g.weights) + 2):
            expected = best is not None and best[1] >= threshold
            assert tkpm_reaches(TkpmInstance(g, k), threshold) is expected, (g, k, threshold)
    assert seen == {"isolated edge", "isolated vertex", "pendant vertex", "odd n", "n = 0"}


def assert_search_lists_the_oracle_set(g):
    expected = sorted(perfect_matchings_oracle(g), key=lambda m: canonical_sort_key(g, m))
    assert list(enumerate_perfect_matchings(g)) == expected, g


def test_search_finds_the_oracle_set_in_canonical_order():
    rng = random.Random(92)
    for _ in range(600):
        g, _ = random_sparse_weighted_graph(rng)
        assert_search_lists_the_oracle_set(g)


def test_brute_cpm_examples():
    k2_blue = ColoredGraph(2, ((0, 1, BLUE),))
    assert brute_cpm(EmInstance(k2_blue, 2)) == (0,)
    assert brute_cpm(EmInstance(K2_RED, 0)) is None
    c4_red0 = ColoredGraph(4, ((0, 1, RED), (1, 2, BLUE), (2, 3, BLUE), (0, 3, BLUE)))
    witness = brute_cpm(EmInstance(c4_red0, 3))
    assert witness is not None and red_count(c4_red0, witness) == 1


def test_brute_bcpm_examples():
    assert brute_bcpm(EmInstance(K2_RED, 0)) is None
    three_red = ColoredGraph(6, ((0, 1, RED), (2, 3, RED), (4, 5, RED)))
    assert brute_cpm(EmInstance(three_red, 1)) == (0, 1, 2)
    assert brute_bcpm(EmInstance(three_red, 1)) is None


def test_em_yes_implies_cpm_and_bcpm_yes():
    rng = random.Random(31)
    checked = 0
    while checked < 60:
        g = random_colored_graph(rng, n_max=6, allow_odd=False)
        for k in range(g.n // 2 + 1):
            inst = EmInstance(g, k)
            if brute_em(inst) is None:
                continue
            checked += 1
            cw = brute_cpm(inst)
            bw = brute_bcpm(inst)
            assert cw is not None and red_count(g, cw) % 2 == k % 2
            assert bw is not None
            rb = red_count(g, bw)
            assert rb <= k and rb % 2 == k % 2


def test_cpm_yes_iff_some_parity_compatible_em_yes():
    rng = random.Random(32)
    for _ in range(120):
        g = random_colored_graph(rng, n_max=6, allow_odd=False)
        for k in range(g.n // 2 + 1):
            cpm_yes = brute_cpm(EmInstance(g, k)) is not None
            em_any = any(
                brute_em(EmInstance(g, kk)) is not None
                for kk in range(k % 2, g.n // 2 + 1, 2))
            assert cpm_yes == em_any


def test_tkpm_value_invariant_under_edge_relabeling():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.choice([2, 4, 6])
        pairs = list(itertools.combinations(range(n), 2))
        m = rng.randint(n // 2, len(pairs))
        chosen = sorted(rng.sample(pairs, m))
        weights = [rng.randint(0, 9) for _ in chosen]
        g = WeightedGraph(n, tuple((u, v, w) for (u, v), w in zip(chosen, weights)))
        order = list(range(m))
        rng.shuffle(order)
        g2 = WeightedGraph(n, tuple(g.edges[i] for i in order))
        for k in range(n // 2 + 1):
            a = brute_tkpm(TkpmInstance(g, k))
            b = brute_tkpm(TkpmInstance(g2, k))
            if a is None:
                assert b is None
            else:
                assert a[1] == b[1]


def test_brute_solvers_deterministic():
    rng = random.Random(34)
    for _ in range(25):
        g = random_colored_graph(rng, n_max=8, allow_odd=False)
        inst = EmInstance(g, rng.randint(0, g.n // 2))
        assert brute_em(inst) == brute_em(inst)
        assert brute_cpm(inst) == brute_cpm(inst)
        assert brute_bcpm(inst) == brute_bcpm(inst)


def test_random_graphs_pass_validation():
    rng = random.Random(35)
    for _ in range(50):
        assert validate(random_colored_graph(rng)) is None


LOOPS_ONLY = ColoredGraph(2, ((0, 0, RED), (1, 1, BLUE)))


def test_self_loop_is_never_matched():
    # a loop covers one vertex twice, so no perfect matching can contain it
    assert brute_em(EmInstance(LOOPS_ONLY, 1)) is None
    assert brute_em(EmInstance(LOOPS_ONLY, 0)) is None
    assert has_perfect_matching(LOOPS_ONLY) is False
    assert has_perfect_matching(LOOPS_ONLY, max_nodes=100) is False
    assert list(_iter_unordered(LOOPS_ONLY)) == []
    assert brute_cpm(EmInstance(LOOPS_ONLY, 1)) is None


def test_search_ignores_self_loops_like_the_oracle():
    rng = random.Random(93)
    with_loops = 0
    for _ in range(400):
        g, _ = random_sparse_weighted_graph(rng)
        if not g.n:
            continue
        loops = tuple((v, v, rng.randint(0, 4))
                      for v in rng.sample(range(g.n), rng.randint(1, g.n)))
        g = WeightedGraph(g.n, g.edges + loops)
        with_loops += 1
        assert_search_lists_the_oracle_set(g)
        k = rng.randint(0, g.n // 2 + 1)
        assert brute_tkpm(TkpmInstance(g, k)) == brute_tkpm(
            TkpmInstance(WeightedGraph(g.n, g.edges[:len(g.edges) - len(loops)]), k))
    assert with_loops > 300


def test_search_on_multigraphs_matches_the_oracles():
    # parallel edges are matched each on its own and self-loops never; a
    # forced vertex has one uncovered neighbour only because a parallel
    # pair keeps its count at two and a self-loop at two or more
    rng = random.Random(94)
    multigraphs = 0
    for _ in range(500):
        g, _ = random_sparse_weighted_graph(rng)
        if not g.edges:
            continue
        # copies of edges, half of them reversed, and loops, each with its
        # own weight, at random edge ids
        copies = [(v, u) if rng.random() < 0.5 else (u, v)
                  for u, v, _ in rng.sample(g.edges, rng.randint(1, len(g.edges)))]
        loops = [(v, v) for v in rng.sample(range(g.n), rng.randint(0, g.n))]
        edges = list(g.edges) + [(u, v, rng.randint(0, 4)) for u, v in copies + loops]
        rng.shuffle(edges)
        g = WeightedGraph(g.n, tuple(edges))
        multigraphs += 1
        assert_search_lists_the_oracle_set(g)
        k = rng.randint(0, g.n // 2 + 1)
        best = brute_tkpm(TkpmInstance(g, k))
        for threshold in range(sum(g.weights) + 2):
            expected = best is not None and best[1] >= threshold
            assert tkpm_reaches(TkpmInstance(g, k), threshold) is expected, (g, k, threshold)
        colored = ColoredGraph(g.n, tuple((u, v, RED if w % 2 else BLUE) for u, v, w in g.edges))
        assert_engines_match_their_oracles(colored, list(enumerate_perfect_matchings(colored)))
    assert multigraphs > 300


def rung_ladder(rungs):
    """The 2 x rungs ladder with vertices numbered rung by rung: rung i
    joins 2i and 2i + 1, and the rails join rung i to rung i + 1. Edge 3i
    is rung i, edges 3i + 1 and 3i + 2 its rails to the next rung."""
    edges = []
    for i in range(rungs):
        a, b = 2 * i, 2 * i + 1
        edges.append((a, b, BLUE))
        if i + 1 < rungs:
            edges += [(a, a + 2, BLUE), (b, b + 2, BLUE)]
    return ColoredGraph(2 * rungs, tuple(edges))


def test_deep_ladder_needs_no_recursion():
    rungs = 1500
    g = rung_ladder(rungs)
    assert g.n == 3000 and validate(g) is None
    assert has_perfect_matching(g) is True
    all_rungs = tuple(range(0, 3 * rungs, 3))
    # canonical order takes a rung wherever it can, so the first three are
    # all rungs, then the rails of the last square, then of the one before
    square_at = lambda i: all_rungs[:i] + (3 * i + 1, 3 * i + 2) + all_rungs[i + 2:]
    first = list(itertools.islice(enumerate_perfect_matchings(g), 3))
    assert first == [all_rungs, square_at(rungs - 2), square_at(rungs - 3)]
    assert brute_em(EmInstance(g, 0)) == all_rungs


def test_unbudgeted_entries_call_the_search_with_the_graph_alone(monkeypatch):
    # the benchmark's tracer counts the matchings visited by wrapping the
    # search in a function of the graph alone
    search = engines._iter_unordered
    leaves = []

    def counting(graph):
        for leaf in search(graph):
            leaves.append(graph)
            yield leaf

    monkeypatch.setattr(engines, "_iter_unordered", counting)

    def leaves_seen(call):
        leaves.clear()
        call()
        return len(leaves)

    blue = complete_graph(6)   # 15 perfect matchings, none with a red edge
    weighted = WeightedGraph(6, tuple((u, v, u + v) for u, v, _ in blue.edges))
    assert leaves_seen(lambda: list(enumerate_perfect_matchings(blue))) == 15
    assert leaves_seen(lambda: has_perfect_matching(blue)) == 1
    # sure-no questions, so every leaf is visited
    assert leaves_seen(lambda: brute_em(EmInstance(blue, 1))) == 15
    assert leaves_seen(lambda: brute_cpm(EmInstance(blue, 1))) == 15
    assert leaves_seen(lambda: brute_bcpm(EmInstance(blue, 1))) == 15
    assert leaves_seen(lambda: brute_tkpm(TkpmInstance(weighted, 2))) == 15
    assert leaves_seen(lambda: tkpm_reaches(TkpmInstance(weighted, 2), 10 ** 6)) == 15
    # the gadget's perfect matchings are in bijection with the source's
    assert leaves_seen(lambda: decide_em_via_tkpm(EmInstance(blue, 1))) == 15


def first_max_oracle(pms, weights, k):
    """brute_tkpm from the sorted matchings: the first maximizer."""
    best = None
    for m in pms:
        value = top_k_weight(weights, m, k)
        if best is None or value > best[1]:
            best = (m, value)
    return best


def assert_engines_match_their_oracles(g, pms):
    """Every engine on g against enumerate-then-filter, where pms is the
    list enumerate_perfect_matchings gave."""
    kinds = set(map(type, pms))
    assert kinds <= {tuple} and len(set(pms)) == len(pms), g
    assert pms == sorted(perfect_matchings_oracle(g), key=lambda m: canonical_sort_key(g, m))
    if isinstance(g, ColoredGraph):
        reds = [red_count(g, m) for m in pms]
        first = lambda ok: next((m for m, r in zip(pms, reds) if ok(r)), None)
        for k in range(g.n // 2 + 2):
            inst = EmInstance(g, k)
            assert brute_em(inst) == first(lambda r: r == k), (g, k)
            assert decide_em_via_tkpm(inst) is (first(lambda r: r == k) is not None), (g, k)
            assert brute_cpm(inst) == first(lambda r: r % 2 == k % 2), (g, k)
            assert brute_bcpm(inst) == first(lambda r: r <= k and r % 2 == k % 2), (g, k)
        return
    for k in range(g.n // 2 + 2):
        inst = TkpmInstance(g, k)
        best = first_max_oracle(pms, g.weights, k)
        assert brute_tkpm(inst) == best, (g, k)
        opt = best[1] if best else 0
        for threshold in (opt - 1, opt, opt + 1):
            expected = best is not None and best[1] >= threshold
            assert tkpm_reaches(inst, threshold) is expected, (g, k, threshold)
    if pms:
        for call in (lambda: brute_tkpm(TkpmInstance(g, -1)),
                     lambda: tkpm_reaches(TkpmInstance(g, -1), 0)):
            with pytest.raises(ValueError):
                call()


def test_leaf_counts_match_enumerate_then_filter():
    rng = random.Random(95)
    seen = set()
    for _ in range(250):
        g = random_colored_graph(rng, n_max=10)
        if rng.random() < 0.3:
            g = ColoredGraph(g.n, tuple((u, v, BLUE) for u, v, _ in g.edges))
        if g.num_red == 0:
            seen.add("no red")
        seen.add("n = 0" if g.n == 0 else "odd n" if g.n % 2 else "even n")
        assert_engines_match_their_oracles(g, list(enumerate_perfect_matchings(g)))
    for _ in range(250):
        g, features = random_sparse_weighted_graph(rng, n_max=10)
        if rng.random() < 0.5:
            distinct = rng.sample(range(100), len(g.edges))
            g = WeightedGraph(g.n, tuple((u, v, w) for (u, v, _), w in zip(g.edges, distinct)))
        seen |= features & {"n = 0", "odd n"}
        seen.add("tied weights" if len(g.class_weights) < len(g.edges) else "distinct weights")
        assert_engines_match_their_oracles(g, list(enumerate_perfect_matchings(g)))
    assert seen == {"no red", "n = 0", "odd n", "even n", "tied weights", "distinct weights"}


def test_negative_k_without_a_perfect_matching_ranks_nothing():
    # k < 0 is rejected on entry, before the search, so it raises on a
    # graph without perfect matchings too (see the property test above)
    no_pm = WeightedGraph(4, ((0, 1, 3),))
    with pytest.raises(ValueError, match="non-negative"):
        brute_tkpm(TkpmInstance(no_pm, -1))
    with pytest.raises(ValueError, match="non-negative"):
        tkpm_reaches(TkpmInstance(no_pm, -1), 0)


def test_brute_em_and_tkpm_reaches_take_a_budget():
    roomy = 10 ** 6
    # both calls below that answer no enumerate all of K6, placing 35
    # edges, so a cap of 34 trips them
    tight = 34
    blue = complete_graph(6)
    weighted = WeightedGraph(6, tuple((u, v, u + v) for u, v, _ in blue.edges))
    assert brute_em(EmInstance(blue, 0), roomy) == brute_em(EmInstance(blue, 0)) == (0, 9, 14)
    assert brute_em(EmInstance(blue, 1), roomy) is None
    with pytest.raises(BudgetExhausted):
        brute_em(EmInstance(blue, 1), tight)
    assert tkpm_reaches(TkpmInstance(weighted, 1), 9, roomy)
    assert not tkpm_reaches(TkpmInstance(weighted, 1), 10, roomy)
    with pytest.raises(BudgetExhausted):
        tkpm_reaches(TkpmInstance(weighted, 1), 10, tight)


def path_and_square_chain(squares, path_vertices, rng):
    """Paths of path_vertices (even) vertices joined by squares, entering
    each square at one corner and leaving at the opposite one, with all
    edge weights distinct. The paths are forced, and each square is
    matched in one of its two ways, so there are 2**squares perfect
    matchings."""
    pairs = []
    nxt = 0
    prev = None
    for piece in range(squares + 1):
        first = nxt
        pairs += [(first + j, first + j + 1) for j in range(path_vertices - 1)]
        if prev is not None:
            pairs.append((prev, first))
        nxt += path_vertices
        prev = nxt - 1
        if piece < squares:
            a, b, c, d = range(nxt, nxt + 4)
            pairs += [(a, b), (b, c), (c, d), (a, d), (prev, a)]
            nxt += 4
            prev = c
    weights = rng.sample(range(10 * len(pairs)), len(pairs))
    return WeightedGraph(nxt, tuple((u, v, w) for (u, v), w in zip(pairs, weights)))


def test_brute_tkpm_with_hundreds_of_weight_classes():
    g = path_and_square_chain(6, 54, random.Random(96))
    assert g.n == 402 and validate(g) is None
    assert g.num_classes == len(g.edges)
    pms = list(enumerate_perfect_matchings(g))
    assert len(pms) == 2 ** 6
    for k in (0, 1, 50, 150, g.n // 2, g.n // 2 + 5):
        best = first_max_oracle(pms, g.weights, k)
        assert brute_tkpm(TkpmInstance(g, k)) == best, k
        assert tkpm_reaches(TkpmInstance(g, k), best[1])
        assert not tkpm_reaches(TkpmInstance(g, k), best[1] + 1)


def test_a_header_vertex_count_does_not_decide_memory():
    # an edgeless graph on a million vertices: fewer than n/2 edges leave
    # some vertex without one, which every engine sees before it builds
    # anything per vertex (adjacency lists, a bipartition)
    n = 1_000_000
    calls = [
        (lambda: has_perfect_matching(ColoredGraph(n, ())), False),
        (lambda: brute_em(EmInstance(ColoredGraph(n, ()), 0)), None),
        (lambda: brute_tkpm(TkpmInstance(WeightedGraph(n, ()), 3)), None),
        (lambda: algebraic_em_decide(EmInstance(ColoredGraph(n, ()), 0), trials=1, seed=0),
         EmDecision(answer=False, error_bound=0.0, transcript=())),
    ]
    for call, expected in calls:
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == expected
        assert peak < 2**20, f"{peak / 2**20:.1f} MiB"
