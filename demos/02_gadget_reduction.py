"""
Exact matching through the top-k gadget
=======================================

The reduction turns an exact matching question into a top-k matching
optimum: subdivide every source edge into a five-edge path, add forced
edges, and compare the best top-k' weight against a threshold. This demo
builds the gadget for a small instance, inspects its anatomy, and walks
the matching bijection in both directions.
"""

from exactmatch import (
    BLUE,
    RED,
    ColoredGraph,
    EmInstance,
    brute_tkpm,
    decide_em_via_tkpm,
    enumerate_perfect_matchings,
    gadgetize,
    lift_matching,
    lifted_value,
    project_matching,
    red_count,
)

c4 = ColoredGraph(4, (
    (0, 1, RED),
    (1, 2, BLUE),
    (2, 3, BLUE),
    (0, 3, BLUE),
))
instance = EmInstance(c4, 1)

gadget, gm = gadgetize(instance)
print(f"source: {c4.n} vertices, {len(c4.edges)} edges, k={instance.k}")
print(f"gadget: {gadget.graph.n} vertices, {len(gadget.graph.edges)} edges")
print(f"k' = {gadget.k}, threshold = {gm.threshold}")

# Each source edge became a path of five gadget edges, numbered in
# construction order: source edge i owns gadget edges 5i..5i+4, and the k
# forced edges come last. Red paths carry weights (0, 2, 3, 2, 0), blue
# paths all zeros, forced edges weight 2.
for i, (_, _, c) in enumerate(c4.edges):
    path = tuple(range(5 * i, 5 * i + 5))
    weights = tuple(gadget.graph.weights[e] for e in path)
    color = "red " if c == RED else "blue"
    print(f"source edge {i} ({color}) -> gadget edges {path} weights {weights}")
first_forced = 5 * len(c4.edges)
print("forced edges:", tuple(range(first_forced, first_forced + instance.k)))

# The bijection: a source perfect matching lifts to a gadget perfect
# matching (matched edges keep path positions 1, 3, 5; unmatched ones
# positions 2, 4; forced edges always join), and projecting by the middle
# path edge undoes it exactly.
for m in enumerate_perfect_matchings(c4):
    lifted = lift_matching(m, gm)
    back = project_matching(lifted, gm)
    r = red_count(c4, m)
    print(f"matching {m} (r={r}) lifts to {len(lifted)} gadget edges, "
          f"value {lifted_value(gm, m)}, projects back to {back}")

# The lifted value hits the threshold exactly when r = k, so the top-k'
# optimum over the gadget decides the original question.
best = brute_tkpm(gadget)
print("gadget optimum:", best[1], "vs threshold", gm.threshold)
print("decide k=1:", decide_em_via_tkpm(EmInstance(c4, 1)))
print("decide k=2:", decide_em_via_tkpm(EmInstance(c4, 2)))
